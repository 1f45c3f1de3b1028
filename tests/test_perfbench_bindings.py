"""The functions that the perfbench tracer wraps by name still exist, and
its hooks still read the arguments and results they expect."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import hierspect.hierarchy
import hierspect.spectral
from hierspect import generate_planted_partition, solve_planted_params

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_binding_is_callable():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in _load_tracing().BINDINGS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_stage_one_spans_and_counts():
    tracing = _load_tracing()
    alpha, beta = solve_planted_params(4, 20.0, 6.0)
    graph, _ = generate_planted_partition(1500, 4, alpha, beta, seed=8)
    assert graph.n > hierspect.spectral._DENSE_CUTOFF
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        hierspect.hierarchy.cluster_bethe_hessian(graph, seed=5)
    # one eight-value probe at +r: the hooks read m from the probe's second
    # argument and the sign from the operator built before it.  Where the
    # host can fork, -r is counted in a child, whose spans stay there;
    # elsewhere its one-value probe follows
    forked = hierspect.spectral._fork_context() is not None
    tags = [s.tag for s in tracer.spans if s.name == "spectral.eigs"]
    assert tags == (["pos"] if forked else ["pos", "neg"])
    assert tracer.counts["eigs_pairs_requested"] == (8 if forked else 9)
    assert tracer.counts["k_plus"] == 4
    assert tracer.counts["k_minus"] == 0


def test_minus_r_probe_spans():
    tracing = _load_tracing()
    alpha, beta = solve_planted_params(4, 20.0, 6.0)
    graph, _ = generate_planted_partition(1500, 4, alpha, beta, seed=8)
    r = float(np.sqrt(graph.total_weight / graph.n))
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        # called through the module, where the tracer's wrappers are
        op = hierspect.spectral.bethe_hessian(graph, -r)
        count, _ = hierspect.spectral._count_nonpositive(op, seed=5, first=1)
    assert count == 0
    # the -r operator tags the one-value probe that settles its count
    assert [s.tag for s in tracer.spans if s.name == "spectral.eigs"] == ["neg"]
    assert tracer.counts["eigs_pairs_requested"] == 1
