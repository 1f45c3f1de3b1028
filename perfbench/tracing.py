"""Span tracing of hierspect's layers from outside the package.

Each traced function is replaced, for the duration of one traced operation,
by a wrapper installed at the binding its caller uses (for example
``hierspect.hierarchy.cluster_bethe_hessian``, because ``hierarchy.py``
imports it by name).  A wrapper records a span -- name, layer, start, end,
parent -- and a few counts taken from the call's arguments and result.
Spans stay in memory; ``detect_metrics`` and ``eval_metrics`` reduce one
operation's spans to the per-layer metrics of the benchmark.

A layer's self time is its spans' duration minus the time covered by their
child spans, so the self times of one operation sum to its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

LAYERS = (
    "cli",
    "graph",
    "spectral",
    "partition_search",
    "hierarchy",
    "serialize",
    "evaluation",
    "synthetic",
)


@dataclass
class Span:
    name: str
    layer: str
    tag: str
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


@dataclass
class Tracer:
    """Spans and counts of one traced operation."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)
    # sign of the Bethe Hessian operator most recently built ("pos"/"neg")
    operator_sign: str = ""

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str, layer: str, tag: str = "") -> Span:
        span = Span(name=name, layer=layer, tag=tag, start=time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_time += span.end - span.start

    def self_time(self, name: str, tag: str | None = None) -> float:
        return sum(
            s.self_time for s in self.spans
            if s.name == name and (tag is None or s.tag == tag)
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_self_times(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[span.layer] += span.self_time
        return out


# Hooks: take (tracer, args, kwargs) before the call or (tracer, result) after.

def _on_bethe_hessian(tracer, args, kwargs):
    r = kwargs.get("r", args[1] if len(args) > 1 else 0.0)
    tracer.operator_sign = "pos" if r > 0 else "neg"


def _on_eigs(tracer, args, kwargs):
    tracer.count("eigs_pairs_requested", int(kwargs.get("m", args[1] if len(args) > 1 else 0)))


def _after_bethe_clustering(tracer, result):
    tracer.count("k_plus", int(result.k_plus))
    tracer.count("k_minus", int(result.k_minus))


def _after_read_edge_list(tracer, result):
    tracer.count("edges", int(result.total_weight) // 2)


# (module, attribute, span name, layer, hook before call, hook after call)
BINDINGS = (
    ("hierspect.cli", "read_edge_list", "graph.read_edge_list", "graph",
     None, _after_read_edge_list),
    ("hierspect.cli", "write_edge_list", "graph.write_edge_list", "graph", None, None),
    ("hierspect.cli", "infer_hierarchy", "hierarchy.infer_hierarchy", "hierarchy", None, None),
    ("hierspect.cli", "hierarchy_to_dict", "serialize.hierarchy_to_dict", "serialize",
     None, None),
    ("hierspect.cli", "dump_json", "serialize.dump_json", "serialize", None, None),
    ("hierspect.cli", "load_levels", "serialize.load_levels", "serialize", None, None),
    ("hierspect.cli", "score_hierarchy", "evaluation.score_hierarchy", "evaluation",
     None, None),
    ("hierspect.cli", "generate_hierarchical", "synthetic.generate_hierarchical",
     "synthetic", None, None),
    ("hierspect.hierarchy", "cluster_bethe_hessian", "spectral.cluster_bethe_hessian",
     "spectral", None, _after_bethe_clustering),
    ("hierspect.hierarchy", "estimate_affinity", "graph.estimate_affinity", "graph",
     None, None),
    ("hierspect.hierarchy", "identify_partitions_and_errors",
     "hierarchy.identify_partitions_and_errors", "hierarchy", None, None),
    ("hierspect.hierarchy", "structural_eigenvectors", "hierarchy.structural_eigenvectors",
     "hierarchy", None, None),
    ("hierspect.hierarchy", "bootstrap_perturb_affinity",
     "hierarchy.bootstrap_perturb_affinity", "hierarchy", None, None),
    ("hierspect.hierarchy", "find_relevant_minima", "hierarchy.find_relevant_minima",
     "hierarchy", None, None),
    ("hierspect.hierarchy", "best_eep_partition", "partition_search.best_eep_partition",
     "partition_search", None, None),
    ("hierspect.hierarchy", "projection_error", "partition_search.projection_error",
     "partition_search", None, None),
    ("hierspect.spectral", "bethe_hessian", "spectral.bethe_hessian", "spectral",
     _on_bethe_hessian, None),
    ("hierspect.spectral", "eigs_symmetric", "spectral.eigs", "spectral", _on_eigs, None),
    # the finest-level k-means belongs to the spectral stage that calls it
    ("hierspect.spectral", "kmeans", "spectral.bh_kmeans", "spectral", None, None),
)


def _wrap(tracer, fn, name, layer, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        tag = tracer.operator_sign if name == "spectral.eigs" else ""
        span = tracer.open(name, layer, tag)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


class Instrumented:
    """Context manager that installs the wrappers for one tracer.

    A binding that no longer exists (a refactor renamed or removed it)
    raises ``AttributeError``, so the traced operation fails instead of
    reporting zero for that layer.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        try:
            for module_name, attr, name, layer, before, after in BINDINGS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                self.saved.append((module, attr, fn))
                setattr(module, attr, _wrap(self.tracer, fn, name, layer, before, after))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()
        return False


def detect_metrics(tracer: Tracer, out_bytes: int) -> dict:
    """Per-layer metrics of one traced ``detect`` operation."""
    t = tracer.self_time
    requested = tracer.counts.get("eigs_pairs_requested", 0)
    kept = tracer.counts.get("k_plus", 0) + tracer.counts.get("k_minus", 0)
    metrics = {
        "spectral.cluster_bethe_hessian_s": t("spectral.cluster_bethe_hessian"),
        "spectral.bethe_hessian_s": t("spectral.bethe_hessian"),
        "spectral.eigs_s": t("spectral.eigs"),
        "spectral.eigs_calls": tracer.calls("spectral.eigs"),
        "spectral.eigs_pos_s": t("spectral.eigs", "pos"),
        "spectral.eigs_neg_s": t("spectral.eigs", "neg"),
        "spectral.eigs_pairs_requested": requested,
        "spectral.eigs_pairs_kept": kept,
        "spectral.pair_yield": kept / requested if requested else 0.0,
        "spectral.k_plus": tracer.counts.get("k_plus", 0),
        "spectral.k_minus": tracer.counts.get("k_minus", 0),
        "spectral.bh_kmeans_s": t("spectral.bh_kmeans"),
        "partition_search.best_eep_partition_s": t("partition_search.best_eep_partition"),
        "partition_search.best_eep_partition_calls":
            tracer.calls("partition_search.best_eep_partition"),
        "partition_search.projection_error_s": t("partition_search.projection_error"),
        "partition_search.projection_error_calls":
            tracer.calls("partition_search.projection_error"),
        "hierarchy.infer_hierarchy_s": t("hierarchy.infer_hierarchy"),
        "hierarchy.identify_partitions_and_errors_s":
            t("hierarchy.identify_partitions_and_errors"),
        "hierarchy.structural_eigenvectors_s": t("hierarchy.structural_eigenvectors"),
        "hierarchy.structural_eigenvectors_calls":
            tracer.calls("hierarchy.structural_eigenvectors"),
        "hierarchy.bootstrap_perturb_affinity_s": t("hierarchy.bootstrap_perturb_affinity"),
        "hierarchy.bootstrap_perturb_affinity_calls":
            tracer.calls("hierarchy.bootstrap_perturb_affinity"),
        "hierarchy.find_relevant_minima_s": t("hierarchy.find_relevant_minima"),
        "hierarchy.levels_attempted": tracer.calls("hierarchy.identify_partitions_and_errors"),
        "graph.read_edge_list_s": t("graph.read_edge_list"),
        "graph.edges": tracer.counts.get("edges", 0),
        "graph.estimate_affinity_s": t("graph.estimate_affinity"),
        "serialize.write_s": t("serialize.hierarchy_to_dict") + t("serialize.dump_json"),
        "serialize.out_bytes": out_bytes,
    }
    for layer, seconds in tracer.layer_self_times().items():
        if layer in ("cli", "graph", "spectral", "partition_search", "hierarchy", "serialize"):
            metrics[f"detect.{layer}_self_s"] = seconds
    return metrics


def eval_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced ``eval`` operation."""
    layers = tracer.layer_self_times()
    return {
        "serialize.load_levels_s": tracer.self_time("serialize.load_levels"),
        "evaluation.score_hierarchy_s": tracer.self_time("evaluation.score_hierarchy"),
        "eval.cli_self_s": layers["cli"],
        "eval.serialize_self_s": layers["serialize"],
        "eval.evaluation_self_s": layers["evaluation"],
    }
