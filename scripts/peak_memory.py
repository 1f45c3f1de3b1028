"""Peak memory of each layer of ``generate`` and ``detect`` on one graph.

    python3 scripts/peak_memory.py [--seed N] [--detect-seed N] -- <generate options>

For example, perfbench's sym-27 graph shape::

    python3 scripts/peak_memory.py -- --model symmetric --n 19683 \\
        --schedule 3,9,27 --avg-degree 50 --snr 10

One process, with BLAS at one thread as in ``perfbench/run.py``, runs
``hierspect generate`` with the given options (and ``--seed``) into a
temporary directory, ``read_edge_list`` of the edge list it wrote, and
``hierspect detect`` of that file (``--seed`` is ``--detect-seed``).
During the detect, ``bethe_hessian``, ``eigs_symmetric`` and
``estimate_affinity`` are wrapped at the bindings their callers use.

Each line names a step and prints two numbers: the tracemalloc peak
during the step, in MB of traced allocations (what the process already
held when the step began counts), and the process's high-water RSS
(``ru_maxrss``) right after it.  Steps inside the detect are indented and
print as they end, before the detect's own line.  Tracing starts after the
imports, so its bookkeeping adds little to the RSS.  The ``csr`` line
gives the bytes of the graph that was read (indptr, indices and data),
the unit of the memory bound in ``tests/test_graph.py``.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MB = 2.0**20


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakMeter:
    """Tracemalloc peaks of nested steps: a step's peak also counts toward
    every step that encloses it."""

    def __init__(self):
        self.running = []  # the peak so far of each open step, outermost first

    def _fold(self) -> None:
        if self.running:
            self.running[-1] = max(self.running[-1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def step(self, label: str, fn, *args, **kwargs):
        self._fold()
        self.running.append(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._fold()
            peak = self.running.pop()
            if self.running:
                self.running[-1] = max(self.running[-1], peak)
            indent = "  " * len(self.running)
            print(f"{indent + label:<32} {peak / MB:>12.1f} {maxrss_mb():>10.1f}", flush=True)

    def wrap(self, module, attr: str, label) -> None:
        """Measure every call of ``module.attr``; ``label(*args)`` names it."""
        fn = getattr(module, attr)
        setattr(module, attr,
                lambda *args, **kwargs: self.step(label(*args), fn, *args, **kwargs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="generate seed (default 1)")
    parser.add_argument("--detect-seed", type=int, default=0, help="detect seed (default 0)")
    parser.add_argument("generate_args", nargs=argparse.REMAINDER,
                        help="options of `hierspect generate`, after --")
    args = parser.parse_args(argv)
    generate_args = [a for a in args.generate_args if a != "--"]
    if not generate_args:
        parser.error("give the generate options after --")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from hierspect import cli, graph, hierarchy, spectral

    meter = PeakMeter()
    sign = {"tag": ""}

    def bethe_label(_graph, r):
        sign["tag"] = "+r" if r > 0 else "-r"
        return f"bethe_hessian {sign['tag']}"

    meter.wrap(spectral, "bethe_hessian", bethe_label)
    meter.wrap(spectral, "eigs_symmetric", lambda _matrix, m, **_: f"eigs m={m} {sign['tag']}")
    meter.wrap(hierarchy, "estimate_affinity",
               lambda _graph, partition: f"estimate_affinity k={partition.k}")

    def run_cli(argv):
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"hierspect {argv[0]} exited {code}")

    print(f"{'step':<32} {'traced_peak_mb':>12} {'maxrss_mb':>10}")
    print(f"{'start':<32} {0.0:>12.1f} {maxrss_mb():>10.1f}")
    with tempfile.TemporaryDirectory() as tmp:
        edges, truth = Path(tmp) / "edges.tsv", Path(tmp) / "truth.json"
        tracemalloc.start()
        meter.step("generate", run_cli, ["generate", *generate_args, "--seed", str(args.seed),
                                         "--edges", str(edges), "--truth", str(truth)])
        read = meter.step("read_edge_list", graph.read_edge_list, edges)
        adjacency = read.adjacency
        csr = adjacency.indptr.nbytes + adjacency.indices.nbytes + adjacency.data.nbytes
        print(f"{'csr':<32} {csr / MB:>12.1f}")
        del read, adjacency
        meter.step("detect", run_cli, ["detect", "--edges", str(edges), "--out",
                                       str(Path(tmp) / "hierarchy.json"),
                                       "--seed", str(args.detect_seed)])
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
