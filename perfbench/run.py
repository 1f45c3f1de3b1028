"""Benchmark of hierspect's `detect` and `eval` commands.

    python3 perfbench/run.py --workload flat-64 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` and
driven only through ``hierspect.cli.main([...])``, in process, one operation
at a time (a closed loop with a single client).  Inputs are made by
``hierspect generate`` from seeds derived from ``--seed``; ``detect`` and
``eval`` then see only the edge-list and truth files.

A run has two phases:

* set-up: the import of ``hierspect.cli``, timed in fresh interpreters, and
  the generation of the workload's graphs, both repeated ``SETUP_REPS``
  times (``setup_s`` takes the median), plus one untimed warm-up
  ``detect`` and ``eval`` on a small graph of the same model;
* measurement: ``detect`` once, then ``eval`` of its output ``eval_reps``
  times, on the graphs in turn until ``--seconds`` have passed and every
  graph has been visited once.

The host's speed drifts by a quarter over minutes, because other machines'
work shares its cores.  A fixed reference kernel (``reference.py``) is timed
before and after set-up and before and after each timed detect and each
block of evals; each is scaled by ``REFERENCE_S`` over the kernel's mean
time around it, so the end-to-end times read as seconds on the reference
host.  The raw wall
times and the kernel's times are in the details line.

Every operation's output is checked: exit code 0, the document validates
against its schema, and every membership vector has one entry per node.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each graph visit runs an
untraced detect and a traced detect and eval, and the object carries the
per-layer metrics (see ``tracing.py``).  The line before it holds the details: the
environment, per-graph output hashes and level counts, and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    """``graphs`` graphs made by ``generate <generate_args>``.

    Each visit of a graph runs one ``detect`` and ``eval_reps`` ``eval`` of
    its output: an eval costs a fraction of a detect and is noisier, so it
    needs more samples.

    The warm-up graph is a small graph of the same model: large enough to
    take the same code paths (dense or ARPACK eigensolver, k-means,
    perturbation scoring), so it pays the first-call costs, but cheap.
    ``graphs`` is as large as the run's time allows, because detect time
    differs between graphs (see ``Bench.graph_mean``).
    """

    generate_args: tuple
    graphs: int
    eval_reps: int
    warmup_args: tuple


WORKLOADS = {
    "flat-64": Workload(
        ("--model", "flat", "--n", "640", "--groups", "64",
         "--avg-degree", "10", "--snr", "8"),
        graphs=7,
        eval_reps=3,
        warmup_args=("--model", "flat", "--n", "160", "--groups", "16",
                     "--avg-degree", "8", "--snr", "6"),
    ),
    "sym-27": Workload(
        ("--model", "symmetric", "--n", str(3 ** 9), "--schedule", "3,9,27",
         "--avg-degree", "50", "--snr", "10"),
        graphs=2,
        eval_reps=3,
        warmup_args=("--model", "symmetric", "--n", str(3 ** 7), "--schedule", "3,9,27",
                     "--avg-degree", "30", "--snr", "10"),
    ),
    "dis-8": Workload(
        ("--model", "disassortative", "--n", str(2 ** 14), "--schedule", "2,4,8",
         "--avg-degree", "30", "--snr", "8"),
        graphs=4,
        eval_reps=2,
        warmup_args=("--model", "disassortative", "--n", str(2 ** 11), "--schedule", "2,4,8",
                     "--avg-degree", "20", "--snr", "8"),
    ),
}


def derived_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def single_blas_thread() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    One thread is about as fast as two for these sizes, and it keeps other
    work on the same cores from stalling OpenBLAS's spinning worker threads,
    which made detect several times slower on a 2-core machine.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(nproc: int, workers_unset: bool) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "HIERSPECT_WORKERS_unset": workers_unset,
    }


def time_fresh_import() -> float:
    """Seconds to start an interpreter and import hierspect.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hierspect.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def membership_hash(levels) -> str:
    payload = json.dumps([[lvl["k"], lvl["membership"]] for lvl in levels],
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class GraphRecord:
    name: str
    seed: int
    generate_args: tuple
    edges: Path
    truth: Path
    n: int = 0
    truth_levels: list = field(default_factory=list)
    levels: list | None = None
    membership_sha256: str | None = None
    nondeterministic: bool = False
    recall: float | None = None
    precision: float | None = None
    # timed operations on this graph, scaled to the reference host's speed
    detect_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    # wall seconds of the untraced and traced detects, for the tracing overhead
    detect_walls: list = field(default_factory=list)
    traced_detect_walls: list = field(default_factory=list)


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, trace: bool, work: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        # both load numpy, which must come after single_blas_thread()
        from hierspect import cli, serialize

        import reference

        self.cli = cli
        self.serialize = serialize
        self.kernel = reference.Kernel()
        self.reference_s = reference.REFERENCE_S
        self.warmup = self.graph_record("warmup", workload.warmup_args)
        self.graphs = [self.graph_record(f"g{i}", workload.generate_args)
                       for i in range(workload.graphs)]
        self.attempted = 0
        self.failures: list = []
        self.inputs_identical = True
        self.valid_outputs: dict = {}
        self.layer_samples: dict = {}
        self.self_time_checks: list = []
        # one entry per timed visit: the graph, raw walls and the kernel around it
        self.visits: list = []
        self.setup_raw_s = 0.0
        self.setup_kernel_s: list = []

    @property
    def inputs(self) -> list:
        """The warm-up graph and the workload's graphs."""
        return [self.warmup, *self.graphs]

    def graph_record(self, label: str, generate_args: tuple) -> GraphRecord:
        return GraphRecord(label, derived_seed(self.name, self.seed, label), generate_args,
                           self.work / f"{label}.tsv", self.work / f"{label}.truth.json")

    def scale(self, kernel_s: list) -> float:
        """Factor from wall seconds to seconds at the reference host's speed."""
        return self.reference_s / statistics.mean(kernel_s)

    # -- operations -------------------------------------------------------

    def call(self, argv: list, tracer=None) -> tuple:
        """Run one CLI command; return (exit code or None, wall seconds, stderr)."""
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracing.Instrumented(tracer):
                        span = tracer.open(f"cli.{argv[0]}", "cli")
                        try:
                            code = self.cli.main(argv)
                        finally:
                            tracer.close(span)
        except Exception:  # an unexpected crash is a failed operation, not a stop
            code = None
            err.write(traceback.format_exc())
        return code, time.perf_counter() - start, err.getvalue()

    def fail(self, op: str, graph: GraphRecord, reason: str) -> None:
        self.failures.append({"op": op, "graph": graph.name, "reason": reason[-500:]})

    def generate_all(self, directory: Path, tracer=None) -> None:
        directory.mkdir(exist_ok=True)
        for g in self.inputs:
            code, _, err = self.call(
                ["generate", *g.generate_args, "--seed", str(g.seed),
                 "--edges", str(directory / g.edges.name),
                 "--truth", str(directory / g.truth.name)],
                None if g is self.warmup else tracer,
            )
            if code != 0:
                raise RuntimeError(f"generate failed for graph {g.name}: {err}")

    def detect(self, g: GraphRecord, tracer=None) -> float | None:
        """Run and check one detect; return its wall seconds, or None if it failed."""
        out = self.work / f"{g.name}.hierarchy.json"
        out.unlink(missing_ok=True)
        self.attempted += 1
        code, wall, err = self.call(
            ["detect", "--edges", str(g.edges), "--out", str(out), "--seed", str(self.seed)],
            tracer,
        )
        if code != 0:
            self.fail("detect", g, f"exit code {code}: {err}")
            return None
        reason = self.check_detect(g, out)
        if reason:
            self.fail("detect", g, reason)
            return None
        if tracer is not None:
            self.record_trace("detect", tracer, wall, tracing.detect_metrics(
                tracer, out.stat().st_size))
        return wall

    def evaluate(self, g: GraphRecord, tracer=None) -> float | None:
        """Run and check one eval; return its wall seconds, or None if it failed."""
        pred = self.work / f"{g.name}.hierarchy.json"
        out = self.work / f"{g.name}.score.json"
        out.unlink(missing_ok=True)
        self.attempted += 1
        code, wall, err = self.call(
            ["eval", "--truth", str(g.truth), "--pred", str(pred), "--out", str(out)], tracer
        )
        if code != 0:
            self.fail("eval", g, f"exit code {code}: {err}")
            return None
        reason = self.check_eval(g, out)
        if reason:
            self.fail("eval", g, reason)
            return None
        if tracer is not None:
            self.record_trace("eval", tracer, wall, tracing.eval_metrics(tracer))
        return wall

    def visit(self, g: GraphRecord, eval_reps: int, timed: bool = True) -> dict:
        """One detect and ``eval_reps`` evals of its output, untraced; then,
        in a traced run, one traced detect and eval.

        Returns the untraced wall seconds of the operations that succeeded
        and, if ``timed``, the reference kernel's times before the detect,
        between the detect and the evals, and after the evals.
        """
        visit = {"graph": g.name, "kernel_s": [], "detect": [], "eval": []}

        def tick():
            if timed:
                visit["kernel_s"].append(self.kernel.measure())

        tick()
        wall = self.detect(g)
        tick()
        if wall is not None:
            visit["detect"].append(wall)
            for _ in range(eval_reps):
                wall = self.evaluate(g)
                if wall is not None:
                    visit["eval"].append(wall)
        tick()
        if self.trace and visit["detect"]:
            wall = self.detect(g, tracing.Tracer())
            if wall is not None:
                g.traced_detect_walls.append(wall)
                self.evaluate(g, tracing.Tracer())
        return visit

    def record_trace(self, op: str, tracer, wall: float, metrics: dict) -> None:
        for key, value in metrics.items():
            self.layer_samples.setdefault(key, []).append(value)
        layers = tracer.layer_self_times()
        self.self_time_checks.append({
            "op": op,
            "self_time_sum_s": sum(layers.values()),
            "untraced_s": layers["cli"],
            "wall_s": wall,
        })

    # -- output checks ----------------------------------------------------

    def check_detect(self, g: GraphRecord, path: Path) -> str | None:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        digest = hashlib.sha256(raw).hexdigest()
        if digest not in self.valid_outputs:
            try:
                doc = json.loads(raw)
                self.serialize.validate_document(doc, self.serialize.HIERARCHY_SCHEMA)
            except (ValueError, self.serialize.SchemaError) as exc:
                return f"invalid hierarchy document: {exc}"
            if doc["n"] != g.n:
                return f"document has n={doc['n']}, graph has {g.n} nodes"
            for idx, level in enumerate(doc["levels"]):
                if len(level["membership"]) != g.n:
                    return f"level {idx} membership has {len(level['membership'])} entries"
            self.valid_outputs[digest] = (
                [lvl["k"] for lvl in doc["levels"]], membership_hash(doc["levels"])
            )
        levels, mhash = self.valid_outputs[digest]
        if g.membership_sha256 is None:
            g.levels, g.membership_sha256 = levels, mhash
        elif g.membership_sha256 != mhash:
            g.nondeterministic = True
        return None

    def check_eval(self, g: GraphRecord, path: Path) -> str | None:
        try:
            doc = json.loads(path.read_bytes())
            self.serialize.validate_document(doc, self.serialize.SCORE_SCHEMA)
        except (OSError, ValueError, self.serialize.SchemaError) as exc:
            return f"invalid score document: {exc}"
        xi = doc["xi"]
        if len(xi) != len(g.truth_levels) or any(len(row) != len(g.levels) for row in xi):
            return "score matrix shape does not match the level counts"
        if g.recall is None:
            g.recall, g.precision = doc["recall"], doc["precision"]
        return None

    # -- phases -----------------------------------------------------------

    def setup(self) -> float:
        """Generate inputs SETUP_REPS times, warm up; return set-up seconds
        at the reference host's speed."""
        self.setup_kernel_s.append(self.kernel.measure())
        reps = []
        for rep in range(SETUP_REPS):
            import_s = time_fresh_import()
            tracer = tracing.Tracer() if self.trace else None
            start = time.perf_counter()
            self.generate_all(self.work if rep == 0 else self.work / f"rep{rep}", tracer)
            reps.append(import_s + time.perf_counter() - start)
            if tracer is not None:
                self.layer_samples.setdefault("synthetic.generate_s", []).extend(
                    s.self_time for s in tracer.spans if s.name == "synthetic.generate_hierarchical"
                )
        for rep in range(1, SETUP_REPS):
            for g in self.inputs:
                for path in (g.edges, g.truth):
                    if (self.work / f"rep{rep}" / path.name).read_bytes() != path.read_bytes():
                        self.inputs_identical = False
        for g in self.inputs:
            truth = json.loads(g.truth.read_bytes())
            g.n = truth["n"]
            g.truth_levels = [lvl["k"] for lvl in truth["levels"]]
        start = time.perf_counter()
        self.visit(self.warmup, eval_reps=1, timed=False)
        self.setup_raw_s = median(reps) + time.perf_counter() - start
        self.setup_kernel_s.append(self.kernel.measure())
        return self.setup_raw_s * self.scale(self.setup_kernel_s)

    def measure(self, seconds: float) -> None:
        """Visit the graphs in turn; scale each operation's wall time by the
        reference kernel's times just before and after it."""
        deadline = time.perf_counter() + seconds
        # a traced run reports no eval time, so it runs only the traced eval
        eval_reps = 0 if self.trace else self.workload.eval_reps
        i = 0
        while i < len(self.graphs) or time.perf_counter() < deadline:
            g = self.graphs[i % len(self.graphs)]
            visit = self.visit(g, eval_reps)
            kernel_s = visit["kernel_s"]
            g.detect_walls.extend(visit["detect"])
            g.detect_s.extend(w * self.scale(kernel_s[:2]) for w in visit["detect"])
            g.eval_s.extend(w * self.scale(kernel_s[1:]) for w in visit["eval"])
            self.visits.append(visit)
            i += 1

    # -- results ----------------------------------------------------------

    def graph_mean(self, samples: str) -> float:
        """Mean over the graphs of each graph's median time.

        Detect time depends on the graph.  Every graph weighs the same,
        however often the loop visited it.
        """
        medians = [median(getattr(g, samples)) for g in self.graphs if getattr(g, samples)]
        return sum(medians) / len(medians) if medians else 0.0

    def quality(self) -> dict:
        count = len(self.graphs)
        return {
            "recall": sum(g.recall or 0.0 for g in self.graphs) / count,
            "precision": sum(g.precision or 0.0 for g in self.graphs) / count,
            "levels_exact": sum(g.levels == g.truth_levels for g in self.graphs) / count,
        }

    def details(self, env: dict) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "trace": self.trace,
            "environment": env,
            "graphs": [
                {"name": g.name, "seed": g.seed, "n": g.n, "truth_levels": g.truth_levels,
                 "levels": g.levels, "membership_sha256": g.membership_sha256,
                 "nondeterministic": g.nondeterministic, "recall": g.recall,
                 "precision": g.precision}
                for g in self.inputs
            ],
            "reference_s": self.reference_s,
            "setup_raw_s": self.setup_raw_s,
            "setup_kernel_s": self.setup_kernel_s,
            "visits": self.visits,
            "inputs_identical": self.inputs_identical,
            "failed_frac": len(self.failures) / max(self.attempted, 1),
            "failures": self.failures[:20],
            "self_time_checks": self.self_time_checks,
        }


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; return (result object, details)."""
    single_blas_thread()
    nproc = len(os.sched_getaffinity(0))
    workers_unset = os.environ.pop("HIERSPECT_WORKERS", None) is None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        bench = Bench(name, workload, seed, trace, Path(tmp))
        setup_s = bench.setup()
        bench.measure(seconds)
    env = environment(nproc, workers_unset)
    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    if trace:
        samples = bench.layer_samples
        metrics = {key: median(values) for key, values in samples.items()}
        metrics["trace.overhead_s"] = (
            bench.graph_mean("traced_detect_walls") - bench.graph_mean("detect_walls")
        )
    else:
        metrics = {
            "detect_s": bench.graph_mean("detect_s"),
            "eval_s": bench.graph_mean("eval_s"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **bench.quality(),
            "ok_frac": 1.0 - failed / attempted,
        }
    result = {
        "correct": failed == 0 and bench.inputs_identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, bench.details(env)


def with_units(metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, each with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    # a metric with no sample (every traced operation failed) reads 0
    return {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hierspect" / "__init__.py").is_file():
        print(f"error: hierspect sources not found under {SRC}", file=sys.stderr)
        return 2
    result, details = run(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
