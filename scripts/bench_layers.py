"""Per-layer benchmark files: traced perfbench runs on fixed seeds.

    python3 scripts/bench_layers.py --tag <tag> [--root <checkout>]
    python3 scripts/bench_layers.py --compare <tag-a> <tag-b>

``--tag`` runs ``perfbench/run.py --trace 1`` once for each workload and
seed in ``SEEDS``, with ``--seconds 0`` (each graph of the workload is
visited once), and writes ``BENCH_<tag>.json`` at the root of this
repository.  ``--root`` runs the perfbench of another checkout, for
example a ``git archive`` of an older commit with this checkout's
``perfbench/`` copied in; the file is still written here.  For each run
the file holds the per-layer metrics (the result line), and from the
details line the per-graph levels and membership hashes, whether the
generated inputs were identical across the set-up repetitions, the
failures, and the reference kernel's times (``reference.py``) around the
set-up and each visit.

The layer times are raw wall seconds.  The host's speed drifts within
minutes, so two files compare only when they were made close together,
ideally alternating; ``--compare`` prints each file's median kernel time
next to the per-layer medians over seeds and their ratio ``b / a``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flat-64", "sym-27", "dis-8")
SEEDS = (1, 2)


def bench_path(tag: str) -> Path:
    return ROOT / f"BENCH_{tag}.json"


def traced_run(root: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 1`` run: its result and details lines."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    details, result = json.loads(out[-2]), json.loads(out[-1])
    return {
        "workload": workload,
        "seed": seed,
        "result": result,
        "graphs": [{key: g[key] for key in ("name", "levels", "membership_sha256")}
                   for g in details["graphs"]],
        "inputs_identical": details["inputs_identical"],
        "failures": details["failures"],
        "reference_s": details["reference_s"],
        "setup_kernel_s": details["setup_kernel_s"],
        "visit_kernel_s": [visit["kernel_s"] for visit in details["visits"]],
    }


def kernel_median(run: dict) -> float:
    times = list(run["setup_kernel_s"])
    for kernel_s in run["visit_kernel_s"]:
        times.extend(kernel_s)
    return statistics.median(times)


def git(root: Path, *args) -> str:
    out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return out.stdout.strip()


def record(tag: str, root: Path) -> None:
    # a checkout without git history records null; "dirty" marks changes
    # to tracked files on top of the commit
    commit = git(root, "rev-parse", "HEAD") or None
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            runs.append(traced_run(root, workload, seed))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    path = bench_path(tag)
    bench = {"tag": tag, "commit": commit, "dirty": dirty, "runs": runs}
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)


def layer_medians(bench: dict, workload: str) -> tuple[dict, float]:
    """Median over seeds of each per-layer metric, and of the kernel time."""
    runs = [run for run in bench["runs"] if run["workload"] == workload]
    names = runs[0]["result"]["metrics"]
    medians = {name: statistics.median(run["result"]["metrics"][name]["value"] for run in runs)
               for name in names}
    return medians, statistics.median(kernel_median(run) for run in runs)


def compare(tag_a: str, tag_b: str) -> None:
    a, b = (json.loads(bench_path(tag).read_text()) for tag in (tag_a, tag_b))
    for workload in WORKLOADS:
        (layers_a, kernel_a), (layers_b, kernel_b) = (layer_medians(bench, workload)
                                                      for bench in (a, b))
        print(f"{workload}: {tag_a} -> {tag_b}")
        print(f"  {'reference kernel s':<46} {kernel_a:>12.4g} {kernel_b:>12.4g}"
              f" {kernel_b / kernel_a:>8.3f}")
        for name, value_a in layers_a.items():
            value_b = layers_b.get(name, 0.0)
            ratio = f"{value_b / value_a:>8.3f}" if value_a else f"{'-':>8}"
            print(f"  {name:<46} {value_a:>12.4g} {value_b:>12.4g} {ratio}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--tag", help="record BENCH_<tag>.json")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print per-layer ratios B / A of two recorded tags")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose perfbench/run.py to run (default: this one)")
    args = parser.parse_args(argv)
    if args.tag:
        record(args.tag, args.root.resolve())
    else:
        compare(*args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
