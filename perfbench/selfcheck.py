"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of ``run.py`` on one graph of the size of its warm-up
graph, untraced and traced, and checks that

* every operation succeeded and the run reports ``correct``;
* every metric BENCHMARK.json lists for the mode is measured (not filled
  in) and is printed with the unit BENCHMARK.json gives it;
* in the traced run, the self times of each operation's spans sum to no
  more than that operation's wall time, and the time no layer's span
  covers (the ``cli`` self time) is at most ``UNTRACED_SHARE`` of the
  operations' wall time, summed over each kind of operation;
* a binding that does not exist makes tracing fail and leaves every
  traced function as it was.

Exits with 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import importlib
import json
import math
import sys

import run
import tracing

UNTRACED_SHARE = 0.05

# each workload at the size of its warm-up graph
SMALL = {
    name: run.Workload(w.warmup_args, graphs=1, eval_reps=1, warmup_args=w.warmup_args)
    for name, w in run.WORKLOADS.items()
}


def check(name: str, trace: bool) -> list:
    result, details = run.run(name, SMALL[name], seed=1, seconds=0.0, trace=trace)
    where = f"{name} trace={int(trace)}"
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: run not correct: {details['failures']}")
    if "failed_frac" not in details:
        problems.append(f"{where}: failed_frac missing from the details")
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    printed = run.with_units(result["metrics"], trace)
    for metric in listed:
        key = metric["name"]
        if key not in result["metrics"]:
            problems.append(f"{where}: {key} not measured")
        value = printed[key]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {key} is not a finite number: {value!r}")
        if printed[key]["unit"] != metric["unit"]:
            problems.append(f"{where}: {key} printed with unit {printed[key]['unit']!r}")
    if trace and not details["self_time_checks"]:
        problems.append(f"{where}: no traced operation")
    for op in details["self_time_checks"]:
        if op["self_time_sum_s"] > op["wall_s"]:
            problems.append(f"{where}: {op['op']} self times {op['self_time_sum_s']:.6f} s "
                            f"exceed its wall time {op['wall_s']:.6f} s")
    for kind in ("detect", "eval"):
        ops = [op for op in details["self_time_checks"] if op["op"] == kind]
        untraced = sum(op["untraced_s"] for op in ops)
        wall = sum(op["wall_s"] for op in ops)
        if untraced > UNTRACED_SHARE * wall:
            problems.append(f"{where}: the {kind} operations spend {untraced:.6f} s of "
                            f"{wall:.6f} s outside every traced layer")
    return problems


def check_missing_binding() -> list:
    """Tracing a binding that does not exist must fail and restore the rest."""
    originals = [getattr(importlib.import_module(m), a) for m, a, *_ in tracing.BINDINGS]
    bindings = tracing.BINDINGS
    tracing.BINDINGS = bindings + (
        ("hierspect.hierarchy", "no_such_function", "hierarchy.none", "hierarchy", None, None),
    )
    problems = []
    try:
        with tracing.Instrumented(tracing.Tracer()):
            problems.append("tracing a missing binding did not fail")
    except AttributeError:
        pass
    finally:
        tracing.BINDINGS = bindings
    now = [getattr(importlib.import_module(m), a) for m, a, *_ in bindings]
    if any(a is not b for a, b in zip(originals, now)):
        problems.append("a failed tracing left a wrapper installed")
    return problems


def main() -> int:
    problems = []
    for name in SMALL:
        for trace in (False, True):
            problems += check(name, trace)
            print(f"checked {name} trace={int(trace)}", file=sys.stderr)
    problems += check_missing_binding()
    for problem in problems:
        print(problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
