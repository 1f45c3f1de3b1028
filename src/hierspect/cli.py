"""Command-line surface: generate benchmarks, detect hierarchies, evaluate
against ground truth, and run SNR sweeps.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Progress goes to standard error; data goes to files or standard output.
Every stochastic run records its seed in the output metadata, and all
randomness flows from the user seed through named substreams.  Set
``HIERSPECT_WORKERS`` to parallelize benchmark repetitions.
"""

from __future__ import annotations

import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np

from .errors import (
    DegenerateGraphError,
    EdgeListError,
    InfeasibleSNRError,
    SchemaError,
    SolverError,
)
from .evaluation import score_hierarchy
from .graph import (
    AffinityMatrix,
    coarse_affinity_update,
    read_edge_list,
    relative_partition,
    write_edge_list,
)
from .hierarchy import infer_hierarchy
from .rng import substream_seed
from .serialize import (
    HIERARCHY_SCHEMA,
    TRUTH_SCHEMA,
    dump_json,
    hierarchy_to_dict,
    load_levels,
    score_to_dict,
    truth_to_dict,
)
from .synthetic import MODELS, SynthSpec, generate_hierarchical

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

DEFAULT_SCHEDULES = {
    "flat": "64",
    "assortative": "2,4,8",
    "disassortative": "2,4,8",
    "symmetric": "3,9,27",
    "asymmetric": "3,5,7",
}


def _status(msg: str) -> None:
    click.echo(msg, err=True)


def _parse_schedule(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"invalid schedule {text!r}; expected e.g. '3,9,27'")


def _resolve_snr(text: str, avg_degree: float) -> float:
    if text == "max":
        return avg_degree  # feasibility boundary: beta = 0
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"invalid --snr {text!r}; expected a number or 'max'")


def _build_spec(model, n, groups, group_size, schedule, snr, avg_degree, seed) -> SynthSpec:
    if model == "flat" and groups is not None:
        schedule_t = (groups,)
    else:
        schedule_t = _parse_schedule(schedule or DEFAULT_SCHEDULES[model])
    if model == "flat" and group_size is not None:
        if n is not None:
            raise click.UsageError("give either --n or --group-size, not both")
        n = schedule_t[0] * group_size
    if n is None:
        raise click.UsageError("--n is required (or --groups with --group-size for flat)")
    if avg_degree is None:
        if model == "flat":
            avg_degree = n / schedule_t[0]  # clique-friendly default
        else:
            raise click.UsageError("--avg-degree is required for this model")
    snr_value = _resolve_snr(snr, avg_degree)
    try:
        return SynthSpec(
            model=model,
            n=n,
            snr=snr_value,
            avg_degree=avg_degree,
            schedule=schedule_t,
            seed=seed,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _truth_document(truth, seed: int) -> dict:
    fine = truth.partitions[0]
    omegas = [np.asarray(truth.omega_fine)]
    omega = AffinityMatrix(values=truth.omega_fine, group_sizes=fine.group_sizes)
    previous = fine
    for coarse in truth.partitions[1:]:
        rel = relative_partition(previous, coarse)
        omega = coarse_affinity_update(omega, rel)
        omegas.append(omega.values)
        previous = coarse
    return truth_to_dict(truth.partitions, omegas, truth.omega_fine, seed=seed)


@click.group()
@click.version_option()
def cli():
    """Hierarchical community detection toolkit."""


@cli.command("generate")
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--n", type=int, default=None, help="Number of nodes.")
@click.option("--groups", type=int, default=None, help="Group count (flat model).")
@click.option("--group-size", type=int, default=None, help="Nodes per group (flat model).")
@click.option("--schedule", type=str, default=None, help="Group counts per level, e.g. '3,9,27'.")
@click.option("--snr", type=str, default="5", help="Signal-to-noise ratio, or 'max'.")
@click.option("--avg-degree", type=float, default=None, help="Expected node degree.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--edges", "edges_path", type=click.Path(), default="edges.tsv", show_default=True)
@click.option("--truth", "truth_path", type=click.Path(), default="truth.json", show_default=True)
def cmd_generate(model, n, groups, group_size, schedule, snr, avg_degree, seed,
                 edges_path, truth_path):
    """Write a synthetic benchmark network and its ground truth."""
    spec = _build_spec(model, n, groups, group_size, schedule, snr, avg_degree, seed)
    graph, truth = generate_hierarchical(spec)
    write_edge_list(graph, edges_path)
    dump_json(_truth_document(truth, seed), truth_path)
    _status(
        f"generated {spec.model} network: n={graph.n}, "
        f"edges={int(graph.total_weight) // 2}, levels={len(truth.partitions)}"
    )


@cli.command("detect")
@click.option("--edges", "edges_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), default="hierarchy.json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--z", type=click.IntRange(min=1), default=100, show_default=True,
              help="Perturbation samples per level.")
def cmd_detect(edges_path, out_path, seed, z):
    """Detect the community hierarchy of an edge-list graph."""
    graph = read_edge_list(edges_path)
    result = infer_hierarchy(graph, seed=seed, z=z)
    dump_json(hierarchy_to_dict(result, seed=seed), out_path)
    counts = ", ".join(str(level.k) for level in result.levels)
    _status(f"detected {len(result.levels)} level(s) with group counts: {counts}")


@cli.command("eval")
@click.option("--truth", "truth_path", type=click.Path(), required=True)
@click.option("--pred", "pred_path", type=click.Path(), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file (default: standard output).")
def cmd_eval(truth_path, pred_path, out_path):
    """Score an inferred hierarchy against planted partitions."""
    n_truth, truth_parts = load_levels(truth_path, TRUTH_SCHEMA)
    n_pred, pred_parts = load_levels(pred_path, HIERARCHY_SCHEMA)
    if n_truth != n_pred:
        raise SchemaError(
            f"node counts differ: truth has {n_truth}, prediction has {n_pred}",
            json_path="$.n",
        )
    report = score_hierarchy(truth_parts, pred_parts)
    doc = score_to_dict(report)
    if out_path is None:
        import json

        click.echo(json.dumps(doc, sort_keys=True, indent=2))
    else:
        dump_json(doc, out_path)
    _status(f"precision={report.precision:.4f} recall={report.recall:.4f}")


def _parse_snr_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("--snr-range must be 'start:stop:step'")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"invalid --snr-range {text!r}")
    if step <= 0 or stop < start:
        raise click.UsageError("--snr-range needs step > 0 and stop >= start")
    values = np.arange(start, stop + step / 2.0, step)
    return [float(v) for v in values]


def _benchmark_rep(task: dict) -> dict:
    """One benchmark repetition: generate, detect, score."""
    spec = task["spec"]
    row = {
        "model": spec.model,
        "snr": spec.snr,
        "rep": task["rep"],
        "seed": spec.seed,
        "status": "ok",
        "n_levels_inferred": "",
        "precision": "",
        "recall": "",
    }
    for i in range(len(spec.schedule)):
        row[f"ami_level_{i + 1}"] = ""
    try:
        graph, truth = generate_hierarchical(spec)
        result = infer_hierarchy(graph, seed=spec.seed, z=task["z"])
        inferred = [level.composed_partition for level in result.levels]
        report = score_hierarchy(truth.partitions, inferred)
        row["n_levels_inferred"] = len(result.levels)
        row["precision"] = f"{report.precision:.6f}"
        row["recall"] = f"{report.recall:.6f}"
        for i in range(report.n_levels_true):
            row[f"ami_level_{i + 1}"] = f"{report.xi[i].max():.6f}"
    except (SolverError, DegenerateGraphError, InfeasibleSNRError, ValueError) as exc:
        row["status"] = f"error: {exc}"
    return row


@cli.command("benchmark")
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--n", type=int, required=True)
@click.option("--schedule", type=str, default=None)
@click.option("--avg-degree", type=float, required=True)
@click.option("--snr-range", type=str, required=True, help="'start:stop:step' sweep.")
@click.option("--reps", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default="results.csv", show_default=True)
@click.option("--z", type=click.IntRange(min=1), default=100, show_default=True)
def cmd_benchmark(model, n, schedule, avg_degree, snr_range, reps, seed, out_path, z):
    """Sweep SNR values with repetitions and write a CSV of scores."""
    schedule_t = _parse_schedule(schedule or DEFAULT_SCHEDULES[model])
    snr_values = _parse_snr_range(snr_range)
    tasks = []
    for snr_idx, snr in enumerate(snr_values):
        for rep in range(reps):
            try:
                spec = SynthSpec(
                    model=model,
                    n=n,
                    snr=snr,
                    avg_degree=avg_degree,
                    schedule=schedule_t,
                    seed=substream_seed(seed, "benchmark", snr_idx, rep),
                )
            except ValueError as exc:
                raise click.UsageError(str(exc))
            tasks.append({"spec": spec, "rep": rep, "z": z})
    try:
        workers = int(os.environ.get("HIERSPECT_WORKERS", "1"))
    except ValueError:
        raise click.UsageError("HIERSPECT_WORKERS must be an integer")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_benchmark_rep, tasks))
    else:
        rows = []
        for i, task in enumerate(tasks):
            rows.append(_benchmark_rep(task))
            _status(f"benchmark {i + 1}/{len(tasks)} done (snr={task['spec'].snr:g})")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        # the columns are _benchmark_rep's row keys; --reps and --snr-range
        # each give at least one task, so rows[0] exists
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _status(f"wrote {len(rows)} rows to {out_path}")


def main(argv=None) -> int:
    """Run the CLI, mapping package exceptions to documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except InfeasibleSNRError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except (EdgeListError, SchemaError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA
    except (SolverError, DegenerateGraphError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_NUMERICAL
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
