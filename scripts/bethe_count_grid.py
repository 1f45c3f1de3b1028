"""Bethe Hessian counts, finest assignments and detect output on a
near-threshold grid.

    python3 scripts/bethe_count_grid.py > counts.jsonl

Run from any directory; the package is imported from this checkout's
``src/``.  For each graph of the grid it prints one JSON line: the graph
spec, the detect seed, k-plus, k-minus, the sha256 of the assignment
bytes that ``cluster_bethe_hessian`` returns, the stage-one objective (the
``projection_error`` of that assignment against the Bethe Hessian vectors
that its ``kmeans`` call clusters, computed from the call's arguments;
null when k-hat is 1 and no k-means runs), the AMI of that assignment
against the planted finest level, the level sizes of ``infer_hierarchy``,
the sha256 of its document as ``hierspect detect`` writes it
(``dump_json`` of ``hierarchy_to_dict``), the sha256 of the
document's ``diagnostics`` with every float written as ``%.12g``
(``diagnostics_sha256_12``), and the sha256 of the score document of the
planted levels against the detected levels as ``hierspect eval`` writes it
(``dump_json`` of ``score_to_dict`` of ``score_hierarchy``;
``eval_sha256``).
Run it on two versions of the code and ``diff`` the outputs to show that a
change to the eigensolver, the k-means or the candidate scoring leaves the
output as it was, including the marginal counts near the detectability
threshold; where an assignment changes, the objective and the AMI show
whether its quality moved.  A change to scoring alone should leave every
field but ``eval_sha256`` as it was, and that one too when its arithmetic
is the same.  A change that moves only the last bits of the
mean errors changes ``detect_sha256`` and keeps most rows'
``diagnostics_sha256_12``, but not every row's: the golden-section fit
stops once its bracket is at most ``SIGMA_TOL``, so a last-bit move of
the errors can move a fitted sigma by up to ``SIGMA_TOL`` (beyond 12
digits for sigma near 1), and an MSLE near zero can move at any digit.

The grid (36 graphs; the last two groups are at or below the dense
cutoff, so on the LAPACK path, and the others on the ARPACK path):

* assortative and disassortative 2/4/8, n = 2^12, degree 30, SNR 1.5, 2
  and 3, graph seeds 0-2, detect seed = graph seed + 7;
* Erdos-Renyi, n = 2000, degree 20, graph seeds 40-44, detect seed =
  graph seed - 37 (the ER half of acceptance criterion 9);
* symmetric 3/9/27, n = 3^7, degree 20, SNR 2 and 4, graph seeds 0-1,
  detect seed = graph seed + 7;
* flat, n = 640, 64 groups, degree 10, SNR 8, graph seeds 0-2, detect
  seed = graph seed + 7 (where candidate scoring runs most);
* near the threshold on the dense path: assortative and disassortative
  2/4/8, n = 1024, degree 30, SNR 3, and symmetric 3/9/27, n = 729,
  degree 30, SNR 4, graph seeds 0-1, detect seed = graph seed + 7.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hierspect.spectral as spectral  # noqa: E402
from hierspect import (  # noqa: E402
    SynthSpec,
    ami,
    cluster_bethe_hessian,
    generate_hierarchical,
    generate_planted_partition,
    infer_hierarchy,
    projection_error,
    score_hierarchy,
)
from hierspect.serialize import dump_json, hierarchy_to_dict, score_to_dict  # noqa: E402


def grid():
    """Yield (spec dict, graph, planted partitions fine to coarse, detect
    seed) for every graph of the grid."""
    for model in ("assortative", "disassortative"):
        for snr in (1.5, 2.0, 3.0):
            for seed in range(3):
                spec = SynthSpec(model=model, n=2**12, snr=snr, avg_degree=30.0,
                                 schedule=(2, 4, 8), seed=seed)
                yield hierarchical(spec, seed + 7)
    for seed in range(40, 45):
        spec = {"model": "er", "n": 2000, "avg_degree": 20.0, "seed": seed}
        graph, planted = generate_planted_partition(2000, 1, 20.0, 20.0, seed=seed)
        yield spec, graph, [planted], seed - 37
    for snr in (2.0, 4.0):
        for seed in range(2):
            spec = SynthSpec(model="symmetric", n=3**7, snr=snr, avg_degree=20.0,
                             schedule=(3, 9, 27), seed=seed)
            yield hierarchical(spec, seed + 7)
    for seed in range(3):
        spec = SynthSpec(model="flat", n=640, snr=8.0, avg_degree=10.0,
                         schedule=(64,), seed=seed)
        yield hierarchical(spec, seed + 7)
    for model, n, snr, schedule in (("assortative", 1024, 3.0, (2, 4, 8)),
                                    ("disassortative", 1024, 3.0, (2, 4, 8)),
                                    ("symmetric", 729, 4.0, (3, 9, 27))):
        for seed in range(2):
            spec = SynthSpec(model=model, n=n, snr=snr, avg_degree=30.0,
                             schedule=schedule, seed=seed)
            yield hierarchical(spec, seed + 7)


def hierarchical(spec: SynthSpec, detect_seed: int):
    """One grid row's inputs for a ``generate_hierarchical`` spec."""
    graph, truth = generate_hierarchical(spec)
    return vars(spec), graph, truth.partitions, detect_seed


def stage_one(graph, seed: int):
    """``cluster_bethe_hessian`` and the ``projection_error`` of its
    ``kmeans`` partition against the points of that call (None when no
    k-means runs)."""
    real = spectral.kmeans
    objectives = []

    def recording(*args, **kwargs):
        partition = real(*args, **kwargs)
        objectives.append(projection_error(partition, args[0]))
        return partition

    spectral.kmeans = recording
    try:
        res = cluster_bethe_hessian(graph, seed=seed)
    finally:
        spectral.kmeans = real
    return res, objectives[0] if objectives else None


def detect_json_sha256(result, seed: int, directory: Path) -> str:
    """sha256 of the bytes ``dump_json`` writes for the detection's document."""
    path = directory / "detect.json"
    dump_json(hierarchy_to_dict(result, seed=seed), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def eval_json_sha256(truth, result, directory: Path) -> str:
    """sha256 of the bytes ``hierspect eval`` writes for the planted levels
    against the detection's levels."""
    path = directory / "score.json"
    inferred = [level.composed_partition for level in result.levels]
    dump_json(score_to_dict(score_hierarchy(truth, inferred)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rounded(value):
    """``value`` with every float replaced by its ``%.12g`` string."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


def diagnostics_sha256_12(result) -> str:
    """sha256 of the detection's diagnostics, every float to 12 significant
    digits, so rounding in the last bits of most floats does not move it;
    a fitted sigma can still move by up to ``SIGMA_TOL``."""
    text = json.dumps(rounded(result.diagnostics), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for spec, graph, truth, detect_seed in grid():
            res, objective = stage_one(graph, detect_seed)
            digest = hashlib.sha256(res.partition.assignment.tobytes()).hexdigest()
            with warnings.catch_warnings():
                # AMI of two one-group partitions (the ER rows) warns
                warnings.simplefilter("ignore")
                finest_ami = ami(res.partition, truth[0])
            result = infer_hierarchy(graph, seed=detect_seed)
            row = {"spec": spec, "detect_seed": detect_seed, "k_plus": res.k_plus,
                   "k_minus": res.k_minus, "assignment_sha256": digest,
                   "projection_error": None if objective is None else round(objective, 6),
                   "finest_ami": round(finest_ami, 6),
                   "levels": [level.k for level in result.levels],
                   "detect_sha256": detect_json_sha256(result, detect_seed, Path(tmp)),
                   "diagnostics_sha256_12": diagnostics_sha256_12(result),
                   "eval_sha256": eval_json_sha256(truth, result, Path(tmp))}
            print(json.dumps(row, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
