"""Projection error of every stage-two candidate on a fixed set of graphs.

    python3 scripts/candidate_objectives.py > objectives.jsonl

Run from any directory; the package is imported from this checkout's
``src/``.  Each graph is detected with ``infer_hierarchy``.  For every
detected level with k >= 3 the script rebuilds that level's candidates
with ``identify_partitions_and_errors(omega, z=1, seed=...)``, under the
seed that detection used, and prints one JSON line per r = 2..k-1: the
graph, the level and the unperturbed objective of candidate r, that is
its ``projection_error`` against the first r columns of
``structural_eigenvectors(omega)``.  Run it on two versions of the
candidate search and ``diff`` the outputs to see where the objective the
search minimises went down or up.

The graphs:

* flat, n = 640, 64 groups, degree 10, SNR 8, graph seeds 0-2, detect
  seed = graph seed + 7;
* the sym-27 and dis-8 benchmark graphs (symmetric 3/9/27, n = 3^9,
  degree 50, SNR 10; disassortative 2/4/8, n = 2^14, degree 30, SNR 8),
  graph seed 3, detect seed 5;
* acceptance criterion 2: symmetric 3/9/27, n = 3^7, degree 20, SNR 10,
  graph seeds 0-4, detect seed = graph seed + 99;
* acceptance criterion 4 at SNR 4: disassortative 2/4/8, n = 2^12,
  degree 30, graph seeds 0-4, detect seed = graph seed + 7.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hierspect import (  # noqa: E402
    SynthSpec,
    generate_hierarchical,
    identify_partitions_and_errors,
    infer_hierarchy,
    projection_error,
    structural_eigenvectors,
)
from hierspect.rng import substream_seed  # noqa: E402


def fixtures():
    """Yield (spec, detect seed) for every graph."""
    for seed in range(3):
        yield SynthSpec(model="flat", n=640, snr=8.0, avg_degree=10.0,
                        schedule=(64,), seed=seed), seed + 7
    yield SynthSpec(model="symmetric", n=3**9, snr=10.0, avg_degree=50.0,
                    schedule=(3, 9, 27), seed=3), 5
    yield SynthSpec(model="disassortative", n=2**14, snr=8.0, avg_degree=30.0,
                    schedule=(2, 4, 8), seed=3), 5
    for seed in range(5):
        yield SynthSpec(model="symmetric", n=3**7, snr=10.0, avg_degree=20.0,
                        schedule=(3, 9, 27), seed=seed), seed + 99
    for seed in range(5):
        yield SynthSpec(model="disassortative", n=2**12, snr=4.0, avg_degree=30.0,
                        schedule=(2, 4, 8), seed=seed), seed + 7


def main() -> None:
    for spec, detect_seed in fixtures():
        graph, _ = generate_hierarchical(spec)
        result = infer_hierarchy(graph, seed=detect_seed)
        for index, level in enumerate(result.levels):
            if level.k < 3:
                continue
            omega = level.affinity
            # the seed ``infer_hierarchy`` gives this level's candidates
            seed = substream_seed(detect_seed, "identify", index + 1)
            partitions = identify_partitions_and_errors(omega, z=1, seed=seed).partitions
            _, vectors = structural_eigenvectors(omega.values)
            for r in range(2, level.k):
                row = {"spec": vars(spec), "detect_seed": detect_seed, "level": index,
                       "k": level.k, "r": r,
                       "objective": projection_error(partitions[r - 1], vectors[:, :r])}
                print(json.dumps(row, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
