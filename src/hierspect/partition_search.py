"""Projection error of partitions against candidate eigenvectors, and its
minimization through the k-means duality.

The squared projection error of a partition ``H`` against a vector block
``V`` is ``||(I - H H^+) V||_F^2``: the squared residual of ``V`` after
removing group-wise means.  It is zero exactly when every column of ``V``
is constant within each group.  Minimizing it over partitions with ``k``
groups is the same problem as k-means on the rows of ``V``, which is how
``best_eep_partition`` searches for approximately equitable partitions.
``projection_error``, summed by ``Partition.group_means``, is the one
objective: perturbation scoring and every ``kmeans`` restart call it.  The
batched Lloyd centres are summed by ``_cluster_sums``.

``kmeans`` advances its restarts in lockstep, as (restarts, points, ...)
arrays, in blocks bounded by ``BUDGET`` elements.  Every restart keeps its
own random substream and draws from it in the same order as when run
alone, and every per-restart reduction keeps its order, so the result is
bit-for-bit the one of running the restarts one at a time.  Both sums are
weighted ``bincount``s that add each cell's points in point order, starting
from 0.0, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Partition
from .rng import substream

__all__ = ["projection_error", "kmeans", "best_eep_partition", "KMeansResult"]

DEFAULT_RESTARTS = 10
MAX_ITER = 300
# Element budget of the largest (restarts, points, columns) array of a block.
BUDGET = 2**16


def projection_error(partition: Partition, vectors: np.ndarray) -> float:
    """Squared Frobenius norm of ``vectors`` after removing group means."""
    vectors = np.asarray(vectors, dtype=np.float64)
    residual = vectors - partition.group_means(vectors)[partition.assignment]
    return float(np.sum(residual * residual))


def _as_points(x) -> np.ndarray:
    """A 2-d float block of points; a vector is that many 1-d points."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a vector or 2-d block of points, got {x.shape}")
    return x[:, None] if x.ndim == 1 else x


@dataclass(frozen=True)
class KMeansResult:
    partition: Partition
    objective: float


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Canonicalize labels so the first point is group 0, next new group 1, ..."""
    uniq, first = np.unique(labels, return_index=True)
    mapping = np.empty(uniq.size, dtype=np.int64)
    mapping[np.argsort(first)] = np.arange(uniq.size)
    dense = np.searchsorted(uniq, labels)
    return mapping[dense]


def _sq_dist(norms: np.ndarray, twice: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of every point to each restart's centers, (R, m, c).

    ``norms`` and ``twice`` are the points' squared row norms and the points
    doubled; each restart's slice is the same 2-D matrix product as for a
    single restart, so the batch is bit-equal to per-restart evaluation.
    """
    d2 = (
        norms[:, None]
        - twice @ centers.transpose(0, 2, 1)
        + np.sum(centers * centers, axis=2)[:, None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _seed_block(
    points: np.ndarray,
    norms: np.ndarray,
    twice: np.ndarray,
    k: int,
    trials: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Greedy distance-weighted (k-means++ style) seeding of a block of restarts.

    Each step samples a few distance-weighted candidates and keeps the one
    that reduces the seeding potential most; this matters when k is large
    relative to the number of distinct point locations.  Every restart
    draws from its own generator in a fixed order; the weighted draw is
    ``Generator.choice``'s inverse-CDF sampling written out, so it consumes
    and returns exactly what ``choice(m, trials, p=d2 / d2.sum())`` would.
    """
    m = points.shape[0]
    first = points[[rng.integers(m) for rng in rngs]]
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = first
    # one restart at a time: this sum's order follows the input's layout
    d2 = np.stack([np.sum((points - c) ** 2, axis=1) for c in first])
    rows = np.arange(len(rngs))
    candidates = np.empty((len(rngs), trials), dtype=np.int64)
    for j in range(1, k):
        total = d2.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            # rows with zero potential turn to NaN here and are not read
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
        for i, rng in enumerate(rngs):
            if total[i] <= 0.0:
                # one uniform draw; equal columns keep the first under argmin
                candidates[i] = rng.integers(m, size=1)
            else:
                candidates[i] = np.searchsorted(cdf[i], rng.random(trials), side="right")
        cand_d2 = np.minimum(d2[:, :, None], _sq_dist(norms, twice, points[candidates]))
        best = np.argmin(cand_d2.sum(axis=1), axis=1)
        centers[:, j] = points[candidates[rows, best]]
        d2 = cand_d2[rows, :, best]
    return centers


def _cluster_sums(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster sums of the points for each restart's labels, (R, k, d).

    One weighted ``bincount`` per column over the flattened (restart,
    cluster) cells; it adds each cell's points in point order, from 0.0.
    Per column, not per (cell, column) as in ``group_means``: at the finest
    level's size (19,683 points, 27 columns) it takes half the time.
    """
    n_restarts = labels.shape[0]
    cells = (labels + k * np.arange(n_restarts)[:, None]).ravel()
    columns = np.tile(points, (n_restarts, 1)).T
    sums = np.empty((points.shape[1], n_restarts * k))
    for c, column in enumerate(columns):
        sums[c] = np.bincount(cells, weights=column, minlength=n_restarts * k)
    return sums.T.reshape(n_restarts, k, -1)


def _repair_empty(labels: np.ndarray, counts: np.ndarray, d2: np.ndarray) -> None:
    """Hand each empty cluster the point farthest from its current center,
    taken from a cluster with spare members (in place, one restart)."""
    assigned_d2 = d2[np.arange(labels.size), labels]
    for j in np.flatnonzero(counts == 0):
        candidates = np.flatnonzero(counts[labels] > 1)
        idx = candidates[np.argmax(assigned_d2[candidates])]
        counts[labels[idx]] -= 1
        labels[idx] = j
        counts[j] = 1
        assigned_d2[idx] = 0.0


def _block_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster sizes of each restart's labels, (R, k)."""
    offsets = k * np.arange(labels.shape[0])[:, None]
    counts = np.bincount((labels + offsets).ravel(), minlength=labels.shape[0] * k)
    return counts.reshape(-1, k)


def _lloyd_block(
    points: np.ndarray, norms: np.ndarray, twice: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Lloyd iterations for a block of restarts; a restart leaves the batch
    as soon as its labels stop changing.  Returns labels, (R, m)."""
    n_restarts, k, _ = centers.shape
    m = points.shape[0]
    result = np.empty((n_restarts, m), dtype=np.int64)
    active = np.arange(n_restarts)
    labels = np.full((n_restarts, m), -1, dtype=np.int64)
    for _ in range(MAX_ITER):
        d2 = _sq_dist(norms, twice, centers)
        new_labels = np.argmin(d2, axis=2)
        counts = _block_counts(new_labels, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _repair_empty(new_labels[i], counts[i], d2[i])
        done = (new_labels == labels).all(axis=1)
        result[active[done]] = new_labels[done]
        active, labels = active[~done], new_labels[~done]
        if not active.size:
            return result
        centers = _cluster_sums(points, labels, k) / _block_counts(labels, k)[:, :, None]
    result[active] = labels
    return result


def kmeans(
    points: np.ndarray,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> KMeansResult:
    """Best-of-``restarts`` Lloyd's algorithm with k-means++ seeding.

    Deterministic for a fixed seed: each restart draws from its own
    substream, and equal-objective ties break toward the lexicographically
    smallest (first-occurrence-relabeled) assignment.  Restarts run in
    lockstep, in blocks of at most ``BUDGET`` elements of the largest
    (restarts, points, columns) array; the result is bit-equal to running
    each restart on its own, whatever the block size.
    """
    points = _as_points(points)
    m = points.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} must be between 1 and the number of points {m}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    norms = np.sum(points * points, axis=1)
    twice = 2.0 * points
    trials = 2 + int(np.log(k)) if k > 1 else 1
    block = max(1, BUDGET // (m * max(k, trials)))
    best = None
    best_obj = np.inf
    best_key = None
    for start in range(0, restarts, block):
        rngs = [
            substream(seed, "kmeans", ridx)
            for ridx in range(start, min(start + block, restarts))
        ]
        centers = _seed_block(points, norms, twice, k, trials, rngs)
        for labels in _lloyd_block(points, norms, twice, centers):
            partition = Partition.from_labels(_relabel_first_occurrence(labels))
            obj = projection_error(partition, points)
            key = tuple(partition.assignment.tolist())
            if obj < best_obj or (obj == best_obj and key < best_key):
                best, best_obj, best_key = partition, obj, key
    return KMeansResult(partition=best, objective=best_obj)


def best_eep_partition(
    vectors: np.ndarray,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Partition:
    """Partition minimizing the projection error against ``vectors``.

    By the k-means duality, clustering the rows of the vector block into
    ``k`` groups minimizes exactly the squared projection error, so the
    returned partition is the best of the sampled k-means solutions.
    """
    vectors = _as_points(vectors)
    n = vectors.shape[0]
    if not 2 <= k <= n - 1:
        raise ValueError(f"k={k} must be between 2 and n-1={n - 1}")
    return kmeans(vectors, k, restarts=restarts, seed=seed).partition
