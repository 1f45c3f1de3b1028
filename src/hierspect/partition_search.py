"""Projection error of partitions against candidate eigenvectors, and its
minimization through the k-means duality.

The squared projection error of a partition ``H`` against a vector block
``V`` is ``||(I - H H^+) V||_F^2``: the squared residual of ``V`` after
removing group-wise means.  It is zero exactly when every column of ``V``
is constant within each group.  Minimizing it over partitions with ``k``
groups is the same problem as k-means on the rows of ``V``.
``projection_error``, summed by ``Partition.group_means``, is the one
objective: perturbation scoring calls it, and so does every caller that
wants the error of a ``kmeans`` partition.

Two searches minimize it.  ``best_eep_partition`` proposes the candidates
of the coarser levels without a seed: Ward's greedy merging of the same
squared error, cut at ``k`` groups, then Hartigan single-point moves to a
local minimum.  ``kmeans(points, centers)`` is one run of Lloyd's
algorithm from given centres, the run that stage one makes from the rows
its pivoted QR picks.
"""

from __future__ import annotations

import numpy as np

from .graph import Partition

__all__ = ["projection_error", "kmeans", "best_eep_partition"]

MAX_ITER = 300


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


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Canonicalize labels so the first point is group 0, next new group 1, ..."""
    uniq, first = np.unique(labels, return_index=True)
    mapping = np.empty(uniq.size, dtype=np.int64)
    mapping[np.argsort(first)] = np.arange(uniq.size)
    dense = np.searchsorted(uniq, labels)
    return mapping[dense]


def _sq_dist(norms: np.ndarray, twice: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of every point to every center, (m, c).

    ``norms`` and ``twice`` are the points' squared row norms and the points
    doubled, computed once per ``kmeans`` call.
    """
    d2 = norms[:, None] - twice @ centers.T + np.sum(centers * centers, axis=1)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _repair_empty(labels: np.ndarray, counts: np.ndarray, d2: np.ndarray) -> None:
    """Hand each empty cluster the point farthest from its current center,
    taken from a cluster with spare members (in place)."""
    assigned_d2 = d2[np.arange(labels.size), labels]
    for j in np.flatnonzero(counts == 0):
        candidates = np.flatnonzero(counts[labels] > 1)
        idx = candidates[np.argmax(assigned_d2[candidates])]
        counts[labels[idx]] -= 1
        labels[idx] = j
        counts[j] = 1
        assigned_d2[idx] = 0.0


def _lloyd(
    points: np.ndarray, norms: np.ndarray, twice: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Lloyd iterations from ``centers`` until the labels stop changing."""
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    for _ in range(MAX_ITER):
        d2 = _sq_dist(norms, twice, centers)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            _repair_empty(new_labels, counts, d2)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = Partition.from_labels(labels).group_means(points)
    return labels


def kmeans(points: np.ndarray, centers: np.ndarray) -> Partition:
    """One run of Lloyd's algorithm from ``centers``, until the labels stop
    changing.

    ``centers`` has one row per group (k of them, 1 <= k <= m) and the
    points' dimension.  A group that empties takes the point farthest from
    its centre, so the partition has exactly k groups; its labels are
    numbered by each group's first point.
    """
    points = _as_points(points)
    centers = _as_points(centers)
    m, dim = points.shape
    if centers.shape[1] != dim or not 1 <= centers.shape[0] <= m:
        raise ValueError(
            f"centers have shape {centers.shape}, expected (k, {dim}) with 1 <= k <= {m}"
        )
    labels = _lloyd(points, np.sum(points * points, axis=1), 2.0 * points, centers)
    return Partition.from_labels(_relabel_first_occurrence(labels))


def _ward_cut(points: np.ndarray, k: int) -> np.ndarray:
    """Labels after the first ``m - k`` merges of Ward's linkage, numbered
    by each group's first point.

    Applies the merges in the linkage's row order, so exactly ``k`` groups
    remain even where merge heights tie.
    """
    # scipy.cluster and scipy.spatial add about 0.1 s to ``import hierspect``;
    # imported here, they cost nothing to commands that never reach stage two
    from scipy.cluster.hierarchy import ward

    m = points.shape[0]
    groups = {i: [i] for i in range(m)}
    for i, (a, b) in enumerate(ward(points)[: m - k, :2].astype(np.int64)):
        groups[m + i] = groups.pop(a) + groups.pop(b)
    labels = np.empty(m, dtype=np.int64)
    for g, members in enumerate(sorted(groups.values(), key=min)):
        labels[members] = g
    return labels


def _hartigan(points: np.ndarray, labels: np.ndarray) -> None:
    """Hartigan single-point moves to a local minimum of the squared error
    (in place).

    Moving point i from group a to group b lowers the error exactly when
    ``n_b/(n_b+1)·|x_i - mu_b|^2 < n_a/(n_a-1)·|x_i - mu_a|^2``.  The points
    are visited in cyclic index order, each moving to the group of least
    cost (the lowest label on ties) when that cost is strictly below the
    saving of leaving its own group; a point alone in its group stays.  The
    loop ends when no point can move.  Each move strictly lowers the error;
    the bound on moves only guards against rounding cycling between
    near-equal moves.
    """
    from scipy.spatial.distance import cdist

    m = points.shape[0]
    rows = np.arange(m)
    partition = Partition.from_labels(labels)
    means = partition.group_means(points)
    counts = partition.group_sizes.astype(np.float64)
    d2 = cdist(points, means, "sqeuclidean")
    start = 0
    for _ in range(MAX_ITER * m):
        n_own = counts[labels]
        leave = np.where(n_own > 1, n_own / np.maximum(n_own - 1, 1), 0.0) * d2[rows, labels]
        join = counts / (counts + 1) * d2
        join[rows, labels] = np.inf
        target = np.argmin(join, axis=1)
        movers = np.flatnonzero(join[rows, target] < leave)
        if not movers.size:
            return
        # the first mover from ``start`` on is the point that a sequential
        # pass would move next: the points before it see the same means
        later = movers[movers >= start]
        i = later[0] if later.size else movers[0]
        moved = [labels[i], target[i]]
        labels[i] = target[i]
        counts[moved] += (-1, 1)
        means[moved] = [points[labels == g].mean(axis=0) for g in moved]
        d2[:, moved] = cdist(points, means[moved], "sqeuclidean")
        start = i + 1


def best_eep_partition(vectors: np.ndarray, k: int) -> Partition:
    """Partition of the rows of ``vectors`` into ``k`` groups with a locally
    minimal projection error.

    By the k-means duality the projection error is the squared error of
    the rows around their group means.  Ward's linkage merges rows greedily
    by the least increase of that error; its cut at ``k`` groups is refined
    by Hartigan moves until no single row can move to lower it.  There is
    no seed: the result depends on ``vectors`` and ``k`` alone.
    """
    points = _as_points(vectors)
    n = points.shape[0]
    if not 2 <= k <= n - 1:
        raise ValueError(f"k={k} must be between 2 and n-1={n - 1}")
    labels = _ward_cut(points, k)
    _hartigan(points, labels)
    return Partition.from_labels(_relabel_first_occurrence(labels))
