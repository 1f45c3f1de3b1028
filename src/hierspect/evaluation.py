"""Partition-similarity scoring: adjusted mutual information, pairwise score
matrices between partition lists, and hierarchy precision/recall.

AMI is chance-corrected under the permutation (fixed-marginals) null:
``(I - E[I]) / ((Ent1 + Ent2)/2 - E[I])``.  The expectation is computed
analytically from the hypergeometric distribution of contingency cells.
All information quantities use natural logarithms (AMI itself is
base-invariant).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Partition

__all__ = [
    "ami",
    "mutual_information",
    "entropy",
    "expected_mutual_information",
    "score_matrix",
    "score_hierarchy",
    "ScoreReport",
]


def _partition(partition) -> Partition:
    if isinstance(partition, Partition):
        return partition
    return Partition.from_labels(np.asarray(partition))


def _labels(partition) -> np.ndarray:
    return _partition(partition).assignment


def _contingency(labels1: np.ndarray, labels2: np.ndarray) -> np.ndarray:
    k1 = int(labels1.max()) + 1
    k2 = int(labels2.max()) + 1
    return np.bincount(labels1 * k2 + labels2, minlength=k1 * k2).reshape(k1, k2)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts / n
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def entropy(labels) -> float:
    """Shannon entropy (nats) of a label assignment."""
    labels = _labels(labels)
    return _entropy(np.bincount(labels), labels.size)


def _mutual_information(cont: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> float:
    """MI of a contingency table with row sums ``a`` and column sums ``b``."""
    nz = cont > 0
    nij = cont[nz].astype(np.float64)
    outer = np.outer(a, b)[nz].astype(np.float64)
    return float(np.sum(nij / n * (np.log(nij * n) - np.log(outer))))


def mutual_information(labels1, labels2) -> float:
    """Mutual information (nats) between two assignments of the same items."""
    labels1, labels2 = _labels(labels1), _labels(labels2)
    if labels1.size != labels2.size:
        raise ValueError("partitions must cover the same number of items")
    cont = _contingency(labels1, labels2)
    return _mutual_information(cont, cont.sum(axis=1), cont.sum(axis=0), labels1.size)


def expected_mutual_information(row_sums, col_sums, n: int) -> float:
    """Analytic expected MI under the permutation null with fixed marginals.

    For each contingency cell the count follows a hypergeometric law; the
    expectation sums the MI contribution weighted by that law (Vinh, Epps
    and Bailey, 2010, "Information theoretic measures for clusterings
    comparison", JMLR 11).  A cell's term depends only on its two
    marginals, so it is computed once per distinct pair of marginal
    values.  Log-factorials come from one ``gammaln`` table over
    ``0..n+1``.  For each distinct row marginal the count ranges of all
    distinct column marginals are laid end to end, at most ``n`` entries,
    and scored in one vectorized pass; zero marginals have empty ranges
    and add nothing.  Each cell is summed by its own ``np.sum``, which sums
    pairwise, and the cells are added one after another in row-major
    order, so the result is the same float as a loop over the cells.
    """
    # imported on first use: it adds about 50 ms to every start of the CLI
    from scipy.special import gammaln

    a = np.asarray(row_sums, dtype=np.int64)
    b = np.asarray(col_sums, dtype=np.int64)
    if a.sum() != n or b.sum() != n:
        raise ValueError("marginals must sum to the number of items")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("marginals must be non-negative")
    a_values, a_index = np.unique(a, return_inverse=True)
    b_values, b_index = np.unique(b, return_inverse=True)
    log_n = np.log(n)
    lgam = gammaln(np.arange(n + 2))  # lgam[m] = log((m - 1)!)
    # hypergeometric log-probability pieces independent of the cell count
    gln_b = lgam[b_values + 1]
    gln_nb = lgam[n - b_values + 1]
    gln_n = lgam[n + 1]
    cell_terms = np.zeros((a_values.size, b_values.size))
    for row, ai in enumerate(a_values):
        if ai == 0:
            continue  # no cell of an empty row has a count range
        lo = np.maximum(1, ai + b_values - n)
        length = np.minimum(ai, b_values) - lo + 1  # 0 where b is 0
        start = np.cumsum(length) - length
        nij = np.arange(length.sum()) + np.repeat(lo - start, length)
        bj = np.repeat(b_values, length)
        head = lgam[ai + 1] + gln_b + lgam[n - ai + 1] + gln_nb - gln_n
        log_p = (
            np.repeat(head, length)
            - lgam[nij + 1]
            - lgam[ai - nij + 1]
            - lgam[bj - nij + 1]
            - lgam[n - ai - bj + nij + 1]
        )
        contrib = nij / n * (np.log(nij) + log_n - np.log(ai) - np.log(bj))
        terms = np.exp(log_p) * contrib
        for col in np.flatnonzero(length).tolist():
            cell_terms[row, col] = np.sum(terms[start[col] : start[col] + length[col]])
    cells = cell_terms[np.ix_(a_index, b_index)].ravel()
    # cumsum adds the cells in sequence, where np.sum would add them pairwise
    return float(np.cumsum(np.concatenate(([0.0], cells)))[-1])


def _identical_up_to_relabeling(cont: np.ndarray) -> bool:
    if cont.shape[0] != cont.shape[1]:
        return False
    nz = cont > 0
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def ami(p1, p2) -> float:
    """Adjusted mutual information between two partitions of the same items.

    Returns 1 for partitions identical up to relabeling and 0 against a
    single-group partition; values can be slightly negative due to the
    chance adjustment.  Two single-group partitions are identical by
    convention (returned as 1 with a warning).
    """
    labels1, labels2 = _labels(p1), _labels(p2)
    if labels1.size != labels2.size:
        raise ValueError("partitions must cover the same number of items")
    n = labels1.size
    cont = _contingency(labels1, labels2)
    if cont.shape == (1, 1):
        warnings.warn(
            "both partitions are trivial (one group); AMI defined as 1",
            stacklevel=2,
        )
        return 1.0
    if _identical_up_to_relabeling(cont):
        return 1.0
    a, b = cont.sum(axis=1), cont.sum(axis=0)  # the label counts of each side
    mi = _mutual_information(cont, a, b, n)
    emi = expected_mutual_information(a, b, n)
    denom = (_entropy(a, n) + _entropy(b, n)) / 2.0 - emi
    if denom <= 0.0:
        # chance-level agreement is the best the marginals allow
        return 0.0
    return (mi - emi) / denom


@dataclass(frozen=True)
class ScoreReport:
    """Pairwise AMI score matrix with hierarchy precision and recall.

    ``xi[i, j]`` compares true level ``i`` against inferred level ``j``;
    precision averages the column maxima (every inferred level should match
    some true level) and recall the row maxima (every true level should be
    recovered).
    """

    xi: np.ndarray
    precision: float
    recall: float
    n_levels_true: int
    n_levels_inferred: int


def score_matrix(truth, inferred) -> np.ndarray:
    truth = [_partition(p) for p in truth]
    inferred = [_partition(p) for p in inferred]
    if not truth or not inferred:
        raise ValueError("partition lists must be non-empty")
    sizes = {p.n for p in truth} | {p.n for p in inferred}
    if len(sizes) != 1:
        raise ValueError(f"all partitions must cover the same items, got sizes {sorted(sizes)}")
    xi = np.empty((len(truth), len(inferred)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # trivial-vs-trivial convention
        for i, t in enumerate(truth):
            for j, p in enumerate(inferred):
                xi[i, j] = ami(t, p)
    return xi


def score_hierarchy(truth, inferred) -> ScoreReport:
    """Score an inferred hierarchy against planted partitions.

    Raw AMI values are used throughout (no clamping of slightly negative
    scores).
    """
    xi = score_matrix(truth, inferred)
    return ScoreReport(
        xi=xi,
        precision=float(xi.max(axis=0).mean()),
        recall=float(xi.max(axis=1).mean()),
        n_levels_true=xi.shape[0],
        n_levels_inferred=xi.shape[1],
    )
