"""The Bethe Hessian operator and finest-partition detection.

The finest level of a hierarchy is found by spectral clustering with the
Bethe Hessian ``B_r = (r^2 - 1) I + D - r A``, evaluated at plus and minus
the square root of the average degree.  The number of non-positive
eigenvalues of the two operators estimates the number of assortative and
disassortative groups respectively: one by-value LAPACK call per operator
up to the dense cutoff, seeded ARPACK probes of doubling size above it.
Their eigenvectors feed a k-means step that assigns nodes to groups.  That
step is one Lloyd run, started from the rows a column-pivoted QR picks
(Damle, Minden and Ying, 2019, "Simple, direct and efficient multi-way
spectral clustering").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import DegenerateGraphError, SolverError
from .graph import Graph, Partition
from .partition_search import kmeans
from .rng import substream, substream_seed

__all__ = [
    "BetheClustering",
    "bethe_hessian",
    "cluster_bethe_hessian",
]

# Eigenvalues within this (relative to the operator's diagonal scale)
# of zero count as non-positive when estimating group counts.
COUNT_TOL_FACTOR = 1e-10

# Bound on the count of non-positive eigenvalues on both paths, and on
# how many small eigenvalues the doubling search will request.
COUNT_CAP = 256

# Up to this size a dense decomposition beats iterative solves.
_DENSE_CUTOFF = 1024

# ARPACK tolerance of the probes that count non-positive eigenvalues on
# the sparse path and give their eigenvectors.  ARPACK accepts a Ritz
# value theta once its residual is at most tol * max(|theta|, eps^(2/3)),
# and a symmetric matrix has an eigenvalue within that residual of theta.
# The counted pairs are outliers and mostly converge to full accuracy
# before the bulk value that stops the count, so their vectors feed
# k-means as they are; a counted value near zero can stop short (residual
# 8.3e-5 at -0.352 on an assortative 2/4/8 graph, n = 1536, SNR 3).  The
# final probe's residuals show each of its values to be on its side of the
# count threshold; an eigenvalue the probe missed is not detected.
COUNT_PROBE_TOL = 1e-2


@dataclass(frozen=True)
class BetheClustering:
    """Finest-level clustering: estimated group count and node assignment.

    ``k_plus``/``k_minus`` are the non-positive eigenvalue counts of the
    positively and negatively regularized operators; ``fallback`` flags the
    degenerate no-non-positive-eigenvalue case where a single group is
    returned.
    """

    k_hat: int
    partition: Partition
    r: float
    k_plus: int
    k_minus: int
    fallback: bool = False


# Columns per block of ``_residual_norms``.
_RESIDUAL_BLOCK = 8


def _residual_norms(matrix, eigenvalues, eigenvectors) -> np.ndarray:
    """``||M v - theta v||`` of each pair, ``_RESIDUAL_BLOCK`` columns at a
    time, so the temporaries are n by the block, not n by the pair count.
    The probe sizes (1, then multiples of 8) fill every block, and each
    norm is then summed as in one n-by-m product, bit for bit."""
    norms = np.empty(len(eigenvalues))
    for start in range(0, len(eigenvalues), _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        block = eigenvectors[:, cols]
        norms[cols] = np.linalg.norm(matrix @ block - block * eigenvalues[cols], axis=0)
    return norms


def eigs_symmetric(
    matrix: sp.csr_matrix, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One count probe: the ``m`` smallest-algebraic eigenpairs of ``matrix``.

    ARPACK runs from a seeded start vector, so the pairs are deterministic
    for a fixed seed, at tolerance ``COUNT_PROBE_TOL``: each returned value
    theta has residual ``||M v - theta v|| <= COUNT_PROBE_TOL * |theta|``
    (with ``|theta|`` floored at eps^(2/3)).  Neither this probe nor the
    dense path of ``_count_nonpositive`` checks ``matrix`` for symmetry: it
    is a ``bethe_hessian`` of a ``Graph``, whose adjacency every ``Graph``
    constructor makes symmetric, so some eigenvalue lies that close to
    theta and has its sign.  Returns the values ascending and the
    orthonormal vectors as columns aligned with them.

    Raises
    ------
    SolverError
        If ARPACK fails to converge; carries the residual norms of the
        eigenpairs available at that point.
    """
    v0 = substream(seed, "eigs-start").standard_normal(matrix.shape[0])
    try:
        values, vectors = eigsh(matrix, k=m, which="SA", v0=v0, tol=COUNT_PROBE_TOL)
    except ArpackNoConvergence as exc:
        residuals = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            residuals = _residual_norms(matrix, exc.eigenvalues, exc.eigenvectors)
        raise SolverError(
            f"eigensolver did not converge ({m} pairs requested, "
            f"{0 if residuals is None else len(residuals)} available)",
            residual_norms=residuals,
        ) from exc
    if np.all(values[1:] >= values[:-1]):  # ARPACK usually returns them ascending
        return values, vectors
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def bethe_hessian(graph: Graph, r: float) -> sp.csr_matrix:
    """Assemble ``(r^2 - 1) I + D - r A``; sparsity matches A plus diagonal."""
    n = graph.n
    return (sp.diags(np.full(n, r * r - 1.0) + graph.degrees) - r * graph.adjacency).tocsr()


def _count_nonpositive(
    matrix: sp.csr_matrix, seed: int, first: int = 1
) -> tuple[int, np.ndarray]:
    """Count eigenvalues <= 0 (within tolerance) and return their eigenvectors.

    Up to the dense cutoff one LAPACK call per matrix returns exactly the
    eigenpairs with values at or below ``tau`` (``subset_by_value``), and
    the count is their number, capped at ``COUNT_CAP``.

    Above it the count and the vectors come from the same probes, with no
    second, tight solve.  The probes request smallest-algebraic eigenpairs
    at the loose tolerance ``COUNT_PROBE_TOL``, first ``first``, then 8,
    16, 32, ... (doubling), until a strictly positive value shows up or the
    cap is reached.  A probe costs about as much as the bulk eigenvalues it
    has to converge, so a one-value first probe settles a count of zero
    (the usual case at ``-r`` on assortative graphs) for one bulk value
    instead of eight; where the count is known to be at least one (``+r``),
    that probe would always be spent, and the caller starts at 8.  The
    counted pairs mostly converge to full accuracy before the bulk value
    that stops the count, so the final probe's first ``count`` vectors are
    returned.  The final probe's residual norms show each of its values to
    be on its side of ``tau``.  Ritz values interlace the spectrum, so the
    count is not too high; an eigenvalue at or below ``tau`` that the
    probe missed would make it too low, and this check cannot see that.

    Raises
    ------
    SolverError
        If a value of the final probe lies within its residual norm of the
        tolerance, so the residuals do not prove which side of it the true
        eigenvalue is on; carries the final probe's residual norms.
    """
    n = matrix.shape[0]
    tau = COUNT_TOL_FACTOR * float(np.abs(matrix.diagonal()).max())
    if n <= _DENSE_CUTOFF:
        values, vectors = scipy.linalg.eigh(
            matrix.toarray(), subset_by_value=(-np.inf, tau)
        )
        count = min(len(values), COUNT_CAP)
        return count, vectors[:, :count]
    cap = min(n, COUNT_CAP)
    m = first
    while True:
        values, vectors = eigs_symmetric(matrix, m, seed=seed)
        count = int(np.sum(values <= tau))
        if count < m or m >= cap:
            break
        del values, vectors  # freed before the larger probe runs
        m = min(max(8, 2 * m), cap)
    residuals = _residual_norms(matrix, values, vectors)
    if np.any(np.abs(values - tau) <= residuals):
        raise SolverError(
            f"eigenvalue count unproven: a value of the {m}-value probe "
            f"lies within its residual of the tolerance {tau:.3g}",
            residual_norms=residuals,
        )
    # copy, so the columns past the count are freed
    return count, vectors[:, :count].copy()


def cluster_bethe_hessian(graph: Graph, seed: int = 0) -> BetheClustering:
    """Estimate the number of groups and cluster nodes at the finest scale.

    Sets ``r`` to the square root of the average degree, counts the
    non-positive eigenvalues of the positively and negatively regularized
    operators, and clusters nodes on the concatenated eigenvectors: one
    Lloyd run from the ``k_hat`` rows that a column-pivoted QR of their
    transpose picks first.  ``seed`` only seeds the sparse eigensolver's
    start vectors; up to the dense cutoff the result does not depend on it.
    Returns a single-group clustering (flagged) if no non-positive
    eigenvalue exists.
    """
    if graph.max_degree <= 0:
        raise DegenerateGraphError("graph has no edges (max degree is zero)")
    r = float(np.sqrt(graph.total_weight / graph.n))
    blocks = []
    counts = []
    # +r counts at least one value on every graph measured (one on
    # Erdos-Renyi graphs), so a one-value first probe there is always
    # spent; a count of zero would still come out of the eight-value one
    for sign, name, first in ((1.0, "pos", 8), (-1.0, "neg", 1)):
        count, vectors = _count_nonpositive(
            bethe_hessian(graph, sign * r), seed=substream_seed(seed, name), first=first
        )
        counts.append(count)
        if count:
            blocks.append(vectors)
    k_plus, k_minus = counts
    # the two counts can overlap below average degree 1; never exceed n
    k_hat = min(k_plus + k_minus, graph.n)
    if k_hat <= 1:
        partition = Partition.single_group(graph.n)
    else:
        q = np.hstack(blocks)[:, :k_hat]
        # the pivoted QR picks, one at a time, the row of q farthest from
        # the span of the rows picked before: about one row per group, so
        # one Lloyd run from them is enough
        pivots = scipy.linalg.qr(q.T, mode="r", pivoting=True)[1][:k_hat]
        partition = kmeans(q, q[pivots])
    return BetheClustering(
        k_hat=max(k_hat, 1),
        partition=partition,
        r=r,
        k_plus=k_plus,
        k_minus=k_minus,
        fallback=k_hat == 0,
    )

