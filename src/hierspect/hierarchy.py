"""Level significance testing and agglomerative hierarchy assembly.

Coarser levels are proposed by clustering the rows of random-walk
eigenvectors of the current group-affinity matrix.  A proposed level count
is accepted only if conditioning the analytic null curve of expected
projection errors (``null_curve``) on it improves the MSLE fit
(``fit_msle``) to the observed (perturbation-averaged) error curve; this
rejects degenerate hierarchies, whose eigenvectors scramble under small
affinity perturbations.  ``find_relevant_minima`` runs that selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (
    AffinityMatrix,
    Graph,
    Partition,
    estimate_affinity,
)
from .partition_search import best_eep_partition, projection_error
from .rng import substream, substream_seed
from .spectral import BetheClustering, cluster_bethe_hessian

__all__ = [
    "null_curve",
    "bootstrap_perturb_affinity",
    "structural_eigenvectors",
    "LevelCandidates",
    "identify_partitions_and_errors",
    "MsleFit",
    "fit_msle",
    "find_relevant_minima",
    "Level",
    "HierarchyResult",
    "infer_hierarchy",
]

SIGMA_BRACKET = (1e-6, 1e2)
SIGMA_TOL = 1e-8

# Bootstrap perturbation size: sqrt(2) standard errors per entry, the
# noise level at which two independent estimates of the same affinity
# matrix differ.  A level that survives it would be found again on a
# fresh sample; a degenerate level would not.
BOOTSTRAP_SCALE = float(np.sqrt(2.0))

# Perturbations decomposed together: a block's (b, k, k) stacks for ``eigh``
# hold about 2**16 entries (512 KiB of float64), all z draws up to k = 25.
# One stack of all z draws was slower at k = 64 and raised peak memory.
# The scores come from a (k - 2, k, k) sum of per-vector Gram matrices
# kept across blocks, and one buffer of that size for each block's part:
# about k**3 floats each, 2 MB at k = 64 and 133 MB at COUNT_CAP = 256.
BLOCK_ENTRIES = 2**16
# From k = 182 a block holds one draw; the Gram sums then take the draws of
# this many blocks in one matmul, rather than rewriting the (k - 2, k, k)
# accumulator once per draw.
GATHER_DRAWS = 16


def null_curve(n: int, kappas=()) -> np.ndarray:
    """Expected projection errors for r = 1..n, conditioned on known levels.

    Entry ``r - 1`` is the mean squared residual of ``r`` random
    orthonormal columns (the constant vector always included) after
    removing the group means of an independent partition into ``r``
    groups.  Unconditioned it is ``(n - r)(r - 1)/(n - 1)``, which vanishes
    at ``r = 1`` and ``r = n``.

    ``kappas`` are the accepted level sizes, strictly increasing within
    ``1 < kappa < n``.  Within each segment between consecutive
    conditioning points ``a < r < b`` the value is ``(b - r)(r - a)/(b - a)``;
    the curve is continuous, non-negative and vanishes at 1, n and every
    kappa.  The returned array is read-only.
    """
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    kappas = tuple(int(k) for k in kappas)
    if any(k2 <= k1 for k1, k2 in zip(kappas, kappas[1:])):
        raise ValueError("conditioning sizes must be strictly increasing")
    if kappas and (kappas[0] <= 1 or kappas[-1] >= n):
        raise ValueError("conditioning sizes must lie strictly between 1 and n")
    knots = np.array((1, *kappas, n))
    r = np.arange(1, n + 1)
    # segment [lo, hi] holding each r; a knot maps to the segment it ends
    seg = np.clip(np.searchsorted(knots, r), 1, len(knots) - 1)
    lo, hi = knots[seg - 1], knots[seg]
    values = (hi - r) * (r - lo) / (hi - lo)
    values.setflags(write=False)
    return values


def _bootstrap_draws(omega: AffinityMatrix, seeds) -> np.ndarray:
    """Perturbed affinity values, one ``(k, k)`` matrix per seed.

    The noise model of ``bootstrap_perturb_affinity``: each seed draws its
    symmetric standard-normal matrix from its own substream, and every
    entry is moved by ``BOOTSTRAP_SCALE`` times its standard error.
    """
    k = omega.k
    sizes = omega.group_sizes.astype(np.float64)
    pairs = np.outer(sizes, sizes)
    p = np.clip(omega.values, 0.0, 1.0)
    p_smooth = (p * pairs + 1.0) / (pairs + 2.0)
    stderr = np.sqrt(p_smooth * (1.0 - p_smooth) / pairs)
    iu = np.triu_indices(k)
    gamma = np.zeros((len(seeds), k, k))
    for j, seed in enumerate(seeds):
        gamma[j][iu] = substream(seed, "affinity-bootstrap").standard_normal(iu[0].size)
    gamma = gamma + np.triu(gamma, k=1).transpose(0, 2, 1)
    return omega.values + BOOTSTRAP_SCALE * gamma * stderr


def bootstrap_perturb_affinity(omega: AffinityMatrix, seed: int = 0) -> AffinityMatrix:
    """Perturb each entry at the scale of its own estimation noise.

    Treats entries as connection densities estimated from ``n_r * n_s``
    node pairs, giving per-entry standard errors
    ``sqrt(p (1 - p) / (n_r n_s))`` (with add-one smoothing so exact 0/1
    estimates keep a one-pair floor).  A symmetric standard-normal draw
    scaled by ``BOOTSTRAP_SCALE`` (sqrt(2)) standard errors is added, which
    simulates the disagreement between two independent estimates of the
    same affinity matrix.
    """
    return AffinityMatrix(
        values=_bootstrap_draws(omega, [seed])[0], group_sizes=omega.group_sizes
    )


def structural_eigenvectors(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the uniform random-walk matrix of a dense weighted graph.

    Returns eigenvalues and eigenvectors ordered with the constant
    (eigenvalue-1) eigenvector first, then by descending eigenvalue
    magnitude.  Positive eigenvalues signal assortative structure,
    negative disassortative, so this ordering surfaces both.

    A ``(b, k, k)`` stack of weight matrices is decomposed by one ``eigh``
    call; the result is a ``(b, k)`` value stack and a ``(b, k, k)``
    vector stack, each matrix's pairs bit-equal to its own call and
    ordered by the same rule.  The vector stack is a view whose
    ``transpose(2, 0, 1)`` is C-contiguous: vector ``c`` of every matrix
    is one contiguous ``(b, k)`` slab.  One matrix gives C-contiguous
    vectors: numpy's column means of a block (in stage two's Hartigan
    moves) round differently in the other layout.
    """
    weights = np.asarray(weights, dtype=np.float64)
    stack = weights if weights.ndim == 3 else weights[None]
    b, k = stack.shape[:2]
    degrees = stack.sum(axis=2)
    lap = degrees[:, :, None] * np.eye(k) - stack
    d_max = np.abs(degrees).max(axis=1)
    # all-zero degrees: W degenerates to the identity
    d_max[d_max <= 0] = 1.0
    walk = np.eye(k) - lap / d_max[:, None, None]
    values, vectors = np.linalg.eigh(walk)
    first = np.argmax(np.abs(vectors.sum(axis=1)), axis=1)
    rest = np.argsort(-np.abs(values), axis=1, kind="stable")
    rest = rest[rest != first[:, None]].reshape(b, k - 1)
    order = np.concatenate((first[:, None], rest), axis=1)
    mats = np.arange(b)
    values = values[mats[:, None], order]
    # gathered as (vector, matrix, row): each vector index is one contiguous slab
    slabs = vectors.transpose(2, 0, 1)[order.T, mats[None, :]]
    vectors = slabs.transpose(1, 2, 0)
    if weights.ndim == 3:
        return values, vectors
    return values[0], np.ascontiguousarray(vectors[0])


@dataclass(frozen=True)
class LevelCandidates:
    """Candidate sub-partitions of the current groups and their mean errors.

    ``partitions[r - 1]`` partitions the ``k`` current groups into ``r``
    groups; ``mean_errors[r - 1]`` is the mean perturbed projection error
    for that size.  The single-group candidate projects exactly, so the
    first error, summed block by block over the perturbations, is zero
    only up to rounding (2.2e-25 on a flat 64-group graph); the identity
    candidate's last error is exactly 0.0.  The errors in between are read
    from Gram sums of the perturbed eigenvectors, which leave out the
    constant vector's rounding-level share.
    """

    partitions: list
    mean_errors: np.ndarray


def identify_partitions_and_errors(
    omega: AffinityMatrix,
    z: int = 100,
    seed: int = 0,
) -> LevelCandidates:
    """Propose one sub-partition per size and score each against perturbations.

    Treats the affinity matrix as a weighted graph on its ``k`` groups.
    For every size ``r`` in ``2..k-1`` the rows of the first ``r``
    random-walk eigenvectors are split into ``r`` groups by
    ``best_eep_partition`` (Ward's linkage refined by Hartigan moves, with
    no seed); the single-group and identity partitions cover ``r = 1`` and
    ``r = k``, and ``seed`` drives the perturbations alone.  Each
    candidate's projection error is then averaged over ``z`` bootstrap
    perturbations of the affinity matrix, each entry moved at the scale of
    its own estimation noise (see ``bootstrap_perturb_affinity``): robust
    (non-degenerate) partitions keep small errors under perturbation.  Below three groups
    there is no size to test and every error is zero.

    The perturbations are drawn in blocks of ``max(1, BLOCK_ENTRIES // k**2)``,
    draw ``zeta`` from its own ``("sample", zeta)`` substream, so each
    perturbed matrix is the one ``bootstrap_perturb_affinity`` gives for that
    seed.  A block is decomposed by one ``structural_eigenvectors`` call.
    Its constant vectors are scored against the single group by one
    ``projection_error`` call, and each other vector ``c`` adds its outer
    products over the block's draws to its Gram sum ``G_c``, all ``c`` in
    one batched matmul; from ``k = 182``, where a block holds one draw, the
    matmul takes the draws of ``GATHER_DRAWS`` blocks at a time.  With
    ``Q_r`` the group projector of candidate ``r``, the summed error
    ``||(I - Q_r) V_r||^2`` over all draws is then
    ``<G_1 + ... + G_{r-1}, I - Q_r>``, one ``k x k`` inner product per
    candidate after the last block.
    """
    if z < 1:
        raise ValueError("number of perturbation samples must be >= 1")
    k = omega.k
    partitions = [Partition.single_group(k)]
    if k < 3:
        if k == 2:
            partitions.append(Partition.identity(k))
        return LevelCandidates(
            partitions=partitions, mean_errors=np.zeros(len(partitions))
        )
    _, vectors = structural_eigenvectors(omega.values)
    for r in range(2, k):
        partitions.append(best_eep_partition(vectors[:, :r], r))
    partitions.append(Partition.identity(k))
    errors = np.zeros(k)
    # grams[c - 1] sums v v^T over every draw of vector c, for c = 1..k-2.
    # Vector 0 is the constant, which every candidate keeps exactly: it is
    # scored against the single group alone, as the other candidates' share
    # of it (about 1e-31) would come with rounding of order z * 1e-16.
    grams = np.zeros((k - 2, k, k))
    summand = np.empty_like(grams)
    block = max(1, BLOCK_ENTRIES // k**2)
    gathered = np.empty((k - 2, GATHER_DRAWS if block == 1 else 0, k))
    filled = 0
    for start in range(0, z, block):
        zetas = range(start, min(start + block, z))
        seeds = [substream_seed(seed, "sample", zeta) for zeta in zetas]
        _, pert_vectors = structural_eigenvectors(_bootstrap_draws(omega, seeds))
        # (vector, draw, row) slabs: vector c of every draw is one (b, k) slab
        slabs = pert_vectors.transpose(2, 0, 1)
        errors[0] += projection_error(partitions[0], slabs[0].T)
        if block > 1:
            batch = slabs[1 : k - 1]
        else:
            gathered[:, filled] = slabs[1 : k - 1, 0]
            filled += 1
            if filled < GATHER_DRAWS and start + 1 < z:
                continue
            batch, filled = gathered[:, :filled], 0
        np.matmul(batch.transpose(0, 2, 1), batch, out=summand)
        grams += summand
    # the summed ||(I - Q_r) V_r||^2 is <G_1 + ... + G_{r-1}, I - Q_r>, with
    # Q_r the group projector of candidate r
    running = np.zeros((k, k))
    for r in range(2, k):
        running += grams[r - 2]
        part = partitions[r - 1]
        same = np.equal.outer(part.assignment, part.assignment)
        residual = np.eye(k) - same / part.group_sizes[part.assignment]
        # a sum of squares: below zero only by rounding, where the true
        # error is itself below rounding (huge groups barely perturbed)
        errors[r - 1] = max(np.vdot(running, residual), 0.0)
    errors /= z
    return LevelCandidates(partitions=partitions, mean_errors=errors)


@dataclass(frozen=True)
class MsleFit:
    """Result of fitting a scale to a null curve: optimal sigma and the MSLE."""

    sigma: float
    msle: float
    identifiable: bool = True


def _msle(log_errors: np.ndarray, null_rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """MSLE of each null curve (a row of ``null_rows``) scaled by its sigma."""
    diff = log_errors - np.log(sigma[:, None] * null_rows + 1.0)
    return np.mean(diff * diff, axis=1)


def _golden_search(
    mean_errors: np.ndarray, null_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section MSLE fit of every row of ``null_rows``, all at once.

    Each row takes the steps of a scalar golden-section search on the
    bracket ``SIGMA_BRACKET``; a row stops, and keeps its values, once
    its own bracket is at most ``SIGMA_TOL``.  Returns the fitted sigmas
    and their MSLEs.
    """
    log_errors = np.log(mean_errors + 1.0)
    m = null_rows.shape[0]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.full(m, SIGMA_BRACKET[0])
    b = np.full(m, SIGMA_BRACKET[1])
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _msle(log_errors, null_rows, c)
    fd = _msle(log_errors, null_rows, d)
    while (live := np.flatnonzero(b - a > SIGMA_TOL)).size:
        # where fc < fd the minimum lies in [a, d]: d moves to c and a new
        # c is probed; elsewhere it lies in [c, b] and a new d is probed
        left = fc[live] < fd[live]
        new_a = np.where(left, a[live], c[live])
        new_b = np.where(left, d[live], b[live])
        probe = np.where(
            left, new_b - invphi * (new_b - new_a), new_a + invphi * (new_b - new_a)
        )
        f_probe = _msle(log_errors, null_rows[live], probe)
        c[live], d[live] = np.where(left, probe, d[live]), np.where(left, c[live], probe)
        fc[live], fd[live] = (
            np.where(left, f_probe, fd[live]),
            np.where(left, fc[live], f_probe),
        )
        a[live], b[live] = new_a, new_b
    sigma = (a + b) / 2.0
    return sigma, _msle(log_errors, null_rows, sigma)


def fit_msle(mean_errors: np.ndarray, null_values: np.ndarray) -> MsleFit:
    """Fit the scale of a null error curve by minimizing the mean squared
    logarithmic error between observed and scaled expected errors.

    ``null_values`` is a curve from ``null_curve`` of the same length as
    ``mean_errors``.  Uses golden-section search on the bracket
    ``[1e-6, 1e2]``.  If the null curve is identically zero the scale is
    unidentifiable and sigma = 1 is returned with ``identifiable=False``.
    """
    mean_errors = np.asarray(mean_errors, dtype=np.float64)
    null_values = np.asarray(null_values, dtype=np.float64)
    if mean_errors.shape != null_values.shape:
        raise ValueError(
            f"{mean_errors.shape[0]} errors vs curve of length {null_values.shape[0]}"
        )
    sigma, msle = _golden_search(mean_errors, null_values[None])
    if np.all(null_values == 0.0):
        # a zero curve scales to zero: its MSLE is the same at every sigma
        return MsleFit(
            sigma=1.0, msle=float(msle[0]), identifiable=not np.any(mean_errors > 0.0)
        )
    return MsleFit(sigma=float(sigma[0]), msle=float(msle[0]))


def find_relevant_minima(mean_errors) -> list[int]:
    """Greedily select level sizes whose conditioning improves the null fit.

    Forward selection over candidate sizes ``2..k-1``: each round fits every
    remaining candidate added to the accepted conditioning set (each curve
    independently sigma-fitted, all of a round's curves in one vectorized
    golden-section search whose rows give ``fit_msle``'s values) and
    accepts the best one iff it strictly lowers the MSLE, the smaller size
    on a tie; stops when no candidate improves.  Best-improvement
    order matters: explaining the deepest trough first stops shallower
    candidates from free-riding on an unexplained neighbour.  An empty
    result means no valid coarser level exists.
    """
    mean_errors = np.asarray(mean_errors, dtype=np.float64)
    k = mean_errors.shape[0]
    if k < 3:
        return []
    best = fit_msle(mean_errors, null_curve(k)).msle
    accepted: list[int] = []
    remaining = list(range(2, k))
    while remaining:
        curves = np.array(
            [null_curve(k, sorted(accepted + [kappa])) for kappa in remaining]
        )
        _, msle = _golden_search(mean_errors, curves)
        i = int(np.argmin(msle))  # the first minimum: the smaller kappa on a tie
        if msle[i] >= best:
            break
        best = float(msle[i])
        accepted.append(remaining.pop(i))
    return sorted(accepted)


@dataclass(frozen=True)
class Level:
    """One hierarchy level, fine to coarse.

    ``relative_partition`` partitions the previous level's groups;
    ``composed_partition`` maps original nodes to this level's groups.
    """

    k: int
    relative_partition: Partition
    composed_partition: Partition
    affinity: AffinityMatrix


@dataclass(frozen=True)
class HierarchyResult:
    """Ordered fine-to-coarse list of detected levels plus diagnostics.

    ``diagnostics`` holds one record per agglomeration attempt with the
    mean-error curve, the unconditional fit, and the accepted sizes with
    their conditional fit.  ``bethe`` records the finest-level clustering.
    """

    n: int
    levels: list
    bethe: BetheClustering
    diagnostics: list = field(default_factory=list)


def infer_hierarchy(graph: Graph, seed: int = 0, z: int = 100) -> HierarchyResult:
    """Detect the full community hierarchy of a graph.

    The finest level comes from Bethe Hessian clustering.  Each subsequent
    level re-estimates the group affinity from the original adjacency,
    proposes sub-partitions of the current groups, and keeps the finest
    size accepted by the null-curve significance test; the loop stops when
    no size is accepted.  ``z`` bootstrap perturbations score each level's
    candidates.  Deterministic for fixed seed and input.
    """
    bethe = cluster_bethe_hessian(graph, seed=substream_seed(seed, "bethe"))
    finest = bethe.partition
    levels = [
        Level(
            k=bethe.k_hat,
            relative_partition=finest,
            composed_partition=finest,
            affinity=estimate_affinity(graph, finest),
        )
    ]
    diagnostics: list[dict] = []
    while levels[-1].k >= 3:
        current = levels[-1]
        candidates = identify_partitions_and_errors(
            current.affinity,
            z=z,
            seed=substream_seed(seed, "identify", len(levels)),
        )
        accepted = find_relevant_minima(candidates.mean_errors)
        base_fit = fit_msle(candidates.mean_errors, null_curve(current.k))
        record = {
            "k": current.k,
            "mean_errors": candidates.mean_errors.tolist(),
            "sigma_unconditional": base_fit.sigma,
            "msle_unconditional": base_fit.msle,
            "accepted": list(accepted),
        }
        if accepted:
            cond_fit = fit_msle(candidates.mean_errors, null_curve(current.k, accepted))
            record["sigma_conditional"] = cond_fit.sigma
            record["msle_conditional"] = cond_fit.msle
        diagnostics.append(record)
        if not accepted:
            break
        kappa = accepted[-1]  # finest accepted agglomeration
        relative = candidates.partitions[kappa - 1]
        composed = current.composed_partition.compose(relative)
        levels.append(
            Level(
                k=kappa,
                relative_partition=relative,
                composed_partition=composed,
                affinity=estimate_affinity(graph, composed),
            )
        )
    return HierarchyResult(n=graph.n, levels=levels, bethe=bethe, diagnostics=diagnostics)
