"""Ground-truth generators: planted partitions with SNR parameterization and
recursive hierarchical constructions.

A planted partition with ``k`` groups, mean degree ``c`` and signal-to-noise
ratio ``snr`` uses within/between connection rates ``alpha/n`` and
``beta/n`` solved from the degree and SNR constraints (``snr = 1`` is the
detectability limit).  Hierarchies refine each diagonal block as another
planted partition at the same SNR with the block's own mean degree, which
preserves the expected degree of every node across levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSNRError
from .graph import Graph, Partition
from .rng import substream

__all__ = [
    "SynthSpec",
    "GroundTruth",
    "MODELS",
    "solve_planted_params",
    "snr_of",
    "generate_planted_partition",
    "build_hierarchy_model",
    "generate_hierarchical",
    "sample_block_model",
]

MODELS = ("flat", "assortative", "disassortative", "symmetric", "asymmetric")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a synthetic benchmark network."""

    model: str
    n: int
    snr: float
    avg_degree: float
    schedule: tuple
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (np.isfinite(self.snr) and self.snr > 0):
            raise ValueError(f"snr must be finite and positive, got {self.snr}")
        if not (np.isfinite(self.avg_degree) and self.avg_degree > 0):
            raise ValueError(f"avg_degree must be finite and positive, got {self.avg_degree}")
        schedule = tuple(int(k) for k in self.schedule)
        if not schedule or any(k < 2 for k in schedule):
            raise ValueError("schedule entries must be at least 2")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if self.model == "flat" and len(schedule) != 1:
            raise ValueError("flat model takes a single group count")
        if self.model in ("assortative", "disassortative", "symmetric"):
            for a, b in zip(schedule, schedule[1:]):
                if b % a != 0:
                    raise ValueError(
                        f"schedule {schedule} must refine by an integer factor"
                    )
        if self.model == "asymmetric":
            branch = schedule[0]
            for a, b in zip(schedule, schedule[1:]):
                if b - a != branch - 1:
                    raise ValueError(
                        "asymmetric schedule must grow by branch-1 per level "
                        f"(branch {branch}), got {schedule}"
                    )
        object.__setattr__(self, "schedule", schedule)


@dataclass(frozen=True)
class GroundTruth:
    """Planted partitions (fine to coarse, on original nodes) and the finest
    connection-probability matrix that generated the graph."""

    partitions: list
    omega_fine: np.ndarray


def solve_planted_params(k: int, c: float, snr: float) -> tuple[float, float]:
    """Solve within/between rates (alpha, beta) from degree and SNR.

    ``alpha = c + (k-1) sqrt(snr c)`` and ``beta = c - sqrt(snr c)``; the
    expected degree is exactly ``c`` and the SNR constraint holds exactly.
    Infeasible when ``snr > c`` (beta would be negative).
    """
    if k < 2:
        raise ValueError("need at least 2 groups")
    if c <= 0:
        raise ValueError("mean degree must be positive")
    if snr < 0:
        raise ValueError("snr must be non-negative")
    root = np.sqrt(snr * c)
    beta = c - root
    if beta < 0:
        raise InfeasibleSNRError(
            f"snr={snr:g} is infeasible at mean degree c={c:g}; "
            f"maximum feasible snr is {c:g}",
            max_snr=c,
        )
    alpha = c + (k - 1) * root
    return float(alpha), float(beta)


def snr_of(alpha: float, beta: float, k: int) -> float:
    """Signal-to-noise ratio of planted-partition rates."""
    return (alpha - beta) ** 2 / (k * alpha + k * (k - 1) * beta)


def _round_robin_sizes(n: int, k: int) -> np.ndarray:
    base, rem = divmod(n, k)
    return base + (np.arange(k) < rem).astype(np.int64)


def _distinct_uniform(total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of ``count`` distinct integers from ``range(total)``.

    Over-draws with replacement and de-duplicates; by exchangeability the
    retained set is uniform over size-``count`` subsets, at expected O(count)
    cost.  Small or dense cases fall back to a permutation draw.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if count >= total:
        return np.arange(total, dtype=np.int64)
    if total <= 4 * count or total <= 2048:
        return rng.choice(total, size=count, replace=False).astype(np.int64)
    chosen = np.unique(rng.integers(0, total, size=count + count // 8 + 16))
    while chosen.size < count:
        extra = rng.integers(0, total, size=2 * (count - chosen.size) + 16)
        chosen = np.union1d(chosen, extra)
    if chosen.size > count:
        keep = rng.choice(chosen.size, size=count, replace=False)
        chosen = chosen[keep]
    return chosen.astype(np.int64)


def _decode_triangular(idx: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices to pairs (i, j) with 0 <= i < j < g, row-major."""
    idx = np.asarray(idx, dtype=np.int64)
    b = 2 * g - 1
    i = ((b - np.sqrt(b * b - 8.0 * idx)) / 2.0).astype(np.int64)
    # correct float rounding at segment boundaries
    for _ in range(2):
        offset = i * (2 * g - i - 1) // 2
        i = np.where(offset > idx, i - 1, i)
        next_offset = (i + 1) * (2 * g - i - 2) // 2
        i = np.where(next_offset <= idx, i + 1, i)
    offset = i * (2 * g - i - 1) // 2
    j = idx - offset + i + 1
    return i, j


def sample_block_model(
    omega: np.ndarray, sizes: np.ndarray, seed: int = 0
) -> tuple[Graph, Partition]:
    """Sample a simple undirected graph with block connection probabilities.

    Each unordered node pair ``i < j`` is linked independently with
    probability ``omega[g(i), g(j)]``; no self-loops are emitted.  Blocks
    are sampled independently with per-block substreams (binomial edge
    count, then distinct uniform pairs), so cost scales with the edge count.
    """
    omega = np.asarray(omega, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    k = sizes.shape[0]
    if omega.shape != (k, k):
        raise ValueError("omega must be k-by-k for k block sizes")
    if np.any(omega < 0) or np.any(omega > 1):
        raise ValueError("connection probabilities must lie in [0, 1]")
    n = int(sizes.sum())
    starts = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(k), sizes)
    all_u, all_v = [], []
    for r in range(k):
        for s in range(r, k):
            p = omega[r, s]
            if p == 0.0:
                continue
            rng = substream(seed, "block", r, s)
            if r == s:
                g = int(sizes[r])
                total = g * (g - 1) // 2
                if total == 0:
                    continue
                m = int(rng.binomial(total, p))
                idx = _distinct_uniform(total, m, rng)
                i, j = _decode_triangular(idx, g)
                all_u.append(starts[r] + i)
                all_v.append(starts[r] + j)
            else:
                total = int(sizes[r]) * int(sizes[s])
                m = int(rng.binomial(total, p))
                idx = _distinct_uniform(total, m, rng)
                all_u.append(starts[r] + idx // sizes[s])
                all_v.append(starts[s] + idx % sizes[s])
    if all_u:
        u = np.concatenate(all_u)
        v = np.concatenate(all_v)
    else:
        u = np.empty(0, dtype=np.int64)
        v = np.empty(0, dtype=np.int64)
    del all_u, all_v  # freed before the graph is built
    return Graph.from_arrays(u, v, None, n=n), Partition.from_labels(labels)


def generate_planted_partition(
    n: int, k: int, alpha: float, beta: float, seed: int = 0
) -> tuple[Graph, Partition]:
    """Sample a planted partition: within rate alpha/n, between rate beta/n.

    Group sizes are ``n // k`` with the remainder spread round-robin.
    """
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= val / n <= 1.0:
            raise ValueError(f"{name}/n = {val / n:g} is not a probability")
    omega = np.full((k, k), beta / n)
    np.fill_diagonal(omega, alpha / n)
    sizes = _round_robin_sizes(n, k)
    return sample_block_model(omega, sizes, seed=seed)


def _leaf_count(branch: int, remaining: int) -> int:
    return 1 + remaining * (branch - 1)


def build_hierarchy_model(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray, list]:
    """Construct the finest-level probability matrix of a hierarchy spec.

    Returns ``(omega_fine, fine_sizes, leaf_maps)`` where ``leaf_maps[u]``
    maps finest groups to level-``u`` groups (``u`` from coarse to fine is
    the list order: index 0 is the coarsest level of the schedule).
    """
    schedule = spec.schedule
    depth = len(schedule)
    if spec.model == "flat":
        k = schedule[0]
        alpha, beta = solve_planted_params(k, spec.avg_degree, spec.snr)
        omega = np.full((k, k), beta / spec.n)
        np.fill_diagonal(omega, alpha / spec.n)
        return omega, _round_robin_sizes(spec.n, k), [np.arange(k)]

    refine_all = spec.model in ("assortative", "disassortative", "symmetric")
    if refine_all:
        branches = [schedule[0]] + [
            schedule[u + 1] // schedule[u] for u in range(depth - 1)
        ]
    else:
        branches = [schedule[0]] * depth
    k_fine = schedule[-1]
    omega = np.zeros((k_fine, k_fine))
    fine_sizes = np.zeros(k_fine, dtype=np.int64)

    def fill(lo: int, hi: int, node_count: int, c: float, level: int) -> None:
        if level == depth:
            # single finest group with uniform internal rate
            omega[lo, lo] = c / node_count
            fine_sizes[lo] = node_count
            return
        b = branches[level]
        try:
            alpha, beta = solve_planted_params(b, c, spec.snr)
        except InfeasibleSNRError as exc:
            raise InfeasibleSNRError(
                f"snr={spec.snr:g} infeasible at refinement level {level + 1} "
                f"(local mean degree {c:g}); maximum feasible snr is {c:g}",
                max_snr=c,
                level=level + 1,
            ) from exc
        child_nodes = node_count // b + (np.arange(b) < node_count % b)
        if refine_all:
            leaves = (hi - lo) // b
            spans = [(lo + i * leaves, lo + (i + 1) * leaves) for i in range(b)]
            recurse = [True] * b
        else:
            head = _leaf_count(b, depth - level - 1)
            spans = [(lo, lo + head)]
            spans += [(lo + head + i, lo + head + i + 1) for i in range(b - 1)]
            recurse = [True] + [False] * (b - 1)
        p_between = beta / node_count
        for a in range(b):
            for bb in range(a + 1, b):
                omega[spans[a][0] : spans[a][1], spans[bb][0] : spans[bb][1]] = p_between
                omega[spans[bb][0] : spans[bb][1], spans[a][0] : spans[a][1]] = p_between
        for child in range(b):
            next_level = level + 1 if recurse[child] else depth
            fill(
                spans[child][0],
                spans[child][1],
                int(child_nodes[child]),
                alpha / b,
                next_level,
            )

    fill(0, k_fine, spec.n, spec.avg_degree, 0)

    # leaf -> level-u group maps, built by folding child->parent maps upward
    leaf_maps = [np.arange(k_fine)]
    for u in range(depth - 1, 0, -1):
        k_coarse, k_fine_u = schedule[u - 1], schedule[u]
        if refine_all:
            parent = np.arange(k_fine_u) // branches[u]
        else:
            b = branches[u]
            parent = np.concatenate(
                [np.zeros(b, dtype=np.int64), np.arange(1, k_coarse)]
            )
        leaf_maps.insert(0, parent[leaf_maps[0]])

    if spec.model == "disassortative":
        omega = omega[:, ::-1]
        if not np.array_equal(omega, omega.T):
            raise ValueError(
                "column reversal requires a centro-symmetric construction; "
                "use a uniform schedule"
            )
    return omega, fine_sizes, leaf_maps


def generate_hierarchical(spec: SynthSpec) -> tuple[Graph, GroundTruth]:
    """Sample a network with planted hierarchical structure.

    Returns the graph and the nested ground-truth partitions, fine to
    coarse, together with the finest-level probability matrix.
    """
    omega, fine_sizes, leaf_maps = build_hierarchy_model(spec)
    graph, finest = sample_block_model(omega, fine_sizes, seed=spec.seed)
    partitions = [
        Partition.from_labels(leaf_map[finest.assignment])
        for leaf_map in reversed(leaf_maps)
    ]
    return graph, GroundTruth(partitions=partitions, omega_fine=omega)
