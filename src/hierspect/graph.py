"""Sparse symmetric graphs and the partition algebra built on them.

Provides the graph container plus the operations everything else is built
from: aggregated and quotient graphs, external-equitability checks, and
group-affinity estimation.

Conventions
-----------
* Node ids are dense integers ``0..n-1``.
* The adjacency is symmetric by construction: every input edge ``(u, v, w)``
  contributes ``w`` to both ``A[u, v]`` and ``A[v, u]``.  A self-loop of
  weight ``w`` therefore stores ``2w`` on the diagonal and contributes
  ``2w`` to its node's degree (symmetric-sum convention).
* Degrees are weighted row sums of the adjacency, ``d = A @ 1``.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EdgeListError

__all__ = [
    "Graph",
    "Partition",
    "AffinityMatrix",
    "QuotientGraph",
    "aggregate",
    "quotient",
    "is_exact_eep",
    "estimate_affinity",
    "coarse_affinity_update",
    "relative_partition",
    "read_edge_list",
    "write_edge_list",
]

# Scale-aware default tolerance for equitability checks.
EEP_TOL_FACTOR = 1e-9


@dataclass(frozen=True)
class Partition:
    """Surjective assignment of ``n`` items onto ``k`` non-empty groups.

    ``assignment[i]`` is the group label of item ``i``; labels are dense in
    ``0..k-1`` and every group is non-empty.
    """

    assignment: np.ndarray
    k: int
    group_sizes: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("assignment must be a non-empty 1-d array")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("group labels must be integers")
        labels = labels.astype(np.int64)
        if labels.min() < 0:
            raise ValueError("group labels must be non-negative")
        k = int(labels.max()) + 1
        if k > labels.size:  # checked before bincount allocates k counters
            raise ValueError(f"labels are not dense: label {k - 1} among {labels.size} items")
        sizes = np.bincount(labels, minlength=k)
        if np.any(sizes == 0):
            missing = np.flatnonzero(sizes == 0)
            raise ValueError(f"labels are not dense: empty group(s) {missing.tolist()}")
        labels.setflags(write=False)
        sizes.setflags(write=False)
        return cls(assignment=labels, k=k, group_sizes=sizes)

    @classmethod
    def single_group(cls, n: int) -> "Partition":
        return cls.from_labels(np.zeros(n, dtype=np.int64))

    @classmethod
    def identity(cls, n: int) -> "Partition":
        """One singleton group per item."""
        return cls.from_labels(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def indicator(self) -> np.ndarray:
        """Dense n-by-k 0/1 group indicator matrix."""
        h = np.zeros((self.n, self.k))
        h[np.arange(self.n), self.assignment] = 1.0
        return h

    def indicator_sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (np.ones(self.n), (np.arange(self.n), self.assignment)),
            shape=(self.n, self.k),
        )

    def compose(self, coarser: "Partition") -> "Partition":
        """Apply a partition of this partition's groups to the items.

        ``coarser`` must partition ``self.k`` items (the groups);
        the result partitions the original ``n`` items.
        """
        if coarser.n != self.k:
            raise ValueError(
                f"coarser partition covers {coarser.n} items, expected {self.k} groups"
            )
        return Partition.from_labels(coarser.assignment[self.assignment])

    def group_means(self, x: np.ndarray) -> np.ndarray:
        """Group-wise means of the rows of ``x`` (this is ``H^+ x``); a vector
        is one column.  The sums are one weighted ``bincount`` over the
        (group, column) cells, each adding its rows in row order from 0.0."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"expected {self.n} rows in a vector or 2-d block, got {x.shape}")
        d = x.size // self.n
        cells = (self.assignment[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=x.ravel(), minlength=self.k * d)
        means = sums.reshape(self.k, d) / self.group_sizes[:, None]
        return means.reshape(self.k, *x.shape[1:])


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric k-by-k matrix of estimated inter-group connection densities.

    ``group_sizes`` records the sizes of the partition the estimate
    summarizes.  Entries lie in [0, 1] when estimated from a simple
    unweighted graph; perturbation workflows may introduce negative entries.
    """

    values: np.ndarray
    group_sizes: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("affinity matrix must be square")
        if not np.allclose(values, values.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(values).max())):
            raise ValueError("affinity matrix must be symmetric")
        sizes = np.asarray(self.group_sizes, dtype=np.int64)
        if sizes.shape != (values.shape[0],):
            raise ValueError("group_sizes must have one entry per group")
        values.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class QuotientGraph:
    """Group-level graph: per-node-normalized adjacency and its Laplacian."""

    a_pi: np.ndarray
    l_pi: np.ndarray


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph stored as a symmetric CSR adjacency."""

    adjacency: sp.csr_matrix
    degrees: np.ndarray

    @classmethod
    def from_arrays(cls, u, v, w=None, n=None) -> "Graph":
        """Build a graph from parallel edge arrays.

        Duplicate undirected edges have their weights summed.  ``n`` is
        inferred as ``max id + 1`` when absent.  The COO coordinates are
        concatenated straight into int32 (int64 from ``n = 2^31``), the
        index type of the CSR that scipy builds from them, so they are not
        made in int64 first and cast.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-d arrays of equal length")
        if u.size and not (
            np.issubdtype(u.dtype, np.integer) and np.issubdtype(v.dtype, np.integer)
        ):
            raise ValueError("node ids must be integers")
        if u.size and (u.min() < 0 or v.min() < 0):
            raise ValueError("node ids must be non-negative")
        if w is not None:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != u.shape:
                raise ValueError("weights must match the edge arrays")
            if not np.all(np.isfinite(w)):
                raise ValueError("edge weights must be finite")
            if w.size and w.min() < 0:
                raise ValueError("edge weights must be non-negative")
        max_id = int(max(u.max(), v.max())) if u.size else -1
        if n is None:
            n = max_id + 1
        elif max_id >= n:
            raise ValueError(f"node id {max_id} out of range for n={n}")
        if n <= 0:
            raise ValueError("graph must have at least one node")
        # unsafe casting is exact: the ids were checked to be integers in
        # 0..n-1, and only an empty id array may be float
        index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        rows = np.concatenate([u, v], dtype=index, casting="unsafe")
        cols = np.concatenate([v, u], dtype=index, casting="unsafe")
        data = np.ones(rows.size) if w is None else np.concatenate([w, w])
        adjacency = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        del rows, cols, data  # freed before the degrees are summed
        adjacency.sum_duplicates()
        return cls._from_csr(adjacency)

    @classmethod
    def from_edges(cls, edges, n=None) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
        us, vs, ws = [], [], []
        for edge in edges:
            if len(edge) == 2:
                eu, ev = edge
                ew = 1.0
            elif len(edge) == 3:
                eu, ev, ew = edge
            else:
                raise ValueError(f"edges must be (u, v) or (u, v, w), got {edge!r}")
            if not isinstance(eu, (int, np.integer)) or not isinstance(ev, (int, np.integer)):
                raise ValueError(f"node ids must be integers, got {edge!r}")
            us.append(int(eu))
            vs.append(int(ev))
            ws.append(float(ew))
        if not us:
            if n is None:
                raise ValueError("cannot infer node count from an empty edge list")
            return cls._from_csr(sp.csr_matrix((n, n)))
        return cls.from_arrays(
            np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws), n=n
        )

    @classmethod
    def from_dense(cls, matrix) -> "Graph":
        """Wrap a dense symmetric adjacency (weights taken as given)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("adjacency must be symmetric")
        return cls._from_csr(sp.csr_matrix(matrix))

    @classmethod
    def _from_csr(cls, adjacency: sp.csr_matrix) -> "Graph":
        # matvec with ones, matching the accumulation order of A @ H so the
        # equitability check cancels exactly on structured inputs
        degrees = adjacency @ np.ones(adjacency.shape[0])
        # finite weights can still sum past the float range, and every
        # operator built from the degrees would then hold inf or nan
        with np.errstate(over="ignore"):
            total = degrees.sum()
        if not np.isfinite(total):
            raise ValueError("node degrees and their total must be finite")
        degrees.setflags(write=False)
        return cls(adjacency=adjacency, degrees=degrees)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def total_weight(self) -> float:
        """Sum of all adjacency entries (twice the edge weight for simple graphs)."""
        return float(self.degrees.sum())

    @property
    def max_degree(self) -> float:
        return float(self.degrees.max()) if self.n else 0.0


def _check_partition(graph: Graph, partition: Partition) -> None:
    if partition.n != graph.n:
        raise ValueError(
            f"partition covers {partition.n} items but the graph has {graph.n} nodes"
        )


def aggregate(graph: Graph, partition: Partition) -> np.ndarray:
    """Group-aggregated adjacency ``H^T A H`` (within-group weight counted twice)."""
    _check_partition(graph, partition)
    h = partition.indicator_sparse()
    return (h.T @ graph.adjacency @ h).toarray()


def quotient(graph: Graph, partition: Partition) -> QuotientGraph:
    """Quotient graph: aggregated weights normalized per source-group node.

    ``a_pi[r, s]`` is the mean total weight a node of group ``r`` sends to
    group ``s``; ``l_pi`` is the Laplacian of that weighted group graph.
    """
    agg = aggregate(graph, partition)
    a_pi = agg / partition.group_sizes[:, None]
    d_pi = a_pi.sum(axis=1)
    l_pi = np.diag(d_pi) - a_pi
    return QuotientGraph(a_pi=a_pi, l_pi=l_pi)


def is_exact_eep(graph: Graph, partition: Partition, tol: float | None = None) -> bool:
    """Check whether the partition is externally equitable.

    True iff ``L H = H L_pi`` entrywise within ``tol`` (default
    ``1e-9 * max degree``), i.e. every node in group ``r`` has the same
    total link weight to each other group ``s != r``.
    """
    _check_partition(graph, partition)
    if tol is None:
        tol = EEP_TOL_FACTOR * graph.max_degree
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    h = partition.indicator()
    # D H - A H keeps the same float summation order as the degree vector,
    # so structured cases cancel exactly
    lh = graph.degrees[:, None] * h - graph.adjacency @ h
    hl = quotient(graph, partition).l_pi[partition.assignment]
    return bool(np.abs(lh - hl).max() <= tol)


def estimate_affinity(graph: Graph, partition: Partition) -> AffinityMatrix:
    """Estimate the inter-group connection density matrix ``H^+ A (H^+)^T``.

    Each entry is the aggregated weight between two groups divided by the
    product of their sizes (diagonal included, so self-pairs count in the
    denominator).
    """
    agg = aggregate(graph, partition)
    sizes = partition.group_sizes.astype(np.float64)
    values = agg / np.outer(sizes, sizes)
    return AffinityMatrix(values=values, group_sizes=partition.group_sizes)


def coarse_affinity_update(omega: AffinityMatrix, coarser: Partition) -> AffinityMatrix:
    """Aggregate an affinity estimate one level up a hierarchy.

    ``coarser`` partitions the current groups; sizes are weighted by the
    number of original nodes per group, which makes this identical to
    re-estimating the affinity from the original adjacency with the
    composed partition.
    """
    if coarser.n != omega.k:
        raise ValueError(
            f"coarser partition covers {coarser.n} items, expected {omega.k} groups"
        )
    fine_sizes = omega.group_sizes.astype(np.float64)
    h = coarser.indicator()
    weighted = fine_sizes[:, None] * omega.values * fine_sizes[None, :]
    agg = h.T @ weighted @ h
    coarse_sizes = np.bincount(coarser.assignment, weights=fine_sizes, minlength=coarser.k)
    values = agg / np.outer(coarse_sizes, coarse_sizes)
    return AffinityMatrix(values=values, group_sizes=coarse_sizes.astype(np.int64))


def relative_partition(fine: Partition, coarse: Partition) -> Partition:
    """Express a nested coarse partition as a partition of the fine groups.

    Raises if ``coarse`` is not an exact merge of ``fine``'s groups.
    """
    if fine.n != coarse.n:
        raise ValueError("partitions must cover the same items")
    rel = np.full(fine.k, -1, dtype=np.int64)
    rel[fine.assignment] = coarse.assignment
    if not np.array_equal(rel[fine.assignment], coarse.assignment):
        raise ValueError("coarse partition does not merge the fine one")
    result = Partition.from_labels(rel)
    return result


# The ASCII bytes that Python's ``str.split`` treats as whitespace: the
# separators of an edge list's tokens.
_SEPARATOR = np.zeros(256, dtype=bool)
_SEPARATOR[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_FIRST_LINE = re.compile(rb"[^\r\n]*")
_HEADER = re.compile(rb"#\s*n=([0-9]+)")
# Node counts and ids at or above this bound are rejected: the row pointers
# of a graph that size would take 16 GB on their own.
_NODE_BOUND = 2**31
# The longest id and weight tokens that the array reader converts (18
# digits cannot overflow int64); a file with a longer one goes to the
# line-by-line reader.
_ID_WIDTH = 18
_WEIGHT_WIDTH = 32
# Bytes per chunk of the array reader: its temporaries take a few times
# this, not a few times the file.
_READ_CHUNK = 2**20


def read_edge_list(path) -> Graph:
    """Read a graph from a text edge list.

    One edge per line, ``u v [w]``, whitespace-separated 0-based integer
    ids; blank lines and lines starting with ``#`` are ignored.  A first
    line ``# n=<N>``, as ``write_edge_list`` writes, sets the node count,
    so isolated nodes above the largest id are kept; without it ``n`` is
    the largest id plus one.  Ids and ``N`` must be below 2^31.

    ``_read_lines`` defines the format.  ``_scan_edges`` reads a plain
    ASCII file with array operations and hands any file it does not accept
    whole to ``_read_lines``, which names the first bad line.  A graph
    whose weighted degrees overflow is an ``EdgeListError`` too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    n = _header_node_count(raw)
    limit = _NODE_BOUND if n is None else n
    edges = _scan_edges(raw, limit)
    if edges is None:
        edges = _read_lines(raw, limit)
    del raw  # freed before the graph's own arrays are built
    try:
        return Graph.from_arrays(*edges, n=n)
    except ValueError as exc:
        raise EdgeListError(str(exc)) from exc


def _header_node_count(raw: bytes) -> int | None:
    """``N`` of a first line ``# n=<N>``; None without one."""
    header = _HEADER.fullmatch(_FIRST_LINE.match(raw).group().strip())
    if header is None:
        return None
    count = header.group(1).lstrip(b"0") or b"0"
    if len(count) > len(str(_NODE_BOUND)) or int(count) >= _NODE_BOUND:
        raise EdgeListError(f"line 1: node count must be below {_NODE_BOUND}", line_no=1)
    return int(count)


def _read_lines(raw: bytes, limit: int):
    """``(u, v, w)`` arrays of an edge list read one line at a time, as text
    with universal newlines; an ``EdgeListError`` names the first bad line."""
    us, vs, ws = [], [], []
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="replace")
    for line_no, line in enumerate(text, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise _line_error(line_no, f"expected 'u v [w]', got {line!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise _line_error(line_no, f"node ids must be integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise _line_error(line_no, "node ids must be non-negative")
        for node in (u, v):
            if node >= limit:
                raise _line_error(
                    line_no, f"node id {node} out of range, ids must be below {limit}"
                )
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise _line_error(line_no, f"weight must be a number, got {parts[2]!r}") from None
            if not np.isfinite(w) or w < 0:
                raise _line_error(line_no, "weight must be finite and non-negative")
        us.append(u)
        vs.append(v)
        ws.append(w)
    if not us:
        raise EdgeListError("edge list contains no edges")
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(ws)


def _line_error(line_no: int, message: str) -> EdgeListError:
    return EdgeListError(f"line {line_no}: {message}", line_no=line_no)


def _scan_edges(raw: bytes, limit: int):
    """``(u, v, w)`` arrays of an ASCII file in which every line is blank, a
    comment or ``u v [w]`` with plain decimal ids (the bytes ``0-9`` only)
    below ``limit`` and a finite non-negative weight, exactly as
    ``_read_lines`` reads it; None for any other file, so that ids such as
    ``+3`` or ``1_0``, which Python's ``int`` accepts, are read line by line.
    ``w`` is None when no line has a weight.

    The file is scanned in chunks of about ``_READ_CHUNK`` bytes, each cut
    just after a ``\\n``, so that no line, and no ``\\r\\n``, is split and
    the scan's temporaries are sized by the chunk.  Ids accumulate in int64
    and are kept as int32 when ``limit`` is at most 2^31.
    """
    if not raw.isascii() or b"\0" in raw:
        return None
    index = np.int32 if limit <= _NODE_BOUND else np.int64
    us, vs, ws = [], [], []
    for chunk in _line_chunks(raw):
        edges = _scan_chunk(chunk, limit)
        if edges is None:
            return None
        us.append(edges[0].astype(index))
        vs.append(edges[1].astype(index))
        ws.append(edges[2])
    sizes = [u.size for u in us]
    if not sum(sizes):
        return None
    u, v = np.concatenate(us), np.concatenate(vs)
    del us, vs
    if all(w is None for w in ws):
        return u, v, None
    return u, v, np.concatenate([np.ones(size) if w is None else w for w, size in zip(ws, sizes)])


def _line_chunks(raw: bytes):
    """``raw`` in consecutive pieces of about ``_READ_CHUNK`` bytes, each
    ending just after a ``\\n`` (the last one at the end of ``raw``); a line
    longer than ``_READ_CHUNK`` is one piece."""
    start = 0
    while start < len(raw):
        stop = len(raw)
        if start + _READ_CHUNK < stop:
            stop = raw.rfind(b"\n", start, start + _READ_CHUNK) + 1
            if stop <= start:
                stop = raw.find(b"\n", start + _READ_CHUNK) + 1 or len(raw)
        yield raw[start:stop]
        start = stop


def _scan_chunk(raw: bytes, limit: int):
    """``_scan_edges`` on one piece of a file cut after a ``\\n``, with int64
    ids; a piece with no edge line gives empty arrays."""
    data = np.frombuffer(raw, dtype=np.uint8)
    # lines end at \n, \r\n or a lone \r, as in text mode
    breaks = np.flatnonzero(data == ord("\n"))
    cr = np.flatnonzero(data == ord("\r"))
    if cr.size:
        follows = np.append(data, 0)[cr + 1]
        breaks = np.union1d(breaks, cr[follows != ord("\n")])
    # -1 at the first byte of a token, +1 just past its last byte
    step = np.diff(np.concatenate(([True], _SEPARATOR[data], [True])).view(np.int8))
    starts = np.flatnonzero(step == -1)
    ends = np.flatnonzero(step == 1)
    del step
    # 0-based line of each token; a line whose first token starts with '#'
    # is a comment
    line = np.searchsorted(breaks, starts)
    first = np.diff(line, prepend=-1) != 0
    keep = (data[starts[first]] != ord("#"))[np.cumsum(first) - 1]
    starts, ends, line = starts[keep], ends[keep], line[keep]
    del breaks, first, keep
    # the first token of each edge line, and the line's number of tokens
    line_start = np.flatnonzero(np.diff(line, prepend=-1))
    width = np.diff(line_start, append=starts.size)
    if not line_start.size:
        return np.empty(0, np.int64), np.empty(0, np.int64), None
    if width.min() < 2 or width.max() > 3:
        return None
    u, v = (
        _decimal_ids(data, starts[line_start + col], ends[line_start + col])
        for col in (0, 1)
    )
    if u is None or v is None or max(u.max(), v.max()) >= limit:
        return None
    weighted = width == 3
    if not weighted.any():
        return u, v, None
    token = line_start[weighted] + 2
    given = _convert_weights(data, starts[token], ends[token])
    if given is None or not np.isfinite(given).all() or given.min() < 0:
        return None
    w = np.ones(line_start.size)
    w[weighted] = given
    return u, v, w


def _decimal_ids(data, starts, ends):
    """The tokens ``data[starts:ends]`` read as decimal integers by
    place-value accumulation over their digit bytes, from the most
    significant; None if a token is longer than ``_ID_WIDTH`` bytes or
    holds a byte other than ``0-9``."""
    length = ends - starts
    size = int(length.max())
    if size > _ID_WIDTH:
        return None
    ids = np.zeros(starts.size, dtype=np.int64)
    # ``back`` counts from each token's end, so the tokens stay right-aligned
    # and a token shorter than ``back`` adds a leading zero
    for back in range(size, 0, -1):
        short = length < back
        digit = data[np.where(short, starts, ends - back)] - np.uint8(ord("0"))
        digit[short] = 0
        if digit.max() > 9:  # any other byte wraps past 9 in uint8
            return None
        ids *= 10
        ids += digit
    return ids


def _convert_weights(data, starts, ends):
    """The tokens ``data[starts:ends]`` converted by numpy's cast from bytes
    to float, which applies Python's ``float`` to each; None if a token is
    longer than ``_WEIGHT_WIDTH`` bytes or does not convert."""
    length = ends - starts
    size = int(length.max())
    if size > _WEIGHT_WIDTH:
        return None
    chars = np.zeros((starts.size, size), dtype=np.uint8)
    for j in range(size):
        inside = length > j
        chars[inside, j] = data[starts[inside] + j]
    try:
        return chars.view(f"S{size}").ravel().astype(np.float64)
    except ValueError:
        return None


# Stored entries per chunk of ``write_edge_list``, each giving at most one
# line: its arrays are sized by the chunk, not by the graph.
_WRITE_CHUNK = 2**16


def write_edge_list(graph: Graph, path) -> None:
    """Write the graph as a text edge list that ``read_edge_list`` reads back.

    The first line is ``# n=<N>``.  Then each stored entry ``(u, v, w)`` of
    the upper triangle (``v >= u``) of the CSR adjacency gives one line, in
    storage order: ``u v`` when its weight is 1 and ``u v <repr(w)>``
    otherwise, where a self-loop's weight is half its stored diagonal entry
    (the graph stores a loop twice).  Every line ends in a newline.

    The stored entries are taken ``_WRITE_CHUNK`` at a time.  A chunk's ids
    become rows of ASCII digits in one byte matrix, and only the lines whose
    weight is not 1 format their weight one by one.
    """
    adjacency = graph.adjacency
    indptr, indices = adjacency.indptr, adjacency.indices
    with open(path, "wb") as fh:
        fh.write(f"# n={graph.n}\n".encode())
        for start in range(0, indices.size, _WRITE_CHUNK):
            stop = min(start + _WRITE_CHUNK, indices.size)
            rows = np.searchsorted(indptr, np.arange(start, stop), side="right") - 1
            cols = indices[start:stop]
            upper = cols >= rows
            fh.write(_edge_lines(rows[upper], cols[upper], adjacency.data[start:stop][upper]))


def _edge_lines(u, v, w) -> bytes:
    """The edge-list lines of the upper-triangle entries ``(u, v, w)``."""
    w = np.asarray(w, dtype=np.float64)
    w = np.where(u == v, w / 2.0, w)  # stored diagonal is twice the loop weight
    odd = np.flatnonzero(w != 1.0)
    # one row per line: u's digits, a space, v's digits, the weight and a
    # newline, padded with zero bytes that are dropped on output
    parts = [_digit_rows(u), np.full((u.size, 1), ord(" "), np.uint8), _digit_rows(v)]
    if odd.size:
        weights = np.array([f" {x!r}".encode() for x in w[odd].tolist()])
        suffix = np.zeros((u.size, weights.itemsize), dtype=np.uint8)
        suffix[odd] = weights.view(np.uint8).reshape(odd.size, -1)
        parts.append(suffix)
    parts.append(np.full((u.size, 1), ord("\n"), np.uint8))
    lines = np.hstack(parts)
    return lines[lines != 0].tobytes()


def _digit_rows(ids) -> np.ndarray:
    """ASCII decimal digits of the non-negative ``ids``, one right-aligned row
    each, padded on the left with zero bytes."""
    rest = ids.astype(np.int64)
    size = len(str(int(rest.max()))) if rest.size else 1
    rows = np.zeros((rest.size, size), dtype=np.uint8)
    rows[:, -1] = rest % 10 + ord("0")
    for col in range(size - 2, -1, -1):
        rest //= 10
        rows[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
    return rows
