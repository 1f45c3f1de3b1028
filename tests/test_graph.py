"""Graph construction, Laplacians, aggregation, quotients, equitability."""

import re
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierspect import (
    Graph,
    Partition,
    aggregate,
    coarse_affinity_update,
    estimate_affinity,
    generate_planted_partition,
    is_exact_eep,
    quotient,
    read_edge_list,
    solve_planted_params,
    write_edge_list,
)
from hierspect.errors import EdgeListError
from hierspect import graph as graph_module
from hierspect.graph import relative_partition

from conftest import NON_UNIT_EDGES, random_graph


class TestGraphConstruction:
    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param([(0, 1), (1, 2)], id="path"),
            pytest.param([(0, 1, 1.0), (1, 1), (2, 2, 1.0)], id="explicit-ones-and-loops"),
            pytest.param([], id="no-edges"),
        ],
    )
    def test_unit_weights(self, edges):
        assert Graph.from_edges(edges, n=3).unit_weights

    @pytest.mark.parametrize("edges", NON_UNIT_EDGES)
    def test_other_weights_are_not_unit(self, edges):
        assert not Graph.from_edges(edges).unit_weights

    def test_path_graph_degrees(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        np.testing.assert_array_equal(g.degrees, [1.0, 2.0, 1.0])

    def test_duplicate_edges_sum(self):
        g = Graph.from_edges([(0, 1), (1, 0)])
        assert g.adjacency[0, 1] == 2.0
        assert g.adjacency[1, 0] == 2.0

    def test_weighted_duplicates_in_both_orientations_stay_symmetric(self):
        # summed per cell, 2 + 1 + 1/3 and 1 + 1/3 + 2 round apart
        a = Graph.from_arrays([0, 1, 1], [1, 0, 0], [2.0, 1.0, 1 / 3]).adjacency
        assert (a != a.T).nnz == 0
        assert a[0, 1] == a[1, 0]
        assert a[0, 1] in (2.0 + 1.0 + 1 / 3, 1.0 + 1 / 3 + 2.0)

    def test_self_loop_degree(self):
        # symmetric-sum convention: a loop of weight w adds 2w to its degree
        g = Graph.from_edges([(0, 1, 0.5), (2, 2, 1.0)])
        np.testing.assert_allclose(g.degrees, [0.5, 0.5, 2.0])
        assert g.adjacency[2, 2] == 2.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges([(0, 1, -1.0)])

    def test_non_integer_id_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges([(0.5, 1)])

    def test_n_inferred(self):
        g = Graph.from_edges([(0, 7)])
        assert g.n == 8

    def test_explicit_n_with_isolated_nodes(self):
        g = Graph.from_edges([(0, 1)], n=5)
        assert g.n == 5
        assert g.degrees[4] == 0.0

    def test_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges([(0, 5)], n=3)

    @pytest.mark.parametrize(
        "weights", [[1e308, 1e308], [1e308, 0.0]], ids=["node-degree", "degree-total"]
    )
    def test_degree_overflow_rejected(self, weights):
        # finite weights: node 1's degree, or the sum of the degrees, is inf
        with pytest.raises(ValueError, match="degrees and their total must be finite"):
            Graph.from_arrays(np.array([0, 1]), np.array([1, 2]), np.array(weights))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_from_arrays_matches_int64_build(self, dtype, weighted):
        # the CSR that scipy builds from int64 coordinates and a [w, w]
        # concatenation of the weights, duplicates included
        rng = np.random.default_rng(7)
        u, v = rng.integers(0, 3000, (2, 20_000))
        w = rng.choice([0.5, 1.0, 2.0], u.size) if weighted else None
        ones = np.ones(u.size) if w is None else w
        expected = sp.coo_matrix(
            (np.concatenate([ones, ones]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(3000, 3000),
        ).tocsr()
        expected.sum_duplicates()
        g = Graph.from_arrays(u.astype(dtype), v.astype(dtype), w, n=3000)
        assert g.adjacency.indices.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            got, want = getattr(g.adjacency, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert g.degrees.tobytes() == (expected @ np.ones(3000)).tobytes()

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_from_arrays_peak_memory(self, weighted):
        # int64 ids go straight into int32 coordinates, and unit weights are
        # one array: the build peaks at 2.3 times the CSR's bytes, where
        # int64 coordinates and a [w, w] concatenation took 2.6-3.0 times
        rng = np.random.default_rng(1)
        u, v = rng.integers(0, 20_000, (2, 200_000))
        w = rng.random(u.size) if weighted else None
        tracemalloc.start()
        try:
            g = Graph.from_arrays(u, v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a = g.adjacency
        assert peak <= 2.5 * (a.indptr.nbytes + a.indices.nbytes + a.data.nbytes)


class TestPartition:
    def test_from_labels(self):
        p = Partition.from_labels([0, 1, 1, 2])
        assert p.k == 3
        np.testing.assert_array_equal(p.group_sizes, [1, 2, 1])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty group"):
            Partition.from_labels([0, 2, 2])

    def test_compose(self):
        fine = Partition.from_labels([0, 0, 1, 1, 2, 2])
        coarse = Partition.from_labels([0, 0, 1])
        composed = fine.compose(coarse)
        np.testing.assert_array_equal(composed.assignment, [0, 0, 0, 0, 1, 1])

    def test_relative_partition_roundtrip(self):
        fine = Partition.from_labels([0, 1, 1, 2, 3, 3])
        coarse = Partition.from_labels([0, 0, 0, 1, 1, 1])
        rel = relative_partition(fine, coarse)
        np.testing.assert_array_equal(
            fine.compose(rel).assignment, coarse.assignment
        )

    def test_relative_partition_rejects_non_nested(self):
        fine = Partition.from_labels([0, 0, 1, 1])
        crossing = Partition.from_labels([0, 1, 0, 1])
        with pytest.raises(ValueError, match="merge"):
            relative_partition(fine, crossing)


def laplacian(graph):
    """Dense combinatorial Laplacian ``D - A``."""
    return np.diag(graph.degrees) - graph.adjacency.toarray()


class TestLaplacian:
    def test_complete_graph_eigenvalues(self, k3):
        evals = np.linalg.eigvalsh(laplacian(k3))
        np.testing.assert_allclose(evals, [0.0, 3.0, 3.0], atol=1e-12)

    def test_empty_graph(self):
        g = Graph.from_edges([], n=4)
        assert not laplacian(g).any()

    def test_self_loop_leaves_laplacian_unchanged(self):
        g1 = Graph.from_edges([(0, 1), (1, 2)])
        g2 = Graph.from_edges([(0, 1), (1, 2), (1, 1, 3.0)])
        np.testing.assert_allclose(
            laplacian(g1), laplacian(g2), atol=0
        )

    def test_row_sums_zero(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 20, weighted=True)
        rows = laplacian(g).sum(axis=1)
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)


class TestAggregateQuotient:
    def test_aggregate_k4(self, k4):
        p = Partition.from_labels([0, 0, 1, 1])
        np.testing.assert_allclose(aggregate(k4, p), [[2.0, 4.0], [4.0, 2.0]])

    def test_aggregate_identity_partition(self, k4):
        p = Partition.identity(4)
        np.testing.assert_allclose(aggregate(k4, p), k4.adjacency.toarray())

    def test_aggregate_single_group(self, k4):
        p = Partition.single_group(4)
        np.testing.assert_allclose(aggregate(k4, p), [[12.0]])

    def test_aggregate_total_preserved(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 30, weighted=True)
        p = Partition.from_labels(rng.integers(0, 4, 30))
        assert aggregate(g, p).sum() == pytest.approx(g.total_weight, rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_aggregate_is_indicator_product(self, weighted):
        # unit weights sum to integers, which any order adds exactly
        rng = np.random.default_rng(6)
        g = random_graph(rng, 60, weighted=weighted)
        p = Partition.from_labels(rng.integers(0, 7, 60))
        h = sp.csr_matrix((np.ones(60), (np.arange(60), p.assignment)), shape=(60, 7))
        expected = (h.T @ g.adjacency @ h).toarray()
        if weighted:
            np.testing.assert_allclose(aggregate(g, p), expected, rtol=1e-14)
        else:
            assert np.array_equal(aggregate(g, p), expected)

    def test_quotient_k4(self, k4):
        p = Partition.from_labels([0, 0, 1, 1])
        q = quotient(k4, p)
        np.testing.assert_allclose(q.a_pi, [[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(q.l_pi, [[2.0, -2.0], [-2.0, 2.0]])

    def test_quotient_single_group_kn(self):
        n = 6
        kn = Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])
        q = quotient(kn, Partition.single_group(n))
        np.testing.assert_allclose(q.a_pi, [[n - 1.0]])
        np.testing.assert_allclose(q.l_pi, [[0.0]])

    def test_quotient_consistency_exact(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 25, weighted=True)
        p = Partition.from_labels(rng.integers(0, 5, 25))
        q = quotient(g, p)
        expected = aggregate(g, p) / p.group_sizes[:, None]
        assert np.array_equal(q.a_pi, expected)

    def test_quotient_rowsums_zero(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 25, weighted=True)
        p = Partition.from_labels(rng.integers(0, 5, 25))
        np.testing.assert_allclose(quotient(g, p).l_pi.sum(axis=1), 0.0, atol=1e-12)

    def test_partition_length_mismatch(self, k4):
        with pytest.raises(ValueError, match="partition"):
            aggregate(k4, Partition.from_labels([0, 1]))


class TestPropositionQuotientInvariance:
    """Adding within-group edges leaves the quotient Laplacian unchanged."""

    @staticmethod
    def _add_within_edges(g, p, rng, count=5):
        adj = g.adjacency.toarray().copy()
        for _ in range(count):
            grp = rng.integers(0, p.k)
            members = np.flatnonzero(p.assignment == grp)
            if members.size < 2:
                continue
            i, j = rng.choice(members, size=2, replace=False)
            w = rng.random() + 0.1
            adj[i, j] += w
            adj[j, i] += w
        return Graph.from_dense(adj)

    def test_k4_example(self, k4):
        p = Partition.from_labels([0, 0, 1, 1])
        before = quotient(k4, p).l_pi
        g2 = Graph.from_edges(
            [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 1, 5.0)]
        )
        after = quotient(g2, p).l_pi
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12)

    def test_100_random_triples(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(8, 40))
            g = random_graph(rng, n, weighted=bool(rng.integers(2)))
            k = int(rng.integers(2, min(6, n)))
            labels = rng.integers(0, k, n)
            labels[:k] = np.arange(k)  # keep groups non-empty
            p = Partition.from_labels(labels)
            before = quotient(g, p).l_pi
            after = quotient(self._add_within_edges(g, p, rng), p).l_pi
            scale = max(1.0, np.abs(before).max())
            assert np.abs(after - before).max() <= 1e-12 * scale


class TestExactEEP:
    def test_k4_pairs(self, k4):
        assert is_exact_eep(k4, Partition.from_labels([0, 0, 1, 1]), 0.0)

    def test_p3(self):
        p3 = Graph.from_edges([(0, 1), (1, 2)])
        assert is_exact_eep(p3, Partition.from_labels([0, 1, 0]), 0.0)
        assert not is_exact_eep(p3, Partition.from_labels([0, 0, 1]), 1e-9)

    def test_single_group_always_eep(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 15, weighted=True)
        assert is_exact_eep(g, Partition.single_group(15), 0.0)

    def test_expected_adjacency_is_eep_at_zero_tolerance(self):
        # dyadic probabilities and power-of-two group sizes keep every
        # intermediate float sum exact, so the check passes at tol=0
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            omega = rng.integers(1, 64, size=(k, k)) / 64.0
            omega = (omega + omega.T) / 2
            sizes = np.full(k, 4)
            h = np.repeat(np.eye(k), sizes, axis=0)
            expected_adj = h @ omega @ h.T
            g = Graph.from_dense(expected_adj)
            p = Partition.from_labels(np.repeat(np.arange(k), sizes))
            assert is_exact_eep(g, p, 0.0)

    def test_default_tolerance_scale_aware(self, k4):
        assert is_exact_eep(k4, Partition.from_labels([0, 0, 1, 1]))


class TestEstimateAffinity:
    def test_two_cliques(self, two_cliques, two_cliques_partition):
        aff = estimate_affinity(two_cliques, two_cliques_partition)
        np.testing.assert_allclose(aff.values, [[0.8, 0.0], [0.0, 0.8]])

    def test_single_group(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        aff = estimate_affinity(g, Partition.single_group(4))
        np.testing.assert_allclose(aff.values, [[2 * 3 / 16.0]])

    def test_identity_partition_returns_adjacency(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 10)
        aff = estimate_affinity(g, Partition.identity(10))
        np.testing.assert_allclose(aff.values, g.adjacency.toarray())

    def test_affinity_update_equivalence(self):
        # aggregating an estimate one level up equals re-estimating from
        # the adjacency with the composed partition
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(10, 40))
            g = random_graph(rng, n, weighted=True)
            k1 = int(rng.integers(4, 8))
            labels = rng.integers(0, k1, n)
            labels[:k1] = np.arange(k1)
            p1 = Partition.from_labels(labels)
            k2 = int(rng.integers(2, k1))
            rel = rng.integers(0, k2, k1)
            rel[:k2] = np.arange(k2)
            p2 = Partition.from_labels(rel)
            omega1 = estimate_affinity(g, p1)
            updated = coarse_affinity_update(omega1, p2)
            direct = estimate_affinity(g, p1.compose(p2))
            np.testing.assert_allclose(
                updated.values, direct.values, rtol=1e-12, atol=1e-14
            )
            np.testing.assert_array_equal(updated.group_sizes, direct.group_sizes)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_quotient_identities_hold_for_random_inputs(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p=0.5, weighted=True)
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, n)
    labels[: min(k, n)] = np.arange(min(k, n))
    p = Partition.from_labels(labels)
    q = quotient(g, p)
    np.testing.assert_allclose(q.l_pi.sum(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(
        q.a_pi * p.group_sizes[:, None], aggregate(g, p), rtol=1e-12, atol=1e-12
    )


def random_edge_file(rng):
    """A small edge-list text with mixed separators, line ends, comments,
    blank lines and pairs listed again in either order; about one file in
    three has one malformed line."""
    seps = [" ", "\t", "  ", " \t", "\x0b", "\x1f"]
    ends = ["\n", "\r\n", "\r"]
    bad = ["0", "1 2 3 4", "x 1", "1 y", "1.5 2", "-3 1", "2 -7", "1 2 w", "1 2 1", "1 2 inf",
           "3 4 0x1", "+3 1_0", "\u0663 1", "1\u00a02", "0" * 30 + "1 2", "1 2 " + "0" * 40 + "1",
           "1 4" + "0" * 40, "# \u00e9", "1 2\x00", "-0 1", "1 2 2\x00"]
    lines, pairs = [], []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        sep = lambda: seps[rng.integers(len(seps))]
        if kind < 0.15:
            lines.append(sep()[: int(rng.integers(2))] + "# c 1 2 x" * int(rng.integers(2)) + "#")
        elif kind < 0.25:
            lines.append(sep() * int(rng.integers(2)))
        else:
            ids = [str(int(i)).zfill(int(rng.integers(1, 3))) for i in rng.integers(0, 30, 2)]
            if pairs and rng.random() < 0.3:  # a pair listed again, in either order
                ids = pairs[rng.integers(len(pairs))][:: rng.choice([1, -1])]
            pairs.append(ids)
            lines.append(sep()[: int(rng.integers(2))] + sep().join(ids) + sep()[: int(rng.integers(2))])
    if rng.random() < 0.35:
        lines.insert(int(rng.integers(len(lines) + 1)), bad[rng.integers(len(bad))])
    text = "".join(line + ends[rng.integers(len(ends))] for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text.encode()


def reference_write_edge_list(graph, path):
    """The writer as a loop over the upper triangle's entries, one formatted
    line each: the definition of ``write_edge_list``'s bytes, and of the
    graphs it refuses."""
    coo = sp.triu(graph.adjacency, k=0).tocoo()
    # a loop is stored twice on the diagonal
    if any(w != (2.0 if u == v else 1.0) for u, v, w in zip(coo.row, coo.col, coo.data)):
        raise ValueError("an edge list holds unit weights only")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={graph.n}\n")
        for u, v in zip(coo.row, coo.col):
            fh.write(f"{int(u)} {int(v)}\n")


def reference_read_edge_list(raw: bytes) -> Graph:
    """The reader as a loop over the lines of a file: the definition of the
    graph ``read_edge_list`` builds and of the first bad line it names."""
    n = graph_module._header_node_count(raw)
    limit = graph_module._NODE_BOUND if n is None else n
    pairs = set()
    lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for line_no, line in enumerate(lines, start=1):
        parts = re.findall(rb"[^\t\n\x0b\x0c\r\x1c-\x1f ]+", line)
        if not parts or parts[0].startswith(b"#"):
            continue
        text = line.strip(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ").decode("utf-8", "replace")

        def bad(message):
            return EdgeListError(f"line {line_no}: {message}", line_no=line_no)

        if len(parts) != 2:
            raise bad(f"expected 'u v', got {text!r}")
        if not all(re.fullmatch(rb"-?[0-9]+", token) for token in parts):
            raise bad(f"node ids must be integers, got {text!r}")
        if any(token.startswith(b"-") for token in parts):
            raise bad("node ids must be non-negative")
        ids = []
        for token in parts:
            digits = token.lstrip(b"0") or b"0"  # any number of leading zeros
            if len(digits) > 18 or int(digits) >= limit:
                raise bad(f"node id {digits.decode()} out of range, ids must be below {limit}")
            ids.append(int(digits))
        pairs.add((min(ids), max(ids)))  # a pair listed again is the same edge
    if not pairs:
        raise EdgeListError("edge list contains no edges")
    u, v = np.array(sorted(pairs)).T
    return Graph.from_arrays(u, v, n=n)


@st.composite
def writer_graphs(draw):
    """Unit-weight graphs with self-loops, isolated top nodes, no edges at
    all, and CSR adjacencies whose indices are unsorted within rows."""
    n = draw(st.integers(min_value=1, max_value=30))
    ids = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    pairs = sorted({(min(a, b), max(a, b)) for a, b in draw(ids)})
    u, v = (np.array([pair[i] for pair in pairs], dtype=np.int64) for i in (0, 1))
    isolated = draw(st.integers(min_value=0, max_value=3))
    graph = Graph.from_arrays(u, v, n=n + isolated)
    if draw(st.booleans()):
        adjacency = graph.adjacency.copy()
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        for row in range(adjacency.shape[0]):
            span = slice(adjacency.indptr[row], adjacency.indptr[row + 1])
            order = rng.permutation(span.stop - span.start)
            adjacency.indices[span] = adjacency.indices[span][order]
            adjacency.data[span] = adjacency.data[span][order]
        adjacency.has_sorted_indices = False
        graph = Graph._from_csr(adjacency)
    return graph


def written_bytes(writer, graph) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        writer(graph, path)
        return path.read_bytes()


class TestEdgeListWriter:
    @settings(max_examples=150, deadline=None)
    @given(graph=writer_graphs(), chunk=st.sampled_from([1, 3, 16, graph_module._WRITE_CHUNK]))
    def test_bytes_equal_reference_loop(self, graph, chunk):
        # small chunks put the lines of one graph in several chunks
        with mock.patch.object(graph_module, "_WRITE_CHUNK", chunk):
            assert written_bytes(write_edge_list, graph) == written_bytes(
                reference_write_edge_list, graph
            )

    def test_more_lines_than_one_chunk(self):
        rng = np.random.default_rng(4)
        u, v = rng.integers(0, 50_000, (2, 3 * graph_module._WRITE_CHUNK))
        pairs = np.unique(np.minimum(u, v) * 50_000 + np.maximum(u, v))
        graph = Graph.from_arrays(pairs // 50_000, pairs % 50_000)
        raw = written_bytes(write_edge_list, graph)
        assert raw.count(b"\n") > 2 * graph_module._WRITE_CHUNK
        assert raw == written_bytes(reference_write_edge_list, graph)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 20), st.integers(2**31 - 100, 2**31 - 1)),
                st.one_of(st.integers(0, 20), st.integers(2**31 - 100, 2**31 - 1)),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_ids_near_node_bound(self, entries):
        # a graph this large cannot be built (its row pointers alone take
        # 16 GB), so the lines of its upper-triangle entries are compared
        # with the reference loop run on a COO adjacency
        u = np.array([min(pair) for pair in entries], dtype=np.int64)
        v = np.array([max(pair) for pair in entries], dtype=np.int64)
        w = np.where(u == v, 2.0, 1.0)
        big = SimpleNamespace(
            n=2**31, adjacency=sp.coo_matrix((w, (u, v)), shape=(2**31, 2**31))
        )
        header, lines = written_bytes(reference_write_edge_list, big).split(b"\n", 1)
        assert header == b"# n=2147483648"
        assert graph_module._edge_lines(u, v) == lines

    @pytest.mark.parametrize("edges", NON_UNIT_EDGES)
    def test_other_weights_rejected(self, tmp_path, edges):
        # the format holds unit weights only, and nothing is written
        graph = Graph.from_edges(edges)
        path = tmp_path / "edges.tsv"
        with pytest.raises(ValueError, match="unit weights only"):
            write_edge_list(graph, path)
        assert not path.exists()
        with pytest.raises(ValueError, match="unit weights only"):
            reference_write_edge_list(graph, path)


def csr_bytes(graph):
    """The node count and the bytes of a graph's arrays."""
    a = graph.adjacency
    return graph.n, *(x.tobytes() for x in (a.indptr, a.indices, a.data, graph.degrees))


def outcome(read, source):
    """``csr_bytes`` of the graph read, or the error's message and line."""
    try:
        return csr_bytes(read(source))
    except EdgeListError as exc:
        return str(exc), exc.line_no


def read_bytes(raw: bytes) -> Graph:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        path.write_bytes(raw)
        return read_edge_list(path)


class TestChunkedReader:
    """The reader scans a file in chunks cut just after a newline; a chunk
    size of a few bytes puts about one line in each chunk."""

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_same_graph_as_line_reader(self, tmp_path, chunk):
        # the line reader is reference_read_edge_list
        rng = np.random.default_rng(26)
        path = tmp_path / "edges.tsv"
        valid = 0
        for _ in range(300):
            raw = random_edge_file(rng)
            path.write_bytes(raw)
            expected = outcome(reference_read_edge_list, raw)
            with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                assert outcome(read_edge_list, path) == expected
            valid += isinstance(expected[0], int)
        assert valid > 120, valid

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"0 1\r\n1 2\r\n2 3\r\n" * 8, id="crlf"),
            pytest.param(b"0 1\r1 2\r2 3\r" * 8 + b"3 4\n5 6\r", id="lone-cr"),
            pytest.param(b"# c\n\n0 1\n  \n\t# 1 2 3 4\n1 2\n" * 8, id="comments-blanks"),
            pytest.param(b"0 1\n" * 30 + b"2 1\n" + b"1 2\n" * 30, id="repeated-pair"),
            pytest.param(b"# n=40\n" + b"3 9\n" * 20 + b"7 8\n" * 20, id="header"),
        ],
    )
    def test_lines_across_chunks(self, tmp_path, content, chunk):
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            u, v = graph_module._scan_edges(content, graph_module._NODE_BOUND)
            got = read_edge_list(path)
        # ids below 2^31 are kept as int32
        assert u.dtype == v.dtype == np.int32
        assert csr_bytes(got) == csr_bytes(reference_read_edge_list(content))

    @settings(max_examples=150, deadline=None)
    @example(graph=Graph.from_edges([(0, 1), (2, 2)], n=4), write_chunk=1, read_chunk=1)
    @given(
        graph=writer_graphs(),
        write_chunk=st.sampled_from([1, 3, 16]),
        read_chunk=st.sampled_from([1, 5, 64]),
    )
    def test_written_files_read_back(self, graph, write_chunk, read_chunk):
        # the files generate writes, self-loops and isolated top nodes
        # included, read back as the graph's canonical CSR
        with mock.patch.object(graph_module, "_WRITE_CHUNK", write_chunk):
            raw = written_bytes(write_edge_list, graph)
        with mock.patch.object(graph_module, "_READ_CHUNK", read_chunk):
            if not graph.adjacency.nnz:
                with pytest.raises(EdgeListError, match="no edges"):
                    read_bytes(raw)
                return
            got = read_bytes(raw)
        assert csr_bytes(got) == csr_bytes(Graph._from_csr(graph.adjacency.sorted_indices()))

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_malformed_line_in_later_chunk(self, tmp_path, chunk):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"0 1\n" * 40 + b"1 2\n0 x\n2 3\n")
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            with pytest.raises(EdgeListError) as exc:
                read_edge_list(path)
        assert str(exc.value) == "line 42: node ids must be integers, got '0 x'"
        assert exc.value.line_no == 42

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(st.sampled_from([b"7", b" ", b"\r", b"\n"]), max_size=60).map(b"".join),
        chunk=st.integers(min_value=1, max_value=12),
    )
    def test_chunks_end_after_newlines(self, raw, chunk):
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            chunks = list(graph_module._line_chunks(raw))
        assert b"".join(chunks) == raw
        assert all(chunks)
        assert all(piece.endswith(b"\n") for piece in chunks[:-1])
        # a chunk longer than the size is one line
        assert all(b"\n" not in piece[:-1] for piece in chunks if len(piece) > chunk)

    def test_peak_memory_within_four_csr_sizes(self, tmp_path):
        # the scan's temporaries are sized by the chunk and the COO
        # coordinates are int32; a whole-file scan with int64 coordinates
        # peaked at 5.4 times the CSR's bytes
        alpha, beta = solve_planted_params(4, 20.0, 6.0)
        graph, _ = generate_planted_partition(20_000, 4, alpha, beta, seed=3)
        path = tmp_path / "edges.tsv"
        write_edge_list(graph, path)
        del graph
        tracemalloc.start()
        try:
            got = read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a = got.adjacency
        assert a.nnz > 2 * 190_000
        csr = a.indptr.nbytes + a.indices.nbytes + a.data.nbytes
        assert peak <= 4 * csr, peak / csr


# each edge listed once, a self-loop among them
ONCE = b"# n=6\n0 1\n1 2\n2 2\n3 5\n"


class TestEdgeListIO:
    def test_array_reader_matches_line_reader(self, tmp_path):
        # reference_read_edge_list defines the format: read_edge_list builds
        # the same graph, or names the same first bad line
        rng = np.random.default_rng(20)
        path = tmp_path / "edges.tsv"
        outcomes = set()
        for _ in range(400):
            raw = random_edge_file(rng)
            path.write_bytes(raw)
            expected = outcome(reference_read_edge_list, raw)
            assert outcome(read_edge_list, path) == expected
            valid = isinstance(expected[0], int)
            outcomes.add("ok" if valid else expected[0].split(": ")[-1][:20])
        # every kind of outcome came up
        assert len(outcomes) == 6, outcomes

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(
                ONCE + b"1 0\n2 1\n2 2\n5 3\n", id="both-orientations"
            ),
            pytest.param(b"# n=6\n0 1\n0 1\n1 2\n2 2\n3 5\n0 1\n", id="same-order"),
            pytest.param(ONCE + b"2 2\n2 2\n", id="self-loop"),
        ],
    )
    def test_repeated_pair_is_one_edge(self, tmp_path, content, chunk):
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            got = read_edge_list(path)
        assert csr_bytes(got) == csr_bytes(read_bytes(ONCE))
        assert got.adjacency[0, 1] == got.adjacency[1, 0] == 1.0
        assert got.adjacency[2, 2] == 2.0
        assert outcome(reference_read_edge_list, content) == csr_bytes(got)

    def test_long_token_in_large_file(self, tmp_path):
        # one 100 kB zero-padded id among 200,000 lines reads as its value,
        # in time linear in the file
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"0 1\n" * 100_000 + b"0" * 100_000 + b"7 1\n" + b"1 2\n" * 100_000)
        start = time.perf_counter()
        g = read_edge_list(path)
        assert time.perf_counter() - start < 20
        assert g.n == 8
        assert g.adjacency[7, 1] == g.adjacency[1, 7] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 99), st.integers(10**17, 10**18 - 1), st.integers(10**18, 10**30)
                ),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_accumulated_ids_equal_python_int(self, ids):
        # 18-digit ids, ids zero-padded past 18 bytes, and ids of more
        # significant digits, which read as 10^18
        tokens = [str(value).zfill(width) for value, width in ids]
        data = np.frombuffer(" ".join(tokens).encode(), dtype=np.uint8)
        ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
        starts = ends - np.array([len(t) for t in tokens])
        got = graph_module._decimal_ids(data, starts, ends)
        assert got.tolist() == [min(int(t), 10**18) for t in tokens]
        if len(tokens) % 2:
            tokens.pop()
        raw = "".join(f"{a} {b}\n" for a, b in zip(tokens[::2], tokens[1::2])).encode()
        assert outcome(read_bytes, raw) == outcome(reference_read_edge_list, raw)

    def test_roundtrip(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 3)])
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        assert path.read_bytes() == b"# n=4\n0 1\n1 2\n3 3\n"
        assert csr_bytes(read_edge_list(path)) == csr_bytes(g)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.adjacency[1, 2] == 1.0

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\nnot an edge here either\n")
        with pytest.raises(EdgeListError, match="line 2") as exc:
            read_edge_list(path)
        assert exc.value.line_no == 2

    def test_roundtrip_keeps_isolated_top_nodes(self, tmp_path):
        g = Graph.from_edges([(0, 1)], n=3)
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        assert path.read_text().splitlines()[0] == "# n=3"
        g2 = read_edge_list(path)
        assert g2.n == 3
        np.testing.assert_array_equal(g2.adjacency.toarray(), g.adjacency.toarray())

    def test_header_only_on_first_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"0 1\n# n=9\n1 2\n")
        assert read_edge_list(path).n == 3

    def test_id_beyond_header_reports_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"# n=4\n0 1\n# note\n2 4\n3 3\n")
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(path)
        assert str(exc.value) == "line 4: node id 4 out of range, ids must be below 4"
        assert exc.value.line_no == 4

    @pytest.mark.parametrize(
        "content, edges",
        [
            pytest.param(b"0 1\n1 22\n333 3\n", [(0, 1), (1, 22), (333, 3)], id="mixed-width"),
            pytest.param(b"0\t1\n1 \t 2\t\n", [(0, 1), (1, 2)], id="tabs"),
            pytest.param(b"0 1\r\n1 2\r\n", [(0, 1), (1, 2)], id="crlf"),
            pytest.param(b"0 1\r1 2\r", [(0, 1), (1, 2)], id="lone-cr"),
            pytest.param(b"\n\n0 1\n\n   \n1 2\n\n", [(0, 1), (1, 2)], id="blank-lines"),
            pytest.param(
                b"  # note\n0 1\n\t# 5 6 7 8\n1 2\n", [(0, 1), (1, 2)], id="indented-comments"
            ),
            pytest.param(b"0 1\n1 2", [(0, 1), (1, 2)], id="no-final-newline"),
            # a pair listed again, in either order, is the same edge
            pytest.param(b"0 1\n1 0\n0 1\n2 1\n", [(0, 1), (2, 1)], id="duplicates"),
            pytest.param(b"0 0\n0 1\n2 2\n", [(0, 0), (0, 1), (2, 2)], id="self-loops"),
            pytest.param(b"007 3\n", [(7, 3)], id="leading-zeros"),
            pytest.param(b"0" * 5000 + b"7 3\n", [(7, 3)], id="zero-padded-past-int-digit-limit"),
        ],
    )
    def test_valid_files(self, tmp_path, content, edges):
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        g = read_edge_list(path)
        expected = Graph.from_edges(edges)
        assert g.n == expected.n
        assert (g.adjacency != expected.adjacency).nnz == 0
        np.testing.assert_array_equal(g.degrees, expected.degrees)

    @pytest.mark.parametrize(
        "content, message, line_no",
        [
            pytest.param(b"0 1\n0 1 2 3\n", "line 2: expected 'u v', got '0 1 2 3'", 2, id="four-columns"),
            pytest.param(b"0 1\n  7  \n", "line 2: expected 'u v', got '7'", 2, id="one-column"),
            pytest.param(b"0 x\n", "line 1: node ids must be integers, got '0 x'", 1, id="non-integer"),
            pytest.param(b"0 1\n1.5 2\n", "line 2: node ids must be integers, got '1.5 2'", 2, id="float-id"),
            pytest.param(b"-1 x\n", "line 1: node ids must be integers, got '-1 x'", 1, id="negative-and-non-integer"),
            pytest.param(b"0 1\n2 -3\n", "line 2: node ids must be non-negative", 2, id="negative-id"),
            pytest.param(
                b"# c\n0 1\n  # c2\n0 x\n", "line 4: node ids must be integers, got '0 x'", 4,
                id="after-comments",
            ),
            pytest.param(
                b"0 1\r1 2\r\r0 x\n", "line 4: node ids must be integers, got '0 x'", 4,
                id="after-lone-cr",
            ),
            pytest.param(
                b"0 1\r\n\r\n0 1 2 3\r\n", "line 3: expected 'u v', got '0 1 2 3'", 3,
                id="after-crlf",
            ),
            pytest.param(b"0 1\n0 x\n0 1 2 3\n", "line 2: node ids must be integers, got '0 x'", 2, id="first-error-wins"),
            pytest.param(b"# only a comment\n\n  \n", "edge list contains no edges", None, id="no-edges"),
            pytest.param(b"", "edge list contains no edges", None, id="empty-file"),
            pytest.param(
                b"# n=100000000000\n0 1\n", "line 1: node count must be below 2147483648", 1,
                id="huge-header",
            ),
            pytest.param(
                b"# n=" + b"9" * 5000 + b"\n0 1\n", "line 1: node count must be below 2147483648",
                1, id="header-past-int-digit-limit",
            ),
            pytest.param(
                b"0 1\n2 3000000000\n", "line 2: node id 3000000000 out of range, "
                "ids must be below 2147483648", 2, id="id-past-bound",
            ),
            # more than 18 significant digits, also past the interpreter's
            # limit on the digits of an int
            pytest.param(
                b"0 1\n" + b"0" * 30 + b"1" * 19 + b" 2\n",
                f"line 2: node id {'1' * 19} out of range, ids must be below 2147483648", 2,
                id="19-significant-digits",
            ),
            pytest.param(
                b"9" * 5000 + b" 1\n",
                f"line 1: node id {'9' * 5000} out of range, ids must be below 2147483648", 1,
                id="id-past-int-digit-limit",
            ),
            # spellings that Python's int or str.split read
            pytest.param(b"+3 1\n4 5\n", "line 1: node ids must be integers, got '+3 1'", 1, id="plus-sign"),
            pytest.param(b"4 5\n3 1_0\n", "line 2: node ids must be integers, got '3 1_0'", 2, id="underscore"),
            pytest.param(
                "+3 1_0\n\u0663 1\n# caf\u00e9\n4\u00a05\n".encode(),
                "line 1: node ids must be integers, got '+3 1_0'", 1, id="python-int-forms",
            ),
            pytest.param(
                "0 1\n\u0663 1\n".encode(), "line 2: node ids must be integers, got '\u0663 1'", 2,
                id="non-ascii-digit",
            ),
            pytest.param(
                "0 1\n4\u00a05\n".encode(), "line 2: expected 'u v', got '4\\xa05'", 2,
                id="non-ascii-space",
            ),
            pytest.param(b"0 1\n-0 1\n", "line 2: node ids must be non-negative", 2, id="minus-zero"),
            # a third token, of any form, is an error that names its line,
            # and is found before the ids are read
            *(
                pytest.param(content, f"line {line_no}: expected 'u v', got {text!r}", line_no, id=name)
                for name, content, line_no, text in [
                    ("non-numeric-weight", b"0 1 w\n", 1, "0 1 w"),
                    ("inf-weight", b"0 1 inf\n", 1, "0 1 inf"),
                    ("nan-weight", b"0 1 nan\n", 1, "0 1 nan"),
                    ("negative-weight", b"0 1 -0.5\n", 1, "0 1 -0.5"),
                    ("unit-weight", b"0 1\n1 2 1\n", 2, "1 2 1"),
                    ("nul-in-weight", b"0 1 2\x00\n", 1, "0 1 2\x00"),
                    ("non-ascii-weight", "0 1 2\u00e9\n".encode(), 1, "0 1 2\u00e9"),
                    ("ids-before-weight", b"-1 2 x\n", 1, "-1 2 x"),
                    ("both-weighted", b"+3 1_0 2.5\n", 1, "+3 1_0 2.5"),
                    ("python-float-weight", "# caf\u00e9\n0 1 2_5.0\n".encode(), 2, "0 1 2_5.0"),
                ]
            ),
        ],
    )
    def test_malformed_files(self, tmp_path, content, message, line_no):
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(path)
        assert str(exc.value) == message
        assert exc.value.line_no == line_no
        assert outcome(reference_read_edge_list, content) == (message, line_no)
