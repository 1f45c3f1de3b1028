"""Graph construction, Laplacians, aggregation, quotients, equitability."""

import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
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

from conftest import random_graph


class TestGraphConstruction:
    def test_path_graph_degrees(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        np.testing.assert_array_equal(g.degrees, [1.0, 2.0, 1.0])

    def test_duplicate_edges_sum(self):
        g = Graph.from_edges([(0, 1), (1, 0)])
        assert g.adjacency[0, 1] == 2.0
        assert g.adjacency[1, 0] == 2.0

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
    """A small edge-list text with mixed separators, line ends, comments and
    blank lines; about one file in three has one malformed line."""
    seps = [" ", "\t", "  ", " \t", "\x0b", "\x1f"]
    ends = ["\n", "\r\n", "\r"]
    bad = ["0", "1 2 3 4", "x 1", "1 y", "1.5 2", "-3 1", "2 -7", "1 2 w", "1 2 inf",
           "1 2 nan", "1 2 -1e-3", "1 2 1e400", "3 4 0x1", "+3 1_0", "\u0663 1", "1\u00a02",
           "0" * 30 + "1 2", "1 2 " + "0" * 40 + "1", "1 4" + "0" * 40, "# \u00e9", "1 2\x00"]
    lines = []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        sep = lambda: seps[rng.integers(len(seps))]
        if kind < 0.15:
            lines.append(sep()[: int(rng.integers(2))] + "# c 1 2 x" * int(rng.integers(2)) + "#")
        elif kind < 0.25:
            lines.append(sep() * int(rng.integers(2)))
        else:
            ids = [str(int(i)).zfill(int(rng.integers(1, 3))) for i in rng.integers(0, 30, 2)]
            if rng.random() < 0.4:
                ids.append(repr(float(rng.choice([0.0, 1.0, 2.5, 1e-7, 123.0]))))
            lines.append(sep()[: int(rng.integers(2))] + sep().join(ids) + sep()[: int(rng.integers(2))])
    if rng.random() < 0.35:
        lines.insert(int(rng.integers(len(lines) + 1)), bad[rng.integers(len(bad))])
    text = "".join(line + ends[rng.integers(len(ends))] for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text.encode()


def reference_write_edge_list(graph, path):
    """The writer as a loop over the upper triangle's entries, one formatted
    line each: the definition of ``write_edge_list``'s bytes."""
    coo = sp.triu(graph.adjacency, k=0).tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={graph.n}\n")
        for u, v, w in zip(coo.row, coo.col, coo.data):
            u, v, w = int(u), int(v), float(w)
            if u == v:
                w = w / 2.0  # stored diagonal is twice the loop weight
            if w == 1.0:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {w!r}\n")


WRITER_WEIGHTS = [1.0, 2.0, 0.5, 1 / 3, 1e-300]


@st.composite
def writer_graphs(draw):
    """Graphs with self-loops, duplicate edges, isolated top nodes, no edges
    at all, and CSR adjacencies whose indices are unsorted within rows."""
    n = draw(st.integers(min_value=1, max_value=30))
    ids = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=60)
    u = np.array(draw(ids), dtype=np.int64)
    v = np.array(draw(st.lists(st.integers(0, n - 1), min_size=u.size, max_size=u.size)),
                 dtype=np.int64)
    w = draw(st.lists(st.sampled_from(WRITER_WEIGHTS), min_size=u.size, max_size=u.size))
    isolated = draw(st.integers(min_value=0, max_value=3))
    graph = Graph.from_arrays(u, v, np.array(w), n=n + isolated)
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
        w = rng.choice(WRITER_WEIGHTS, u.size, p=[0.9, 0.025, 0.025, 0.025, 0.025])
        graph = Graph.from_arrays(u, v, w)
        raw = written_bytes(write_edge_list, graph)
        assert raw.count(b"\n") > 2 * graph_module._WRITE_CHUNK
        assert raw == written_bytes(reference_write_edge_list, graph)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 20), st.integers(2**31 - 100, 2**31 - 1)),
                st.one_of(st.integers(0, 20), st.integers(2**31 - 100, 2**31 - 1)),
                st.sampled_from(WRITER_WEIGHTS),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_ids_near_node_bound(self, entries):
        # a graph this large cannot be built (its row pointers alone take
        # 16 GB), so the lines of its upper-triangle entries are compared
        # with the reference loop run on a COO adjacency
        u = np.array([min(a, b) for a, b, _ in entries], dtype=np.int64)
        v = np.array([max(a, b) for a, b, _ in entries], dtype=np.int64)
        w = np.array([x for *_, x in entries])
        big = SimpleNamespace(
            n=2**31, adjacency=sp.coo_matrix((w, (u, v)), shape=(2**31, 2**31))
        )
        header, lines = written_bytes(reference_write_edge_list, big).split(b"\n", 1)
        assert header == b"# n=2147483648"
        assert graph_module._edge_lines(u, v, w) == lines


def csr_bytes(graph):
    """The node count and the bytes of a graph's arrays."""
    a = graph.adjacency
    return graph.n, *(x.tobytes() for x in (a.indptr, a.indices, a.data, graph.degrees))


def line_reader_graph(raw):
    return Graph.from_arrays(*graph_module._read_lines(raw, graph_module._NODE_BOUND))


class TestChunkedReader:
    """The array reader scans a file in chunks cut just after a newline; a
    chunk size of a few bytes puts about one line in each chunk."""

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_same_graph_as_line_reader(self, tmp_path, chunk):
        rng = np.random.default_rng(26)
        path = tmp_path / "edges.tsv"
        scanned = 0
        for _ in range(300):
            raw = random_edge_file(rng)
            path.write_bytes(raw)
            with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                try:
                    expected = line_reader_graph(raw)
                except EdgeListError as exc:
                    with pytest.raises(EdgeListError) as got:
                        read_edge_list(path)
                    assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no)
                    continue
                scanned += graph_module._scan_edges(raw, graph_module._NODE_BOUND) is not None
                assert csr_bytes(read_edge_list(path)) == csr_bytes(expected)
        # most valid files took the chunked array path
        assert scanned > 120, scanned

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"0 1\r\n1 2 2.5\r\n2 3\r\n" * 8, id="crlf"),
            pytest.param(b"0 1\r1 2 0.5\r2 3\r" * 8 + b"3 4\n5 6\r", id="lone-cr"),
            pytest.param(b"# c\n\n0 1\n  \n\t# 1 2 3 4\n1 2\n" * 8, id="comments-blanks"),
            pytest.param(b"0 1\n" * 30 + b"1 2 0.25\n" + b"2 3\n" * 30, id="one-weighted-line"),
            pytest.param(b"# n=40\n" + b"3 9 1.5\n" * 20 + b"7 8\n" * 20, id="header"),
        ],
    )
    def test_lines_across_chunks(self, tmp_path, content, chunk):
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            u, v, _ = graph_module._scan_edges(content, graph_module._NODE_BOUND)
            got = read_edge_list(path)
        # ids below 2^31 are kept as int32
        assert u.dtype == v.dtype == np.int32
        n = graph_module._header_node_count(content)
        expected = Graph.from_arrays(
            *graph_module._read_lines(content, graph_module._NODE_BOUND), n=n
        )
        assert csr_bytes(got) == csr_bytes(expected)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_malformed_line_in_later_chunk(self, tmp_path, chunk):
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"0 1\n" * 40 + b"1 2 2.5\n0 x\n2 3\n")
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


class TestEdgeListIO:
    def test_array_reader_matches_line_reader(self):
        # _read_lines defines the format; the array reader must give the
        # same arrays on every file it accepts
        rng = np.random.default_rng(20)
        outcomes = set()
        scanned = 0
        for _ in range(400):
            raw = random_edge_file(rng)
            try:
                u, v, w = graph_module._read_lines(raw, graph_module._NODE_BOUND)
            except EdgeListError as exc:
                assert graph_module._scan_edges(raw, graph_module._NODE_BOUND) is None
                outcomes.add(str(exc).split(": ")[-1][:20])
                continue
            outcomes.add("ok")
            edges = graph_module._scan_edges(raw, graph_module._NODE_BOUND)
            if edges is None:
                continue
            scanned += 1
            np.testing.assert_array_equal(edges[0], u)
            np.testing.assert_array_equal(edges[1], v)
            np.testing.assert_array_equal(np.ones_like(w) if edges[2] is None else edges[2], w)
        # every kind of outcome came up, and most valid files took the array path
        assert len(outcomes) == 8, outcomes
        assert scanned > 150, scanned

    def test_long_token_in_large_file(self, tmp_path):
        # one 100 kB id among 200,000 lines is read in time linear in the file
        path = tmp_path / "edges.tsv"
        path.write_bytes(b"0 1\n" * 100_000 + b"0" * 100_000 + b"7 1\n" + b"1 2\n" * 100_000)
        start = time.perf_counter()
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(path)
        assert time.perf_counter() - start < 20
        assert str(exc.value).startswith("line 100001: node ids must be integers, got '000")
        assert exc.value.line_no == 100_001

    @pytest.mark.parametrize(
        "content, edges",
        [
            pytest.param(b"+3 1\n4 5\n", [(3, 1), (4, 5)], id="plus-sign"),
            pytest.param(b"4 5\n3 1_0\n", [(4, 5), (3, 10)], id="underscore"),
            pytest.param(b"+3 1_0 2.5\n", [(3, 10, 2.5)], id="both-weighted"),
        ],
    )
    def test_non_digit_ids_take_line_reader(self, tmp_path, content, edges):
        assert graph_module._scan_edges(content, graph_module._NODE_BOUND) is None
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        g = read_edge_list(path)
        expected = Graph.from_edges(edges)
        assert g.n == expected.n
        assert (g.adjacency != expected.adjacency).nnz == 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 99), st.integers(10**17, 10**18 - 1)),
                st.integers(min_value=1, max_value=18),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_accumulated_ids_equal_python_int(self, ids):
        # 18-digit ids, and ids zero-padded up to 18 bytes
        tokens = [str(value).zfill(width) for value, width in ids]
        if len(tokens) % 2:
            tokens.pop()
        raw = "".join(f"{a} {b}\n" for a, b in zip(tokens[::2], tokens[1::2])).encode()
        u, v, w = graph_module._scan_edges(raw, 10**18)
        assert u.tolist() == [int(t) for t in tokens[::2]]
        assert v.tolist() == [int(t) for t in tokens[1::2]]
        assert w is None

    def test_roundtrip(self, tmp_path):
        g = Graph.from_edges([(0, 1, 0.5), (1, 2), (3, 3, 1.5)])
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        np.testing.assert_allclose(g2.adjacency.toarray(), g.adjacency.toarray())

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n\n0 1\n1 2 2.5\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.adjacency[1, 2] == 2.5

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\nnot an edge here either\n")
        with pytest.raises(EdgeListError, match="line 2") as exc:
            read_edge_list(path)
        assert exc.value.line_no == 2

    def test_bad_weight_reports_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1 w\n")
        with pytest.raises(EdgeListError, match="line 1"):
            read_edge_list(path)

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
            pytest.param(b"0 1\n1 2 2.5\n2 3 1\n", [(0, 1), (1, 2, 2.5), (2, 3)], id="mixed-width"),
            pytest.param(b"0\t1\n1 \t 2\t0.5\n", [(0, 1), (1, 2, 0.5)], id="tabs"),
            pytest.param(b"0 1\r\n1 2 3.0\r\n", [(0, 1), (1, 2, 3.0)], id="crlf"),
            pytest.param(b"0 1\r1 2\r", [(0, 1), (1, 2)], id="lone-cr"),
            pytest.param(b"\n\n0 1\n\n   \n1 2\n\n", [(0, 1), (1, 2)], id="blank-lines"),
            pytest.param(
                b"  # note\n0 1\n\t# 5 6 7 8\n1 2\n", [(0, 1), (1, 2)], id="indented-comments"
            ),
            pytest.param(b"0 1\n1 2 0.25", [(0, 1), (1, 2, 0.25)], id="no-final-newline"),
            pytest.param(
                b"0 1\n1 0\n0 1 0.5\n2 1\n", [(0, 1), (1, 0), (0, 1, 0.5), (2, 1)], id="duplicates"
            ),
            pytest.param(b"0 0\n0 1\n2 2 1.5\n", [(0, 0), (0, 1), (2, 2, 1.5)], id="self-loops"),
            pytest.param(b"007 3 1e-1\n", [(7, 3, 0.1)], id="leading-zeros"),
            pytest.param(
                "+3 1_0 2_5.0\n\u0663 1\n# caf\u00e9\n4\u00a05\n".encode(),
                [(3, 10, 25.0), (3, 1), (4, 5)],
                id="python-int-forms",
            ),
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
            pytest.param(b"0 1\n0 1 2 3\n", "line 2: expected 'u v [w]', got '0 1 2 3'", 2, id="four-columns"),
            pytest.param(b"0 1\n  7  \n", "line 2: expected 'u v [w]', got '7'", 2, id="one-column"),
            pytest.param(b"0 x\n", "line 1: node ids must be integers, got '0 x'", 1, id="non-integer"),
            pytest.param(b"0 1\n1.5 2\n", "line 2: node ids must be integers, got '1.5 2'", 2, id="float-id"),
            pytest.param(b"-1 x\n", "line 1: node ids must be integers, got '-1 x'", 1, id="negative-and-non-integer"),
            pytest.param(b"0 1\n2 -3\n", "line 2: node ids must be non-negative", 2, id="negative-id"),
            pytest.param(b"0 1 w\n", "line 1: weight must be a number, got 'w'", 1, id="non-numeric-weight"),
            pytest.param(b"0 1 inf\n", "line 1: weight must be finite and non-negative", 1, id="inf-weight"),
            pytest.param(b"0 1 nan\n", "line 1: weight must be finite and non-negative", 1, id="nan-weight"),
            pytest.param(b"0 1 -0.5\n", "line 1: weight must be finite and non-negative", 1, id="negative-weight"),
            pytest.param(b"-1 2 x\n", "line 1: node ids must be non-negative", 1, id="ids-before-weight"),
            pytest.param(
                b"# c\n0 1\n  # c2\n0 x\n", "line 4: node ids must be integers, got '0 x'", 4,
                id="after-comments",
            ),
            pytest.param(
                b"0 1\r1 2\r\r0 x\n", "line 4: node ids must be integers, got '0 x'", 4,
                id="after-lone-cr",
            ),
            pytest.param(
                b"0 1\r\n\r\n0 1 2 3\r\n", "line 3: expected 'u v [w]', got '0 1 2 3'", 3,
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
        ],
    )
    def test_malformed_files(self, tmp_path, content, message, line_no):
        path = tmp_path / "edges.tsv"
        path.write_bytes(content)
        with pytest.raises(EdgeListError) as exc:
            read_edge_list(path)
        assert str(exc.value) == message
        assert exc.value.line_no == line_no
