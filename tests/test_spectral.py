"""Count probe, Bethe Hessian assembly, group-count estimation."""

import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import hierspect.spectral as spectral

from hierspect import (
    Graph,
    Partition,
    ami,
    bethe_hessian,
    cluster_bethe_hessian,
)
from hierspect.errors import DegenerateGraphError, SolverError
from hierspect.spectral import eigs_symmetric

from conftest import random_graph


class TestEigsSymmetric:
    """The count probe: seeded ARPACK at the loose ``COUNT_PROBE_TOL``."""

    @pytest.fixture(scope="class")
    def matrix(self):
        n = 1500
        mat = sp.random(n, n, density=0.005, random_state=1)
        return (mat + mat.T).tocsr()

    def test_sparse_path_matches_dense(self, matrix):
        dense = np.linalg.eigvalsh(matrix.toarray())[:4]
        values, _ = eigs_symmetric(matrix, 4, seed=7)
        # the four smallest, ascending, each within the probe tolerance
        np.testing.assert_allclose(values, dense, rtol=spectral.COUNT_PROBE_TOL)

    def test_sparse_loose_tolerance_keeps_signs(self, matrix, monkeypatch):
        dense = np.linalg.eigvalsh(matrix.toarray())
        tols = []

        def eigsh_spy(*args, **kwargs):
            tols.append(kwargs["tol"])
            return scipy.sparse.linalg.eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", eigsh_spy)
        values, _ = eigs_symmetric(matrix, 4, seed=7)
        assert tols == [spectral.COUNT_PROBE_TOL]
        for theta in values:
            nearest = dense[np.argmin(np.abs(dense - theta))]
            assert abs(nearest - theta) <= spectral.COUNT_PROBE_TOL * abs(theta)
            assert np.sign(nearest) == np.sign(theta)

    def test_residuals_and_orthonormality(self, matrix):
        values, vectors = eigs_symmetric(matrix, 5, seed=7)
        assert vectors.shape == (matrix.shape[0], 5)
        # ARPACK's stopping rule: each Ritz residual within tol * |theta|
        residual = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
        assert np.all(residual <= spectral.COUNT_PROBE_TOL * np.abs(values))
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(5), atol=1e-8)

    def test_deterministic_given_seed(self, matrix):
        v1, x1 = eigs_symmetric(matrix, 3, seed=11)
        v2, x2 = eigs_symmetric(matrix, 3, seed=11)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_pairs_come_back_ascending(self, matrix, monkeypatch, ascending):
        arpack = {}

        def eigsh_spy(*args, **kwargs):
            values, vectors = scipy.sparse.linalg.eigsh(*args, **kwargs)
            if not ascending:
                values, vectors = values[::-1], vectors[:, ::-1]
            arpack["vectors"] = vectors
            return values, vectors

        monkeypatch.setattr(spectral, "eigsh", eigsh_spy)
        values, vectors = eigs_symmetric(matrix, 4, seed=7)
        assert np.all(np.diff(values) >= 0)
        residual = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
        assert np.all(residual <= spectral.COUNT_PROBE_TOL * np.abs(values))
        # ARPACK's own array when it is already in order: no reordering copy
        assert (vectors is arpack["vectors"]) == ascending

    @pytest.mark.parametrize("available", [2, 0])
    def test_no_convergence_is_solver_error(self, monkeypatch, available):
        matrix = sp.diags(np.arange(1.0, 11.0)).tocsr()
        # the partial pairs ARPACK hands back: the first is off by 0.5
        values = np.array([1.5, 2.0])[:available]
        vectors = np.eye(10)[:, :available]

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no luck", values, vectors)

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        with pytest.raises(SolverError, match="did not converge") as info:
            eigs_symmetric(matrix, 3, seed=0)
        assert f"3 pairs requested, {available} available" in str(info.value)
        residuals = info.value.residual_norms
        if available:
            assert residuals.shape == (2,)
            np.testing.assert_allclose(residuals, [0.5, 0.0], atol=1e-12)
        else:
            assert residuals is None


class TestBetheHessian:
    def test_r_one_recovers_laplacian(self, k4):
        op = bethe_hessian(k4, 1.0)
        np.testing.assert_allclose(
            op.toarray(), np.diag(k4.degrees) - k4.adjacency.toarray(), atol=0
        )

    def test_single_edge_r_two(self):
        k2 = Graph.from_edges([(0, 1)])
        op = bethe_hessian(k2, 2.0)
        np.testing.assert_allclose(op.toarray(), [[4.0, -2.0], [-2.0, 4.0]])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(op.toarray()), [2.0, 6.0]
        )

    def test_r_zero(self, k3):
        op = bethe_hessian(k3, 0.0)
        np.testing.assert_allclose(
            op.toarray(), np.diag(k3.degrees) - np.eye(3)
        )

    def test_action_on_ones_identity(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 25, weighted=True)
        for r in (0.5, 1.7, -2.3):
            op = bethe_hessian(g, r)
            lhs = op @ np.ones(g.n)
            rhs = (r * r - 1.0) * np.ones(g.n) + (1.0 - r) * g.degrees
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestClusterBetheHessian:
    def test_two_cliques(self, two_cliques, two_cliques_partition):
        res = cluster_bethe_hessian(two_cliques, seed=0)
        assert res.k_hat == 2
        assert (res.k_plus, res.k_minus) == (2, 0)
        assert res.r == pytest.approx(2.0)
        assert ami(res.partition, two_cliques_partition) == 1.0
        # B_r = 7I - 2A has exactly two eigenvalues at -1
        evals = np.linalg.eigvalsh(bethe_hessian(two_cliques, 2.0).toarray())
        np.testing.assert_allclose(evals[:2], [-1.0, -1.0], atol=1e-12)
        assert evals[2] > 0

    def test_r_one_counts_connected_components(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)])
        lap = np.diag(g.degrees) - g.adjacency.toarray()
        tau = 1e-10 * np.abs(np.diag(lap)).max()
        evals = np.linalg.eigvalsh(lap)
        assert int(np.sum(evals <= tau)) == 3

    def test_permutation_invariance_of_count(self, two_cliques):
        rng = np.random.default_rng(4)
        perm = rng.permutation(two_cliques.n)
        adj = two_cliques.adjacency.toarray()[np.ix_(perm, perm)]
        res1 = cluster_bethe_hessian(two_cliques, seed=1)
        res2 = cluster_bethe_hessian(Graph.from_dense(adj), seed=1)
        assert res1.k_hat == res2.k_hat

    def test_counting_tolerance_stable_under_doubling(self, two_cliques):
        op = bethe_hessian(two_cliques, 2.0)
        tau = 1e-10 * np.abs(op.diagonal()).max()
        evals = np.linalg.eigvalsh(op.toarray())
        assert np.sum(evals <= tau) == np.sum(evals <= 2 * tau)

    def test_fallback_single_group(self):
        # a heavy single edge keeps both operators positive definite,
        # forcing the flagged single-group fallback
        g = Graph.from_edges([(0, 1, 2.0)])
        res = cluster_bethe_hessian(g, seed=2)
        assert res.k_hat == 1
        assert res.fallback
        assert res.partition.k == 1

    def test_k_hat_clamped_to_n(self):
        # below average degree 1 every eigenvalue of both operators is
        # negative; the estimate must still not exceed the node count
        g = Graph.from_edges([(0, 1, 0.01), (1, 2, 0.01)])
        res = cluster_bethe_hessian(g, seed=2)
        assert res.k_hat <= g.n

    def test_empty_graph_rejected(self):
        with pytest.raises(DegenerateGraphError):
            cluster_bethe_hessian(Graph.from_edges([], n=4), seed=0)

    def test_planted_partition_modest(self):
        from hierspect import generate_planted_partition, solve_planted_params

        alpha, beta = solve_planted_params(3, 20.0, 6.0)
        g, truth = generate_planted_partition(900, 3, alpha, beta, seed=5)
        res = cluster_bethe_hessian(g, seed=6)
        assert res.k_hat == 3
        assert ami(res.partition, truth) > 0.85

    def test_dense_path_assignment_is_seed_free(self):
        from hierspect import generate_planted_partition, solve_planted_params

        # near the threshold, where seeded k-means++ restarts gave a
        # different assignment for each of these two seeds
        alpha, beta = solve_planted_params(5, 20.0, 2.5)
        g, _ = generate_planted_partition(1000, 5, alpha, beta, seed=1)
        assert g.n <= spectral._DENSE_CUTOFF
        res1 = cluster_bethe_hessian(g, seed=1)
        res2 = cluster_bethe_hessian(g, seed=2)
        assert res1.k_hat == res2.k_hat == 5
        np.testing.assert_array_equal(res1.partition.assignment, res2.partition.assignment)


class TestDenseCount:
    """Up to the dense cutoff each sign is one by-value LAPACK call."""

    @pytest.fixture
    def twelve_k5(self):
        # B_2 = 7I - 2A has eigenvalue -1 once per K5: twelve non-positive
        # eigenvalues, more than the first doubling step of eight
        edges = [
            (5 * c + i, 5 * c + j)
            for c in range(12)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        return Graph.from_edges(edges)

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"eigs": [], "eigh": []}
        eigh = scipy.linalg.eigh

        def eigs_spy(matrix, m, seed):
            calls["eigs"].append(m)
            return eigs_symmetric(matrix, m, seed)

        def eigh_spy(a, *args, **kwargs):
            calls["eigh"].append(kwargs.get("subset_by_value"))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "eigs_symmetric", eigs_spy)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh_spy)
        return calls

    @staticmethod
    def assert_orthonormal(vectors):
        gram = vectors.T @ vectors
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-12)

    def test_one_decomposition_per_sign(self, twelve_k5, spy):
        res = cluster_bethe_hessian(twelve_k5, seed=3)
        assert (res.k_plus, res.k_minus) == (12, 0)
        # r = 2 and every degree is 4, so both operators have diagonal 7
        tau = spectral.COUNT_TOL_FACTOR * 7.0
        assert spy["eigs"] == []
        assert spy["eigh"] == [(-np.inf, tau), (-np.inf, tau)]

    def test_count_and_vectors_match_full_eigh(self, twelve_k5, spy):
        op = bethe_hessian(twelve_k5, 2.0)
        count, vectors = spectral._count_nonpositive(op, seed=4)
        assert spy["eigs"] == [] and len(spy["eigh"]) == 1
        values, full = scipy.linalg.eigh(op.toarray())
        tau = spectral.COUNT_TOL_FACTOR * np.abs(op.diagonal()).max()
        assert count == int(np.sum(values <= tau)) == 12
        # the twelve values -1 are one degenerate eigenspace, so the two
        # calls may return different bases of it: compare projectors
        self.assert_orthonormal(vectors)
        kept = full[:, :count]
        np.testing.assert_allclose(vectors @ vectors.T, kept @ kept.T, atol=1e-12)

    @pytest.mark.parametrize("r", [1.0, -1.0])
    def test_count_is_capped(self, r):
        # B_{+-1} = D -+ A has one zero eigenvalue per disjoint edge: 300
        graph = Graph.from_edges([(2 * i, 2 * i + 1) for i in range(300)])
        count, vectors = spectral._count_nonpositive(bethe_hessian(graph, r), seed=0)
        assert count == spectral.COUNT_CAP == 256
        assert vectors.shape == (graph.n, 256)
        self.assert_orthonormal(vectors)


class TestSparseCount:
    """Above the dense cutoff there is one solve per sign.  Loose-tolerance
    probes give the count.  The counted pairs converge to full accuracy
    before the bulk value that stops the count (on this fixture;
    ``_LOOSE_SPAN`` names an operator where one does not), so the final
    probe's vectors are kept.  Its residuals show each of its values to be
    on its side of ``tau``."""

    @pytest.fixture(scope="class")
    def graph(self):
        from hierspect import generate_planted_partition, solve_planted_params

        alpha, beta = solve_planted_params(4, 20.0, 6.0)
        g, _ = generate_planted_partition(1500, 4, alpha, beta, seed=8)
        assert g.n > spectral._DENSE_CUTOFF
        return g

    @pytest.fixture(scope="class")
    def operators(self, graph):
        r = np.sqrt(graph.total_weight / graph.n)
        ops = {}
        for sign in (1.0, -1.0):
            op = bethe_hessian(graph, sign * r)
            tau = spectral.COUNT_TOL_FACTOR * np.abs(op.diagonal()).max()
            count = int(np.sum(np.linalg.eigvalsh(op.toarray()) <= tau))
            ops[sign] = (op, count)
        # the assortative graph has four groups at +r and none at -r
        assert ops[1.0][1] == 4 and ops[-1.0][1] == 0
        return ops

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def eigs_spy(matrix, m, seed):
            calls.append(m)
            return eigs_symmetric(matrix, m, seed)

        monkeypatch.setattr(spectral, "eigs_symmetric", eigs_spy)
        return calls

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_count_matches_dense(self, operators, sign):
        op, dense_count = operators[sign]
        count, vectors = spectral._count_nonpositive(op, seed=5)
        assert count == dense_count
        assert vectors.shape == (op.shape[0], count)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_vectors_span_dense_subspace(self, operators, sign):
        op, dense_count = operators[sign]
        count, vectors = spectral._count_nonpositive(op, seed=5)
        reference = np.zeros((op.shape[0], 0))
        if dense_count:
            _, reference = scipy.linalg.eigh(
                op.toarray(), subset_by_index=[0, dense_count - 1]
            )
        # the projectors onto the two spans agree to 1e-8
        np.testing.assert_allclose(
            vectors @ vectors.T, reference @ reference.T, rtol=0, atol=1e-8
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_probes_are_all_loose(self, operators, monkeypatch, sign):
        op, _ = operators[sign]
        tols = []

        def eigsh_spy(*args, **kwargs):
            tols.append(kwargs["tol"])
            return scipy.sparse.linalg.eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", eigsh_spy)
        spectral._count_nonpositive(op, seed=5)
        # no accurate solve: every ARPACK call is a probe
        assert tols and all(tol == spectral.COUNT_PROBE_TOL for tol in tols)

    def test_probe_sequence(self, operators, spy):
        # a count of 0 is settled by one one-value probe
        assert spectral._count_nonpositive(operators[-1.0][0], seed=5)[0] == 0
        assert spy == [1]
        # a count of 4 goes on from one value to eight and stops there
        spy.clear()
        assert spectral._count_nonpositive(operators[1.0][0], seed=5)[0] == 4
        assert spy == [1, 8]

    @pytest.mark.parametrize("m", [1, 8, 16, 32])
    def test_residual_norms_equal_one_product(self, operators, m):
        # the blocks of columns give each norm bit for bit
        op, _ = operators[1.0]
        values, vectors = eigs_symmetric(op, m, seed=5)
        np.testing.assert_array_equal(
            spectral._residual_norms(op, values, vectors),
            np.linalg.norm(op @ vectors - vectors * values, axis=0),
        )

    def test_previous_probe_freed_before_the_next(self, operators, monkeypatch):
        probes = []
        alive = []

        def eigs_spy(matrix, m, seed):
            alive.append([ref() is not None for ref in probes])
            values, vectors = eigs_symmetric(matrix, m, seed)
            probes.append(weakref.ref(vectors))
            return values, vectors

        monkeypatch.setattr(spectral, "eigs_symmetric", eigs_spy)
        count, _ = spectral._count_nonpositive(operators[1.0][0], seed=5)
        assert count == 4
        # probes of 1 and 8 values: the first is gone when the second runs
        assert alive == [[], [False]]

    def test_plus_r_probes_start_at_eight(self, graph, spy):
        res = cluster_bethe_hessian(graph, seed=5)
        assert (res.k_plus, res.k_minus) == (4, 0)
        # +r is counted first, from an eight-value probe; -r from one value
        assert spy == [8, 1]

    def test_unproven_count_raises(self, operators, monkeypatch):
        op, dense_count = operators[1.0]
        tau = spectral.COUNT_TOL_FACTOR * np.abs(op.diagonal()).max()
        real = spectral.eigs_symmetric

        def near_tau(matrix, m, seed):
            values, vectors = real(matrix, m, seed)
            if m > dense_count:
                # move the bulk value that stops the count almost onto
                # tau: still above it, but by far less than its residual
                values = values.copy()
                values[dense_count] = tau + 1e-3 * (values[dense_count] - tau)
            return values, vectors

        monkeypatch.setattr(spectral, "eigs_symmetric", near_tau)
        with pytest.raises(SolverError, match="count unproven") as info:
            spectral._count_nonpositive(op, seed=5)
        residuals = info.value.residual_norms
        # the residual norms of the final, eight-value probe
        assert residuals.shape == (8,)
        # the counted pairs are accurate; the moved value is off by
        # nearly the distance of its true eigenvalue from tau
        assert residuals[:dense_count].max() < 1e-8
        assert residuals[dense_count] > 0.5


def _near_threshold(model, snr, graph_seed, sign):
    """Bethe Hessian of a 2/4/8 hierarchy just above the dense cutoff, near
    the detectability threshold, with its one-solve count and vectors."""
    from hierspect import SynthSpec, generate_hierarchical

    spec = SynthSpec(model=model, n=1536, snr=snr, avg_degree=30.0,
                     schedule=(2, 4, 8), seed=graph_seed)
    g, _ = generate_hierarchical(spec)
    assert g.n > spectral._DENSE_CUTOFF
    op = bethe_hessian(g, sign * np.sqrt(g.total_weight / g.n))
    count, vectors = spectral._count_nonpositive(op, seed=graph_seed + 7)
    tau = spectral.COUNT_TOL_FACTOR * np.abs(op.diagonal()).max()
    return op, tau, count, vectors


# The one operator of the grid whose kept vectors miss the 1e-8 projector
# bound: when the final probe stops, its counted value -0.352 (next
# eigenvalue 1.009) still has residual 8.3e-5, and the projectors differ
# by 1.03e-7.  The count is right.
_LOOSE_SPAN = pytest.mark.xfail(
    strict=True, reason="counted value -0.352 keeps residual 8.3e-5 at the final probe"
)


def _near_threshold_params(xfail=()):
    """(model, snr, graph seed, sign) of the grid, ids in ``xfail`` marked."""
    params = []
    for model in ("assortative", "disassortative"):
        for snr in (2.0, 3.0):
            for seed in (0, 1):
                for sign in (1.0, -1.0):
                    name = f"{model}-snr{snr:g}-g{seed}-{sign:+g}r"
                    marks = [_LOOSE_SPAN] if name in xfail else []
                    params.append(pytest.param(model, snr, seed, sign, id=name, marks=marks))
    return params


@pytest.mark.parametrize("model,snr,graph_seed,sign", _near_threshold_params())
def test_near_threshold_count(model, snr, graph_seed, sign):
    op, tau, count, _ = _near_threshold(model, snr, graph_seed, sign)
    assert count == int(np.sum(np.linalg.eigvalsh(op.toarray()) <= tau))


@pytest.mark.parametrize(
    "model,snr,graph_seed,sign", _near_threshold_params(xfail={"assortative-snr3-g1-+1r"})
)
def test_near_threshold_span(model, snr, graph_seed, sign):
    op, _, count, vectors = _near_threshold(model, snr, graph_seed, sign)
    reference = np.zeros((op.shape[0], 0))
    if count:
        _, reference = scipy.linalg.eigh(op.toarray(), subset_by_index=[0, count - 1])
    np.testing.assert_allclose(
        vectors @ vectors.T, reference @ reference.T, rtol=0, atol=1e-8
    )
