"""Expected projection errors, perturbations, MSLE selection, hierarchy assembly."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hierspect.hierarchy as hierarchy
from hierspect import (
    AffinityMatrix,
    Graph,
    Partition,
    SynthSpec,
    bootstrap_perturb_affinity,
    estimate_affinity,
    find_relevant_minima,
    fit_msle,
    generate_hierarchical,
    identify_partitions_and_errors,
    infer_hierarchy,
    null_curve,
    projection_error,
    structural_eigenvectors,
)
from hierspect.graph import relative_partition
from hierspect.rng import substream_seed
from hierspect.serialize import hierarchy_to_dict

from conftest import NON_UNIT_EDGES


class TestExpectedError:
    def test_boundary_values(self):
        for n in (2, 10, 100):
            assert null_curve(n)[0] == 0.0
            assert null_curve(n)[n - 1] == 0.0

    def test_closed_form_value(self):
        assert null_curve(27)[3 - 1] == pytest.approx(48 / 26)

    def test_monte_carlo_agreement(self):
        # mean projection error of random orthonormal blocks with a constant
        # first column, against an independent fixed partition
        rng = np.random.default_rng(0)
        n, k, samples = 80, 5, 4000
        p = Partition.from_labels(np.arange(n) % k)
        const = np.full((n, 1), 1.0 / np.sqrt(n))
        total = 0.0
        from hierspect import projection_error

        for _ in range(samples):
            raw = rng.standard_normal((n, k - 1))
            raw -= raw.mean(axis=0)
            q, _ = np.linalg.qr(raw)
            total += projection_error(p, np.hstack([const, q]))
        assert total / samples == pytest.approx(null_curve(n)[k - 1], rel=0.04)


class TestExpectedErrorConditional:
    def test_reduces_to_unconditional(self):
        for n in (5, 27):
            np.testing.assert_array_equal(null_curve(n, ()), null_curve(n))

    def test_known_values(self):
        assert null_curve(27, (3,))[9 - 1] == pytest.approx(4.5)
        assert null_curve(27, (3,))[2 - 1] == pytest.approx(0.5)

    def test_vanishes_at_conditioning_points(self):
        kappas = (3, 9)
        for r in (1, 3, 9, 27):
            assert null_curve(27, kappas)[r - 1] == 0.0

    def test_piecewise_continuity(self):
        kappas = (4, 11, 19)
        n = 30
        values = null_curve(n, kappas)
        # continuity at knots: both one-sided formulas give zero there
        for kappa in kappas:
            assert values[kappa - 1] == 0.0
        assert all(v >= 0.0 for v in values)

    def test_invalid_kappas(self):
        with pytest.raises(ValueError):
            null_curve(10, (9, 3))
        with pytest.raises(ValueError):
            null_curve(10, (1,))
        with pytest.raises(ValueError):
            null_curve(10, (10,))

    def test_curve_object(self):
        curve = null_curve(27, (3, 9))
        assert curve.shape == (27,)
        assert curve[2] == 0.0 and curve[8] == 0.0
        assert not curve.flags.writeable

    @staticmethod
    def _loop_curve(n, kappas):
        """Reference: the segment formula evaluated in Python integers."""
        knots = (1,) + tuple(kappas) + (n,)
        values = []
        for r in range(1, n + 1):
            for lo, hi in zip(knots, knots[1:]):
                if lo <= r <= hi:
                    values.append((hi - r) * (r - lo) / (hi - lo))
                    break
        return np.array(values)

    def test_curve_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        cases = [(n, ()) for n in range(2, 40)]
        cases += [(27, (3,)), (27, (3, 9)), (30, (4, 11, 19)), (4, (2, 3)), (10_007, (3, 9, 27))]
        for _ in range(300):
            n = int(rng.integers(3, 400))
            m = int(rng.integers(0, min(n - 2, 6) + 1))
            kappas = tuple(sorted(rng.choice(np.arange(2, n), size=m, replace=False).tolist()))
            cases.append((n, kappas))
        for n, kappas in cases:
            curve = null_curve(n, kappas)
            assert curve.tobytes() == self._loop_curve(n, kappas).tobytes(), (n, kappas)


class TestPerturbAffinity:
    def _omega(self, k=6, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.random((k, k))
        vals = (vals + vals.T) / 2
        return AffinityMatrix(values=vals, group_sizes=np.full(k, 10))

    def test_bootstrap_scales_with_group_sizes(self):
        vals = np.full((3, 3), 0.5)
        small = AffinityMatrix(values=vals, group_sizes=np.full(3, 5))
        large = AffinityMatrix(values=vals, group_sizes=np.full(3, 500))
        d_small = np.abs(
            bootstrap_perturb_affinity(small, seed=3).values - vals
        ).mean()
        d_large = np.abs(
            bootstrap_perturb_affinity(large, seed=3).values - vals
        ).mean()
        assert d_small > 10 * d_large

    def test_bootstrap_symmetric(self):
        om = self._omega()
        pert = bootstrap_perturb_affinity(om, seed=4)
        np.testing.assert_array_equal(pert.values, pert.values.T)


class TestStructuralEigenvectors:
    def test_constant_vector_first(self):
        rng = np.random.default_rng(5)
        vals = rng.random((8, 8))
        vals = (vals + vals.T) / 2
        lam, vecs = structural_eigenvectors(vals)
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
        first = vecs[:, 0]
        np.testing.assert_allclose(np.abs(first), 1.0 / np.sqrt(8), atol=1e-10)

    def test_descending_magnitude_after_first(self):
        rng = np.random.default_rng(6)
        vals = rng.random((10, 10))
        vals = (vals + vals.T) / 2
        lam, _ = structural_eigenvectors(vals)
        mags = np.abs(lam[1:])
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))


    @staticmethod
    def _stack(k, rng):
        """Random symmetric weights, some with zero entries, an all-zero
        matrix and, for k >= 3, a cycle, whose walk eigenvalues tie in |λ|."""
        mats = []
        for j in range(6):
            w = rng.random((k, k))
            w = (w + w.T) / 2
            if j % 2:
                w[w < 0.5] = 0.0
            mats.append(w)
        mats.append(np.zeros((k, k)))
        if k >= 3:
            cycle = np.roll(np.eye(k), 1, axis=1)
            mats.append(cycle + cycle.T)
        return np.array(mats)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 8, 27, 64])
    def test_stack_bit_equal_to_per_matrix_calls(self, k):
        stack = self._stack(k, np.random.default_rng(k))
        values, vectors = structural_eigenvectors(stack)
        assert values.shape == (len(stack), k) and vectors.shape == (len(stack), k, k)
        for j, weights in enumerate(stack):
            lam, vecs = structural_eigenvectors(weights)
            assert values[j].tobytes() == lam.tobytes(), j
            assert np.ascontiguousarray(vectors[j]).tobytes() == vecs.tobytes(), j

    def test_tied_magnitudes_keep_stable_order(self):
        # a 6-cycle's walk matrix is A/2: eigenvalues 1, ±1/2 (twice each), -1
        cycle = np.roll(np.eye(6), 1, axis=1)
        lam, _ = structural_eigenvectors(cycle + cycle.T)
        assert lam[0] == pytest.approx(1.0)
        mags = np.abs(lam[1:])
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))
        assert np.sum(np.isclose(mags, 0.5)) == 4

    def test_vector_slabs_are_contiguous(self):
        stack = self._stack(8, np.random.default_rng(3))
        _, vectors = structural_eigenvectors(stack)
        assert vectors.transpose(2, 0, 1).flags.c_contiguous


def _scalar_fit(mean_errors, null_values):
    """Reference: scalar golden-section MSLE fit, one probe per step."""

    def msle(sigma):
        diff = np.log(mean_errors + 1.0) - np.log(sigma * null_values + 1.0)
        return float(np.mean(diff * diff))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hierarchy.SIGMA_BRACKET
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = msle(c), msle(d)
    while b - a > hierarchy.SIGMA_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = msle(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = msle(d)
    sigma = (a + b) / 2.0
    return sigma, msle(sigma), b - a


class TestFitMsle:
    def test_perfect_proportional_fit(self):
        curve = null_curve(20)
        fit = fit_msle(0.4 * curve, curve)
        assert fit.sigma == pytest.approx(0.4, abs=1e-6)
        assert fit.msle <= 1e-12

    def test_fitted_sigma_increases_when_errors_double(self):
        curve = null_curve(15)
        rng = np.random.default_rng(7)
        errors = 0.3 * curve * (1 + 0.1 * rng.random(15))
        s1 = fit_msle(errors, curve).sigma
        s2 = fit_msle(2 * errors, curve).sigma
        assert s2 > s1

    def test_all_zero_curve_unidentifiable(self):
        # every sigma fits a zero curve equally, all-zero errors included
        for errors, curve in [
            (np.array([0.0, 0.5]), null_curve(2)),
            (np.zeros(2), null_curve(2)),
            (np.zeros(5), np.zeros(5)),
        ]:
            fit = fit_msle(errors, curve)
            assert fit.sigma == 1.0
            assert not fit.identifiable

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_msle(np.zeros(5), null_curve(6))

    @pytest.mark.parametrize("k", [3, 5, 12, 27, 64])
    def test_vectorized_fit_bit_equal_per_curve(self, k):
        # every conditioning curve of a round, as find_relevant_minima fits
        # them, against fit_msle and the scalar search on each curve alone
        rng = np.random.default_rng(k)
        mean_errors = null_curve(k, (2,) if k > 3 else ()) * rng.uniform(0.2, 2.0, k)
        mean_errors += 0.01 * rng.random(k)
        mean_errors[-1] = 0.0
        curves = np.array([null_curve(k)] + [null_curve(k, (kappa,)) for kappa in range(2, k)])
        sigma, msle = hierarchy._golden_search(mean_errors, curves)
        for row, curve in enumerate(curves):
            fit = fit_msle(mean_errors, curve)
            ref_sigma, ref_msle, _ = _scalar_fit(mean_errors, curve)
            assert msle[row].tobytes() == np.float64(fit.msle).tobytes(), row
            assert (sigma[row], msle[row]) == (ref_sigma, ref_msle), row
            if curve.any():  # a zero curve's sigma is 1 by definition
                assert fit.sigma == ref_sigma, row

    def test_rows_stop_on_their_own_brackets(self, monkeypatch):
        # the two fits' brackets differ in their last bits after the same
        # number of steps; with the tolerance between them, the wider row
        # takes one step more than the other
        mean_errors = 0.5 * null_curve(12)
        curves = np.array([null_curve(12), null_curve(12, (4,))])
        widths = [_scalar_fit(mean_errors, curve)[2] for curve in curves]
        assert widths[0] != widths[1]
        monkeypatch.setattr(hierarchy, "SIGMA_TOL", (widths[0] + widths[1]) / 2)
        refs = [_scalar_fit(mean_errors, curve) for curve in curves]
        final = sorted(width for _, _, width in refs)
        assert final[1] / final[0] > 1.5  # one row took one step more
        sigma, msle = hierarchy._golden_search(mean_errors, curves)
        assert [(s, m) for s, m, _ in refs] == list(zip(sigma, msle))


class TestFindRelevantMinima:
    def test_exact_conditional_curve_recovered(self):
        curve = null_curve(12, (4,))
        assert find_relevant_minima(curve) == [4]

    def test_proportional_curve_rejected(self):
        assert find_relevant_minima(0.7 * null_curve(12)) == []

    def test_two_level_curve(self):
        curve = null_curve(27, (3, 9))
        assert find_relevant_minima(0.8 * curve) == [3, 9]

    def test_short_curves(self):
        assert find_relevant_minima(np.array([0.0, 0.0])) == []
        assert find_relevant_minima(np.array([0.0])) == []

    def test_tie_picks_smaller_kappa(self, monkeypatch):
        # k = 6: sizes 3 and 5 tie in the first round, and the second round
        # improves nothing, so the smaller size alone is kept
        rounds = iter([np.array([0.5, 0.1, 0.3, 0.1]), np.array([0.5, 0.5, 0.5])])

        def fake_search(mean_errors, curves):
            if len(curves) == 1:  # the unconditional fit
                return np.ones(1), np.ones(1)
            return np.ones(len(curves)), next(rounds)

        monkeypatch.setattr(hierarchy, "_golden_search", fake_search)
        assert find_relevant_minima(np.zeros(6)) == [3]


class TestIdentifyPartitionsAndErrors:
    def _hierarchical_omega(self, seed=0):
        spec = SynthSpec(
            model="symmetric",
            n=729,
            snr=16.0,
            avg_degree=80.0,
            schedule=(3, 9),
            seed=seed,
        )
        graph, truth = generate_hierarchical(spec)
        return estimate_affinity(graph, truth.partitions[0]), truth

    def test_exact_eep_gives_zero_error_unperturbed(self):
        # structurally equivalent triples of groups: exact piecewise
        # eigenvectors, so the fitted 3-partition projects exactly
        q = np.array([[0.9, 0.2, 0.1], [0.2, 0.8, 0.3], [0.1, 0.3, 0.7]])
        h = np.repeat(np.eye(3), 3, axis=0)
        omega = AffinityMatrix(values=h @ q @ h.T, group_sizes=np.full(9, 20))
        cands = identify_partitions_and_errors(omega, z=1, seed=1)
        _, vectors = structural_eigenvectors(omega.values)

        def error(r):
            return projection_error(cands.partitions[r - 1], vectors[:, :r])

        assert error(3) <= 1e-16
        assert error(1) <= 1e-20
        assert error(9) == 0.0

    @staticmethod
    def _reference_loop(omega, partitions, z, seed):
        """Reference: one perturbation at a time, each vector block scored
        against each candidate on its own.  Returns the perturbed matrices
        and the mean errors."""
        matrices = []
        errors = np.zeros(omega.k)
        for zeta in range(z):
            perturbed = bootstrap_perturb_affinity(
                omega, seed=substream_seed(seed, "sample", zeta)
            )
            matrices.append(perturbed.values)
            _, vectors = structural_eigenvectors(perturbed.values)
            for r in range(1, omega.k + 1):
                errors[r - 1] += projection_error(partitions[r - 1], vectors[:, :r])
        return np.array(matrices), errors / z

    @pytest.mark.parametrize(
        "k, z",
        # from k = 65 a block holds MIN_BLOCK_DRAWS draws: z = 17 fills one
        # block and leaves one draw for the next
        [
            *itertools.product([3, 8, 27, 64], [1, 17, 100]),
            (100, 17),
            (200, 2),
            (200, 17),
        ],
    )
    def test_blocked_scoring_matches_reference_loop(self, k, z, monkeypatch):
        rng = np.random.default_rng(100 * k + z)
        values = rng.random((k, k))
        omega = AffinityMatrix(
            values=(values + values.T) / 2, group_sizes=rng.integers(5, 60, size=k)
        )
        stacks = []
        real = hierarchy.structural_eigenvectors

        def recording(weights):
            if np.ndim(weights) == 3:
                stacks.append(np.array(weights))
            return real(weights)

        monkeypatch.setattr(hierarchy, "structural_eigenvectors", recording)
        cands = identify_partitions_and_errors(omega, z=z, seed=5)
        monkeypatch.undo()
        matrices, errors = self._reference_loop(omega, cands.partitions, z, seed=5)
        block = max(hierarchy.MIN_BLOCK_DRAWS, hierarchy.BLOCK_ENTRIES // k**2)
        assert [len(s) for s in stacks] == [
            min(block, z - start) for start in range(0, z, block)
        ]
        assert np.concatenate(stacks).tobytes() == matrices.tobytes()
        # the first error is rounding noise near zero: compare it on the
        # scale of the curve
        np.testing.assert_allclose(
            cands.mean_errors, errors, rtol=1e-12, atol=1e-12 * errors.max()
        )
        assert cands.mean_errors[-1] == 0.0

    def test_one_gram_sized_buffer(self, monkeypatch):
        # the (k - 2, k, k) Gram sums are the one k**3 buffer: a second one
        # would take the peak to twice their size.  Stage two's candidates
        # stand in as round-robin labels, which keeps tracemalloc's cost per
        # allocation off its many small arrays.
        monkeypatch.setattr(
            hierarchy,
            "best_eep_partition",
            lambda vectors, r: Partition.from_labels(np.arange(len(vectors)) % r),
        )
        k = 200
        rng = np.random.default_rng(k)
        values = rng.random((k, k))
        omega = AffinityMatrix(
            values=(values + values.T) / 2, group_sizes=rng.integers(5, 60, size=k)
        )
        tracemalloc.start()
        try:
            identify_partitions_and_errors(omega, z=17, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ((k - 2) * k**2 * 8) < 1.75

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=40),
        z=st.integers(min_value=1, max_value=20),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
        equivalent=st.booleans(),
        max_size=st.sampled_from([500, 10**9]),
    )
    @example(k=17, z=15, data_seed=141, equivalent=True, max_size=10**9)
    def test_scores_nonnegative_with_exact_endpoints(
        self, k, z, data_seed, equivalent, max_size
    ):
        rng = np.random.default_rng(data_seed)
        values = rng.random((k, k))
        if equivalent:
            # copies of three structurally equivalent groups: the three-group
            # candidate's error is only as large as the perturbation, which
            # huge groups make smaller than rounding
            h = np.eye(3)[np.arange(k) % 3]
            values = h @ values[:3, :3] @ h.T
        omega = AffinityMatrix(
            values=(values + values.T) / 2,
            group_sizes=rng.integers(1, max_size, size=k, endpoint=True),
        )
        cands = identify_partitions_and_errors(omega, z=z, seed=data_seed)
        assert np.all(cands.mean_errors >= 0.0)
        assert cands.mean_errors[-1] == 0.0
        # the single-group error: the constant vector of each block's draws,
        # scored by one projection_error call per block
        single = 0.0
        block = max(hierarchy.MIN_BLOCK_DRAWS, hierarchy.BLOCK_ENTRIES // k**2)
        for start in range(0, z, block):
            seeds = [
                substream_seed(data_seed, "sample", zeta)
                for zeta in range(start, min(start + block, z))
            ]
            _, vectors = structural_eigenvectors(hierarchy._bootstrap_draws(omega, seeds))
            single += projection_error(cands.partitions[0], vectors[:, :, 0].T)
        assert cands.mean_errors[0] == single / z

    def test_trivial_for_small_k(self):
        omega = AffinityMatrix(values=np.eye(2) * 0.5, group_sizes=np.array([4, 4]))
        cands = identify_partitions_and_errors(omega, z=5, seed=2)
        assert len(cands.partitions) == 2
        np.testing.assert_array_equal(cands.mean_errors, [0.0, 0.0])

    def test_error_endpoints_zero(self):
        omega, _ = self._hierarchical_omega(seed=3)
        cands = identify_partitions_and_errors(omega, z=10, seed=4)
        assert cands.mean_errors[0] <= 1e-16
        assert cands.mean_errors[-1] == 0.0
        assert np.all(cands.mean_errors >= 0.0)

    def test_partition_sizes(self):
        omega, _ = self._hierarchical_omega(seed=5)
        cands = identify_partitions_and_errors(omega, z=3, seed=6)
        assert [p.k for p in cands.partitions] == list(range(1, 10))

    def test_planted_substructure_found(self):
        omega, truth = self._hierarchical_omega(seed=7)
        cands = identify_partitions_and_errors(omega, z=30, seed=8)
        accepted = find_relevant_minima(cands.mean_errors)
        # the finest accepted size is what the agglomeration adopts
        assert accepted and max(accepted) == 3
        rel = relative_partition(truth.partitions[0], truth.partitions[1])
        from hierspect import ami

        assert ami(cands.partitions[2], rel) == 1.0

    def test_planted_partition_form_has_no_levels(self):
        # uniform-diagonal affinity: every merge is as good as any other, so
        # the error curve tracks the null shape and nothing is accepted
        k, a, b = 12, 0.6, 0.1
        omega = AffinityMatrix(
            values=(a - b) * np.eye(k) + b * np.ones((k, k)),
            group_sizes=np.full(k, 40),
        )
        cands = identify_partitions_and_errors(omega, z=60, seed=21)
        assert find_relevant_minima(cands.mean_errors) == []

    def test_conditional_fit_raises_sigma_and_lowers_msle(self):
        # conditioning lowers the null curve, so the scale refits upward
        # while the fit of a genuine hierarchy improves
        spec = SynthSpec(
            model="symmetric", n=3**7, snr=25.0, avg_degree=300.0,
            schedule=(3, 9, 27), seed=2,
        )
        graph, truth = generate_hierarchical(spec)
        omega = estimate_affinity(graph, truth.partitions[0])
        cands = identify_partitions_and_errors(omega, z=50, seed=22)
        base = fit_msle(cands.mean_errors, null_curve(27))
        cond = fit_msle(cands.mean_errors, null_curve(27, (3, 9)))
        assert cond.msle < base.msle
        assert cond.sigma > base.sigma


class TestInferHierarchy:
    def test_deterministic(self):
        spec = SynthSpec(
            model="assortative", n=512, snr=8.0, avg_degree=25.0,
            schedule=(2, 4), seed=9,
        )
        graph, _ = generate_hierarchical(spec)
        r1 = infer_hierarchy(graph, seed=13)
        r2 = infer_hierarchy(graph, seed=13)
        assert [l.k for l in r1.levels] == [l.k for l in r2.levels]
        for l1, l2 in zip(r1.levels, r2.levels):
            np.testing.assert_array_equal(
                l1.composed_partition.assignment, l2.composed_partition.assignment
            )

    def test_levels_strictly_decreasing_and_composed_consistent(self):
        spec = SynthSpec(
            model="assortative", n=1024, snr=8.0, avg_degree=25.0,
            schedule=(2, 4, 8), seed=10,
        )
        graph, _ = generate_hierarchical(spec)
        res = infer_hierarchy(graph, seed=14)
        ks = [l.k for l in res.levels]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        for prev, level in zip(res.levels, res.levels[1:]):
            composed = prev.composed_partition.compose(level.relative_partition)
            np.testing.assert_array_equal(
                composed.assignment, level.composed_partition.assignment
            )

    @pytest.mark.parametrize("edges", NON_UNIT_EDGES)
    def test_other_weights_rejected(self, edges):
        with pytest.raises(ValueError, match="detection takes unit weights only"):
            infer_hierarchy(Graph.from_edges(edges), seed=0)

    def test_weight_scale_rejected_or_unchanged(self):
        # a uniform rescale of the weights is rejected; weights given as 1.0
        # detect the same hierarchy as the unweighted graph (at s = 2 a
        # multiplicity reading gave 74 groups here, at s = 0.5 levels [6, 5])
        spec = SynthSpec(
            model="disassortative", n=512, snr=8.0, avg_degree=20.0,
            schedule=(2, 4, 8), seed=1,
        )
        graph, _ = generate_hierarchical(spec)
        upper = sp.triu(graph.adjacency).tocoo()
        for s in (0.5, 2.0):
            scaled = Graph.from_arrays(upper.row, upper.col, s * upper.data, n=graph.n)
            with pytest.raises(ValueError, match="detection takes unit weights only"):
                infer_hierarchy(scaled, seed=7)
        ones = Graph.from_arrays(upper.row, upper.col, np.ones(upper.nnz), n=graph.n)
        expected = hierarchy_to_dict(infer_hierarchy(graph, seed=7), seed=7)
        assert [level["k"] for level in expected["levels"]] == [8]
        assert hierarchy_to_dict(infer_hierarchy(ones, seed=7), seed=7) == expected

    def test_er_graph_single_trivial_level(self):
        from hierspect import generate_planted_partition

        g, _ = generate_planted_partition(800, 1, 15.0, 15.0, seed=11)
        res = infer_hierarchy(g, seed=15)
        assert len(res.levels) == 1
        assert res.levels[0].k == 1

    def test_z_flows(self):
        spec = SynthSpec(
            model="flat", n=160, snr=4.0, avg_degree=16.0, schedule=(16,), seed=12,
        )
        graph, _ = generate_hierarchical(spec)
        res = infer_hierarchy(graph, seed=16, z=5)
        assert res.levels[0].k >= 1
        assert res.diagnostics
