"""Expected projection errors, perturbations, MSLE selection, hierarchy assembly."""

import numpy as np
import pytest

from hierspect import (
    AffinityMatrix,
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
        curve = null_curve(2)
        fit = fit_msle(np.array([0.0, 0.5]), curve)
        assert fit.sigma == 1.0
        assert not fit.identifiable

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_msle(np.zeros(5), null_curve(6))


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

    def test_er_graph_single_trivial_level(self):
        from hierspect import generate_planted_partition

        g, _ = generate_planted_partition(800, 1, 15.0, 15.0, seed=11)
        res = infer_hierarchy(g, seed=15)
        assert len(res.levels) == 1
        assert res.levels[0].k == 1

    def test_config_z_and_restarts_flow(self):
        spec = SynthSpec(
            model="flat", n=160, snr=4.0, avg_degree=16.0, schedule=(16,), seed=12,
        )
        graph, _ = generate_hierarchical(spec)
        res = infer_hierarchy(graph, seed=16, z=5)
        assert res.levels[0].k >= 1
        assert res.diagnostics
