"""Projection error, k-means, and their duality."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import cut_tree, ward

import hierspect.partition_search as ps
from hierspect import Partition, best_eep_partition, kmeans, projection_error


def brute_force_min_projection_error(vectors, k):
    """Enumerate all partitions of n items into exactly k non-empty groups."""
    n = vectors.shape[0]
    best = np.inf
    best_labels = None
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        err = projection_error(Partition.from_labels(np.array(labels)), vectors)
        if err < best:
            best = err
            best_labels = labels
    return best, best_labels


class TestProjectionError:
    def test_identity_partition_is_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, 3))
        assert projection_error(Partition.identity(8), v) == 0.0

    def test_two_point_single_group(self):
        v = np.array([[1.0 / np.sqrt(2)], [-1.0 / np.sqrt(2)]])
        err = projection_error(Partition.single_group(2), v)
        assert err == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            projection_error(Partition.single_group(3), np.zeros((4, 2)))

    def test_orthogonal_right_multiplication_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((12, 4))
        p = Partition.from_labels(np.tile([0, 1, 2], 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        e1 = projection_error(p, v)
        e2 = projection_error(p, v @ q)
        assert e1 == pytest.approx(e2, rel=1e-10)

    def test_group_relabel_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((10, 3))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        perm = np.array([2, 0, 1])
        e1 = projection_error(Partition.from_labels(labels), v)
        e2 = projection_error(Partition.from_labels(perm[labels]), v)
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_monotone_in_columns(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 15)
        labels[:2] = [0, 1]
        v = rng.standard_normal((15, 5))
        p = Partition.from_labels(labels)
        errs = [projection_error(p, v[:, :r]) for r in range(1, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_mean_matches_baseline_for_random_orthonormal(self):
        # random orthonormal blocks with a constant first column average to
        # (n-k)(k-1)/(n-1); moderate sample size here, the tight version
        # runs in the acceptance suite
        rng = np.random.default_rng(4)
        n, k, samples = 60, 4, 3000
        labels = np.arange(n) % k
        p = Partition.from_labels(labels)
        total = 0.0
        const = np.full((n, 1), 1.0 / np.sqrt(n))
        for _ in range(samples):
            raw = rng.standard_normal((n, k - 1))
            raw -= raw.mean(axis=0)
            q, _ = np.linalg.qr(raw)
            total += projection_error(p, np.hstack([const, q]))
        mean = total / samples
        expected = (n - k) * (k - 1) / (n - 1)
        assert mean == pytest.approx(expected, rel=0.05)


def _add_at_means(points, labels, k):
    """Group means from ``np.add.at`` sums, which add in point order from 0.0."""
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, labels, points)
    return sums / np.bincount(labels, minlength=k)[:, None]


def _add_at_objective(points, labels, k):
    residual = points - _add_at_means(points, labels, k)[labels]
    return float(np.sum(residual * residual))


def _sum_cases():
    rng = np.random.default_rng(21)
    for case in range(240):
        n = int(rng.integers(1, 70))
        d = int(rng.integers(1, 9)) if case % 5 else 1
        layout = case % 4
        if layout == 0:
            block = rng.standard_normal((n, d))
        elif layout == 1:
            block = np.asfortranarray(rng.standard_normal((n, d)))
        elif layout == 2:
            # a column slice, as in ``pert_vectors[:, :r]``
            block = rng.standard_normal((n, d + 3))[:, :d]
        else:
            # duplicate rows and signed zeros
            values = np.array([-0.0, 1.5, 3.0])[rng.integers(0, 3, (n, d))]
            block = rng.integers(-1, 2, (n, d)) * values
            block[rng.integers(0, n, n // 2)] = block[0]
        k = int(rng.integers(1, n + 1))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        yield block, Partition.from_labels(rng.permutation(labels))


class TestGroupSums:
    """``group_means`` and ``projection_error`` equal ``np.add.at`` sums bit for bit."""

    def test_bit_equal_to_add_at(self):
        for block, p in _sum_cases():
            means = _add_at_means(block, p.assignment, p.k)
            assert p.group_means(block).tobytes() == means.tobytes()
            err = _add_at_objective(block, p.assignment, p.k)
            assert projection_error(p, block) == err


class TestVectorIsOneColumn:
    """A length-m vector is one column: m one-dimensional points."""

    x = np.array([1.0, 2.0, 5.0, 7.0])

    def test_group_means(self):
        p = Partition.from_labels([0, 0, 1, 1])
        np.testing.assert_array_equal(p.group_means(self.x), [1.5, 6.0])
        assert projection_error(p, self.x) == 2.5
        with pytest.raises(ValueError, match="vector or 2-d block"):
            p.group_means(self.x.reshape(4, 1, 1))

    def test_kmeans(self):
        part = kmeans(self.x, self.x[[0, 1]])
        np.testing.assert_array_equal(part.assignment, [0, 0, 1, 1])
        assert projection_error(part, self.x) == 2.5
        single = kmeans(self.x, self.x[:1])
        np.testing.assert_array_equal(single.assignment, [0, 0, 0, 0])
        with pytest.raises(ValueError, match="vector or 2-d block"):
            kmeans(self.x.reshape(4, 1, 1), self.x[:2])

    def test_best_eep_partition(self):
        part = best_eep_partition(self.x, 2)
        np.testing.assert_array_equal(part.assignment, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="vector or 2-d block"):
            best_eep_partition(self.x.reshape(4, 1, 1), 2)


class TestKMeans:
    def test_two_well_separated_clusters(self):
        # both centres start in the first cluster; one Lloyd step splits them
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        part = kmeans(pts, pts[[0, 1]])
        np.testing.assert_array_equal(part.assignment, [0, 0, 1, 1])
        assert projection_error(part, pts) == pytest.approx(0.01, abs=1e-12)

    def test_k_equals_m(self):
        pts = np.arange(5.0)[:, None]
        part = kmeans(pts, pts)
        assert projection_error(part, pts) == 0.0
        assert part.k == 5

    def test_single_cluster_total_variance(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((20, 3))
        part = kmeans(pts, pts[:1])
        expected = np.sum((pts - pts.mean(axis=0)) ** 2)
        assert projection_error(part, pts) == pytest.approx(expected, rel=1e-12)

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(ValueError, match="centers"):
            kmeans(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_duplicated_points_no_empty_clusters(self):
        pts = np.zeros((9, 2))
        part = kmeans(pts, pts[:3])
        assert part.k == 3
        assert part.group_sizes.min() >= 1
        assert projection_error(part, pts) == 0.0

    def test_labels_canonical_first_occurrence(self):
        # started from the groups' points in reverse order
        rng = np.random.default_rng(7)
        pts = np.vstack([rng.normal(i * 10, 0.1, (5, 2)) for i in range(3)])
        part = kmeans(pts, pts[[14, 7, 0]])
        assert part.assignment[0] == 0
        firsts = [np.flatnonzero(part.assignment == g)[0] for g in range(3)]
        assert firsts == sorted(firsts)


class TestGivenCenters:
    """``kmeans`` is one Lloyd run from the given centres."""

    def test_equals_one_lloyd_run(self):
        rng = np.random.default_rng(12)
        points = rng.standard_normal((60, 3))
        centers = points[[3, 17, 40, 8]]
        labels = ps._lloyd(points, np.sum(points * points, axis=1), 2.0 * points, centers)
        expected = Partition.from_labels(ps._relabel_first_occurrence(labels))
        part = kmeans(points, centers)
        assert part.assignment.tobytes() == expected.assignment.tobytes()

    @pytest.mark.parametrize(
        "shape, message",
        [((2, 3), "centers"), ((2,), "centers"), ((6, 2), "centers"), ((0, 2), "centers"),
         ((2, 2, 1), "vector or 2-d block")],
    )
    def test_wrong_shape_rejected(self, shape, message):
        with pytest.raises(ValueError, match=message):
            kmeans(np.zeros((5, 2)), np.zeros(shape))

    def test_duplicate_centers_give_k_groups(self):
        # twelve points at three locations, started from two copies of the
        # first location: the empty group is repaired and then finds its own
        points = np.repeat(np.eye(3), 4, axis=0)
        part = kmeans(points, points[[0, 0, 4]])
        np.testing.assert_array_equal(part.assignment, np.repeat([0, 1, 2], 4))
        assert projection_error(part, points) == 0.0


def _reference_sq_dist(points, centers):
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _reference_lloyd(points, centers):
    m, k = points.shape[0], centers.shape[0]
    labels = np.full(m, -1, dtype=np.int64)
    for _ in range(ps.MAX_ITER):
        d2 = _reference_sq_dist(points, centers)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            assigned_d2 = d2[np.arange(m), new_labels].copy()
            for j in empties:
                candidates = np.flatnonzero(counts[new_labels] > 1)
                idx = candidates[np.argmax(assigned_d2[candidates])]
                counts[new_labels[idx]] -= 1
                new_labels[idx] = j
                counts[j] = 1
                assigned_d2[idx] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = _add_at_means(points, labels, k)
    return labels


def _reference_relabel(labels):
    """First-occurrence relabelling: the first point is group 0, and so on."""
    first = {}
    return np.array([first.setdefault(g, len(first)) for g in labels.tolist()], dtype=np.int64)


def reference_kmeans(points, centers):
    """One Lloyd run from ``centers``, with ``np.add.at`` means and the
    empty-cluster repair written out."""
    return _reference_relabel(_reference_lloyd(points, centers))


def _reference_cases():
    rng = np.random.default_rng(20)
    picks = np.random.default_rng(22)
    for case in range(120):
        m = int(rng.integers(1, 60))
        d = int(rng.integers(1, 6))
        layout = case % 4
        if layout == 0:
            points = rng.standard_normal((m, d))
        elif layout == 1:
            # few distinct locations: duplicate points and zero distances
            points = rng.integers(0, 3, (m, d)).astype(np.float64)
        elif layout == 2:
            points = np.asfortranarray(rng.standard_normal((m, d)))
        else:
            points = rng.standard_normal((m, d + 2))[:, :d]
        k = (1, m, int(rng.integers(1, m + 1)))[case % 3]
        # drawn with replacement, so duplicate centres leave groups empty
        yield points, points[picks.integers(m, size=k)]


class TestReferenceLloyd:
    """``kmeans`` equals the reference Lloyd run bit for bit."""

    @staticmethod
    def assert_matches_reference(points, centers):
        part = kmeans(points, centers)
        assert part.assignment.tobytes() == reference_kmeans(points, centers).tobytes()

    def test_grid(self):
        for points, centers in _reference_cases():
            self.assert_matches_reference(points, centers)

    @pytest.mark.parametrize("m, k", [(64, 40), (1000, 16), (2100, 16)])
    def test_larger_inputs(self, m, k):
        rng = np.random.default_rng(m)
        centers = rng.standard_normal((k, 3)) * 4.0
        points = centers[rng.integers(k, size=m)] + rng.standard_normal((m, 3))
        self.assert_matches_reference(points, points[rng.integers(m, size=k)])


class TestRepairEmpty:
    """An empty cluster takes the point farthest from its center, among the
    points whose cluster has another member."""

    @staticmethod
    def repair(labels, assigned_d2, k):
        labels = np.array(labels)
        counts = np.bincount(labels, minlength=k)
        d2 = np.zeros((labels.size, k))
        d2[np.arange(labels.size), labels] = assigned_d2
        ps._repair_empty(labels, counts, d2)
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        return labels.tolist()

    def test_farthest_point_moves(self):
        assert self.repair([0, 0, 0, 1, 1], [1.0, 5.0, 2.0, 3.0, 0.5], 3) == [0, 2, 0, 1, 1]

    def test_two_empty_clusters_take_the_two_farthest(self):
        assert self.repair([0, 0, 0, 0], [1.0, 4.0, 2.0, 3.0], 3) == [0, 1, 0, 2]

    def test_a_single_member_is_not_taken(self):
        assert self.repair([0, 1, 1, 1], [9.0, 1.0, 2.0, 3.0], 3) == [0, 1, 1, 2]


def _from_optimum_means(v, k):
    """The brute-force optimum, and ``kmeans`` started from its group means."""
    best, labels = brute_force_min_projection_error(v, k)
    centers = Partition.from_labels(np.array(labels)).group_means(v)
    return best, kmeans(v, centers)


class TestDuality:
    """The k-means objective equals the projection error of its assignment."""

    def test_duality_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, 4))
            d = int(rng.integers(1, 4))
            v = rng.standard_normal((n, d))
            part = kmeans(v, v[:k])
            assert part.k == k
            groups = [v[part.assignment == g] for g in range(k)]
            wcss = sum(float(np.sum((x - x.mean(axis=0)) ** 2)) for x in groups)
            assert projection_error(part, v) == pytest.approx(wcss, rel=1e-12, abs=1e-14)

    def test_kmeans_from_optimum_means_stays_optimal_n6(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((6, 2))
        best, part = _from_optimum_means(v, 2)
        assert projection_error(part, v) == pytest.approx(best, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    @example(130)
    def test_kmeans_from_optimum_means_stays_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        v = rng.standard_normal((n, 2))
        best, part = _from_optimum_means(v, 2)
        assert projection_error(part, v) <= best + 1e-10


class TestBestEEPPartition:
    def test_recovers_exact_piecewise_structure(self):
        labels = np.repeat(np.arange(3), 5)
        truth = Partition.from_labels(labels)
        h = truth.indicator()
        q, _ = np.linalg.qr(h)
        part = best_eep_partition(q, 3)
        assert projection_error(part, q) <= 1e-20
        # same grouping up to labels
        assert len(set(zip(part.assignment, labels))) == 3

    def test_exactly_k_groups_on_tied_rows(self):
        points = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]])
        assert best_eep_partition(points, 3).k == 3
        rng = np.random.default_rng(30)
        for _ in range(50):
            m = int(rng.integers(3, 13))
            points = rng.integers(0, 2, (m, 2)).astype(np.float64)
            for k in range(2, m):
                assert best_eep_partition(points, k).k == k

    @staticmethod
    def _cases():
        rng = np.random.default_rng(31)
        for _ in range(60):
            m = int(rng.integers(3, 13))
            yield rng.standard_normal((m, int(rng.integers(1, 4)))), int(rng.integers(2, m))

    def test_no_single_point_move_lowers_the_error(self):
        for points, k in self._cases():
            part = best_eep_partition(points, k)
            err = projection_error(part, points)
            for i in np.flatnonzero(part.group_sizes[part.assignment] > 1):
                for g in range(k):
                    labels = part.assignment.copy()
                    labels[i] = g
                    moved = projection_error(Partition.from_labels(labels), points)
                    assert moved >= err - 1e-12 * err

    def test_no_worse_than_the_ward_cut(self):
        for points, k in self._cases():
            cut = Partition.from_labels(cut_tree(ward(points), n_clusters=k).ravel())
            part = best_eep_partition(points, k)
            assert projection_error(part, points) <= projection_error(cut, points)

    def test_same_result_on_every_call(self):
        for points, k in self._cases():
            first = best_eep_partition(points, k).assignment
            again = best_eep_partition(np.asfortranarray(points), k).assignment
            assert first.tobytes() == again.tobytes()

    def test_k_bounds(self):
        v = np.zeros((5, 2))
        with pytest.raises(ValueError):
            best_eep_partition(v, 1)
        with pytest.raises(ValueError):
            best_eep_partition(v, 5)
