"""AMI, expected mutual information, and hierarchy scoring."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from hierspect import Partition, ami, score_hierarchy, score_matrix
from hierspect.evaluation import (
    entropy,
    expected_mutual_information,
    mutual_information,
)
from hierspect.rng import substream


def mc_expected_mutual_information(labels1, labels2, samples=1000, seed=0):
    """Monte Carlo permutation estimate of E[MI]; returns (mean, std error).

    The reference the analytic expectation is checked against.
    """
    rng = substream(seed, "emi-permutation")
    values = np.empty(samples)
    for t in range(samples):
        values[t] = mutual_information(labels1, rng.permutation(labels2))
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(samples))


def reference_expected_mutual_information(row_sums, col_sums, n):
    """E[MI] by a loop over the contingency cells, each cell's hypergeometric
    terms summed by one ``np.sum``: the reference for the vectorized
    ``expected_mutual_information``."""
    a = np.asarray(row_sums, dtype=np.int64)
    b = np.asarray(col_sums, dtype=np.int64)
    log_n = np.log(n)
    gln_a = gammaln(a + 1)
    gln_na = gammaln(n - a + 1)
    gln_b = gammaln(b + 1)
    gln_nb = gammaln(n - b + 1)
    gln_n = gammaln(n + 1)
    total = 0.0
    for i in range(a.size):
        ai = a[i]
        for j in range(b.size):
            bj = b[j]
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1)
            log_p = (
                gln_a[i]
                + gln_b[j]
                + gln_na[i]
                + gln_nb[j]
                - gln_n
                - gammaln(nij + 1)
                - gammaln(ai - nij + 1)
                - gammaln(bj - nij + 1)
                - gammaln(n - ai - bj + nij + 1)
            )
            contrib = nij / n * (np.log(nij) + log_n - np.log(ai) - np.log(bj))
            total += float(np.sum(np.exp(log_p) * contrib))
    return total


@st.composite
def marginal_pairs(draw):
    """(row sums, column sums, n) with at most 12 groups a side and n <= 492.

    Row sums are drawn from a small range, so values repeat and zeros
    occur; column sums cut n at sorted points, so they can be zero or
    large enough that a cell's two marginals sum past n.
    """
    a = draw(st.lists(st.integers(0, 41), min_size=1, max_size=12))
    n = sum(a)
    if n == 0:
        a[0] = n = 1
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=11)))
    b = np.diff([0, *cuts, n])
    return a, b.tolist(), n


class TestAmi:
    def test_relabeling_gives_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 60)
        labels[:4] = np.arange(4)
        perm = np.array([3, 1, 0, 2])
        assert ami(labels, perm[labels]) == 1.0

    def test_against_single_group_is_zero(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert ami(labels, np.zeros(6, dtype=int)) == 0.0

    def test_both_trivial_is_one_with_warning(self):
        with pytest.warns(UserWarning, match="trivial"):
            assert ami(np.zeros(5, dtype=int), np.zeros(5, dtype=int)) == 1.0

    def test_crossing_partition_near_zero(self):
        value = ami(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        assert value <= 0.05
        assert value >= -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.integers(0, 4, 30)
            b = rng.integers(0, 3, 30)
            a[:4] = np.arange(4)
            b[:3] = np.arange(3)
            assert ami(a, b) == pytest.approx(ami(b, a), abs=1e-12)

    def test_at_most_one_with_equality_iff_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.integers(0, 3, 25)
            b = rng.integers(0, 3, 25)
            a[:3] = np.arange(3)
            b[:3] = np.arange(3)
            value = ami(a, b)
            assert value <= 1.0
            identical = len(set(zip(a, b))) == len(set(a)) == len(set(b))
            assert (value == 1.0) == identical

    def test_item_count_mismatch(self):
        with pytest.raises(ValueError):
            ami(np.zeros(4, dtype=int), np.zeros(5, dtype=int))

    def test_matches_sklearn(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(8, 60))
            a = rng.integers(0, int(rng.integers(2, 6)), n)
            b = rng.integers(0, int(rng.integers(2, 6)), n)
            a[0], b[0] = 0, 0
            a = np.unique(a, return_inverse=True)[1]
            b = np.unique(b, return_inverse=True)[1]
            ours = ami(a, b)
            theirs = sklearn.adjusted_mutual_info_score(a, b)
            assert ours == pytest.approx(theirs, abs=1e-9)


class TestExpectedMutualInformation:
    def test_analytic_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            n = int(rng.integers(10, 50))
            a = rng.integers(0, 3, n)
            b = rng.integers(0, 4, n)
            a[:3] = np.arange(3)
            b[:4] = np.arange(4)
            cont_a = np.bincount(a)
            cont_b = np.bincount(b)
            analytic = expected_mutual_information(cont_a, cont_b, n)
            mc, se = mc_expected_mutual_information(a, b, samples=4000, seed=trial)
            assert abs(analytic - mc) <= 3 * se + 1e-9

    def test_zero_for_trivial_marginal(self):
        assert expected_mutual_information([5], [2, 3], 5) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(marginal_pairs())
    @example(([7], [2, 0, 5], 7))  # one row group, a zero column
    @example(([30, 1], [25, 6], 31))  # 30 + 25 > 31: cells whose range starts above 1
    @example(([0, 4, 0, 4], [4, 4], 8))  # zero rows, repeated values
    @example(([12] * 12, [12] * 12, 144))
    def test_equals_cell_loop(self, marginals):
        a, b, n = marginals
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # np.log(0) on a zero marginal
            value = expected_mutual_information(a, b, n)
        assert value == reference_expected_mutual_information(a, b, n)

    @pytest.mark.parametrize(
        "col_sums",
        [np.full(27, 729), 729 + np.arange(-13, 14)],
        ids=["equal", "27-sizes"],
    )
    def test_equals_cell_loop_sym27_shape(self, col_sums):
        # the planted finest level of the symmetric 3/9/27 benchmark graph,
        # n = 3^9, against itself and against 27 distinct group sizes
        row_sums = np.full(27, 729)
        value = expected_mutual_information(row_sums, col_sums, 19_683)
        assert value == reference_expected_mutual_information(row_sums, col_sums, 19_683)

    def test_marginals_must_sum(self):
        with pytest.raises(ValueError):
            expected_mutual_information([2, 2], [3, 2], 4)

    def test_marginals_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            expected_mutual_information([-1, 5], [4], 4)


class TestInformationBasics:
    def test_entropy_uniform(self):
        assert entropy(np.repeat(np.arange(4), 5)) == pytest.approx(np.log(4))

    def test_mutual_information_identical(self):
        labels = np.repeat(np.arange(5), 3)
        assert mutual_information(labels, labels) == pytest.approx(np.log(5))


def _nested_partitions(n=162):
    fine = Partition.from_labels(np.arange(n) % 27)
    mid = Partition.from_labels(fine.assignment // 3)
    coarse = Partition.from_labels(fine.assignment // 9)
    return [fine, mid, coarse]


class TestScoreHierarchy:
    def test_identical_lists(self):
        truth = _nested_partitions()
        report = score_hierarchy(truth, list(truth))
        assert report.precision == pytest.approx(1.0)
        assert report.recall == pytest.approx(1.0)
        assert report.xi.shape == (3, 3)

    def test_missing_level_hits_recall_not_precision(self):
        truth = _nested_partitions()
        inferred = [truth[0], truth[2]]
        report = score_hierarchy(truth, inferred)
        assert report.precision == pytest.approx(1.0)
        assert report.recall < 1.0
        expected_recall = (1.0 + report.xi[1].max() + 1.0) / 3.0
        assert report.recall == pytest.approx(expected_recall)

    def test_spurious_level_hits_precision_not_recall(self):
        rng = np.random.default_rng(5)
        truth = _nested_partitions()
        junk = rng.integers(0, 5, truth[0].n)
        junk[:5] = np.arange(5)
        inferred = list(truth) + [Partition.from_labels(junk)]
        report = score_hierarchy(truth, inferred)
        base = score_hierarchy(truth, list(truth))
        assert report.recall == pytest.approx(base.recall)
        assert report.precision < base.precision

    def test_reorder_invariance(self):
        truth = _nested_partitions()
        r1 = score_hierarchy(truth, list(truth))
        r2 = score_hierarchy(truth[::-1], list(truth))
        assert r1.precision == pytest.approx(r2.precision)
        assert r1.recall == pytest.approx(r2.recall)

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError, match="same items"):
            score_matrix(
                [Partition.from_labels([0, 1])],
                [Partition.from_labels([0, 1, 1])],
            )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            score_hierarchy([], _nested_partitions())
