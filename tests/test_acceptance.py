"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Two checks (criteria 2 and 4) fail at present and are
kept as stated rather than loosened; their docstrings give what was
measured on their fixtures.  The companion shadow test runs criterion 2's
protocol one size up, where it passes.
"""

import itertools
import time

import numpy as np
import pytest

import hierspect as hs
from hierspect import (
    Partition,
    ami,
    cluster_bethe_hessian,
    estimate_affinity,
    find_relevant_minima,
    fit_msle,
    generate_hierarchical,
    generate_planted_partition,
    identify_partitions_and_errors,
    infer_hierarchy,
    kmeans,
    null_curve,
    projection_error,
    quotient,
    score_hierarchy,
    solve_planted_params,
    structural_eigenvectors,
)
from hierspect.synthetic import SynthSpec, build_hierarchy_model, snr_of

from conftest import random_graph


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {cid}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _detect_levels(graph, seed):
    result = infer_hierarchy(graph, seed=seed)
    return result, [level.composed_partition for level in result.levels]


def test_criterion_1_flat_control():
    """Flat 64-group networks must come out as a single level."""
    start = time.time()
    # the 64-clique network: degree 10 equals the group size, so the
    # feasibility boundary (beta = 0) is exactly the clique network
    spec = SynthSpec(model="flat", n=640, snr=10.0, avg_degree=10.0, schedule=(64,), seed=0)
    graph, truth = generate_hierarchical(spec)
    result, inferred = _detect_levels(graph, seed=1)
    clique_ami = ami(inferred[0], truth.partitions[0])
    single = 0
    for grid, snr in enumerate([2.0, 5.0, 10.0, 10.0]):  # 10.0 twice: snr=10 and c-max
        for seed in range(5):
            sp = SynthSpec(
                model="flat", n=640, snr=snr, avg_degree=10.0, schedule=(64,),
                seed=100 * grid + seed,
            )
            g, _ = generate_hierarchical(sp)
            res = infer_hierarchy(g, seed=seed + 9)
            single += len(res.levels) == 1
    elapsed = time.time() - start
    ok = len(result.levels) == 1 and clique_ami == 1.0 and single >= 18 and elapsed < 60
    _report(
        "1",
        ok,
        f"clique network: levels={len(result.levels)}, AMI={clique_ami:.4f}; "
        f"single level in {single}/20 planted runs (need >=18); {elapsed:.0f}s (<60s)",
    )


def test_criterion_2_symmetric_hierarchy():
    """Three-level recovery at n=3^7, degree 20, SNR 10.

    Known shortfall, measured on this fixture: every seed gives levels
    (27, 3).  The finest level is right (AMI >= 0.999), and the r=9
    candidate of the first merge step is the planted 9-group partition in
    7 of 10 seeds (AMI 1.000; 0.914-0.955 in the other three), so the
    middle level is not lost in the candidates.  The statistic misses it:
    walk-matrix eigenvalues 9 and 10 lie within 0.02 of each other (|lambda|
    0.639-0.657 and 0.624-0.642), so perturbations can swap the two
    eigenvectors, and the mean projection error at r=9 (2.06-2.56) stays
    close to r=10's (2.36-2.72) instead of forming a minimum.  The same
    protocol passes one size up (see the shadow test below).
    """
    start = time.time()
    successes = 0
    level_counts = []
    for seed in range(10):
        spec = SynthSpec(
            model="symmetric", n=3**7, snr=10.0, avg_degree=20.0,
            schedule=(3, 9, 27), seed=seed,
        )
        graph, truth = generate_hierarchical(spec)
        result, inferred = _detect_levels(graph, seed=seed + 99)
        report = score_hierarchy(truth.partitions, inferred)
        good = (
            len(result.levels) == 3
            and report.xi.max(axis=1).min() >= 0.9
            and report.precision >= 0.9
            and report.recall >= 0.9
        )
        successes += good
        level_counts.append(tuple(level.k for level in result.levels))
    elapsed = time.time() - start
    ok = successes >= 8 and elapsed < 300
    _report(
        "2",
        ok,
        f"3-level success in {successes}/10 (need >=8); observed levels "
        f"{sorted(set(level_counts))}; {elapsed:.0f}s (<300s)",
    )


def test_criterion_2_shadow_scale_passes():
    """Same protocol as criterion 2, one size up (n=3^8, degree 50): the
    middle level's eigenvalue band clears the estimation noise and the
    three levels are recovered.  Diagnostic companion, not a criterion."""
    successes = 0
    for seed in range(10):
        spec = SynthSpec(
            model="symmetric", n=3**8, snr=10.0, avg_degree=50.0,
            schedule=(3, 9, 27), seed=seed,
        )
        graph, truth = generate_hierarchical(spec)
        result, inferred = _detect_levels(graph, seed=seed + 99)
        report = score_hierarchy(truth.partitions, inferred)
        successes += (
            len(result.levels) == 3
            and report.xi.max(axis=1).min() >= 0.9
            and report.precision >= 0.9
            and report.recall >= 0.9
        )
    print(f"\n[shadow] symmetric protocol at n=3^8 deg=50: {successes}/10")
    assert successes >= 8


def test_criterion_3_assortative_hierarchy():
    """2/4/8 assortative recovery with monotone recall in SNR."""
    start = time.time()
    recalls = {}
    precision_at_8 = recall_at_8 = None
    for snr in (2.0, 4.0, 8.0):
        precs, recs = [], []
        for seed in range(10):
            spec = SynthSpec(
                model="assortative", n=2**12, snr=snr, avg_degree=30.0,
                schedule=(2, 4, 8), seed=seed,
            )
            graph, truth = generate_hierarchical(spec)
            _, inferred = _detect_levels(graph, seed=seed + 7)
            report = score_hierarchy(truth.partitions, inferred)
            precs.append(report.precision)
            recs.append(report.recall)
        recalls[snr] = float(np.mean(recs))
        if snr == 8.0:
            precision_at_8 = float(np.mean(precs))
            recall_at_8 = float(np.mean(recs))
    monotone = recalls[2.0] <= recalls[4.0] <= recalls[8.0]
    elapsed = time.time() - start
    ok = precision_at_8 >= 0.9 and recall_at_8 >= 0.9 and monotone
    _report(
        "3",
        ok,
        f"snr=8: precision={precision_at_8:.3f}, recall={recall_at_8:.3f} (need >=0.9); "
        f"mean recall {recalls[2.0]:.3f} <= {recalls[4.0]:.3f} <= {recalls[8.0]:.3f} "
        f"monotone={monotone}; {elapsed:.0f}s",
    )


def test_criterion_4_disassortative_recovery():
    """Column-reversed hierarchy: finest level at SNR 8, coarsest from SNR 4.

    Known shortfall at SNR=4, measured on this fixture: mean finest AMI
    0.753, mean coarsest 0.744.  A majority-vote (oracle) merge of the
    detected finest groups onto the planted two groups gives 0.783, and the
    detected coarsest level scores the same as that merge in 9 of 10
    seeds; seed 7 accepts no coarse level (levels (8,), coarsest AMI
    0.392).  So the bar is missed by the finest-level assignment and one
    rejected merge, not because 0.8 is above the information in the graph:
    a node-wise likelihood refinement of the finest level, prototyped but
    not merged, reached a mean coarsest AMI of 0.895 on the same graphs.
    At SNR=8 the coarsest AMI is 0.990.
    """
    start = time.time()
    stats = {}
    for snr in (4.0, 8.0):
        finest, coarsest = [], []
        for seed in range(10):
            spec = SynthSpec(
                model="disassortative", n=2**12, snr=snr, avg_degree=30.0,
                schedule=(2, 4, 8), seed=seed,
            )
            graph, truth = generate_hierarchical(spec)
            _, inferred = _detect_levels(graph, seed=seed + 7)
            report = score_hierarchy(truth.partitions, inferred)
            finest.append(report.xi[0].max())
            coarsest.append(report.xi[2].max())
        stats[snr] = (float(np.mean(finest)), float(np.mean(coarsest)))
    elapsed = time.time() - start
    finest_ok = stats[8.0][0] >= 0.9
    coarsest_ok = stats[4.0][1] >= 0.8 and stats[8.0][1] >= 0.8
    ok = finest_ok and coarsest_ok
    _report(
        "4",
        ok,
        f"finest AMI at snr=8: {stats[8.0][0]:.3f} (need >=0.9); coarsest AMI "
        f"snr=4: {stats[4.0][1]:.3f}, snr=8: {stats[8.0][1]:.3f} (need >=0.8); "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_expected_error_formulas():
    """Monte Carlo validation of the null projection-error curves."""
    start = time.time()
    rng = np.random.default_rng(0)
    n, samples = 200, 10_000
    mc_ok = True
    details = []
    for k in (2, 5, 20):
        partition = Partition.from_labels(np.arange(n) % k)
        const = np.full((n, 1), 1.0 / np.sqrt(n))
        total = 0.0
        for _ in range(samples):
            raw = rng.standard_normal((n, k - 1))
            raw -= raw.mean(axis=0)
            q, _ = np.linalg.qr(raw)
            total += projection_error(partition, np.hstack([const, q]))
        mean = total / samples
        target = null_curve(n)[k - 1]
        rel = abs(mean - target) / target
        details.append(f"k={k}: rel.err={rel:.4f}")
        mc_ok = mc_ok and rel <= 0.02
    # conditioning points vanish exactly; piecewise continuity at knots
    exact_ok = True
    for kappas in [(3,), (3, 9), (4, 11, 19)]:
        for r in (1,) + kappas + (27,):
            exact_ok = exact_ok and null_curve(27, kappas)[r - 1] == 0.0
        values = null_curve(27, kappas)
        knots = (1,) + kappas + (27,)
        for lo, hi in zip(knots, knots[1:]):
            # both segment formulas agree at their shared knot within 1e-12
            left = (hi - lo) * (lo - lo) / (hi - lo)
            exact_ok = exact_ok and abs(values[lo - 1] - left) <= 1e-12
    elapsed = time.time() - start
    ok = mc_ok and exact_ok and elapsed < 60
    _report(
        "5",
        ok,
        f"MC vs analytic at n=200 ({'; '.join(details)}, need <=0.02); "
        f"conditional zeros/continuity exact={exact_ok}; {elapsed:.0f}s (<60s)",
    )


def test_criterion_6_kmeans_duality():
    """The k-means objective equals the projection error, partition by
    partition, verified exhaustively on small instances."""

    def wcss(v, labels, k):
        total = 0.0
        for g in range(k):
            pts = v[labels == g]
            total += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        return total

    rng = np.random.default_rng(123)
    worst = 0.0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        v = rng.standard_normal((n, d))
        part = kmeans(v, v[:k])
        worst = max(worst, abs(wcss(v, part.assignment, k) - projection_error(part, v)))
        if n <= 7:
            # exhaustive: every k-group partition has equal objectives
            for labels in itertools.product(range(k), repeat=n):
                if len(set(labels)) != k:
                    continue
                labels = np.array(labels)
                p = Partition.from_labels(labels)
                worst = max(worst, abs(wcss(v, labels, k) - projection_error(p, v)))
                checked += 1
    ok = worst <= 1e-10
    _report(
        "6",
        ok,
        f"max |k-means WCSS - projection error| = {worst:.2e} over 200 "
        f"instances and {checked} exhaustively enumerated partitions (tol 1e-10)",
    )


def test_criterion_7_quotient_laplacian_invariance():
    """Within-group edge additions leave the quotient Laplacian unchanged."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 40))
        g = random_graph(rng, n, weighted=bool(rng.integers(2)))
        k = int(rng.integers(2, min(6, n)))
        labels = rng.integers(0, k, n)
        labels[:k] = np.arange(k)
        p = Partition.from_labels(labels)
        before = quotient(g, p).l_pi
        adj = g.adjacency.toarray().copy()
        for _ in range(5):
            grp = rng.integers(0, k)
            members = np.flatnonzero(p.assignment == grp)
            if members.size < 2:
                continue
            i, j = rng.choice(members, size=2, replace=False)
            w = rng.random() + 0.1
            adj[i, j] += w
            adj[j, i] += w
        after = quotient(hs.Graph.from_dense(adj), p).l_pi
        scale = max(1.0, float(np.abs(before).max()))
        worst = max(worst, float(np.abs(after - before).max()) / scale)
    ok = worst <= 1e-12
    _report("7", ok, f"max relative change over 100 triples = {worst:.2e} (tol 1e-12)")


def test_criterion_8_structural_eigenvector_exactness():
    """On exact expected adjacencies the selected eigenvector block is
    piecewise constant on the planted finest partition."""
    fixtures = []
    for model, schedule, snrs, n in [
        ("flat", (6,), (2.0, 4.0), 60),
        ("assortative", (2, 4), (3.0, 6.0), 64),
        ("assortative", (2, 4, 8), (4.0, 7.0), 128),
        ("symmetric", (3, 9), (5.0, 9.0), 108),
        ("symmetric", (3, 9, 27), (6.0, 8.0), 162),
        ("disassortative", (2, 4), (3.0, 6.0), 64),
        ("disassortative", (2, 4, 8), (5.0, 7.0), 128),
        ("asymmetric", (3, 5), (4.0, 7.0), 81),
        ("asymmetric", (3, 5, 7), (5.0, 7.0), 162),
    ]:
        for snr in snrs:
            for deg in (12.0, 16.0, 20.0):
                fixtures.append((model, schedule, snr, n, deg))
    fixtures = fixtures[:54]
    assert len(fixtures) >= 50
    worst = 0.0
    for model, schedule, snr, n, deg in fixtures:
        spec = SynthSpec(
            model=model, n=n, snr=snr, avg_degree=deg, schedule=schedule, seed=0
        )
        omega, sizes, _ = build_hierarchy_model(spec)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        partition = Partition.from_labels(labels)
        expected_adjacency = omega[labels][:, labels]
        _, vecs = structural_eigenvectors(expected_adjacency)
        err = projection_error(partition, vecs[:, : partition.k])
        worst = max(worst, err)
    ok = worst <= 1e-8
    _report(
        "8",
        ok,
        f"max projection error over {len(fixtures)} exact fixtures = {worst:.2e} (tol 1e-8)",
    )


def test_criterion_9_bethe_hessian_group_count():
    """Group-count estimation on a large planted partition and an ER graph."""
    start = time.time()
    alpha, beta = solve_planted_params(4, 50.0, 5.0)
    hits = 0
    min_ami = 1.0
    for seed in range(10):
        graph, truth = generate_planted_partition(10_000, 4, alpha, beta, seed=seed)
        res = cluster_bethe_hessian(graph, seed=seed + 3)
        if res.k_hat == 4:
            hits += 1
            min_ami = min(min_ami, ami(res.partition, truth))
    er_hits = 0
    for seed in range(10):
        graph, _ = generate_planted_partition(2000, 1, 20.0, 20.0, seed=seed + 40)
        res = cluster_bethe_hessian(graph, seed=seed + 3)
        er_hits += res.k_hat == 1
    elapsed = time.time() - start
    ok = hits >= 9 and min_ami >= 0.9 and er_hits >= 9 and elapsed < 120
    _report(
        "9",
        ok,
        f"planted k=4: correct count in {hits}/10 (need >=9), min AMI={min_ami:.3f} "
        f"(need >=0.9); ER: single group in {er_hits}/10 (need >=9); "
        f"{elapsed:.0f}s (<120s)",
    )


def test_criterion_10_model_selection_fixture():
    """Level selection on a 3/9/27 network at n=2187 returns exactly {3, 9}.

    The criterion pins n and the schedule; degree 300 and SNR 25 are chosen
    so the level structure is resolvable at 27 groups of 81 nodes (at the
    papers' degree-to-size ratio the middle band would drown in estimation
    noise, see criterion 2).
    """
    exact = 0
    cond_below = 0
    for seed in range(10):
        spec = SynthSpec(
            model="symmetric", n=3**7, snr=25.0, avg_degree=300.0,
            schedule=(3, 9, 27), seed=seed,
        )
        graph, truth = generate_hierarchical(spec)
        omega = estimate_affinity(graph, truth.partitions[0])
        cands = identify_partitions_and_errors(omega, z=100, seed=seed + 1000)
        accepted = find_relevant_minima(cands.mean_errors)
        if accepted == [3, 9]:
            exact += 1
            base = fit_msle(cands.mean_errors, null_curve(27))
            cond = fit_msle(cands.mean_errors, null_curve(27, (3, 9)))
            cond_below += cond.msle < base.msle
    ok = exact >= 8 and cond_below == exact
    _report(
        "10",
        ok,
        f"exactly {{3, 9}} in {exact}/10 seeds (need >=8); conditional MSLE "
        f"below unconditional in {cond_below}/{exact}",
    )


def test_criterion_11_snr_feasibility_and_preservation():
    """Closed-form parameter solving round-trips; generator honors the degree."""
    worst = 0.0
    for k in (2, 3, 4, 8, 16, 32):
        for c in (2.0, 10.0, 50.0, 200.0):
            for frac in (0.0, 0.05, 0.3, 0.7, 1.0):
                snr = frac * c
                alpha, beta = solve_planted_params(k, c, snr)
                worst = max(worst, abs(snr_of(alpha, beta, k) - snr))
                worst = max(worst, abs((alpha + (k - 1) * beta) / k - c))
    n, k, c, snr = 400, 4, 10.0, 4.0
    alpha, beta = solve_planted_params(k, c, snr)
    means = []
    for seed in range(100):
        graph, _ = generate_planted_partition(n, k, alpha, beta, seed=seed)
        means.append(graph.degrees.mean())
    # expected degree over unordered pairs excludes self-pairs
    target = c - alpha / n
    sd = float(np.std(means, ddof=1) / np.sqrt(len(means)))
    dev = abs(float(np.mean(means)) - target)
    ok = worst <= 1e-12 and dev <= 3 * sd
    _report(
        "11",
        ok,
        f"round-trip residual {worst:.2e} (tol 1e-12); mean degree dev "
        f"{dev:.4f} vs 3*SE={3 * sd:.4f} over 100 samples",
    )
