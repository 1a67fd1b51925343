"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them inline). Tolerances are pinned here and nowhere else."""

import math
import os
import time

import numpy as np

from sscluster import sampling
from sscluster.bench import derive_seed, run_ssc, subsample_size_rule
from sscluster.graph import bi_adjacency
from sscluster.kmeans import kmeans
from sscluster.metrics import misclustered_rate
from sscluster.sampling import srs, srs_min_size
from sscluster.sbm import block_matrix, generate_adjacency, sample_memberships
from sscluster.spectral import (
    embed,
    full_embed,
    full_laplacian,
    subsampled_laplacian,
    symmetric_eig,
)

from oracles import (
    brute_rate,
    normalize_bi_adjacency,
    population_bi_adjacency,
    population_embedding,
    procrustes_distance,
    projection_distance,
)


def report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} [{elapsed:.1f}s / budget {budget:.0f}s] {detail}")


def test_criterion_1_oracle_equivalence_at_full_sample():
    """Sampling every node must reproduce full spectral clustering: zero
    misclustered rate and embedding projection distance <= 1e-6, over 20
    SBM graphs (N=200, K=3, beta=0.35, zeta=0.05). Budget 10 s."""
    t0 = time.perf_counter()
    N, K = 200, 3
    B = block_matrix(0.35, 0.05, K)
    worst_rate, worst_proj = 0.0, 0.0
    for trial in range(20):
        rng = np.random.default_rng(derive_seed(0, "acc1", 0, trial))
        z = sample_memberships([1 / K] * K, N, rng)
        g = generate_adjacency(z, B, rng)

        ls = subsampled_laplacian(bi_adjacency(g, np.arange(N)))
        emb_ssc = embed(ls, K)
        labels_ssc = kmeans(emb_ssc.matrix, K, rng=np.random.default_rng(trial)).labels

        emb_full = full_embed(full_laplacian(g), K)
        labels_full = kmeans(emb_full.matrix, K, rng=np.random.default_rng(trial)).labels

        worst_rate = max(worst_rate, misclustered_rate(labels_ssc, labels_full, K))
        worst_proj = max(worst_proj, projection_distance(emb_ssc.matrix, emb_full.matrix))
    elapsed = time.perf_counter() - t0
    ok = worst_rate == 0.0 and worst_proj <= 1e-6
    report(1, ok, f"max rate {worst_rate:.3g}, max projection distance {worst_proj:.2e}",
           elapsed, 10)
    assert worst_rate == 0.0
    assert worst_proj <= 1e-6
    assert elapsed < 10


def test_criterion_2_population_block_structure():
    """Population bi-adjacency (N=300, K=3, distinct block sizes) embeds to
    exactly 3 distinct rows (within 1e-8, between >= 1e-3) and k-means
    recovers the planted partition exactly. Budget 5 s."""
    t0 = time.perf_counter()
    K = 3
    z = np.repeat([1, 2, 3], [150, 100, 50])
    B = block_matrix(0.3, 0.1, K)
    rng = np.random.default_rng(derive_seed(0, "acc2", 0, 0))
    sample = srs(300, 40, rng)
    assert sampling.coverage_event(sample, z, K)

    ls = normalize_bi_adjacency(population_bi_adjacency(z, B, sample))
    emb = embed(ls, K)

    within = max(np.abs(emb.matrix[z == k] - emb.matrix[z == k][0]).max()
                 for k in (1, 2, 3))
    reps = np.stack([emb.matrix[z == k][0] for k in (1, 2, 3)])
    between = min(np.linalg.norm(reps[a] - reps[b])
                  for a in range(3) for b in range(a + 1, 3))
    km = kmeans(emb.matrix, K, rng=rng)
    rate = misclustered_rate(km.labels, z, K)

    elapsed = time.perf_counter() - t0
    ok = within <= 1e-8 and between >= 1e-3 and rate == 0.0
    report(2, ok, f"within {within:.2e}, between {between:.2e}, k-means rate {rate}",
           elapsed, 5)
    assert within <= 1e-8
    assert between >= 1e-3
    assert rate == 0.0
    assert elapsed < 5


def _sbm_rates(N, n, beta, zeta, T, tag, K=3, pi=None):
    """Per-method misclustered rates over T seeded replications."""
    pi = pi or [1 / K] * K
    B = block_matrix(beta, zeta, K)
    rates = {"srs": [], "dcs": []}
    for trial in range(T):
        rng = np.random.default_rng(derive_seed(0, tag, int(beta * 1000) + N, trial))
        z = sample_memberships(pi, N, rng)
        g = generate_adjacency(z, B, rng)
        for method in ("srs", "dcs"):
            s = srs(N, n, rng) if method == "srs" else sampling.dcs(g, n, K)
            labels, _, _ = run_ssc(g, s, K, rng)
            rates[method].append(misclustered_rate(labels, z, K))
    return rates


def test_criterion_3_signal_strength_cells():
    """Strong-signal cells (N=2000, n=100, zeta=0.05, beta in
    {0.35, 0.65, 0.95}, T=20) keep the mean rate <= 0.01 for both
    methods; the weak cell (beta=0.05, zeta=0.95) stays >= 0.55.
    Budget 300 s."""
    t0 = time.perf_counter()
    strong_means = {}
    ok = True
    for beta in (0.35, 0.65, 0.95):
        rates = _sbm_rates(2000, 100, beta, 0.05, T=20, tag="acc3")
        for method in ("srs", "dcs"):
            mean = float(np.mean(rates[method]))
            strong_means[(beta, method)] = mean
            ok = ok and mean <= 0.01
    weak = _sbm_rates(2000, 100, 0.05, 0.95, T=20, tag="acc3w")
    weak_means = {m: float(np.mean(weak[m])) for m in ("srs", "dcs")}
    ok = ok and all(m >= 0.55 for m in weak_means.values())

    elapsed = time.perf_counter() - t0
    strongest = max(strong_means.values())
    report(3, ok, f"strong-cell means <= {strongest:.4f}, weak-cell means "
                  f"srs={weak_means['srs']:.3f} dcs={weak_means['dcs']:.3f}",
           elapsed, 300)
    for key, mean in strong_means.items():
        assert mean <= 0.01, key
    for method, mean in weak_means.items():
        assert mean >= 0.55, method
    assert elapsed < 300


def test_criterion_4_consistency_trend():
    """Growing networks with n = ceil(2 (log N)^2): median rate is
    non-increasing in N for both methods and <= 0.05 at N=4000
    (beta=0.1, zeta=0.05, T=20). Budget 600 s."""
    t0 = time.perf_counter()
    grid = (1000, 2000, 4000)
    medians = {"srs": [], "dcs": []}
    for N in grid:
        n = subsample_size_rule(N)
        rates = _sbm_rates(N, n, 0.1, 0.05, T=20, tag="acc4")
        for method in ("srs", "dcs"):
            medians[method].append(float(np.median(rates[method])))

    ok = True
    for method in ("srs", "dcs"):
        seq = medians[method]
        ok = ok and all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
        ok = ok and seq[-1] <= 0.05
    elapsed = time.perf_counter() - t0
    report(4, ok, f"medians srs={[f'{m:.3f}' for m in medians['srs']]} "
                  f"dcs={[f'{m:.3f}' for m in medians['dcs']]}", elapsed, 600)
    for method in ("srs", "dcs"):
        seq = medians[method]
        assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), method
        assert seq[-1] <= 0.05, method
    assert elapsed < 600


def test_criterion_5_coverage_bound():
    """With-replacement coverage at the computed minimum sample size:
    empirical coverage >= 1 - eps - 2 sigma_MC over the (K, alpha, eps)
    grid, 10,000 draws per cell. Budget 60 s."""
    t0 = time.perf_counter()
    reps = 10_000
    rng = np.random.default_rng(derive_seed(0, "acc5", 0, 0))
    results = []
    ok = True
    for K in (2, 3, 5):
        for alpha in (0.1, 1 / K):
            for eps in (0.01, 0.05):
                n = srs_min_size(K, alpha, eps)
                # Worst-case composition: K-1 blocks at the minimum share.
                p = [alpha] * (K - 1) + [1 - (K - 1) * alpha]
                draws = rng.multinomial(n, p, size=reps)
                coverage = float(np.all(draws > 0, axis=1).mean())
                sigma = math.sqrt((1 - eps) * eps / reps)
                bound = 1 - eps - 2 * sigma
                results.append((K, alpha, eps, n, coverage, bound))
                ok = ok and coverage >= bound
    elapsed = time.perf_counter() - t0
    worst = min(c - b for *_, c, b in results)
    report(5, ok, f"12 cells, worst slack {worst:+.4f}", elapsed, 60)
    for K, alpha, eps, n, coverage, bound in results:
        assert coverage >= bound, (K, alpha, eps, n, coverage)
    assert elapsed < 60


def test_criterion_6_rate_evaluator_routes_agree():
    """Brute-force permutation minimum equals the assignment-based rate on
    1,000 random instances (K <= 6, N <= 200), exactly. Budget 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(0, "acc6", 0, 0))
    mismatches = 0
    for _ in range(1000):
        K = int(rng.integers(2, 7))
        N = int(rng.integers(K, 201))
        zhat = rng.integers(1, K + 1, size=N)
        z = rng.integers(1, K + 1, size=N)
        a = brute_rate(zhat, z, K)
        b = misclustered_rate(zhat, z, K, method="assignment")
        if a != b:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(6, mismatches == 0, f"{mismatches} mismatches in 1000 instances",
           elapsed, 30)
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_7_complexity_shape():
    """Fixed n=100 on sparse graphs (beta=0.02): the log-log slope of
    subsampled-pipeline time versus N over {2000, 4000, 8000} lies in
    [0.6, 1.6], and the pipeline at N=8000 beats dense full SC at N=4000
    extrapolated to N=8000 by at least 10x (informational under heavy
    load). Dense full SC is the Laplacian, a dense top-K eigensolve and
    k-means. Budget 600 s."""
    t0 = time.perf_counter()
    K, n = 3, 100
    B = block_matrix(0.02, 0.05, K)
    medians = {}
    graphs = {}
    for N in (2000, 4000, 8000):
        times = []
        for trial in range(7):
            rng = np.random.default_rng(derive_seed(0, "acc7", N, trial))
            z = sample_memberships([1 / K] * K, N, rng)
            g = generate_adjacency(z, B, rng)
            t1 = time.perf_counter()
            s = srs(N, n, rng)
            run_ssc(g, s, K, rng)
            times.append(time.perf_counter() - t1)
            if trial == 0:
                graphs[N] = g
        medians[N] = float(np.median(times))

    xs = np.log(list(medians))
    ys = np.log([max(t, 1e-9) for t in medians.values()])
    slope = float(np.polyfit(xs, ys, 1)[0])

    rng = np.random.default_rng(derive_seed(0, "acc7full", 0, 0))
    t1 = time.perf_counter()
    _, vectors = symmetric_eig(full_laplacian(graphs[4000]).matrix.toarray(), K)
    kmeans(vectors, K, rng=rng)
    t_full_4000 = time.perf_counter() - t1
    t_full_extrapolated = t_full_4000 * (8000 / 4000) ** 3
    ratio = t_full_extrapolated / medians[8000]

    loaded = os.getloadavg()[0] > 1.5 * os.cpu_count()
    elapsed = time.perf_counter() - t0
    ok = 0.6 <= slope <= 1.6 and (loaded or ratio >= 10)
    note = " (ratio informational: machine heavily loaded)" if loaded else ""
    report(7, ok, f"slope {slope:.2f}, speedup ratio {ratio:.0f}x{note}",
           elapsed, 600)
    assert 0.6 <= slope <= 1.6
    if loaded:
        print(f"ACCEPTANCE 7 note: ratio check informational under load "
              f"(ratio {ratio:.0f}x)")
    else:
        assert ratio >= 10
    assert elapsed < 600


def test_criterion_8_embedding_convergence_trend():
    """On a fixed strong-signal SBM (N=2000), the Procrustes distance
    between empirical and population embeddings has non-increasing median
    over 20 seeds as n grows through {50, 100, 200, 400}. Budget 300 s."""
    t0 = time.perf_counter()
    N, K = 2000, 3
    B = block_matrix(0.35, 0.05, K)
    z = sample_memberships([1 / K] * K, N,
                           np.random.default_rng(derive_seed(0, "acc8z", 0, 0)))
    grid = (50, 100, 200, 400)
    dists = {n: [] for n in grid}
    for seed in range(20):
        rng = np.random.default_rng(derive_seed(0, "acc8", 0, seed))
        g = generate_adjacency(z, B, rng)
        for n in grid:
            s = srs(N, n, rng)
            emp = embed(subsampled_laplacian(bi_adjacency(g, s)), K)
            pop = population_embedding(population_bi_adjacency(z, B, s), K)
            dists[n].append(procrustes_distance(emp.matrix, pop))
    medians = [float(np.median(dists[n])) for n in grid]

    ok = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    elapsed = time.perf_counter() - t0
    report(8, ok, "medians " + " ".join(f"n={n}:{m:.3f}" for n, m in zip(grid, medians)),
           elapsed, 300)
    assert ok
    assert elapsed < 300
