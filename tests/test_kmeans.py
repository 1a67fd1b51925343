import logging
import tracemalloc
from dataclasses import fields
from itertools import combinations, product
from unittest.mock import patch

import kmeans_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sscluster.kmeans as kmeans_module
from sscluster import bench, sbm, spectral
from sscluster.graph import bi_adjacency, degrees
from sscluster.kmeans import (
    KMeansResult, _nearest, _row_blocks, _Workspace, kmeans, kmeans_1d)
from sscluster.sampling import srs


def brute_force_wcss(points, K):
    """Exact minimum within-cluster sum of squares by enumerating every
    assignment (viable only for a handful of points)."""
    n = len(points)
    best = np.inf
    for assign in product(range(K), repeat=n):
        assign = np.array(assign)
        total = 0.0
        for k in range(K):
            pts = points[assign == k]
            if len(pts):
                total += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


class TestKMeans:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(0)
        cloud_a = rng.normal(0, 0.3, size=(6, 2))
        cloud_b = rng.normal(10, 0.3, size=(6, 2))
        points = np.vstack([cloud_a, cloud_b])
        res = kmeans(points, 2, rng=np.random.default_rng(1))
        # Perfect split, and the objective matches exhaustive enumeration.
        assert len(set(res.labels[:6])) == 1
        assert len(set(res.labels[6:])) == 1
        assert res.labels[0] != res.labels[6]
        assert res.wcss == pytest.approx(brute_force_wcss(points, 2), rel=1e-9)

    def test_rising_objective_raises(self, monkeypatch):
        # Push the centroids away from their clusters on the second pass:
        # the third pass's assignment then costs more than the second's.
        sums, passes = kmeans_module._cluster_sums, []

        def pushed(ws, labels, K):
            counts, totals = sums(ws, labels, K)
            passes.append(1)
            return counts, totals * (3.0 if len(passes) == 2 else 1.0)

        monkeypatch.setattr(kmeans_module, "_cluster_sums", pushed)
        monkeypatch.setattr(kmeans_module, "RESTARTS", 1)
        rng = np.random.default_rng(0)
        points = np.vstack([rng.normal(-5, 0.3, size=(6, 2)),
                            rng.normal(5, 0.3, size=(6, 2))])
        with pytest.raises(RuntimeError, match=r"^Lloyd objective increased: \S+ -> \S+$"):
            kmeans(points, 2, rng=np.random.default_rng(1))

    def test_identical_points_single_cluster(self):
        points = np.ones((8, 3)) * 2.5
        res = kmeans(points, 1, rng=np.random.default_rng(0))
        assert np.allclose(res.centroids, 2.5)
        assert res.wcss == 0.0

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(6, 2))
        res = kmeans(points, 6, rng=rng)
        assert res.wcss <= 1e-16 * len(points)
        assert len(set(res.labels.tolist())) == 6

    def test_rejects_bad_k(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(points, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans(points, 0, rng=np.random.default_rng(0))

    def test_one_dimensional_points_are_one_column(self):
        points = np.array([0.0, 0.1, 5.0, 5.1])
        flat = kmeans(points, 2, rng=np.random.default_rng(0))
        column = kmeans(points[:, None], 2, rng=np.random.default_rng(0))
        assert np.array_equal(flat.labels, column.labels)
        assert np.array_equal(flat.centroids, column.centroids)

    def test_requires_a_generator(self):
        # No silent seeding from OS entropy: every result is reproducible.
        with pytest.raises(TypeError, match="rng"):
            kmeans(np.zeros((3, 2)), 2)

    def test_nearest_centroid_invariant(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 2))
        res = kmeans(points, 3, rng=rng)
        d = ((points[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
        assert np.all(d[np.arange(40), res.labels - 1] <= d.min(axis=1) + 1e-12)
        recomputed = d[np.arange(40), res.labels - 1].sum()
        assert res.wcss == pytest.approx(recomputed, rel=1e-12)

    def test_determinism(self):
        rng_points = np.random.default_rng(4)
        points = rng_points.normal(size=(50, 3))
        a = kmeans(points, 4, rng=np.random.default_rng(7))
        b = kmeans(points, 4, rng=np.random.default_rng(7))
        assert np.array_equal(a.labels, b.labels)
        assert a.wcss == b.wcss

    def test_label_permutation_freedom(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(30, 2))
        res = kmeans(points, 3, rng=rng)
        # Relabeling clusters leaves the objective unchanged.
        perm = np.array([3, 1, 2])
        relabeled = perm[res.labels - 1]
        total = 0.0
        for k in (1, 2, 3):
            pts = points[relabeled == k]
            if len(pts):
                total += ((pts - pts.mean(axis=0)) ** 2).sum()
        assert total == pytest.approx(res.wcss, rel=1e-9)

    def test_exact_recovery_on_k_distinct_rows(self):
        rng = np.random.default_rng(6)
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assign = rng.integers(0, 3, size=90)
        points = rows[assign]
        res = kmeans(points, 3, rng=rng)
        assert res.wcss <= 1e-16 * len(points)
        # Same partition as the planted assignment.
        for k in range(3):
            assert len(set(res.labels[assign == k].tolist())) == 1

    def test_duplicate_points_below_k_succeed(self):
        points = np.zeros((5, 2))
        res = kmeans(points, 3, rng=np.random.default_rng(0))
        assert res.wcss == 0.0
        assert res.n_empty >= 1


class TestKMeans1D:
    def test_separated_scalars(self):
        labels = kmeans_1d(np.array([1.0, 1, 1, 9, 9, 9]), 2)
        assert labels.dtype == np.int64
        assert labels.tolist() == [1, 1, 1, 2, 2, 2]

    def test_means_ascending(self):
        values = np.array([5.0, 5, 0.1, 0.1, 9, 9])
        labels = kmeans_1d(values, 3)
        means = [values[labels == k].mean() for k in (1, 2, 3)]
        assert np.all(np.diff(means) >= 0)
        assert labels[2] == 1 and labels[0] == 2 and labels[4] == 3

    def test_constant_vector_degenerate(self):
        # One distinct value fills cluster 1 and leaves cluster 2 empty.
        assert kmeans_1d(np.full(10, 3.3), 2).tolist() == [1] * 10

    def test_two_gaussians_against_threshold_oracle(self):
        rng = np.random.default_rng(12)
        lo = rng.normal(0.1, 0.01, size=500)
        hi = rng.normal(0.3, 0.01, size=500)
        values = np.concatenate([lo, hi])
        labels = kmeans_1d(values, 2)
        oracle = np.where(values < 0.2, 1, 2)
        misassigned = (labels != oracle).mean()
        assert misassigned <= 0.01

    def test_deterministic(self):
        values = np.random.default_rng(13).normal(size=200)
        assert np.array_equal(kmeans_1d(values, 3), kmeans_1d(values, 3))

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([1.0, 2.0]), 3)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_random_inputs_never_break_monotonicity(seed, K):
    # The Lloyd loop raises internally if its objective ever increases.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(40, 2))
    res = kmeans(points, K, rng=rng)
    assert res.wcss >= 0


def test_kmeans_module_not_shadowed_by_package_export():
    import sscluster
    import sscluster.kmeans as km

    assert type(km).__name__ == "module" and km is sscluster.kmeans
    assert callable(km.kmeans)


# ---------------------------------------------------------------------------
# Batched restarts against the per-restart oracle (tests/kmeans_reference.py)
# ---------------------------------------------------------------------------

def _bits(x):
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def assert_bitwise_equal(res, oracle):
    assert [f.name for f in fields(KMeansResult)] == [f.name for f in fields(ref.KMeansResult)]
    for f in fields(KMeansResult):
        got, want = getattr(res, f.name), getattr(oracle, f.name)
        assert type(got) is type(want), f.name
        assert _bits(got) == _bits(want), f.name


@st.composite
def kmeans_inputs(draw):
    d = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["spread", "duplicates", "identical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "spread":
        points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    elif shape == "duplicates":
        pool = rng.normal(size=(max(1, n // 4), d))
        points = pool[rng.integers(len(pool), size=n)]
    else:
        # Every point equal forces the empty-cluster repair for K > 1.
        points = np.tile(rng.normal(size=d), (n, 1))
    K = draw(st.one_of(st.integers(1, min(6, n)), st.just(n)))
    restarts = draw(st.sampled_from([1, 3, 10]))
    return points, K, restarts, draw(st.integers(0, 2**32 - 1))


def check_against_oracle(case, block):
    points, K, restarts, seed = case
    # Hypothesis rejects function-scoped fixtures such as monkeypatch, so
    # each example patches the restart count and row block itself.
    with patch.object(kmeans_module, "RESTARTS", restarts), \
            patch.object(kmeans_module, "BLOCK", block):
        res = kmeans(points, K, rng=np.random.default_rng(seed))
    oracle = ref.kmeans(points, K, restarts=restarts, rng=np.random.default_rng(seed))
    assert_bitwise_equal(res, oracle)


@given(kmeans_inputs())
@settings(max_examples=150, deadline=None)
def test_batched_restarts_match_per_restart_oracle(case):
    check_against_oracle(case, kmeans_module.BLOCK)


@given(kmeans_inputs())
@settings(max_examples=150, deadline=None)
def test_row_blocks_of_five_match_per_restart_oracle(case):
    # Every input of more than 6 points spans several blocks.
    check_against_oracle(case, 5)


@pytest.mark.parametrize("n, d", [(3000, 1), (20000, 3), (5000, 5)])
def test_large_inputs_match_oracle(n, d):
    # Clusters of more than 128 points sum in several pairwise blocks. The
    # default row blocks split n = 20000 in three.
    rng = np.random.default_rng(n + d)
    centers = rng.normal(scale=3.0, size=(4, d))
    points = centers[rng.integers(4, size=n)] + rng.normal(size=(n, d))
    for K in (2, 4):
        assert_bitwise_equal(kmeans(points, K, rng=np.random.default_rng(K)),
                             ref.kmeans(points, K, rng=np.random.default_rng(K)))


@pytest.mark.parametrize("n, d", [(3000, 1), (20000, 3), (5000, 5)])
def test_large_inputs_over_small_row_blocks_match_oracle(monkeypatch, n, d):
    # Blocks of 700 rows: several, and a remainder, at each n.
    monkeypatch.setattr(kmeans_module, "BLOCK", 700)
    test_large_inputs_match_oracle(n, d)


def test_row_blocks_cover_the_rows_with_no_lone_last_row(monkeypatch):
    monkeypatch.setattr(kmeans_module, "BLOCK", 5)
    for n in range(1, 40):
        blocks = _row_blocks(n)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= 6 and (n == 1 or min(sizes) >= 2)


@pytest.mark.parametrize("restarts", [1, 3, 10])
@pytest.mark.parametrize("n, d, K, shape", [
    (23, 1, 1, "spread"), (23, 3, 1, "spread"), (21, 1, 3, "spread"),
    (21, 3, 3, "spread"), (22, 3, 3, "identical"), (23, 2, 23, "spread")])
def test_several_row_blocks_match_oracle(monkeypatch, n, d, K, shape, restarts):
    # Blocks of 5 rows with a remainder (n = 22, 23) or with a lone last
    # row joined to the block before it (n = 21). Identical points send
    # every K > 1 restart through the empty-cluster repair.
    monkeypatch.setattr(kmeans_module, "BLOCK", 5)
    monkeypatch.setattr(kmeans_module, "RESTARTS", restarts)
    rng = np.random.default_rng(n * d * K)
    points = rng.normal(size=(n, d))
    if shape == "identical":
        points[:] = points[0]
    assert_bitwise_equal(kmeans(points, K, rng=np.random.default_rng(restarts)),
                         ref.kmeans(points, K, restarts=restarts,
                                    rng=np.random.default_rng(restarts)))


def test_wide_labels_over_several_row_blocks(monkeypatch):
    # With K = 300 OpenBLAS partitions each product itself, so a row's
    # products can round differently in a block of rows than in the whole
    # product: the distances are checked to the expansion's rounding (a few
    # ulps of |x|^2 + |c|^2, here about 10), and each label names a
    # centroid at the least distance to that rounding.
    rng = np.random.default_rng(300)
    points = rng.normal(size=(900, 2))
    stack = rng.normal(size=(3, 300, 2))
    whole = [x.copy() for x in _nearest(_Workspace(points, 3, 300), stack)]
    monkeypatch.setattr(kmeans_module, "BLOCK", 5)
    labels, dist = _nearest(_Workspace(points, 3, 300), stack)
    assert labels.dtype == np.uint16 and labels.max() > 255
    np.testing.assert_allclose(dist, whole[1], rtol=0, atol=1e-13)
    exact = ((points[None, :, None] - stack[:, None]) ** 2).sum(axis=3)
    chosen = np.take_along_axis(exact, labels[..., None].astype(np.intp), axis=2)[..., 0]
    np.testing.assert_allclose(chosen, exact.min(axis=2), rtol=0, atol=1e-13)


def test_memory_is_bounded_by_the_row_block():
    # The (R, N) distances and one-byte labels, the point terms and one
    # block of products: about 20 MB at N = 100k, d = 3. Whole (R, N, K)
    # products and fresh (R, N) arrays in every pass take about 60 MB.
    rng = np.random.default_rng(0)
    n = 100_000
    points = rng.normal(scale=3.0, size=(3, 3))[rng.integers(3, size=n)] + rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        kmeans(points, 3, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


@pytest.mark.parametrize("K, label_type", [(1, np.uint8), (300, np.uint16)])
def test_label_widths_match_oracle(monkeypatch, K, label_type):
    # Assignments are kept in the narrowest unsigned type holding K - 1;
    # the returned labels are int64 either way.
    points = np.random.default_rng(K).normal(size=(900, 2))
    assert _nearest(_Workspace(points, 1, K), points[None, :K])[0].dtype == label_type
    monkeypatch.setattr(kmeans_module, "RESTARTS", 3)
    res = kmeans(points, K, rng=np.random.default_rng(5))
    assert_bitwise_equal(res, ref.kmeans(points, K, restarts=3,
                                         rng=np.random.default_rng(5)))
    assert res.labels.dtype == np.int64
    assert res.labels.max() == K


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sbm_embedding_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    z = sbm.sample_memberships((1 / 3, 1 / 3, 1 / 3), 2000, rng)
    g = sbm.generate_adjacency(z, sbm.block_matrix(0.1, 0.05, 3), rng)
    sample = srs(g.n_nodes, 100, rng)
    emb = spectral.embed(spectral.subsampled_laplacian(bi_adjacency(g, sample)), 3)
    assert_bitwise_equal(kmeans(emb.matrix, 3, rng=np.random.default_rng(seed)),
                         ref.kmeans(emb.matrix, 3, rng=np.random.default_rng(seed)))


def partition_wcss(values, labels):
    """Within-cluster sum of squares of a labelling, computed directly."""
    return sum(((values[labels == k] - values[labels == k].mean()) ** 2).sum()
               for k in np.unique(labels))


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 6),
       st.sampled_from(["degrees", "reals"]))
@settings(max_examples=100, deadline=None)
def test_kmeans_1d_wcss_never_above_lloyd_oracle(seed, n, K, kind):
    rng = np.random.default_rng(seed)
    if kind == "degrees":
        # Tied, degree-like counts: a few distinct values, many repeats.
        values = rng.poisson(rng.uniform(0.5, 20), size=n).astype(float)
    else:
        values = rng.exponential(size=n)
    K = min(K, n)
    labels, oracle = kmeans_1d(values, K), ref.kmeans_1d(values, K)
    # Both scored by one formula; equal partitions then score equal bits,
    # and 1e-9 covers rounding between different partitions of equal cost.
    wcss = partition_wcss(values, labels)
    assert wcss <= partition_wcss(values, oracle.labels) * (1 + 1e-9)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 4),
       st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_kmeans_1d_matches_brute_force_over_contiguous_splits(seed, U, K, n):
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=U) * 10.0 ** rng.uniform(-3, 3)
    values = pool[np.arange(max(n, U)) % U]
    rng.shuffle(values)
    K = min(K, len(values))
    x = np.unique(values)
    groups = min(K, len(x))
    best = min(
        partition_wcss(values, np.searchsorted(x[list(cuts)], values, side="right"))
        for cuts in combinations(range(1, len(x)), groups - 1))

    labels = kmeans_1d(values, K)
    assert np.unique(labels).tolist() == list(range(1, groups + 1))
    # Contiguous, numbered by ascending value.
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(labels[order]) >= 0)
    assert partition_wcss(values, labels) == pytest.approx(best, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("block", [kmeans_module.BLOCK, 5])
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 6),
       st.sampled_from(["degrees", "reals", "few"]))
@settings(max_examples=100, deadline=None)
def test_kmeans_1d_matches_the_loop_over_run_ends(block, seed, n, K, kind):
    # The same floats per table entry and the same first minimum as the
    # dynamic programme with one run end at a time, so the same labels.
    rng = np.random.default_rng(seed)
    if kind == "degrees":
        values = rng.poisson(rng.uniform(0.5, 20), size=n).astype(float)
    elif kind == "reals":
        values = rng.exponential(size=n)
    else:
        values = rng.integers(0, 4, size=n).astype(float)
    K = min(K, n)
    with patch.object(kmeans_module, "BLOCK", block):
        labels = kmeans_1d(values, K)
    assert np.array_equal(labels, ref.kmeans_1d_by_run_end(values, K))


def test_kmeans_1d_ties_take_the_leftmost_split():
    # {0}{1, 2} and {0, 1}{2} cost the same; the first run ends earliest.
    assert kmeans_1d(np.array([0.0, 1.0, 2.0]), 2).tolist() == [1, 2, 2]


def test_kmeans_1d_finds_the_planted_imbalance_lloyd_misses():
    # The degree sequence of bench s4's delta = 0.3 cell (N=2000, beta=0.1,
    # zeta=0.05), master seed 7, trial 0. The scalar Lloyd stops at a split
    # of 752/550/698 nodes with 67% more WCSS.
    rng = np.random.default_rng(bench.derive_seed(7, "s4", 3, 0))
    z = sbm.sample_memberships((1 / 3 - 0.3, 1 / 3, 1 / 3 + 0.3), 2000, rng)
    g = sbm.generate_adjacency(z, sbm.block_matrix(0.1, 0.05, 3), rng)
    f = degrees(g) / g.n_nodes
    labels, oracle = kmeans_1d(f, 3), ref.kmeans_1d(f, 3)
    assert partition_wcss(f, labels) < partition_wcss(f, oracle.labels)
    assert np.bincount(labels)[1:].tolist() == np.bincount(z)[1:].tolist()


def test_reports_the_oracle_winning_restart():
    winners = set()
    for seed in range(12):
        points = np.random.default_rng(seed).normal(size=(60, 2))
        res = kmeans(points, 5, rng=np.random.default_rng(seed))
        oracle = ref.kmeans(points, 5, restarts=10, rng=np.random.default_rng(seed))
        assert res.restart == oracle.restart
        winners.add(res.restart)
    assert winners - {0}, "every case was won by restart 0"


def test_one_debug_line_per_call(caplog):
    # kmeans logs one line; kmeans_1d logs none.
    points = np.random.default_rng(0).normal(size=(30, 2))
    with caplog.at_level(logging.DEBUG, logger="sscluster.kmeans"):
        res = kmeans(points, 3, rng=np.random.default_rng(1))
        kmeans_1d(points[:, 0], 2)
    lines = [r.getMessage() for r in caplog.records if r.name == "sscluster.kmeans"]
    assert len(lines) == 1
    assert f"restart {res.restart} of 10" in lines[0]
    assert f"{res.iterations} iterations" in lines[0]


def test_silent_by_default(caplog):
    points = np.random.default_rng(0).normal(size=(30, 2))
    with caplog.at_level(logging.INFO):
        kmeans(points, 3, rng=np.random.default_rng(1))
    assert not [r for r in caplog.records if r.name == "sscluster.kmeans"]


class TestNonFinite:
    def test_inf_row(self):
        points = np.random.default_rng(0).normal(size=(10, 2))
        points[3] = np.inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            kmeans(points, 2, rng=np.random.default_rng(0))

    def test_nan_with_one_cluster(self):
        points = np.random.default_rng(0).normal(size=(10, 2))
        points[5, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            kmeans(points, 1, rng=np.random.default_rng(0))

    def test_overflowing_distances(self):
        # Finite points whose squared distances overflow to infinity.
        points = np.random.default_rng(0).normal(size=(50, 2)) * 1e160
        with pytest.raises(ValueError, match="squared distances overflow"), \
                np.errstate(over="ignore", invalid="ignore"):
            kmeans(points, 3, rng=np.random.default_rng(0))

    def test_nan_scalar(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            kmeans_1d(np.array([1.0, np.nan, 3.0, 4.0]), 2)
