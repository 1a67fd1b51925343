import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sscluster.sampling as sampling_module
from sscluster.graph import degrees, from_edge_list
from sscluster.kmeans import kmeans_1d
from sscluster.sampling import (
    cluster_quotas,
    coverage_event,
    dcs,
    dcs_min_size,
    draw,
    srs,
    srs_min_size,
    write_sample,
)
from sscluster.sbm import block_matrix, generate_adjacency, sample_memberships


def complete_graph(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def regularized_degrees(monkeypatch, g, K=1):
    """The values dcs partitions: what it hands to ``kmeans_1d``."""
    seen = []

    def spy(values, k):
        seen.append(values)
        return kmeans_1d(values, k)

    monkeypatch.setattr(sampling_module, "kmeans_1d", spy)
    dcs(g, 1, K)
    return seen[0]


class TestSrs:
    def test_exhaustive_sample(self):
        ids = srs(7, 7, np.random.default_rng(0))
        assert ids.dtype == np.int64
        assert sorted(ids.tolist()) == list(range(7))

    def test_forced_single(self):
        assert srs(1, 1, np.random.default_rng(0)).tolist() == [0]

    def test_no_silent_clamping(self):
        with pytest.raises(ValueError):
            srs(5, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            srs(5, 0, np.random.default_rng(0))

    def test_monte_carlo_uniform_inclusion(self):
        # 50,000 draws of 10 nodes out of 100: every node's inclusion
        # frequency sits within 0.01 of 0.1 (about 7 MC sigmas).
        rng = np.random.default_rng(2024)
        counts = np.zeros(100)
        reps = 50_000
        for _ in range(reps):
            counts[srs(100, 10, rng)] += 1
        freqs = counts / reps
        assert np.all(np.abs(freqs - 0.1) < 0.01)

    @given(st.integers(1, 50), st.data())
    @settings(max_examples=50, deadline=None)
    def test_ids_distinct_and_in_range(self, N, data):
        n = data.draw(st.integers(1, N))
        ids = srs(N, n, np.random.default_rng(0))
        assert len(ids) == n
        assert len(np.unique(ids)) == n
        assert ids.min() >= 0 and ids.max() < N


class TestRegularizedDegrees:
    def test_complete_k5(self, monkeypatch):
        assert np.allclose(regularized_degrees(monkeypatch, complete_graph(5)), 4 / 5)

    def test_empty(self, monkeypatch):
        assert np.all(regularized_degrees(monkeypatch, from_edge_list([], 6)) == 0)

    def test_star(self, monkeypatch, star5):
        f = regularized_degrees(monkeypatch, star5, K=2)
        assert f[0] == pytest.approx(0.8)
        assert np.allclose(f[1:], 0.2)


class TestClusterQuotas:
    def test_exact_proportionality(self):
        assert cluster_quotas(np.array([50, 30, 20]), 10).tolist() == [5, 3, 2]

    def test_rejects_n_above_the_total(self):
        with pytest.raises(ValueError, match="^need 0 <= n <= sum"):
            cluster_quotas(np.array([3, 4]), 8)

    def test_remainder_goes_to_largest_fraction(self):
        # n*size/N = 3.5, 2.1, 1.4: floors (3,2,1), remainder 1 goes to
        # the 0.5 fractional part.
        q = cluster_quotas(np.array([50, 30, 20]), 7)
        assert q.tolist() == [4, 2, 1]

    def test_tie_broken_by_larger_cluster(self):
        # Fractions .5/.5 tie; the larger cluster wins the extra slot.
        q = cluster_quotas(np.array([30, 10]), 2)
        assert q.tolist() == [2, 0]

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_quotas_sum_to_n(self, sizes, data):
        sizes = np.array(sizes)
        n = data.draw(st.integers(0, int(sizes.sum())))
        q = cluster_quotas(sizes, n)
        assert q.sum() == n
        assert np.all(q >= 0)
        assert np.all(q <= sizes)


class TestDcs:
    def test_full_sample_selects_everyone(self):
        g = complete_graph(6)
        ids = dcs(g, 6, 2)
        assert ids.dtype == np.int64
        assert sorted(ids.tolist()) == list(range(6))

    def test_two_degree_classes(self):
        # Community one: K_12 minus a perfect matching (degree 10 each).
        # Community two: a 12-cycle (degree 2 each). Quotas are 2 + 2 and
        # degree ties break by ascending node id.
        edges = [(i, j) for i in range(12) for j in range(i + 1, 12)
                 if j - i != 6]
        edges += [(12 + i, 12 + (i + 1) % 12) for i in range(12)]
        g = from_edge_list(edges, 24)
        d = degrees(g)
        assert set(d[:12]) == {10} and set(d[12:]) == {2}

        assert sorted(dcs(g, 4, 2).tolist()) == [0, 1, 12, 13]

    def test_selected_dominate_unselected_by_degree(self):
        rng = np.random.default_rng(8)
        z = sample_memberships((0.5, 0.5), 80, rng)
        g = generate_adjacency(z, block_matrix(0.4, 0.1, 2), rng)
        ids = dcs(g, 20, 2)
        d = degrees(g)
        labels = kmeans_1d(d / 80, 2)
        chosen = np.zeros(80, dtype=bool)
        chosen[ids] = True
        for k in (1, 2):
            members = np.flatnonzero(labels == k)
            sel = members[chosen[members]]
            unsel = members[~chosen[members]]
            if len(sel) and len(unsel):
                assert d[sel].min() >= d[unsel].max()

    def test_rejects_bad_sizes(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            dcs(g, 6, 2)
        with pytest.raises(ValueError):
            dcs(g, 3, 6)

    def test_one_warning_for_an_empty_degree_partition(self, caplog):
        # A ring where each node links to the 2 nearest on each side: every
        # degree is 4, so a partition into 3 leaves two clusters empty.
        g = from_edge_list([(i, (i + s) % 30) for i in range(30) for s in (1, 2)], 30)
        with caplog.at_level(logging.WARNING, logger="sscluster"):
            dcs(g, 6, 3)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("sscluster.sampling", "degree partition has 2 empty clusters; "
                                   "quotas use the 1 nonempty ones")]


class TestDraw:
    def test_dispatches_to_the_named_sampler(self):
        rng = np.random.default_rng(4)
        g = generate_adjacency(sample_memberships((0.5, 0.5), 60, rng),
                               block_matrix(0.3, 0.1, 2), rng)
        for method, direct in (("srs", lambda r: srs(60, 12, r)),
                               ("dcs", lambda r: dcs(g, 12, 2))):
            a = draw(method, g, 12, 2, np.random.default_rng(5))
            b = direct(np.random.default_rng(5))
            assert np.array_equal(a, b)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="srs or dcs"):
            draw("full", complete_graph(5), 2, 2, np.random.default_rng(0))


class TestSrsMinSize:
    def test_known_value(self):
        assert srs_min_size(3, 1 / 3, 0.05) == 11

    def test_single_block(self):
        assert srs_min_size(1, 1.0, 0.5) == 1
        assert srs_min_size(1, 0.3, 0.05) == 1

    def test_floor_at_one_draw(self):
        assert srs_min_size(1, 1.0, 0.999) == 1

    @pytest.mark.parametrize("K, eps, message", [
        (3, 0.0, "eps must be in"), (3, 1.0, "eps must be in"), (0, 0.05, "K must be >= 1")])
    def test_rejects_bad_eps_and_k(self, K, eps, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            srs_min_size(K, 0.2, eps)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            srs_min_size(3, 0.0, 0.05)
        with pytest.raises(ValueError):
            srs_min_size(3, 0.5, 0.05)  # alpha > 1/K

    def test_monte_carlo_coverage_at_bound(self):
        # With-replacement draws at the returned n: coverage at least
        # 1 - eps (up to MC noise) for the canonical K=3 uniform case.
        n = srs_min_size(3, 1 / 3, 0.05)
        rng = np.random.default_rng(99)
        draws = rng.multinomial(n, [1 / 3] * 3, size=10_000)
        coverage = np.all(draws > 0, axis=1).mean()
        assert coverage >= 0.95

    def test_monte_carlo_coverage_grid(self):
        # Worst-case composition (K-1 blocks at the minimum fraction).
        rng = np.random.default_rng(7)
        for K in (2, 3, 5):
            for alpha in (0.1, 0.2, 1 / K):
                if alpha > 1 / K:
                    continue
                for eps in (0.01, 0.05):
                    n = srs_min_size(K, alpha, eps)
                    p = [alpha] * (K - 1) + [1 - (K - 1) * alpha]
                    draws = rng.multinomial(n, p, size=10_000)
                    coverage = np.all(draws > 0, axis=1).mean()
                    sigma = math.sqrt((1 - eps) * eps / 10_000)
                    assert coverage >= 1 - eps - 2 * sigma, (K, alpha, eps)


class TestDcsMinSize:
    def test_known_value(self):
        assert dcs_min_size(10_000, 0.05) == 826

    def test_log_equals_one(self):
        assert dcs_min_size(1, 2 / math.e) == 64

    def test_monotone_in_n(self):
        for N in (1, 10, 100, 10_000):
            assert dcs_min_size(2 * N, 0.05) > dcs_min_size(N, 0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dcs_min_size(0, 0.05)
        with pytest.raises(ValueError):
            dcs_min_size(10, 1.5)


class TestCoverageEvent:
    def test_full_sample_covers(self):
        z = np.array([1, 2, 3, 1, 2, 3])
        assert coverage_event(np.arange(6), z, 3)

    def test_single_node_cannot_cover_two(self):
        z = np.array([1, 2])
        assert not coverage_event(np.array([0]), z, 2)

    def test_missing_community(self):
        z = np.array([1, 1, 2, 3])
        assert not coverage_event(np.array([0, 1, 2]), z, 3)


def test_write_sample(tmp_path):
    path = tmp_path / "sample.txt"
    write_sample(np.array([4, 0, 2]), path)
    assert path.read_text().splitlines() == ["4", "0", "2"]
