import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscluster.metrics import misclustered_rate

from oracles import brute_rate, confusion


class TestConfusion:
    def test_identical_labelings(self):
        z = np.array([1, 1, 2, 2])
        assert np.array_equal(confusion(z, z, 2), [[2, 0], [0, 2]])

    def test_swapped_labels_antidiagonal(self):
        z = np.array([1, 1, 2, 2])
        assert np.array_equal(confusion(3 - z, z, 2), [[0, 2], [2, 0]])

    def test_entries_sum_to_n(self):
        rng = np.random.default_rng(0)
        zhat = rng.integers(1, 5, size=100)
        z = rng.integers(1, 5, size=100)
        assert confusion(zhat, z, 4).sum() == 100

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            confusion(np.array([1, 2]), np.array([1]), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            confusion(np.array([1, 3]), np.array([1, 2]), 2)


class TestMisclusteredRate:
    def test_identical(self):
        z = np.array([1, 2, 3, 1])
        assert misclustered_rate(z, z, 3) == 0.0

    def test_global_swap_absorbed(self):
        z = np.array([1, 1, 2, 2, 1])
        assert misclustered_rate(3 - z, z, 2) == 0.0

    def test_single_disagreement(self):
        # Brute force over both K=2 permutations gives 1/4.
        zhat = np.array([1, 1, 2, 2])
        z = np.array([1, 2, 2, 2])
        assert misclustered_rate(zhat, z, 2) == pytest.approx(0.25)

    def test_methods_agree_small_batch(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            K = int(rng.integers(2, 7))
            N = int(rng.integers(K, 60))
            zhat = rng.integers(1, K + 1, size=N)
            z = rng.integers(1, K + 1, size=N)
            assert brute_rate(zhat, z, K) == misclustered_rate(zhat, z, K)

    def test_large_k_uses_assignment(self):
        rng = np.random.default_rng(2)
        K = 12
        z = rng.integers(1, K + 1, size=300)
        assert misclustered_rate(z, z, K) == 0.0

    def test_estimated_k_differs_from_true(self):
        # Estimate uses 3 labels, truth uses 2: confusion is padded square.
        zhat = np.array([1, 2, 3, 3])
        z = np.array([1, 1, 2, 2])
        assert misclustered_rate(zhat, z, 2) == pytest.approx(0.25)

    def test_k_never_changes_the_rate(self):
        # The confusion matrix covers only the labels that occur, so K,
        # however large, adds no row or column to it.
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            N = int(rng.integers(1, 60))
            zhat = rng.integers(1, k + 1, size=N)
            z = rng.integers(1, k + 1, size=N)
            top = int(max(zhat.max(), z.max()))
            rates = {misclustered_rate(zhat, z, K) for K in (1, top, top + 4)}
            assert rates == {brute_rate(zhat, z, top)}

    def test_huge_label_values_score_as_renumbered(self):
        # The matrix is sized by the labels that occur, not by their
        # values: a label of 10^8 must not ask for a 10^8-square matrix.
        rng = np.random.default_rng(4)
        values = np.array([3, 70_000, 100_000_000])
        for _ in range(20):
            zhat_idx = rng.integers(0, 3, size=50)
            z = rng.integers(1, 4, size=50)
            rate = misclustered_rate(values[zhat_idx], z, 3)
            assert rate == misclustered_rate(zhat_idx + 1, z, 3)
            assert rate == brute_rate(zhat_idx + 1, z, 3)
        assert misclustered_rate(np.array([1, 100_000_000]), np.array([1, 2]), 2) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            misclustered_rate(np.array([1, 2]), np.array([1]), 2)
        with pytest.raises(ValueError):
            misclustered_rate(np.array([0, 1]), np.array([1, 1]), 2)
        # "assignment" is the only route left.
        for method in ("brute", "auto"):
            with pytest.raises(ValueError, match="unknown method"):
                misclustered_rate(np.array([1, 2]), np.array([1, 2]), 2, method=method)


label_pairs = st.integers(2, 5).flatmap(
    lambda K: st.tuples(
        st.just(K),
        st.lists(st.integers(1, K), min_size=2, max_size=40),
    )
)


class TestProperties:
    @given(label_pairs, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, case, rnd):
        K, labels = case
        z = np.array(labels)
        zhat = np.array([rnd.randint(1, K) for _ in labels])
        assert misclustered_rate(zhat, z, K) == misclustered_rate(z, zhat, K)

    @given(label_pairs, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, case, rnd):
        K, labels = case
        z = np.array(labels)
        zhat = np.array([rnd.randint(1, K) for _ in labels])
        perm = list(range(1, K + 1))
        rnd.shuffle(perm)
        perm = np.array(perm)
        rate = misclustered_rate(zhat, z, K)
        assert misclustered_rate(perm[zhat - 1], z, K) == pytest.approx(rate)
        assert misclustered_rate(zhat, perm[z - 1], K) == pytest.approx(rate)

    @given(label_pairs, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_range_and_zero_iff_permutation_identical(self, case, rnd):
        K, labels = case
        z = np.array(labels)
        zhat = np.array([rnd.randint(1, K) for _ in labels])
        rate = misclustered_rate(zhat, z, K)
        assert 0.0 <= rate <= 1.0
        if rate == 0.0:
            # Some relabeling makes the vectors agree everywhere.
            from itertools import permutations

            assert any(
                np.array_equal(np.array(p)[zhat - 1], z)
                for p in permutations(range(1, K + 1))
            )
