import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscluster.sbm import (
    BlockMatrix,
    block_matrix,
    generate_adjacency,
    read_labels,
    sample_memberships,
    validate_labels,
    write_labels,
)

from conftest import check_graph_invariants
from oracles import (
    membership_matrix,
    population_adjacency,
    population_bi_adjacency,
    to_csr,
)


class TestBlockMatrix:
    def test_planted_partition_values(self):
        b = block_matrix(0.1, 0.05, 3)
        assert np.allclose(np.diag(b.probs), 0.1)
        off = b.probs[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.005)

    def test_zeta_one_is_flat(self):
        b = block_matrix(0.4, 1.0, 4)
        assert np.allclose(b.probs, 0.4)

    def test_beta_zero_is_zero(self):
        assert np.all(block_matrix(0.0, 0.3, 2).probs == 0)

    @pytest.mark.parametrize("probs, message", [
        (np.eye(3), "probs must be 2x2"),
        ([[0.0, 0.1], [0.2, 0.0]], "block matrix must be symmetric"),
        ([[1.5, 0.0], [0.0, 0.0]], r"block probabilities must lie in \[0, 1\]"),
    ], ids=["shape", "asymmetric", "range"])
    def test_block_matrix_checks_its_probs(self, probs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlockMatrix(K=2, probs=probs)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            block_matrix(1.5, 0.1, 2)
        with pytest.raises(ValueError):
            block_matrix(0.5, -0.1, 2)
        with pytest.raises(ValueError):
            block_matrix(0.5, 0.1, 0)


class TestSampleMemberships:
    def test_degenerate_distribution(self):
        z = sample_memberships((1, 0, 0), 50, np.random.default_rng(0))
        assert np.all(z == 1)

    def test_law_of_large_numbers(self):
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 30_000,
                               np.random.default_rng(7))
        freqs = np.bincount(z, minlength=4)[1:] / 30_000
        assert np.all(np.abs(freqs - 1 / 3) < 0.02)

    def test_imbalanced_frequencies(self):
        delta = 0.3
        z = sample_memberships((1 / 3 - delta, 1 / 3, 1 / 3 + delta), 30_000,
                               np.random.default_rng(11))
        freqs = np.bincount(z, minlength=4)[1:] / 30_000
        assert np.allclose(freqs, [1 / 3 - delta, 1 / 3, 1 / 3 + delta], atol=0.01)

    def test_rejects_a_two_dimensional_pi(self):
        with pytest.raises(ValueError, match="^pi must be a 1-d probability vector$"):
            sample_memberships(np.full((1, 2), 0.5), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("z, message", [
        (np.ones((2, 2)), "labels must be 1-d"),
        ([0, 1], r"labels must lie in 1\.\.2"),
        ([1, 3], r"labels must lie in 1\.\.2"),
    ], ids=["2d", "zero", "above_k"])
    def test_validate_labels_rejects(self, z, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_labels(z, 2)

    def test_rejects_bad_pi(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_memberships((0.5, 0.6), 10, rng)
        with pytest.raises(ValueError):
            sample_memberships((-0.1, 1.1), 10, rng)

    def test_reproducible(self):
        a = sample_memberships((0.2, 0.8), 1000, np.random.default_rng(3))
        b = sample_memberships((0.2, 0.8), 1000, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestGenerateAdjacency:
    def test_zero_matrix_gives_empty_graph(self):
        z = np.array([1, 1, 2, 2])
        g = generate_adjacency(z, block_matrix(0.0, 0.0, 2),
                               np.random.default_rng(0))
        assert g.n_edges == 0

    def test_all_ones_gives_complete_graph(self):
        z = np.ones(30, dtype=np.int64)
        g = generate_adjacency(z, block_matrix(1.0, 1.0, 1),
                               np.random.default_rng(0))
        assert g.n_edges == 30 * 29 // 2

    def test_edge_count_matches_binomial_moments(self):
        # N=100, all probabilities 0.5: E = 2475, sigma = sqrt(2475*0.25*...)
        # per draw; mean over fixed seeds concentrates further.
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 100,
                               np.random.default_rng(0))
        B = block_matrix(0.5, 1.0, 3)
        expected = 0.5 * 100 * 99 / 2
        sigma = np.sqrt(expected * 0.5)
        counts = []
        for seed in range(10):
            g = generate_adjacency(z, B, np.random.default_rng(seed))
            counts.append(g.n_edges)
            assert abs(g.n_edges - expected) < 4 * sigma
        assert abs(np.mean(counts) - expected) < 3 * sigma / np.sqrt(10)

    def test_output_satisfies_graph_invariants(self):
        rng = np.random.default_rng(5)
        z = sample_memberships((0.5, 0.3, 0.2), 60, rng)
        g = generate_adjacency(z, block_matrix(0.4, 0.2, 3), rng)
        check_graph_invariants(g)

    def test_determinism(self):
        z = sample_memberships((0.5, 0.5), 200, np.random.default_rng(1))
        B = block_matrix(0.2, 0.1, 2)
        g1 = generate_adjacency(z, B, np.random.default_rng(42))
        g2 = generate_adjacency(z, B, np.random.default_rng(42))
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

    def test_empirical_block_rates(self):
        # Within- and between-block edge rates stay within 4 binomial
        # sigmas of the planted probabilities at N=2000.
        rng = np.random.default_rng(123)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 2000, rng)
        beta, zeta = 0.1, 0.3
        B = block_matrix(beta, zeta, 3)
        g = generate_adjacency(z, B, rng)
        adj = to_csr(g).toarray()
        for k in range(1, 4):
            for k2 in range(k, 4):
                mask_k = z == k
                mask_k2 = z == k2
                block = adj[np.ix_(mask_k, mask_k2)]
                if k == k2:
                    nk = mask_k.sum()
                    pairs = nk * (nk - 1) / 2
                    observed = block.sum() / 2
                else:
                    pairs = mask_k.sum() * mask_k2.sum()
                    observed = block.sum()
                p = B.probs[k - 1, k2 - 1]
                sigma = np.sqrt(pairs * p * (1 - p))
                assert abs(observed - pairs * p) < 4 * sigma


class TestPopulationAdjacency:
    def test_single_block_constant(self):
        z = np.ones(6, dtype=np.int64)
        a = population_adjacency(z, block_matrix(0.3, 0.0, 1))
        assert np.allclose(a, 0.3)

    def test_two_block_pattern(self):
        z = np.array([1, 1, 2, 2])
        B = block_matrix(0.5, 0.2, 2)  # a=0.5, b=0.1
        a = population_adjacency(z, B)
        assert np.allclose(a[:2, :2], 0.5)
        assert np.allclose(a[2:, 2:], 0.5)
        assert np.allclose(a[:2, 2:], 0.1)

    def test_matches_triple_product_oracle(self):
        rng = np.random.default_rng(2)
        z = sample_memberships((0.25, 0.5, 0.25), 40, rng)
        B = block_matrix(0.7, 0.4, 3)
        a = population_adjacency(z, B)
        Z = membership_matrix(z, 3)
        assert np.allclose(a, Z @ B.probs @ Z.T, atol=0, rtol=0)

    def test_rows_within_block_identical(self):
        rng = np.random.default_rng(3)
        z = sample_memberships((0.5, 0.5), 20, rng)
        a = population_adjacency(z, block_matrix(0.6, 0.3, 2))
        assert np.allclose(a, a.T)
        i, j = np.flatnonzero(z == 1)[:2]
        assert np.array_equal(a[i], a[j])

    def test_population_bi_adjacency_slices_columns(self):
        rng = np.random.default_rng(4)
        z = sample_memberships((0.5, 0.5), 12, rng)
        B = block_matrix(0.8, 0.25, 2)
        full = population_adjacency(z, B)
        sample = [0, 5, 7]
        assert np.array_equal(population_bi_adjacency(z, B, sample),
                              full[:, sample])


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        z = np.array([1, 3, 2, 2, 1])
        path = tmp_path / "labels.txt"
        write_labels(z, path)
        assert path.read_text() == "0 1\n1 3\n2 2\n3 2\n4 1\n"
        assert np.array_equal(read_labels(path), z)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# node label\n2 3\n0 1\n1 2\n")
        assert read_labels(path).tolist() == [1, 2, 3]

    @pytest.mark.parametrize("text", [
        "0 1\n2 3\n",        # node 1 missing
        "0 1\n0 2\n1 1\n",  # node 0 twice
        "1 1\n2 2\n",        # ids start at 1
        "-1 1\n0 2\n",
        "# nothing\n",
    ])
    def test_rejects_ids_other_than_each_node_once(self, tmp_path, text):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=str(path)):
            read_labels(path)


@given(st.integers(0, 2**32 - 1), st.integers(10, 60))
@settings(max_examples=25, deadline=None)
def test_generated_graphs_always_valid(seed, n):
    rng = np.random.default_rng(seed)
    z = sample_memberships((0.4, 0.6), n, rng)
    g = generate_adjacency(z, block_matrix(0.3, 0.5, 2), rng)
    check_graph_invariants(g)
