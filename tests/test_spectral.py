import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from sscluster import spectral
from sscluster.errors import DegenerateInputError, ResourceLimitError
from sscluster.graph import bi_adjacency, from_edge_list
from sscluster.metrics import misclustered_rate
from sscluster.sbm import block_matrix, generate_adjacency, sample_memberships
from sscluster.sampling import srs
from sscluster.spectral import (
    FullLaplacian,
    embed,
    full_embed,
    full_laplacian,
    gram,
    select_k,
    subsampled_laplacian,
    subsampled_spectrum,
    symmetric_eig,
)

from conftest import edge_lists
from oracles import (
    full_laplacian_by_diagonal_products,
    normalize_bi_adjacency,
    population_bi_adjacency,
    procrustes_distance,
    projection_distance,
    to_csc,
)

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def dense_projection_distance(a, b):
    """|| a a^T - b b^T ||_F from the projectors themselves: exact down to
    rounding, where ``projection_distance``'s difference of squares
    bottoms out near sqrt(machine epsilon)."""
    return float(np.linalg.norm(a @ a.T - b @ b.T))


def path4():
    return from_edge_list([(0, 1), (1, 2), (2, 3)], 4)


class TestSubsampledLaplacian:
    def test_path_hand_computation(self):
        # Path 0-1-2-3 with sample {1, 2}: every row touches the sample
        # once, both columns have degree 2, so nonzeros are 1/sqrt(2).
        g = path4()
        ls = subsampled_laplacian(bi_adjacency(g, [1, 2]))
        dense = ls.matrix.toarray()
        expected = np.array([[1, 0], [0, 1], [1, 0], [0, 1]]) / np.sqrt(2)
        assert np.allclose(dense, expected)
        assert ls.n_zero_rows == 0

    def test_full_sample_equals_full_laplacian(self):
        rng = np.random.default_rng(0)
        z = sample_memberships((0.5, 0.5), 40, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.2, 2), rng)
        ls = subsampled_laplacian(bi_adjacency(g, list(range(40))))
        full = full_laplacian(g)
        assert np.allclose(ls.matrix.toarray(), full.matrix.toarray())

    def test_isolate_gives_zero_row(self):
        g = from_edge_list([(0, 1), (1, 2)], 4)  # node 3 isolated
        ls = subsampled_laplacian(bi_adjacency(g, [0, 1]))
        assert ls.n_zero_rows >= 1
        assert np.all(ls.matrix.toarray()[3] == 0)

    def test_all_zero_rejected(self):
        g = from_edge_list([(0, 1)], 4)
        with pytest.raises(DegenerateInputError):
            subsampled_laplacian(bi_adjacency(g, [2, 3]))

    def test_singular_values_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            r = np.random.default_rng(seed)
            z = sample_memberships((0.3, 0.7), 60, r)
            g = generate_adjacency(z, block_matrix(0.4, 0.3, 2), r)
            s = srs(60, 15, r)
            ls = subsampled_laplacian(bi_adjacency(g, s))
            smax = np.linalg.svd(ls.matrix.toarray(), compute_uv=False)[0]
            assert smax <= 1 + 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_general_normalizer(self, seed):
        r = np.random.default_rng(seed)
        z = sample_memberships((0.2, 0.3, 0.5), 900, r)
        g = generate_adjacency(z, block_matrix(0.02, 0.05, 3), r)
        b = bi_adjacency(g, srs(900, 60, r))
        fast, general = subsampled_laplacian(b), normalize_bi_adjacency(to_csc(b))
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(fast.matrix, attr), getattr(general.matrix, attr)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), attr
        assert fast.n_zero_rows == general.n_zero_rows > 0


class TestGram:
    def test_path_example_is_identity(self):
        g = path4()
        ls = subsampled_laplacian(bi_adjacency(g, [1, 2]))
        assert np.allclose(gram(ls), np.eye(2))

    def test_orthonormal_columns_give_identity(self):
        m = np.array([[1.0, 0], [0, 1], [0, 0]])
        ls = normalize_bi_adjacency(m)
        # Unit rows and columns: normalization keeps the matrix as is.
        assert np.allclose(gram(ls), np.eye(2))

    def test_matches_dense_multiply_oracle(self):
        rng = np.random.default_rng(2)
        z = sample_memberships((0.5, 0.5), 50, rng)
        g = generate_adjacency(z, block_matrix(0.6, 0.2, 2), rng)
        s = srs(50, 12, rng)
        ls = subsampled_laplacian(bi_adjacency(g, s))
        dense = ls.matrix.toarray()
        assert np.allclose(gram(ls), dense.T @ dense, atol=1e-12)

    def test_symmetry_tolerance(self):
        rng = np.random.default_rng(3)
        z = sample_memberships((0.5, 0.5), 80, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.3, 2), rng)
        s = srs(80, 20, rng)
        m = gram(subsampled_laplacian(bi_adjacency(g, s)))
        assert np.abs(m - m.T).max() <= 1e-12

    def test_resource_guard(self, monkeypatch):
        m = sp.eye(10, 6, format="csc")
        ls = normalize_bi_adjacency(m)
        monkeypatch.setattr(spectral, "GRAM_DENSE_GUARD", 5)
        with pytest.raises(ResourceLimitError):
            gram(ls)


class TestSymmetricEig:
    def test_identity(self):
        w, v = symmetric_eig(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(v @ v.T, np.eye(4), atol=1e-12)

    def test_diagonal_ordering(self):
        w, v = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3, 2, 1])
        assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 20))
        m = (a + a.T) / 2
        w, v = symmetric_eig(m)
        assert np.linalg.norm(m - v @ np.diag(w) @ v.T) <= 1e-8 * np.linalg.norm(m)
        # Residual check per pair and orthonormality.
        for i in range(20):
            assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-8 * np.linalg.norm(m)
        assert np.abs(v.T @ v - np.eye(20)).max() <= 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            symmetric_eig(np.array([[0.0, 1.0], [1.0, np.nan]]))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("skew", [0.0, 1e-10])
    def test_never_writes_into_the_callers_array(self, order, skew):
        # The solve overwrites the array it is given; that must be a copy,
        # whether or not the input needed symmetrizing.
        rng = np.random.default_rng(16)
        a = rng.normal(size=(12, 12))
        m = np.array((a + a.T) / 2, order=order)
        m[0, 1] += skew
        before = m.copy(order="A")
        symmetric_eig(m)
        symmetric_eig(m, 3)
        assert np.array_equal(m, before)

    def test_top_k_is_head_of_full_solve(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(30, 30))
        m = (a + a.T) / 2
        w, v = symmetric_eig(m)
        wk, vk = symmetric_eig(m, 4)
        assert wk.shape == (4,) and vk.shape == (30, 4)
        assert np.abs(wk - w[:4]).max() <= 1e-12
        assert dense_projection_distance(vk, v[:, :4]) <= 1e-8

    @pytest.mark.parametrize("failure", ["short", "raises"])
    def test_failed_top_k_solve_falls_back_to_the_full_solve(self, monkeypatch,
                                                             failure):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(30, 30))
        m = (a + a.T) / 2
        w, v = symmetric_eig(m)
        eigh, subsets = scipy.linalg.eigh, []

        def failing(a, subset_by_index=None, **kw):
            subsets.append(subset_by_index)
            if subset_by_index is None:
                return eigh(a, **kw)
            if failure == "raises":
                raise np.linalg.LinAlgError("Internal Error")
            vals, vecs = eigh(a, subset_by_index=subset_by_index, **kw)
            return vals[1:], vecs[:, 1:]
        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        wk, vk = symmetric_eig(m, 4)
        assert subsets == [[26, 29], None]
        assert np.array_equal(wk, w[:4]) and np.array_equal(vk, v[:, :4])

    def test_top_eigenvalue_of_high_multiplicity(self):
        # The Gram matrix of a 500-node srs sample of a 1M-node graph (beta
        # 5e-5, seed 7; sample seed 1): eigenvalue 1 has multiplicity 463,
        # and LAPACK's subset solve for the top 3 pairs returns none.
        z = np.load(DATA / "degenerate_gram.npz")
        m = sp.coo_matrix((z["data"], (z["row"], z["col"])), shape=(500, 500)).toarray()
        w, v = symmetric_eig(m, 3)
        assert w.shape == (3,) and v.shape == (500, 3)
        assert np.abs(w - symmetric_eig(m)[0][:3]).max() <= 1e-12
        assert np.abs(w - 1.0).max() <= 1e-12
        assert np.abs(m @ v - v * w).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-12

    def test_full_solve_failure_propagates(self, monkeypatch):
        def failing(a, **kw):
            raise np.linalg.LinAlgError("Internal Error")
        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        with pytest.raises(np.linalg.LinAlgError, match="^Internal Error$"):
            symmetric_eig(np.eye(4))

    def test_same_bits_at_any_thread_count_up_to_the_cut_off(self):
        # A Gram matrix of SERIAL_EIG_MAX rows: an srs sample of an N=4000,
        # beta=0.05, zeta=0.3 SBM, seed 3, solved in fresh processes under
        # OPENBLAS_NUM_THREADS=1 and under the default thread count.
        code = """if True:
            import hashlib
            import numpy as np
            from sscluster import sbm, spectral
            from sscluster.graph import bi_adjacency
            from sscluster.sampling import srs
            rng = np.random.default_rng(3)
            z = sbm.sample_memberships(np.full(3, 1 / 3), 4000, rng)
            g = sbm.generate_adjacency(z, sbm.block_matrix(0.05, 0.3, 3), rng)
            ids = srs(4000, spectral.SERIAL_EIG_MAX, rng)
            m = spectral.gram(spectral.subsampled_laplacian(bi_adjacency(g, ids)))
            for k in (3, None):
                w, v = spectral.symmetric_eig(m, k)
                print(hashlib.md5(w.tobytes() + v.tobytes()).hexdigest())
        """
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        one, default = (
            subprocess.run([sys.executable, "-c", code], env=run_env, check=True,
                           capture_output=True, text=True).stdout
            for run_env in ({**env, "OPENBLAS_NUM_THREADS": "1"}, env))
        assert len(one.split()) == 2
        assert one == default

    def test_one_blas_thread_only_up_to_the_cut_off(self, monkeypatch):
        limits = []
        real = spectral.blas.threads
        monkeypatch.setattr(spectral.blas, "threads",
                            lambda n: limits.append(n) or real(n))
        monkeypatch.setattr(spectral, "SERIAL_EIG_MAX", 4)
        symmetric_eig(np.eye(4))
        assert limits == [1]
        symmetric_eig(np.eye(5), 2)
        assert limits == [1]


class TestEmbed:
    def test_full_sample_matches_full_sc_subspace(self):
        rng = np.random.default_rng(5)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 90, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.05, 3), rng)
        ls = subsampled_laplacian(bi_adjacency(g, list(range(90))))
        emb = embed(ls, 3)
        base = full_embed(full_laplacian(g), 3)
        assert projection_distance(emb.matrix, base.matrix) <= 1e-6

    def test_population_input_has_k_distinct_rows(self):
        rng = np.random.default_rng(6)
        z = np.repeat([1, 2, 3], [120, 100, 80])
        B = block_matrix(0.3, 0.1, 3)
        sample = srs(300, 40, rng)
        ls = normalize_bi_adjacency(population_bi_adjacency(z, B, sample))
        emb = embed(ls, 3)
        # Rows within a block coincide; rows across blocks stay separated.
        for k in (1, 2, 3):
            rows = emb.matrix[z == k]
            assert np.abs(rows - rows[0]).max() <= 1e-8
        reps = np.stack([emb.matrix[z == k][0] for k in (1, 2, 3)])
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(reps[a] - reps[b]) >= 1e-3

    def test_population_single_linkage_recovers_blocks(self):
        rng = np.random.default_rng(7)
        z = np.repeat([1, 2, 3], [50, 30, 20])
        B = block_matrix(0.4, 0.15, 3)
        sample = srs(100, 25, rng)
        ls = normalize_bi_adjacency(population_bi_adjacency(z, B, sample))
        emb = embed(ls, 3)
        # Single linkage at threshold 1e-6 = connected components of the
        # thresholded distance graph.
        d = np.linalg.norm(emb.matrix[:, None] - emb.matrix[None], axis=2)
        ncomp, comp = connected_components(sp.csr_matrix(d <= 1e-6))
        assert ncomp == 3
        assert misclustered_rate(comp + 1, z, 3) == 0.0

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(8)
        z = sample_memberships((0.5, 0.5), 70, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.2, 2), rng)
        s = srs(70, 20, rng)
        emb = embed(subsampled_laplacian(bi_adjacency(g, s)), 2)
        gram_u = emb.matrix.T @ emb.matrix
        assert np.allclose(gram_u, np.eye(2), atol=1e-8)

    def test_rank_deficient_pads_with_zeros(self):
        # Duplicate columns only: rank 1, so K=2 leaves a zero column.
        m = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        ls = normalize_bi_adjacency(m)
        emb = embed(ls, 2)
        assert emb.rank == 1
        assert emb.rank_deficient
        assert np.all(emb.matrix[:, 1] == 0)

    def test_k_above_n_rejected(self):
        g = path4()
        ls = subsampled_laplacian(bi_adjacency(g, [1, 2]))
        with pytest.raises(ValueError):
            embed(ls, 3)

    @staticmethod
    def _two_block_laplacian():
        rng = np.random.default_rng(16)
        z = sample_memberships((0.5, 0.5), 80, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.1, 2), rng)
        return subsampled_laplacian(bi_adjacency(g, srs(80, 20, rng)))

    def test_auto_k_lifts_from_the_one_full_solve(self, monkeypatch):
        ls = self._two_block_laplacian()
        values, vectors = subsampled_spectrum(ls)
        K = select_k(values)
        solve, asked = spectral.symmetric_eig, []
        monkeypatch.setattr(spectral, "symmetric_eig",
                            lambda m, k=None: asked.append(k) or solve(m, k))
        emb = embed(ls, "auto")
        assert asked == [None]
        assert K == 2
        assert np.array_equal(emb.eigenvalues, values[:K])
        lift = vectors[:, :K] * (1.0 / np.sqrt(values[:K]))
        assert np.array_equal(emb.matrix, ls.matrix @ lift)

    def test_fixed_k_solves_only_the_top_pairs(self, monkeypatch):
        ls = self._two_block_laplacian()
        values, vectors = subsampled_spectrum(ls)
        full = ls.matrix @ (vectors[:, :2] * (1.0 / np.sqrt(values[:2])))
        solve, asked = spectral.symmetric_eig, []
        monkeypatch.setattr(spectral, "symmetric_eig",
                            lambda m, k=None: asked.append(k) or solve(m, k))
        fresh = embed(ls, 2)
        assert asked == [2]
        assert np.abs(fresh.eigenvalues - values[:2]).max() <= 1e-12
        assert projection_distance(fresh.matrix, full) <= 1e-10


class TestFullLaplacian:
    def test_k2(self):
        g = from_edge_list([(0, 1)], 2)
        assert np.allclose(full_laplacian(g).matrix.toarray(), [[0, 1], [1, 0]])

    def test_complete_graph(self):
        n = 6
        g = from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)], n)
        lap = full_laplacian(g).matrix.toarray()
        expected = (np.ones((n, n)) - np.eye(n)) / (n - 1)
        assert np.allclose(lap, expected)

    def test_empty_graph(self):
        g = from_edge_list([], 4)
        assert np.all(full_laplacian(g).matrix.toarray() == 0)

    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_diagonal_product_oracle(self, case):
        pairs, n = case
        g = from_edge_list(pairs, n + 2)  # the last two nodes are isolated
        got = full_laplacian(g).matrix
        want = full_laplacian_by_diagonal_products(g)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(9)
        z = sample_memberships((0.5, 0.5), 40, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.3, 2), rng)
        w, _ = symmetric_eig(full_laplacian(g).matrix.toarray())
        assert w.max() <= 1 + 1e-10 and w.min() >= -1 - 1e-10

    @pytest.mark.parametrize("graph", ["sbm", "components"])
    def test_equals_its_transpose_bit_for_bit(self, graph):
        # full_embed hands the matrix to ARPACK with no symmetry check.
        if graph == "sbm":
            rng = np.random.default_rng(36)
            z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 300, rng)
            g = generate_adjacency(z, block_matrix(0.3, 0.05, 3), rng)
        else:
            g = components_graph()
        m = full_laplacian(g).matrix
        mt = m.T.tocsr()
        assert m.has_canonical_format
        assert np.array_equal(m.indptr, mt.indptr)
        assert np.array_equal(m.indices, mt.indices)
        assert m.data.tobytes() == mt.data.tobytes()


class TestSymmetryCheck:
    MESSAGE = f"matrix is not symmetric within {spectral.SYMMETRY_ATOL}"

    def test_asymmetry_within_tolerance_is_averaged(self):
        d = np.array([[0.0, 1.0, 0.0], [1.0 + 1e-10, 0.0, 2.0], [0.0, 2.0, 1.0]])
        w, v = symmetric_eig(d)
        want_w, want_v = symmetric_eig((d + d.T) / 2)
        assert w.tobytes() == want_w.tobytes()
        assert v.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("d", [
        [[0.0, 1.0], [1.0 + 2e-8, 0.0]],     # past the tolerance
        [[0.0, 1.0], [1.0, np.nan]],         # NaN on the diagonal
        [[0.0, np.nan], [np.nan, 0.0]],      # NaN in a symmetric pair
    ])
    # "list" hands over the nested list itself, which np.asarray takes too.
    @pytest.mark.parametrize("kind", ["dense", "list"])
    def test_rejection_message(self, d, kind):
        m = np.array(d) if kind == "dense" else d
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            symmetric_eig(m)

    @pytest.mark.parametrize("kind", ["dense", "list"])
    def test_non_square_rejected(self, kind):
        m = np.ones((2, 3)) if kind == "dense" else [[1.0, 1.0, 1.0]] * 2
        with pytest.raises(ValueError, match="^input must be a square matrix$"):
            symmetric_eig(m)

    def test_sparse_input_rejected(self):
        with pytest.raises(TypeError, match=re.escape(".toarray()")):
            symmetric_eig(sp.eye(3, format="csr"))


def components_graph():
    """Three dense random blocks (0-29, 30-69, 70-89) and ten isolated nodes
    (90-99): eigenvalue 1 of the Laplacian has multiplicity 3 and the
    isolated rows are zero."""
    rng = np.random.default_rng(1)
    edges = [(i, j)
             for lo, hi in ((0, 30), (30, 70), (70, 90))
             for i in range(lo, hi) for j in range(i + 1, hi)
             if rng.random() < 0.3]
    return from_edge_list(edges, 100)


def dense_top(lap, K):
    """Oracle: every eigenpair of the dense Laplacian, then the top K."""
    w, v = np.linalg.eigh(lap.matrix.toarray())
    return w[::-1][:K], v[:, ::-1][:, :K]


class TestFullEmbed:
    def test_identity_matrix(self):
        emb = full_embed(FullLaplacian(sp.eye(5, format="csr")), 3)
        assert np.allclose(emb.eigenvalues, 1.0)

    def test_diagonal(self):
        emb = full_embed(FullLaplacian(sp.diags([3.0, 1.0, 2.0]).tocsr()), 2)
        assert np.allclose(emb.eigenvalues, [3, 2])
        assert np.allclose(np.abs(emb.matrix), np.eye(3)[:, [0, 2]], atol=1e-12)

    def test_reconstruction_on_graph(self):
        rng = np.random.default_rng(10)
        z = sample_memberships((0.5, 0.5), 50, rng)
        g = generate_adjacency(z, block_matrix(0.6, 0.2, 2), rng)
        lap = full_laplacian(g)
        emb = full_embed(lap, 50)
        rebuilt = emb.matrix @ np.diag(emb.eigenvalues) @ emb.matrix.T
        dense = lap.matrix.toarray()
        assert np.linalg.norm(rebuilt - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            full_embed(FullLaplacian(sp.eye(3, format="csr")), 4)

    @pytest.mark.parametrize("seed, K", [(30, 2), (31, 3), (32, 3), (33, 4)])
    def test_top_k_matches_full_spectrum_oracle(self, seed, K):
        # The Lanczos solve against every eigenpair of the dense Laplacian.
        rng = np.random.default_rng(seed)
        z = sample_memberships(tuple([1.0 / K] * K), 240, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.05, K), rng)
        lap = full_laplacian(g)
        w, v = dense_top(lap, K + 1)
        assert w[K - 1] - w[K] > 0.1  # a clear gap at K
        emb = full_embed(lap, K)
        assert emb.matrix.shape == (240, K)
        assert np.abs(emb.eigenvalues - w[:K]).max() <= 1e-12
        assert dense_projection_distance(emb.matrix, v[:, :K]) <= 1e-8

    @pytest.mark.parametrize("K", [3, 4])
    def test_repeated_eigenvalue_matches_oracle(self, K):
        # One Krylov space holds a single direction of a repeated
        # eigenvalue; every copy must still come back.
        lap = full_laplacian(components_graph())
        w, v = dense_top(lap, K + 1)
        assert np.allclose(w[:3], 1.0) and w[K - 1] - w[K] > 0.01
        emb = full_embed(lap, K)
        assert np.abs(emb.eigenvalues - w[:K]).max() <= 1e-12
        assert dense_projection_distance(emb.matrix, v[:, :K]) <= 1e-8

    def test_runs_at_any_n(self):
        # No size guard: the identity at N=100, where eigenvalue 1 fills
        # the whole space.
        emb = full_embed(FullLaplacian(sp.eye(100, format="csr")), 2)
        assert np.abs(emb.eigenvalues - 1.0).max() <= 1e-12
        assert np.abs(emb.matrix.T @ emb.matrix - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("K, dense_calls", [(50, 1), (49, 0), (48, 0)])
    def test_dense_solve_only_where_arpack_cannot_run(self, monkeypatch,
                                                      K, dense_calls):
        # ARPACK needs K < N; K = N is the dense solve, K = N - 1 is not.
        rng = np.random.default_rng(12)
        z = sample_memberships((0.5, 0.5), 50, rng)
        lap = full_laplacian(generate_adjacency(z, block_matrix(0.6, 0.2, 2), rng))
        calls = []
        solve = spectral.symmetric_eig
        monkeypatch.setattr(spectral, "symmetric_eig",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        emb = full_embed(lap, K)
        assert len(calls) == dense_calls
        w, _ = dense_top(lap, K)
        assert np.abs(emb.eigenvalues - w).max() <= 1e-12
        assert np.abs(emb.matrix.T @ emb.matrix - np.eye(K)).max() <= 1e-12

    @pytest.mark.parametrize("graph", ["sbm", "components"])
    def test_auto_k_is_the_eigengap_head_of_one_solve(self, graph):
        if graph == "sbm":
            rng = np.random.default_rng(41)
            z = sample_memberships((0.3, 0.3, 0.4), 240, rng)
            lap = full_laplacian(generate_adjacency(z, block_matrix(0.3, 0.05, 3), rng))
        else:
            lap = full_laplacian(components_graph())
        emb = full_embed(lap, "auto")
        K = select_k(np.linalg.eigvalsh(lap.matrix.toarray())[::-1])
        assert emb.matrix.shape == (lap.matrix.shape[0], K)
        assert emb.rank == K
        top = full_embed(lap, min(lap.matrix.shape[0], spectral.SELECT_K_MAX + 1))
        assert np.array_equal(emb.matrix, top.matrix[:, :K])
        assert np.array_equal(emb.eigenvalues, top.eigenvalues[:K])

    def test_auto_k_takes_the_dense_route_at_small_n(self, monkeypatch):
        # At N <= SELECT_K_MAX + 1 the auto solve asks for all N pairs.
        rng = np.random.default_rng(42)
        z = sample_memberships((0.5, 0.5), 40, rng)
        lap = full_laplacian(generate_adjacency(z, block_matrix(0.6, 0.1, 2), rng))
        solve, asked = spectral.symmetric_eig, []
        monkeypatch.setattr(spectral, "symmetric_eig",
                            lambda m, k=None: asked.append(k) or solve(m, k))
        emb = full_embed(lap, "auto")
        assert asked == [40]
        w, _ = dense_top(lap, 40)
        K = select_k(w)
        assert emb.matrix.shape == (40, K)
        assert np.abs(emb.eigenvalues - w[:K]).max() <= 1e-12

    @pytest.mark.parametrize("matrix", ["sbm", "components", "identity"])
    def test_bitwise_reproducible(self, matrix):
        # On the identity the first Krylov space is one-dimensional, so
        # ARPACK also asks for restart vectors.
        if matrix == "sbm":
            rng = np.random.default_rng(35)
            z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 300, rng)
            lap = full_laplacian(generate_adjacency(z, block_matrix(0.3, 0.05, 3), rng))
        elif matrix == "components":
            lap = full_laplacian(components_graph())
        else:
            lap = FullLaplacian(sp.eye(100, format="csr"))
        first = full_embed(lap, 4)
        # An unrelated ARPACK solve in between must not change the result.
        other = sp.random(80, 80, density=0.1, random_state=0)
        scipy.sparse.linalg.eigsh(other + other.T, k=3)
        second = full_embed(lap, 4)
        assert np.array_equal(first.matrix, second.matrix)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    @pytest.mark.parametrize("K", [1, "auto"])
    def test_graph_without_edges_is_degenerate(self, K):
        # ARPACK fails on an all-zero matrix; the check comes before it.
        lap = full_laplacian(from_edge_list([], 8))
        with pytest.raises(DegenerateInputError):
            full_embed(lap, K)

    def test_peak_memory_holds_no_dense_copy(self):
        # Lanczos works on the sparse matrix and N x ncv vectors: its peak
        # stays far below one N x N float64 array.
        rng = np.random.default_rng(34)
        N = 3000
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), N, rng)
        lap = full_laplacian(generate_adjacency(z, block_matrix(0.02, 0.05, 3), rng))
        tracemalloc.start()
        try:
            full_embed(lap, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * N ** 2 * 8


class TestSelectK:
    def test_gap_by_inspection(self):
        assert select_k(np.array([0.9, 0.8, 0.75, 0.2, 0.1])) == 3

    def test_first_gap_dominates(self):
        assert select_k(np.array([1.0, 0.2, 0.19, 0.18])) == 1

    def test_tie_breaks_to_smallest_k(self):
        assert select_k(np.array([1.0, 0.5, 0.0])) == 1

    def test_planted_k_on_population_spectrum(self):
        rng = np.random.default_rng(12)
        z = np.repeat([1, 2, 3], 60)
        B = block_matrix(0.4, 0.1, 3)
        sample = srs(180, 30, rng)
        ls = normalize_bi_adjacency(population_bi_adjacency(z, B, sample))
        assert select_k(subsampled_spectrum(ls)[0]) == 3

    def test_planted_k_on_strong_empirical_graph(self):
        rng = np.random.default_rng(13)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), 600, rng)
        g = generate_adjacency(z, block_matrix(0.5, 0.05, 3), rng)
        s = srs(600, 80, rng)
        ls = subsampled_laplacian(bi_adjacency(g, s))
        assert select_k(subsampled_spectrum(ls)[0]) == 3

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            select_k(np.array([1.0]))

    @pytest.mark.parametrize("k_big, expected", [
        (spectral.SELECT_K_MAX, spectral.SELECT_K_MAX),
        (spectral.SELECT_K_MAX + 1, 1),  # past the window: ignored
    ])
    def test_window_ends_at_select_k_max(self, k_big, expected):
        # Even gaps, a larger one at k = 1 and the largest at k = k_big.
        values = np.linspace(1.0, 0.5, spectral.SELECT_K_MAX + 5)
        values[1:] -= 0.01
        values[k_big:] -= 0.1
        assert select_k(values) == expected


class TestSpectrumClipping:
    def test_unsorted_values_rejected(self):
        with pytest.raises(ValueError, match="^eigenvalues must be sorted descending$"):
            spectral._clip_psd(np.array([1.0, 2.0]))

    def test_tiny_negatives_clipped(self):
        values = spectral._clip_psd(np.array([1.0, 1e-13, -1e-12]))
        assert np.all(values >= 0)

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            spectral._clip_psd(np.array([1.0, -1e-6]))


class TestEmbeddingConvergence:
    def test_distance_to_population_shrinks_with_sample_size(self):
        # Smoke-scale version of the convergence trend: the Procrustes
        # distance between empirical and population embeddings has
        # non-increasing median as the subsample grows.
        N, K = 600, 3
        rng = np.random.default_rng(14)
        z = sample_memberships((1 / 3, 1 / 3, 1 / 3), N, rng)
        B = block_matrix(0.5, 0.05, K)
        grid = (40, 80, 160)
        medians = []
        for n in grid:
            dists = []
            for seed in range(10):
                r = np.random.default_rng(seed)
                g = generate_adjacency(z, B, r)
                s = srs(N, n, r)
                emp = embed(subsampled_laplacian(bi_adjacency(g, s)), K)
                pop = embed(normalize_bi_adjacency(
                    population_bi_adjacency(z, B, s)), K)
                dists.append(procrustes_distance(emp.matrix, pop.matrix))
            medians.append(np.median(dists))
        assert medians[0] >= medians[1] >= medians[2]
