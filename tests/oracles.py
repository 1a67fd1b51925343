"""Reference code the tests compare the library against.

None of it is on the clustering pipeline: scipy sparse matrices of a
graph and of a bi-adjacency, the graph build on int64 keys at every node
count, a degree normalizer for any nonnegative matrix, the
full Laplacian by sparse diagonal products, an all-dense top-K
embedding, the population (expected) matrices of an SBM, subspace
distances between embeddings, a confusion matrix, a brute-force
misclustered rate and an edge lookup. Each is written as plainly as
possible, so that a test comparing a library route with it checks the
route against an independent statement of the same quantity.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import scipy.sparse as sp

from sscluster.errors import DegenerateInputError
from sscluster.graph import BiAdjacency, SparseGraph
from sscluster.sbm import BlockMatrix, validate_labels
from sscluster.spectral import SubsampledLaplacian


def to_csr(g: SparseGraph) -> sp.csr_matrix:
    """The N x N 0/1 adjacency matrix of ``g`` on its own arrays."""
    data = np.ones(len(g.indices), dtype=np.float64)
    return sp.csr_matrix((data, g.indices, g.indptr), shape=(g.n_nodes, g.n_nodes))


def to_csc(ba: BiAdjacency) -> sp.csc_matrix:
    """The N x n 0/1 bi-adjacency matrix of ``ba`` on its own arrays."""
    data = np.ones(len(ba.row_indices), dtype=np.float64)
    return sp.csc_matrix((data, ba.row_indices, ba.col_indptr),
                         shape=(ba.n_rows, ba.n_cols))


def normalize_bi_adjacency(mat) -> SubsampledLaplacian:
    """Degree-normalize any nonnegative N x n matrix (sparse or dense),
    by sparse diagonal products on its CSC form."""
    mat = sp.csc_matrix(mat, dtype=np.float64)
    row_deg = np.asarray(mat.sum(axis=1)).ravel()
    col_deg = np.asarray(mat.sum(axis=0)).ravel()
    if row_deg.sum() == 0:
        raise DegenerateInputError("bi-adjacency is all zero; nothing to normalize")
    with np.errstate(divide="ignore"):
        r = np.where(row_deg > 0, 1.0 / np.sqrt(row_deg), 0.0)
        c = np.where(col_deg > 0, 1.0 / np.sqrt(col_deg), 0.0)
    return SubsampledLaplacian(matrix=(sp.diags(r) @ mat @ sp.diags(c)).tocsc(),
                               n_zero_rows=int((row_deg == 0).sum()))


def full_laplacian_by_diagonal_products(g) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} of the SparseGraph g as two sparse diagonal
    products, with 0 in place of d^{-1/2} for isolated nodes."""
    d = np.diff(g.indptr).astype(np.float64)
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, 1.0 / np.sqrt(d), 0.0)
    return (sp.diags(dinv) @ to_csr(g) @ sp.diags(dinv)).tocsr()


def population_embedding(P: np.ndarray, K: int, tol: float = 1e-10) -> np.ndarray:
    """Top-K embedding L V_K pinv(Lambda_K^{1/2}) of a dense N x n matrix,
    all in dense arithmetic: degree-normalize, form the Gram matrix L^T L,
    solve it with ``np.linalg.eigh`` and lift. Eigenvalues at or below
    tol * lambda_1 zero their column, as in the library's ``embed``."""
    P = np.asarray(P, dtype=np.float64)
    row_deg, col_deg = P.sum(axis=1), P.sum(axis=0)
    with np.errstate(divide="ignore"):
        r = np.where(row_deg > 0, 1.0 / np.sqrt(row_deg), 0.0)
        c = np.where(col_deg > 0, 1.0 / np.sqrt(col_deg), 0.0)
    L = r[:, None] * P * c[None, :]
    w, v = np.linalg.eigh(L.T @ L)
    top, vk = w[::-1][:K], v[:, ::-1][:, :K]
    keep = top > (tol * top[0] if top[0] > 0 else 0.0)
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, top, 1.0)), 0.0)
    return L @ (vk * inv_sqrt[None, :])


# ---------------------------------------------------------------------------
# Population matrices of a stochastic block model
# ---------------------------------------------------------------------------

def membership_matrix(z: np.ndarray, K: int) -> np.ndarray:
    """N x K 0/1 matrix with row i carrying a single 1 at column z_i."""
    z = validate_labels(z, K)
    Z = np.zeros((len(z), K), dtype=np.float64)
    Z[np.arange(len(z)), z - 1] = 1.0
    return Z


def population_adjacency(z: np.ndarray, B: BlockMatrix) -> np.ndarray:
    """Expected adjacency Z B Z^T as a dense N x N matrix (diagonal kept)."""
    z = validate_labels(z, B.K)
    return B.probs[np.ix_(z - 1, z - 1)]


def population_bi_adjacency(z: np.ndarray, B: BlockMatrix, sample) -> np.ndarray:
    """Expected bi-adjacency: columns of Z B Z^T at the sampled nodes."""
    z = validate_labels(z, B.K)
    ids = np.asarray(sample, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= len(z):
        raise ValueError("sample id out of range")
    return B.probs[np.ix_(z - 1, z[ids] - 1)]


# ---------------------------------------------------------------------------
# Embedding distances: sign and rotation of embedding columns are not
# identifiable, so distances are measured on subspaces or after an
# orthogonal (Procrustes) alignment, never entrywise.
# ---------------------------------------------------------------------------

def projection_distance(a: np.ndarray, b: np.ndarray) -> float:
    """|| a a^T - b b^T ||_F without forming the N x N projectors."""
    aa = a.T @ a
    bb = b.T @ b
    ab = a.T @ b
    sq = (aa * aa).sum() + (bb * bb).sum() - 2.0 * (ab * ab).sum()
    return float(np.sqrt(max(sq, 0.0)))


def procrustes_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over orthogonal O of || a - b O ||_F."""
    p, _, q = np.linalg.svd(b.T @ a)
    o = p @ q
    return float(np.linalg.norm(a - b @ o))


# ---------------------------------------------------------------------------
# Labels and graphs
# ---------------------------------------------------------------------------

def confusion(zhat: np.ndarray, z: np.ndarray, K: int) -> np.ndarray:
    """K x K counts M[a-1, b-1] = |{i : zhat_i = a, z_i = b}|."""
    zhat = np.asarray(zhat, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    if zhat.shape != z.shape or zhat.ndim != 1:
        raise ValueError("label vectors must be 1-d and equal length")
    for name, v in (("zhat", zhat), ("z", z)):
        if v.size and (v.min() < 1 or v.max() > K):
            raise ValueError(f"{name} labels must lie in 1..{K}")
    m = np.zeros((K, K), dtype=np.int64)
    np.add.at(m, (zhat - 1, z - 1), 1)
    return m


def brute_rate(zhat: np.ndarray, z: np.ndarray, K: int) -> float:
    """Misclustered rate by trying every relabeling of 1..k, where k is
    the largest of K and both label vectors' maxima."""
    zhat = np.asarray(zhat, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64)
    k = int(max(K, zhat.max(), z.max()))
    m = np.zeros((k, k), dtype=np.int64)
    np.add.at(m, (zhat - 1, z - 1), 1)
    best = max(int(m[list(perm), range(k)].sum()) for perm in permutations(range(k)))
    return 1.0 - best / len(z)


def has_edge(g, i: int, j: int) -> bool:
    """Whether j is among the neighbors of i in the SparseGraph g."""
    return bool(np.any(g.neighbors(i) == j))


def from_edge_list_int64_keys(pairs, n_nodes: int) -> SparseGraph:
    """``graph.from_edge_list`` with int64 keys at every node count: both
    orientations of each non-loop pair packed as ``i * n_nodes + j``,
    sorted and deduplicated, with rows found by ``searchsorted``."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    loops = arr[:, 0] == arr[:, 1]
    u, v = arr[~loops, 0], arr[~loops, 1]
    key = np.unique(np.concatenate([u * n_nodes + v, v * n_nodes + u]))
    starts = np.arange(n_nodes + 1, dtype=np.int64) * n_nodes
    return SparseGraph(
        n_nodes=n_nodes,
        indptr=np.searchsorted(key, starts).astype(np.int64),
        indices=key % n_nodes,
        n_self_loops_dropped=int(loops.sum()),
    )
