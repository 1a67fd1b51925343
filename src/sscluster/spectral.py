"""Subsampled Laplacian, spectral embeddings, and eigengap model selection.

The subsampled pipeline normalizes an N x n bi-adjacency slice by row and
column degrees, eigendecomposes its n x n Gram matrix, and lifts the right
eigenvectors back to embedding coordinates for every node. A full-network
normalized Laplacian baseline is provided for comparison. Spectra are plain
(eigenvalues, eigenvectors) array pairs, eigenvalues in descending order.

The module loads scipy.sparse and scipy.linalg. ``full_embed`` imports
scipy.sparse.linalg (ARPACK) when it first runs, so a subsampled run never
loads it.
"""

from __future__ import annotations

import contextlib
import inspect
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import blas
from .errors import DegenerateInputError, ResourceLimitError
from .graph import BiAdjacency, SparseGraph, degrees

GRAM_DENSE_GUARD = 4000
SYMMETRY_ATOL = 1e-8
RANK_TOL = 1e-10
SELECT_K_MAX = 50
# Dense solves up to this many rows run on one BLAS thread (symmetric_eig).
SERIAL_EIG_MAX = 300


@dataclass(frozen=True)
class SubsampledLaplacian:
    """Degree-normalized bi-adjacency L = D_r^{-1/2} A D_c^{-1/2}.

    Rows or columns with zero degree are left identically zero (the
    0^{-1/2} -> 0 convention); ``n_zero_rows`` counts the rows, nodes with
    no connection to the sample. All singular values lie in [0, 1].
    """

    matrix: sp.csc_matrix               # N x n
    n_zero_rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass(frozen=True)
class Embedding:
    """N x K spectral coordinates plus the eigenvalues that produced them.

    Columns whose eigenvalue falls below the pseudo-inverse tolerance are
    identically zero; ``rank`` counts the columns above it, and
    ``rank_deficient`` says whether any column is zero.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    n_zero_rows: int

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.matrix.shape[1]


def _clip_psd(values: np.ndarray) -> np.ndarray:
    """Descending Gram (PSD) eigenvalues with tiny negatives clipped to 0;
    values out of order, or below -1e-10 * max(1, |max|), raise ValueError."""
    values = np.asarray(values, dtype=np.float64)
    if np.any(np.diff(values) > 0):
        raise ValueError("eigenvalues must be sorted descending")
    if values.size and values.min() < -1e-10 * max(1.0, abs(values).max()):
        raise ValueError("matrix is not PSD: eigenvalue below -1e-10")
    return np.maximum(values, 0.0)


def _inv_sqrt(deg: np.ndarray) -> np.ndarray:
    """deg^{-1/2}, with 0 where the degree is 0."""
    with np.errstate(divide="ignore"):
        return np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)


def subsampled_laplacian(biadj: BiAdjacency) -> SubsampledLaplacian:
    """Build L = D_r^{-1/2} A^s D_c^{-1/2} from a 0/1 bi-adjacency.

    The entries are r_i * c_j on the bi-adjacency's own CSC layout. That
    gives the same bits as the diagonal products done as sparse-matrix
    multiplies, which cost about 2 ms more at any N.
    """
    row_deg = np.bincount(biadj.row_indices, minlength=biadj.n_rows).astype(np.float64)
    col_deg = np.diff(biadj.col_indptr).astype(np.float64)
    if row_deg.sum() == 0:
        raise DegenerateInputError("bi-adjacency is all zero; nothing to normalize")
    data = _inv_sqrt(row_deg)[biadj.row_indices] * np.repeat(
        _inv_sqrt(col_deg), np.diff(biadj.col_indptr))
    norm = sp.csc_matrix((data, biadj.row_indices, biadj.col_indptr),
                         shape=(biadj.n_rows, biadj.n_cols))
    return SubsampledLaplacian(matrix=norm, n_zero_rows=int((row_deg == 0).sum()))


def check_gram_size(n: int) -> None:
    """Raise ResourceLimitError when a dense n x n Gram matrix would exceed
    ``GRAM_DENSE_GUARD``."""
    if n > GRAM_DENSE_GUARD:
        raise ResourceLimitError(
            f"Gram matrix would be {n}x{n} dense; guard is {GRAM_DENSE_GUARD}"
        )


def gram(ls: SubsampledLaplacian) -> np.ndarray:
    """Dense n x n Gram matrix L^T L, accumulated column-major."""
    check_gram_size(ls.shape[1])
    return (ls.matrix.T @ ls.matrix).toarray()


def symmetric_eig(m: np.ndarray, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a square dense symmetric array, descending.

    Returns (eigenvalues, eigenvectors) with eigenvector columns matching
    the eigenvalue order; with ``k`` only the k largest pairs are computed.
    Values are returned unclipped so that reconstruction
    M = V diag(w) V^T holds for indefinite inputs too. ``m`` is solved as a
    fresh ``(m + m.T) / 2``, so it is never written to. Past SYMMETRY_ATOL,
    on a NaN or when not square it raises ValueError; a sparse matrix raises
    TypeError, and must be densified with ``.toarray()`` first.

    LAPACK's subset solve can come back with fewer than k pairs, or fail,
    when the top eigenvalue has a high multiplicity (a 500 x 500 Gram
    matrix whose eigenvalue 1 has multiplicity 463 returned none). Then the
    top k pairs of the full solve ``symmetric_eig(m)`` are returned; a
    subset solve that succeeds keeps its bits.

    A matrix of up to ``SERIAL_EIG_MAX`` rows is solved on one BLAS
    thread, so its pairs have the same bits at any thread count. On 2
    cores that is about as fast as threading in the median (300 x 300 Gram
    matrices, top 3 pairs: 4.8-5.0 ms against 4.8 ms), and threaded first
    solves of 300-350 rows stalled for 0.7-0.8 s in 2 of 20 processes.
    Larger matrices keep the threaded BLAS, faster in the median from 500
    rows (top 3 pairs: 13.7-16.0 against 11.2-14.1 ms; all pairs 41.7-48.0
    against 38.4-43.5 ms). Their pairs depend on the thread count in bits:
    at 500, 1,000 and 2,000 rows the md5s under OPENBLAS_NUM_THREADS=1 and
    the default differ, though 48 of 48 ``run_ssc`` labelings (n = 500 to
    1,100) agreed.
    """
    if sp.issparse(m):
        raise TypeError("symmetric_eig takes a dense array; call .toarray() first")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    # Written so that a NaN anywhere fails the check.
    if not abs(m - m.T).max() <= SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_ATOL}")
    sym = (m + m.T) * 0.5
    n = sym.shape[0]
    with blas.threads(1) if n <= SERIAL_EIG_MAX else contextlib.nullcontext():
        try:
            # ``sym`` equals its transpose, so the Fortran-ordered array
            # LAPACK wants is taken without a copy.
            w, v = scipy.linalg.eigh(sym.T, overwrite_a=True, subset_by_index=(
                None if k is None else [n - k, n - 1]))
        except np.linalg.LinAlgError:
            if k is None:
                raise
            w = ()
    if k is not None and len(w) < k:
        w, v = symmetric_eig(m)
        return w[:k].copy(), v[:, :k].copy()
    return w[::-1].copy(), v[:, ::-1].copy()


def subsampled_spectrum(ls: SubsampledLaplacian,
                        k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The top ``k`` (all for None) descending pairs of the Gram matrix
    L^T L, as (eigenvalues, eigenvectors) with tiny negative eigenvalues
    clipped to 0 (``symmetric_eig``'s ``k``)."""
    w, v = symmetric_eig(gram(ls), k)
    return _clip_psd(w), v


def embed(ls: SubsampledLaplacian, K: int | str) -> Embedding:
    """Top-K embedding U = L V_K pinv(Lambda_K^{1/2}).

    V_K and Lambda_K come from one ``subsampled_spectrum`` call. An int K
    asks it for the top K Gram pairs only (100 x 100, K=3: about 0.4 ms,
    against 1.8 ms for the full spectrum); ``K="auto"`` asks for the full
    spectrum, takes K from its eigengap (``select_k``) and lifts from that
    same solve. The two routes agree to rounding, not bit for bit.
    Eigenvalues at or below RANK_TOL * lambda_1 are treated as zero in the
    pseudo-inverse, which zeroes the corresponding embedding columns.
    """
    n = ls.shape[1]
    if K != "auto" and not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n, got K={K}, n={n}")
    values, vectors = subsampled_spectrum(ls, None if K == "auto" else K)
    if K == "auto":
        K = select_k(values)
    top = values[:K]
    vk = vectors[:, :K]

    cutoff = RANK_TOL * top[0] if top[0] > 0 else 0.0
    keep = top > cutoff
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, top, 1.0)), 0.0)
    u = ls.matrix @ (vk * inv_sqrt[None, :])
    return Embedding(matrix=u, eigenvalues=top, rank=int(keep.sum()),
                     n_zero_rows=ls.n_zero_rows)


@dataclass(frozen=True)
class FullLaplacian:
    """Symmetric normalized Laplacian D^{-1/2} A D^{-1/2} of a whole graph,
    the full-network twin of ``SubsampledLaplacian``.

    ``matrix`` equals its transpose bit for bit, and ``full_embed`` hands
    it to the eigensolver as is, with no symmetry check. ``full_laplacian``
    gives that by construction: its entries d_i^{-1/2} d_j^{-1/2} sit on a
    ``SparseGraph``'s own symmetric ``indptr`` / ``indices``. Any other
    matrix wrapped in one must be exactly symmetric too.
    """

    matrix: sp.csr_matrix               # N x N


def full_laplacian(g: SparseGraph) -> FullLaplacian:
    """Symmetric normalized Laplacian D^{-1/2} A D^{-1/2} (sparse N x N).

    The entries are d_i^{-1/2} d_j^{-1/2} on the graph's own ``indptr`` /
    ``indices``, with 0 for isolated nodes. That gives the same bits as the
    diagonal products done as sparse-matrix multiplies, and the result is
    exactly symmetric.
    """
    deg = degrees(g)
    dinv = _inv_sqrt(deg.astype(np.float64))
    data = np.repeat(dinv, deg) * dinv[g.indices]
    return FullLaplacian(
        sp.csr_matrix((data, g.indices, g.indptr), shape=(g.n_nodes, g.n_nodes)))


def full_embed(lap: FullLaplacian, K: int | str) -> Embedding:
    """Top-K eigenvectors of the full Laplacian by algebraic eigenvalue.

    Lanczos (ARPACK ``eigsh``) on the sparse matrix as built, in
    O(|E| + N K) memory. The start vector, and any restart vector ARPACK
    asks for, come from a generator seeded with N, so a result depends on
    neither the caller's generator nor earlier solves (restart vectors only
    where eigsh takes ``rng``). ARPACK needs K < N; K = N takes the dense
    solve. ``K="auto"`` solves for the top min(N, SELECT_K_MAX + 1) pairs,
    the most ``select_k`` reads, and keeps the first K, as ``select_k``
    picks. A graph with no edges (no stored entry) raises
    DegenerateInputError.
    """
    L = lap.matrix
    N = L.shape[0]
    k = min(N, SELECT_K_MAX + 1) if K == "auto" else K
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    if L.nnz == 0:
        raise DegenerateInputError("Laplacian is all zero; the graph has no edges")
    if k == N:
        top_w, top_v = symmetric_eig(L.toarray(), k)
    else:
        from scipy.sparse.linalg import eigsh

        # scipy releases whose eigsh takes ``rng`` draw ARPACK's restart
        # vectors from it; older ones draw them from ARPACK's own
        # process-wide seed.
        takes_rng = "rng" in inspect.signature(eigsh).parameters
        start = np.random.default_rng(N)
        v0 = start.uniform(-1.0, 1.0, N)
        w, v = eigsh(L, k=k, which="LA", v0=v0,
                     **({"rng": start} if takes_rng else {}))
        order = np.argsort(w)[::-1]
        top_w, top_v = w[order], v[:, order]
    if K == "auto":
        K = select_k(top_w)
        top_w, top_v = top_w[:K], top_v[:, :K]
    return Embedding(matrix=top_v, eigenvalues=top_w, rank=K, n_zero_rows=0)


def select_k(vals: np.ndarray) -> int:
    """Eigengap choice of the community count from descending eigenvalues
    ``vals``: argmax_k lambda_k - lambda_{k+1}.

    Ties break toward the smallest k; the search starts at k = 1 and runs
    through k_max = min(len - 1, SELECT_K_MAX), so it reads at most the
    top k_max + 1 eigenvalues.
    """
    if len(vals) < 2:
        raise ValueError("spectrum must have at least 2 eigenvalues")
    k_max = min(len(vals) - 1, SELECT_K_MAX)
    gaps = vals[:k_max] - vals[1:k_max + 1]
    return int(np.argmax(gaps)) + 1
