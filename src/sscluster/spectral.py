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
    identically zero; ``rank`` counts the columns above it.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    rank_deficient: bool
    n_zero_rows: int = 0


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


def gram(ls: SubsampledLaplacian) -> np.ndarray:
    """Dense n x n Gram matrix L^T L, accumulated column-major; n above
    ``GRAM_DENSE_GUARD`` raises ResourceLimitError."""
    n = ls.shape[1]
    if n > GRAM_DENSE_GUARD:
        raise ResourceLimitError(
            f"Gram matrix would be {n}x{n} dense; guard is {GRAM_DENSE_GUARD}"
        )
    return (ls.matrix.T @ ls.matrix).toarray()


def _symmetrized(m):
    """``m`` as float64, checked symmetric within ``SYMMETRY_ATOL`` and
    symmetrized to ``(m + m.T) / 2``.

    A sparse input stays sparse (the check runs without densifying). Every
    input gives a fresh matrix, so ``symmetric_eig`` may overwrite a dense
    result. ``full_embed``'s Lanczos route does not come here: a
    ``FullLaplacian`` is exactly symmetric as built.
    """
    sparse = sp.issparse(m)
    if sparse:
        m = m.astype(np.float64, copy=False)
    else:
        m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    # One transpose in the input's own format serves the test and the sum.
    mt = m.T.asformat(m.format) if sparse else m.T
    # Written so that a NaN anywhere fails the check.
    if not abs(m - mt).max() <= SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_ATOL}")
    return (m + mt) * 0.5


def _eigh(sym, k: int | None):
    """``scipy.linalg.eigh`` of a ``_symmetrized`` matrix, ascending, for
    its top ``k`` pairs (all of them for None); a dense ``sym`` is
    overwritten."""
    # ``sym`` equals its transpose, so the Fortran-ordered array LAPACK
    # wants is taken without a copy.
    a = sym.toarray(order="F") if sp.issparse(sym) else sym.T
    n = a.shape[0]
    subset = None if k is None else [n - k, n - 1]
    return scipy.linalg.eigh(a, subset_by_index=subset, overwrite_a=True)


def symmetric_eig(m, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, descending order.

    Returns (eigenvalues, eigenvectors) with eigenvector columns matching
    the eigenvalue order; with ``k`` only the k largest pairs are computed.
    Values are returned unclipped so that reconstruction
    M = V diag(w) V^T holds for indefinite inputs too. Every input is
    checked for symmetry (``ValueError`` past ``SYMMETRY_ATOL`` or on a
    NaN) and symmetrized; a sparse one in sparse form, densified once, so
    the solve holds a single dense copy of it.

    LAPACK's subset solve can come back with fewer than k pairs, or fail,
    when the top eigenvalue has a high multiplicity (a 500 x 500 Gram
    matrix whose eigenvalue 1 has multiplicity 463 returned none). Then the
    full spectrum is solved from ``m`` again and its top k pairs are kept;
    a subset solve that succeeds keeps its bits.

    A matrix of up to ``SERIAL_EIG_MAX`` rows is solved on one BLAS
    thread. On 2 cores that is as fast as threading there (200 x 200: 6.1
    ms against 6.3 ms in the median) and far steadier: threaded solves of
    100 x 100 to 500 x 500 stalled for 0.1-1 s now and then. Larger
    matrices keep the threaded BLAS, which is faster from about 400 rows
    (800 x 800: 129 ms threaded, 145 ms on one thread).
    """
    sym = _symmetrized(m)
    n = sym.shape[0]
    with blas.threads(1) if n <= SERIAL_EIG_MAX else contextlib.nullcontext():
        try:
            w, v = _eigh(sym, k)
        except np.linalg.LinAlgError:
            if k is None:
                raise
            w = ()
        if k is not None and len(w) < k:
            # The failed solve may have overwritten ``sym``.
            w, v = _eigh(_symmetrized(m), None)
            w, v = w[n - k:], v[:, n - k:]
    return w[::-1].copy(), v[:, ::-1].copy()


def subsampled_spectrum(ls: SubsampledLaplacian) -> tuple[np.ndarray, np.ndarray]:
    """Full descending spectrum of the Gram matrix L^T L, as (eigenvalues,
    eigenvectors) with tiny negative eigenvalues clipped to 0."""
    w, v = symmetric_eig(gram(ls))
    return _clip_psd(w), v


def embed(ls: SubsampledLaplacian, K: int | str) -> Embedding:
    """Top-K embedding U = L V_K pinv(Lambda_K^{1/2}).

    V_K and Lambda_K come from the Gram matrix of L. ``K="auto"`` solves
    the full spectrum (``subsampled_spectrum``), takes K from its eigengap
    (``select_k``) and lifts from that same solve. An int K solves for the
    top K pairs only (100 x 100, K=3: about 0.4 ms, against 1.8 ms for the
    full spectrum); the two routes agree to rounding, not bit for bit.
    Eigenvalues at or below RANK_TOL * lambda_1 are treated as zero in the
    pseudo-inverse, which zeroes the corresponding embedding columns.
    """
    n = ls.shape[1]
    if K == "auto":
        values, vectors = subsampled_spectrum(ls)
        K = select_k(values)
    elif not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= n, got K={K}, n={n}")
    else:
        values, vectors = symmetric_eig(gram(ls), K)
        values = _clip_psd(values)
    top = values[:K]
    vk = vectors[:, :K]

    cutoff = RANK_TOL * top[0] if top[0] > 0 else 0.0
    keep = top > cutoff
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, top, 1.0)), 0.0)
    u = ls.matrix @ (vk * inv_sqrt[None, :])
    rank = int(keep.sum())
    return Embedding(
        matrix=u,
        eigenvalues=top,
        rank=rank,
        rank_deficient=rank < K,
        n_zero_rows=ls.n_zero_rows,
    )


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
        top_w, top_v = symmetric_eig(L, k)
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
    return Embedding(
        matrix=top_v,
        eigenvalues=top_w,
        rank=K,
        rank_deficient=False,
        n_zero_rows=0,
    )


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
