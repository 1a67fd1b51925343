"""Stochastic block model parameterization and network generation.

Community labels are 1-based (values in {1..K}) everywhere in this
package, matching the "node_id label" text format. Randomness comes from
``numpy.random.Generator`` instances (PCG64 via ``default_rng``), so runs
reproduce exactly for a fixed seed and numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, from_edge_list, read_edge_list, write_int_rows


@dataclass(frozen=True)
class BlockMatrix:
    """Symmetric K x K matrix of between-community edge probabilities."""

    K: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.K, self.K):
            raise ValueError(f"probs must be {self.K}x{self.K}")
        if not np.allclose(p, p.T, atol=0, rtol=0):
            raise ValueError("block matrix must be symmetric")
        if p.min() < 0 or p.max() > 1:
            raise ValueError("block probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", p)


def block_matrix(beta: float, zeta: float, K: int) -> BlockMatrix:
    """Planted-partition block matrix: beta on the diagonal, beta*zeta off.

    beta is the connection intensity, zeta the out-in ratio.
    """
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if not 0 <= zeta <= 1:
        raise ValueError(f"zeta must be in [0, 1], got {zeta}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    p = beta * ((1 - zeta) * np.eye(K) + zeta * np.ones((K, K)))
    return BlockMatrix(K=K, probs=p)


def validate_labels(z: np.ndarray, K: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.int64)
    if z.ndim != 1:
        raise ValueError("labels must be 1-d")
    if z.size and (z.min() < 1 or z.max() > K):
        raise ValueError(f"labels must lie in 1..{K}")
    return z


def community_probs(pi, K: int) -> tuple[float, ...]:
    """The K community probabilities: ``pi`` checked against K, or uniform
    when ``pi`` is None."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if pi is None:
        return (1.0 / K,) * K
    if len(pi) != K:
        raise ValueError(f"pi must have K={K} entries, got {len(pi)}")
    if not (all(p >= 0 for p in pi) and abs(sum(pi) - 1.0) <= 1e-9):  # NaN fails
        raise ValueError("pi entries must be >= 0 and sum to 1")
    return tuple(pi)


def sample_memberships(pi, N: int, rng: np.random.Generator) -> np.ndarray:
    """Draw N i.i.d. community labels from the distribution pi (1-based)."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size < 1:
        raise ValueError("pi must be a 1-d probability vector")
    if not (pi.min() >= 0 and abs(pi.sum() - 1.0) <= 1e-9):  # NaN fails
        raise ValueError("pi entries must be >= 0 and sum to 1 (tol 1e-9)")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return rng.choice(len(pi), size=N, p=pi / pi.sum()).astype(np.int64) + 1


def _tri_decode(t: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    # Inverse of the linearization t = off(i) + (j-i-1) over pairs i<j, where
    # off(i) = i*(2b-i-1)/2 is the position of row i's first pair. Near the
    # last rows of a large block (b - 1/2)^2 - 2t cancels in floats: the
    # estimate of i can miss by several rows and the radicand dip below 0.
    # So i steps by one until off(i) <= t < off(i+1) holds at every position.
    t = np.asarray(t, dtype=np.int64)
    bf = float(b)
    radicand = np.maximum((bf - 0.5) ** 2 - 2.0 * t, 0.0)
    i = np.floor(bf - 0.5 - np.sqrt(radicand)).astype(np.int64)
    off = lambda k: k * (2 * b - k - 1) // 2
    while (step := (off(i + 1) <= t).view(np.int8) - (off(i) > t)).any():
        i += step
    j = t - off(i) + i + 1
    return i, j


def generate_adjacency(z: np.ndarray, B: BlockMatrix, rng: np.random.Generator) -> SparseGraph:
    """Sample an SBM graph: A_ij ~ Bern(B[z_i, z_j]) independently, i < j.

    Works block pair by block pair: the edge count of a block is binomial,
    and the edges are then placed uniformly among the block's node pairs,
    which reproduces the independent-Bernoulli distribution exactly in
    O(|E|) expected time.
    """
    z = validate_labels(z, B.K)
    N = len(z)
    members = [np.flatnonzero(z == k + 1) for k in range(B.K)]

    us, vs = [], []
    for k in range(B.K):
        Ik = members[k]
        bk = len(Ik)
        for k2 in range(k, B.K):
            p = float(B.probs[k, k2])
            I2 = members[k2]
            b2 = len(I2)
            # A diagonal block holds the pairs i < j within one community.
            count = bk * (bk - 1) // 2 if k == k2 else bk * b2
            if p == 0.0 or count == 0:
                continue
            m = int(rng.binomial(count, p))
            if m == 0:
                continue
            t = rng.choice(count, size=m, replace=False)
            li, lj = _tri_decode(t, bk) if k == k2 else (t // b2, t % b2)
            us.append(Ik[li])
            vs.append(I2[lj])

    if us:
        pairs = np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    return from_edge_list(pairs, N)


def write_labels(z: np.ndarray, path) -> None:
    """Write "node_id label" lines."""
    write_int_rows(path, np.arange(len(z)), z)


def read_labels(path) -> np.ndarray:
    """Read "node_id label" lines into a dense label array.

    The node ids must be 0..N-1, each exactly once, in any order.
    """
    rows = read_edge_list(path)
    ids, labels = rows[:, 0], rows[:, 1]
    n = len(ids)
    if n == 0:
        raise ValueError(f"{path}: no labels found")
    if ids.min() < 0 or ids.max() >= n or np.bincount(ids).max() > 1:
        raise ValueError(f"{path}: node ids must be 0..{n - 1}, each exactly once")
    z = np.empty(n, dtype=np.int64)
    z[ids] = labels
    return z
