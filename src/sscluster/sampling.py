"""Node subsampling strategies and subsample-size bound calculators.

Two strategies are provided: simple random subsampling (SRS, uniform
without replacement) and degree-corrected subsampling (DCS), which
partitions nodes by an exact scalar k-means on regularized degrees and
then takes a per-cluster quota of top-degree nodes. A sample is an int64
array of distinct node ids, in the order drawn.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .graph import SparseGraph, degrees, write_int_rows
from .kmeans import kmeans_1d
from .sbm import validate_labels

logger = logging.getLogger(__name__)


def srs(N: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of n distinct nodes out of N (no silent clamping)."""
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    return rng.choice(N, size=n, replace=False).astype(np.int64)


def cluster_quotas(sizes: np.ndarray, n: int) -> np.ndarray:
    """Proportional quotas floor(n * size_k / N) with largest-remainder fixup.

    Remaining slots go one each to clusters by largest fractional part,
    ties broken by larger cluster then lower cluster index, so the quotas
    always sum to exactly n.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    N = int(sizes.sum())
    if not 0 <= n <= N:
        raise ValueError(f"need 0 <= n <= sum(sizes), got n={n}")
    exact = n * sizes / N
    quotas = np.floor(exact).astype(np.int64)
    remainder = n - int(quotas.sum())
    if remainder:
        frac = exact - quotas
        order = np.lexsort((np.arange(len(sizes)), -sizes, -frac))
        quotas[order[:remainder]] += 1
    return quotas


def dcs(g: SparseGraph, n: int, K: int) -> np.ndarray:
    """Degree-corrected subsampling, with no randomness.

    Partitions nodes by exact scalar k-means on the regularized degrees
    d_i / N, sorts each cluster by degree descending (ties by ascending
    node id), and takes a proportional quota of top-degree nodes per
    cluster.
    """
    N = g.n_nodes
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")

    d = degrees(g)
    labels = kmeans_1d(d / N, K)
    counts = np.bincount(labels, minlength=K + 1)[1:]
    nonempty = np.flatnonzero(counts > 0)
    if len(nonempty) < K:
        logger.warning(
            "degree partition has %d empty clusters; quotas use the "
            "%d nonempty ones", K - len(nonempty), len(nonempty)
        )
    quotas = cluster_quotas(counts[nonempty], n)

    picks = []
    for q, k in zip(quotas, nonempty):
        if q == 0:
            continue
        members = np.flatnonzero(labels == k + 1)
        order = np.lexsort((members, -d[members]))
        picks.append(members[order[:q]])
    return np.concatenate(picks)


def draw(method: str, g: SparseGraph, n: int, K: int,
         rng: np.random.Generator) -> np.ndarray:
    """Draw n nodes of ``g`` by ``method``: "srs", or "dcs" with a K-way
    degree partition."""
    if method == "srs":
        return srs(g.n_nodes, n, rng)
    if method == "dcs":
        return dcs(g, n, K)
    raise ValueError(f"method must be srs or dcs, got {method!r}")


def srs_min_size(K: int, alpha: float, eps: float) -> int:
    """Smallest with-replacement draw count guaranteeing full community
    coverage with probability at least 1 - eps.

    alpha is the smallest community fraction. A single community is always
    covered by one draw.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not 0 < alpha <= 1 / K:
        raise ValueError(f"alpha must be in (0, 1/K], got {alpha} for K={K}")
    if K == 1:
        return 1
    return max(1, math.ceil(math.log(K / eps) / math.log(1.0 / (1.0 - alpha))))


def dcs_min_size(N: int, eps: float) -> int:
    """Subsample size 64*log(2N/eps), rounded up."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return math.ceil(64.0 * math.log(2.0 * N / eps))


def coverage_event(ids: np.ndarray, z: np.ndarray, K: int) -> bool:
    """True iff every community label 1..K appears among the sampled ``ids``."""
    z = validate_labels(z, K)
    return len(np.unique(z[ids])) == K


def write_sample(ids: np.ndarray, path) -> None:
    """Write one sampled node id per line."""
    write_int_rows(path, ids)
