"""Lloyd k-means with k-means++ restarts, and exact scalar k-means.

The multivariate solver clusters embedding rows. Its Lloyd loop,
``_lloyd``, advances every restart that is still running in one batched
pass per iteration:

- one stacked matmul gives the products of the N points with the K
  centroids of each of the R running restarts, an (R, N, K) float64 block;
  for its R = ``RESTARTS`` = 10 and K=3 that is 7.2 MB at N=30k and 72 MB at
  N=300k;
- the squared distances are formed one cluster column at a time, each an
  (R, N) array, and the labels come from a running strict-< minimum over
  those columns, which keeps argmin's first-minimum rule; the labels are
  one byte each up to K = 256;
- cluster counts and coordinate sums come from ``np.bincount`` over
  ``label + K * restart``;
- a restart leaves the batch when its centroids stop moving.

A pass holds the block and a few (R, N) float64 arrays at once: at
N=300k, K=3 a call raises the peak RSS (``getrusage``) by about 176 MB
(215 MB with 8-byte labels), where a loop over restarts needs about
32 MB. Each restart sees the same arithmetic, in the same order, as
that loop, so the results are bitwise its results
(``tests/kmeans_reference.py``) and do not depend on how many restarts
share a pass.

The scalar solver, ``kmeans_1d``, partitions degree sequences exactly, by a
dynamic programme over the sorted distinct values, and returns the labels
alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)
# Where the application configures no logging, the package's warnings (the
# empty degree partition of ``sampling.dcs``, whose module imports this one)
# go nowhere rather than to logging's last-resort stderr handler.
logging.getLogger("sscluster").addHandler(logging.NullHandler())

MOVE_TOL = 1e-6
MAX_ITER = 100
RESTARTS = 10


@dataclass
class KMeansResult:
    labels: np.ndarray        # 1-based, values in 1..K
    centroids: np.ndarray     # K x d
    wcss: float
    iterations: int
    converged: bool
    n_empty: int              # clusters left empty (degenerate inputs only)
    restart: int              # index of the winning restart


def _finite(points: np.ndarray) -> np.ndarray:
    """``points``, once checked to hold no NaN or infinity."""
    if not np.isfinite(points).all():
        raise ValueError("k-means input contains NaN or infinite values")
    return points


def _expansion(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point terms of the distance expansion: 2 * points and the
    squared point norms, computed once per call."""
    return 2.0 * points, (points * points).sum(axis=1)


def _sq_dist_columns(p2: np.ndarray, pn: np.ndarray, stack: np.ndarray):
    """Yield, for k = 0..K-1, the (a, N) squared distances from every point
    to centroid k of each (K, d) set of an (a, K, d) stack.

    ``p2 = 2 * points`` and ``pn`` holds the squared point norms. A
    distance is ``pn - 2 x.c + |c|^2`` with tiny negatives from
    cancellation clipped to 0. The stacked matmul makes, per set, the BLAS
    call a lone set gets, so no value depends on how many sets share it;
    one wide gemm over all sets would be cheaper, but OpenBLAS computes
    some columns of a wide product with other kernels, which round
    differently.
    """
    cross = p2 @ np.swapaxes(stack, 1, 2)
    cn = (stack * stack).sum(axis=2)
    for k in range(stack.shape[1]):
        dk = pn - cross[:, :, k]
        dk += cn[:, k, None]
        yield np.maximum(dk, 0.0, out=dk)


def _nearest(p2: np.ndarray, pn: np.ndarray, stack: np.ndarray):
    """Index and squared distance of each point's nearest centroid, both
    (a, N), for each set of an (a, K, d) stack; a strict < keeps argmin's
    lowest index on ties. The indices have the smallest unsigned dtype
    that holds K - 1 (one byte up to K = 256)."""
    columns = _sq_dist_columns(p2, pn, stack)
    dist = next(columns)
    labels = np.zeros(dist.shape, dtype=np.min_scalar_type(stack.shape[1] - 1))
    for k, dk in enumerate(columns, start=1):
        # Every label is below k here, so the maximum sets k exactly where
        # dk < dist: a branch-free stand-in for a masked write.
        np.maximum(labels, np.multiply(dk < dist, labels.dtype.type(k)), out=labels)
        np.minimum(dist, dk, out=dist)
    return labels, dist


def _plusplus_init(points: np.ndarray, p2: np.ndarray, pn: np.ndarray, K: int,
                   rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeds (R, K, d), one restart per generator. Each restart
    makes the same draws on its own generator as it would seeded alone."""
    n = len(points)
    centroids = np.empty((len(rngs), K, points.shape[1]))
    centroids[:, 0] = points[[rng.integers(n) for rng in rngs]]
    closest = next(_sq_dist_columns(p2, pn, centroids[:, :1]))
    for k in range(1, K):
        totals = closest.sum(axis=1)
        for j, rng in enumerate(rngs):
            if totals[j] <= 0:
                # All remaining points coincide with chosen centroids.
                centroids[j, k] = points[rng.integers(n)]
            else:
                centroids[j, k] = points[rng.choice(n, p=closest[j] / totals[j])]
        closest = np.minimum(closest, next(_sq_dist_columns(p2, pn, centroids[:, k:k + 1])))
    return centroids


def _repair(points, p2, pn, centroids):
    """Reseed one restart's empty clusters at the point farthest from its
    assigned centroid, at most K times, updating its (K, d) ``centroids``
    in place. Returns the labels and the distances to them."""
    n, K = len(points), len(centroids)
    d = np.stack(list(_sq_dist_columns(p2, pn, centroids[None])), axis=-1)[0]
    labels = d.argmin(axis=1)
    counts = np.bincount(labels, minlength=K)
    repairs = 0
    while counts.min() == 0 and repairs < K:
        empty = int(counts.argmin())
        far = int(d[np.arange(n), labels].argmax())
        centroids[empty] = points[far]
        d[:, empty] = next(_sq_dist_columns(p2, pn, centroids[None, empty:empty + 1]))[0]
        labels = d.argmin(axis=1)
        counts = np.bincount(labels, minlength=K)
        repairs += 1
    return labels, d[np.arange(n), labels]


def _cluster_sums(points: np.ndarray, labels: np.ndarray, K: int):
    """Cluster sizes (a*K,) and coordinate sums (a*K, d) of the (a, N)
    labels of a restarts, cluster k of restart j in row j*K + k."""
    a = len(labels)
    bins = (labels + K * np.arange(a)[:, None]).ravel()
    counts = np.bincount(bins, minlength=a * K)
    if points.shape[1] == 1:
        # numpy sums a single column pairwise, where bincount adds in index
        # order; keep the pairwise sum so 1-D centroids stay bit-stable.
        sums = np.array([[points[labels[j] == k, 0].sum()]
                         for j in range(a) for k in range(K)])
    else:
        sums = np.stack([np.bincount(bins, weights=np.tile(x, a), minlength=a * K)
                         for x in points.T], axis=1)
    return counts, sums


def _lloyd(points: np.ndarray, p2: np.ndarray, pn: np.ndarray,
           centroids: np.ndarray):
    """Run Lloyd iterations from R restarts' initial (R, K, d) centroids.

    Every restart still running advances in one batched pass per
    iteration, and leaves the batch once no centroid moves by MOVE_TOL.
    Returns (labels0 (R, N), centroids (R, K, d), wcss (R,), iterations
    (R,), converged (R,)). Within a restart, the within-cluster sum of
    squares is checked to be non-increasing after every assignment step
    that needed no empty-cluster repair.
    """
    R, K, dim = centroids.shape
    prev_wcss = np.full(R, np.inf)
    iterations = np.zeros(R, dtype=np.int64)
    converged = np.zeros(R, dtype=bool)
    active = np.arange(R)
    for it in range(1, MAX_ITER + 1):
        cents = centroids[active]
        labels, dist = _nearest(p2, pn, cents)
        counts, sums = _cluster_sums(points, labels, K)
        repaired = (counts == 0).reshape(-1, K).any(axis=1)
        if repaired.any():
            for j in np.flatnonzero(repaired):
                labels[j], dist[j] = _repair(points, p2, pn, cents[j])
            counts, sums = _cluster_sums(points, labels, K)

        wcss = dist.sum(axis=1)
        prev = prev_wcss[active]
        rising = (wcss > prev + 1e-9 * np.maximum(1.0, prev)) & ~repaired
        if rising.any():
            j = int(np.flatnonzero(rising)[0])
            raise RuntimeError(f"Lloyd objective increased: {prev[j]} -> {wcss[j]}")
        prev_wcss[active] = wcss

        new = cents.copy()
        flat = new.reshape(-1, dim)
        filled = counts > 0
        flat[filled] = sums[filled] / counts[filled, None]
        move = np.sqrt(((new - cents) ** 2).sum(axis=2)).max(axis=1)
        centroids[active] = new
        iterations[active] = it
        done = move < MOVE_TOL
        converged[active[done]] = True
        active = active[~done]
        if not len(active):
            break

    # Final consistent assignment for the returned centroids.
    labels, dist = _nearest(p2, pn, centroids)
    return labels, centroids, dist.sum(axis=1), iterations, converged


def kmeans(points, K: int, *, rng: np.random.Generator) -> KMeansResult:
    """Best of ``RESTARTS`` k-means runs with k-means++ seeding.

    Each restart draws its own seed from the required ``rng``; the first
    restart with the lowest within-cluster sum of squares wins. Labels are
    1-based.
    """
    points = _finite(np.asarray(points, dtype=np.float64))
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    if K < 1 or K > n:
        raise ValueError(f"K must be in 1..{n}, got {K}")

    p2, pn = _expansion(points)
    seeds = [rng.integers(2**63) for _ in range(RESTARTS)]
    init = _plusplus_init(points, p2, pn, K, [np.random.default_rng(s) for s in seeds])
    labels, cents, wcss, iters, conv = _lloyd(points, p2, pn, init)

    r = int(np.argmin(wcss))
    res = KMeansResult(
        labels=labels[r].astype(np.int64) + 1,
        centroids=cents[r].copy(),
        wcss=float(wcss[r]),
        iterations=int(iters[r]),
        converged=bool(conv[r]),
        n_empty=int((np.bincount(labels[r], minlength=K) == 0).sum()),
        restart=r,
    )
    logger.debug(
        "k-means K=%d: restart %d of %d won, %d iterations, converged=%s, "
        "%d empty, wcss=%.6g", K, res.restart, RESTARTS, res.iterations,
        res.converged, res.n_empty, res.wcss)
    return res


def kmeans_1d(values, K: int) -> np.ndarray:
    """Exact scalar k-means, with no randomness.

    An optimal 1-D partition splits the sorted values into contiguous runs,
    and a dynamic programme over the distinct values finds the best split
    (Wang & Song 2011, "Ckmeans.1d.dp"): the leftmost of equally good ones.
    Returns the int64 labels, 1-based and numbered by ascending mean. Fewer
    distinct values than K leave the highest labels unused.
    """
    values = _finite(np.asarray(values, dtype=np.float64).ravel())
    n = len(values)
    if K < 1 or K > n:
        raise ValueError(f"K must be in 1..{n}, got {K}")

    x, inverse, w = np.unique(values, return_inverse=True, return_counts=True)
    U, groups = len(x), min(K, len(x))
    # Prefix sums give the cost of a run x[i:j], S2 - S1^2 / S0 over it; x
    # is centred on its mean to keep the differences well conditioned.
    xc = x - np.dot(w, x) / n
    s0, s1, s2 = (np.append(0, np.cumsum(t)) for t in (w, w * xc, w * xc * xc))

    # best[j] is the least cost of x[:j] in the runs so far, first[k, j] the
    # start of run k in that split: O(K*U) memory.
    best = np.append(np.inf, s2[1:] - s1[1:] ** 2 / s0[1:])
    first = np.zeros((groups, U + 1), dtype=np.int64)
    for k in range(1, groups):
        prev, best = best, np.full(U + 1, np.inf)
        # Leave a value for each later run; the last run ends at U.
        for j in range(k + 1 if k < groups - 1 else U, U - groups + k + 2):
            t = s1[j] - s1[k:j]
            total = prev[k:j] + (s2[j] - s2[k:j] - t * t / (s0[j] - s0[k:j]))
            i = int(np.argmin(total))  # the first minimum: the leftmost split
            best[j], first[k, j] = total[i], k + i
    starts, end = np.zeros(groups, dtype=np.int64), U
    for k in range(groups - 1, 0, -1):
        starts[k] = end = first[k, end]

    group = np.repeat(np.arange(groups), np.diff(np.append(starts, U)))
    return group[inverse] + 1
