"""Per-restart k-means oracle for the batched solver in ``sscluster.kmeans``.

This is the earlier implementation, which runs Lloyd one restart at a
time with a Python loop over clusters. It is kept verbatim except that
``KMeansResult`` carries the index of the winning restart, so the tests
can assert that the batched solver returns the same result bit for bit.

``kmeans_1d_by_run_end`` is the exact scalar solver's dynamic programme
with one run end at a time, the reference for ``sscluster.kmeans_1d``'s
blocks of run ends.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

MOVE_TOL = 1e-6
MAX_ITER = 100
MAX_ITER_1D = 20


@dataclass
class KMeansResult:
    labels: np.ndarray        # 1-based, values in 1..K
    centroids: np.ndarray     # K x d
    wcss: float
    iterations: int
    converged: bool
    n_empty: int = 0          # clusters left empty (degenerate inputs only)
    restart: int = 0          # index of the winning restart


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # ||x - c||^2 via expansion; clip tiny negatives from cancellation.
    d = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def _plusplus_init(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((K, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = _sq_dists(points, centroids[:1]).ravel()
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            centroids[k] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=closest / total)
        centroids[k] = points[idx]
        closest = np.minimum(closest, _sq_dists(points, centroids[k:k + 1]).ravel())
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Run Lloyd iterations from the given centroids.

    Returns (labels0, centroids, wcss, iterations, converged). Within a
    run, the within-cluster sum of squares is checked to be non-increasing
    after every assignment step.
    """
    n, K = len(points), len(centroids)
    prev_wcss = np.inf
    labels = np.zeros(n, dtype=np.int64)
    wcss = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        d = _sq_dists(points, centroids)
        labels = d.argmin(axis=1)

        # Empty-cluster repair: reseed at the point farthest from its
        # assigned centroid; bounded by K repairs per iteration.
        counts = np.bincount(labels, minlength=K)
        repairs = 0
        while counts.min() == 0 and repairs < K:
            empty = int(counts.argmin())
            assigned = d[np.arange(n), labels]
            far = int(assigned.argmax())
            centroids[empty] = points[far]
            d[:, empty] = _sq_dists(points, centroids[empty:empty + 1]).ravel()
            labels = d.argmin(axis=1)
            counts = np.bincount(labels, minlength=K)
            repairs += 1

        wcss = float(d[np.arange(n), labels].sum())
        if wcss > prev_wcss + 1e-9 * max(1.0, prev_wcss) and repairs == 0:
            raise RuntimeError(
                f"Lloyd objective increased: {prev_wcss} -> {wcss}"
            )
        prev_wcss = wcss

        new_centroids = centroids.copy()
        for k in range(K):
            mask = labels == k
            if mask.any():
                new_centroids[k] = points[mask].mean(axis=0)
        move = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if move < MOVE_TOL:
            converged = True
            break

    # Final consistent assignment for the returned centroids.
    d = _sq_dists(points, centroids)
    labels = d.argmin(axis=1)
    wcss = float(d[np.arange(n), labels].sum())
    return labels, centroids, wcss, iterations, converged


def kmeans(points, K: int, restarts: int = 10,
           rng: np.random.Generator | None = None) -> KMeansResult:
    """Best-of-restarts k-means with k-means++ seeding.

    Each restart draws its own seed from ``rng``; the restart with the
    lowest within-cluster sum of squares wins. Labels are 1-based.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    if K < 1 or K > n:
        raise ValueError(f"K must be in 1..{n}, got {K}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if rng is None:
        rng = np.random.default_rng()

    best = None
    for restart in range(restarts):
        sub = np.random.default_rng(rng.integers(2**63))
        init = _plusplus_init(points, K, sub)
        labels, cents, wcss, iters, conv = _lloyd(points, init, MAX_ITER)
        if best is None or wcss < best.wcss:
            best = KMeansResult(
                labels=labels + 1,
                centroids=cents,
                wcss=wcss,
                iterations=iters,
                converged=conv,
                n_empty=int((np.bincount(labels, minlength=K) == 0).sum()),
                restart=restart,
            )
    return best


def kmeans_1d(values, K: int) -> KMeansResult:
    """Deterministic scalar k-means: quantile init, Lloyd, means ascending.

    Degenerate inputs (fewer distinct values than K) leave some clusters
    empty; the count is reported in ``n_empty`` and a warning logged.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    n = len(values)
    if K < 1 or K > n:
        raise ValueError(f"K must be in 1..{n}, got {K}")

    init = np.quantile(values, (np.arange(K) + 0.5) / K)[:, None]
    labels, cents, wcss, iters, conv = _lloyd(values[:, None], init, MAX_ITER_1D)

    # Relabel so cluster means ascend; empty clusters sort last.
    counts = np.bincount(labels, minlength=K)
    means = np.where(counts > 0, cents.ravel(), np.inf)
    order = np.argsort(means, kind="stable")
    rank = np.empty(K, dtype=np.int64)
    rank[order] = np.arange(K)
    labels = rank[labels]
    cents = cents[order]

    n_empty = int((counts == 0).sum())
    if n_empty:
        logger.warning("scalar k-means left %d of %d clusters empty", n_empty, K)
    return KMeansResult(
        labels=labels + 1,
        centroids=cents,
        wcss=wcss,
        iterations=iters,
        converged=conv,
        n_empty=n_empty,
    )


def kmeans_1d_by_run_end(values, K: int) -> np.ndarray:
    """Exact scalar k-means by a dynamic programme over the sorted distinct
    values, one run end j at a time; 1-based int64 labels numbered by
    ascending mean, the leftmost of equally good splits."""
    values = np.asarray(values, dtype=np.float64).ravel()
    n = len(values)
    x, inverse, w = np.unique(values, return_inverse=True, return_counts=True)
    U, groups = len(x), min(K, len(x))
    xc = x - np.dot(w, x) / n
    s0, s1, s2 = (np.append(0, np.cumsum(t)) for t in (w, w * xc, w * xc * xc))

    best = np.append(np.inf, s2[1:] - s1[1:] ** 2 / s0[1:])
    first = np.zeros((groups, U + 1), dtype=np.int64)
    for k in range(1, groups):
        prev, best = best, np.full(U + 1, np.inf)
        for j in range(k + 1 if k < groups - 1 else U, U - groups + k + 2):
            t = s1[j] - s1[k:j]
            total = prev[k:j] + (s2[j] - s2[k:j] - t * t / (s0[j] - s0[k:j]))
            i = int(np.argmin(total))
            best[j], first[k, j] = total[i], k + i
    starts, end = np.zeros(groups, dtype=np.int64), U
    for k in range(groups - 1, 0, -1):
        starts[k] = end = first[k, end]

    group = np.repeat(np.arange(groups), np.diff(np.append(starts, U)))
    return group[inverse] + 1
