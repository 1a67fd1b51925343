"""Lloyd k-means with k-means++ restarts, and exact scalar k-means.

The multivariate solver clusters embedding rows. Its Lloyd loop,
``_lloyd``, advances every restart that is still running in one batched
pass per iteration, over fixed blocks of ``BLOCK`` rows:

- one stacked matmul per block gives the products of the block's points
  with the K centroids of each of the R running restarts, an (R, B, K)
  float64 array;
- the block's squared distances are formed one cluster column at a time,
  each an (R, B) array, and its labels come from a running strict-<
  minimum over those columns, which keeps argmin's first-minimum rule;
  the labels are one byte each up to K = 256;
- cluster counts and coordinate sums come from one ``np.bincount`` per
  restart and coordinate, over the whole column;
- a restart leaves the batch when its centroids stop moving.

A pass writes into arrays made once per ``kmeans`` call (``_Workspace``)
and allocates nothing that grows with N. For R = ``RESTARTS`` = 10 and
K = d = 3 a call holds about 170 bytes per row (the (R, N) distances and
labels, the point terms and one cdf of the seeding) and 2.7 MB of block
arrays: a traced peak of 7.8 MB at N=30k and 54 MB at N=300k.

Each restart sees the same arithmetic, in the same order, as a loop over
restarts on whole columns (``tests/kmeans_reference.py``), so results do
not depend on how many restarts share a pass. They do not depend on the
blocks either wherever OpenBLAS rounds a row's products in a block as in
the whole product: ``BLOCK`` is a multiple of its kernels' row tiles,
and a lone last row is never multiplied alone. The tests check this up
to K = 6 (and K = N = 60) over blocks of 5, 700 and 8192 rows. Wider
products, such as K = 300 columns, which OpenBLAS partitions itself, can
round differently in the last bits.

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
BLOCK = 8192


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


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``BLOCK`` rows covering 0..n-1; a lone last row joins the
    block before it. numpy multiplies a single row with a BLAS call of its
    own, which can round differently from the same row inside a block."""
    starts = range(0, max(n - 1, 1), BLOCK)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous ``shape`` view of the front of a flat buffer."""
    return np.ndarray(shape, buffer.dtype, buffer)


class _Workspace:
    """The point terms and the arrays one ``kmeans`` call writes into.

    Made once per call for R restarts and K clusters over N points:
    ``p2 = 2 * points`` and the squared point norms ``pn`` (the point
    terms of the distance expansion), the coordinate columns, the (R, N)
    labels and distances of a pass, and flat buffers for the (R, B, K)
    products and (R, B) scratch of one row block of at most B rows.
    """

    def __init__(self, points: np.ndarray, R: int, K: int):
        n = len(points)
        self.points = points
        self.p2, self.pn = 2.0 * points, (points * points).sum(axis=1)
        self.cols = np.ascontiguousarray(points.T)
        self.blocks = _row_blocks(n)
        b = max(rows.stop - rows.start for rows in self.blocks)
        self.labels = np.empty((R, n), dtype=np.min_scalar_type(K - 1))
        self.dist = np.empty((R, n))
        self.index = np.empty(n, dtype=np.intp)
        self.cross = np.empty(R * b * K)
        self.dk = np.empty(R * b)
        self.step = np.empty(R * b, dtype=self.labels.dtype)


def _products(ws: _Workspace, stack: np.ndarray):
    """Yield (rows, cross) for each row block: ``cross`` holds the (a, b, K)
    products 2 x.c of the block's points with the centroids of each (K, d)
    set of an (a, K, d) stack, in the workspace.

    The stacked matmul makes, per set, the BLAS call a lone set gets, so
    no value depends on how many sets share it; one wide gemm over all
    sets would be cheaper, but OpenBLAS computes some columns of a wide
    product with other kernels, which round differently.
    """
    a, K = stack.shape[:2]
    centroids = np.swapaxes(stack, 1, 2)
    for rows in ws.blocks:
        b = rows.stop - rows.start
        yield rows, np.matmul(ws.p2[rows], centroids, out=_view(ws.cross, a, b, K))


def _sq_dist(pn, cross, cn, out):
    """Squared distances ``pn - 2 x.c + |c|^2`` into ``out``, with tiny
    negatives from cancellation clipped to 0."""
    np.subtract(pn, cross, out=out)
    out += cn
    return np.maximum(out, 0.0, out=out)


def _nearest(ws: _Workspace, stack: np.ndarray):
    """Index and squared distance of each point's nearest centroid, both
    (a, N) views of the workspace, for each set of an (a, K, d) stack; a
    strict < keeps argmin's lowest index on ties. The indices have the
    smallest unsigned dtype that holds K - 1 (one byte up to K = 256)."""
    a, K = stack.shape[:2]
    cn = (stack * stack).sum(axis=2)
    labels, dist = ws.labels[:a], ws.dist[:a]
    for rows, cross in _products(ws, stack):
        lab, near, pn = labels[:, rows], dist[:, rows], ws.pn[rows]
        b = rows.stop - rows.start
        dk, step = _view(ws.dk, a, b), _view(ws.step, a, b)
        _sq_dist(pn, cross[:, :, 0], cn[:, :1], near)
        lab.fill(0)
        for k in range(1, K):
            _sq_dist(pn, cross[:, :, k], cn[:, k, None], dk)
            # Every label is below k here, so the maximum sets k exactly
            # where dk < near: a branch-free stand-in for a masked write.
            np.less(dk, near, out=step)
            np.maximum(lab, np.multiply(step, step.dtype.type(k), out=step), out=lab)
            np.minimum(near, dk, out=near)
    return labels, dist


def _plusplus_init(ws: _Workspace, K: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeds (R, K, d), one restart per generator. Each restart
    makes the same draws on its own generator as it would seeded alone."""
    points = ws.points
    n = len(points)
    centroids = np.empty((len(rngs), K, points.shape[1]))
    centroids[:, 0] = points[[rng.integers(n) for rng in rngs]]
    closest = _nearest(ws, centroids[:, :1])[1]
    cdf = np.empty(n)
    for k in range(1, K):
        totals = closest.sum(axis=1)
        if not np.isfinite(totals).all():
            raise ValueError("k-means input too large: squared distances overflow")
        for j, rng in enumerate(rngs):
            if totals[j] <= 0:
                # All remaining points coincide with chosen centroids.
                centroids[j, k] = points[rng.integers(n)]
                continue
            # The draw of rng.choice(n, p=closest[j] / totals[j]), without
            # its checks of p: p is finite, at least 0 and sums to 1.
            np.divide(closest[j], totals[j], out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            centroids[j, k] = points[cdf.searchsorted(rng.random(), side="right")]
        if k < K - 1:
            chosen = centroids[:, k:k + 1]
            cn = (chosen * chosen).sum(axis=2)
            for rows, cross in _products(ws, chosen):
                dk = _view(ws.dk, len(rngs), rows.stop - rows.start)
                _sq_dist(ws.pn[rows], cross[:, :, 0], cn, dk)
                np.minimum(closest[:, rows], dk, out=closest[:, rows])
    return centroids


def _repair(ws: _Workspace, centroids: np.ndarray):
    """Reseed one restart's empty clusters at the point farthest from its
    assigned centroid, at most K times, updating its (K, d) ``centroids``
    in place. Returns the labels and the distances to them."""
    n, K = len(ws.points), len(centroids)
    d = np.empty((n, K))

    def fill(columns):
        stack = centroids[None, columns]
        cn = (stack[0] * stack[0]).sum(axis=1)
        for rows, cross in _products(ws, stack):
            _sq_dist(ws.pn[rows, None], cross[0], cn, d[rows, columns])

    fill(slice(None))
    labels = d.argmin(axis=1)
    counts = np.bincount(labels, minlength=K)
    repairs = 0
    while counts.min() == 0 and repairs < K:
        empty = int(counts.argmin())
        far = int(d[np.arange(n), labels].argmax())
        centroids[empty] = ws.points[far]
        fill(slice(empty, empty + 1))
        labels = d.argmin(axis=1)
        counts = np.bincount(labels, minlength=K)
        repairs += 1
    return labels, d[np.arange(n), labels]


def _cluster_sums(ws: _Workspace, labels: np.ndarray, K: int):
    """Cluster sizes (a*K,) and coordinate sums (a*K, d) of the (a, N)
    labels of a restarts, cluster k of restart j in row j*K + k.

    ``np.bincount`` adds each cluster's points in index order, as a mean
    over the rows of a restart's (m, d) cluster does. numpy sums a single
    column pairwise instead, so 1-D sums take that route to stay
    bit-stable."""
    a, d = len(labels), len(ws.cols)
    counts = np.empty((a, K), dtype=np.intp)
    sums = np.empty((a, K, d))
    index = ws.index
    for j in range(a):
        np.copyto(index, labels[j])
        counts[j] = np.bincount(index, minlength=K)
        if d == 1:
            sums[j, :, 0] = [ws.cols[0][index == k].sum() for k in range(K)]
        else:
            for c, x in enumerate(ws.cols):
                sums[j, :, c] = np.bincount(index, weights=x, minlength=K)
    return counts.ravel(), sums.reshape(a * K, d)


def _lloyd(ws: _Workspace, centroids: np.ndarray):
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
        labels, dist = _nearest(ws, cents)
        counts, sums = _cluster_sums(ws, labels, K)
        repaired = (counts == 0).reshape(-1, K).any(axis=1)
        if repaired.any():
            for j in np.flatnonzero(repaired):
                labels[j], dist[j] = _repair(ws, cents[j])
            counts, sums = _cluster_sums(ws, labels, K)

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
    labels, dist = _nearest(ws, centroids)
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

    ws = _Workspace(points, RESTARTS, K)
    seeds = [rng.integers(2**63) for _ in range(RESTARTS)]
    init = _plusplus_init(ws, K, [np.random.default_rng(s) for s in seeds])
    labels, cents, wcss, iters, conv = _lloyd(ws, init)

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
    # start of run k in that split: O(K*U) memory. The run ends j go in
    # blocks of ``rows``, one (rows, j - k) table of costs each, at most
    # max(BLOCK, U) cells.
    best = np.append(np.inf, s2[1:] - s1[1:] ** 2 / s0[1:])
    first = np.zeros((groups, U + 1), dtype=np.int64)
    rows = max(1, BLOCK // U)
    for k in range(1, groups):
        prev, best = best, np.full(U + 1, np.inf)
        # Leave a value for each later run; the last run ends at U.
        lo, hi = k + 1 if k < groups - 1 else U, U - groups + k + 2
        for j0 in range(lo, hi, rows):
            j = np.arange(j0, min(j0 + rows, hi))
            i = np.arange(k, j[-1])
            t = s1[j, None] - s1[i]
            with np.errstate(divide="ignore", invalid="ignore"):
                total = prev[i] + (s2[j, None] - s2[i] - t * t / (s0[j, None] - s0[i]))
            total[i >= j[:, None]] = np.inf  # a run x[i:j] needs i < j
            # The first minimum: the leftmost split.
            arg = total.argmin(axis=1)
            best[j], first[k, j] = total[np.arange(len(j)), arg], k + arg
    starts, end = np.zeros(groups, dtype=np.int64), U
    for k in range(groups - 1, 0, -1):
        starts[k] = end = first[k, end]

    group = np.repeat(np.arange(groups), np.diff(np.append(starts, U)))
    return group[inverse] + 1
