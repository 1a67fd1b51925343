"""Immutable sparse undirected graphs and bi-adjacency extraction.

Graphs are stored once in a compressed per-node layout (``indptr`` /
``indices``, neighbor lists sorted ascending): int64 row offsets and int32
neighbor ids, which scipy's sparse matrices take without a copy. Node ids
are dense 0-based integers below ``MAX_NODES``; external edge lists with
sparse ids go through a relabeling pass that emits an id map alongside.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# The most nodes a graph may have: neighbor ids are int32, and the packed
# int64 keys of from_edge_list stay below n_nodes**2 < 2**63.
MAX_NODES = 2**31 - 1


@dataclass(frozen=True)
class SparseGraph:
    """Undirected simple graph in compressed adjacency layout.

    Invariants: symmetric (j in neighbors(i) iff i in neighbors(j)), no
    self-loops, neighbor lists sorted ascending without duplicates.
    ``indptr`` (length n_nodes + 1) is int64 and ``indices`` (one entry
    per edge orientation) int32. ``n_edges`` counts each undirected edge
    once.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    n_edges: int
    n_self_loops_dropped: int = 0

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]


@dataclass(frozen=True)
class BiAdjacency:
    """N x n slice of an adjacency matrix keeping only sampled columns.

    Column j holds the (sorted, int32) row indices of the nonzero entries
    in the adjacency column of the j-th sampled node. Column-wise
    storage keeps Gram accumulation cache-friendly.
    """

    n_rows: int
    n_cols: int
    col_indptr: np.ndarray
    row_indices: np.ndarray


def from_edge_list(pairs, n_nodes: int) -> SparseGraph:
    """Build a SparseGraph from raw (u, v) pairs.

    Pairs may repeat, appear in either orientation, or be self-loops; the
    result is deduplicated and symmetrized, self-loops dropped (counted in
    ``n_self_loops_dropped``). Node ids must lie in [0, n_nodes), and
    ``n_nodes`` may be at most ``MAX_NODES`` = 2**31 - 1, checked before
    anything is allocated.

    Both orientations of every edge go into one packed key array
    ``i * n_nodes + j``, sorted once in place. The keys are ``uint32`` when
    ``n_nodes**2 < 2**32`` (up to 65,535 nodes) and int64 above that. The
    distinct sorted keys are the adjacency in row-major order: row i starts
    at the first key >= i * n_nodes (``indptr``, int64) and ``indices`` is
    their remainder by ``n_nodes`` (int32). The distinct keys are copied out
    only when the list has a duplicate, and 4-byte keys take their
    remainder in place, so a duplicate-free list of E edges without
    self-loops peaks at 5 bytes per stored entry (2E entries) beyond its
    input with ``uint32`` keys, 12 with int64 keys.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be nonnegative, got {n_nodes}")
    if n_nodes > MAX_NODES:
        raise ValueError(f"n_nodes must be at most {MAX_NODES}, got {n_nodes}")
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edge list must be a sequence of (u, v) pairs")
    if arr.size and (arr.min() < 0 or arr.max() >= n_nodes):
        raise ValueError("node id out of range [0, n_nodes)")

    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    n_kept = int(np.count_nonzero(keep))
    if n_kept < len(keep):
        u, v = u[keep], v[keep]
    del keep

    # Every key, and the end mark n_nodes**2 of the last row, fits 32 bits
    # when n_nodes**2 < 2**32; sorting 4-byte keys moves half the bytes.
    # The int64 ids are written straight into the key type: every product
    # and sum is a key, so the unsafe cast never truncates.
    key_type = np.uint32 if n_nodes**2 < 2**32 else np.int64
    width = key_type(n_nodes)
    key = np.empty(2 * n_kept, dtype=key_type)
    fwd, rev = key[:n_kept], key[n_kept:]
    np.multiply(u, n_nodes, out=fwd, casting="unsafe")
    np.add(fwd, v, out=fwd, casting="unsafe")
    np.multiply(v, n_nodes, out=rev, casting="unsafe")
    np.add(rev, u, out=rev, casting="unsafe")
    # Held views would keep the unsorted keys alive past a distinct copy.
    del u, v, fwd, rev
    key = _sorted_unique(key)
    indptr = np.searchsorted(key, np.arange(n_nodes + 1, dtype=key_type) * width)
    if key_type is np.uint32:
        # Remainders below 2**16 are the same bits as int32.
        indices = np.remainder(key, width, out=key).view(np.int32)
    else:
        indices = np.remainder(key, width, out=np.empty(len(key), dtype=np.int32),
                               casting="unsafe")
    return SparseGraph(
        n_nodes=n_nodes,
        indptr=indptr.astype(np.int64, copy=False),
        indices=indices,
        n_edges=len(key) // 2,
        n_self_loops_dropped=len(arr) - n_kept,
    )


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """Sort the 1-d array ``key`` in place and return its distinct values:
    ``key`` itself when no value repeats, else a copy of them."""
    # np.unique on int64 slows down as the number of distinct values grows;
    # one sort plus a neighbour mask costs the same at any id range.
    key.sort()
    distinct = np.empty(key.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    return key if distinct.all() else key[distinct]


def degrees(g: SparseGraph) -> np.ndarray:
    """Per-node degree d_i (length N, int64)."""
    return np.diff(g.indptr)


def bi_adjacency(g: SparseGraph, sample) -> BiAdjacency:
    """Extract the N x |sample| bi-adjacency slice for an ordered sample.

    Column j equals column sample[j] of the full adjacency matrix
    (by symmetry, the neighbor list of sample[j]).
    """
    ids = np.asarray(sample, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("sample must be a nonempty 1-d sequence of node ids")
    if ids.min() < 0 or ids.max() >= g.n_nodes:
        raise ValueError("sample id out of range [0, N)")
    if len(np.unique(ids)) != len(ids):
        raise ValueError("sample ids must be distinct")

    lengths = g.indptr[ids + 1] - g.indptr[ids]
    col_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=col_indptr[1:])
    # Entry t of column j sits at g.indptr[ids[j]] + (t - col_indptr[j]).
    offsets = np.repeat(g.indptr[ids] - col_indptr[:-1], lengths)
    row_indices = g.indices[offsets + np.arange(col_indptr[-1])]
    return BiAdjacency(
        n_rows=g.n_nodes,
        n_cols=len(ids),
        col_indptr=col_indptr,
        row_indices=row_indices,
    )


# ---------------------------------------------------------------------------
# Edge-list files
#
# Format: one edge per line, two whitespace-separated int64 ids; further
# columns are ignored. '#' starts a comment, to the end of the line, and
# blank lines are ignored. A line with a single id is an error. Relabel map
# files carry "external_id internal_id" per line.
# ---------------------------------------------------------------------------

# Rows formatted per write call in write_int_rows.
_WRITE_CHUNK_ROWS = 1 << 16


def read_edge_list(path) -> np.ndarray:
    """Read raw (u, v) id pairs from an edge-list file."""
    try:
        with warnings.catch_warnings():
            # An empty or comment-only file is an empty edge list.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return np.loadtxt(path, dtype=np.int64, usecols=(0, 1),
                              comments="#", ndmin=2)
    except ValueError:
        _raise_on_single_id_line(path)
        raise


def _raise_on_single_id_line(path) -> None:
    # loadtxt reports a one-field line by column index only; name the line.
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if len(line.split("#", 1)[0].split()) == 1:
                raise ValueError(
                    f"{path}:{lineno}: expected two ids, got {line.strip()!r}"
                ) from None


def write_int_rows(path, *columns) -> None:
    """Write equal-length integer columns as space-separated text rows.

    Each value is written as ``"%d"`` writes it, for any int64.
    """
    columns = [np.asarray(c).ravel() for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns must have equal length")
    with open(path, "wb") as fh:
        # Widening and formatting by chunks keeps the work arrays bounded.
        for start in range(0, len(columns[0]), _WRITE_CHUNK_ROWS):
            stop = start + _WRITE_CHUNK_ROWS
            fh.write(_format_rows([c[start:stop].astype(np.int64) for c in columns]))


def _format_rows(columns: list[np.ndarray]) -> bytes:
    """Rows of equal-length, nonempty int64 columns as text bytes.

    Every row is laid out in the same byte slots: per column a sign slot
    (only when the column has a negative value), one slot per digit of the
    column's largest magnitude, and a separator slot. Slots a value does
    not use hold NUL, and dropping every NUL leaves the text.
    """
    slots = []
    for c, col in enumerate(columns):
        # abs wraps int64 min onto itself, whose uint64 view is its magnitude.
        mag = np.abs(col).view(np.uint64)
        top = int(mag.max())
        if top < 2**32:
            mag = mag.astype(np.uint32)  # 32-bit division is faster
        if col.min() < 0:
            slots.append((col < 0) * np.uint8(ord("-")))
        # Digit p (counted from the units) shows when the quotient by 10**p
        # is nonzero; the units digit always shows. (np.divmod takes about
        # ten times as long as // by a constant.)
        digits, quotient = [], mag
        for p in range(len(str(top))):
            shown = quotient != 0 if p else True
            higher = quotient // 10
            digit = quotient - higher * 10 + shown * np.uint8(ord("0"))
            digits.append(digit.astype(np.uint8))
            quotient = higher
        slots += digits[::-1]
        sep = "\n" if c == len(columns) - 1 else " "
        slots.append(np.full(len(col), ord(sep), dtype=np.uint8))
    return np.column_stack(slots).tobytes().translate(None, b"\0")


def write_edge_list(g: SparseGraph, path) -> None:
    """Write each undirected edge once as "u v" with u < v."""
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int32), degrees(g))
    upper = g.indices > rows
    write_int_rows(path, rows[upper], g.indices[upper])


def relabel_pairs(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map arbitrary integer ids onto dense 0-based ids.

    Returns (relabeled pairs, external id of each internal id). External
    ids are assigned internal ids in ascending order.
    """
    ext = _sorted_unique(np.array(pairs, dtype=np.int64).ravel())
    relabeled = np.searchsorted(ext, pairs)
    return relabeled, ext


def write_relabel_map(ext_ids: np.ndarray, path) -> None:
    write_int_rows(path, ext_ids, np.arange(len(ext_ids)))


def graph_from_file(path, n_nodes: int | None = None) -> tuple[SparseGraph, np.ndarray | None]:
    """Load an edge-list file, relabeling sparse external ids if needed.

    Returns (graph, ext_ids) where ext_ids[i] is the external id of
    internal node i, or None when the file's ids were used directly.
    Passing ``n_nodes`` pins the node count (preserving trailing isolated
    nodes) and disables relabeling.
    """
    pairs = read_edge_list(path)
    if pairs.size == 0 and n_nodes is None:
        raise ValueError(f"{path}: no edges found")
    if n_nodes is not None:
        return from_edge_list(pairs, n_nodes), None
    lo, hi = pairs.min(), pairs.max()
    # Ids are dense when every value in 0..hi occurs; that needs hi < size.
    if lo == 0 and hi < pairs.size and np.bincount(pairs.ravel()).all():
        return from_edge_list(pairs, int(hi) + 1), None
    relabeled, ext = relabel_pairs(pairs)
    return from_edge_list(relabeled, len(ext)), ext
