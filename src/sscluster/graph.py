"""Immutable sparse undirected graphs and bi-adjacency extraction.

Graphs are stored once in a compressed per-node layout (``indptr`` /
``indices``, neighbor lists sorted ascending): int64 row offsets and int32
neighbor ids, which scipy's sparse matrices take without a copy. Node ids
are dense 0-based integers below ``MAX_NODES``; external edge lists with
sparse ids go through a relabeling pass that emits an id map alongside.

``graph_from_file`` parses a text edge list once: it keeps the graph it
built in a sidecar file, ``<edges>.sscluster.npz``, keyed by the SHA-256 of
the edge list's bytes, and a later call on the same bytes loads and fully
checks those arrays instead of parsing the text again, if the sidecar is
the user's or the edge list owner's own. No other module knows the
sidecar format.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
import tempfile
import warnings
import zipfile
import zlib
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
    per edge orientation) int32. ``n_edges``, ``len(indices) // 2``,
    counts each undirected edge once.

    A graph is checked once, where it enters: ``from_edge_list`` builds
    these invariants from any pairs, and a sidecar load checks them in
    full. Every later stage relies on them unchecked; the exact symmetry
    of ``spectral.full_laplacian`` rests on the first.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    n_self_loops_dropped: int = 0

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

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
    col_indptr: np.ndarray
    row_indices: np.ndarray

    @property
    def n_cols(self) -> int:
        return len(self.col_indptr) - 1


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

    Sidecars keep what it returns: changing that must bump ``_SIDECAR_VERSION``.
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

    # Sorting 4-byte keys moves half the bytes of int64 ones. The int64 ids
    # are written straight into the key type: every product and sum is a
    # key, so the unsafe cast never truncates.
    key_type = _key_type(n_nodes)
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
        n_self_loops_dropped=len(arr) - n_kept,
    )


def _key_type(n_nodes: int):
    """The packed key type of an n_nodes graph: ``uint32`` when every key
    i * n_nodes + j, and the end mark n_nodes**2, fits 32 bits."""
    return np.uint32 if n_nodes**2 < 2**32 else np.int64


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
    return BiAdjacency(n_rows=g.n_nodes, col_indptr=col_indptr, row_indices=row_indices)


# ---------------------------------------------------------------------------
# Edge-list files
#
# Format: one edge per line, two whitespace-separated int64 ids; further
# columns are ignored. '#' starts a comment, to the end of the line, and
# blank lines are ignored. A line with a single id, or with an id that is
# no int64, is an error that names the file line ("path:LINE: ..."). Relabel
# map files carry "external_id internal_id" per line.
# ---------------------------------------------------------------------------

# Rows formatted per write call in write_int_rows.
_WRITE_CHUNK_ROWS = 1 << 16
# An id as loadtxt reads it into an int64: a sign, then ASCII digits.
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def read_edge_list(path) -> np.ndarray:
    """Read raw (u, v) id pairs from an edge-list file.

    Sidecars keep what it returns: changing that must bump ``_SIDECAR_VERSION``.
    """
    try:
        with warnings.catch_warnings():
            # An empty or comment-only file is an empty edge list.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return np.loadtxt(path, dtype=np.int64, usecols=(0, 1),
                              comments="#", ndmin=2)
    except ValueError as exc:
        _raise_on_bad_line(path)
        raise ValueError(f"{path}: {exc}") from None


def _raise_on_bad_line(path, n_nodes: int | None = None) -> None:
    # loadtxt counts rows over data lines only, from 0 or from 1 by the
    # kind of error; rescan the file to name the first bad line instead. A
    # byte that is no UTF-8 reads as U+FFFD, so its id is reported as bad,
    # and so is an id outside [0, n_nodes) when n_nodes is given.
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split("#", 1)[0].split()
            if len(fields) == 1:
                raise ValueError(
                    f"{path}:{lineno}: expected two ids, got {line.strip()!r}"
                ) from None
            for field in fields[:2]:
                if not (_INT_FIELD.fullmatch(field)
                        and _INT64.min <= int(field) <= _INT64.max):
                    raise ValueError(f"{path}:{lineno}: could not convert "
                                     f"string {field!r} to int64") from None
                if n_nodes is not None and not 0 <= int(field) < n_nodes:
                    raise ValueError(f"{path}:{lineno}: node id {int(field)} "
                                     f"is outside [0, {n_nodes})")


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

    Sidecars keep what it returns: changing that must bump ``_SIDECAR_VERSION``.
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

    The text of a regular file is parsed once: its result is kept in the
    file's sidecar (see "Sidecar files" below) and read back from there
    while the file's bytes and ``n_nodes`` stay the same. Either way the
    result is the same.
    """
    key = _sidecar_key(path)
    if key is not None:
        cached = _load_sidecar(key, n_nodes)
        if cached is not None:
            return cached
    g, ext_ids = _parse_graph(path, n_nodes)
    if key is not None:
        _write_sidecar(key, path, g, ext_ids, n_nodes)
    return g, ext_ids


def _parse_graph(path, n_nodes: int | None) -> tuple[SparseGraph, np.ndarray | None]:
    """``graph_from_file`` from the text of the file."""
    pairs = read_edge_list(path)
    if pairs.size == 0 and n_nodes is None:
        raise ValueError(f"{path}: no edges found")
    if n_nodes is not None:
        if 0 <= n_nodes and pairs.size and (pairs.min() < 0 or pairs.max() >= n_nodes):
            _raise_on_bad_line(path, n_nodes)
        return from_edge_list(pairs, n_nodes), None
    lo, hi = pairs.min(), pairs.max()
    # Ids are dense when every value in 0..hi occurs; that needs hi < size.
    if lo == 0 and hi < pairs.size and np.bincount(pairs.ravel()).all():
        return from_edge_list(pairs, int(hi) + 1), None
    relabeled, ext = relabel_pairs(pairs)
    return from_edge_list(relabeled, len(ext)), ext


# ---------------------------------------------------------------------------
# Sidecar files
#
# "<edges>.sscluster.npz", written by np.savez (uncompressed), holds the
# graph_from_file result of "<edges>": int64 indptr, int32 indices, int64
# ext_ids when the ids were relabeled, and the integer n_self_loops_dropped;
# the edge count is len(indices) // 2. Its keys are the SHA-256 of the edge
# list's bytes (sha256), the n_nodes argument of the parse (n_nodes, -1 for
# None) and the format version (version). A sidecar is used only if
# _trusted passes it and its keys match and its arrays pass _checked_graph;
# any other trusted sidecar, one of another version too, is replaced by a
# fresh parse of the text, and an untrusted one is left alone and ignored.
#
# A sidecar stands for the output of read_edge_list, relabel_pairs and
# from_edge_list: a change to what any of them returns for some file must
# bump _SIDECAR_VERSION, or older sidecars would keep the old result.
# ---------------------------------------------------------------------------

SIDECAR_SUFFIX = ".sscluster.npz"
_SIDECAR_VERSION = 2
# Bytes read per hash update, and entries per step of the sidecar checks.
_HASH_CHUNK = 1 << 20
_CHECK_CHUNK = 1 << 16
# What np.load and the checks raise on a damaged or foreign sidecar.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, MemoryError,
               zipfile.BadZipFile, zlib.error)


@dataclass(frozen=True)
class _SidecarKey:
    path: str                # the sidecar file
    sha256: str              # hex digest of the edge list's bytes
    edges: os.stat_result    # the edge list's status before hashing


def _sidecar_key(path) -> _SidecarKey | None:
    """The sidecar key of the edge list ``path``, or None when it has no
    usable sidecar: ``path`` is not a regular file (a FIFO is never read
    twice), its sidecar exists but is not _trusted, or no sidecar exists
    and its directory is not writable."""
    try:
        path = os.fsdecode(path)
        st = os.stat(path)
    except (TypeError, OSError):
        return None  # not a path, or one the text parse reports
    sidecar = path + SIDECAR_SUFFIX
    if not stat.S_ISREG(st.st_mode):
        return None
    try:
        if not _trusted(os.stat(sidecar), st):
            _debug("sidecar %s not used: not trusted", sidecar)
            return None
    except FileNotFoundError:
        if not os.access(os.path.dirname(sidecar) or ".", os.W_OK):
            return None
    except OSError:
        return None
    import hashlib  # see _debug

    digest = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    try:
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buf):
                digest.update(view[:size])
    except OSError:
        return None
    return _SidecarKey(sidecar, digest.hexdigest(), st)


def _trusted(sidecar: os.stat_result, edges: os.stat_result) -> bool:
    """Whether a file with status ``sidecar`` may stand for the parse of an
    edge list with status ``edges``: a regular file, owned by this user or
    the edge list's owner, that no group or other user may write unless
    they may write the edge list too. In a shared directory another user
    could otherwise plant a sidecar holding a different graph under the
    edge list's digest, which anyone who can read the edge list can
    compute."""
    return (stat.S_ISREG(sidecar.st_mode)
            and sidecar.st_uid in (os.geteuid(), edges.st_uid)
            and not sidecar.st_mode & 0o022 & ~edges.st_mode)


def _load_sidecar(key: _SidecarKey,
                  n_nodes: int | None) -> tuple[SparseGraph, np.ndarray | None] | None:
    """The sidecar's (graph, ext_ids) if its keys match and its arrays pass
    every check, else None."""
    try:
        # Checked on the open file, which a later rename cannot swap; a
        # FIFO put in its place does not block the open.
        with open(os.open(key.path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
            if not _trusted(os.fstat(fh.fileno()), key.edges):
                raise ValueError("not trusted")
            z = np.load(fh)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            if (_scalar(z, "version", "i") != _SIDECAR_VERSION
                    or _scalar(z, "sha256", "U") != key.sha256
                    or _scalar(z, "n_nodes", "i") != (-1 if n_nodes is None else n_nodes)):
                return None
            return _checked_graph(z, n_nodes)
    except FileNotFoundError:
        return None
    except _UNREADABLE as exc:
        _debug("sidecar %s not used: %s", key.path, exc)
        return None


def _debug(msg: str, *args) -> None:
    """One debug line on this module's logger.

    logging, like hashlib, is imported where the sidecar code first needs
    it: ``generate`` imports this module but never touches a sidecar, and
    the two imports added about 20 ms to each fresh process (2 cores, no
    cached bytecode).
    """
    import logging

    logging.getLogger(__name__).debug(msg, *args)


def _scalar(z, name: str, kind: str):
    """The 0-d member ``name`` of dtype kind ``kind`` as a Python value."""
    value = z[name]
    if value.shape != () or value.dtype.kind != kind:
        raise ValueError(f"{name} is not a scalar of kind {kind!r}")
    return value.item()


def _vector(z, name: str, dtype) -> np.ndarray:
    """The 1-d member ``name`` of exactly ``dtype``."""
    value = z[name]
    if value.ndim != 1 or value.dtype != dtype:
        raise ValueError(f"{name} is not a 1-d {np.dtype(dtype)} array")
    return value


def _checked_graph(z, n_nodes: int | None) -> tuple[SparseGraph, np.ndarray | None]:
    """(graph, ext_ids) from a sidecar's members; ValueError unless they
    hold what from_edge_list and relabel_pairs could have built."""
    indptr = _vector(z, "indptr", np.int64)
    indices = _vector(z, "indices", np.int32)
    ext_ids = _vector(z, "ext_ids", np.int64) if "ext_ids" in z.files else None
    n_loops = _scalar(z, "n_self_loops_dropped", "i")
    n = len(indptr) - 1
    if not 0 <= n <= MAX_NODES:
        raise ValueError(f"node count {n} out of range")
    if n_nodes is not None and (n != n_nodes or ext_ids is not None):
        raise ValueError("graph does not have the pinned node count")
    if ext_ids is not None and (len(ext_ids) != n
                                or np.any(ext_ids[1:] <= ext_ids[:-1])):
        raise ValueError("ext_ids are not one strictly ascending id per node")
    if n_loops < 0:
        raise ValueError("negative self-loop count")
    _check_adjacency(indptr, indices)
    return SparseGraph(n_nodes=n, indptr=indptr, indices=indices,
                       n_self_loops_dropped=n_loops), ext_ids


def _entry_rows(indptr: np.ndarray, start: int, stop: int, dtype) -> np.ndarray:
    """The row id, as ``dtype``, of each entry start..stop-1 (stop > start)
    of the valid compressed layout ``indptr``."""
    # Rows first - 1 and last - 1 hold the first and the last entry.
    first, last = np.searchsorted(indptr, [start, stop - 1], side="right")
    lengths = np.diff(np.clip(indptr[first - 1:last + 1], start, stop))
    return np.repeat(np.arange(first - 1, last, dtype=dtype), lengths)


def _check_adjacency(indptr: np.ndarray, indices: np.ndarray) -> None:
    """ValueError unless ``indptr``/``indices`` are a symmetric adjacency
    without self-loops whose rows ascend strictly, as from_edge_list builds.

    The transposed key ``j * n + i`` of every entry (i, j) goes into one
    array of from_edge_list's key type. Sorted, it must ascend strictly and
    equal the row-major keys ``i * n + j`` entry by entry. Every other
    temporary covers one slice of ``_CHECK_CHUNK`` entries.
    """
    n, size = len(indptr) - 1, len(indices)
    if indptr[0] != 0 or indptr[-1] != size or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr does not run from 0 up to len(indices)")
    if size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("neighbor id out of range")
    key_type = _key_type(n)
    width = key_type(n)
    # Ids in range are the same bits as uint32, which compares and
    # multiplies with uint32 keys without widening.
    ids = indices.view(np.uint32) if key_type is np.uint32 else indices
    slices = [(start, min(start + _CHECK_CHUNK, size))
              for start in range(0, size, _CHECK_CHUNK)]
    keys = np.empty(size, dtype=key_type)
    for start, stop in slices:
        rows, cols = _entry_rows(indptr, start, stop, key_type), ids[start:stop]
        if np.any(rows == cols):
            raise ValueError("self-loop")
        transposed = keys[start:stop]
        np.multiply(cols, width, out=transposed, casting="unsafe")
        np.add(transposed, rows, out=transposed)
    keys.sort()
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("repeated entry")
    for start, stop in slices:
        rows = _entry_rows(indptr, start, stop, key_type)
        rows *= width
        rows += ids[start:stop]
        if not np.array_equal(rows, keys[start:stop]):
            raise ValueError("adjacency is not symmetric with ascending rows")


def _write_sidecar(key: _SidecarKey, path, g: SparseGraph,
                   ext_ids: np.ndarray | None, n_nodes: int | None) -> None:
    """Keep the parse of ``path`` in its sidecar, written to a temporary
    file in the same directory and renamed over it. Skipped, with one debug
    line, when the file changed since it was hashed or the write fails."""
    members = {"indptr": g.indptr, "indices": g.indices,
               "n_self_loops_dropped": g.n_self_loops_dropped,
               "n_nodes": -1 if n_nodes is None else n_nodes,
               "version": _SIDECAR_VERSION, "sha256": key.sha256}
    if ext_ids is not None:
        members["ext_ids"] = ext_ids
    try:
        st = os.stat(path)
        if (st.st_size, st.st_mtime_ns) != (key.edges.st_size, key.edges.st_mtime_ns):
            _debug("sidecar %s not written: the edge list changed", key.path)
            return
        directory, name = os.path.split(key.path)
        fd, tmp = tempfile.mkstemp(prefix=f".{name.removesuffix(SIDECAR_SUFFIX)}.",
                                   suffix=SIDECAR_SUFFIX, dir=directory or ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                # Whoever may read the edge list may read its sidecar.
                os.chmod(tmp, stat.S_IMODE(st.st_mode) & 0o666)
                np.savez(fh, **members)
            os.replace(tmp, key.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        _debug("sidecar %s not written: %s", key.path, exc)
