import hashlib
import logging
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sscluster.graph as graph_module
from sscluster.graph import (
    bi_adjacency,
    degrees,
    from_edge_list,
    graph_from_file,
    read_edge_list,
    relabel_pairs,
    write_edge_list,
    write_int_rows,
    write_relabel_map,
)

from conftest import check_graph_invariants, edge_lists
from oracles import from_edge_list_int64_keys, has_edge, to_csc, to_csr


class TestFromEdgeList:
    def test_dedup_and_self_loop_rules(self):
        g = from_edge_list([(0, 1), (1, 0), (1, 1), (1, 2)], 3)
        assert g.n_edges == 2
        assert has_edge(g, 0, 1) and has_edge(g, 1, 2)
        assert not has_edge(g, 0, 2)
        assert g.n_self_loops_dropped == 1

    def test_empty_edge_list(self):
        g = from_edge_list([], 5)
        assert g.n_nodes == 5
        assert g.n_edges == 0
        assert all(degrees(g)[i] == 0 for i in range(5))

    def test_triangle_degrees(self, triangle):
        # Hand enumeration: a 3-cycle gives every node two neighbors.
        assert [degrees(triangle)[i] for i in range(3)] == [2, 2, 2]

    def test_rejects_pairs_of_three_columns(self):
        with pytest.raises(ValueError, match=r"^edge list must be a sequence of \(u, v\) pairs$"):
            from_edge_list([(0, 1, 2)], 3)

    def test_out_of_range_id(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 3)], 3)
        with pytest.raises(ValueError):
            from_edge_list([(-1, 0)], 3)

    def test_node_count_above_int32_rejected_before_allocating(self):
        # Its indptr alone would take 16 GiB. The bound is checked before
        # the pairs are even read, which the first call shows without
        # risking that allocation.
        class Unread:
            def __array__(self, *args, **kwargs):
                raise AssertionError("pairs read before the node bound")

        assert graph_module.MAX_NODES == 2**31 - 1
        for pairs in (Unread(), []):
            with pytest.raises(ValueError, match="at most 2147483647"):
                from_edge_list(pairs, 2**31)

    @pytest.mark.parametrize("n_nodes", [30_000, 70_000])   # uint32, int64 keys
    def test_build_peak_is_twelve_bytes_per_entry(self, n_nodes):
        # A duplicate-free list without self-loops: 2E stored entries.
        u, v = np.random.default_rng(3).integers(0, n_nodes, size=(2, 200_000))
        key = np.unique(np.minimum(u, v) * n_nodes + np.maximum(u, v))
        pairs = np.stack(np.divmod(key, n_nodes), axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        tracemalloc.start()
        try:
            g = from_edge_list(pairs, n_nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_edges == len(pairs)
        # The row starts and indptr take 16 bytes per node on top.
        assert peak <= 12 * 2 * len(pairs) + 16 * (n_nodes + 1) + 2**16

    @pytest.mark.parametrize("n_nodes", [50, 70_000])
    def test_duplicate_heavy_list_matches_reference(self, n_nodes):
        rng = np.random.default_rng(4)
        ids = rng.choice(n_nodes, size=12, replace=False)
        pairs = ids[rng.integers(0, 12, size=(5000, 2))]
        g = from_edge_list(pairs, n_nodes)
        indptr, indices = reference_csr(pairs, n_nodes)
        assert g.n_edges < 100
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


class TestDegrees:
    def test_triangle(self, triangle):
        assert degrees(triangle).tolist() == [2, 2, 2]

    def test_star(self, star5):
        assert degrees(star5).tolist() == [4, 1, 1, 1, 1]

    def test_empty(self):
        assert degrees(from_edge_list([], 4)).tolist() == [0, 0, 0, 0]


class TestBiAdjacency:
    def test_identity_sample_reconstructs_adjacency(self, path4):
        ba = bi_adjacency(path4, [0, 1, 2, 3])
        dense = to_csc(ba).toarray()
        full = to_csr(path4).toarray()
        assert np.array_equal(dense, full)

    def test_triangle_single_column(self, triangle):
        ba = bi_adjacency(triangle, [0])
        assert to_csc(ba).toarray().ravel().tolist() == [0, 1, 1]

    def test_two_community_toy_graph_entries(self):
        # Ten nodes, two dense communities {0..4} and {5..9} plus one
        # bridge; every sampled column must match the adjacency column.
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        edges += [(4, 5)]
        g = from_edge_list(edges, 10)
        sample = [0, 3, 5, 8]
        ba = bi_adjacency(g, sample)
        dense = to_csc(ba).toarray()
        for j, s in enumerate(sample):
            for i in range(10):
                assert dense[i, j] == (1.0 if has_edge(g, i, s) else 0.0)
        # Sampled columns show the two-block pattern.
        assert dense[:5, :2].sum() == 8  # within community 1 (minus diagonal)
        assert dense[5:, 2:].sum() == 8

    def test_sampled_diagonal_is_zero(self, triangle):
        ba = bi_adjacency(triangle, [1, 2])
        dense = to_csc(ba).toarray()
        assert dense[1, 0] == 0 and dense[2, 1] == 0

    def test_rejects_bad_samples(self, triangle):
        with pytest.raises(ValueError):
            bi_adjacency(triangle, [0, 0])
        with pytest.raises(ValueError):
            bi_adjacency(triangle, [5])

    def test_rejects_an_empty_sample(self, triangle):
        with pytest.raises(ValueError, match="^sample must be a nonempty 1-d sequence"):
            bi_adjacency(triangle, [])

    def test_column_count_is_the_sample_size(self, triangle):
        ba = bi_adjacency(triangle, [2, 0])
        assert ba.n_cols == 2 and type(ba.n_cols) is int


def reference_csr(pairs, n):
    """Oracle: indptr/indices from an np.unique dedupe of the packed keys."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    both = np.concatenate([arr, arr[:, ::-1]])
    key = np.unique(both[:, 0] * n + both[:, 1])
    rows, cols = key // n, key % n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols


def reference_edge_list_text(g) -> str:
    """Oracle: the per-edge loop writer."""
    return "".join(f"{i} {j}\n" for i in range(g.n_nodes)
                   for j in g.neighbors(i) if j > i)


INT64 = np.iinfo(np.int64)
# Where "%d" changes its digit count or sign, the 32-bit edge, and the ends.
EDGE_INT64S = sorted({0, 1, -1, 2**32 - 1, 2**32, -2**32, INT64.min, INT64.min + 1,
                      INT64.max, *(s * (10**k + d) for k in range(1, 19)
                                   for d in (-1, 0) for s in (1, -1))})


@st.composite
def int64_tables(draw):
    """1 to 3 int64 columns of up to 40 rows, as a list of row tuples."""
    value = st.one_of(st.integers(INT64.min, INT64.max), st.sampled_from(EDGE_INT64S))
    n_cols = draw(st.integers(1, 3))
    return n_cols, draw(st.lists(st.tuples(*[value] * n_cols), max_size=40))


class TestInvariants:
    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_construction_invariants(self, case):
        pairs, n = case
        g = from_edge_list(pairs, n)
        check_graph_invariants(g)

    @given(edge_lists())
    @example(([], 0))                           # no nodes at all
    @example(([(0, 0), (2, 2), (2, 2)], 3))     # self-loops only
    @example(([(1, 0), (2, 1), (0, 1)], 6))     # trailing isolated nodes
    @settings(max_examples=150, deadline=None)
    def test_matches_np_unique_reference(self, case):
        pairs, n = case
        g = from_edge_list(pairs, n)
        indptr, indices = reference_csr(pairs, n)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        assert g.indptr.tolist() == indptr.tolist()
        assert g.indices.tolist() == indices.tolist()
        assert g.n_self_loops_dropped == sum(u == v for u, v in pairs)

    @given(edge_lists(), st.sampled_from([0, 1, 65535, 65536]))
    @settings(max_examples=100, deadline=None)
    def test_key_widths_match_int64_oracle(self, case, n_nodes):
        # 65535 nodes take uint32 keys, 65536 int64. The drawn ids fold onto
        # the top of the id range, where the keys are largest.
        pairs, n = case
        pairs = [(n_nodes - 1 - u % n_nodes, n_nodes - 1 - v % n_nodes)
                 for u, v in pairs] if n_nodes else []
        g = from_edge_list(pairs, n_nodes)
        want = from_edge_list_int64_keys(pairs, n_nodes)
        for name, dtype in (("indptr", np.int64), ("indices", np.int32)):
            got = getattr(g, name)
            assert got.dtype == dtype, name
            assert np.array_equal(got, getattr(want, name)), name
        assert (g.n_edges, g.n_self_loops_dropped) == (
            want.n_edges, want.n_self_loops_dropped)

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_bi_adjacency_matches_has_edge(self, case):
        pairs, n = case
        g = from_edge_list(pairs, n)
        sample = list(range(0, n, 2))
        if not sample:
            return
        ba = bi_adjacency(g, sample)
        dense = to_csc(ba).toarray()
        for j, s in enumerate(sample):
            for i in range(n):
                assert bool(dense[i, j]) == has_edge(g, i, s)

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_full_sample_reconstruction(self, case):
        pairs, n = case
        g = from_edge_list(pairs, n)
        ba = bi_adjacency(g, list(range(n)))
        assert np.array_equal(to_csc(ba).toarray(), to_csr(g).toarray())


class TestFiles:
    def test_round_trip(self, tmp_path, triangle):
        path = tmp_path / "edges.txt"
        write_edge_list(triangle, path)
        pairs = read_edge_list(path)
        g2 = from_edge_list(pairs, 3)
        assert np.array_equal(to_csr(g2).toarray(), to_csr(triangle).toarray())

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "edges.txt"
        for text in ["# header\n\n0 1\n 1 2 \n# trailing\n",
                     "0 1 # inline\n1 2# no space\n",
                     "0\t1\n1\t\t2\r\n",
                     "0 1 7\n1 2 3.5 x\n"]:
            path.write_bytes(text.encode())
            assert read_edge_list(path).tolist() == [[0, 1], [1, 2]], text

    def test_single_id_line_names_the_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n\n 2 \n3 4\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == f"{path}:4: expected two ids, got '2'"

    def test_non_integer_id_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1.5 2\n")
        with pytest.raises(ValueError) as info:
            read_edge_list(path)
        assert str(info.value) == f"{path}:2: could not convert string '1.5' to int64"

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_file_is_silent(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_edge_list(path).shape == (0, 2)
            with pytest.raises(ValueError, match="no edges found"):
                graph_from_file(path)
            g, ext = graph_from_file(path, n_nodes=3)
        assert ext is None and g.n_nodes == 3 and g.n_edges == 0

    def test_ids_with_gap_are_relabeled(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 3\n")
        g, ext = graph_from_file(path)
        assert g.n_nodes == 3
        assert ext.tolist() == [0, 1, 3]
        assert has_edge(g, 0, 1) and has_edge(g, 1, 2) and not has_edge(g, 0, 2)

    def test_dense_ids_are_not_relabeled(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("2 0\n1 2\n")
        g, ext = graph_from_file(path)
        assert ext is None and g.n_nodes == 3 and g.n_edges == 2

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_writer_matches_loop_reference(self, tmp_path_factory, case):
        pairs, n = case
        g = from_edge_list(pairs, n)
        path = tmp_path_factory.mktemp("w") / "edges.txt"
        write_edge_list(g, path)
        assert path.read_text() == reference_edge_list_text(g)

    def test_writer_chunks_join_exactly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "_WRITE_CHUNK_ROWS", 2)
        g = from_edge_list([(i, j) for i in range(6) for j in range(i + 1, 6)], 7)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        assert path.read_text() == reference_edge_list_text(g)

    @given(int64_tables())
    @settings(max_examples=200, deadline=None)
    @example((1, [(v,) for v in EDGE_INT64S]))
    @example((3, [(INT64.min, 0, INT64.max), (9, -10, 100)]))
    def test_int_rows_are_percent_d_text(self, tmp_path_factory, case):
        n_cols, rows = case
        path = tmp_path_factory.mktemp("w") / "rows.txt"
        write_int_rows(path, *[np.array([r[c] for r in rows], dtype=np.int64)
                               for c in range(n_cols)])
        expected = "".join(" ".join("%d" % v for v in r) + "\n" for r in rows)
        assert path.read_bytes() == expected.encode()

    def test_int32_rows_widen_chunk_by_chunk(self, tmp_path, monkeypatch):
        # The first chunk has no sign, and the int32 minimum wraps under
        # np.abs unless the chunk is widened before it is formatted.
        monkeypatch.setattr(graph_module, "_WRITE_CHUNK_ROWS", 2)
        first = np.array([7, 10, 3, -5, np.iinfo(np.int32).min], dtype=np.int32)
        second = np.array([0, 1, 2, 3, np.iinfo(np.int32).max], dtype=np.int32)
        path = tmp_path / "rows.txt"
        write_int_rows(path, first, second)
        assert path.read_text() == "".join(f"{a} {b}\n" for a, b in zip(first, second))

    def test_int32_rows_are_not_widened_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "_WRITE_CHUNK_ROWS", 4096)
        col = np.arange(200_000, dtype=np.int32)
        tracemalloc.start()
        try:
            write_int_rows(tmp_path / "rows.txt", col, col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An int64 copy of one column alone takes 8 bytes per row.
        assert peak < 8 * len(col)

    def test_no_rows_write_an_empty_file(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("old contents\n")
        write_int_rows(path, np.array([], dtype=np.int64), [])
        assert path.read_bytes() == b""
        write_edge_list(from_edge_list([], 3), path)
        assert path.read_bytes() == b""

    def test_int_rows_reject_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_int_rows(tmp_path / "rows.txt", [1, 2], [3])

    def test_relabel_sparse_ids(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("100 205\n205 999\n")
        g, ext = graph_from_file(path)
        assert g.n_nodes == 3
        assert ext.tolist() == [100, 205, 999]
        assert has_edge(g, 0, 1) and has_edge(g, 1, 2)

        map_path = tmp_path / "map.txt"
        write_relabel_map(ext, map_path)
        lines = map_path.read_text().strip().splitlines()
        assert lines == ["100 0", "205 1", "999 2"]

    def test_explicit_node_count_keeps_isolates(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        g, ext = graph_from_file(path, n_nodes=4)
        assert ext is None
        assert g.n_nodes == 4 and g.n_edges == 1

    def test_relabel_pairs_dense(self):
        pairs = np.array([[7, 3], [3, 9]])
        relabeled, ext = relabel_pairs(pairs)
        assert ext.tolist() == [3, 7, 9]
        assert relabeled.tolist() == [[1, 0], [0, 2]]


# ---------------------------------------------------------------------------
# Sidecar files: graph_from_file keeps each parse next to the edge list.
# ---------------------------------------------------------------------------

SIDECAR = graph_module.SIDECAR_SUFFIX
# Two 6-cliques joined by the edge (5, 6), on external ids 3 + 10 i, listed
# with a duplicate, a reversed pair and a self-loop.
CLIQUES = ([(i, j) for i in range(6) for j in range(i + 1, 6)]
           + [(j, i) for i in range(6, 12) for j in range(i + 1, 12)]
           + [(5, 6), (1, 0), (2, 2)])


def write_pairs(path, pairs, ext=lambda i: 3 + 10 * i):
    path.write_text("".join(f"{ext(u)} {ext(v)}\n" for u, v in pairs))


def sidecar_members(path) -> dict:
    with np.load(f"{path}{SIDECAR}") as z:
        return {name: z[name] for name in z.files}


def write_sidecar_members(path, members, **savez) -> None:
    with open(f"{path}{SIDECAR}", "wb") as fh:
        np.savez(fh, **members, **savez)


def forbid_text_parse(monkeypatch):
    def parse(path):
        raise AssertionError(f"{path} parsed as text")
    monkeypatch.setattr(graph_module, "read_edge_list", parse)


def assert_same_result(got, want):
    (g, ext), (g_want, ext_want) = got, want
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, g_want.indptr)
    assert np.array_equal(g.indices, g_want.indices)
    assert (g.n_nodes, g.n_edges, g.n_self_loops_dropped) == (
        g_want.n_nodes, g_want.n_edges, g_want.n_self_loops_dropped)
    assert type(g.n_edges) is int and type(g.n_self_loops_dropped) is int
    if ext_want is None:
        assert ext is None
    else:
        assert ext.dtype == np.int64 and np.array_equal(ext, ext_want)


def text_result(path, n_nodes=None):
    return graph_module._parse_graph(path, n_nodes)


def with_entry(members, row, col):
    """``members`` with ``col`` inserted into ``row``'s neighbor list in
    ascending position, and ``indptr`` shifted to match."""
    indptr, indices = members["indptr"].copy(), members["indices"]
    lo, hi = indptr[row], indptr[row + 1]
    at = lo + np.searchsorted(indices[lo:hi], col)
    indptr[row + 1:] += 1
    return {**members, "indptr": indptr,
            "indices": np.insert(indices, at, np.int32(col))}


def replaced(members, name, fn):
    value = members[name].copy()
    return {**members, name: fn(value)}


def set_item(index, value):
    def fn(a):
        a[index] = value
        return a
    return fn


def _repeat_edge_0_1(m):
    return with_entry(with_entry(m, 0, 1), 1, 0)


def _two_self_loops(m):
    # Symmetric, in range and ascending: only the self-loop check fails.
    return with_entry(with_entry(m, 2, 2), 7, 7)


def _two_extra_entries(m):
    # indptr ends short of len(indices).
    return {**m, "indices": np.append(m["indices"], np.int32([0, 1]))}


# One bad sidecar per load check (and per key), each made from the good
# sidecar of CLIQUES.
BAD_MEMBERS = {
    "indptr_dtype": lambda m: replaced(m, "indptr", lambda a: a.astype(np.int32)),
    "indices_dtype": lambda m: replaced(m, "indices", lambda a: a.astype(np.int64)),
    "indices_shape": lambda m: replaced(m, "indices", lambda a: a.reshape(-1, 2)),
    "ext_ids_dtype": lambda m: replaced(m, "ext_ids", lambda a: a.astype(np.float64)),
    "self_loop_count_shape": lambda m: {
        **m, "n_self_loops_dropped": np.array([m["n_self_loops_dropped"]])},
    "self_loop_count_kind": lambda m: {
        **m, "n_self_loops_dropped": np.float64(m["n_self_loops_dropped"])},
    "no_indices": lambda m: {k: v for k, v in m.items() if k != "indices"},
    "version": lambda m: {**m, "version": np.int64(0)},
    "digest": lambda m: {**m, "sha256": np.str_("0" * 64)},
    "n_nodes_key": lambda m: {**m, "n_nodes": np.int64(12)},
    "indptr_start": lambda m: replaced(m, "indptr", set_item(0, 1)),
    "indptr_decreases": lambda m: replaced(m, "indptr", set_item(1, 11)),
    "indptr_end": _two_extra_entries,
    "indptr_past_end": lambda m: replaced(m, "indptr", set_item(-1, 63)),
    "id_above_range": lambda m: replaced(m, "indices", set_item(-1, 12)),
    "id_below_range": lambda m: replaced(m, "indices", set_item(0, -1)),
    "row_descends": lambda m: replaced(m, "indices", lambda a: np.r_[a[:5][::-1], a[5:]]),
    "repeated_entry": _repeat_edge_0_1,
    "self_loops": _two_self_loops,
    "asymmetric": lambda m: replaced(m, "indices", set_item(4, 7)),  # (0, 5) -> (0, 7)
    "self_loop_count": lambda m: {**m, "n_self_loops_dropped": np.int64(-1)},
    "ext_ids_order": lambda m: replaced(m, "ext_ids", lambda a: a[[1, 0, *range(2, 12)]]),
    "ext_ids_length": lambda m: replaced(m, "ext_ids", lambda a: a[:-1]),
    "no_rows": lambda m: {**m, "indptr": np.array([], dtype=np.int64)},
}


class TestSidecar:
    @pytest.fixture
    def edges(self, tmp_path, monkeypatch):
        # Several check blocks even on a small graph.
        monkeypatch.setattr(graph_module, "_CHECK_CHUNK", 4)
        path = tmp_path / "net.edges"
        write_pairs(path, CLIQUES)
        return path

    @pytest.mark.parametrize("ids, n_nodes", [
        ("dense", None), ("sparse", None), ("dense", 14)])
    def test_second_call_reads_the_sidecar(self, tmp_path, monkeypatch, ids, n_nodes):
        monkeypatch.setattr(graph_module, "_CHECK_CHUNK", 4)
        path = tmp_path / "net.edges"
        write_pairs(path, CLIQUES, (lambda i: i) if ids == "dense" else (lambda i: 3 + 10 * i))
        want = text_result(path, n_nodes)
        assert_same_result(graph_from_file(path, n_nodes), want)
        members = sidecar_members(path)
        assert ("ext_ids" in members) == (ids == "sparse")
        assert members["n_nodes"] == (-1 if n_nodes is None else n_nodes)
        forbid_text_parse(monkeypatch)
        assert_same_result(graph_from_file(path, n_nodes), want)
        assert_same_result(graph_from_file(str(path).encode(), n_nodes), want)

    def test_node_count_is_part_of_the_key(self, edges, monkeypatch):
        write_pairs(edges, CLIQUES, lambda i: i)
        graph_from_file(edges)
        pinned = graph_from_file(edges, n_nodes=14)
        assert pinned[1] is None and pinned[0].n_nodes == 14
        forbid_text_parse(monkeypatch)
        assert_same_result(graph_from_file(edges, n_nodes=14), pinned)
        with pytest.raises(AssertionError, match="parsed as text"):
            graph_from_file(edges)

    def test_edit_with_same_size_and_mtime_is_reparsed(self, edges):
        graph_from_file(edges)
        before = edges.stat()
        text = edges.read_text()
        edited = text.replace("53 63\n", "53 73\n")   # edge (5, 6) -> (5, 7)
        assert edited != text and len(edited) == len(text)
        edges.write_text(edited)
        os.utime(edges, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = edges.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        got = graph_from_file(edges)
        assert_same_result(got, text_result(edges))
        assert has_edge(got[0], 5, 7) and not has_edge(got[0], 5, 6)
        assert sidecar_members(edges)["sha256"] == hashlib.sha256(edited.encode()).hexdigest()

    @pytest.mark.parametrize("bad", BAD_MEMBERS)
    def test_bad_sidecar_is_rejected_and_rewritten(self, edges, bad):
        want = text_result(edges)
        graph_from_file(edges)
        good = sidecar_members(edges)
        write_sidecar_members(edges, BAD_MEMBERS[bad](dict(good)))
        assert_same_result(graph_from_file(edges), want)
        rewritten = sidecar_members(edges)
        assert rewritten.keys() == good.keys()
        for name, value in good.items():
            assert rewritten[name].dtype == value.dtype and np.array_equal(rewritten[name], value)

    def test_id_that_wraps_the_packed_keys_is_rejected(self, tmp_path):
        # At n = 3 the uint32 key of an entry (i, i + 2**31) equals its
        # transpose's, and in the last rows such keys still ascend, so only
        # the range check rejects these ids.
        path = tmp_path / "net.edges"
        path.write_text("0 1\n1 2\n")
        want = text_result(path)
        graph_from_file(path)
        good = sidecar_members(path)
        wrap = np.iinfo(np.int32).min
        write_sidecar_members(path, {
            **good, "indptr": np.array([0, 1, 3, 4], dtype=np.int64),
            "indices": np.array([1, 0, wrap + 1, wrap + 2], dtype=np.int32)})
        assert_same_result(graph_from_file(path), want)
        assert np.array_equal(sidecar_members(path)["indices"], good["indices"])

    def test_decreasing_indptr_is_rejected(self, tmp_path, monkeypatch):
        # At one entry per check slice, indptr [0, 2, 1, 2] cuts the entries
        # [2, 0] into rows that read as the edge (0, 2) both ways, so only
        # the order check rejects it.
        monkeypatch.setattr(graph_module, "_CHECK_CHUNK", 1)
        path = tmp_path / "net.edges"
        path.write_text("0 1\n1 2\n")
        want = text_result(path)
        graph_from_file(path)
        good = sidecar_members(path)
        write_sidecar_members(path, {
            **good, "indptr": np.array([0, 2, 1, 2], dtype=np.int64),
            "indices": np.array([2, 0], dtype=np.int32)})
        assert_same_result(graph_from_file(path), want)
        assert np.array_equal(sidecar_members(path)["indptr"], good["indptr"])

    def test_pinned_sidecar_with_ext_ids_is_rejected(self, edges):
        write_pairs(edges, CLIQUES, lambda i: i)
        want = text_result(edges, 12)
        graph_from_file(edges, n_nodes=12)
        members = sidecar_members(edges)
        write_sidecar_members(edges, {**members, "ext_ids": np.arange(12)})
        assert_same_result(graph_from_file(edges, n_nodes=12), want)
        assert "ext_ids" not in sidecar_members(edges)

    @pytest.mark.parametrize("content", ["empty", "garbage", "truncated", "npy", "object",
                                         "deflated"])
    def test_unreadable_sidecar_is_rewritten(self, edges, content):
        want = text_result(edges)
        graph_from_file(edges)
        sidecar = Path(f"{edges}{SIDECAR}")
        good = sidecar.read_bytes()
        if content == "npy":
            with sidecar.open("wb") as fh:
                np.save(fh, np.arange(5))
        elif content == "object":
            write_sidecar_members(edges, {**sidecar_members(edges),
                                          "indices": np.array([None, 1], dtype=object)})
        elif content == "deflated":
            # A compressed archive whose indices stream is damaged.
            members = sidecar_members(edges)
            with sidecar.open("wb") as fh:
                np.savez_compressed(fh, **{**members, "indices": np.arange(4000, dtype=np.int32)})
            damaged = bytearray(sidecar.read_bytes())
            at = damaged.index(b"indices.npy") + 200
            damaged[at:at + 16] = bytes(16)
            sidecar.write_bytes(bytes(damaged))
        else:
            sidecar.write_bytes({"empty": b"", "garbage": b"not a sidecar\n",
                                 "truncated": good[:len(good) // 2]}[content])
        assert_same_result(graph_from_file(edges), want)
        assert sidecar.read_bytes() == good

    @pytest.mark.parametrize("text", ["0 1\n2\n", "# no edges\n", "0 1.5\n"])
    def test_failed_parse_leaves_no_sidecar(self, tmp_path, text):
        path = tmp_path / "net.edges"
        path.write_text(text)
        with pytest.raises(ValueError):
            graph_from_file(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.edges"]

    def test_file_changed_during_parse_gets_no_sidecar(self, edges, monkeypatch):
        parse = graph_module.read_edge_list

        def parse_then_touch(path):
            pairs = parse(path)
            os.utime(path, ns=(0, 0))
            return pairs

        monkeypatch.setattr(graph_module, "read_edge_list", parse_then_touch)
        graph_from_file(edges)
        assert not Path(f"{edges}{SIDECAR}").exists()

    def test_failed_write_leaves_nothing_behind(self, edges, monkeypatch, caplog):
        def full_disk(fh, **members):
            fh.write(b"PK")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(graph_module.np, "savez", full_disk)
        with caplog.at_level(logging.DEBUG, logger="sscluster.graph"):
            assert_same_result(graph_from_file(edges), text_result(edges))
        assert sorted(p.name for p in edges.parent.iterdir()) == ["net.edges"]
        assert [r.getMessage() for r in caplog.records] == [
            f"sidecar {edges}{SIDECAR} not written: [Errno 28] No space left on device"]

    @pytest.mark.parametrize("present", [False, True])
    def test_unwritable_directory(self, edges, monkeypatch, present):
        want = text_result(edges)
        if present:
            graph_from_file(edges)
        # What os.access reports to a user who may not write the directory
        # (root always may).
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: False
                            if mode & os.W_OK else access(path, mode, **kw))
        if present:
            forbid_text_parse(monkeypatch)
        else:
            def sha256(*args):
                raise AssertionError("hashed an edge list whose sidecar cannot be written")
            monkeypatch.setattr(hashlib, "sha256", sha256)
        assert_same_result(graph_from_file(edges), want)
        assert Path(f"{edges}{SIDECAR}").exists() == present
        assert len(list(edges.parent.iterdir())) == 1 + present

    def plant(self, edges, tmp_path):
        """Put at ``edges``' sidecar a valid sidecar of another graph (the
        cliques without their bridge) under ``edges``' own digest, as
        anyone who may read ``edges`` could; returns that graph."""
        other = tmp_path / "other.edges"
        write_pairs(other, CLIQUES[:-3])
        graph_from_file(other)
        digest = hashlib.sha256(edges.read_bytes()).hexdigest()
        write_sidecar_members(edges, {**sidecar_members(other), "sha256": np.str_(digest)})
        return text_result(other)

    @pytest.mark.parametrize("edges_mode, used", [(0o644, False), (0o666, True)])
    def test_sidecar_others_may_write_is_used_only_if_they_may_write_the_edges(
            self, edges, tmp_path, edges_mode, used):
        planted = self.plant(edges, tmp_path)
        sidecar = Path(f"{edges}{SIDECAR}")
        sidecar.chmod(0o666)
        edges.chmod(edges_mode)
        planted_bytes = sidecar.read_bytes()
        got = graph_from_file(edges)
        # Whoever may write the edge list may change the graph anyway.
        assert_same_result(got, planted if used else text_result(edges))
        assert sidecar.read_bytes() == planted_bytes

    @pytest.mark.parametrize("seen_by", ["stat", "fstat"])
    def test_sidecar_of_another_owner_is_not_used(self, edges, tmp_path, monkeypatch, seen_by):
        # The sidecar reads as owned by a user who owns neither the edge list
        # nor this process: to os.stat before hashing and to os.fstat of the
        # open file, or only to the latter (it was swapped in between).
        self.plant(edges, tmp_path)
        sidecar = Path(f"{edges}{SIDECAR}")
        planted_bytes, planted_inode = sidecar.read_bytes(), sidecar.stat().st_ino
        real_stat, real_fstat = os.stat, os.fstat

        def foreign(st):
            return os.stat_result((*st[:4], st.st_uid + 1, *st[5:]))

        def fake_stat(path, *args, **kwargs):
            st = real_stat(path, *args, **kwargs)
            return foreign(st) if os.fspath(path).endswith(SIDECAR) else st

        def fake_fstat(fd):
            st = real_fstat(fd)
            return foreign(st) if st.st_ino == planted_inode else st

        monkeypatch.setattr(os, "fstat", fake_fstat)
        if seen_by == "stat":
            monkeypatch.setattr(os, "stat", fake_stat)
        assert_same_result(graph_from_file(edges), text_result(edges))
        monkeypatch.undo()
        if seen_by == "stat":
            # Neither used nor replaced: it may not be ours to replace.
            assert sidecar.read_bytes() == planted_bytes
        else:
            assert_same_result(graph_from_file(edges), text_result(edges))
            assert sidecar.stat().st_ino != planted_inode

    def test_fifo_in_place_of_the_sidecar_is_left_alone(self, edges):
        sidecar = Path(f"{edges}{SIDECAR}")
        os.mkfifo(sidecar)
        assert_same_result(graph_from_file(edges), text_result(edges))
        assert sidecar.is_fifo()

    def test_sidecar_path_that_cannot_be_statted_is_left_alone(self, edges):
        # A symlink to itself: os.stat of the sidecar path raises ELOOP.
        sidecar = Path(f"{edges}{SIDECAR}")
        sidecar.symlink_to(sidecar)
        assert_same_result(graph_from_file(edges), text_result(edges))
        assert sidecar.is_symlink() and sidecar.readlink() == sidecar

    def test_edges_unreadable_for_the_hash_get_no_sidecar(self, edges, monkeypatch):
        def open_(file, mode="r", buffering=-1, **kwargs):
            if buffering == 0:  # the hash's read
                raise OSError(5, "Input/output error")
            return open(file, mode, buffering, **kwargs)

        monkeypatch.setattr(graph_module, "open", open_, raising=False)
        assert_same_result(graph_from_file(edges), text_result(edges))
        assert sorted(p.name for p in edges.parent.iterdir()) == ["net.edges"]

    @pytest.mark.parametrize("ext, n_nodes", [("sparse", None), ("dense", 14)])
    def test_sidecar_members_are_pinned(self, tmp_path, ext, n_nodes):
        # A sidecar stands for the parse of its edge list. If this fails
        # because parsing, relabeling or building now gives a different
        # result, bump graph._SIDECAR_VERSION and then update these values,
        # or sidecars written before the change keep serving the old graph.
        ids = (lambda i: 3 + 10 * i) if ext == "sparse" else (lambda i: i)
        path = tmp_path / "net.edges"
        write_pairs(path, CLIQUES, ids)
        # A comment line, a blank line, a third column and a trailing
        # comment; the edge (0, 1) repeats.
        path.write_text(f"# two 6-cliques\n\n{path.read_text()}{ids(0)} {ids(1)} 7  # again\n")
        graph_from_file(path, n_nodes)
        members = sidecar_members(path)
        indptr = [0, 5, 10, 15, 20, 25, 31, 37, 42, 47, 52, 57, 62]
        indices = [1, 2, 3, 4, 5,  0, 2, 3, 4, 5,  0, 1, 3, 4, 5,
                   0, 1, 2, 4, 5,  0, 1, 2, 3, 5,  0, 1, 2, 3, 4, 6,
                   5, 7, 8, 9, 10, 11,  6, 8, 9, 10, 11,  6, 7, 9, 10, 11,
                   6, 7, 8, 10, 11,  6, 7, 8, 9, 11,  6, 7, 8, 9, 10]
        want = {"indptr": indptr + [62, 62] * (n_nodes is not None),
                "indices": indices, "n_self_loops_dropped": 1,
                "n_nodes": -1 if n_nodes is None else n_nodes, "version": 2,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        if ext == "sparse":
            want["ext_ids"] = [3 + 10 * i for i in range(12)]
        dtypes = {"indptr": np.int64, "indices": np.int32, "ext_ids": np.int64,
                  "sha256": np.dtype("<U64")}
        assert sorted(members) == sorted(want)
        for name, value in want.items():
            assert members[name].dtype == dtypes.get(name, np.int64), name
            assert members[name].tolist() == value, name

    def test_version_1_sidecar_is_replaced(self, edges, monkeypatch):
        # Version 1 sidecars also held the edge count, n_edges.
        want = text_result(edges)
        graph_from_file(edges)
        v2 = sidecar_members(edges)
        write_sidecar_members(edges, {**v2, "n_edges": np.int64(31), "version": np.int64(1)})
        parse, parsed = graph_module.read_edge_list, []
        monkeypatch.setattr(graph_module, "read_edge_list",
                            lambda path: parsed.append(path) or parse(path))
        assert_same_result(graph_from_file(edges), want)
        assert parsed == [edges]
        rewritten = sidecar_members(edges)
        assert "n_edges" not in rewritten and rewritten["version"] == 2
        assert rewritten.keys() == v2.keys()
        assert_same_result(graph_from_file(edges), want)
        assert parsed == [edges]

    @given(edge_lists(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_every_built_graph_passes_the_checks(self, case, chunk):
        pairs, n = case
        g = from_edge_list(pairs, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_CHECK_CHUNK", chunk)
            graph_module._check_adjacency(g.indptr, g.indices)

    def test_hit_peaks_below_the_text_path(self, tmp_path, monkeypatch):
        # The text path holds the int64 pairs, then builds; a hit holds the
        # loaded arrays and one array of sorted keys.
        n_nodes = 30_000
        u, v = np.random.default_rng(5).integers(0, n_nodes, size=(2, 200_000))
        key = np.unique(np.minimum(u, v) * n_nodes + np.maximum(u, v))
        pairs = np.stack(np.divmod(key, n_nodes), axis=1)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        path = tmp_path / "net.edges"
        write_int_rows(path, pairs[:, 0], pairs[:, 1])
        graph_from_file(path, n_nodes=n_nodes)

        def traced_peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        text_peak, g = traced_peak(lambda: from_edge_list(read_edge_list(path), n_nodes))
        forbid_text_parse(monkeypatch)
        hit_peak, (hit, _) = traced_peak(lambda: graph_from_file(path, n_nodes=n_nodes))
        assert np.array_equal(hit.indices, g.indices)
        assert hit_peak <= text_peak
