import tracemalloc
import warnings

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
        with pytest.raises(ValueError):
            read_edge_list(path)

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
