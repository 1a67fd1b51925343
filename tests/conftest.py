import numpy as np
import pytest
from hypothesis import strategies as st

from sscluster.graph import SparseGraph, from_edge_list

from oracles import has_edge


def check_graph_invariants(g: SparseGraph) -> None:
    """Symmetry, zero diagonal, sorted unique neighbor lists, degree sum."""
    total = 0
    for i in range(g.n_nodes):
        nbrs = g.neighbors(i)
        assert np.all(np.diff(nbrs) > 0), "neighbor list not sorted/unique"
        assert i not in nbrs, "self-loop present"
        for j in nbrs:
            assert has_edge(g, j, i), "asymmetric edge"
        total += len(nbrs)
    assert total == 2 * g.n_edges


@st.composite
def edge_lists(draw):
    """Raw (u, v) pairs on n <= 30 nodes, repeats and self-loops allowed."""
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=80))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return pairs, n


@pytest.fixture
def triangle() -> SparseGraph:
    return from_edge_list([(0, 1), (1, 2), (0, 2)], 3)


@pytest.fixture
def path4() -> SparseGraph:
    return from_edge_list([(0, 1), (1, 2), (2, 3)], 4)


@pytest.fixture
def star5() -> SparseGraph:
    """K_{1,4}: node 0 is the center."""
    return from_edge_list([(0, i) for i in range(1, 5)], 5)
