"""Tests for semiring reachability / shortest paths / BFS."""

import numpy as np
import pytest

from repro.apps.reachability import bfs_levels, k_hop_distances, k_hop_reachability
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import rmat


@pytest.fixture
def path_graph():
    """Directed path 0 -> 1 -> 2 -> 3 -> 4 with weights 1, 2, 3, 4."""
    dense = np.zeros((5, 5))
    for i in range(4):
        dense[i, i + 1] = i + 1.0
    return CSRMatrix.from_dense(dense)


class TestReachability:
    def test_k_hop_on_path(self, path_graph):
        r2 = k_hop_reachability(path_graph, 2)
        d = r2.to_dense()
        assert d[0, 2] == 1 and d[0, 1] == 1
        assert d[0, 3] == 0  # needs 3 hops

    def test_one_hop_is_the_edges(self, path_graph):
        # the graph itself plus the diagonal, as 0/1: no squaring at k = 1
        d = k_hop_reachability(path_graph, 1).to_dense()
        np.testing.assert_array_equal(d[0], [1, 1, 0, 0, 0])
        np.testing.assert_array_equal(d, np.eye(5) + (path_graph.to_dense() != 0))

    def test_k_covers_at_least_k(self, path_graph):
        # repeated squaring may overshoot k, never undershoot
        r3 = k_hop_reachability(path_graph, 3)
        assert r3.to_dense()[0, 3] == 1

    def test_full_closure(self, path_graph):
        r = k_hop_reachability(path_graph, 8)
        d = r.to_dense()
        for i in range(5):
            for j in range(i, 5):
                assert d[i, j] == 1

    def test_bad_k(self, path_graph):
        with pytest.raises(ValueError):
            k_hop_reachability(path_graph, 0)


class TestDistances:
    def test_path_distances(self, path_graph):
        d = k_hop_distances(path_graph, 4).to_dense()
        assert d[0, 1] == 1.0
        assert d[0, 2] == 3.0   # 1 + 2
        assert d[0, 4] == 10.0  # 1 + 2 + 3 + 4
        assert d[4, 0] == 0.0   # unreachable -> absent

    def test_shortcut_wins(self):
        dense = np.zeros((3, 3))
        dense[0, 1], dense[1, 2], dense[0, 2] = 1.0, 1.0, 5.0
        g = CSRMatrix.from_dense(dense)
        d = k_hop_distances(g, 2).to_dense()
        assert d[0, 2] == 2.0  # two hops beat the direct weight-5 edge

    def test_bad_k(self, path_graph):
        with pytest.raises(ValueError):
            k_hop_distances(path_graph, 0)


class TestBFS:
    def test_levels_on_path(self, path_graph):
        levels = bfs_levels(path_graph, 0)
        np.testing.assert_array_equal(levels, [0, 1, 2, 3, 4])

    def test_unreachable(self, path_graph):
        levels = bfs_levels(path_graph, 2)
        np.testing.assert_array_equal(levels, [-1, -1, 0, 1, 2])

    def test_matches_networkx(self):
        import networkx as nx

        g = rmat(7, 4.0, seed=17)
        levels = bfs_levels(g, 0)
        nxg = nx.from_scipy_sparse_array(g.to_scipy(), create_using=nx.DiGraph)
        expected = nx.single_source_shortest_path_length(nxg, 0)
        for v in range(g.n_rows):
            assert levels[v] == expected.get(v, -1)

    def test_bad_source(self, path_graph):
        with pytest.raises(IndexError):
            bfs_levels(path_graph, 99)
