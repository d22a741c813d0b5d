"""Reachability and shortest paths via semiring SpGEMM.

Classic repeated-squaring formulations (paper citations [8], [22], [35]):

* ``k``-hop reachability over the (or, and) semiring;
* ``k``-hop shortest distances over the (min, +) semiring;
* BFS levels by multiplying a frontier vector (as a 1 x n matrix) into
  the adjacency each step.
"""

from __future__ import annotations

import numpy as np

from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from ..sparse.ops import add, drop_explicit_zeros
from ..spgemm.semiring import MIN_PLUS, OR_AND, spgemm_semiring
from .graphs import remove_diagonal, to_unweighted

__all__ = ["k_hop_reachability", "k_hop_distances", "bfs_levels"]


def _with_self_loops(a: CSRMatrix, value: float) -> CSRMatrix:
    eye = CSRMatrix(
        a.n_rows, a.n_cols,
        np.arange(a.n_rows + 1, dtype=INDEX_DTYPE),
        np.arange(a.n_rows, dtype=INDEX_DTYPE),
        np.full(a.n_rows, value),
    )
    return add(a, eye)


def k_hop_reachability(graph: CSRMatrix, k: int) -> CSRMatrix:
    """0/1 matrix of pairs connected by a path of length <= ``k``.

    Repeated squaring over (or, and): ``ceil(log2 k)`` SpGEMMs.  The
    diagonal is stored: every vertex reaches itself in zero hops.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # one hop as a 0/1 matrix (a stored 0.0 is no edge under (or, and));
    # the diagonal makes powers accumulate paths of every length <= hops
    edges = to_unweighted(remove_diagonal(drop_explicit_zeros(graph)))
    reach = _with_self_loops(edges, 1.0)
    hops = 1
    while hops < k:
        reach = spgemm_semiring(reach, reach, OR_AND)
        hops *= 2
    return reach


def k_hop_distances(graph: CSRMatrix, k: int) -> CSRMatrix:
    """Shortest-path distances using at most ``k`` edges, over (min, +).

    Stored entries are finite distances; absent pairs are unreachable
    within ``k`` hops.  The closure squares the graph with 0-weight
    self-loops added; (min, +) stores those 0 distances (its zero is
    +inf), so they, and any other 0 distance, are dropped from the
    result.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dist = _with_self_loops(graph, 0.0)
    hops = 1
    while hops < k:
        dist = spgemm_semiring(dist, dist, MIN_PLUS)
        hops *= 2
    return drop_explicit_zeros(dist)


def bfs_levels(graph: CSRMatrix, source: int) -> np.ndarray:
    """BFS levels from ``source`` (-1 for unreachable vertices).

    Level-synchronous: the frontier is a 1 x n boolean matrix multiplied
    into the adjacency over (or, and) each step.
    """
    if not 0 <= source < graph.n_rows:
        raise IndexError(f"source {source} out of range")
    levels = np.full(graph.n_rows, -1, dtype=np.int64)
    levels[source] = 0
    frontier = CSRMatrix(
        1, graph.n_rows,
        np.array([0, 1], dtype=INDEX_DTYPE),
        np.array([source], dtype=INDEX_DTYPE),
        np.ones(1),
    )
    level = 0
    while frontier.nnz:
        level += 1
        nxt = spgemm_semiring(frontier, graph, OR_AND)
        fresh = nxt.col_ids[levels[nxt.col_ids] == -1]
        if fresh.size == 0:
            break
        levels[fresh] = level
        frontier = CSRMatrix(
            1, graph.n_rows,
            np.array([0, fresh.size], dtype=INDEX_DTYPE),
            np.sort(fresh),
            np.ones(fresh.size),
            check=False,
        )
    return levels
