"""Triangle counting via SpGEMM (one of the paper's graph motivations).

For an undirected simple graph with adjacency ``A``:

* per-pair wedge counts are ``A²``;
* the global triangle count is ``sum(A² ∘ A) / 6``;
* per-vertex counts are ``diag(A³) / 2 = rowsum(A² ∘ A) / 2``.

The squaring runs either in-core or through the out-of-core executor
(pass a node), which is exactly the paper's scenario: ``A²`` of a large
graph dwarfs the graph itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..device.specs import NodeSpec
from ..sparse.formats import CSRMatrix
from .graphs import hadamard, multiply, symmetrize

__all__ = ["count_triangles", "triangles_per_vertex"]


def count_triangles(
    graph: CSRMatrix,
    *,
    node: Optional[NodeSpec] = None,
    assume_canonical: bool = False,
) -> int:
    """Number of triangles in the (symmetrized) graph.

    ``assume_canonical`` skips the symmetrize/clean step when the input is
    already an undirected simple 0/1 adjacency matrix.
    """
    a = graph if assume_canonical else symmetrize(graph)
    wedges = multiply(a, a, node)
    closed = hadamard(wedges, a)
    total = closed.data.sum()
    count = total / 6.0
    if abs(count - round(count)) > 1e-6:
        raise ValueError(
            "non-integral triangle count — is the input an undirected "
            "simple 0/1 graph? (pass assume_canonical=False to clean it)"
        )
    return int(round(count))


def triangles_per_vertex(
    graph: CSRMatrix,
    *,
    node: Optional[NodeSpec] = None,
    assume_canonical: bool = False,
) -> np.ndarray:
    """Triangles through each vertex (sums to ``3 x count_triangles``)."""
    a = graph if assume_canonical else symmetrize(graph)
    wedges = multiply(a, a, node)
    closed = hadamard(wedges, a)
    per_vertex = np.zeros(a.n_rows)
    np.add.at(per_vertex, closed.expand_row_ids(), closed.data)
    return per_vertex / 2.0
