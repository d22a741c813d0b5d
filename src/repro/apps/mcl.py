"""Markov clustering (MCL) driven by the out-of-core SpGEMM executor.

The paper's related work highlights Markov clustering as a flagship
SpGEMM consumer ([29] MLR-MCL; [33] runs MCL on pre-exascale machines
with a pipelined SpGEMM).  The MCL loop alternates:

* **expansion** — squaring the column-stochastic matrix (the SpGEMM;
  optionally routed through the out-of-core executor);
* **inflation** — entrywise power ``r`` followed by column
  re-normalization (sharpens cluster structure);
* **pruning** — dropping entries below a threshold (keeps it sparse).

At convergence the matrix is (nearly) idempotent; clusters are the
connected components of the attractor structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..device.specs import NodeSpec
from ..sparse.formats import CSRMatrix, INDEX_DTYPE
from ..sparse.ops import add, drop_explicit_zeros, transpose
from .graphs import multiply, remove_diagonal

__all__ = ["MCLResult", "column_normalize", "markov_clustering"]


@dataclass(frozen=True)
class MCLResult:
    labels: np.ndarray        # cluster id per vertex
    num_clusters: int
    iterations: int
    converged: bool
    final_matrix: CSRMatrix


def column_normalize(m: CSRMatrix) -> CSRMatrix:
    """Scale every column to sum 1 (columns with zero sum stay zero)."""
    sums = np.zeros(m.n_cols)
    np.add.at(sums, m.col_ids, m.data)
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return CSRMatrix(
        m.n_rows, m.n_cols, m.row_offsets.copy(), m.col_ids.copy(),
        m.data * scale[m.col_ids], check=False,
    )


def _inflate(m: CSRMatrix, power: float, prune: float) -> CSRMatrix:
    data = np.power(m.data, power)
    inflated = CSRMatrix(
        m.n_rows, m.n_cols, m.row_offsets.copy(), m.col_ids.copy(), data, check=False
    )
    normalized = column_normalize(inflated)
    return drop_explicit_zeros(normalized, tol=prune)


def _components(structure: CSRMatrix) -> np.ndarray:
    """Connected components of the symmetrized structure (union-find)."""
    parent = np.arange(structure.n_rows, dtype=INDEX_DTYPE)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = structure.expand_row_ids()
    for r, c in zip(rows.tolist(), structure.col_ids.tolist()):
        ra, rb = find(r), find(c)
        if ra != rb:
            parent[rb] = ra

    roots = np.array([find(i) for i in range(structure.n_rows)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def markov_clustering(
    graph: CSRMatrix,
    *,
    inflation: float = 2.0,
    prune: float = 1e-4,
    max_iterations: int = 50,
    tol: float = 1e-6,
    node: Optional[NodeSpec] = None,
    add_self_loops: bool = True,
) -> MCLResult:
    """Cluster an undirected graph with the MCL process.

    ``node`` routes every expansion (the SpGEMM) through the out-of-core
    executor on that simulated device.
    """
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1")
    a = remove_diagonal(add(graph, transpose(graph)))
    if add_self_loops:
        eye = CSRMatrix(
            a.n_rows, a.n_cols,
            np.arange(a.n_rows + 1, dtype=INDEX_DTYPE),
            np.arange(a.n_rows, dtype=INDEX_DTYPE),
            np.ones(a.n_rows),
        )
        a = add(a, eye)
    m = column_normalize(a)

    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        expanded = multiply(m, m, node)
        nxt = _inflate(expanded, inflation, prune)
        # convergence: structure stable and values stationary
        if nxt.shape == m.shape and np.array_equal(nxt.col_ids, m.col_ids) and np.array_equal(
            nxt.row_offsets, m.row_offsets
        ):
            if np.max(np.abs(nxt.data - m.data), initial=0.0) < tol:
                m = nxt
                converged = True
                break
        m = nxt

    labels = _components(m)
    return MCLResult(
        labels=labels,
        num_clusters=int(labels.max()) + 1 if labels.size else 0,
        iterations=it,
        converged=converged,
        final_matrix=m,
    )
