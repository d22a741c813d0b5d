"""Sparse SUMMA: distributed-memory SpGEMM on a simulated process grid.

The paper's related work singles out the *pipelined Sparse SUMMA* of
Selvitopi et al. [33] as the distributed counterpart of its single-node
framework.  This module implements the algorithm for real — block
distribution, staged broadcasts, local SpGEMM with accumulation — and
simulates its execution on a ``q x q`` process grid with an alpha-beta
network model, using the same discrete-event engine as the node simulator.

Algorithm (stationary-C 2D SUMMA over ``q`` stages):

* ``A`` and ``B`` are distributed in ``q x q`` blocks; process ``(i, j)``
  owns ``A[i][j]``, ``B[i][j]`` and accumulates ``C[i][j]``;
* at stage ``k``, the owners broadcast ``A[i][k]`` along process row ``i``
  and ``B[k][j]`` along process column ``j``;
* every process computes ``C[i][j] += A[i][k] x B[k][j]``.

The *pipelined* variant overlaps the stage ``k+1`` broadcasts with the
stage ``k`` local multiply (communication on the NIC resource, compute on
the core resource, prefetch depth 1) — the same
communication/computation-overlap idea the paper applies to PCIe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..device.engine import SimEngine
from ..device.trace import Timeline
from ..sparse.formats import CSRMatrix
from ..sparse.ops import add, extract_columns
from ..sparse.partition import panel_boundaries
from ..spgemm.twophase import spgemm_twophase
from .sharding.transfers import NetworkModel

__all__ = [
    "BlockGrid",
    "SummaResult",
    "distribute_blocks",
    "sparse_summa",
]


@dataclass(frozen=True)
class BlockGrid:
    """A q x q block distribution of one matrix."""

    q: int
    row_bounds: np.ndarray
    col_bounds: np.ndarray
    blocks: Tuple[Tuple[CSRMatrix, ...], ...]  # blocks[i][j]

    def block(self, i: int, j: int) -> CSRMatrix:
        return self.blocks[i][j]


def distribute_blocks(m: CSRMatrix, q: int) -> BlockGrid:
    """Cut a matrix into a q x q block grid (near-equal block sizes)."""
    if q < 1:
        raise ValueError("grid size must be >= 1")
    row_bounds = panel_boundaries(m.n_rows, q)
    col_bounds = panel_boundaries(m.n_cols, q)
    blocks: List[Tuple[CSRMatrix, ...]] = []
    for i in range(q):
        strip = m.row_slice(int(row_bounds[i]), int(row_bounds[i + 1]))
        blocks.append(
            tuple(
                extract_columns(strip, int(col_bounds[j]), int(col_bounds[j + 1]))
                for j in range(q)
            )
        )
    return BlockGrid(q=q, row_bounds=row_bounds, col_bounds=col_bounds, blocks=tuple(blocks))


@dataclass(frozen=True)
class SummaResult:
    """Distributed product: per-process C blocks + the simulated timeline."""

    c_blocks: Tuple[Tuple[CSRMatrix, ...], ...]
    timeline: Timeline
    total_flops: int
    pipelined: bool

    @property
    def elapsed(self) -> float:
        return self.timeline.makespan()

    @property
    def gflops(self) -> float:
        return self.total_flops / self.elapsed / 1e9 if self.elapsed > 0 else 0.0

    def assemble(self) -> CSRMatrix:
        """The full C (what a gather to one node would produce)."""
        from ..core.assemble import assemble_chunks

        return assemble_chunks([list(row) for row in self.c_blocks])


def sparse_summa(
    a: CSRMatrix,
    b: CSRMatrix,
    q: int,
    *,
    network: Optional[NetworkModel] = None,
    pipelined: bool = True,
) -> SummaResult:
    """Run Sparse SUMMA on a simulated ``q x q`` process grid.

    Computes the exact product (block-wise, with sparse accumulation) and
    the simulated distributed timeline.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    net = network or NetworkModel()

    ga = distribute_blocks(a, q)
    gb = distribute_blocks(b, q)

    eng = SimEngine()
    for i in range(q):
        for j in range(q):
            eng.add_resource(f"nic{i}.{j}")
            eng.add_resource(f"cpu{i}.{j}")

    # real accumulation state + simulated ops
    c_blocks: List[List[Optional[CSRMatrix]]] = [[None] * q for _ in range(q)]
    flops_total = 0

    for k in range(q):
        for i in range(q):
            for j in range(q):
                a_blk = ga.block(i, k)
                b_blk = gb.block(k, j)
                # ---- real compute -------------------------------------
                partial = spgemm_twophase(a_blk, b_blk)
                flops_total += partial.stats.flops
                prev = c_blocks[i][j]
                c_blocks[i][j] = (
                    partial.matrix if prev is None else add(prev, partial.matrix)
                )

                # ---- simulated schedule -------------------------------
                # stage-k receive: the A block rides the row broadcast,
                # the B block the column broadcast; charged on this
                # process's NIC (owners skip their own block)
                nbytes = 0
                if k != j:
                    nbytes += a_blk.nbytes()
                if k != i:
                    nbytes += b_blk.nbytes()
                comm = eng.submit(
                    f"recv[{i}.{j}@{k}]", f"nic{i}.{j}",
                    net.t_broadcast(nbytes, q - 1) if nbytes else 0.0,
                    stream=f"nic{i}.{j}" if pipelined else f"p{i}.{j}",
                    stage=k, kind="comm", bytes=nbytes,
                )
                eng.submit(
                    f"gemm[{i}.{j}@{k}]", f"cpu{i}.{j}",
                    net.t_compute(partial.stats.flops),
                    deps=[comm],
                    stream=f"cpu{i}.{j}" if pipelined else f"p{i}.{j}",
                    stage=k, kind="compute", flops=partial.stats.flops,
                )

    timeline = eng.run()
    return SummaResult(
        c_blocks=tuple(tuple(row) for row in c_blocks),
        timeline=timeline,
        total_flops=flops_total,
        pipelined=pipelined,
    )
