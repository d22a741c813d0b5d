"""The nine-matrix evaluation suite (paper Table II analogs).

The paper evaluates on nine SuiteSparse matrices too large for a V100:
three LiveJournal social graphs, three Wikipedia link-graph snapshots, the
uk-2002 web crawl, and two regular PDE/optimization matrices (stokes,
nlpkkt200).  Downloading SuiteSparse is impossible here, so each matrix
gets a *synthetic analog* reproducing the property that drives every
figure — the compression ratio ``flop(A^2)/nnz(A^2)`` and the row-length
skew — at a scale pure Python handles (DESIGN.md, substitution table):

====================  ==========  =====================  ===========
paper matrix          abbr        analog generator       target cr
====================  ==========  =====================  ===========
ljournal-2008         lj2008      R-MAT, strong skew     1.84 (~2+)
com-LiveJournal       com-lj      R-MAT, strong skew     1.77 (~2+)
soc-LiveJournal1      soc-lj      R-MAT, strong skew     1.76 (~2+)
stokes                stokes      banded, bw 2           4.46
uk-2002               uk-2002     banded + hub overlay   9.14
wikipedia-20070206    wiki0206    mild-skew R-MAT        2.66
nlpkkt200             nlp         banded, bw 5           10.28
wikipedia-20061104    wiki1104    mild-skew R-MAT        2.67
wikipedia-20060925    wiki0925    mild-skew R-MAT        2.67
====================  ==========  =====================  ===========

(A compression ratio below 2 is unreachable when every product is distinct
— the paper's sub-2 values for the LiveJournal graphs reflect its own flop
accounting; our analogs sit just above 2, preserving the *ranking*, which
is what the evaluation depends on.)

``C = A x A`` throughout, "as is the convention in other studies on
SpGEMM" (Section V.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .formats import CSRMatrix
from .generators import banded, rmat
from .ops import add, row_stats

__all__ = ["SuiteEntry", "MatrixFeatures", "SUITE", "suite_names", "build_matrix", "matrix_features"]


@dataclass(frozen=True)
class SuiteEntry:
    """One matrix of the evaluation suite."""

    name: str          # paper's matrix name
    abbr: str          # paper's abbreviation (Table II column 2)
    family: str        # "social" | "wiki" | "web" | "mesh"
    build: Callable[[], CSRMatrix]
    paper_cr: float    # Table II compression ratio, for reference
    description: str


@dataclass(frozen=True)
class MatrixFeatures:
    """The Table II feature columns for one matrix."""

    name: str
    abbr: str
    n: int
    nnz: int
    flops: int           # flop(A^2)
    nnz_out: int         # nnz(A^2)
    gini: float          # row-length skew

    @property
    def compression_ratio(self) -> float:
        return self.flops / self.nnz_out if self.nnz_out else 0.0


def _social(seed: int, a: float, deg: float = 4.0) -> Callable[[], CSRMatrix]:
    """LiveJournal-style: heavy-tailed R-MAT at the lowest compression
    ratio of the suite (sparse rows, few product collisions)."""
    return lambda: rmat(15, deg, seed=seed, a=a, b=0.21, c=0.21)


def _wiki(seed: int) -> Callable[[], CSRMatrix]:
    """Wikipedia-style: milder skew, denser rows, slightly higher
    compression than the social graphs."""
    return lambda: rmat(13, 14.0, seed=seed, a=0.45, b=0.22, c=0.22)


def _stokes() -> CSRMatrix:
    """PDE mesh: regular sparse band, near-constant row length."""
    return banded(10_000, 14, seed=101, fill=0.32)


def _uk2002() -> CSRMatrix:
    """Web crawl: strong locality (wide sparse band) plus a hub overlay."""
    base = banded(1 << 14, 16, seed=202, fill=0.5)
    hubs = rmat(14, 0.3, seed=203, a=0.6, b=0.18, c=0.18)
    return add(base, hubs)


def _nlp() -> CSRMatrix:
    """KKT optimization matrix: widest band, highest compression."""
    return banded(20_000, 12, seed=303, fill=0.6)


SUITE: List[SuiteEntry] = [
    SuiteEntry("ljournal-2008", "lj2008", "social", _social(11, 0.50), 1.84,
               "LiveJournal follower graph (heavy-tailed degrees)"),
    SuiteEntry("com-LiveJournal", "com-lj", "social", _social(12, 0.52), 1.77,
               "LiveJournal community graph (heaviest skew of the three)"),
    SuiteEntry("soc-LiveJournal1", "soc-lj", "social", _social(13, 0.48, deg=4.2), 1.76,
               "LiveJournal social network"),
    SuiteEntry("stokes", "stokes", "mesh", _stokes, 4.46,
               "Stokes-flow discretization (regular narrow band)"),
    SuiteEntry("uk-2002", "uk-2002", "web", _uk2002, 9.14,
               ".uk web crawl (local link structure + hub pages)"),
    SuiteEntry("wikipedia-20070206", "wiki0206", "wiki", _wiki(21), 2.66,
               "Wikipedia link snapshot 2007-02-06"),
    SuiteEntry("nlpkkt200", "nlp", "mesh", _nlp, 10.28,
               "Nonlinear-programming KKT system (widest band)"),
    SuiteEntry("wikipedia-20061104", "wiki1104", "wiki", _wiki(22), 2.67,
               "Wikipedia link snapshot 2006-11-04"),
    SuiteEntry("wikipedia-20060925", "wiki0925", "wiki", _wiki(23), 2.67,
               "Wikipedia link snapshot 2006-09-25"),
]

_BY_NAME: Dict[str, SuiteEntry] = {}
for _e in SUITE:
    _BY_NAME[_e.name] = _e
    _BY_NAME[_e.abbr] = _e


def suite_names() -> List[str]:
    """Paper-order matrix names (Table II row order)."""
    return [e.name for e in SUITE]


def build_matrix(name: str) -> CSRMatrix:
    """Construct a suite matrix by name or abbreviation (deterministic)."""
    try:
        entry = _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown suite matrix {name!r}; known: {suite_names()}") from None
    return entry.build()


def matrix_features(
    name: str, matrix: Optional[CSRMatrix] = None
) -> MatrixFeatures:
    """Compute the Table II feature row for a suite matrix.

    ``nnz(A^2)`` is the pipeline's symbolic pass; pass a prebuilt
    ``matrix`` to skip regeneration.
    """
    from ..spgemm.flops import total_flops
    from ..spgemm.twophase import spgemm_symbolic

    entry = _BY_NAME[name]
    a = matrix if matrix is not None else entry.build()
    flops = total_flops(a, a)
    nnz_out = int(spgemm_symbolic(a, a).row_nnz.sum())
    return MatrixFeatures(
        name=entry.name,
        abbr=entry.abbr,
        n=a.n_rows,
        nnz=a.nnz,
        flops=flops,
        nnz_out=nnz_out,
        gini=row_stats(a)["gini"],
    )
