"""The cross-checking oracle, built on scipy.sparse.

scipy's SpGEMM is an independent, battle-tested implementation; every
kernel in the package is validated against it (and against the
sequential Gustavson reference) in this suite.  The library itself never
computes through scipy.
"""

from repro.sparse.formats import CSRMatrix
from repro.sparse.ops import drop_explicit_zeros


def spgemm_scipy(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """``A x B`` via scipy, returned in canonical CSR."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    return CSRMatrix.from_scipy(a.to_scipy() @ b.to_scipy())


def assert_same_product(
    candidate: CSRMatrix,
    a: CSRMatrix,
    b: CSRMatrix,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> None:
    """Raise ``AssertionError`` unless ``candidate`` equals ``A x B``.

    Structure must match exactly (scipy prunes numerically-zero entries,
    so candidates are compared after the same pruning); values must match
    within tolerance.
    """
    expected = spgemm_scipy(a, b)
    got = drop_explicit_zeros(candidate)
    if got.shape != expected.shape:
        raise AssertionError(f"shape mismatch: {got.shape} vs {expected.shape}")
    if not got.allclose(expected, rtol=rtol, atol=atol):
        raise AssertionError(
            f"product mismatch: candidate nnz={got.nnz}, expected nnz={expected.nnz}"
        )
