"""Linear algebra over truncated series and the rational-function field."""

from __future__ import annotations

from convexenum.exact import polynomial, ratfun, series
from convexenum.exact.coefficients import reciprocal
from convexenum.frozen import Frozen


class NonUnitDeterminantError(ValueError):
    """Raised when elimination cannot find a pivot that is a unit."""


class SeriesMatrix(Frozen):
    """A rectangular grid of :class:`TruncatedSeries` entries sharing
    one truncation order; the field variants of the algorithms below
    take plain nested lists instead.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        if not all(isinstance(e, series.TruncatedSeries)
                   for row in entries for e in row):
            raise TypeError("entries must be TruncatedSeries")
        if len({e.order for row in entries for e in row}) > 1:
            raise ValueError("entries must share one truncation order")
        super().__init__(entries)

    @property
    def rows(self) -> int:
        return len(self.entries)


def _gauss_jordan(rows, rhs, is_unit, inverse):
    """Solve rows * X = rhs by Gauss-Jordan elimination.

    Each column pivots on its first remaining entry for which
    ``is_unit`` holds, and the pivot row is scaled by ``inverse`` of its
    pivot; no such entry means the determinant is not a unit.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("system matrix must be square")
    if len(rhs) != n:
        raise ValueError("right-hand side length mismatch")
    a = [list(row) for row in rows]
    b = list(rhs)
    for col in range(n):
        piv = next((r for r in range(col, n) if is_unit(a[r][col])), None)
        if piv is None:
            raise NonUnitDeterminantError(f"no unit pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = inverse(a[col][col])
        a[col] = [e * inv for e in a[col]]
        b[col] = b[col] * inv
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [e - f * p if p else e for e, p in zip(a[r], a[col])]
            b[r] = b[r] - f * b[col]
    return b


def solve_series_system(m: SeriesMatrix, rhs) -> list[series.TruncatedSeries]:
    """Solve M * F = rhs over truncated series.

    Requires a square system whose determinant is a unit in the series
    ring: the pivots are entries with a nonzero constant term, so a
    column without one means the determinant's constant term is zero.
    """
    return _gauss_jordan(m.entries, rhs, lambda e: e.coeffs[0] != 0,
                         series.TruncatedSeries.invert)


def solve_field_system(matrix, rhs):
    """Gaussian elimination over any field (entries support +, -, *,
    ``bool``, comparison with 1 and -1, and division of a ``Fraction``
    by them).

    ``matrix`` is a square nested list; raises on a singular matrix.
    Each pivot is inverted by ``coefficients.reciprocal``: a pivot of 1
    or -1 is its own inverse and stays an ``int``, and any other is
    inverted as ``Fraction(1) / e``, so integer entries give exact
    ``int`` or ``Fraction`` results, never floats.
    """
    return _gauss_jordan(matrix, rhs, bool, reciprocal)


def matrix_resolvent_row(m, row: int) -> list[ratfun.RationalFunction]:
    """Row ``row`` of (I - Mx)^{-1} as exact rational functions.

    ``m`` is a square nested list of polynomial (or integer) entries,
    typically an adjacency matrix; the resolvent row generates walk
    counts out of vertex ``row``.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    x = polynomial.Polynomial((0, 1))
    # Solve (I - Mx)^T y = e_row; then y_j = [(I - Mx)^{-1}]_{row, j}.
    sys = [
        [ratfun.RationalFunction((1 if i == j else 0) - x * m[j][i])
         for j in range(n)]
        for i in range(n)
    ]
    rhs = [ratfun.RationalFunction(1 if i == row else 0) for i in range(n)]
    return solve_field_system(sys, rhs)
