"""Linear algebra over truncated integer series, the rationals and
integer polynomials: one fraction-free Gauss-Jordan elimination,
:func:`_gauss_jordan` (Bareiss, Math. Comp. 22, 1968), for all three.

At a pivot p every other row r becomes (p row_r - a_rc row_c) / prev,
prev the pivot before p.  By Sylvester's identity every entry is then a
minor of the system, so each division is exact: the series solve and
the resolvent divide by the ring's own exact ``/``, in Z[[x]] and Z[x],
which raises should a quotient leave the ring, and the rational solve
divides with a ``Fraction`` of its own.  The solution is the numerators
over the last pivot; the resolvent divides each numerator and that
pivot by their gcd, so that it builds each ``RationalFunction`` from a
coprime pair."""

from __future__ import annotations

from operator import truediv

from convexenum.exact import polynomial, ratfun, series
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


def _gauss_jordan(rows, rhs, is_pivot, divide):
    """Solve rows * X = rhs by the fraction-free Gauss-Jordan
    elimination of the module docstring: return the numerators of X and
    the last pivot, which is the determinant up to sign.

    Each column pivots on its first remaining entry for which
    ``is_pivot`` holds; no such entry means the determinant is not a
    unit.  ``divide`` is the ring's exact quotient; prev is 1 at the
    first pivot.  Negation is spelled 0 - a_rc, which every ring of the
    kernel takes: ``Polynomial`` and ``TruncatedSeries`` have no unary
    minus.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("system matrix must be square")
    if len(rhs) != n:
        raise ValueError("right-hand side length mismatch")
    a = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if is_pivot(a[r][col])), None)
        if piv is None:
            raise NonUnitDeterminantError(f"no unit pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        for r in range(n):
            if r != col:
                g = 0 - a[r][col]
                # zero over a zero pivot-row entry stays zero
                a[r] = [divide(p * e + g * q if q else p * e, prev)
                        if e or q else e for e, q in zip(a[r], a[col])]
        prev = p
    return [row[n] for row in a], prev


def solve_series_system(m: SeriesMatrix, rhs) -> list[series.TruncatedSeries]:
    """Solve M * F = rhs over truncated integer series.

    Requires a square system whose determinant has a nonzero constant
    term: the pivots are entries with a nonzero constant term, and a
    column without one means the determinant's constant term is zero.
    Every elimination step divides exactly.  The solution can leave
    Z[[x]], and then raises ``ArithmeticError``, only when the
    determinant is not a unit: when its constant term is not 1 or -1.
    """
    nums, det = _gauss_jordan(m.entries, rhs, lambda e: e.coeffs[0] != 0,
                              truediv)
    return [f / det for f in nums]


def solve_field_system(matrix, rhs):
    """Solve matrix * X = rhs over the rationals: ``matrix`` is a square
    nested list of ``int`` or ``Fraction`` entries, and a singular one
    raises ``NonUnitDeterminantError``.

    The elimination divides with ``Fraction``, imported here: it is the
    one rational division of the library.  An integral value of X is an
    ``int``.
    """
    from fractions import Fraction
    nums, det = _gauss_jordan(matrix, rhs, bool, Fraction)
    return [x.numerator if x.denominator == 1 else x
            for x in (Fraction(y, det) for y in nums)]


def matrix_resolvent_row(m, row: int) -> list[ratfun.RationalFunction]:
    """Row ``row`` of (I - Mx)^{-1} as exact rational functions.

    ``m`` is a square nested list of polynomial (or integer) entries,
    typically an adjacency matrix; the resolvent row generates walk
    counts out of vertex ``row``.  The system (I - Mx)^T y = e_row,
    y_j = [(I - Mx)^{-1}]_{row, j}, is eliminated over integer
    polynomials: each pivot is a leading principal minor of I - xM^T,
    which is 1 mod x, so none is zero and no row moves.  Each entry is
    its numerator y over the determinant, both divided by their gcd g,
    so that the constructor gets the coprime pair it takes; a zero y
    comes out as 0 over 1.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    x = polynomial.Polynomial((0, 1))
    sys = [[int(i == j) - x * m[j][i] for j in range(n)] for i in range(n)]
    rhs = [polynomial.Polynomial((int(i == row),)) for i in range(n)]
    nums, det = _gauss_jordan(sys, rhs, bool, truediv)
    return [ratfun.RationalFunction(y / g, det / g)
            for y in nums for g in [y.gcd(det)]]
