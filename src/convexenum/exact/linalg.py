"""Linear algebra over truncated integer series and the rationals: one
fraction-free Gauss-Jordan elimination, :func:`_gauss_jordan` (Bareiss,
Math. Comp. 22, 1968), for both solves; and the resolvent row of a
transfer matrix, read from its walk counts.

At a pivot p every other row r becomes (p row_r - a_rc row_c) / prev,
prev the pivot before p.  By Sylvester's identity every entry is then a
minor of the system, so each division is exact: the series solve
divides by the exact ``/`` of Z[[x]], which raises should a quotient
leave the ring, and the rational solve divides with a ``Fraction`` of
its own.  The solution is the numerators over the last pivot.

The resolvent eliminates nothing: it counts walks by the integer walk
DP and hands each column of counts to
:meth:`RationalFunction.from_sequence`, whose Berlekamp–Massey pair is
already reduced, so it runs no polynomial arithmetic, gcd or
division."""

from __future__ import annotations

from operator import truediv

from convexenum.exact import polynomial, ratfun, series
from convexenum.exact.coefficients import exact_coefficient
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
    first pivot.
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
                a_rc = a[r][col]
                # zero over a zero pivot-row entry stays zero
                a[r] = [divide(p * e - a_rc * q if q else p * e, prev)
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
    typically an adjacency matrix, and ``row`` one of its indices; the
    resolvent row generates walk counts out of vertex ``row``.  Its
    coefficient vectors c_t satisfy c = e_row + x c M, that is

        c_t[j] = [t = 0][j = row] + sum over i and e of w_ij,e c_(t-1-e)[i]

    for w_ij,e the coefficient of x^e in m[i][j]: the integer walk DP,
    run for 2B + 2 steps.  Entry j is then ``from_sequence`` of column
    j with the complexity bound B = n (1 + d), d the largest degree of
    a weight (0 for integer weights), and the last two steps check it.

    B bounds the linear complexity of every entry.  By Cramer's rule
    entry j is a cofactor of I - xM over det(I - xM).  Each entry of
    I - xM has degree at most 1 + d, so a minor of size k has degree
    at most k (1 + d): deg det <= B and deg cofactor <= B - 1 - d < B.
    And det(0) = det(I) = 1.  A common factor g of the two divides the
    determinant, so g(0) != 0, and dividing by it lowers both degrees.
    So the reduced N/D has D(0) != 0 and max(deg D, deg N + 1) <= B.
    Berlekamp–Massey returns that reduced pair (see ``from_sequence``),
    so no entry runs an elimination, a gcd or a division; a zero entry
    comes out as 0 over 1.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if n and row not in range(n):
        raise ValueError(f"row {row} is not an index of the {n}x{n} matrix")
    # an edge (i, j, e, w_ij,e) for each nonzero coefficient of a weight
    edges = [(i, j, e, w) for i, weights in enumerate(m)
             for j, p in enumerate(weights)
             for e, w in enumerate(p.coeffs if isinstance(
                 p, polynomial.Polynomial) else (exact_coefficient(p),))
             if w]
    bound = n * (1 + max((e for _, _, e, _ in edges), default=0))
    counts = [[int(j == row) for j in range(n)]]
    for t in range(1, 2 * bound + 2):
        c = [0] * n
        for i, j, e, w in edges:
            if e < t:
                c[j] += w * counts[t - 1 - e][i]
        counts.append(c)
    return [ratfun.RationalFunction.from_sequence(column, bound)
            for column in zip(*counts)]
