"""Formal power series with integer coefficients, truncated at an
explicit order: the ring Z[[x]] modulo x^(order + 1).

``TruncatedSeries`` is the one type of the exact kernel with operators;
``Polynomial`` and ``RationalFunction`` have none.  Its binary operators
share one operand protocol, :func:`_binary`: an ``int`` is a constant
series, a series of another order raises ``ValueError``, and any other
operand is declined with ``NotImplemented``; Python then tries the other
operand's reflected operator, and raises ``TypeError`` when that
declines too.  The reflected subtraction is wrapped as well, so it
coerces before it subtracts: two types that decline each other never
hand a subtraction back and forth."""

from __future__ import annotations

from operator import mul

from convexenum.exact.coefficients import convolve, exact_coefficient
from convexenum.frozen import Frozen


def _binary(op):
    """The binary operator ``op(self, other)`` of ``TruncatedSeries``,
    called with ``other`` as a series of ``self``'s order (see the module
    docstring).  A ``bool`` passes as an ``int``, and the constructor
    then rejects it.  The method keeps ``op``'s name and docstring."""
    def method(self, other):
        if isinstance(other, int):
            other = TruncatedSeries((other,), self.order)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        elif other.order != self.order:
            raise ValueError(
                f"series orders differ: {self.order} and {other.order}")
        return op(self, other)

    method.__name__, method.__qualname__, method.__doc__ = (
        op.__name__, op.__qualname__, op.__doc__)
    return method


class TruncatedSeries(Frozen):
    """A power series known exactly through the coefficient of x^order.

    Coefficients are ``int``s (see ``exact_coefficient``), and a series
    with constant term 1 or -1 is a unit.  Arithmetic never reads or
    writes coefficients beyond the order.  Both operands of a binary
    operation have this one order: an ``int`` is a constant series of
    it, and a series of another order raises ``ValueError``.  The zero
    series is falsy.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        cs = [exact_coefficient(c) for c in coeffs]
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(cs) < order + 1:
            cs += [0] * (order + 1 - len(cs))
        else:
            cs = cs[: order + 1]
        super().__init__(tuple(cs), order)

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, exponent: int, order: int) -> "TruncatedSeries":
        """x^exponent.  Multiplying by x^e is a product with it, best on
        the left, where the product walks its one nonzero term."""
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls((0,) * exponent + (1,), order)

    # -- basics -------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    @_binary
    def __add__(self, other):
        return TruncatedSeries(
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)), self.order)

    __radd__ = __add__

    @_binary
    def __sub__(self, other):
        return TruncatedSeries(
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)), self.order)

    @_binary
    def __rsub__(self, other):
        return other - self

    @_binary
    def __mul__(self, other):
        return TruncatedSeries(
            convolve(self.coeffs, other.coeffs, self.order + 1), self.order)

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse, 1 / self; requires a constant term of
        1 or -1, or the quotient leaves the integers (see ``/``)."""
        return TruncatedSeries((1,), self.order) / self

    @_binary
    def __truediv__(self, other):
        """The exact quotient q with q * other = self, by the one
        division recurrence q_m = (a_m - sum of b_j q_(m-j) for
        1 <= j <= m) / b_0; requires a nonzero constant term b_0.  A q_m
        that is not an integer leaves Z[[x]] and raises
        ``ArithmeticError``, so division by a unit, b_0 = 1 or -1, always
        goes through."""
        a, b = self.coeffs, other.coeffs
        b0, tail, q = b[0], b[1:], []
        if b0 == 0:
            raise ZeroDivisionError("series with zero constant term is not a unit")
        for am in a:  # map stops at the shorter: b_1 q_(m-1) .. b_m q_0
            qm, r = divmod(am - sum(map(mul, tail, reversed(q))), b0)
            if r:
                raise ArithmeticError(f"quotient leaves Z[[x]] at x^{len(q)}")
            q.append(qm)
        return TruncatedSeries(q, self.order)
