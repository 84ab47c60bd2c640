"""Formal power series truncated at an explicit order."""

from __future__ import annotations

from convexenum.exact.polynomial import convolve, exact_coefficient
from convexenum.frozen import Frozen


class TruncatedSeries(Frozen):
    """A power series known exactly through the coefficient of x^order.

    Coefficients are normalized (see ``exact_coefficient``): integers
    stay ``int``, and a series with constant term 1 or -1 inverts without
    leaving the integers.  Arithmetic never reads or writes coefficients
    beyond the order.  Both operands of a binary operation have this one
    order: an ``int`` or ``Fraction`` is a constant series of it, and a
    series of another order raises ``ValueError``.  The zero series is
    falsy.
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
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls((0, 1), order)

    @classmethod
    def monomial(cls, exponent: int, order: int) -> "TruncatedSeries":
        """x^exponent.  Multiplying by x^e is a product with it, best on
        the left, where the product walks its one nonzero term."""
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls((0,) * exponent + (1,), order)

    # -- basics -------------------------------------------------------

    def __getitem__(self, n: int) -> int | Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order == self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _operand(self, other):
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise ValueError(
                    f"series orders differ: {self.order} and {other.order}")
            return other
        if isinstance(other, int):
            return TruncatedSeries((other,), self.order)
        from fractions import Fraction
        if isinstance(other, Fraction):
            return TruncatedSeries((other,), self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)), self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)), self.order)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedSeries(
            convolve(self.coeffs, other.coeffs, self.order + 1), self.order)

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term is not a unit")
        if c0 in (1, -1):
            u = c0  # its own inverse: the series stays in the integers
        else:
            from fractions import Fraction
            u = Fraction(1) / c0
        n = self.order
        inv = [0] * (n + 1)
        inv[0] = u
        for m in range(1, n + 1):
            acc = 0
            for j in range(1, m + 1):
                if self.coeffs[j] != 0:
                    acc += self.coeffs[j] * inv[m - j]
            inv[m] = -acc * u
        return TruncatedSeries(inv, n)

    def __truediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()
