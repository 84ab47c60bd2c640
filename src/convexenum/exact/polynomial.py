"""Dense univariate polynomials with rational coefficients."""

from __future__ import annotations

from math import gcd, lcm

from convexenum.exact.coefficients import (
    binary, convolve, exact_coefficient, is_scalar)
from convexenum.frozen import Frozen


class Polynomial(Frozen):
    """A polynomial stored as a coefficient tuple, index = exponent.

    Coefficients are normalized (see ``exact_coefficient``), so integer
    coefficients stay ``int``.  Trailing zeros are stripped, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [exact_coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        super().__init__(tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def from_terms(cls, terms: dict) -> "Polynomial":
        """Build from {exponent: coefficient}; exponents are nonnegative."""
        if any(e < 0 for e in terms):
            raise ValueError("negative exponent")
        cs = [0] * (max(terms, default=-1) + 1)
        for e, c in terms.items():
            cs[e] = c
        return cls(cs)

    # -- basics -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, exponent: int) -> int | Fraction:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def leading_coeff(self) -> int | Fraction:
        return self.coeffs[-1] if self.coeffs else 0

    # -- ring arithmetic ----------------------------------------------

    @binary
    def __add__(self, other) -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return Polynomial(cs)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    @binary
    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    @binary
    def __rsub__(self, other) -> "Polynomial":
        return other - self

    @binary
    def __mul__(self, other) -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        return Polynomial(convolve(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial((other,)) if is_scalar(other) else NotImplemented

    @binary
    def __divmod__(self, other: "Polynomial"):
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return Polynomial.zero(), self
        quot = [0] * (dq + 1)
        from fractions import Fraction
        lead = Fraction(div[-1])  # int / int would be a float
        for i in range(dq, -1, -1):
            c = rem[i + len(div) - 1] / lead
            quot[i] = c
            if c != 0:
                for j, d in enumerate(div):
                    rem[i + j] -= c * d
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def primitive(self) -> "Polynomial":
        """Positive rational multiple with integer coefficients, content 1."""
        scale = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        content = gcd(*ints) or 1
        return Polynomial([c // content for c in ints])

    def pseudo_remainder(self, other: "Polynomial") -> "Polynomial":
        """lc(other)^(deg self - deg other + 1) * (self mod other), without
        division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R)."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem, div = list(self.coeffs), other.coeffs
        lead, top = div[-1], len(div) - 1
        for i in range(len(rem) - len(div), -1, -1):
            q = rem.pop()
            rem = [lead * c for c in rem]
            for j in range(top):
                rem[i + j] -= q * div[j]
        return Polynomial(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd, by the primitive pseudo-remainder sequence over Z.
        An operand that is not a ``Polynomial`` is a constant, so one
        that is not exact raises ``TypeError``, as in the constructor."""
        from fractions import Fraction
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        a, b = self.primitive(), other.primitive()
        while b:
            a, b = b, a.pseudo_remainder(b).primitive()
        return a * Fraction(1, a.leading_coeff()) if a else a

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        """Exact evaluation by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = f"-{xs}"
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out
