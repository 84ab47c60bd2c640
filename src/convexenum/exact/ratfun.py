"""Rational functions in one variable, kept in canonical form."""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from convexenum.exact.coefficients import (
    binary, convolve, exact_coefficient, is_scalar)
from convexenum.exact.polynomial import Polynomial
from convexenum.frozen import Frozen


class RationalFunction(Frozen):
    """A quotient num/den of integer-coefficient polynomials.

    Canonical form: gcd(num, den) = 1, coefficients are integers with
    overall content 1, and the denominator has a positive leading
    coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Polynomial((1,))):
        num = self._as_poly(num)
        den = self._as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        super().__init__(*self._canonicalize(num, den))

    @staticmethod
    def _as_poly(p) -> Polynomial:
        return p if isinstance(p, Polynomial) else Polynomial((p,))

    @staticmethod
    def _canonicalize(num: Polynomial, den: Polynomial):
        # a zero num takes this path too: g is den's primitive part, so
        # the parts come out as 0 and 1
        g = num.gcd(den)  # primitive: integer coefficients divide faster
        if g.degree > 0:
            num, den = divmod(num, g)[0], divmod(den, g)[0]
        # one primitive part for both (see Polynomial.primitive): its last
        # entry is den's leading coefficient, so that comes out positive
        split = len(num.coeffs)
        both = Polynomial(num.coeffs + den.coeffs).primitive().coeffs
        return Polynomial(both[:split]), Polynomial(both[split:])

    # -- basics -------------------------------------------------------

    @classmethod
    def from_sequence(cls, terms, complexity_bound: int) -> "RationalFunction":
        """The N/D whose expansion is ``terms``, by Berlekamp–Massey.

        ``complexity_bound`` must bound the linear complexity
        max(deg D, deg N + 1) of the reduced N/D with D(0) != 0.  Then the
        first 2*bound terms determine N/D uniquely (Massey 1969); every
        further term is checked against the recurrence found.  It runs
        fraction-free, on primitive integer multiples of the rational
        connection polynomials.  Each term is an ``int`` or a
        ``Fraction``; any other term raises ``TypeError`` (see
        ``exact_coefficient``).

        The N/D found is already reduced, so building it divides by no
        common factor.  Berlekamp–Massey returns a shortest recurrence
        of the terms it reads, of length L: its connection polynomial D,
        with D(0) != 0, and N = D * terms mod x^L, so deg D <= L and
        deg N < L.  A common factor g of N and D divides D, so
        g(0) != 0.  If deg g >= 1, then D/g * terms = N/g, so the terms
        satisfy the recurrence of connection polynomial D/g, of length
        L - deg g < L, which contradicts minimality (Massey 1969).
        """
        s = [exact_coefficient(t) for t in terms]
        if len(s) < 2 * complexity_bound:
            raise ValueError(f"need {2 * complexity_bound} terms, got {len(s)}")
        # fraction-free: run on L * terms, L the lcm of their denominators
        scale = lcm(*(t.denominator for t in s))
        s = [t.numerator * (scale // t.denominator) for t in s]

        def discrepancy(c, i):
            return sum(map(mul, c, s[i::-1]))

        c, b = [1], [1]  # connection polynomials, each up to a scalar
        length, shift, last = 0, 1, 1
        for i in range(2 * complexity_bound):
            d = discrepancy(c, i)
            if d == 0:
                shift += 1
                continue
            # last*c - d*x^shift*b: a multiple of the rational update
            new = [last * cj for cj in c] + [0] * (len(b) + shift - len(c))
            for j, bj in enumerate(b):
                new[j + shift] -= d * bj
            content = gcd(*new)
            new = [cj // content for cj in new]
            if 2 * length <= i:
                b, length, last, shift = c, i + 1 - length, d, 1
            else:
                shift += 1
            c = new
        if length > complexity_bound or any(
                discrepancy(c, i) for i in range(2 * complexity_bound, len(s))):
            raise ArithmeticError("terms break the recovered recurrence")
        num = convolve(c, s, length)
        return cls(Polynomial(num), Polynomial([scale * cj for cj in c]))

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- field arithmetic ---------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial) or is_scalar(other):
            return cls(other)
        return NotImplemented

    @binary
    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    @binary
    def __sub__(self, other):
        return self + (-other)

    @binary
    def __rsub__(self, other):
        return other - self

    @binary
    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @binary
    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    @binary
    def __rtruediv__(self, other):
        return other / self
