"""Rational functions in one variable, kept in canonical form.

A ``RationalFunction`` is a canonical record with no arithmetic: it
defines no operator and no truth value, so a caller tests ``rf.num``
for zero.  The library builds one in one place,
:meth:`RationalFunction.from_sequence`, which the bound GFs, the word
GF and ``linalg.matrix_resolvent_row`` all call: the kernel computes
integer terms, and Berlekamp–Massey hands the constructor a coprime
numerator and denominator, so it runs no polynomial gcd."""

from __future__ import annotations

from math import gcd
from operator import mul

from convexenum.exact.coefficients import convolve, exact_coefficient
from convexenum.exact.polynomial import Polynomial
from convexenum.frozen import Frozen


class RationalFunction(Frozen):
    """A quotient num/den of integer-coefficient polynomials.

    Canonical form: gcd(num, den) = 1, coefficients are integers with
    overall content 1, and the denominator has a positive leading
    coefficient.  The constructor takes a coprime pair and fixes only
    the other two: it divides both parts by their joint content, signed
    by den's leading coefficient, and runs no polynomial gcd.  A zero
    numerator, whose gcd with any den is den, gets the denominator 1,
    so zero has one form.  Its one producer in the library,
    ``from_sequence``, hands it a coprime pair by the minimality of
    Berlekamp–Massey; a caller that builds one by hand passes a coprime
    pair as well.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Polynomial((1,))):
        num, den = (p if isinstance(p, Polynomial) else Polynomial((p,))
                    for p in (num, den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        den = den if num else Polynomial((1,))  # zero has the one form 0/1
        # one primitive part for both (see Polynomial.primitive): its last
        # entry is den's leading coefficient, so that comes out positive
        split = len(num.coeffs)
        both = Polynomial(num.coeffs + den.coeffs).primitive().coeffs
        super().__init__(Polynomial(both[:split]), Polynomial(both[split:]))

    # -- basics -------------------------------------------------------

    @classmethod
    def from_sequence(cls, terms, complexity_bound: int) -> "RationalFunction":
        """The N/D whose expansion is ``terms``, by Berlekamp–Massey.

        ``complexity_bound`` must bound the linear complexity
        max(deg D, deg N + 1) of the reduced N/D with D(0) != 0.  Then the
        first 2*bound terms determine N/D uniquely (Massey 1969); every
        further term is checked against the recurrence found.  It runs
        fraction-free, on primitive integer multiples of the rational
        connection polynomials.  Each term is an ``int``; any other
        term raises ``TypeError`` (see ``exact_coefficient``).

        The N/D found is already reduced, so it is the coprime pair that
        the constructor takes, and no gcd runs.  Berlekamp–Massey
        returns a shortest recurrence of the terms it reads, of length
        L: its connection polynomial D, with D(0) != 0, and
        N = D * terms mod x^L, so deg D <= L and deg N < L.  A common
        factor g of N and D divides D, so g(0) != 0.  If deg g >= 1,
        then D/g * terms = N/g, so the terms satisfy the recurrence of
        connection polynomial D/g, of length L - deg g < L, which
        contradicts minimality (Massey 1969).
        """
        s = [exact_coefficient(t) for t in terms]
        if len(s) < 2 * complexity_bound:
            raise ValueError(f"need {2 * complexity_bound} terms, got {len(s)}")

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
        return cls(Polynomial(num), Polynomial(c))
