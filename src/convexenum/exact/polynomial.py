"""Dense univariate polynomials with integer coefficients, elements of
Z[x] kept as values: a ``Polynomial`` has a normal form, a
pseudo-remainder sequence, a gcd, a derivative, evaluation and
printing, but no operators.  The kernel builds every one from
coefficients it has computed as ``int``s, so no library code adds,
multiplies or divides two of them."""

from __future__ import annotations

from math import gcd

from convexenum.exact.coefficients import exact_coefficient
from convexenum.frozen import Frozen


def pseudo_divide(a, b) -> tuple[list, list]:
    """The pseudo-quotient and pseudo-remainder of the coefficient
    sequences ``a`` and ``b``: lists q and r with lc(b)^e a = q b + r,
    where e = len(q) = max(deg a - deg b + 1, 0) and deg r < deg b.
    Each step scales the remainder by lc(b) instead of dividing by it
    (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R), so integer coefficients
    stay integers.  This is the one polynomial division loop: the
    remainder sequence reads its remainders, and the squarefree strip of
    root isolation its quotient."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem, lead, top = list(a), b[-1], len(b) - 1
    quot = [0] * max(len(a) - top, 0)
    for i in reversed(range(len(quot))):
        q = rem.pop()
        quot[i] = q * lead ** i
        rem = [lead * c for c in rem]
        for j in range(top):
            rem[i + j] -= q * b[j]
    return quot, rem


class Polynomial(Frozen):
    """A polynomial stored as a coefficient tuple, index = exponent.

    Coefficients are ``int``s (see ``exact_coefficient``).  Trailing
    zeros are stripped, so the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [exact_coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        super().__init__(tuple(cs))

    # -- basics -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- normal form, remainders, gcd ---------------------------------

    def primitive(self) -> "Polynomial":
        """The primitive part: self over its content, signed so that the
        leading coefficient is positive, and zero for zero.  This is the
        kernel's one normal form of a polynomial up to a constant
        factor: ``gcd`` and the canonical form of a rational function
        read it and pick no sign of their own."""
        cs = self.coeffs
        content = (gcd(*cs) or 1) * (-1 if cs and cs[-1] < 0 else 1)
        return Polynomial([c // content for c in cs])

    def remainder_sequence(self, other: "Polynomial") -> list["Polynomial"]:
        """The primitive pseudo-remainder sequence [self, other, r_2, ...]
        of two integer polynomials, up to its last nonzero term (Brown,
        JACM 1971).  Each r_i is the pseudo-remainder of its two
        predecessors a and b, divided by its content signed so that r_i
        is a positive multiple of -(a mod b).  So its last term is
        gcd(self, other) up to a constant factor, and from p and p' it
        is the Sturm chain of p.  This is the one loop of remainder
        sequences."""
        seq = [self, other]
        while seq[-1]:
            a, b = seq[-2:]
            # rem = lc(b)^e (a mod b) with e = max(deg a - deg b, -1) + 1:
            # rem over -content is a positive multiple of -(a mod b)
            # unless lc(b)^e < 0, and then rem over content is
            rem = pseudo_divide(a.coeffs, b.coeffs)[1]
            flip = b.coeffs[-1] > 0 or max(a.degree - b.degree, -1) % 2
            content = (gcd(*rem) or 1) * (-1 if flip else 1)
            seq.append(Polynomial([c // content for c in rem]))
        return seq[:-1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Primitive gcd: the primitive part of the last term of the
        primitive remainder sequence of the primitive operands, so it has
        integer coefficients, content 1 and a positive leading
        coefficient (see ``primitive``), and it is zero only when both
        operands are.  An operand that is not a ``Polynomial`` is a
        constant, so one that is not an ``int`` raises ``TypeError``, as
        in the constructor."""
        other = other if isinstance(other, Polynomial) else Polynomial((other,))
        seq = self.primitive().remainder_sequence(other.primitive())
        return seq[-1].primitive()

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
        """The nonzero terms by rising exponent, e.g. ``-2 + 3*x - x^3``.

        Each term's sign is written once: as the separator ``" + "`` or
        ``" - "``, or as a leading ``-`` on a negative first term.  Its
        magnitude m then prints as ``m`` at x^0, as ``x`` or ``x^i`` when
        m = 1, and as ``m*x`` or ``m*x^i`` otherwise.  The zero polynomial prints as ``0``.
        ``perfbench/oracles.parse_poly`` reads this format back.
        """
        out = ""
        for i, c in enumerate(self.coeffs):
            if c:
                sep = " - " if c < 0 else " + "
                out += sep if out else "-" * (c < 0)
                m, xs = abs(c), ("x" if i == 1 else f"x^{i}")
                out += str(m) if i == 0 else xs if m == 1 else f"{m}*{xs}"
        return out or "0"
