"""Certified isolation of the smallest positive real root of a polynomial.

All arithmetic is in the integers: a point is a numerator over a
denominator, the bisection's points share one denominator that doubles
at each step, and only the returned interval is made of ``Fraction``s.
The interval is certified by an exact sign change at its endpoints.
Decimal output is a rendering step only.
"""

from __future__ import annotations

from fractions import Fraction

from convexenum.exact.polynomial import Polynomial


class NoRootError(ValueError):
    """No positive real root was found in the search interval."""


def _sturm_chain(p: Polynomial) -> list[tuple[int, ...]]:
    """Coefficients of the Sturm chain of an integer p.  Each element
    -sign(lc(b))^(deg a - deg b + 1) prem(a, b) over its content is a
    positive multiple of the remainder -(a mod b)."""
    chain = [p, p.derivative().primitive()]
    while chain[-1]:
        a, b = chain[-2:]
        rem = a.pseudo_remainder(b)
        flip = b.leading_coeff() > 0 or (a.degree - b.degree) % 2
        chain.append((-rem if flip else rem).primitive())
    return [q.coeffs for q in chain[:-1]]


def _sign_at(coeffs, u: int, v: int) -> int:
    """Sign of the polynomial at x = u/v, v > 0: that of
    sum c_i u^i v^(d-i)."""
    acc, w = 0, 1
    for c in reversed(coeffs):
        acc, w = acc * u + c * w, w * v
    return (acc > 0) - (acc < 0)


def _sign_variations(chain, u: int, v: int) -> int:
    signs = [s for s in (_sign_at(q, u, v) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def smallest_positive_root(p: Polynomial, precision: int = 18):
    """Return a rational interval [lo, hi] of width < 10^-precision
    containing the smallest real root of ``p`` in (0, 1].

    One bisection loop runs on integer numerators ``lo`` and ``hi``
    over one denominator that starts at 1 (at 10^precision when a root
    at 1 nudges the right end to 1 + 10^-precision) and doubles at each
    step.  Both endpoints keep their Sturm counts, the sign variations
    there of the chain of the squarefree part, so no point is counted
    twice.  While more than one root lies in (lo, hi], the count at the
    midpoint picks the half that holds the smallest.  Once one root
    does, the squarefree part changes sign across it, and the
    midpoint's sign alone picks the half: ``lo`` moves to a midpoint
    only when (lo, mid] holds no root, so its sign stays the one at 0.  A
    midpoint that is the smallest root returns mid -/+
    10^-(precision + 2); otherwise the certificate is the sign change
    at the returned endpoints.  Requires precision >= 1, p(0) != 0 and
    a root in range.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    if not p:
        raise ValueError("zero polynomial")
    if p[0] == 0:
        raise ValueError("p(0) = 0; strip the root at the origin first")
    chain = _sturm_chain(p.primitive())
    if len(chain[-1]) > 1:  # the chain ends in gcd(p, p'): strip it
        chain = _sturm_chain((p // Polynomial(chain[-1])).primitive())
    sqf, scale = chain[0], 10**precision
    lo, hi, den = 0, 1, 1
    if _sign_at(sqf, 1, 1) == 0:
        # nudge the right endpoint past the root so sign logic stays exact
        hi, den = scale + 1, scale
    v_lo, v_hi = (_sign_variations(chain, x, den) for x in (lo, hi))
    if v_lo - v_hi < 1:
        raise NoRootError(f"no root of {p} in (0, 1]")
    s_lo = _sign_at(sqf, 0, 1)
    while (counting := v_lo - v_hi > 1) or (hi - lo) * scale >= den:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        s = _sign_at(sqf, mid, den)
        if counting:
            v = _sign_variations(chain, mid, den)
        else:  # (lo, mid] holds the root iff the sign changes there
            v = v_lo if s == s_lo else v_hi
        if s == 0 and v == v_lo - 1:  # mid is the smallest root
            mid, eps = Fraction(mid, den), Fraction(1, 100 * scale)
            return mid - eps, mid + eps
        if v < v_lo:
            hi, v_hi = mid, v
        else:
            lo, v_lo = mid, v
    return Fraction(lo, den), Fraction(hi, den)


def render_interval(lo: Fraction, hi: Fraction, digits: int) -> str:
    """Both endpoints of an interval, each truncated to ``digits``
    decimal places, e.g. for display."""
    return f"[{decimal_value(lo, digits)}, {decimal_value(hi, digits)}]"


def decimal_value(x: Fraction, digits: int) -> str:
    """Truncated (not rounded) decimal string with ``digits`` places;
    needs digits >= 1."""
    if digits < 1:
        raise ValueError("digits must be positive")
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**digits
    whole = int(scaled)
    frac = str(whole % 10**digits).rjust(digits, "0")
    return f"{sign}{whole // 10 ** digits}.{frac}"
