"""Certified isolation of the smallest positive real root of a polynomial.

All arithmetic is in the integers; the returned interval is certified
by an exact sign change at its endpoints.  Decimal output is a
rendering step only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

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


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of the polynomial at x = u/v: that of sum c_i u^i v^(d-i)."""
    u, v = x.numerator, x.denominator
    acc, w = 0, 1
    for c in reversed(coeffs):
        acc, w = acc * u + c * w, w * v
    return (acc > 0) - (acc < 0)


def _sign_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def smallest_positive_root(p: Polynomial, precision: int = 18):
    """Return a rational interval [lo, hi] of width < 10^-precision
    containing the smallest real root of ``p`` in (0, 1].

    Isolation uses a Sturm chain of the squarefree part; the final
    certificate is an exact sign change of that squarefree part at the
    endpoints.  Requires precision >= 1, p(0) != 0 and a root in range.
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
    sqf = chain[0]
    lo, hi = Fraction(0), Fraction(1)
    if _sign_at(sqf, hi) == 0:
        # nudge the right endpoint past the root so sign logic stays exact
        hi += Fraction(1, 10**precision)

    variations = cache(partial(_sign_variations, chain))  # points recur

    def roots_in(a: Fraction, b: Fraction) -> int:
        return variations(a) - variations(b)

    if roots_in(lo, hi) < 1:
        raise NoRootError(f"no root of {p} in (0, 1]")

    # shrink toward the leftmost root, then bisect on the sign change
    eps = Fraction(1, 10 ** (precision + 2))
    while roots_in(lo, hi) > 1 or _sign_at(sqf, lo) * _sign_at(sqf, hi) >= 0:
        mid = (lo + hi) / 2
        if _sign_at(sqf, mid) == 0:
            # land exactly on the root only if it is the smallest one
            if roots_in(lo, mid) == 1:
                return mid - eps, mid + eps
            hi = mid
            continue
        if roots_in(lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    width_goal = Fraction(1, 10**precision)
    while hi - lo >= width_goal:
        mid = (lo + hi) / 2
        v = _sign_at(sqf, mid)
        if v == 0:
            return mid - eps, mid + eps
        if v == _sign_at(sqf, lo):
            lo = mid
        else:
            hi = mid
    return lo, hi


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
