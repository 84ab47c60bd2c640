"""Certified isolation of the smallest positive real root of a polynomial.

All evaluation is exact over the rationals; the returned interval is
certified by an exact sign change at its endpoints.  Decimal output is a
rendering step only.
"""

from __future__ import annotations

from fractions import Fraction

from convexenum.exact.polynomial import Polynomial


class NoRootError(ValueError):
    """No positive real root was found in the search interval."""


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def smallest_positive_root(p: Polynomial, precision: int = 18,
                           search_bound=Fraction(1)):
    """Return a rational interval [lo, hi] of width < 10^-precision
    containing the smallest real root of ``p`` in (0, search_bound].

    Isolation uses a Sturm chain of the squarefree part; the final
    certificate is an exact sign change of that squarefree part at the
    endpoints.  Requires p(0) != 0 and at least one root in the range.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p(Fraction(0)) == 0:
        raise ValueError("p(0) = 0; strip the root at the origin first")
    sqf = p // p.gcd(p.derivative())
    chain = _sturm_chain(sqf)
    lo, hi = Fraction(0), Fraction(search_bound)
    if sqf(hi) == 0:
        # nudge the right endpoint past the root so sign logic stays exact
        hi += Fraction(1, 10**precision)

    def roots_in(a: Fraction, b: Fraction) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    if roots_in(lo, hi) < 1:
        raise NoRootError(f"no root of {p} in (0, {search_bound}]")

    # shrink toward the leftmost root, then bisect on the sign change
    while roots_in(lo, hi) > 1 or sqf(lo) * sqf(hi) >= 0:
        mid = (lo + hi) / 2
        if sqf(mid) == 0:
            # land exactly on the root only if it is the smallest one
            if roots_in(lo, mid) == 1:
                eps = Fraction(1, 10 ** (precision + 2))
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
        v = sqf(mid)
        if v == 0:
            eps = Fraction(1, 10 ** (precision + 2))
            return mid - eps, mid + eps
        if (v > 0) == (sqf(lo) > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def render_interval(lo: Fraction, hi: Fraction, digits: int) -> str:
    """Decimal rendering of an interval's shared prefix, e.g. for display."""
    return f"[{decimal_value(lo, digits)}, {decimal_value(hi, digits)}]"


def decimal_value(x: Fraction, digits: int) -> str:
    """Truncated (not rounded) decimal string with ``digits`` places."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**digits
    whole = int(scaled)
    frac = str(whole % 10**digits).rjust(digits, "0")
    return f"{sign}{whole // 10 ** digits}.{frac}"
