"""Certified isolation of the smallest positive real root of a polynomial.

All arithmetic is in the integers: the Sturm chain is
``Polynomial.remainder_sequence``, the squarefree part is the
pseudo-quotient of the one division loop, ``pseudo_divide``, scaled
back by ``primitive``, a point is a numerator over a denominator, and
the bisection's points share one denominator that doubles at each step.
The interval it returns is the integer triple ``(lo, hi, den)``, and
the decimals that render it are floor divisions, so the root of
``perms bounds`` is isolated, inverted and printed in integers.  The
interval is certified by an exact sign change at its endpoints.  Only
:func:`smallest_positive_root`, an adapter for callers that want
rationals, imports ``fractions``, in its body.
"""

from __future__ import annotations

from convexenum.exact.polynomial import Polynomial, pseudo_divide


class NoRootError(ValueError):
    """No positive real root was found in the search interval."""


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


def root_interval(p: Polynomial, precision: int = 18):
    """Return integers ``(lo, hi, den)``, den > 0, such that the
    interval [lo/den, hi/den] has width < 10^-precision and contains
    the smallest real root of ``p`` in (0, 1].

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
    if p.coeffs[0] == 0:
        raise ValueError("p(0) = 0; strip the root at the origin first")
    q = p.primitive()
    chain = q.remainder_sequence(q.derivative().primitive())  # q's Sturm chain
    if chain[-1].degree > 0:  # the chain ends in gcd(p, p'): strip it
        quot = pseudo_divide(q.coeffs, chain[-1].coeffs)[0]  # lc^e q / gcd
        q = Polynomial(quot).primitive()
        chain = q.remainder_sequence(q.derivative().primitive())
    chain = [r.coeffs for r in chain]
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
            n = 100 * scale * mid  # mid/den, over 100 scale den
            return n - den, n + den, 100 * scale * den
        if v < v_lo:
            hi, v_hi = mid, v
        else:
            lo, v_lo = mid, v
    return lo, hi, den


def smallest_positive_root(p: Polynomial, precision: int = 18):
    """The interval of :func:`root_interval` as a pair of
    ``Fraction``s ``(lo, hi)``, for callers that want rationals."""
    from fractions import Fraction

    lo, hi, den = root_interval(p, precision)
    return Fraction(lo, den), Fraction(hi, den)


def render_interval(lo: int, hi: int, den: int, digits: int) -> str:
    """Both endpoints of the interval [lo/den, hi/den], each truncated
    to ``digits`` decimal places, e.g. for display."""
    return (f"[{decimal_value(lo, den, digits)}, "
            f"{decimal_value(hi, den, digits)}]")


def decimal_value(num: int, den: int, digits: int) -> str:
    """num/den as a truncated (not rounded) decimal string with
    ``digits`` places, by one floor division; needs digits >= 1."""
    if digits < 1:
        raise ValueError("digits must be positive")
    sign = "-" if num * den < 0 else ""
    whole, frac = divmod(abs(num) * 10**digits // abs(den), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
