"""Coefficient helpers shared by polynomials and truncated series:
the normal form of an exact coefficient and the truncated convolution.
They are their own module so that series arithmetic runs without
loading ``Polynomial``."""

from __future__ import annotations


def exact_coefficient(x) -> int | Fraction:
    """Normalized exact coefficient: an integer value is an ``int``, any
    other value a ``Fraction``, so equal polynomials and series have
    equal coefficient tuples.  Anything but an ``int`` or a ``Fraction``
    raises ``TypeError``: a ``float``'s binary value is almost never the
    number that was meant, and parsing a string or a ``Decimal`` is the
    caller's choice to make.

    ``fractions`` is imported here, after the ``int`` test, and in the
    other kernel branches that meet a value that is not an ``int``, never
    at module level: the paper's series are integer series, so a command
    that computes only with integers never imports ``fractions`` (or the
    ``decimal`` and ``numbers`` modules it imports)."""
    if type(x) is int:
        return x
    from fractions import Fraction
    if not isinstance(x, Fraction):
        raise TypeError(f"inexact coefficient {x!r}")
    return x.numerator if x.denominator == 1 else x


def convolve(a, b, length: int) -> list:
    """The first ``length`` coefficients of the product of the
    coefficient sequences ``a`` and ``b``, skipping zero terms of both."""
    out = [0] * length
    terms = [(j, y) for j, y in enumerate(b[:length]) if y]
    for i, x in enumerate(a[:length]):
        while terms and terms[-1][0] >= length - i:
            terms.pop()  # beyond the last coefficient kept
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out
