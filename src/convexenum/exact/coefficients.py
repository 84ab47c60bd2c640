"""What the exact kernel's values are made of and what they take: the
normal form of an exact coefficient, the test for a scalar operand, the
exact reciprocal, the one operand protocol of the binary operators, and
the truncated convolution.  They are their own module so that series
arithmetic runs without loading ``Polynomial``.

This is the one module of the kernel's arithmetic that turns a value
into a ``Fraction``: polynomial division, series division and the
exact quotients of the rational elimination all invert through
:func:`reciprocal`, which keeps 1 and -1 as they are, so an integer
computation stays in the integers.  The gcd inverts nothing: it is a
primitive integer polynomial.  ``roots`` imports ``fractions`` as well,
for the intervals it returns.

Every binary operator of ``Polynomial`` and ``TruncatedSeries`` is
wrapped in :func:`binary`, so the two types share one operand
protocol; a ``RationalFunction`` is a canonical record with no
arithmetic, and takes no part in it.  The type's own ``_coerce`` turns
the other operand into a value of the type, or declines it with
``NotImplemented``; Python then tries the other operand's reflected
operator, and raises ``TypeError`` when that declines too.  A scalar
operand (see :func:`is_scalar`) is a constant of the type.  The
reflected subtraction is wrapped as well, so it coerces before it
subtracts: two types that decline each other never hand a subtraction
back and forth."""

from __future__ import annotations


def exact_coefficient(x) -> int | Fraction:
    """Normalized exact coefficient: an integer value is an ``int``, any
    other value a ``Fraction``, so equal polynomials and series have
    equal coefficient tuples.  Anything but an ``int`` or a ``Fraction``
    raises ``TypeError``: a ``float``'s binary value is almost never the
    number that was meant, and parsing a string or a ``Decimal`` is the
    caller's choice to make.

    ``fractions`` is imported here, after the ``int`` test, and in the
    other functions of this module that meet a value that is not an
    ``int`` or not a unit, never at module level: the paper's series are
    integer series, so a command that computes only with integers never
    imports ``fractions`` (or the ``decimal`` and ``numbers`` modules it
    imports)."""
    if type(x) is int:
        return x
    from fractions import Fraction
    if not isinstance(x, Fraction):
        raise TypeError(f"inexact coefficient {x!r}")
    return x.numerator if x.denominator == 1 else x


def is_scalar(x) -> bool:
    """Whether ``x`` is an ``int`` or a ``Fraction``: an operand that the
    kernel's types take as a constant.  ``fractions`` is imported only
    for a value that is not an ``int``.  A ``bool`` passes, as an
    ``int``, and :func:`exact_coefficient` then rejects it."""
    if isinstance(x, int):
        return True
    from fractions import Fraction
    return isinstance(x, Fraction)


def reciprocal(c):
    """1 / c, exactly: ``c`` itself for 1 and -1, so an ``int`` unit
    stays an ``int`` and ``fractions`` is not imported, and
    ``Fraction(1) / c`` otherwise, never a ``float``.  ``c`` is an
    ``int`` or a ``Fraction``: a ``RationalFunction`` has no arithmetic,
    so it is not inverted here.  0 raises ``ZeroDivisionError``."""
    if c in (1, -1):
        return c
    from fractions import Fraction
    return Fraction(1) / c


def binary(op):
    """The binary operator ``op(self, other)``, called with ``other``
    coerced by ``self._coerce``; when ``_coerce`` declines it, the
    method returns ``NotImplemented``.  It keeps ``op``'s name and
    docstring."""
    def method(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return op(self, other)

    method.__name__, method.__qualname__, method.__doc__ = (
        op.__name__, op.__qualname__, op.__doc__)
    return method


def convolve(a, b, length: int) -> list:
    """The first ``length`` coefficients of the product of the
    coefficient sequences ``a`` and ``b``, skipping zero terms of ``a``:
    put the sparser operand on the left, as a monomial stands there."""
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[:length - i], i):
                out[j] += x * y
    return out
