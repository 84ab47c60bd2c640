"""What the exact kernel's values are made of and what they take: the
check of a coefficient, the test for a scalar operand, the operand
protocol of the binary operators, and the truncated convolution.  They
are their own module so that series arithmetic runs without loading
``Polynomial``.

Every coefficient of the kernel is an ``int``.  It computes in Z[[x]]
with operators, where ``/`` is exact division, which raises
``ArithmeticError`` when the quotient leaves the ring, and in Z[x] on
coefficient sequences: a ``Polynomial`` is a value with a normal form,
a remainder sequence, a gcd, a derivative, evaluation and printing,
but no operators.  Neither ring imports ``fractions``: only the bodies
of ``roots.smallest_positive_root``, which turns an integer root
interval into ``Fraction``s for callers that want them, and
``linalg.solve_field_system``, the one rational solve, do.

Every binary operator of ``TruncatedSeries`` is wrapped in
:func:`binary`, its one operand protocol; ``Polynomial`` and
``RationalFunction`` have no arithmetic, and take no part in it.
``_coerce`` turns the other operand into a series, or declines it with
``NotImplemented``; Python then tries the other operand's reflected
operator, and raises ``TypeError`` when that declines too.  A scalar
operand (see :func:`is_scalar`) is a constant series.  The reflected
subtraction is wrapped as well, so it coerces before it subtracts: two
types that decline each other never hand a subtraction back and
forth."""

from __future__ import annotations


def exact_coefficient(x) -> int:
    """``x`` itself, when it is an ``int``.  Anything else raises
    ``TypeError``, a ``bool`` included: a ``Fraction`` has no place in
    Z[x], a ``float``'s binary value is almost never the number that was
    meant, and parsing a string or a ``Decimal`` is the caller's choice
    to make."""
    if type(x) is not int:
        raise TypeError(f"coefficient {x!r} is not an int")
    return x


def is_scalar(x) -> bool:
    """Whether ``x`` is an ``int``: an operand that ``TruncatedSeries``
    takes as a constant.  A ``bool`` passes, and
    :func:`exact_coefficient` then rejects it."""
    return isinstance(x, int)


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
