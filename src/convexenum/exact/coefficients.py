"""What the exact kernel's values are made of: the check of a
coefficient, and the truncated convolution.  They are their own module
so that series arithmetic runs without loading ``Polynomial``.

Every coefficient of the kernel is an ``int``.  It computes in Z[[x]]
with operators, where ``/`` is exact division, which raises
``ArithmeticError`` when the quotient leaves the ring, and in Z[x] on
coefficient sequences: a ``Polynomial`` is a value with a normal form,
a remainder sequence, a gcd, a derivative, evaluation and printing,
but no operators.  Neither ring imports ``fractions``: only the bodies
of ``roots.smallest_positive_root``, which turns an integer root
interval into ``Fraction``s for callers that want them, and
``linalg.solve_field_system``, the one rational solve, do."""

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
