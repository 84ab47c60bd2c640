"""Exact enumeration of locally convex words and permutations.

Everything is exact: counts and series coefficients are Python ``int``s,
and only values that are not integers become ``Fraction``s.  The only
floating-point anywhere is the decimal rendering of certified root
intervals.
"""

__version__ = "0.1.0"
