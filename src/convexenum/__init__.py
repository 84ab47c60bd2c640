"""Exact enumeration of locally convex words and permutations.

Everything is exact: counts and series coefficients are Python ``int``s,
and only values that are not integers become ``Fraction``s.  The only
floating-point anywhere is the decimal rendering of certified root
intervals.
"""

from convexenum.exact.polynomial import Polynomial
from convexenum.exact.series import TruncatedSeries
from convexenum.exact.ratfun import RationalFunction

__all__ = ["Polynomial", "TruncatedSeries", "RationalFunction"]

__version__ = "0.1.0"
