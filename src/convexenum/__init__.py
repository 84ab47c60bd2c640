"""Exact enumeration of locally convex words and permutations.

Everything is exact: the exact kernel computes in Z[x] and Z[[x]], so
counts and every polynomial and series coefficient are Python ``int``s,
and only the certified root intervals have ``Fraction`` endpoints.  The
only floating-point anywhere is the decimal rendering of those
intervals.
"""

__version__ = "0.1.0"

#: Order of :func:`convexenum.words.word_gf`, and of the CLI's series,
#: when none is given.  Large enough to cover every golden sequence with
#: margin.  It lives here, where every import of the library runs it, so
#: that the CLI reads it without running ``words``.
DEFAULT_ORDER = 64
