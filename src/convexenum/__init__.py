"""Exact enumeration of locally convex words and permutations.

Everything is exact: the exact kernel computes in Z[x] and Z[[x]], so
counts, every polynomial and series coefficient, and the certified root
intervals, two numerators over one denominator, are Python ``int``s.
Their decimal rendering is integer floor division: no command computes
with a ``Fraction`` or a float.
"""

__version__ = "0.1.0"

#: Order of :func:`convexenum.words.word_gf`, and of the CLI's series,
#: when none is given.  Large enough to cover every golden sequence with
#: margin.  It lives here, where every import of the library runs it, so
#: that the CLI reads it without running ``words``.
DEFAULT_ORDER = 64
