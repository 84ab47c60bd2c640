"""Counting locally convex words over a finite alphabet.

A word is convex with parameter k when every second difference
w[i-1] + w[i+1] - 2*w[i] is at most k.  For k = 0 the stable count on an
alphabet of size p is governed by pairs of integer partitions; the
encode/decode pair below realizes that bijection explicitly.
"""

from __future__ import annotations

from itertools import accumulate

from convexenum import DEFAULT_ORDER, search
from convexenum.exact import ratfun, series
from convexenum.frozen import Frozen


class Word(Frozen):
    """A finite sequence of letters from the alphabet [1, p]."""

    __slots__ = ("letters", "alphabet_size")

    def __init__(self, letters, alphabet_size: int):
        letters = tuple(letters)
        for x in letters:
            if not 1 <= x <= alphabet_size:
                raise ValueError(f"letter {x} outside [1, {alphabet_size}]")
        super().__init__(letters, alphabet_size)

    def __str__(self):
        sep = "" if self.alphabet_size <= 9 else ","
        return sep.join(str(x) for x in self.letters)


class IntegerPartition(Frozen):
    """Parts given in any order and stored sorted, weakly increasing, so
    two spellings of one partition are equal; total is their sum."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted(parts))
        if parts and parts[0] <= 0:
            raise ValueError("parts must be positive")
        super().__init__(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.parts) + "}"


class WordGF(Frozen):
    """The generating function of :func:`word_gf`: the counts as a
    ``TruncatedSeries``, and the closed form as a ``RationalFunction``
    or ``None``.  The caller knows its (p, k)."""

    __slots__ = ("series", "ratfun")


def count_words_bruteforce(n: int, p: int, k: int) -> int:
    """Exact count by backtracking
    (:func:`convexenum.search.count_convex_sequences`)."""
    return search.count_convex_sequences(n, p, k, distinct=False)


def count_words_dp(n: int, p: int, k: int) -> int:
    """Count by the first-two-letters DP; agrees with brute force."""
    search.check_length_and_alphabet(n, p)
    return _word_counts(p, k, n + 1)[n]


def word_gf(p: int, k: int, order: int = DEFAULT_ORDER,
            with_ratfun: bool = False) -> WordGF:
    """The generating function of k-convex words on [p], to ``order``.

    Coefficients come from the first-two-letters DP over the p^2 letter
    pairs.  The closed form is F = 1 + p x + x^2 1^T (I - xB)^{-1} 1 with
    B the p^2 x p^2 pair-transition matrix, so deg D <= p^2 and
    deg N <= p^2 + 1: its linear complexity is at most p^2 + 2, and with
    ``with_ratfun`` Berlekamp-Massey recovers it exactly from the first
    2(p^2 + 2) coefficients, checking a few more.
    """
    if p < 1:
        raise ValueError("p must be positive")
    bound = p * p + 2
    n_terms = max(order + 1, 2 * bound + 4) if with_ratfun else order + 1
    terms = _word_counts(p, k, n_terms)
    closed = (ratfun.RationalFunction.from_sequence(terms, bound)
              if with_ratfun else None)
    return WordGF(series=series.TruncatedSeries(terms, order), ratfun=closed)


def _word_counts(p: int, k: int, terms: int) -> list[int]:
    """Counts of k-convex words on [p] of lengths 0 .. terms-1."""
    # letters are 0 .. p-1 here; a word that starts (a, b) goes on with a
    # c < lim[a][b], so its count is a prefix sum over the pairs (b, c)
    lim = [[max(0, min(p, k + 2 * b - a + 1)) for b in range(p)]
           for a in range(p)]
    f = [[1] * p for _ in range(p)]  # words of this length, by first pair
    counts = [1, p]
    while len(counts) < terms:
        sums = [list(accumulate(row, initial=0)) for row in f]
        counts.append(sum(row[p] for row in sums))
        f = [[sums[b][end] for b, end in enumerate(row)] for row in lim]
    return counts[:terms]


def partition_count(j: int) -> int:
    """Number of integer partitions of j, by a parts-bounded DP."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    # ways[t] = partitions of t into parts considered so far
    ways = [1] + [0] * j
    for part in range(1, j + 1):
        for t in range(part, j + 1):
            ways[t] += ways[t - part]
    return ways[j]


def g0p_stable(p: int) -> int:
    """Stable count of 0-convex words on [p], valid for lengths > 2(p-1).

    A word of maximum m is a pair of partitions whose totals are both
    below m (see :func:`decode_word`), and at such a length each pair
    leaves room for the plateau, since each flank has at most m - 1
    letters.  So the count is the sum over m <= p of (the number of
    partitions of totals below m) squared.
    """
    if p < 1:
        raise ValueError("p must be positive")
    return sum(c * c for c in accumulate(map(partition_count, range(p))))


def encode_word(m: int, w1: IntegerPartition, w2: IntegerPartition,
                n: int, p: int) -> Word:
    """The 0-convex word of length n on [1, p] with maximum m whose
    differences are w1's parts largest first, then a plateau of zeros,
    then w2's parts negated, smallest first (see :func:`decode_word`).
    """
    if w1.total >= m or w2.total >= m:
        raise ValueError("partition totals must be less than the maximum m")
    plateau = n - len(w1.parts) - len(w2.parts)
    if plateau < 1:
        raise ValueError(f"length {n} too small for prefix, plateau and suffix")
    diffs = list(w1.parts[::-1]) + [0] * (plateau - 1) + [-d for d in w2.parts]
    return Word(accumulate(diffs, initial=m - w1.total), p)


def decode_word(w: Word) -> tuple[int, IntegerPartition, IntegerPartition]:
    """Inverse of :func:`encode_word` on 0-convex words.

    A 0-convex word's differences never increase, so they run positive,
    then zero, then negative.  The positive ones climb to the maximum m
    and are w1's parts; the zeros lie on the plateau at m; the negative
    ones, negated, are w2's parts.  Both flanks fall from m to letters
    of at least 1, so both totals are below m.

    The second difference a[i-1] + a[i+1] - 2 a[i] is d_i - d_(i-1) for
    the differences d_i = a[i+1] - a[i], so the word is 0-convex exactly
    when no difference exceeds the one before it; the differences are
    computed once, for that test and for the parts.
    """
    a = w.letters
    if not a:
        raise ValueError("empty word")
    diffs = [b - c for c, b in zip(a, a[1:])]
    if any(d > e for e, d in zip(diffs, diffs[1:])):
        raise ValueError("word is not 0-convex")
    return (max(a), IntegerPartition(d for d in diffs if d > 0),
            IntegerPartition(-d for d in diffs if d < 0))
