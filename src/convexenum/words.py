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
    """Parts stored weakly increasing; total is their sum."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly increasing")
        super().__init__(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.parts) + "}"


class WordGF(Frozen):
    """Generating-function bundle for fixed (p, k): the counts as a
    ``TruncatedSeries``, and the closed form as a ``RationalFunction``
    or ``None``."""

    __slots__ = ("p", "k", "series", "ratfun")


def is_convex_word(w: Word, k: int) -> bool:
    a = w.letters
    return all(a[i - 1] + a[i + 1] - 2 * a[i] <= k for i in range(1, len(a) - 1))


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
    return WordGF(p=p, k=k,
                  series=series.TruncatedSeries(terms[: order + 1], order),
                  ratfun=closed)


def _word_counts(p: int, k: int, terms: int) -> list[int]:
    """Counts of k-convex words on [p] of lengths 0 .. terms-1."""
    # pair (a, b) has index (a-1)*p + (b-1); succ lists the pairs (b, c)
    succ = [[(b - 1) * p + c - 1 for c in range(1, min(p, k + 2 * b - a) + 1)]
            for a in range(1, p + 1) for b in range(1, p + 1)]
    f = [1] * len(succ)  # words of the current length, by first pair
    counts = [1, p]
    while len(counts) < terms:
        counts.append(sum(f))
        f = [sum(f[j] for j in s) for s in succ]
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
    """Stable count of 0-convex words on [p], valid for lengths > 2(p-1)."""
    if p < 1:
        raise ValueError("p must be positive")
    total = 0
    acc = 0
    for m in range(1, p + 1):
        acc += partition_count(m - 1)
        total += acc * acc
    return total


def encode_word(m: int, w1: IntegerPartition, w2: IntegerPartition,
                n: int, p: int) -> Word:
    """Build the 0-convex word (prefix)(m...m)(suffix) of length n on
    the alphabet [1, p].

    The increasing prefix realizes partition ``w1`` as its gap sequence
    (largest gap first); the decreasing suffix realizes ``w2`` (smallest
    gap first).  The plateau at the maximum m fills the rest.
    """
    if w1.total >= m or w2.total >= m:
        raise ValueError("partition totals must be less than the maximum m")
    # each flank steps away from the plateau by its parts, smallest first:
    # the prefix is the mirror image of the suffix formula
    pf = [m - s for s in accumulate(w1.parts)][::-1]
    sf = [m - s for s in accumulate(w2.parts)]
    plateau = n - len(pf) - len(sf)
    if plateau < 1:
        raise ValueError(f"length {n} too small for prefix, plateau and suffix")
    letters = pf + [m] * plateau + sf
    return Word(tuple(letters), p)


def decode_word(w: Word) -> tuple[int, IntegerPartition, IntegerPartition]:
    """Inverse of :func:`encode_word` on 0-convex words.

    Splits at the maximal plateau and reads both partitions off the gap
    sequences of the flanks.  The plateau is contiguous: a 0-convex
    word has non-increasing differences, so no letter between two
    maxima is smaller.
    """
    if not is_convex_word(w, 0):
        raise ValueError("word is not 0-convex")
    a = w.letters
    if not a:
        raise ValueError("empty word")
    m = max(a)
    first = a.index(m)
    last = len(a) - 1 - a[::-1].index(m)
    pf = a[:first]
    sf = a[last + 1:]
    gaps1 = [b - c for b, c in zip(pf[1:] + (m,), pf)]
    gaps2 = [b - c for b, c in zip((m,) + sf, sf)]
    w1 = IntegerPartition(tuple(sorted(gaps1)))
    w2 = IntegerPartition(tuple(sorted(gaps2)))
    return m, w1, w2


def all_convex_words(n: int, p: int, k: int):
    """Yield every k-convex word of length n on [p] (brute force)."""
    for letters in search.convex_sequences(n, p, k, distinct=False):
        yield Word(tuple(letters), p)
