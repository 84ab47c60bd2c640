"""Counting locally convex words over a finite alphabet.

A word is convex with parameter k when every second difference
w[i-1] + w[i+1] - 2*w[i] is at most k.  For k = 0 the stable count on an
alphabet of size p is governed by pairs of integer partitions; the
encode/decode pair below realizes that bijection explicitly.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import perm

from convexenum import DEFAULT_ORDER
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
        return "{" + ",".join(str(p) for p in self.parts) + "}" if self.parts else "{}"


class WordGF(Frozen):
    """Generating-function bundle for fixed (p, k): the counts as a
    ``TruncatedSeries``, and the closed form as a ``RationalFunction``
    or ``None``."""

    __slots__ = ("p", "k", "series", "ratfun")


def is_convex_word(w: Word, k: int) -> bool:
    a = w.letters
    return all(a[i - 1] + a[i + 1] - 2 * a[i] <= k for i in range(1, len(a) - 1))


def _check_length_and_alphabet(n: int, p: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p < 1:
        raise ValueError("p must be positive")


def count_convex_sequences(n: int, p: int, k: int, distinct: bool) -> int:
    """Number of k-convex sequences of length n on [p], with no entry
    repeated when ``distinct`` (so ``p = n`` counts permutations).

    Backtracking: the entry after ``prev, last`` is at most
    hi = min(p, k + 2*last - prev).  Two shortcuts count without
    visiting every node.

    Word tails: with three letters to go, a word continues with any v
    in [1, hi], then any w in [1, h] with h = min(p, k + 2v - last), then
    any of clamp(k + 2w - v, 0, p) letters.  The last two letters thus
    number tail[v][h] = sum_{w=1..h} clamp(k + 2w - v, 0, p), which
    depends on v and h alone, so one table of running sums over h,
    (p + 1)^2 ints built once per search, counts them; a v with h <= 0
    has no w and adds nothing (the table is not read there, where a
    negative index would wrap).  The tail count is a flat sum over v.
    It stops at three letters: a table of three-letter tails is indexed
    by the pair (last, hi), and filling it is the backward transfer DP
    over letter pairs (:func:`count_words_dp`) that the search is
    checked against.

    Permutation reach (p = n, so every unused value must still be
    placed): a child is cut when the largest unused value lies above
    every entry its prefix can still reach; :func:`_first_children`
    proves the bound and tabulates the least child that survives, once
    per search.  With p > n no value must be placed, and nothing is cut.
    """
    _check_length_and_alphabet(n, p)
    if n < 3:  # no second difference to check
        return perm(p, n) if distinct else p ** n
    if n > sys.getrecursionlimit() // 2:  # extend() recurses n calls deep
        return sum(1 for _ in convex_sequences(n, p, k, distinct))
    used = [False] * (p + 1)
    first = _first_children(n, k) if distinct and p == n else None
    tail = None if distinct else [
        [0, *accumulate(max(0, min(p, k + 2 * w - v)) for w in range(1, p + 1))]
        for v in range(p + 1)]

    def extend(last: int, hi: int, left: int, top: int) -> int:
        # top: the largest value the prefix must still place, or 0
        total = 0
        if left == 3 and not distinct:  # count the last three letters
            for v in range(1, hi + 1):
                h = k + 2 * v - last
                if h > 0:
                    total += tail[v][h if h < p else p]
            return total
        for v in range(first[left - 1][last][top] if top else 1, hi + 1):
            if used[v]:
                continue
            if left == 1:
                total += 1
                continue
            used[v] = distinct
            below = top
            if v == top:
                below -= 1
                while used[below]:
                    below -= 1
            total += extend(v, min(p, k + 2 * v - last), left - 1, below)
            used[v] = False
        return total

    # the first entry is free, and nothing before it bounds the second;
    # the largest value left to place is then p, or p - 1 after p
    total = 0
    for v in range(1, p + 1):
        used[v] = distinct
        total += extend(v, p, n - 1, (p - (v == p)) if first else 0)
        used[v] = False
    return total


def _first_children(n: int, k: int) -> list[list[list[int]]]:
    """``first[l][last][top]``: the least child v of a prefix of a
    k-convex permutation of [n] that the reach bound keeps, when the
    prefix ends at ``last``, its largest unused value is ``top``, and l
    entries follow v.

    Write d_i for the differences of a sequence of distinct entries.
    Then d_i != 0, d_{i+1} != -d_i (else an entry repeats), and
    convexity gives d_{i+1} <= d_i + k.  So d_{i+1} <= g(d_i), with g(x)
    the largest integer <= x + k other than 0 and -x.  g is
    nondecreasing on the nonzero integers: for x < x',
    g(x') >= x' + k - 2 >= g(x) when x' >= x + 2.  When x' = x + 1, the
    value x + k >= g(x) is allowed for x' unless x + k = 0, where
    g(x) <= x' + k - 2 <= g(x'), or x + k = -x', where g(x) = x + k and
    g(x') = x' + k.  By induction, the j-th difference after d is at
    most D_j, where D_0 = d and D_{j+1} = g(D_j).  So within l more
    entries no entry exceeds v + climb(l, d), where d = v - last and
    climb(l, d) = max(0, max_{j <= l} (D_1 + ... + D_j)).  A child v < top
    with top > v + climb(l, v - last) has no completion, since top must
    still be placed.  Children v >= top are kept, and a child kept for
    some top is kept for every smaller one, so the least kept child is
    nondecreasing in top.  For k <= 2 a negative D stays negative, so a
    descent to v is cut whenever a value above v is unused: no prefix
    survives that cannot begin a mountain.
    """
    def g(x):
        y = x + k
        while y == 0 or y == -x:
            y -= 1
        return y

    # climb[l][d] for d in (-n, n), a negative d indexed from the end;
    # d = 0 stays 0 and is never read for a child, since last is used
    climb = [[0] * (2 * n - 1) for _ in range(n - 1)]
    for d in range(1 - n, n):
        if d == 0:
            continue
        x, total, best = d, 0, 0
        for row in climb[1:]:
            x = g(x)
            total += x
            best = max(best, total)
            row[d] = best
    first = []
    for row in climb:
        by_last = [[]]
        for last in range(1, n + 1):
            least = [1] * (n + 1)
            v = 1
            for top in range(2, n + 1):
                while v < top and v + row[v - last] < top:
                    v += 1
                least[top] = v
            by_last.append(least)
        first.append(by_last)
    return first


def convex_sequences(n: int, p: int, k: int, distinct: bool):
    """Yield the sequences :func:`count_convex_sequences` counts, in
    lexicographic order.

    The same list is yielded every time, updated in place; copy it to
    keep it.  The search keeps one ``range`` iterator per placed entry.
    """
    _check_length_and_alphabet(n, p)
    seq: list[int] = []
    if n == 0:
        yield seq
        return
    used = [False] * (p + 1)
    stack = [iter(range(1, p + 1))]
    while stack:
        for v in stack[-1]:
            if not used[v]:
                break
        else:  # this prefix has no more extensions
            stack.pop()
            if seq:
                used[seq.pop()] = False
            continue
        seq.append(v)
        if len(seq) == n:
            yield seq
            seq.pop()
        else:
            used[v] = distinct
            # a virtual entry k + 2 - p before the first bounds the second by p
            prev = seq[-2] if len(seq) > 1 else k + 2 - p
            stack.append(iter(range(1, min(p, k + 2 * v - prev) + 1)))


def count_words_bruteforce(n: int, p: int, k: int) -> int:
    """Exact count by backtracking (:func:`count_convex_sequences`)."""
    return count_convex_sequences(n, p, k, distinct=False)


def count_words_dp(n: int, p: int, k: int) -> int:
    """Count by the first-two-letters DP; agrees with brute force."""
    _check_length_and_alphabet(n, p)
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
    gaps1 = [b - c for b, c in zip(pf[1:] + (m,), pf)] if pf else []
    gaps2 = [b - c for b, c in zip((m,) + sf, sf)] if sf else []
    w1 = IntegerPartition(tuple(sorted(gaps1)))
    w2 = IntegerPartition(tuple(sorted(gaps2)))
    return m, w1, w2


def all_convex_words(n: int, p: int, k: int):
    """Yield every k-convex word of length n on [p] (brute force)."""
    for letters in convex_sequences(n, p, k, distinct=False):
        yield Word(tuple(letters), p)
