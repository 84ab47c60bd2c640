"""The backtracking search over k-convex sequences on [p], shared by
words and permutations: one counter, :func:`count_convex_sequences`,
and one generator, :func:`convex_sequences`.  The generator is the
counter's oracle, and also its path past half the recursion limit,
where the counter's recursion would overflow.  A sequence with no entry
repeated and p = n is a permutation.  It is its own module
so that counting permutations runs without loading ``words``, and a
word's generating function without the search.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import perm


def check_length_and_alphabet(n: int, p: int) -> None:
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
    over letter pairs (:func:`convexenum.words.count_words_dp`) that the
    search is checked against.

    Permutation reach (p = n, so every unused value must still be
    placed): a child is cut when the largest unused value lies above
    every entry its prefix can still reach; :func:`_first_children`
    proves the bound and tabulates the least child that survives, once
    per search.  With p > n no value must be placed, and nothing is cut.

    Word nodes: for 4 <= n <= half the recursion limit, ``extend`` runs
    once for each k-convex word on [p] of length 1..n - 3, the prefix it
    extends.  The first call takes each first letter, its bound hi = p
    leaves the second letter free, and every later child is a letter of
    [1, hi], so a call's children are exactly the letters that keep its
    prefix k-convex, each a prefix of its own.  No child is cut, since a
    word need place no letter, and a call with three letters to go
    counts them flat and calls nothing.  So a count of words makes
    sum_{j=1..n-3} w_k(j, p) calls, with w_k(j, p) the number of
    k-convex words of length j on [p], which
    :func:`convexenum.words.count_words_dp` gives before the search
    runs; at n = 3 it makes p + p^2, one for each prefix of length 1
    and 2.
    """
    check_length_and_alphabet(n, p)
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
    check_length_and_alphabet(n, p)
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
