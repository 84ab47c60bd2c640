"""Metamorphic relations: each one ties an engine's outputs at different
inputs to each other, or to another engine's outputs for a different
quantity, so it needs no second engine for the same quantity and holds
at sizes where no oracle runs.

Each row of ``RELATIONS`` gives a relation, its one-line proof, the
engines it crosses, and its cases, each a case and whether the relation
holds there.  The words are those of length n on [p] whose second
differences w_(i-1) - 2 w_i + w_(i+1) are all at most k, counted as
w_k(n, p) by ``count_words_dp``; f_k(n) counts the k-convex
permutations of [n].  The four word relations are also checked at
lengths Hypothesis draws between the fixed sweep's.
"""

from functools import cache
from math import factorial
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from convexenum.exact.series import TruncatedSeries
from convexenum.ladder import perm_counts
from convexenum.perms import count_perms_bruteforce, f0_closed, gf_bound
from convexenum.words import count_words_dp

#: every word length the brute force reaches, then two only the DP does
WORD_LENGTHS = (*range(13), 100, 400)
PERM_DEPTH = 500  # the ladder counts' depth

w = cache(count_words_dp)  # w(n, p, k) = w_k(n, p)
f = cache(perm_counts)  # f(k, N) = [f_k(1), ..., f_k(N)]


def saturated(n, p, k):
    return k < 2 * p - 2 or w(n, p, k) == p ** n


def monotone_in_k(n, p, k):
    return w(n, p, k) <= w(n, p, k + 1)


def monotone_in_p(n, p, k):
    return w(n, p, k) <= w(n, p + 1, k)


def convex_in_p(n, p, k):
    return p < 2 or w(n, p + 1, k) - 2 * w(n, p, k) + w(n, p - 1, k) >= 0


def words_saturate():
    for n in WORD_LENGTHS:
        for p in range(1, 7):
            for k in (2 * p - 2, 2 * p + 1):
                yield (n, p, k), saturated(n, p, k)


def words_monotone_in_k():
    for n in WORD_LENGTHS:
        for p in range(1, 7):
            for k in range(-3, 2 * p - 2):
                yield (n, p, k), monotone_in_k(n, p, k)


def words_monotone_in_p():
    for n in WORD_LENGTHS:
        for p in range(1, 6):
            for k in range(-2, 5):
                yield (n, p, k), monotone_in_p(n, p, k)


def words_convex_in_p():
    for n in WORD_LENGTHS:
        for p in range(2, 6):
            for k in range(-2, 5):
                yield (n, p, k), convex_in_p(n, p, k)


def perms_saturate():
    for n in range(1, 9):
        yield n, count_perms_bruteforce(n, 2 * n - 3) == factorial(n)


def perms_are_words():
    for n in range(1, 9):
        for k in range(-2, 5):
            yield (n, k), count_perms_bruteforce(n, k) <= w(n, n, k)


def perms_monotone_in_k():
    f1, f2 = f(1, PERM_DEPTH), f(2, PERM_DEPTH)
    for n in range(1, PERM_DEPTH + 1):
        yield n, f0_closed(n) <= f1[n - 1] <= f2[n - 1]


def perms_lower_bound():
    for k in (1, 2):
        gf = gf_bound(k, "lower")  # both denominators start with -1
        lower = (TruncatedSeries(gf.num.coeffs, PERM_DEPTH)
                 / TruncatedSeries(gf.den.coeffs, PERM_DEPTH)).coeffs
        for n in range(1, PERM_DEPTH + 1):
            yield (k, n), lower[n] <= f(k, PERM_DEPTH)[n - 1]


class Relation(NamedTuple):
    name: str
    proof: str
    engines: str
    cases: object  # a generator function of (case, holds) pairs


RELATIONS = [
    Relation(
        "w_k(n, p) = p^n for k >= 2p - 2",
        "a second difference x - 2y + z on [p] is at most "
        "p - 2 + p = 2p - 2",
        "count_words_dp", words_saturate),
    Relation(
        "w_k(n, p) <= w_(k+1)(n, p)",
        "a k-convex word is (k + 1)-convex",
        "count_words_dp", words_monotone_in_k),
    Relation(
        "w_k(n, p) <= w_k(n, p + 1)",
        "a word on [p] is a word on [p + 1]",
        "count_words_dp", words_monotone_in_p),
    Relation(
        "w_k(n, p + 1) - 2 w_k(n, p) + w_k(n, p - 1) >= 0",
        "shifting by 1 keeps second differences, so by inclusion-exclusion "
        "this counts the words on [p + 1] that use both 1 and p + 1",
        "count_words_dp", words_convex_in_p),
    Relation(
        "f_k(n) = n! for k >= 2n - 3",
        "a second difference x - 2y + z with x != z in [n] is at most "
        "n + (n - 1) - 2 = 2n - 3",
        "count_perms_bruteforce", perms_saturate),
    Relation(
        "f_k(n) <= w_k(n, n)",
        "a k-convex permutation of [n] is a k-convex word on [n]",
        "count_perms_bruteforce, count_words_dp", perms_are_words),
    Relation(
        "f_0(n) <= f_1(n) <= f_2(n)",
        "a k-convex permutation is (k + 1)-convex",
        "f0_closed, perm_counts", perms_monotone_in_k),
    Relation(
        "[x^n] gf_bound(k, 'lower') <= f_k(n) for k in {1, 2}",
        "the cut digraph is a subgraph of the digraph reachable from 12, "
        "so each of its walks is a walk there",
        "gf_bound, perm_counts", perms_lower_bound),
]


@pytest.mark.parametrize("relation", RELATIONS,
                         ids=lambda relation: relation.cases.__name__)
def test_relation_holds(relation):
    checked = list(relation.cases())
    assert len(checked) >= 8
    assert [case for case, holds in checked if not holds] == []


@st.composite
def _sizes(draw):
    """(n, p, k) between the fixed sweep's lengths, with k from below
    -2 up to past saturation."""
    p = draw(st.integers(1, 8))
    return draw(st.integers(13, 400)), p, draw(st.integers(-3, 2 * p))


@settings(max_examples=150, deadline=None)
@given(_sizes())
def test_word_relations_hold_at_drawn_sizes(size):
    for holds in (saturated, monotone_in_k, monotone_in_p, convex_in_p):
        assert holds(*size), holds.__name__
