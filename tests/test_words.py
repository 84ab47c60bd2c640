"""Tests for locally convex word counting and the partition bijection."""

import re
import sys
from itertools import product
from math import perm

import pytest
from hypothesis import given, strategies as st

from _goldens import ENCODE_EXAMPLES, G0P_STABLE, SEARCH_COUNTS, WORD_GF_30
from _oracles import is_convex_word, to_series
from convexenum import search
from convexenum.exact.linalg import solve_field_system
from convexenum.exact.polynomial import Polynomial
from convexenum.exact.ratfun import RationalFunction
from convexenum.words import (
    IntegerPartition,
    Word,
    count_words_bruteforce,
    count_words_dp,
    decode_word,
    encode_word,
    g0p_stable,
    partition_count,
    word_gf,
)


@st.composite
def _searches(draw):
    """(n, p, k, distinct) with n, p <= 9 and at most 20,000 candidate
    sequences, so that the generator can enumerate them."""
    p = draw(st.integers(1, 9))
    distinct = draw(st.booleans())
    size = (lambda n: perm(p, n)) if distinct else (lambda n: p ** n)
    n = draw(st.integers(0, max(n for n in range(10) if size(n) <= 20_000)))
    return n, p, draw(st.integers(-3, 5)), distinct


class TestWordBasics:
    def test_letter_range_validation(self):
        with pytest.raises(ValueError):
            Word((1, 4), 3)
        with pytest.raises(ValueError):
            Word((0,), 3)

    def test_str_uses_commas_past_nine(self):
        assert str(Word((1, 2, 3), 3)) == "123"
        assert str(Word((10, 2), 10)) == "10,2"

    def test_convexity_checker(self):
        assert is_convex_word(Word((2, 3, 3, 2, 1), 3), 0)
        assert not is_convex_word(Word((3, 1, 3), 3), 0)
        assert is_convex_word(Word((3, 1, 3), 3), 4)
        # words of length < 3 are vacuously convex
        assert is_convex_word(Word((3, 1), 3), 0)

    def test_partition_validation(self):
        # parts in any order are stored sorted, so two spellings are equal
        assert IntegerPartition((2, 1, 1)) == IntegerPartition((1, 1, 2))
        assert IntegerPartition((2, 1, 1)).parts == (1, 1, 2)
        for parts in ((0,), (2, -1)):
            with pytest.raises(ValueError, match="^parts must be positive$"):
                IntegerPartition(parts)
        assert IntegerPartition((1, 1, 3)).total == 5


class TestCounting:
    def test_bruteforce_matches_dp(self):
        for p in range(1, 5):
            for k in range(4):
                for n in range(9):
                    assert count_words_bruteforce(n, p, k) == \
                        count_words_dp(n, p, k), (n, p, k)

    def test_deep_search_falls_back_to_the_generator(self, monkeypatch):
        # a search deeper than Python's recursion limit runs the generator
        calls = []
        generator = search.convex_sequences

        def spy(*args):
            calls.append(args)
            return generator(*args)

        monkeypatch.setattr(search, "convex_sequences", spy)
        assert count_words_bruteforce(1200, 3, 0) == count_words_dp(1200, 3, 0)
        assert calls == [(1200, 3, 0, False)]

    def test_recorded_search_count(self):
        assert count_words_bruteforce(12, 5, 1) == \
            SEARCH_COUNTS[12, 5, 1, False] == count_words_dp(12, 5, 1)

    def test_three_letter_tails_with_bounds_below_one(self):
        # with k <= 0 the bound k + 2v - last of a tail's middle letter
        # falls to 0 or below, where the tail table must not be read
        assert count_words_bruteforce(10, 6, 0) == 574 == \
            count_words_dp(10, 6, 0)
        for p in (5, 6):
            for k in range(-3, 1):
                for n in range(3, 10):
                    assert count_words_bruteforce(n, p, k) == \
                        count_words_dp(n, p, k), (n, p, k)

    def test_word_search_visits_each_convex_prefix_once(self):
        # the node bound of count_convex_sequences' docstring: one extend
        # call per k-convex word of length 1..n - 3, or p + p^2 at n = 3
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "extend" \
                    and frame.f_code.co_filename == search.__file__:
                calls += 1

        previous = sys.getprofile()
        for k, p, n in product(range(-1, 4), range(1, 7), range(3, 11)):
            bound = p + p * p if n == 3 else sum(
                count_words_dp(j, p, k) for j in range(1, n - 2))
            calls = 0
            sys.setprofile(count)
            try:
                total = count_words_bruteforce(n, p, k)
            finally:
                sys.setprofile(previous)
            assert (calls, total) == (bound, count_words_dp(n, p, k)), \
                (n, p, k)

    @given(_searches())
    def test_counter_matches_generator(self, args):
        # the generator visits every node, so it is the oracle for the
        # counter's flat word tails and its permutation reach cut
        assert search.count_convex_sequences(*args) == \
            sum(1 for _ in search.convex_sequences(*args)), args

    def test_generator_matches_counts(self):
        # the definition itself, filtered over all p^n words in
        # lexicographic order, is the oracle for the shared search; with
        # k < -1 a last letter can have no room (the bound drops below 1)
        for p in range(1, 7):
            for n in range(8 if p < 5 else 6):
                every = [Word(w, p) for w in product(range(1, p + 1), repeat=n)]
                for k in range(-3, 4):
                    convex = [w for w in every if is_convex_word(w, k)]
                    assert [Word(w, p) for w in search.convex_sequences(
                        n, p, k, False)] == convex, (n, p, k)
                    assert count_words_bruteforce(n, p, k) == len(convex) == \
                        count_words_dp(n, p, k), (n, p, k)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_words_dp(-1, 2, 0)
        with pytest.raises(ValueError):
            count_words_bruteforce(-1, 2, 0)
        with pytest.raises(ValueError):
            next(search.convex_sequences(-1, 2, 0, False))

    def test_empty_alphabet_rejected(self):
        for p in (0, -1):
            with pytest.raises(ValueError):
                count_words_dp(1, p, 0)
            with pytest.raises(ValueError):
                count_words_bruteforce(1, p, 0)
            with pytest.raises(ValueError):
                next(search.convex_sequences(1, p, 0, False))


class TestGeneratingFunction:
    def test_three_letter_zero_convex_coefficients(self):
        gf = word_gf(3, 0, order=20)
        assert [int(c) for c in gf.series.coeffs] == WORD_GF_30

    def test_series_matches_bruteforce(self):
        for p in range(1, 5):
            for k in range(4):
                gf = word_gf(p, k, order=10)
                for n in range(11):
                    assert gf.series.coeffs[n] == \
                        count_words_bruteforce(n, p, k), \
                        (n, p, k)

    @given(st.integers(1, 5), st.integers(-3, 4), st.integers(0, 16),
           st.booleans())
    def test_series_matches_dp(self, p, k, n, with_ratfun):
        series = word_gf(p, k, order=n, with_ratfun=with_ratfun).series
        assert series.order == n
        assert list(series.coeffs) == [count_words_dp(m, p, k)
                                       for m in range(n + 1)]

    def test_closed_form_expansion_matches_series(self):
        for p, k in [(2, 0), (3, 0), (2, 1), (3, 2)]:
            gf = word_gf(p, k, order=15, with_ratfun=True)
            assert gf.ratfun is not None
            assert to_series(gf.ratfun, 15) == gf.series

    def test_closed_form_matches_transfer_system_elimination(self):
        # independent oracle: F(a,b) - x * sum_{c <= k+2b-a} F(b,c) = x^2,
        # solved over the rational-function field
        x = RationalFunction(Polynomial((0, 1)))
        for p, k in [(2, 0), (3, 0), (2, 1), (3, 2)]:
            pairs = [(a, b) for a in range(1, p + 1) for b in range(1, p + 1)]
            rows = []
            for a, b in pairs:
                row = [RationalFunction(int(ab == (a, b))) for ab in pairs]
                for c in range(1, min(p, k + 2 * b - a) + 1):
                    j = pairs.index((b, c))
                    row[j] = row[j] - x
                rows.append(row)
            total = RationalFunction(Polynomial((1, p)))
            for s in solve_field_system(rows, [x * x] * len(pairs)):
                total = total + s
            assert word_gf(p, k, with_ratfun=True).ratfun == total, (p, k)


class TestStableCounts:
    def test_partition_counts(self):
        assert [partition_count(j) for j in range(9)] == \
            [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_stable_sequence(self):
        assert [g0p_stable(p) for p in range(1, 10)] == G0P_STABLE

    def test_stable_equals_word_count_at_threshold(self):
        for p in range(1, 6):
            n = 2 * p - 1
            assert g0p_stable(p) == count_words_bruteforce(n, p, 0), p

    def test_count_is_stable_past_threshold(self):
        for p in range(1, 5):
            base = count_words_dp(2 * p - 1, p, 0)
            for extra in range(1, 4):
                assert count_words_dp(2 * p - 1 + extra, p, 0) == base, p


class TestBijection:
    def test_reference_examples(self):
        for m, w1, w2, n, p, expected in ENCODE_EXAMPLES:
            w = encode_word(m, IntegerPartition(w1), IntegerPartition(w2), n, p)
            assert str(w) == expected
            back_m, back_w1, back_w2 = decode_word(w)
            assert (back_m, back_w1.parts, back_w2.parts) == (m, w1, w2)

    def test_roundtrip_exhaustive(self):
        """decode then encode every 0-convex word of every length
        n <= 2p + 1 on [p], p <= 5, also below the stable lengths
        n > 2(p - 1)."""
        for p in range(1, 6):
            for n in range(1, 2 * p + 2):
                for letters in search.convex_sequences(n, p, 0, False):
                    w = Word(letters, p)
                    m, w1, w2 = decode_word(w)
                    assert encode_word(m, w1, w2, n, p) == w

    def test_encode_then_decode_exhaustive(self):
        """encode then decode every pair of partitions with totals below
        m, for every m <= p <= 5 and plateaus of length 1 to 3."""

        def partitions(total, largest):
            """Partitions of ``total`` into parts at most ``largest``,
            as weakly increasing tuples."""
            if total == 0:
                yield ()
            for part in range(min(total, largest), 0, -1):
                for rest in partitions(total - part, part):
                    yield rest + (part,)

        for p in range(1, 6):
            for m in range(1, p + 1):
                below_m = [IntegerPartition(parts) for total in range(m)
                           for parts in partitions(total, total)]
                for w1, w2 in product(below_m, repeat=2):
                    for plateau in range(1, 4):
                        n = len(w1.parts) + plateau + len(w2.parts)
                        w = encode_word(m, w1, w2, n, p)
                        assert decode_word(w) == (m, w1, w2)

    def test_encode_rejects_oversized_partitions(self):
        with pytest.raises(ValueError):
            encode_word(3, IntegerPartition((3,)), IntegerPartition(()), 5, 3)

    def test_encode_rejects_missing_plateau(self):
        with pytest.raises(ValueError):
            encode_word(3, IntegerPartition((1,)), IntegerPartition((1, 1)), 3, 3)

    def test_decode_rejects_non_convex(self):
        with pytest.raises(ValueError):
            decode_word(Word((3, 1, 3), 3))

    def test_decode_accepts_exactly_the_zero_convex_words(self):
        """decode_word's test on the differences agrees with the
        definition on every word of length 1 to 6 on [4]; each word it
        accepts encodes back to itself."""
        for n in range(1, 7):
            for letters in product(range(1, 5), repeat=n):
                w = Word(letters, 4)
                if is_convex_word(w, 0):
                    assert encode_word(*decode_word(w), n, 4) == w, w
                else:
                    with pytest.raises(ValueError,
                                       match="^word is not 0-convex$"):
                        decode_word(w)


@pytest.mark.parametrize("call,message", [
    (lambda: word_gf(0, 1), "p must be positive"),
    (lambda: word_gf(-2, 0, 5, with_ratfun=True), "p must be positive"),
    (lambda: partition_count(-1), "j must be nonnegative"),
    (lambda: g0p_stable(0), "p must be positive"),
    (lambda: decode_word(Word((), 3)), "empty word"),
], ids=["word_gf", "word_gf_ratfun", "partition_count", "g0p_stable",
        "decode_word"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
