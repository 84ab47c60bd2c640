"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line on success so the suite output reads
as a checklist.  Reference values live in _goldens.py.
"""

import itertools
from fractions import Fraction

import pytest

import _oracles
from _goldens import (
    BOUND_GF,
    ENCODE_EXAMPLES,
    G0P_STABLE,
    G0P_STABLE_REFERENCE_P9,
    RATES,
    TABLE_F0,
    TABLE_F1,
    TABLE_F2,
    WORD_GF_30,
    root_fraction,
)
from _oracles import (
    Permutation, descend, from_terms, is_convex_perm, to_series)
from convexenum import cfrac, ladder, perms, search, words
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.roots import smallest_positive_root
from convexenum.exact.series import TruncatedSeries


def test_criterion_1_counting_pipelines_reproduce_reference_table():
    assert [perms.f0_closed(n) for n in range(1, 13)] == TABLE_F0
    for k, table in ((1, TABLE_F1), (2, TABLE_F2)):
        assert [perms.count_perms_bruteforce(n, k)
                for n in range(1, 13)] == table
        assert ladder.perm_counts(k, 12) == table
    f1 = cfrac.f1_series(12).coeffs
    assert [int(f1[n]) for n in range(1, 13)] == TABLE_F1
    print("PASS criterion 1: all counting pipelines reproduce the "
          "f_0, f_1, f_2 table for n = 1..12")


def test_criterion_2_word_generating_function():
    gf = words.word_gf(3, 0, order=20)
    assert [int(c) for c in gf.series.coeffs] == WORD_GF_30
    for p in range(1, 5):
        for k in range(4):
            series = words.word_gf(p, k, order=10).series.coeffs
            for n in range(11):
                assert series[n] == words.count_words_bruteforce(n, p, k), \
                    (n, p, k)
    print("PASS criterion 2: word generating functions match the reference "
          "sequence and brute force for p <= 4, k <= 3, n <= 10")


def test_criterion_3_stable_count_formula():
    assert [words.g0p_stable(p) for p in range(1, 10)] == G0P_STABLE
    for p in range(1, 6):
        assert words.g0p_stable(p) == \
            words.count_words_bruteforce(2 * p - 1, p, 0), p
    print("PASS criterion 3: stable 0-convex counts match the partition "
          "formula and brute force at the stabilization threshold")


@pytest.mark.xfail(strict=True,
                   reason="reference value for p = 9 is 7469; the partition "
                          "formula and independent word counts give 7989")
def test_criterion_3_reference_p9_value():
    assert words.g0p_stable(9) == G0P_STABLE_REFERENCE_P9


def test_criterion_4_bijection_roundtrip():
    for m, w1, w2, n, p, expected in ENCODE_EXAMPLES:
        w = words.encode_word(m, words.IntegerPartition(w1),
                              words.IntegerPartition(w2), n, p)
        assert str(w) == expected
    for p in range(1, 5):
        n = 2 * p - 1
        for letters in search.convex_sequences(n, p, 0, False):
            w = words.Word(letters, p)
            m, w1, w2 = words.decode_word(w)
            assert words.encode_word(m, w1, w2, n, p) == w
    print("PASS criterion 4: encode/decode is the identity on all stable "
          "words for p <= 4 and on the reference examples")


def test_criterion_5_rational_bound_generating_functions():
    order = 30
    x = TruncatedSeries.monomial(1, order)
    for (k, side), (nd, dd) in BOUND_GF.items():
        reference = RationalFunction(from_terms(nd), from_terms(dd))
        expected = (1 + x
                    + 2 * x * x * to_series(reference, order))
        assert to_series(perms.gf_bound(k, side), order) == expected, (k, side)
    print("PASS criterion 5: lower/upper bound generating functions match "
          "all four reference rational functions to 30 coefficients")


def test_criterion_6_certified_roots_and_rates():
    tol_root = Fraction(1, 10**18)
    for (k, side), (_, dd) in BOUND_GF.items():
        lo, hi = smallest_positive_root(from_terms(dd), 20)
        assert abs((lo + hi) / 2 - root_fraction(k, side)) < tol_root, (k, side)
    for k in (1, 2):
        gb = perms.growth_bounds(k, precision=20)
        assert abs(float(gb.lower_rate) - RATES[(k, "lower")]) < 1e-9
        assert abs(float(gb.upper_rate) - RATES[(k, "upper")]) < 1e-9
    print("PASS criterion 6: all four denominator roots certified to 1e-18 "
          "and growth rates to 1e-9")


def test_criterion_7_continued_fraction_consistency():
    assert cfrac.f1_series(30) == _oracles.m1_series(30)
    f1 = cfrac.f1_series(30).coeffs
    g = perms.build_digraph(1, depth=28)
    for n in range(2, 31):
        assert int(f1[n]) == 2 * perms.walk_count(g, n), n
    totals, returns = _oracles.ladder_walk_oracle(20)
    bot = cfrac.bot_series(20).coeffs
    tot = cfrac.tot_series(20).coeffs
    assert [int(bot[n]) for n in range(21)] == returns
    assert [int(tot[n]) for n in range(21)] == totals
    print("PASS criterion 7: continued-fraction and transfer-matrix series "
          "agree with each other and with walk counts to order 30")


def test_criterion_8_two_convex_formula_report():
    report = cfrac.f2_formula_check(20)
    exact = report["exact"]
    assert exact[:13] == [1] + TABLE_F2
    for n in range(13, 21):
        assert exact[n] == perms.count_perms_digraph(2, n)
    assert report["derived_closed_form_agrees"] is True
    mismatches = {}
    for root in ("1234", "1245"):
        formula = report[f"root_{root}_formula"]
        assert len(formula) == 21
        first = report[f"root_{root}_first_mismatch"]
        assert first == next(
            (n for n in range(21) if formula[n] != exact[n]), None)
        mismatches[f"root_{root}"] = first
    assert mismatches == {"root_1234": 7, "root_1245": 13}
    print("PASS criterion 8: 2-convex formula report produced with an exact "
          "oracle side; formula agreement recorded as " + str(mismatches))


# --- criterion 9: structural property suites -------------------------------

def _consecutive_pattern(a, b, c):
    if b < a < c:
        return "213"
    if b < c < a:
        return "312"
    return None


def test_criterion_9_property_suites():
    # reversal closure
    for k in (1, 2):
        for n in range(2, 8):
            for e in search.convex_sequences(n, n, k, True):
                assert is_convex_perm(Permutation(e[::-1]), k)

    # consecutive 213/312 avoidance
    for k in (1, 2):
        for n in range(3, 9):
            for e in search.convex_sequences(n, n, k, True):
                for i in range(n - 2):
                    assert _consecutive_pattern(*e[i:i + 3]) is None, e

    # endpoint dichotomy: exactly one of six end conditions holds
    for k in (1, 2):
        for n in range(5, 9):
            for e in search.convex_sequences(n, n, k, True):
                conditions = [
                    e[0] == 1 and e[1] == 2,
                    e[-1] == 1 and e[-2] == 2,
                    e[0] == 1 and e[1] == 3,
                    e[-1] == 1 and e[-2] == 3,
                    e[0] == 2 and e[1] == 3,
                    e[-1] == 2 and e[-2] == 3,
                ]
                assert sum(conditions) == 1, e

    # slow risers are counted by 2^(n-1)
    for n in range(1, 10):
        count = sum(
            1 for q in itertools.permutations(range(1, n + 1))
            if all(q[i + 1] <= q[i] + 1 for i in range(n - 1)))
        assert count == 2 ** (n - 1), n

    # counts are even past n = 1
    for k in (1, 2):
        for n in range(2, 11):
            assert perms.count_perms_digraph(k, n) % 2 == 0, (k, n)

    # canonicalization is sound: permutations sharing a canonical endpoint
    # state have identical descendant profiles to depth 4
    def profile(p, k, depth=4):
        out = []
        frontier = [p]
        for _ in range(depth):
            frontier = [c for q in frontier for d in "LR"
                        for c in [descend(q, d, k)] if c is not None]
            out.append(len(frontier))
        return tuple(out)

    for k in (1, 2):
        profiles = {}
        for n in range(2, 10):
            for e in search.convex_sequences(n, n, k, True):
                p = Permutation(e)
                key = _oracles.canonicalize_state(
                    _oracles.endpoint_state(p), k)
                got = profile(p, k)
                assert profiles.setdefault(key, got) == got, (p, key)

    print("PASS criterion 9: reversal closure, pattern avoidance, endpoint "
          "dichotomy, slow-riser count, evenness, and canonicalization "
          "soundness all hold exhaustively")
