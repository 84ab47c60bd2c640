"""Unit tests for the exact-arithmetic core."""

import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul, sub, truediv
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from convexenum import cfrac, perms, words
from convexenum.exact.linalg import (
    NonUnitDeterminantError,
    SeriesMatrix,
    matrix_resolvent_row,
    solve_field_system,
    solve_series_system,
)
from convexenum.exact.coefficients import (
    convolve, exact_coefficient, reciprocal)
from convexenum.exact.polynomial import Polynomial
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.roots import (
    NoRootError,
    decimal_value,
    render_interval,
    smallest_positive_root,
)
from convexenum.exact.series import TruncatedSeries

# small rationals, cheaper to draw than st.fractions
_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def _assert_ring_laws(a, b, c, zero, one):
    """The commutative ring axioms on three elements."""
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a + (zero - a) == zero and a - b == a + (zero - b)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert not Polynomial((0, 0))
        assert Polynomial(()).degree == -1

    def test_zero_has_one_spelling(self):
        with pytest.raises(TypeError, match="coeffs"):
            Polynomial()

    def test_from_terms(self):
        p = _oracles.from_terms({0: 1, 3: -2})
        assert p.coeffs == (1, 0, 0, -2)
        assert _oracles.from_terms({}) == Polynomial(())
        for terms in ({2: 1, -1: 3}, {-3: 5}):
            with pytest.raises(ValueError, match="negative exponent"):
                _oracles.from_terms(terms)

    @given(st.lists(st.integers(-3, 3), max_size=6),
           st.lists(st.integers(-3, 3), max_size=6), st.integers(0, 12))
    def test_convolve_is_the_truncated_product(self, a, b, length):
        schoolbook = [sum(a[i] * b[n - i] for i in range(len(a))
                          if 0 <= n - i < len(b)) for n in range(length)]
        assert convolve(a, b, length) == schoolbook

    def test_ring_arithmetic(self):
        x = Polynomial((0, 1))
        p = (1 + x) * (1 - x)
        assert p == Polynomial((1, 0, -1))
        assert p - p == Polynomial(())
        assert 2 * x == Polynomial((0, 2))

    @example([3, -2, 0, 1, 5], [1, 1, 2])
    @given(st.lists(_FRACTIONS, max_size=6),
           st.lists(_FRACTIONS, max_size=4).filter(any))
    def test_divmod_identity(self, a, b):
        # over a field this identity fixes q and r, so it checks the
        # pseudo-division loop through * and + alone
        a, b = Polynomial(a), Polynomial(b)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        if a.degree < b.degree:
            assert not q

    def test_gcd_is_primitive_common_divisor(self):
        x = Polynomial((0, 1))
        a = (1 - x) * (1 + x)
        b = (1 - x) * (2 + x)
        g = a.gcd(b)
        assert g == x - 1
        assert gcd(*g.coeffs) == 1 and g.leading_coeff() > 0
        assert not divmod(a, g)[1] and not divmod(b, g)[1]

    @given(*[st.lists(_FRACTIONS, max_size=4)] * 3)
    def test_gcd_matches_euclid_over_the_rationals(self, f, g, h):
        a, b = Polynomial(f) * Polynomial(h), Polynomial(g) * Polynomial(h)
        assert a.gcd(b) == _oracles.euclid_gcd(a, b).primitive()
        assert b.gcd(a) == _oracles.euclid_gcd(b, a).primitive()

    @given(st.lists(st.integers(-9, 9), max_size=7),
           st.lists(st.integers(-9, 9), max_size=7).filter(any))
    @example([0, 1], [0, 0, 0, -1])  # deg a < deg b - 1 and lc(b) < 0
    def test_remainder_sequence(self, a, b):
        a, b = Polynomial(a), Polynomial(b)
        seq = a.remainder_sequence(b)
        assert seq[:2] == [a, b]
        for i in range(2, len(seq)):
            # a positive multiple of -(a mod b)
            r = -divmod(seq[i - 2], seq[i - 1])[1]
            assert seq[i] == r.primitive() * (1 if r.leading_coeff() > 0 else -1)
        assert not divmod(seq[-2], seq[-1])[1]
        assert a.gcd(b) == seq[-1].primitive()

    def test_remainder_sequence_builds_each_term_once(self, monkeypatch):
        # one Polynomial per term past the operands, and one for the zero
        # remainder that ends the sequence
        a = Polynomial((3, -1, 0, 2, 5, -4))
        b, built = a.derivative(), []

        def init(self, coeffs, init=Polynomial.__init__):
            built.append(self)
            init(self, coeffs)

        monkeypatch.setattr(Polynomial, "__init__", init)
        seq = a.remainder_sequence(b)
        assert len(seq) > 3 and len(built) == len(seq) - 1
        assert all(x is y for x, y in zip(built, seq[2:]))
        assert not built[-1]

    @given(st.lists(_FRACTIONS, max_size=6))
    def test_primitive_part(self, a):
        a = Polynomial(a)
        prim = a.primitive()
        if a:
            assert all(type(c) is int for c in prim.coeffs)
            assert gcd(*prim.coeffs) == 1
            assert prim * a.leading_coeff() == a * prim.leading_coeff()
            assert prim.leading_coeff() > 0
        else:
            assert prim == Polynomial(())

    @given(*[st.lists(_FRACTIONS, max_size=5)] * 3)
    def test_ring_laws(self, f, g, h):
        _assert_ring_laws(Polynomial(f), Polynomial(g), Polynomial(h),
                          Polynomial(()), Polynomial((1,)))

    def test_evaluation_and_derivative(self):
        p = Polynomial((1, -3, 2))  # 2x^2 - 3x + 1
        assert p(Fraction(1, 2)) == 0
        assert p(2) == 3
        assert p.derivative() == Polynomial((-3, 4))

    @pytest.mark.parametrize("coeffs, text", [
        ((), "0"),
        ((1,), "1"),
        ((-1,), "-1"),
        ((0, 1), "x"),
        ((0, -1), "-x"),
        ((-1, 0, -1), "-1 - x^2"),
        ((Fraction(-1, 2), 0, 0, 3), "-1/2 + 3*x^3"),
        ((0, 0, Fraction(-1, 2)), "-1/2*x^2"),
        ((0, Fraction(3, 2), -1), "3/2*x - x^2"),
        ((1, -1, 0, 2), "1 - x + 2*x^3"),
    ])
    def test_str(self, coeffs, text):
        assert str(Polynomial(coeffs)) == text

    def test_closed_forms_stay_int(self):
        gfs = [perms.gf_bound(k, side) for k in (1, 2)
               for side in ("lower", "upper")]
        gfs.append(words.word_gf(4, 1, with_ratfun=True).ratfun)
        for gf in gfs:
            assert all(type(c) is int for c in gf.num.coeffs + gf.den.coeffs)

    def test_division_stays_exact(self):
        # int / int is a float, and 1/3 is not exact in binary
        q, r = divmod(Polynomial((1, 0, 1)), Polynomial((0, 3)))
        assert q.coeffs == (0, Fraction(1, 3)) and r.coeffs == (1,)
        q, r = divmod(Polynomial((1, 0, 1)), Polynomial((0, 2)))
        assert q.coeffs == (0, Fraction(1, 2)) and r.coeffs == (1,)
        assert type(q.coeffs[1]) is Fraction
        g = Polynomial((2, 4)).gcd(Polynomial((1, 2)))
        assert g == Polynomial((1, 2))
        assert all(type(c) is int for c in g.coeffs)

    def test_reciprocal_keeps_units_and_is_exact(self):
        for unit in (1, -1):
            assert reciprocal(unit) == unit and type(reciprocal(unit)) is int
        assert reciprocal(2) == Fraction(1, 2)
        assert type(reciprocal(2)) is Fraction
        assert reciprocal(Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            reciprocal(0)

    def test_floats_rejected(self):
        # 0.1 would otherwise be kept as its binary value, the string
        # "12" read as the coefficients 1 and 2, and a Decimal parsed
        for value in (0.1, "12", Decimal("0.5")):
            with pytest.raises(TypeError):
                exact_coefficient(value)
            coeffs = value if isinstance(value, str) else [value]
            with pytest.raises(TypeError):
                Polynomial(coeffs)
            with pytest.raises(TypeError):
                TruncatedSeries(coeffs, 2)

    def test_division_by_zero_is_rejected(self):
        for zero in (Polynomial(()), 0):
            with pytest.raises(ZeroDivisionError,
                               match="^division by zero polynomial$"):
                divmod(Polynomial((1, 2)), zero)


class TestTruncatedSeries:
    def test_geometric_inverse(self):
        one_minus_x = TruncatedSeries((1, -1), 10)
        geo = one_minus_x.invert()
        assert geo.coeffs == (1,) * 11

    def test_inverse_roundtrip(self):
        s = TruncatedSeries((1, 2, -3, 5), 12)
        assert s * s.invert() == TruncatedSeries.monomial(0, 12)

    def test_zero_constant_term_not_a_unit(self):
        x = TruncatedSeries.monomial(1, 5)
        for divide in (x.invert, lambda: TruncatedSeries.monomial(0, 5) / x):
            with pytest.raises(ZeroDivisionError,
                               match="^series with zero constant term "
                                     "is not a unit$"):
                divide()

    def test_monomial_product_and_division(self):
        x = TruncatedSeries.monomial(1, 8)
        x2 = TruncatedSeries.monomial(2, 8)
        assert x2 == x * x
        assert TruncatedSeries.monomial(0, 8) == TruncatedSeries((1,), 8)
        s = x2 * x / (1 - x)  # x^3 + x^4 + ...
        assert s.coeffs == (0, 0, 0, 1, 1, 1, 1, 1, 1)
        assert TruncatedSeries.monomial(9, 8) == TruncatedSeries((), 8)
        with pytest.raises(ValueError, match="negative exponent"):
            TruncatedSeries.monomial(-2, 5)

    def test_order_is_required(self):
        with pytest.raises(TypeError):
            TruncatedSeries.monomial(2)

    def test_operands_share_one_order(self):
        a = TruncatedSeries((1, 1), 10)
        b = TruncatedSeries((1, 1), 4)
        for op in (add, sub, mul, truediv):
            for left, right in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="orders differ: "):
                    op(left, right)
        # a scalar is a constant series of the other operand's order
        for c in (3, Fraction(1, 2)):
            assert a + c == c + a == TruncatedSeries((1 + c, 1), 10)
            assert a - c == 0 - (c - a) == TruncatedSeries((1 - c, 1), 10)
            assert a * c == c * a == TruncatedSeries((c, c), 10)
            inv = 1 / Fraction(c)
            assert a / c == TruncatedSeries((inv, inv), 10)

    def test_immutability(self):
        s = TruncatedSeries.monomial(0, 3)
        with pytest.raises(AttributeError):
            s.order = 5

    def test_counting_series_stay_int(self):
        for s in (cfrac.f1_series(80), cfrac.tot_series(60),
                  cfrac.f2_exact_series(cfrac.k2_components(40)),
                  words.word_gf(3, 0).series):
            assert all(type(c) is int for c in s.coeffs)

    def test_non_unit_inverse_stays_exact(self):
        inv = TruncatedSeries((2, -1), 8).invert()
        for m in range(9):
            assert inv.coeffs[m] == Fraction(1, 2 ** (m + 1))

    def test_integral_fractions_are_normalized(self):
        a = TruncatedSeries((Fraction(3), Fraction(1, 2)), 1)
        b = TruncatedSeries((3, Fraction(1, 2)), 1)
        assert a == b and hash(a) == hash(b)
        assert type(a.coeffs[0]) is int

    @given(st.sampled_from([1, -1]),
           st.lists(st.integers(-9, 9), max_size=12),
           st.integers(0, 15),
           st.integers(-9, 9).filter(bool),
           st.lists(st.integers(-9, 9), max_size=16))
    def test_unit_inverse_roundtrip(self, c0, tail, n, b0, numerator):
        s = TruncatedSeries([c0] + tail, n)
        inv = s.invert()
        assert s * inv == TruncatedSeries.monomial(0, n)
        assert all(type(c) is int for c in inv.coeffs)
        # the division recurrence, over any nonzero integer constant term;
        # an integer series over a constant term of 1 or -1 stays int
        a = TruncatedSeries(numerator, n)
        for b in (s, TruncatedSeries([b0] + tail, n)):
            q = a / b
            assert q * b == a
            if b.coeffs[0] in (1, -1):
                assert all(type(c) is int for c in q.coeffs)


    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(_FRACTIONS, max_size=n + 3)] * 3)))
    def test_ring_laws(self, case):
        n, *cs = case
        _assert_ring_laws(*(TruncatedSeries(c, n) for c in cs),
                          TruncatedSeries((), n),
                          TruncatedSeries.monomial(0, n))


class TestRationalFunction:
    def test_canonical_form(self):
        # common factor removed, integer content cleared, positive lead:
        # (1 - x^2)/2 over -(1 + x)/2 reduces to (x - 1)/1
        rf = RationalFunction(Polynomial((Fraction(1, 2), 0, Fraction(-1, 2))),
                              Polynomial((Fraction(-1, 2), Fraction(-1, 2))))
        assert rf.num == Polynomial((-1, 1))
        assert rf.den == Polynomial((1,))
        # a zero numerator over any nonzero denominator, monic or not,
        # of either sign, is the one zero: 0 over 1
        x = Polynomial((0, 1))
        for den in (1, -3, Fraction(2, 3), 2 + 4 * x, -3 + x * x,
                    Polynomial((Fraction(1, 2), 0, -5))):
            for zero in (0, Polynomial(())):
                rf = RationalFunction(zero, den)
                assert rf == RationalFunction(0), den
                assert rf.num == Polynomial(()) and rf.den == Polynomial((1,))

    @given(st.lists(_FRACTIONS, max_size=5),
           st.lists(_FRACTIONS, min_size=1, max_size=5).filter(any),
           st.lists(_FRACTIONS, max_size=3))
    def test_canonical_form_of_any_quotient(self, num, den, common):
        # a shared factor, rational coefficients and any sign all reduce
        # away: coprime integer num/den with content 1 and a positive
        # leading denominator coefficient, equal to the quotient given
        factor = Polynomial(common) or Polynomial((1,))
        num, den = Polynomial(num), Polynomial(den)
        rf = RationalFunction(num * factor, den * factor)
        coeffs = rf.num.coeffs + rf.den.coeffs
        assert all(type(c) is int for c in coeffs)
        assert gcd(*coeffs) == 1
        assert rf.den.leading_coeff() > 0
        assert _oracles.euclid_gcd(rf.num, rf.den) == Polynomial((1,))
        assert rf.num * den == rf.den * num

    def test_field_arithmetic(self):
        x = RationalFunction(Polynomial((0, 1)))
        h = 1 / (1 - x)
        assert h - 1 == x / (1 - x)
        assert h * (1 - x) == RationalFunction(1)

    def test_fibonacci_expansion(self):
        x = Polynomial((0, 1))
        rf = RationalFunction(Polynomial((1,)), 1 - x - x * x)
        s = _oracles.to_series(rf, 10)
        assert [int(c) for c in s.coeffs] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_expansion_requires_unit_denominator(self):
        with pytest.raises(ZeroDivisionError):
            _oracles.to_series(
                RationalFunction(Polynomial((1,)), Polynomial((0, 1))), 5)

    @pytest.mark.parametrize("call,message", [
        (lambda: RationalFunction(1, 0), "zero denominator"),
        (lambda: RationalFunction(Polynomial((0, 1)), Polynomial(())),
         "zero denominator"),
        (lambda: RationalFunction(1) / RationalFunction(0),
         "division by zero rational function"),
        (lambda: RationalFunction(1) / 0,
         "division by zero rational function"),
        (lambda: 1 / RationalFunction(0),
         "division by zero rational function"),
    ], ids=["int_den", "poly_den", "by_zero", "by_int_zero", "reciprocal"])
    def test_zero_denominators_are_rejected(self, call, message):
        with pytest.raises(ZeroDivisionError, match=f"^{message}$"):
            call()


class TestValueSemantics:
    def test_equal_only_within_one_type(self):
        # equal values must hash equally, and these hash differently
        assert Polynomial((5,)) != 5
        assert RationalFunction(3) != 3
        assert RationalFunction(Polynomial((0, 1))) != Polynomial((0, 1))

    @given(st.lists(_FRACTIONS, max_size=4),
           st.lists(_FRACTIONS, min_size=1, max_size=3).filter(any),
           st.integers(0, 5))
    def test_only_zero_is_falsy(self, cs, den, n):
        p = Polynomial(cs)
        s = TruncatedSeries(cs, n)
        rf = RationalFunction(p, Polynomial(den))
        assert bool(p) == (p != Polynomial(()))
        assert bool(s) == (s != TruncatedSeries((), n))
        assert bool(rf) == (rf != RationalFunction(0))
        assert not Polynomial(()) and not TruncatedSeries((), n) \
            and not RationalFunction(0)

    @pytest.mark.parametrize("left,op,right", [
        (Polynomial((1, 2)), add, TruncatedSeries((1,), 3)),
        (Polynomial((1, 2)), sub, "x"),
        ("x", sub, Polynomial((1, 2))),
        (Polynomial((1, 2)), mul, None),
        (Polynomial((1, 2)), divmod, "x"),
        (Polynomial((1, 2)), divmod, 0.5),
        (TruncatedSeries((1,), 3), add, "x"),
        (TruncatedSeries((1,), 3), sub, None),
        (TruncatedSeries((1,), 3), mul, "x"),
        (TruncatedSeries((1,), 3), truediv, "x"),
        (RationalFunction(1), add, "x"),
        (RationalFunction(1), sub, None),
        (None, sub, RationalFunction(1)),
        (RationalFunction(1), mul, TruncatedSeries((1,), 3)),
        (RationalFunction(1), truediv, None),
        (None, truediv, RationalFunction(1)),
        (Polynomial((1, 2)), Polynomial.gcd, "x"),
        (Polynomial((1, 2)), Polynomial.gcd, 0.5),
    ])
    def test_mixed_types_are_a_type_error(self, left, op, right):
        # each kernel operation declines an operand it does not take,
        # so that Python tries the other side and then raises
        with pytest.raises(TypeError):
            op(left, right)


@pytest.mark.parametrize("left,right", [
    (Polynomial((1, 2)), TruncatedSeries((1,), 3)),
    (Polynomial((1, 2)), "x"),
    (TruncatedSeries((1,), 3), RationalFunction(1)),
    (TruncatedSeries((1,), 3), None),
    (RationalFunction(1), "x"),
], ids=["polynomial-series", "polynomial-str", "series-ratfun",
        "series-None", "ratfun-str"])
def test_mixed_subtraction_is_a_type_error_both_ways(left, right):
    # each reflected subtraction coerces its operand before it subtracts,
    # so two types that decline each other do not hand the subtraction
    # back and forth until the recursion limit
    for a, b in ((left, right), (right, left)):
        with pytest.raises(TypeError, match="unsupported operand"):
            a - b


# Every value the kernel meets that is not an int goes through a branch
# that imports ``fractions`` itself.  Run from a fresh interpreter
# without ``site`` (so nothing preloads ``fractions``), these give the
# values they give in process, and the inexact ones still raise.
RATIONAL_PATHS = """
s, p = TruncatedSeries((2, 1, 3), 5), Polynomial((-2, 0, 2))
quotient = divmod(Polynomial((1, 2, 3)), Polynomial((2, 4)))
q = quotient[0]  # 1/8 + 3/4 x: primitive() clears a real denominator
values = [s.invert(), quotient, q.gcd(q * Polynomial((1, 1)))]
from fractions import Fraction
values += [s + Fraction(1, 2), p * Fraction(2, 3)]
from decimal import Decimal
for call in (lambda: exact_coefficient(0.5),
             lambda: exact_coefficient(Decimal(1)),
             lambda: exact_coefficient("1"), lambda: s * "x"):
    try:
        values.append(call())
    except TypeError:
        values.append("TypeError")
"""


def test_rational_paths_import_fractions_themselves():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys\nsys.path.insert(0, {str(src)!r})\n"
            "from convexenum.exact.coefficients import exact_coefficient\n"
            "from convexenum.exact.polynomial import Polynomial\n"
            "from convexenum.exact.series import TruncatedSeries\n"
            "assert 'fractions' not in sys.modules\n"
            + RATIONAL_PATHS + "print(repr(values))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    here = {"Polynomial": Polynomial, "TruncatedSeries": TruncatedSeries,
            "exact_coefficient": exact_coefficient}
    exec(RATIONAL_PATHS, here)
    values = here["values"]
    assert out == repr(values) + "\n"
    assert values[0].coeffs[0] == Fraction(1, 2) \
        and values[1][0].coeffs == (Fraction(1, 8), Fraction(3, 4))
    assert values[2] == Polynomial((1, 6)) \
        and [type(c) for c in values[2].coeffs] == [int, int]
    assert values[-4:] == ["TypeError"] * 4


class TestFromSequence:
    FIBONACCI = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_fibonacci(self):
        x = Polynomial((0, 1))
        expected = RationalFunction(Polynomial((1,)), 1 - x - x * x)
        assert RationalFunction.from_sequence(self.FIBONACCI[:4], 2) == expected
        assert RationalFunction.from_sequence(self.FIBONACCI, 2) == expected
        assert RationalFunction.from_sequence(self.FIBONACCI, 3) == expected

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            RationalFunction.from_sequence(self.FIBONACCI[:3], 2)

    def test_extra_term_breaking_the_recurrence(self):
        with pytest.raises(ArithmeticError):
            RationalFunction.from_sequence(self.FIBONACCI[:-1] + [56], 2)

    def test_complexity_above_the_bound(self):
        # x^3 has linear complexity 4; no extra terms are given
        with pytest.raises(ArithmeticError):
            RationalFunction.from_sequence([0, 0, 0, 1], 2)

    @pytest.mark.parametrize("term", [0.1, "1/3", Decimal("0.1"), True],
                             ids=["float", "str", "Decimal", "bool"])
    def test_inexact_terms_are_a_type_error(self, term):
        # as in every other kernel entry point: no term is parsed or
        # rounded into a Fraction
        with pytest.raises(TypeError, match="^inexact coefficient "):
            RationalFunction.from_sequence([term] * 4, 2)

    @given(st.lists(st.integers(-5, 5), max_size=6),
           st.integers(-5, 5).filter(bool),
           st.lists(st.integers(-5, 5), max_size=6))
    def test_series_roundtrip(self, num, d0, den_tail):
        rf = RationalFunction(Polynomial(num), Polynomial([d0] + den_tail))
        bound = max(rf.den.degree, rf.num.degree + 1)
        terms = _oracles.to_series(rf, 2 * bound + 2).coeffs
        assert RationalFunction.from_sequence(terms, bound) == rf


    @settings(max_examples=300)
    @given(st.lists(st.integers(-4, 4), max_size=4),
           st.integers(-4, 4).filter(bool),
           st.lists(st.integers(-4, 4), max_size=4),
           st.integers(-4, 4).filter(bool),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_planted_common_factor_is_never_divided(self, num, d0, den_tail,
                                                    g0, g_tail):
        # Berlekamp-Massey finds the shortest recurrence, so the N/D it
        # builds is already reduced: from the expansion of P g / (Q g),
        # with a bound that fits P g / (Q g), it returns P / Q and never
        # divides by a common factor
        p, q = Polynomial(num), Polynomial([d0] + den_tail)
        g = Polynomial([g0] + g_tail)
        expected = RationalFunction(p, q)  # this may divide
        bound = max((q * g).degree, (p * g).degree + 1)
        terms = (TruncatedSeries((p * g).coeffs, 2 * bound + 2)
                 / TruncatedSeries((q * g).coeffs, 2 * bound + 2)).coeffs
        divided = []
        divide = Polynomial.__divmod__

        def spy(a, b):
            divided.append((a, b))
            return divide(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Polynomial, "__divmod__", spy)
            found = RationalFunction.from_sequence(terms, bound)
        assert found == expected
        assert divided == []

    @pytest.mark.parametrize("k,side", list(product((1, 2), ("lower", "upper"))))
    def test_gf_bound_terms_match_rational_oracle(self, k, side):
        g = perms.build_digraph(k, cutoff=perms.DEFAULT_CUTOFF[k],
                                loop=side == "upper")
        n = len(g.nodes)
        terms = [1, 1] + [2 * sum(c) for c in perms.walks(g, 2 * n + 3)]
        rf = RationalFunction.from_sequence(terms, n + 2)
        assert rf == _oracles.berlekamp_massey(terms, n + 2)
        assert rf == perms.gf_bound(k, side)

    @pytest.mark.parametrize("p,k", list(product(range(1, 5), (-1, 0, 1, 2))))
    def test_word_gf_terms_match_rational_oracle(self, p, k):
        bound = p * p + 2
        wg = words.word_gf(p, k, order=2 * bound + 3, with_ratfun=True)
        terms = wg.series.coeffs
        assert RationalFunction.from_sequence(terms, bound) == wg.ratfun
        assert wg.ratfun == _oracles.berlekamp_massey(terms, bound)

    @given(st.lists(_FRACTIONS, max_size=5),
           _FRACTIONS.filter(lambda d: d not in (0, 1, -1)),
           st.lists(_FRACTIONS, max_size=5))
    def test_fraction_terms_match_rational_oracle(self, num, d0, den_tail):
        rf = RationalFunction(Polynomial(num), Polynomial([d0] + den_tail))
        bound = max(rf.den.degree, rf.num.degree + 1)
        terms = _oracles.to_series(rf, 2 * bound + 2).coeffs
        assert RationalFunction.from_sequence(terms, bound) == rf
        assert _oracles.berlekamp_massey(terms, bound) == rf

    @given(st.lists(_FRACTIONS, max_size=12),
           st.integers(0, 6))
    def test_any_sequence_matches_rational_oracle(self, terms, bound):
        # equal results, or the same exception
        assert _outcome(RationalFunction.from_sequence, terms, bound) == \
            _outcome(_oracles.berlekamp_massey, terms, bound)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


class TestLinearAlgebra:
    def test_solve_series_system(self):
        order = 10
        x = TruncatedSeries.monomial(1, order)
        one = TruncatedSeries.monomial(0, order)
        # F = 1 + x G, G = 1 + x F  =>  F = (1 + x) / (1 - x^2) = 1/(1-x)
        m = SeriesMatrix([[one, -1 * x], [-1 * x, one]])
        f, g = solve_series_system(m, [one, one])
        assert f.coeffs == (1,) * (order + 1)

    def test_series_matrix_takes_series_entries_only(self):
        x = TruncatedSeries.monomial(1, 3)
        for entry in (1, Fraction(1, 2), Polynomial((0, -1))):
            with pytest.raises(TypeError,
                               match="^entries must be TruncatedSeries$"):
                SeriesMatrix([[x, entry], [-1 * x, x]])
        with pytest.raises(ValueError, match="one truncation order"):
            SeriesMatrix([[x, TruncatedSeries.monomial(1, 4)]])

    def test_non_unit_pivot_raises(self):
        order = 4
        x = TruncatedSeries.monomial(1, order)
        with pytest.raises(NonUnitDeterminantError):
            solve_series_system(SeriesMatrix([[x]]), [x])

    def test_solve_field_system(self):
        sol = solve_field_system(
            [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
            [Fraction(5), Fraction(10)])
        assert sol == [Fraction(1), Fraction(3)]

    def test_solve_field_system_is_exact_on_integers(self):
        # Fraction(1, 2) == 0.5, so the types are checked as well
        for matrix, rhs, expected in (
                ([[2]], [1], [Fraction(1, 2)]),
                ([[2, 1], [1, 3]], [5, 10], [1, 3])):
            sol = solve_field_system(matrix, rhs)
            assert sol == expected
            assert all(isinstance(v, (int, Fraction)) for v in sol), sol

    def test_system_shape_is_checked(self):
        f = Fraction
        for matrix in ([[f(1), f(5)]], [[f(1), f(2)], [f(3)]]):
            with pytest.raises(ValueError, match="must be square"):
                solve_field_system(matrix, [f(2)] * len(matrix))
        with pytest.raises(ValueError, match="length mismatch"):
            solve_field_system([[f(1)]], [f(1), f(2)])
        one = TruncatedSeries.monomial(0, 3)
        with pytest.raises(ValueError, match="must be square"):
            solve_series_system(SeriesMatrix([[one, one]]), [one])
        with pytest.raises(ValueError, match="length mismatch"):
            solve_series_system(SeriesMatrix([[one]]), [one, one])

    @pytest.mark.parametrize("call,message", [
        (lambda one: SeriesMatrix([]), "matrix must be nonempty"),
        (lambda one: SeriesMatrix([[]]), "matrix must be nonempty"),
        (lambda one: SeriesMatrix([[one], [one, one]]), "ragged matrix"),
        (lambda one: matrix_resolvent_row([[0, 1]], 0),
         "matrix must be square"),
        (lambda one: matrix_resolvent_row([[0, 1], [1]], 0),
         "matrix must be square"),
    ], ids=["empty", "empty_row", "ragged", "wide", "ragged_resolvent"])
    def test_argument_checks(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(TruncatedSeries.monomial(0, 3))

    def test_resolvent_counts_walks(self):
        # two-cycle: walks from 0 back and forth alternate 1, 0, 1, ...
        row = matrix_resolvent_row([[0, 1], [1, 0]], 0)
        total = row[0] + row[1]
        s = _oracles.to_series(total, 6)
        assert [int(c) for c in s.coeffs] == [1] * 7  # one walk per length

    def test_resolvent_accepts_polynomial_weights(self):
        # one loop of weight x: (1 - x^2)^{-1}
        row = matrix_resolvent_row([[Polynomial((0, 1))]], 0)
        assert row == [RationalFunction(1, Polynomial((1, 0, -1)))]


@st.composite
def _root_cases(draw):
    """An integer polynomial times rational linear factors, some of them
    repeated, so roots can be exact, multiple, or at 1, the end of the
    search interval."""
    p = Polynomial(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4)))
    for _ in range(draw(st.integers(1, 3))):
        factor = Polynomial((-draw(st.integers(0, 6)), draw(st.integers(1, 6))))
        for _ in range(draw(st.integers(1, 3))):
            p = p * factor
    return p


# one polynomial per branch of the bisection: a root at 1 nudges the
# right end to 1 + 10^-precision (alone, then with roots to count); a
# midpoint that is a root returns at once when it is the smallest one,
# whether roots are still counted or only signs compared, and not when
# a smaller one lies left of it; a repeated root is stripped, or the
# sign would not change across 1/2 or 1/3; a root at 5/8; and three
# roots between opposite signs must be counted
_ROOT_BRANCHES = [
    Polynomial((-1, 1)),
    Polynomial((-1, 1)) * Polynomial((-1, 3)),
    Polynomial((-1, 2)) * Polynomial((-3, 4)),
    Polynomial((-1, 4)) * Polynomial((-1, 2)),
    Polynomial((-1, 2)),
    Polynomial((-1, 2)) * Polynomial((-1, 2)) * Polynomial((-2, 1)),
    Polynomial((-1, 3)) * Polynomial((-1, 3)) * Polynomial((-2, 1)),
    Polynomial((-5, 8)) * Polynomial((-3, 1)),
    Polynomial((-1, 5)) * Polynomial((-2, 5)) * Polynomial((-4, 5)),
]


def _examples(cases):
    """Give a property test each argument tuple as an explicit example."""
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply


class TestRoots:
    def test_golden_ratio_root(self):
        p = Polynomial((1, -1, -1))  # 1 - x - x^2, root (sqrt(5)-1)/2
        lo, hi = smallest_positive_root(p, 18)
        assert hi - lo < Fraction(1, 10**18)
        assert p(lo) * p(hi) < 0
        target = Fraction(61803398874989484820, 10**20)
        assert lo <= target <= hi or abs((lo + hi) / 2 - target) < Fraction(1, 10**18)

    def test_exact_rational_root(self):
        p = Polynomial((-1, 2))  # root 1/2
        lo, hi = smallest_positive_root(p, 15)
        assert lo <= Fraction(1, 2) <= hi

    def test_smallest_of_several(self):
        x = Polynomial((0, 1))
        p = (1 - 2 * x) * (1 - 3 * x)  # roots 1/3 < 1/2
        lo, hi = smallest_positive_root(p, 15)
        assert lo < Fraction(1, 3) + Fraction(1, 10**14)
        assert hi > Fraction(1, 3) - Fraction(1, 10**14)

    def test_no_root_raises(self):
        with pytest.raises(NoRootError):
            smallest_positive_root(Polynomial((1, 0, 1)), 10)  # 1 + x^2

    def test_root_at_origin_rejected(self):
        with pytest.raises(ValueError):
            smallest_positive_root(Polynomial((0, 1)), 10)

    @pytest.mark.parametrize("precision", [0, -3])
    def test_nonpositive_precision_rejected(self, precision):
        with pytest.raises(ValueError, match="precision must be positive"):
            smallest_positive_root(Polynomial((-1, 2)), precision)

    @_examples(product(_ROOT_BRANCHES, (1, 5, 20)))
    @settings(max_examples=200)
    @given(_root_cases(), st.integers(1, 20))
    def test_certificate_matches_rational_oracle(self, p, precision):
        try:
            expected = _oracles.smallest_positive_root(p, precision)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                smallest_positive_root(p, precision)
            assert type(raised.value) is type(exc)
            return
        lo, hi = smallest_positive_root(p, precision)
        assert (lo, hi) == expected
        assert type(lo) is Fraction and type(hi) is Fraction
        assert 0 < hi - lo < Fraction(1, 10**precision)
        sqf = _oracles.squarefree_part(p)
        assert sqf(lo) * sqf(hi) < 0
        chain = _oracles.sturm_chain(sqf)
        assert _oracles.sturm_count(chain, lo, hi) == 1
        assert _oracles.sturm_count(chain, Fraction(0), lo) == 0

    def test_decimal_value_truncates(self):
        assert decimal_value(Fraction(2, 3), 5) == "0.66666"
        assert decimal_value(Fraction(-1, 8), 2) == "-0.12"
        assert decimal_value(Fraction(5, 4), 3) == "1.250"

    def test_decimal_value_needs_a_digit(self):
        # with no places the rendering is wrong: 37/10 would read '3.0'
        # and -1/8 '-0.0'
        for x in (Fraction(37, 10), Fraction(-1, 8)):
            for digits in (0, -2):
                with pytest.raises(ValueError, match="digits must be positive"):
                    decimal_value(x, digits)

    def test_render_interval_truncates_both_endpoints(self):
        # each endpoint is cut to its own digits, not to a shared prefix
        assert render_interval(Fraction(1, 3), Fraction(2, 3), 3) == \
            "[0.333, 0.666]"
