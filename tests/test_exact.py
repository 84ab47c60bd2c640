"""Unit tests for the exact-arithmetic core."""

from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul, sub, truediv

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _oracles
from _fresh import fresh
from convexenum import cfrac, perms, words
from convexenum.exact.linalg import (
    NonUnitDeterminantError,
    SeriesMatrix,
    matrix_resolvent_row,
    solve_field_system,
    solve_series_system,
)
from convexenum.exact.coefficients import convolve, exact_coefficient
from convexenum.exact.polynomial import Polynomial, pseudo_divide
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.roots import (
    NoRootError,
    decimal_value,
    render_interval,
    root_interval,
    smallest_positive_root,
)
from convexenum.exact.series import TruncatedSeries

# small rationals, cheaper to draw than st.fractions
_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
_INTS = st.integers(-12, 12)


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

    @example([3, -2, 0, 1, 5], [1, 1, 2])
    @example([0, 0, 1], [0, 3])  # no remainder, but the quotient x/3
    @example([1, 1], [-2, -2])  # lc(b)^e < 0
    @given(st.lists(st.integers(-6, 6), max_size=6),
           st.lists(st.integers(-3, 3), max_size=4).filter(any))
    def test_pseudo_division_matches_euclid(self, a, b):
        # lc(b)^e a = q b + r with e = max(deg a - deg b + 1, 0): q and r
        # are lc(b)^e times Euclid's quotient and remainder over Q, in
        # integers; the loop reads the coefficients of kernel values
        a, b = Polynomial(a).coeffs, Polynomial(b).coeffs
        quot, rem = pseudo_divide(a, b)
        scale = b[-1] ** len(quot)
        q, r = _oracles.q_divmod(a, b)
        assert len(quot) == max(len(a) - len(b) + 1, 0)
        assert _oracles.q_poly(quot) == _oracles.q_mul(q, [scale])
        assert _oracles.q_poly(rem) == _oracles.q_mul(r, [scale])
        assert all(type(c) is int for c in quot + rem)

    def test_gcd_is_primitive_common_divisor(self):
        a = Polynomial((1, 0, -1))  # (1 - x)(1 + x)
        b = Polynomial((2, -1, -1))  # (1 - x)(2 + x)
        g = a.gcd(b)
        assert g == Polynomial((-1, 1))
        assert gcd(*g.coeffs) == 1 and g.coeffs[-1] > 0
        assert not _oracles.q_divmod(a.coeffs, g.coeffs)[1]
        assert not _oracles.q_divmod(b.coeffs, g.coeffs)[1]
        g = Polynomial((2, 4)).gcd(Polynomial((1, 2)))
        assert g == Polynomial((1, 2))
        assert all(type(c) is int for c in g.coeffs)

    @given(*[st.lists(_INTS, max_size=4)] * 3)
    def test_gcd_matches_euclid_over_the_rationals(self, f, g, h):
        a, b = _oracles.z_mul(f, h), _oracles.z_mul(g, h)
        for x, y in ((a, b), (b, a)):
            monic = _oracles.euclid_gcd(x.coeffs, y.coeffs)
            assert (x.gcd(y).coeffs,) == _oracles.canonical_integers(monic)

    @given(st.lists(st.integers(-9, 9), max_size=7),
           st.lists(st.integers(-9, 9), max_size=7).filter(any))
    @example([0, 1], [0, 0, 0, -1])  # deg a < deg b - 1 and lc(b) < 0
    def test_remainder_sequence(self, a, b):
        a, b = Polynomial(a), Polynomial(b)
        seq = a.remainder_sequence(b)
        assert seq[:2] == [a, b]
        for i in range(2, len(seq)):
            # a positive multiple of -(a mod b), Euclid's remainder over Q
            rem = _oracles.q_divmod(seq[i - 2].coeffs, seq[i - 1].coeffs)[1]
            (prim,) = _oracles.canonical_integers(rem)
            assert seq[i].coeffs == tuple(c if rem[-1] < 0 else -c
                                          for c in prim)
        assert not _oracles.q_divmod(seq[-2].coeffs, seq[-1].coeffs)[1]
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

    @given(st.lists(_INTS, max_size=6))
    def test_primitive_part(self, a):
        a = Polynomial(a)
        prim = a.primitive()
        if a:
            assert gcd(*prim.coeffs) == 1
            assert _oracles.q_mul(prim.coeffs, [a.coeffs[-1]]) \
                == _oracles.q_mul(a.coeffs, [prim.coeffs[-1]])
            assert prim.coeffs[-1] > 0
        else:
            assert prim == Polynomial(())

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
        ((-2, 0, 0, 3), "-2 + 3*x^3"),
        ((0, 0, -12), "-12*x^2"),
        ((0, 3, -1), "3*x - x^2"),
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

    def test_floats_rejected(self):
        # 0.1 would otherwise be kept as its binary value, the string
        # "12" read as the coefficients 1 and 2, and a Decimal parsed; a
        # Fraction, integral or not, has no place in Z[x] or Z[[x]]
        for value in (0.1, "12", Decimal("0.5"), Fraction(1, 2), Fraction(3)):
            with pytest.raises(TypeError):
                exact_coefficient(value)
            coeffs = value if isinstance(value, str) else [value]
            with pytest.raises(TypeError):
                Polynomial(coeffs)
            with pytest.raises(TypeError):
                TruncatedSeries(coeffs, 2)

    def test_division_by_zero_is_rejected(self):
        for zero in ((), []):
            with pytest.raises(ZeroDivisionError,
                               match="^division by zero polynomial$"):
                pseudo_divide((1, 2), zero)


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
        for c in (3, -1):
            assert a + c == c + a == TruncatedSeries((1 + c, 1), 10)
            assert a - c == 0 - (c - a) == TruncatedSeries((1 - c, 1), 10)
            assert a * c == c * a == TruncatedSeries((c, c), 10)
            assert (a * c) / c == a

    def test_immutability(self):
        s = TruncatedSeries.monomial(0, 3)
        with pytest.raises(AttributeError):
            s.order = 5

    def test_integral_fractions_are_rejected(self):
        # Fraction(3) is not read as 3: a series holds ints only, and
        # spellings of one series differ only in padding past the order
        for coeffs in ((Fraction(3), 1), (3, Fraction(1, 2))):
            with pytest.raises(TypeError, match="is not an int$"):
                TruncatedSeries(coeffs, 1)
        a = TruncatedSeries((3,), 1)
        b = TruncatedSeries((3, 0, 7), 1)
        assert a == b and hash(a) == hash(b) and a.coeffs == (3, 0)
        assert type(a.coeffs[0]) is int

    def test_counting_series_stay_int(self):
        for s in (cfrac.f1_series(80), cfrac.tot_series(60),
                  cfrac.f2_exact_series(cfrac.k2_components(40)),
                  words.word_gf(3, 0).series):
            assert all(type(c) is int for c in s.coeffs)

    def test_non_unit_inverse_stays_exact(self):
        # 1/(2 - x) = 1/2 + x/4 + ... leaves Z[[x]] at once, and
        # (2 + 2x + x^2)/2 at x^2; a quotient in Z[[x]] goes through
        with pytest.raises(ArithmeticError,
                           match=r"^quotient leaves Z\[\[x\]\] at x\^0$"):
            TruncatedSeries((2, -1), 8).invert()
        with pytest.raises(ArithmeticError, match=r" at x\^2$"):
            TruncatedSeries((2, 2, 1), 8) / 2
        assert TruncatedSeries((4, -2), 8) / TruncatedSeries((2, -1), 8) \
            == TruncatedSeries((2,), 8)

    @given(st.sampled_from([1, -1]),
           st.lists(st.integers(-9, 9), max_size=12),
           st.integers(0, 15),
           st.lists(st.integers(-9, 9), max_size=16))
    def test_unit_inverse_roundtrip(self, c0, tail, n, numerator):
        s = TruncatedSeries([c0] + tail, n)
        assert s * s.invert() == TruncatedSeries.monomial(0, n)
        # any integer series over a unit stays in Z[[x]]
        a = TruncatedSeries(numerator, n)
        assert (a / s) * s == a

    @example((4, [1], [2, -1]))  # 1/(2 - x) = 1/2 + x/4 + ...
    @example((3, [4, 0, -1], [2, 1]))  # (4 - x^2)/(2 + x) = 2 - x
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-6, 6), max_size=n + 1),
        st.lists(st.integers(-3, 3), min_size=1, max_size=n + 1)
        .filter(lambda b: b[0]))))
    def test_division_is_exact_or_raises(self, case):
        # the quotient is returned exactly when the quotient over Q, from
        # the oracle's geometric series, has integer coefficients
        n, a, b = case
        quot = _oracles.series_quotient(a, b, n)
        a, b = TruncatedSeries(a, n), TruncatedSeries(b, n)
        assert (a * b) / b == a
        if all(c.denominator == 1 for c in quot):
            q = a / b
            assert q * b == a and list(q.coeffs) == quot
        else:
            with pytest.raises(ArithmeticError, match="^quotient leaves "):
                a / b

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(_INTS, max_size=n + 3)] * 3)))
    def test_ring_laws(self, case):
        n, *cs = case
        _assert_ring_laws(*(TruncatedSeries(c, n) for c in cs),
                          TruncatedSeries((), n),
                          TruncatedSeries.monomial(0, n))


class TestRationalFunction:
    def test_canonical_form(self):
        # integer content cleared, positive lead: 3(1 - x) over
        # -6(1 + x) is (x - 1)/(2 + 2x)
        rf = RationalFunction(Polynomial((3, -3)), Polynomial((-6, -6)))
        assert rf.num == Polynomial((-1, 1))
        assert rf.den == Polynomial((2, 2))
        # a zero numerator over any nonzero constant, of either sign, is
        # the one zero: 0 over 1
        for den in (1, -3, 6):
            for zero in (0, Polynomial(())):
                rf = RationalFunction(zero, den)
                assert rf == RationalFunction(0), den
                assert rf.num == Polynomial(()) and rf.den == Polynomial((1,))

    def test_zero_over_a_polynomial_is_the_one_zero(self):
        # gcd(0, den) is den, so no nonconstant den is coprime to zero:
        # a zero numerator over 1 + x, over 3x or over 2 - x^2 is 0 over 1
        for den in ((1, 1), (0, 3), (2, 0, -1), (-5, 0, 0, 7)):
            for zero in (0, Polynomial(())):
                rf = RationalFunction(zero, Polynomial(den))
                assert rf == RationalFunction(0), den
                assert rf.num == Polynomial(()) and rf.den == Polynomial((1,))
        # and a zero denominator is still rejected, over zero as well
        for num in (0, 1, Polynomial((0, 1))):
            with pytest.raises(ZeroDivisionError, match="zero denominator"):
                RationalFunction(num, Polynomial(()))

    @given(st.lists(_INTS, max_size=5),
           st.lists(_INTS, min_size=1, max_size=5).filter(any),
           st.integers(-6, 6).filter(bool))
    def test_canonical_form_of_any_quotient(self, num, den, scale):
        # the constructor takes a coprime pair, of any content and sign,
        # and fixes only those two, with no polynomial gcd or division:
        # coprime integer num/den with content 1 and a positive leading
        # denominator coefficient, equal to the quotient given
        assume(_oracles.euclid_gcd(num, den) == [1])
        num = Polynomial([c * scale for c in num])
        den = Polynomial([c * scale for c in den])
        called = []

        def spy(name):
            method = getattr(Polynomial, name)

            def call(*args):
                called.append(name)
                return method(*args)
            return call

        with pytest.MonkeyPatch.context() as patch:
            for name in ("gcd", "remainder_sequence"):
                patch.setattr(Polynomial, name, spy(name))
            rf = RationalFunction(num, den)
        assert called == []
        assert gcd(*rf.num.coeffs, *rf.den.coeffs) == 1
        assert rf.den.coeffs[-1] > 0
        assert _oracles.euclid_gcd(rf.num.coeffs, rf.den.coeffs) == [1]
        assert _oracles.q_mul(rf.num.coeffs, den.coeffs) \
            == _oracles.q_mul(rf.den.coeffs, num.coeffs)

    def test_fibonacci_expansion(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1, -1)))
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
    ], ids=["int_den", "poly_den"])
    def test_zero_denominators_are_rejected(self, call, message):
        with pytest.raises(ZeroDivisionError, match=f"^{message}$"):
            call()


class TestValueSemantics:
    def test_equal_only_within_one_type(self):
        # equal values must hash equally, and these hash differently
        assert Polynomial((5,)) != 5
        assert RationalFunction(3) != 3
        assert RationalFunction(Polynomial((0, 1))) != Polynomial((0, 1))

    @given(st.lists(_INTS, max_size=4),
           st.lists(_INTS, min_size=1, max_size=3).filter(any),
           st.integers(0, 5))
    def test_only_zero_is_falsy(self, cs, den, n):
        # a RationalFunction has no truth value of its own: it is zero
        # exactly when its numerator is
        p = Polynomial(cs)
        s = TruncatedSeries(cs, n)
        rf = _oracles.reduced(cs, den)
        assert bool(p) == (p != Polynomial(()))
        assert bool(s) == (s != TruncatedSeries((), n))
        assert bool(rf.num) == (rf != RationalFunction(0))
        assert not Polynomial(()) and not TruncatedSeries((), n) \
            and not RationalFunction(0).num

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
        (Polynomial((1, 2)), truediv, "x"),
        (Polynomial((1, 2)), truediv, 0.5),
        (Polynomial((1, 2)), add, Fraction(1, 2)),
        (TruncatedSeries((1,), 3), mul, Fraction(1, 2)),
    ])
    def test_mixed_types_are_a_type_error(self, left, op, right):
        # each series operation declines an operand it does not take,
        # so that Python tries the other side and then raises; a
        # RationalFunction and a Polynomial have no operator to try
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


# The kernel computes in Z[x] and Z[[x]], so no path of its arithmetic
# imports ``fractions``: run from a fresh interpreter without ``site``
# (so nothing preloads it), exact quotients, a gcd, the rejected
# operands and the quotients that leave the ring give what they give in
# process, and ``fractions`` is not imported.  (-2 + 2x^2)(1 + 3x) is
# spelled out, as ``Polynomial`` has no product.
INTEGER_PATHS = """
s, p = TruncatedSeries((1, 1, 3), 5), Polynomial((-2, 0, 2))
values = [s.invert(), Polynomial(pseudo_divide(p.coeffs, (1, 1))[0]),
          p.gcd(Polynomial((-2, -6, 2, 6)))]
from decimal import Decimal
for call in (lambda: exact_coefficient(0.5),
             lambda: exact_coefficient(Decimal(1)),
             lambda: exact_coefficient("1"), lambda: s * "x",
             lambda: s / 2, lambda: s / TruncatedSeries((3, 1), 5)):
    try:
        values.append(call())
    except (TypeError, ArithmeticError) as exc:
        values.append(type(exc).__name__)
"""


def test_integer_paths_never_import_fractions():
    code = ("from convexenum.exact.coefficients import exact_coefficient\n"
            "from convexenum.exact.polynomial import Polynomial, "
            "pseudo_divide\n"
            "from convexenum.exact.series import TruncatedSeries\n"
            + INTEGER_PATHS + "assert 'fractions' not in sys.modules\n"
            "print(repr(values))")
    out = fresh(code)
    here = {"Polynomial": Polynomial, "TruncatedSeries": TruncatedSeries,
            "exact_coefficient": exact_coefficient,
            "pseudo_divide": pseudo_divide}
    exec(INTEGER_PATHS, here)
    values = here["values"]
    assert out == repr(values) + "\n"
    assert values[:3] == [TruncatedSeries((1, -1, -2, 5, 1, -16), 5),
                          Polynomial((-2, 2)), Polynomial((-1, 0, 1))]
    assert values[3:] == ["TypeError"] * 4 + ["ArithmeticError"] * 2


class TestFromSequence:
    FIBONACCI = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_fibonacci(self):
        expected = RationalFunction(Polynomial((1,)), Polynomial((1, -1, -1)))
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

    @pytest.mark.parametrize("term", [0.1, "1/3", Decimal("0.1"), True,
                                      Fraction(1, 3)],
                             ids=["float", "str", "Decimal", "bool",
                                  "Fraction"])
    def test_inexact_terms_are_a_type_error(self, term):
        # as in every other kernel entry point: every term is an int, and
        # none is parsed or rounded
        with pytest.raises(TypeError, match="^coefficient .* is not an int$"):
            RationalFunction.from_sequence([term] * 4, 2)

    @given(st.lists(st.integers(-5, 5), max_size=6),
           st.sampled_from([1, -1]),  # so the expansion is in Z[[x]]
           st.lists(st.integers(-5, 5), max_size=6))
    def test_series_roundtrip(self, num, d0, den_tail):
        rf = _oracles.reduced(num, [d0] + den_tail)
        bound = max(rf.den.degree, rf.num.degree + 1)
        terms = _oracles.to_series(rf, 2 * bound + 2).coeffs
        assert RationalFunction.from_sequence(terms, bound) == rf


    @settings(max_examples=300)
    @given(st.lists(st.integers(-4, 4), max_size=4),
           st.sampled_from([1, -1]),
           st.lists(st.integers(-4, 4), max_size=4),
           st.sampled_from([1, -1]),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_planted_common_factor_is_never_divided(self, num, d0, den_tail,
                                                    g0, g_tail):
        # Berlekamp-Massey finds the shortest recurrence, so the N/D it
        # builds is already reduced: from the expansion of P g / (Q g),
        # with a bound that fits P g / (Q g), it returns P / Q and never
        # reduces by a common factor (the constant terms are units, so
        # the expansion is in Z[[x]])
        q, g = [d0] + den_tail, [g0] + g_tail
        pg, qg = _oracles.z_mul(num, g), _oracles.z_mul(q, g)
        expected = _oracles.reduced(num, q)
        bound = max(qg.degree, pg.degree + 1)
        terms = (TruncatedSeries(pg.coeffs, 2 * bound + 2)
                 / TruncatedSeries(qg.coeffs, 2 * bound + 2)).coeffs
        reduced = []
        gcd_of = Polynomial.gcd

        def spy(a, b):
            reduced.append((a, b))
            return gcd_of(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Polynomial, "gcd", spy)
            found = RationalFunction.from_sequence(terms, bound)
        assert found == expected
        assert reduced == []
        assert _oracles.euclid_gcd(found.num.coeffs, found.den.coeffs) == [1]

    @pytest.mark.parametrize("k,side", list(product((1, 2), ("lower", "upper"))))
    def test_gf_bound_terms_match_rational_oracle(self, k, side):
        g = perms.build_digraph(k, cutoff=perms.DEFAULT_CUTOFF[k],
                                loop=side == "upper")
        n = len(g.nodes)
        terms = [1, 1] + [2 * w for w in perms.walks(g, 2 * n + 3)]
        rf = RationalFunction.from_sequence(terms, n + 2)
        assert _pair(rf) == _oracles.berlekamp_massey(terms, n + 2)
        assert rf == perms.gf_bound(k, side)

    @pytest.mark.parametrize("p,k", list(product(range(1, 5), (-1, 0, 1, 2))))
    def test_word_gf_terms_match_rational_oracle(self, p, k):
        bound = p * p + 2
        wg = words.word_gf(p, k, order=2 * bound + 3, with_ratfun=True)
        terms = wg.series.coeffs
        assert RationalFunction.from_sequence(terms, bound) == wg.ratfun
        assert _pair(wg.ratfun) == _oracles.berlekamp_massey(terms, bound)

    @given(st.lists(_INTS, max_size=12),
           st.integers(0, 6))
    def test_any_sequence_matches_rational_oracle(self, terms, bound):
        # equal results, or the same exception
        assert _outcome(RationalFunction.from_sequence, terms, bound) == \
            _outcome(_oracles.berlekamp_massey, terms, bound)


def _pair(rf):
    """A ``RationalFunction`` as the integer pair of the oracles'
    ``canonical_integers``."""
    return rf.num.coeffs, rf.den.coeffs


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return _pair(result) if isinstance(result, RationalFunction) else result


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
        # Fraction(1, 2) == 0.5 and Fraction(1) == 1, so the types are
        # checked as well: an integral value is an int
        for matrix, rhs, expected, types in (
                ([[2]], [1], [Fraction(1, 2)], [Fraction]),
                ([[2, 1], [1, 3]], [5, 10], [1, 3], [int, int])):
            sol = solve_field_system(matrix, rhs)
            assert sol == expected
            assert [type(v) for v in sol] == types, sol

    @example(([[2, 1], [1, 3]], [5, 10]))
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3) | _FRACTIONS,
                          min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(-9, 9) | _FRACTIONS, min_size=n, max_size=n))))
    def test_field_solution_is_exact(self, system):
        # an integral value is an int, even from Fraction entries
        matrix, rhs = system
        if _oracles.determinant(matrix) == 0:
            with pytest.raises(NonUnitDeterminantError):
                solve_field_system(matrix, rhs)
            return
        sol = solve_field_system(matrix, rhs)
        assert [sum(a * v for a, v in zip(row, sol)) for row in matrix] == rhs
        assert all(type(v) is (int if v.denominator == 1 else Fraction)
                   for v in sol), sol

    @given(st.integers(1, 4), st.integers(0, 5), st.data())
    def test_series_solution_satisfies_the_system(self, n, order, data):
        def series():
            return TruncatedSeries(data.draw(st.lists(
                st.integers(-2, 2), max_size=order + 1)), order)

        m = [[series() for _ in range(n)] for _ in range(n)]
        rhs = [series() for _ in range(n)]
        constant = [[e.coeffs[0] for e in row] for row in m]
        if _oracles.determinant(constant) == 0:
            with pytest.raises(NonUnitDeterminantError):
                solve_series_system(SeriesMatrix(m), rhs)
            return
        # Cramer's rule over Q: each unknown is det(M_i) / det(M), a
        # quotient of the oracle's; the solve gives it when every one is
        # in Z[[x]], and raises otherwise
        det = _oracles.determinant(m).coeffs
        cramer = [_oracles.series_quotient(_oracles.determinant(
            [row[:i] + [b] + row[i + 1:] for row, b in zip(m, rhs)]).coeffs,
            det, order) for i in range(n)]
        if any(c.denominator != 1 for x in cramer for c in x):
            with pytest.raises(ArithmeticError):
                solve_series_system(SeriesMatrix(m), rhs)
            return
        f = solve_series_system(SeriesMatrix(m), rhs)
        assert [list(x.coeffs) for x in f] == cramer
        zero = TruncatedSeries((), order)
        assert [sum((a * v for a, v in zip(row, f)), zero)
                for row in m] == rhs

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.data())
    def test_resolvent_entries_count_walks(self, m, data):
        n, order = len(m), 8
        row = data.draw(st.integers(0, n - 1))
        entries = matrix_resolvent_row(m, row)
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        walks = [[] for _ in range(n)]  # walks[j][t] = (M^t)[row][j]
        for _ in range(order + 1):
            for j in range(n):
                walks[j].append(power[row][j])
            power = [[sum(p * q for p, q in zip(r, col)) for col in zip(*m)]
                     for r in power]
        for entry, counts in zip(entries, walks):
            assert list(_oracles.to_series(entry, order).coeffs) == counts
            # Berlekamp-Massey's pair is reduced, so every entry is the
            # coprime pair the constructor takes
            assert _oracles.euclid_gcd(entry.num.coeffs,
                                       entry.den.coeffs) == [1]

    @settings(max_examples=60)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1) | st.integers(-3, 3)
                 | st.lists(st.integers(-2, 2), max_size=3).map(Polynomial),
                 min_size=n, max_size=n), min_size=n, max_size=n)),
        st.data())
    def test_resolvent_row_inverts_the_system(self, m, data):
        # r (I - xM) = e_row in Q(x), by cross-multiplying in the oracle
        # ring: an identity of every coefficient, where the walk counts
        # check only those that Berlekamp-Massey read
        n = len(m)
        row = data.draw(st.integers(0, n - 1))
        r = matrix_resolvent_row(m, row)

        def entry(i, j):  # the entry (i, j) of I - xM in Q[x]
            w = m[i][j]
            w = w.coeffs if isinstance(w, Polynomial) else (w,)
            return _oracles.q_add([int(i == j)], _oracles.q_mul([0, -1], w))

        for k in range(n):
            column = _oracles.rf_sum(_oracles.reduced(_oracles.q_mul(
                r[j].num.coeffs, entry(j, k)), r[j].den.coeffs)
                for j in range(n))
            assert column == RationalFunction(int(k == row)), k

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
        (lambda one: matrix_resolvent_row([[0]], 5),
         "row 5 is not an index of the 1x1 matrix"),
        (lambda one: matrix_resolvent_row([[0, 1], [1, 0]], -1),
         "row -1 is not an index of the 2x2 matrix"),
    ], ids=["empty", "empty_row", "ragged", "wide", "ragged_resolvent",
            "row_past_the_end", "negative_row"])
    def test_argument_checks(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(TruncatedSeries.monomial(0, 3))

    def test_resolvent_counts_walks(self):
        # two-cycle: walks from 0 back and forth alternate 1, 0, 1, ...
        row = matrix_resolvent_row([[0, 1], [1, 0]], 0)
        s = _oracles.to_series(_oracles.rf_sum(row), 6)
        assert [int(c) for c in s.coeffs] == [1] * 7  # one walk per length
        assert matrix_resolvent_row([], 0) == []  # no vertex, no entry

    def test_resolvent_accepts_polynomial_weights(self):
        # one loop of weight x: (1 - x^2)^{-1}
        row = matrix_resolvent_row([[Polynomial((0, 1))]], 0)
        assert row == [RationalFunction(1, Polynomial((1, 0, -1)))]

@st.composite
def _root_cases(draw):
    """An integer polynomial times rational linear factors, some of them
    repeated, so roots can be exact, multiple, or at 1, the end of the
    search interval."""
    factors = [draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))]
    for _ in range(draw(st.integers(1, 3))):
        factor = (-draw(st.integers(0, 6)), draw(st.integers(1, 6)))
        factors += [factor] * draw(st.integers(1, 3))
    return _oracles.z_mul(*factors)


# one polynomial per branch of the bisection: a root at 1 nudges the
# right end to 1 + 10^-precision (alone, then with roots to count); a
# midpoint that is a root returns at once when it is the smallest one,
# whether roots are still counted or only signs compared, and not when
# a smaller one lies left of it; a repeated root is stripped, or the
# sign would not change across 1/2 or 1/3; a root at 5/8; and three
# roots between opposite signs must be counted
_ROOT_BRANCHES = [_oracles.z_mul(*factors) for factors in [
    [(-1, 1)],
    [(-1, 1), (-1, 3)],
    [(-1, 2), (-3, 4)],
    [(-1, 4), (-1, 2)],
    [(-1, 2)],
    [(-1, 2), (-1, 2), (-2, 1)],
    [(-1, 3), (-1, 3), (-2, 1)],
    [(-5, 8), (-3, 1)],
    [(-1, 5), (-2, 5), (-4, 5)],
]]


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
        p = Polynomial((1, -5, 6))  # (1 - 2x)(1 - 3x), roots 1/3 < 1/2
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
        # the integer interval and its Fraction adapter both give the
        # oracle's interval, or raise what the oracle raises
        try:
            expected = _oracles.smallest_positive_root(p.coeffs, precision)
        except ValueError as exc:
            for isolate in (root_interval, smallest_positive_root):
                with pytest.raises(ValueError) as raised:
                    isolate(p, precision)
                assert type(raised.value) is type(exc)
            return
        ends = root_interval(p, precision)
        assert all(type(end) is int for end in ends) and ends[2] > 0
        assert (Fraction(ends[0], ends[2]), Fraction(ends[1], ends[2])) \
            == expected
        lo, hi = smallest_positive_root(p, precision)
        assert (lo, hi) == expected
        assert type(lo) is Fraction and type(hi) is Fraction
        assert 0 < hi - lo < Fraction(1, 10**precision)
        sqf = _oracles.squarefree_part(p.coeffs)
        assert _oracles.evaluate(sqf, lo) * _oracles.evaluate(sqf, hi) < 0
        chain = _oracles.sturm_chain(sqf)
        assert _oracles.sturm_count(chain, lo, hi) == 1
        assert _oracles.sturm_count(chain, Fraction(0), lo) == 0

    def test_decimal_value_truncates(self):
        # num/den, from a numerator and a denominator
        assert decimal_value(2, 3, 5) == "0.66666"
        assert decimal_value(-1, 8, 2) == "-0.12"
        assert decimal_value(5, 4, 3) == "1.250"

    def test_decimal_value_needs_a_digit(self):
        # with no places the rendering is wrong: 37/10 would read '3.0'
        # and -1/8 '-0.0'
        for num, den in ((37, 10), (-1, 8)):
            for digits in (0, -2):
                with pytest.raises(ValueError, match="digits must be positive"):
                    decimal_value(num, den, digits)

    def test_render_interval_truncates_both_endpoints(self):
        # each endpoint is cut to its own digits, not to a shared prefix:
        # [1/3, 2/3], as numerators over the one denominator 3
        assert render_interval(1, 2, 3, 3) == "[0.333, 0.666]"
