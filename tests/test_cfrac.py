"""Tests for the continued-fraction series and the 2-convex formula check."""

import pytest

import _oracles
from _goldens import DEEP_F, K2_COMPONENTS_200, TABLE_F1, TABLE_F2
from convexenum import cfrac
from convexenum.cfrac import (
    bot_series,
    f1_series,
    f2_exact_series,
    f2_formula_check,
    f2_formula_series,
    k2_components,
    ladder_tower,
    tot_series,
)
from convexenum.exact.series import TruncatedSeries
from convexenum.perms import count_perms_digraph, perm_counts, state_key

# the 2-convex upper subgraph as first built: walked from 1245 with the
# downward (R) edges of 1234, 1245 and 1256 left out
N1234, N1245, N1256 = (state_key(t, 2) for t in (
    (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6)))
K2_DROP = {(N1234, "R"), (N1245, "R"), (N1256, "R")}


class TestLadderSeries:
    def test_bot_and_tot_match_walk_oracle(self):
        order = 20
        totals, returns = _oracles.ladder_walk_oracle(order)
        bot = bot_series(order)
        tot = tot_series(order)
        assert [int(bot[n]) for n in range(order + 1)] == returns
        assert [int(tot[n]) for n in range(order + 1)] == totals

    def test_order_independence(self):
        # coefficients may not depend on the truncation order
        for series in (bot_series, tot_series, f1_series,
                       _oracles.m1_series):
            small = series(18)
            large = series(36)
            assert large.truncate(18) == small

    def test_convergents_equal_tower_evaluation(self):
        # the ladder walks, and the transfer-matrix resolvent over the
        # convergents, against inverting every level of the tower and
        # multiplying the levels out
        for order in [*range(41), 150]:
            bot, tot = _oracles.tower_bot_tot(order)
            f1 = _oracles.tower_f1(order)
            assert bot_series(order) == bot, order
            assert tot_series(order) == tot, order
            assert f1_series(order) == f1, order
            assert _oracles.m1_series(order) == f1, order

    def test_bot_is_the_first_tower_level(self):
        # H_1 = bot_3, through public names
        for order in range(61):
            assert bot_series(order) == ladder_tower(order)[0], order

    def test_deep_series_match_convergents(self):
        # two engines: the ladder recurrence from L_3, the 1223 node,
        # whose walks never go below it, and the continued fraction
        # evaluated by its convergents
        for order in [*range(41), 150, 400]:
            b1, b2, t = _oracles.convergents(order)
            assert bot_series(order) == b2 / b1, order
            assert tot_series(order) == t / b1, order

    def test_negative_order_is_a_value_error(self):
        # one message from every entry point: the series check the order
        # in the one ladder reader, and the report reads its components
        # before the counts
        for fn in (ladder_tower, bot_series, tot_series, f1_series,
                   k2_components, f2_formula_check):
            with pytest.raises(ValueError,
                               match="^order must be nonnegative$"):
                fn(-1)

    def test_order_is_required(self):
        for fn in (ladder_tower, bot_series, tot_series, f1_series,
                   k2_components, f2_formula_check):
            with pytest.raises(TypeError):
                fn()

    def test_tower_levels_are_unit_series(self):
        for j, level in enumerate(ladder_tower(20), start=1):
            assert level[0] == 1
            # level j first deviates from 1 at its edge weight 3 + j
            for n in range(1, min(3 + j, 21)):
                assert level[n] == 0, (j, n)


class TestOneConvexSeries:
    def test_matches_reference_table(self):
        f1 = f1_series(12)
        assert int(f1[0]) == 1
        assert [int(f1[n]) for n in range(1, 13)] == TABLE_F1

    def test_two_derivations_agree(self):
        assert f1_series(30) == _oracles.m1_series(30)

    def test_matches_digraph_counts(self):
        f1 = f1_series(20)
        for n in range(1, 21):
            assert int(f1[n]) == count_perms_digraph(1, n), n
        f1 = f1_series(40)
        assert [int(f1[n]) for n in range(1, 41)] == perm_counts(1, 40)
        f2 = f2_exact_series(k2_components(40))
        assert [int(f2[n]) for n in range(1, 41)] == perm_counts(2, 40)

    def test_tower_matches_ladder_counts_deep(self):
        # the closed form over the walks from L_3 against the walks from
        # the start node, and against the recorded count
        f1 = f1_series(400)
        assert list(f1.coeffs) == [1] + perm_counts(1, 400)
        assert f1[250] == DEEP_F[1, 250]


class TestTwoConvexComponents:
    def test_root_conventions(self):
        # walks from 1245: its own empty walk is a return to it
        tot, bot1, bot2 = k2_components(10)
        assert (tot[0], bot1[0], bot2[0]) == (1, 1, 0)
        with pytest.raises(ValueError, match="root must be"):
            f2_formula_series((tot, bot1, bot2), root="9999")

    def test_small_orders(self):
        # a tracked node not reached within the order has a zero series
        deep = k2_components(10)
        for order in range(4):
            assert k2_components(order) == tuple(
                s.truncate(order) for s in deep), order
        # both rootings of the closed form stay exact at tiny orders
        for root in ("1234", "1245"):
            deep = f2_formula_series(k2_components(10), root=root)
            for order in range(4):
                assert f2_formula_series(k2_components(order), root=root) \
                    == deep.truncate(order), (root, order)

    def test_matches_subgraph_walk_oracle(self):
        # the ladder recurrence at root 5 against walks over the
        # transitions with the suppressed edges dropped
        totals, ending = _oracles.subgraph_walks(
            2, N1245, 60, K2_DROP, (N1245, N1256))
        for order in range(61):
            assert [list(s.coeffs) for s in k2_components(order)] == \
                [c[:order + 1] for c in (totals, *ending)], order

    def test_1234_rooting_matches_direct_walk(self):
        # the rooting f2_formula_series derives for 1234, (1 + q tot,
        # q bot1, q bot2), against walks from 1234 itself
        totals, ending = _oracles.subgraph_walks(
            2, N1234, 60, K2_DROP, (N1245, N1256))
        for order in range(61):
            q = TruncatedSeries.x(order)
            tot, bot1, bot2 = k2_components(order)
            derived = (TruncatedSeries.one(order) + q * tot, q * bot1, q * bot2)
            assert [list(s.coeffs) for s in derived] == \
                [c[:order + 1] for c in (totals, *ending)], order

    def test_deep_components_match_golden(self):
        # recorded from the BFS of the subgraph and the walk DP over it
        components = k2_components(200)
        assert tuple(s[200] for s in components) == K2_COMPONENTS_200
        f2 = f2_exact_series(components)
        assert list(f2.coeffs) == [1] + perm_counts(2, 200)

    def test_negative_order_is_a_value_error(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            k2_components(-1)

    def test_closed_form_equals_the_series_elimination(self):
        # the one division against Gauss-Jordan elimination of the 5-node
        # system it is derived from, and against the ladder counts
        for order in [*range(41), 200]:
            components = k2_components(order)
            assert f2_exact_series(components) == \
                _oracles.f2_by_elimination(components), order
        f2 = f2_exact_series(k2_components(250))
        assert list(f2.coeffs) == [1] + perm_counts(2, 250)

    def test_derived_closed_form_is_exact(self):
        f2 = f2_exact_series(k2_components(20))
        assert int(f2[0]) == 1
        for n in range(1, 21):
            assert int(f2[n]) == count_perms_digraph(2, n), n

    def test_formula_evaluations_differ_from_exact(self):
        # the reference closed form is checked, not assumed; both rootings
        # eventually disagree with the exact counts
        exact = [1] + [count_perms_digraph(2, n) for n in range(1, 21)]
        components = k2_components(20)
        for root in ("1234", "1245"):
            series = f2_formula_series(components, root=root)
            assert any(int(series[n]) != exact[n] for n in range(21)), root


class TestFormulaReport:
    def test_report_shape_and_oracle_side(self):
        # the six results cfrac f2check prints, in its order
        report = f2_formula_check(20)
        assert list(report) == [
            "exact", "root_1234_formula", "root_1234_first_mismatch",
            "root_1245_formula", "root_1245_first_mismatch",
            "derived_closed_form_agrees"]
        exact = report["exact"]
        assert exact[:13] == [1] + TABLE_F2
        assert report["derived_closed_form_agrees"] is True
        components = k2_components(20)
        for root in ("1234", "1245"):
            formula = report[f"root_{root}_formula"]
            assert len(formula) == 21
            assert formula == list(
                f2_formula_series(components, root=root).coeffs)
            # the first n where the formula differs from the counts
            mismatch = report[f"root_{root}_first_mismatch"]
            assert formula[:mismatch] == exact[:mismatch]
            assert mismatch is None or formula[mismatch] != exact[mismatch]

    def test_recorded_mismatch_points(self):
        report = f2_formula_check(16)
        assert report["root_1234_first_mismatch"] == 7
        assert report["root_1245_first_mismatch"] == 13
        # the one wrong term: tot' enters only the numerator, as
        # q^3 (1 + tot'), so adding q (bot1' - 1) to it reads the q^4
        # summand 1 as bot1', and then the formula is exact to order 250
        exact = [1] + perm_counts(2, 250)
        tot, bot1, bot2 = k2_components(250)
        q = TruncatedSeries.x(250)
        for tot_in, first in ((tot, 13), (tot + q * (bot1 - 1), None)):
            series = f2_formula_series((tot_in, bot1, bot2), root="1245")
            assert next((n for n in range(251) if series[n] != exact[n]),
                        None) == first

    def test_components_are_built_once(self, monkeypatch):
        # both formula rootings and the derived closed form read one
        # triple of components
        calls = []

        def counted(order):
            calls.append(order)
            return k2_components(order)

        monkeypatch.setattr(cfrac, "k2_components", counted)
        report = f2_formula_check(12)
        assert calls == [12]
        assert report["exact"][1:] == TABLE_F2
        assert report["derived_closed_form_agrees"] is True
