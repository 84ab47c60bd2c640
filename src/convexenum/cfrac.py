"""Continued-fraction and small-transfer-matrix generating functions.

The infinite ladder subgraph hanging above the start of the 1-convex
transition digraph supports closed-form walk counts: returns to the
ladder root satisfy a continued-fraction recurrence, and the total walk
count is an explicit sum over ladder levels.  Feeding those series into
a 5x5 weighted transfer matrix reproduces the exact counting series for
1-convex permutations.  The 2-convex analogue has no closed form; its
components are walk counts on the ladder above the node 1245, from the
ladder recurrence of :func:`convexenum.perms.ladder_walks`.
"""

from __future__ import annotations

from convexenum.exact.linalg import SeriesMatrix, solve_series_system
from convexenum.exact.series import TruncatedSeries
from convexenum.perms import ladder_walks, perm_counts


def ladder_tower(order: int) -> tuple[TruncatedSeries, ...]:
    """The levels H_1..H_depth of the return recurrence
    H_j = 1 / (1 - q^(3+j) H_{j+1}), solved bottom-up from a truncated 1.

    H_j = 1 + O(q^(3+j)), so every level with 3 + j > order is exactly 1
    to this order, in any product: the tower stops at depth
    max(1, order - 3), whose level stands on a truncated 1.
    """
    h_next = TruncatedSeries.one(order)
    levels: list[TruncatedSeries] = []
    for j in range(max(1, order - 3), 0, -1):
        weight = TruncatedSeries.monomial(3 + j, order)
        h_next = (TruncatedSeries.one(order) - weight * h_next).invert()
        levels.append(h_next)
    return tuple(reversed(levels))


def bot_series(order: int) -> TruncatedSeries:
    """Returns to the ladder root, counted by walk length."""
    return ladder_tower(order)[0]


def tot_series(order: int) -> TruncatedSeries:
    """All walks from the ladder root, counted by length."""
    return _tot_from_tower(ladder_tower(order))


def _tot_from_tower(tower: tuple[TruncatedSeries, ...]) -> TruncatedSeries:
    """Sum over the highest level n+1 reached: q^n forward steps, a
    partial descent of up to n+1 further steps, and independent
    excursions from each level visited.
    """
    order = tower[0].order
    one = TruncatedSeries.one(order)
    total = TruncatedSeries.zero(order)
    prod = one
    for n in range(order + 1):
        if n < len(tower):
            prod = prod * tower[n]
        # else: deeper levels are 1 to this order
        ramp_len = 1 if n == 0 else n + 2  # q^n (1 + q + ... + q^(n+1))
        ramp = TruncatedSeries([0] * n + [1] * ramp_len, order)
        total = total + ramp * prod
    return total


def f1_series(order: int) -> TruncatedSeries:
    """Exact counting series for 1-convex permutations by length."""
    q = TruncatedSeries.x(order)
    q2 = TruncatedSeries.monomial(2, order)
    q3 = TruncatedSeries.monomial(3, order)
    tower = ladder_tower(order)
    bot = tower[0]
    tot = _tot_from_tower(tower)
    one = TruncatedSeries.one(order)
    num = one + q2 * bot + q * tot
    den = -one + q + q3 * bot
    return one + q - 2 * q2 * (num / den)


def m1_series(order: int) -> TruncatedSeries:
    """Independent reassembly via the 5x5 weighted transfer matrix.

    The ladder is collapsed into two series-weighted edges (returns, and
    walks that never come back feed a sink); the first-column sum of the
    resolvent is rescaled exactly as for the unweighted matrices.
    """
    q = TruncatedSeries.x(order)
    tower = ladder_tower(order)
    bot = tower[0]
    tot = _tot_from_tower(tower)
    zero = TruncatedSeries.zero(order)
    one = TruncatedSeries.one(order)
    m = [
        [zero, zero, zero, zero, zero],
        [one, one, zero, zero, one],
        [tot - bot, tot - bot, zero, zero, zero],
        [bot, bot, zero, zero, zero],
        [zero, zero, zero, one, zero],
    ]
    n = len(m)
    system = [
        [(one if i == j else zero) - q * m[i][j] for j in range(n)]
        for i in range(n)
    ]
    rhs = [one if i == 0 else zero for i in range(n)]
    col = solve_series_system(SeriesMatrix(system), rhs)
    total = zero
    for entry in col:
        total = total + entry
    return one + q + 2 * (q * q * total)


def k2_components(order: int):
    """(tot', bot1', bot2') for the 2-convex upper subgraph, walked from
    the 1245 node.

    The subgraph hangs above the 1234 node of the 2-convex digraph;
    returns from the 1245 and 1256 nodes leave it, so their downward
    edges are suppressed and walks ending on those nodes are tracked
    separately.  There is no closed form; the tests check the counts
    against walks over the transitions with those edges dropped.

    In the ladder notation of :func:`convexenum.perms.build_digraph`
    (k = 2), 1234, 1245 and 1256 are L_4, L_5 and L_6, and the subgraph
    is :func:`convexenum.perms.ladder_walks` at root 5.  That root cuts
    the R edges that land below L_5.  L_j's lands at L_max(2, j-2), by
    the return-path lemma in :func:`convexenum.perms.build_digraph`'s
    docstring, so these are the R edges of L_2 .. L_6.  The
    suppressed edges are those of L_4, L_5 and L_6.  Both sets keep the
    R edge of every L_j with j >= 7, which lands at L_(j-2) >= L_5, and
    L edges climb, so from L_5 neither subgraph reaches L_2 .. L_4.  On
    the nodes it reaches the two cut the same edges, those of L_5 and
    L_6, and so they have the same walks from 1245: tot' is the totals,
    and bot1' and bot2' are the walks that end at L_5 and L_6.

    Rooted at 1234 instead, the triple is (1 + q tot', q bot1',
    q bot2').  With its R edge dropped, L_4 has one out-edge, L, to
    L_5, and no edge re-enters L_4.  So a walk from 1234 is the empty
    walk, or an L step followed by a walk from 1245.
    """
    rows, totals = ladder_walks(2, 5, order)
    return (TruncatedSeries(totals, order),
            TruncatedSeries([row[5] for row in rows], order),
            TruncatedSeries([0, *(row[6] for row in rows[1:])], order))


def f2_formula_series(components, root: str = "1234") -> TruncatedSeries:
    """Evaluate the reference closed form for f_2 from the components
    (tot', bot1', bot2') that :func:`k2_components` returns, to their
    order.

    The closed form is stated in prose that leaves the walk root of the
    component series ambiguous; both rootings, "1234" and "1245", are
    supported so the check below can report on each.
    """
    if root not in ("1234", "1245"):
        raise ValueError("root must be '1234' or '1245'")
    totp, bot1, bot2 = components
    order = totp.order
    q = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    if root == "1234":  # one L step first; see k2_components
        totp, bot1, bot2 = one + q * totp, q * bot1, q * bot2

    def p(exp):  # q^exp
        return TruncatedSeries.monomial(exp, order)

    num = (one + q + p(2) + p(4) * (one + bot2) + p(3) * (one + totp))
    den = (-one + q + p(2) + p(4) - p(7) * bot2
           + p(5) * (bot1 + bot2) - p(6) * (bot1 + bot2))
    return one + q - 2 * p(2) * (num / den)


def f2_exact_series(components) -> TruncatedSeries:
    """Exact f_2 series, to their order, from the components
    (tot', bot1', bot2') that :func:`k2_components` returns (derived
    closed form).

    The lower part of the 2-convex digraph is a fixed 5-node system; the
    upper subgraph enters through the node 1234, whose episode weight
    collects the component series: walks that stay inside (including
    partial descents along the two suppressed exit paths) terminate,
    walks ending on 1245 re-enter at 1223 after 3 more steps, and walks
    ending on 1256 re-enter at 1234 after 4 more steps.
    """
    totp, bot1, bot2 = components
    order = totp.order
    q = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)

    def p(exp):
        return TruncatedSeries.monomial(exp, order)

    # Unknowns: walks from 12, 1223, 1332, 1234, 1532.
    inside = totp + bot1 * (q + p(2)) + bot2 * (q + p(2) + p(3))
    zero = TruncatedSeries.zero(order)
    m = [
        [one, -q, -q, zero, zero],
        [zero, one, -q, -q, zero],
        [zero, -q, one - q, zero, zero],
        [zero, -p(4) * bot1, zero, one - p(5) * bot2, -q],
        [zero, zero, -q, zero, one],
    ]
    rhs = [one, one, one, one + q * inside, one]
    sol = solve_series_system(SeriesMatrix(m), rhs)
    return one + q + 2 * p(2) * sol[0]


def f2_formula_check(order: int) -> dict:
    """Differential report: the reference f_2 closed form vs exact counts.

    The walk-count pipeline is ground truth; the formula side is
    verified, never assumed.  The formula is evaluated under both walk
    rootings of its component series; each gets per-coefficient
    agreement flags and a first-disagreement index.  The q^0 boundary is
    included (both sides use f_2(0) = 1 for the empty permutation).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    exact = [1] + perm_counts(2, order)
    components = k2_components(order)
    report = {"order": order, "exact": exact, "evaluations": {}}
    for root in ("1234", "1245"):
        formula = f2_formula_series(components, root=root)
        per_coeff = []
        first_mismatch = None
        for n in range(order + 1):
            agree = formula[n] == exact[n]
            if not agree and first_mismatch is None:
                first_mismatch = n
            per_coeff.append({"n": n, "formula": str(formula[n]),
                              "exact": exact[n], "agree": agree})
        report["evaluations"][f"root_{root}"] = {
            "coefficients": per_coeff,
            "first_mismatch": first_mismatch,
            "agrees": first_mismatch is None,
        }
    derived = f2_exact_series(components)
    report["derived_closed_form_agrees"] = all(
        derived[n] == exact[n] for n in range(order + 1))
    report["agrees"] = any(ev["agrees"]
                           for ev in report["evaluations"].values())
    return report
