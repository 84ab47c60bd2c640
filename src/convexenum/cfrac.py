"""Continued-fraction and small-transfer-matrix generating functions.

The infinite ladder subgraph hanging above the start of the 1-convex
transition digraph supports closed-form walk counts: returns to the
ladder root satisfy a continued-fraction recurrence, and the total walk
count is an explicit sum over ladder levels.  Feeding those series into
a 5x5 weighted transfer matrix reproduces the exact counting series for
1-convex permutations.  The 2-convex analogue has no closed form; its
components are computed by dynamic programming on the explicitly built
subgraph.
"""

from __future__ import annotations

from convexenum.exact.linalg import SeriesMatrix, solve_series_system
from convexenum.exact.series import TruncatedSeries
from convexenum.perms import build_digraph, perm_counts, state_key, walks


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


# ---------------------------------------------------------------------------
# Walk oracles on the explicitly built ladder subgraphs
# ---------------------------------------------------------------------------

def _subgraph_walks(k: int, root, order: int, drop, ends):
    """Walk counts of lengths 0..order from ``root`` with the ``drop``
    out-edges removed: the totals, and for each key in ``ends`` the walks
    ending there (all zero for a node not reached within ``order`` steps).
    """
    g = build_digraph(k, depth=order, root=root, drop=drop)
    vectors = list(walks(g, order))
    index = {key: i for i, key in enumerate(g.nodes)}
    ending = [[c[index[key]] if key in index else 0 for c in vectors]
              for key in ends]
    return [sum(c) for c in vectors], ending


def ladder_walk_oracle(order: int):
    """Exact (tot, bot) coefficient vectors from the built k=1 subgraph.

    The subgraph is everything reachable from the 1223 node once its
    right (downward) edge is removed; this is the structure the
    continued fractions describe, so it is an independent check on them.
    """
    root = state_key((1, 2, 2, 3), 1)  # the 1223 node
    totals, (returns,) = _subgraph_walks(1, root, order, {(root, "R")}, [root])
    return totals, returns


def k2_components(order: int):
    """(tot', bot1', bot2') for the 2-convex upper subgraph, walked from
    the 1245 node.

    The subgraph hangs above the 1234 node of the 2-convex digraph;
    returns from the 1245 and 1256 nodes leave it, so their downward
    edges are suppressed and walks ending on those nodes are tracked
    separately.  There is no closed form; the construction itself is the
    oracle.

    Rooted at 1234 instead, the triple is (1 + q tot', q bot1',
    q bot2').  In the ladder notation of :func:`build_digraph` (k = 2),
    1234, 1245 and 1256 are L_4, L_5 and L_6.  With their R edges
    dropped, L_4 has one out-edge, L, to L_5.  No edge re-enters L_4:
    ladder L edges climb, every kept R edge lies on the return path of
    some L_j with j >= 7, and that path rejoins the ladder at
    L_(j-2) >= L_5.  So a walk from 1234 is the empty walk, or an L step
    followed by a walk from 1245.
    """
    n1234 = state_key((1, 2, 3, 4), 2)
    n1245 = state_key((1, 2, 4, 5), 2)
    n1256 = state_key((1, 2, 5, 6), 2)
    drop = {(n1234, "R"), (n1245, "R"), (n1256, "R")}
    totals, (bot1, bot2) = _subgraph_walks(2, n1245, order, drop,
                                           (n1245, n1256))
    return (TruncatedSeries(totals, order), TruncatedSeries(bot1, order),
            TruncatedSeries(bot2, order))


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
