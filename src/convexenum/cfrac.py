"""Continued-fraction and small-transfer-matrix generating functions.

The infinite ladder subgraph hanging above the start of the 1-convex
transition digraph supports closed-form walk counts: returns to the
ladder root satisfy a continued-fraction recurrence, and the total walk
count is an explicit sum over ladder levels.  Both are evaluated by the
fraction's convergents, whose numerators and denominators obey a
three-term recurrence of shifted integer subtractions, with one series
division per series (see :func:`_convergents`).  Feeding those series
into a 5x5 weighted transfer matrix reproduces the exact counting
series for 1-convex permutations.  For the 2-convex analogue the
paper's closed form is one term off (first wrong at order 13 when
rooted at 1245, see :func:`f2_formula_check`): with its q^4 summand 1
read as bot1' it is exact, one series division
(:func:`f2_exact_series`).  Its components are walk counts on the
ladder above the node 1245, from the ladder recurrence of
:func:`convexenum.perms.ladder_walks`.
"""

from __future__ import annotations

from itertools import accumulate

from convexenum import perms
from convexenum.exact import linalg
from convexenum.exact.series import TruncatedSeries


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


def _convergents(order: int):
    """(B_1, B_2, T) for the tower of :func:`ladder_tower`, in about
    1.25 order^2 integer additions, as series to ``order``.

    Set B_j = 1 for 3 + j > order and B_j = B_(j+1) - q^(3+j) B_(j+2)
    below, each a shifted subtraction.  Then H_j = B_(j+1)/B_j for every
    level j of the tower, and H_j = 1 = B_(j+1)/B_j deeper: by downward
    induction, H_j = 1/(1 - q^(3+j) B_(j+2)/B_(j+1)) = B_(j+1)/B_j.
    The tower's level j stops at depth max(1, order - 3) on a truncated
    1, and B_j = 1 there too.  Truncating at order is a ring map, so the
    identity holds in the truncated ring, and every B_j has constant
    term 1, so each quotient stays in Z[[q]].  Products telescope,
    H_1 ... H_m = B_(m+1)/B_1, so bot = H_1 = B_2/B_1, and the walk sum
    of :func:`tot_series` is tot = T/B_1 with

        T = sum over n of ramp_n B_(n+2),

    where ramp_0 = 1 and ramp_n = q^n (1 + q + ... + q^(n+1)) for
    n >= 1.  Each ramp_n is (q^n - q^end)/(1 - q) with end = n + 1 at
    n = 0 and 2n + 2 above, so (1 - q) T is two shifted additions per
    level, and T is its running sum.
    """
    b, b_up = [1] + [0] * order, [1] + [0] * order  # B_(j+1), B_(j+2)
    u = [0] * (order + 1)  # (1 - q) T
    for j in range(order + 2, 0, -1):
        b, b_up = b[:3 + j] + [x - y for x, y in zip(b[3 + j:], b_up)], b
        n = j - 2  # b is B_(n+2)
        if n >= 0:
            end = 2 * n + 2 if n else 1
            u[n:] = [x + y for x, y in zip(u[n:], b)]
            u[end:] = [x - y for x, y in zip(u[end:], b)]
    return (TruncatedSeries(b, order), TruncatedSeries(b_up, order),
            TruncatedSeries(accumulate(u), order))


def bot_series(order: int) -> TruncatedSeries:
    """Returns to the ladder root, counted by walk length: B_2/B_1 (see
    :func:`_convergents`)."""
    b1, b2, _ = _convergents(order)
    return b2 / b1


def tot_series(order: int) -> TruncatedSeries:
    """All walks from the ladder root, counted by length: T/B_1 (see
    :func:`_convergents`).  A walk is summed by the highest level n+1 it
    reaches: q^n forward steps, a partial descent of up to n+1 further
    steps, and independent excursions from each level visited.
    """
    b1, _, t = _convergents(order)
    return t / b1


def f1_series(order: int) -> TruncatedSeries:
    """Exact counting series for 1-convex permutations by length,

        1 + q - 2 q^2 (1 + q^2 bot + q tot)/(-1 + q + q^3 bot),

    with numerator and denominator multiplied by the unit B_1 of
    :func:`_convergents`, so that one series division remains.
    """
    b1, b2, t = _convergents(order)
    q = TruncatedSeries.x(order)
    q2 = TruncatedSeries.monomial(2, order)
    num = b1 + q2 * b2 + q * t
    den = q * b1 - b1 + TruncatedSeries.monomial(3, order) * b2
    return 1 + q - 2 * q2 * (num / den)


def m1_series(order: int) -> TruncatedSeries:
    """Independent reassembly via the 5x5 weighted transfer matrix.

    The ladder is collapsed into two series-weighted edges (returns, and
    walks that never come back feed a sink); the first-column sum of the
    resolvent is rescaled exactly as for the unweighted matrices.
    """
    q = TruncatedSeries.x(order)
    b1, b2, t = _convergents(order)
    inv = b1.invert()
    bot, tot = b2 * inv, t * inv
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
    col = linalg.solve_series_system(linalg.SeriesMatrix(system), rhs)
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
    separately.  The paper's closed form built on them
    (:func:`f2_formula_series`) first disagrees with the counts at order
    13 when rooted at 1245; it has one wrong term, and corrected it is
    :func:`f2_exact_series`.  The returns also have a
    closed form, a branched continued fraction H_j = 1/(1 - q^(j+2)
    H_(j+1) H_(j+2)) with bot1' = H_5 and bot2' = q H_5 H_6 (equal to
    these counts to order 150), not built here.  The tests check the
    counts against walks over the transitions with those edges dropped.

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
    rows, totals = perms.ladder_walks(2, 5, order)
    return (TruncatedSeries(totals, order),
            TruncatedSeries([row[5] for row in rows], order),
            TruncatedSeries([0, *(row[6] for row in rows[1:])], order))


def _f2_closed_form(components, s) -> TruncatedSeries:
    """1 + q - 2 q^2 num/den, to the order of the components
    (tot', bot1', bot2'), with

        num = 1 + q + q^2 + q^3 (1 + tot') + q^4 (s + bot2'),
        den = -1 + q + q^2 + q^4 - q^7 bot2' + (q^5 - q^6)(bot1' + bot2').

    den has constant term -1, so this is one series division.
    """
    totp, bot1, bot2 = components
    order = totp.order
    q = TruncatedSeries.x(order)

    def p(exp):  # q^exp
        return TruncatedSeries.monomial(exp, order)

    num = 1 + q + p(2) + p(3) * (1 + totp) + p(4) * (s + bot2)
    den = (-1 + q + p(2) + p(4) - p(7) * bot2
           + (p(5) - p(6)) * (bot1 + bot2))
    return 1 + q - 2 * p(2) * (num / den)


def f2_formula_series(components, root: str = "1234") -> TruncatedSeries:
    """Evaluate the reference closed form for f_2 from the components
    (tot', bot1', bot2') that :func:`k2_components` returns, to their
    order: :func:`_f2_closed_form` with s = 1.

    The closed form is stated in prose that leaves the walk root of the
    component series ambiguous; both rootings, "1234" and "1245", are
    supported so the check below can report on each.  Neither is exact
    (first mismatches at orders 7 and 13); at root 1245 the one wrong
    term is the q^4 summand 1, which :func:`f2_exact_series` reads as
    bot1'.
    """
    if root not in ("1234", "1245"):
        raise ValueError("root must be '1234' or '1245'")
    if root == "1234":  # one L step first; see k2_components
        totp, bot1, bot2 = components
        q = TruncatedSeries.x(totp.order)
        components = 1 + q * totp, q * bot1, q * bot2
    return _f2_closed_form(components, 1)


def f2_exact_series(components) -> TruncatedSeries:
    """Exact f_2 series, to their order, from the components
    (tot', bot1', bot2') that :func:`k2_components` returns: the
    reference closed form at root 1245 with its q^4 summand 1 read as
    bot1', that is :func:`_f2_closed_form` with s = bot1'.

    Proof.  Let F_v count the walks from the node v of the 2-convex
    digraph by length, the empty walk included, so that
    f_2 = 1 + q + 2 q^2 F_12.  By the return-path lemma of
    :func:`convexenum.perms.build_digraph`, 12 steps to 1223 (L) and
    1332 (R); 1332 to 1223 (L) and itself (R); 1223 to 1234 (L) and
    1332 (R); 1234 to 1245 (L), where the upper subgraph of
    :func:`k2_components` starts, and to 1532 (R), which steps to 1332.
    A walk from 1245 that reaches 1245 or 1256 may take its R edge and
    follow the return path, of 3 steps to 1223 or of 4 steps to 1234;
    every other step keeps it in the subgraph.  A walk from 1234 that
    enters the subgraph so ends inside it, with weight
    w = tot' + (q + q^2) bot1' + (q + q^2 + q^3) bot2' (stopping on a
    return path included), or goes on from 1223 or 1234:

        F_12   = 1 + q F_1223 + q F_1332,
        F_1332 = 1 + q F_1223 + q F_1332,
        F_1223 = 1 + q F_1234 + q F_1332,
        F_1234 = 1 + q w + q^4 bot1' F_1223 + q^5 bot2' F_1234 + q F_1532,
        F_1532 = 1 + q F_1332.

    The first two give F_12 = F_1332 = A with (1 - q) A = 1 + q F_1223,
    then the third gives q^2 F_1234 = (1 - q - q^2) A - (1 + q), and the
    last F_1532 = 1 + q A.  Put these into q^2 times the fourth.  Of the
    terms free of A, -q^5 bot1' and -(q^5 + q^6) bot2' cancel the terms
    of q^3 w in bot1' and bot2' down to q^4 (bot1' + bot2'), so

        A ((1 - q - q^2)(1 - q^5 bot2') - (q^5 - q^6) bot1' - q^4) = num

    with s = bot1'.  The factor of A is -den, so F_12 = -num/den.
    """
    return _f2_closed_form(components, components[1])


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
    exact = [1] + perms.perm_counts(2, order)
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
