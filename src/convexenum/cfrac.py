"""Continued-fraction and closed-form generating functions of the
k-convex permutations, for k in {1, 2}.

Above the start of the transition digraph hangs an infinite ladder.
For k = 1 the paper writes the returns to its root L_3, the node 1223,
as a continued fraction (:func:`ladder_tower` gives its levels), and
the counting series as a closed form over those returns and all walks
from the root.  Both series are walk counts on the ladder, from the
ladder recurrence of :func:`convexenum.ladder.ladder_walks` at root 3
(see :func:`_ladder_series`), and the closed form is one series division
(:func:`f1_series`).  For the 2-convex analogue the paper's closed form
is one term off (first wrong at order 13 when rooted at 1245, see
:func:`f2_formula_check`): with its q^4 summand 1 read as bot1' it is
exact, one series division (:func:`f2_exact_series`).  Its components
are walk counts on the ladder above the node 1245, from the same
recurrence at root 5.
"""

from __future__ import annotations

from convexenum import ladder, perms
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


def _ladder_series(k: int, root: int, order: int):
    """(all, at_root, above) to ``order``: the walks from the ladder node
    L_root of the k-convex digraph that never go below it, by length,
    and those of them that end at L_root and at L_(root+1);
    :func:`convexenum.ladder.ladder_walks`, read once.  Every ladder
    series of this module reads it, and it is where they check their
    order.

    At (k, root) = (1, 3), the 1223 node of the 1-convex digraph, this
    is (tot, bot, _), and bot is H_1 of :func:`ladder_tower`.  Let bot_r
    count the walks from L_r (r >= 3) that never go below it and end at
    L_r.  Split such a walk at its visits to L_r.  L_r's own R edge
    lands below it, so each piece between two visits takes the L edge to
    L_(r+1), a walk from L_(r+1) that ends there and never goes below
    it, and the R edge of L_(r+1), whose return path of r steps is the
    only way back down to L_r.  So

        bot_r = 1 / (1 - q^(r+1) bot_(r+1)),

    the recurrence of the tower with H_j = bot_(j+2).  A nonempty return
    to L_r has at least r + 1 steps, so bot_(j+2) = 1 + O(q^(3+j)), like
    H_j.  Both are 1 to this order one level below the tower's deepest,
    and truncation is a ring map, so by downward induction
    H_j = bot_(j+2) to this order at every level: bot = bot_3 = H_1.

    At (2, 5) it is :func:`k2_components`.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    rows, totals = ladder.ladder_walks(k, root, order)
    return (TruncatedSeries(totals, order),
            TruncatedSeries([row[root] for row in rows], order),
            TruncatedSeries([0, *(row[root + 1] for row in rows[1:])], order))


def bot_series(order: int) -> TruncatedSeries:
    """Returns to the ladder root, counted by walk length: the first
    level of the continued fraction (see :func:`_ladder_series`)."""
    return _ladder_series(1, 3, order)[1]


def tot_series(order: int) -> TruncatedSeries:
    """All walks from the ladder root, counted by length (see
    :func:`_ladder_series`)."""
    return _ladder_series(1, 3, order)[0]


def f1_series(order: int) -> TruncatedSeries:
    """Exact counting series for 1-convex permutations by length,

        1 + q - 2 q^2 (1 + q^2 bot + q tot)/(-1 + q + q^3 bot),

    over the walk counts bot and tot of :func:`_ladder_series`, in one series
    division.

    Proof.  Let F_v count the walks from the node v of the 1-convex
    digraph by length, the empty walk included, so that
    f_1 = 1 + q + 2 q^2 F_12.  By the return-path lemma of
    :func:`convexenum.perms.build_digraph`, 12 and 1332 both step to
    1223 (L) and 1332 (R), so F_12 = F_1332 = A with
    (1 - q) A = 1 + q F_1223.  A walk from 1223 that never takes the R
    edge of 1223 stays at or above it (tot).  Any other takes that edge
    first after a walk counted by bot, and its return path of 2 steps
    ends at 1332: the walk stops inside it (q) or goes on from 1332
    (q^2 A).  So F_1223 = tot + bot (q + q^2 A), and

        A (1 - q - q^3 bot) = 1 + q^2 bot + q tot.

    1 - q - q^3 bot has constant term 1, and f_1 = 1 + q + 2 q^2 A.
    """
    tot, bot, _ = _ladder_series(1, 3, order)
    q = TruncatedSeries.x(order)
    q2 = TruncatedSeries.monomial(2, order)
    num = 1 + q2 * bot + q * tot
    den = -1 + q + TruncatedSeries.monomial(3, order) * bot
    return 1 + q - 2 * q2 * (num / den)


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
    is the ladder walks at root 5 (:func:`_ladder_series`).  That root cuts
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
    return _ladder_series(2, 5, order)


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
    """Differential report: the reference f_2 closed form vs exact counts,
    as the six results ``cfrac f2check`` prints, in that order.

    ``exact`` is f_2(0..order), from the walk-count pipeline, which is
    ground truth; the formula side is verified, never assumed.  For each
    walk rooting of the component series, 1234 and 1245,
    ``root_<root>_formula`` is the formula's coefficients to ``order``
    and ``root_<root>_first_mismatch`` the least n where it differs from
    ``exact``, or None.  ``derived_closed_form_agrees`` says whether
    :func:`f2_exact_series` equals ``exact``.  The q^0 boundary is
    included (both sides use f_2(0) = 1 for the empty permutation).
    """
    components = k2_components(order)
    exact = [1] + perms.perm_counts(2, order)
    report = {"exact": exact}
    for root in ("1234", "1245"):
        formula = list(f2_formula_series(components, root=root).coeffs)
        report[f"root_{root}_formula"] = formula
        report[f"root_{root}_first_mismatch"] = next(
            (n for n, f in enumerate(formula) if f != exact[n]), None)
    report["derived_closed_form_agrees"] = \
        list(f2_exact_series(components).coeffs) == exact
    return report
