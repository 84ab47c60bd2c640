"""Oracles for closed forms and integer algorithms of the library.

These are the textbook algorithms over ``Fraction``: Euclid's gcd, a
Sturm chain of Euclidean remainders with Horner sign tests, and
Berlekamp–Massey with rational connection polynomials.  The library
computes the same results in integer arithmetic; the tests compare the
two.  The permutation layer of the paper lives here, since no command
runs it: :class:`Permutation`, the convexity test
:func:`is_convex_perm`, and :func:`descend`, the left and right
descendants whose step rule ``perms.build_digraph`` restates on node
keys.  So do two builders of goldens: :func:`from_terms`, a polynomial
from its {exponent: coefficient} terms, and :func:`to_series`, the
expansion of a rational function.  The convexity test of words,
:func:`is_convex_word`, is the definition that the shared search is
checked against; the library's ``decode_word`` reads 0-convexity from
the differences that give its parts.  The endpoint-tuple theory of the
digraph's classes is here as well: :func:`endpoint_state` reads a
permutation's (first, second, second-to-last, last) entries,
:func:`realizable` decides by a proved closed form whether a tuple
ends some k-convex permutation (the tests
check it against every endpoint state of the permutations up to length
12 and a value-order DP), :func:`_least_concrete` fills a class key's
starred entries and keeps the fill only when it is realizable, and
:func:`canonicalize_state` maps a tuple to the least tuple of its class
(the tests check that permutations with one canonical state share their
descendant profiles).  The least realizable tuple of a merged digraph
class is also found by trying every filling in order
(:func:`least_concrete`), and the node that carries the loop of a
truncated digraph by following the cutoff's return path; the library
gives both by closed forms, the labels filled from the node key alone.
:func:`is_slow_riser` and :func:`mountain_from_coloring` are two paper
objects that only the tests use.  The digraph itself comes from a BFS over
the transitions of each node key, which finds every node by hashing
its key; the library enumerates the nodes by the return-path lemma.
The counts of k-convex permutations come from that BFS digraph and
the walk DP over all its nodes, and the walks on a ladder subgraph
from following the transitions with an explicit set of edges dropped;
the library counts walks on the ladder alone, by a recurrence that
rests on the return-path lemma.  The k = 1 ladder series come from the
continued fraction twice: by inverting every level of its tower and
multiplying the levels out, in O(order^3), and by its convergents, a
three-term recurrence of shifted integer subtractions with one series
division; the 1-convex counting series also comes from the resolvent of
a 5x5 series-weighted transfer matrix.  The library reads all of them
from the same ladder recurrence, and divides one closed form.
The exact 2-convex series comes from eliminating the 5-node system of
walks below the upper subgraph as a series matrix; the library divides
the closed form that elimination gives.
"""

from fractions import Fraction
from itertools import accumulate

from convexenum.cfrac import ladder_tower
from convexenum.exact.linalg import SeriesMatrix, solve_series_system
from convexenum.exact.polynomial import Polynomial
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.roots import NoRootError
from convexenum.exact.series import TruncatedSeries
from convexenum.frozen import Frozen
from convexenum.perms import START_KEY, DescendantDigraph, state_key, walks
from convexenum.words import Word


class Permutation(Frozen):
    """A bijection on [1, n] in one-line notation."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"{entries} is not a permutation of [1, {n}]")
        super().__init__(entries)


def is_convex_perm(perm: Permutation, k: int) -> bool:
    a = perm.entries
    return all(a[i - 1] + a[i + 1] - 2 * a[i] <= k for i in range(1, len(a) - 1))


def is_convex_word(w: Word, k: int) -> bool:
    a = w.letters
    return all(a[i - 1] + a[i + 1] - 2 * a[i] <= k for i in range(1, len(a) - 1))


def descend(perm: Permutation, direction: str, k: int) -> Permutation | None:
    """Left/right descendant if it stays k-convex, else None.

    L prepends 1 after shifting every entry up; R appends 1 likewise.
    Validity only depends on the relevant end pair, so a permutation
    of length 0 or 1 has both descendants.
    """
    e = perm.entries
    if direction == "L":
        if len(e) > 1 and e[1] - 2 * e[0] > k:
            return None
        return Permutation((1,) + tuple(x + 1 for x in e))
    if direction == "R":
        if len(e) > 1 and e[-2] - 2 * e[-1] > k:
            return None
        return Permutation(tuple(x + 1 for x in e) + (1,))
    raise ValueError("direction must be 'L' or 'R'")


def from_terms(terms: dict) -> Polynomial:
    """The polynomial of {exponent: coefficient}; exponents are
    nonnegative."""
    if any(e < 0 for e in terms):
        raise ValueError("negative exponent")
    cs = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        cs[e] = c
    return Polynomial(cs)


def to_series(rf: RationalFunction, order: int) -> TruncatedSeries:
    """Power-series expansion of ``rf`` to ``order``; its denominator
    must be a unit at 0."""
    return (TruncatedSeries(rf.num.coeffs, order)
            / TruncatedSeries(rf.den.coeffs, order))


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid's algorithm over the rationals."""
    while b:
        a, b = b, divmod(a, b)[1]
    if not a:
        return a
    return a * (Fraction(1) / a.leading_coeff())


def squarefree_part(p: Polynomial) -> Polynomial:
    return divmod(p, euclid_gcd(p, p.derivative()))[0]


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def sign_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain, a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b] of the chain's first polynomial."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def smallest_positive_root(p: Polynomial, precision: int = 18):
    """Sturm isolation evaluated at ``Fraction`` points throughout."""
    if not p:
        raise ValueError("zero polynomial")
    if p(Fraction(0)) == 0:
        raise ValueError("p(0) = 0; strip the root at the origin first")
    sqf = squarefree_part(p)
    chain = sturm_chain(sqf)
    lo, hi = Fraction(0), Fraction(1)
    if sqf(hi) == 0:
        hi += Fraction(1, 10**precision)

    def roots_in(a: Fraction, b: Fraction) -> int:
        return sturm_count(chain, a, b)

    if roots_in(lo, hi) < 1:
        raise NoRootError(f"no root of {p} in (0, 1]")
    while roots_in(lo, hi) > 1 or sqf(lo) * sqf(hi) >= 0:
        mid = (lo + hi) / 2
        if sqf(mid) == 0:
            if roots_in(lo, mid) == 1:
                eps = Fraction(1, 10 ** (precision + 2))
                return mid - eps, mid + eps
            hi = mid
            continue
        if roots_in(lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    width_goal = Fraction(1, 10**precision)
    while hi - lo >= width_goal:
        mid = (lo + hi) / 2
        v = sqf(mid)
        if v == 0:
            eps = Fraction(1, 10 ** (precision + 2))
            return mid - eps, mid + eps
        if (v > 0) == (sqf(lo) > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def berlekamp_massey(terms, complexity_bound: int) -> RationalFunction:
    """Berlekamp–Massey over the rationals, with the same contract as
    ``RationalFunction.from_sequence``."""
    s = [Fraction(t) for t in terms]
    if len(s) < 2 * complexity_bound:
        raise ValueError(f"need {2 * complexity_bound} terms, got {len(s)}")

    def discrepancy(c, i):
        return sum((cj * s[i - j] for j, cj in enumerate(c) if j <= i),
                   Fraction(0))

    c, b = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for i in range(2 * complexity_bound):
        d = discrepancy(c, i)
        if d == 0:
            shift += 1
            continue
        new = c + [Fraction(0)] * max(0, len(b) + shift - len(c))
        for j, bj in enumerate(b):
            new[j + shift] -= d / last * bj
        if 2 * length <= i:
            b, length, last, shift = c, i + 1 - length, d, 1
        else:
            shift += 1
        c = new
    if length > complexity_bound or any(
            discrepancy(c, i) for i in range(2 * complexity_bound, len(s))):
        raise ArithmeticError("terms break the recovered recurrence")
    num = [discrepancy(c, i) for i in range(length)]
    return RationalFunction(Polynomial(num), Polynomial(c))


def is_slow_riser(perm: Permutation) -> bool:
    a = perm.entries
    return all(a[i + 1] <= a[i] + 1 for i in range(len(a) - 1))


def mountain_from_coloring(n: int, red: set[int]) -> Permutation:
    """Mountain permutation from a 2-coloring of [n-1].

    Red values ascend, then n, then the blue values descend.
    """
    if not red <= set(range(1, n)):
        raise ValueError("red set must be a subset of [1, n-1]")
    blue = sorted(set(range(1, n)) - red, reverse=True)
    return Permutation(tuple(sorted(red)) + (n,) + tuple(blue))


_SEED = (1, 2, 1, 2)  # endpoint tuple of the permutation 12


def endpoint_state(perm: Permutation) -> tuple[int, int, int, int]:
    """The (first, second, second-to-last, last) entries of ``perm``.

    For length-3 permutations the middle entry fills both inner slots;
    the start permutation 12 maps to the degenerate tuple (1, 2, 1, 2).
    """
    e = perm.entries
    if len(e) < 2:
        raise ValueError("need length at least 2")
    return (e[0], e[1], e[-2], e[-1])


def realizable(t: tuple[int, int, int, int], k: int) -> bool:
    """Whether some k-convex permutation (k in {1, 2}) has the endpoint
    tuple ``t`` = (first, second, second-to-last, last).

    For k <= 2 every k-convex permutation is a mountain, since a valley
    x > y < z of distinct entries has x + z - 2y >= 3.  A mountain is
    k-convex iff its ascent gaps read from the left, and its descent
    gaps read from the right, grow by at most k per step (the peak's
    second difference is negative).

    Past the seed, length-3, identity and reverse-identity shapes, the
    values are distinct with a < b and d < c, and t is realizable iff
    every value below min(b, c) is a or d.  Necessity: ascent entries
    after a are >= b and descent entries before d are >= c, so no other
    value below min(b, c) has a place.  Sufficiency, for k >= 1: if
    b > c, take a, then [1, b] minus {a} decreasing; if c > b, take
    [1, c] minus {d} increasing, then d.  By the condition these end in
    a, b, c, d.  The long side skips only a (resp. d), so its gaps are 1
    or 2 and grow by at most 1; the short side has a single gap.  For
    k = 0 the condition does not suffice: (1, 2, 5, 3) meets it, but
    4 must follow 2 in the ascent, a gap of 2 after a gap of 1.
    """
    if k not in (1, 2):
        raise ValueError("realizability requires k in {1, 2}")
    a, b, c, d = t
    if min(t) < 1:
        return False
    if t == _SEED:
        return True
    if b == c:  # length-3 shape: the middle entry fills both inner slots
        if sorted((a, b, d)) != [1, 2, 3]:
            return False
        return a + d - 2 * b <= k
    if len({a, b, c, d}) < 4:
        return False
    if c < d:
        # ends ascending, so the whole permutation ascends: identity only
        return (a, b, c) == (1, 2, d - 1) and d >= 4
    if a > b:
        # starts descending: reverse identity only
        return (b, c, d) == (a - 1, 2, 1) and a >= 4
    # a and d are distinct, so the m - 1 values below m are all a or d
    # iff that many of a, d lie below m
    m = min(b, c)
    return (a < m) + (d < m) == m - 1


def _least_concrete(key, k) -> tuple[int, int, int, int]:
    """Smallest realizable endpoint tuple in a merged class (k in {1, 2}).

    A starred entry ranges over the values other than a and d that keep
    the tuple descending, and tuples compare by (second, second-to-last).
    Every realizable tuple has 1 at an end: a mountain's least entry is
    first or last.  A key is oriented with a <= d, so a = 1, or the class
    is not realizable.  The least second entry other than 1 and d is 2,
    or 3 when d = 2.  Filling the stars with it and with the
    second-to-last entry d - 1, or 3 when d = 2, gives the least member,
    when any member is realizable (cases of :func:`realizable`):

    - both starred: d = 2 gives the length-3 shape 1332, d = 3 gives
      1223, and d >= 4 gives the identity 1 2 (d-1) d.  For d >= 4 a
      smaller second-to-last entry after 2 lies below d, which only the
      identity allows (the shape 1 2 2 d needs d = 3).
    - second starred, second-to-last c concrete: c > 2d + k > d, and
      (1, 2, c, d), or (1, 3, c, 2), meets the general condition.
    - second b concrete, second-to-last starred: b > 2 + k, so 2 and 3
      lie below b; for d >= 3 the value 2 has no place (the descent
      side before d holds values above d), and for d = 2 the least
      choice is 3, which meets the general condition.
    - both concrete: the class is the key itself.

    So the class is realizable iff the filled tuple is.
    """
    a, b, c, d = key
    if b is None:
        b = 3 if d == 2 else 2
    if c is None:
        c = 3 if d == 2 else d - 1
    if a != 1 or not realizable((a, b, c, d), k):
        raise ValueError(f"no realizable representative for class {key}")
    return (a, b, c, d)


def canonicalize_state(t: tuple[int, int, int, int],
                       k: int) -> tuple[int, int, int, int]:
    """Smallest endpoint tuple identically-descending with ``t``.

    Applies reversal symmetry, then replaces the mutable end entries
    (second-to-last when the state right-descends, second when it left
    descends) by the least values that keep the state realizable.
    Raises ``ValueError`` unless k is 1 or 2 and ``t`` is realizable.
    """
    t = _SEED if t == _SEED[::-1] else t
    if not realizable(t, k):
        raise ValueError(f"state {t} is not realizable for k={k}")
    return t if t == _SEED else _least_concrete(state_key(t, k), k)


def least_concrete(key, k):
    """Smallest realizable endpoint tuple in a merged class, by trying
    every filling of its starred entries in lexicographic order."""
    a, b, c, d = key
    # a starred entry ranges over the descending values other than a, d
    b_opts = range(1, 2 * a + k + 1) if b is None else (b,)
    c_opts = range(1, 2 * d + k + 1) if c is None else (c,)
    for bv in b_opts:
        if b is None and bv in (a, d):
            continue
        for cv in c_opts:
            if c is None and cv in (a, d):
                continue
            if realizable((a, bv, cv, d), k):
                return (a, bv, cv, d)
    raise ValueError(f"no realizable representative for class {key}")


def loop_node(g, cutoff_key):
    """Index of the node where loop truncation puts its self-loop, found
    in the cut digraph ``g`` built to closure: from the cutoff's one
    remaining (right) successor, follow first out-edges while the next
    node has a single out-edge."""
    out = {}
    for u, v, _ in g.edges:
        out.setdefault(u, []).append(v)

    def successors(u):
        return out.get(u, ())

    cur = successors(g.nodes.index(cutoff_key))[0]
    while len(successors(successors(cur)[0])) == 1:
        cur = successors(cur)[0]
    return cur


def transitions(key, k):
    """Out-edges ``(label, child key)`` of a node key, ``START_KEY`` included,
    labeled "L"/"R" in canonical orientation: the descents of the
    endpoint tuple, keyed by ``state_key``."""
    a, b, c, d = (1, 2, 1, 2) if key == START_KEY else key  # 12's endpoints
    out = []
    if b is None or b - 2 * a <= k:  # left descent
        child = (1, a + 1, None if c is None else c + 1, d + 1)
        out.append(("L", state_key(child, k)))
    if c is None or c - 2 * d <= k:  # right descent
        child = (a + 1, None if b is None else b + 1, d + 1, 1)
        out.append(("R", state_key(child, k)))
    return out


def bfs_digraph(k, depth=None, cutoff=None, loop=False):
    """``build_digraph`` by a BFS from the start node over
    :func:`transitions`, with the same argument checks: a node is new
    when its key has no index yet, the cutoff's L edge is left out, and
    loop truncation puts its self-loop at :func:`loop_node` of the
    closure.  Nothing about the shape of the digraph is assumed past the
    checks on the cutoff."""
    if k not in (1, 2):
        raise ValueError("digraph machinery requires k in {1, 2}")
    if loop and cutoff is None:
        raise ValueError("loop mode needs a truncation cutoff")
    if cutoff is None and depth is None:
        raise ValueError("need a depth bound or a truncation cutoff")
    if depth is not None and depth < 0:
        raise ValueError("depth must be nonnegative")
    cut = None  # the cutoff's L edge, left out with or without the loop
    if cutoff is not None:
        cutoff_key = state_key(cutoff, k)
        level = cutoff_key[3]
        if cutoff_key[:3] != (1, None, None) or level < 3:
            raise ValueError("a truncation needs a ladder cutoff "
                             f"(1, *, *, D) with D >= 3, not {cutoff}")
        if loop and level < k + 3:
            raise ValueError(f"loop mode needs a cutoff level D >= {k + 3}")
        cut = (cutoff_key, "L")

    nodes = [START_KEY]
    index = {START_KEY: 0}
    edges = []
    frontier = [0]
    generation = 0
    while frontier and (depth is None or generation < depth):
        nxt = []
        for u in frontier:
            key = nodes[u]
            for label, child in transitions(key, k):
                if (key, label) == cut:
                    continue
                if child not in index:
                    index[child] = len(nodes)
                    nodes.append(child)
                    nxt.append(index[child])
                edges.append((u, index[child], label))
        frontier = nxt
        generation += 1

    if loop:
        if frontier:
            raise ValueError(
                f"depth {depth} stops before the closure of the loop cutoff "
                f"{cutoff} is built")
        u = loop_node(DescendantDigraph(k, tuple(nodes), tuple(edges)),
                      cutoff_key)
        edges.append((u, u, "L"))
    return DescendantDigraph(k=k, nodes=tuple(nodes), edges=tuple(edges))


def perm_counts_by_walks(k, max_n):
    """[f_k(1), ..., f_k(max_n)] from the digraph built by BFS to depth
    max_n - 2 and the walk DP over all of its nodes."""
    g = bfs_digraph(k, depth=max(max_n - 2, 0))
    return ([1] + [2 * sum(c) for c in walks(g, max_n - 2)])[:max_n]


def adjacency(g):
    """The adjacency matrix of the digraph ``g``, edges counted with
    multiplicity."""
    m = [[0] * len(g.nodes) for _ in g.nodes]
    for u, v, _ in g.edges:
        m[u][v] += 1
    return m


def subgraph_walks(k, root, order, drop, ends):
    """Walk counts of lengths 0..order from the node key ``root`` when
    the ``(key, label)`` out-edges in ``drop`` are left out: the totals,
    and for each key in ``ends`` the walks ending there.  Each step
    pushes every count along the out-edges that :func:`transitions`
    gives; nothing about the shape of the digraph is assumed."""
    counts = {root: 1}
    totals, ending = [], [[] for _ in ends]
    for _ in range(order + 1):
        totals.append(sum(counts.values()))
        for series, key in zip(ending, ends):
            series.append(counts.get(key, 0))
        nxt = {}
        for key, c in counts.items():
            for label, child in transitions(key, k):
                if (key, label) not in drop:
                    nxt[child] = nxt.get(child, 0) + c
        counts = nxt
    return totals, ending


def ladder_walk_oracle(order):
    """Exact (tot, bot) coefficient vectors of the k = 1 ladder walks.

    The subgraph is everything reachable from the 1223 node once its
    right (downward) edge is removed; this is the structure the
    continued fractions describe, so it is an independent check on them.
    """
    root = state_key((1, 2, 2, 3), 1)  # the 1223 node
    totals, (returns,) = subgraph_walks(1, root, order, {(root, "R")}, [root])
    return totals, returns


def tower_bot_tot(order):
    """(bot, tot) of the k = 1 ladder from the levels of
    :func:`ladder_tower`.  bot is the first level.  tot sums over the
    highest level n+1 reached: q^n forward steps, a partial descent of
    up to n+1 further steps, and the product of the levels visited."""
    tower = ladder_tower(order)
    one = TruncatedSeries.monomial(0, order)
    total = TruncatedSeries((), order)
    prod = one
    for n in range(order + 1):
        if n < len(tower):
            prod = prod * tower[n]
        # else: deeper levels are 1 to this order
        ramp_len = 1 if n == 0 else n + 2  # q^n (1 + q + ... + q^(n+1))
        ramp = TruncatedSeries([0] * n + [1] * ramp_len, order)
        total = total + ramp * prod
    return tower[0], total


def convergents(order: int):
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
    of :func:`tower_bot_tot` is tot = T/B_1 with

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


def m1_series(order: int) -> TruncatedSeries:
    """The 1-convex counting series by the 5x5 weighted transfer matrix,
    over bot and tot from :func:`convergents`.

    The ladder is collapsed into two series-weighted edges (returns, and
    walks that never come back feed a sink); the first-column sum of the
    resolvent is rescaled exactly as for the unweighted matrices.
    """
    q = TruncatedSeries.monomial(1, order)
    b1, b2, t = convergents(order)
    inv = b1.invert()
    bot, tot = b2 * inv, t * inv
    zero = TruncatedSeries((), order)
    one = TruncatedSeries.monomial(0, order)
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


def tower_f1(order):
    """The 1-convex counting series from the tower's bot and tot,
    1 + q - 2 q^2 (1 + q^2 bot + q tot)/(-1 + q + q^3 bot)."""
    bot, tot = tower_bot_tot(order)
    q = TruncatedSeries.monomial(1, order)
    q2 = TruncatedSeries.monomial(2, order)
    q3 = TruncatedSeries.monomial(3, order)
    num = 1 + q2 * bot + q * tot
    den = -1 + q + q3 * bot
    return 1 + q - 2 * q2 * (num / den)


def f2_by_elimination(components):
    """Exact f_2 series, to their order, from the components (tot',
    bot1', bot2') of ``cfrac.k2_components``, by Gauss-Jordan
    elimination of the node equations for the walks from 12, 1223, 1332,
    1234 and 1532.  The upper subgraph enters through 1234: walks that
    stay inside (partial descents along the two suppressed return paths
    included) end there, walks ending on 1245 re-enter at 1223 after 3
    more steps, and walks ending on 1256 re-enter at 1234 after 4."""
    totp, bot1, bot2 = components
    order = totp.order
    q = TruncatedSeries.monomial(1, order)
    one = TruncatedSeries.monomial(0, order)
    zero = TruncatedSeries((), order)

    def p(exp):
        return TruncatedSeries.monomial(exp, order)

    inside = totp + bot1 * (q + p(2)) + bot2 * (q + p(2) + p(3))
    m = [
        [one, -1 * q, -1 * q, zero, zero],
        [zero, one, -1 * q, -1 * q, zero],
        [zero, -1 * q, one - q, zero, zero],
        [zero, -1 * p(4) * bot1, zero, one - p(5) * bot2, -1 * q],
        [zero, zero, -1 * q, zero, one],
    ]
    rhs = [one, one, one, one + q * inside, one]
    sol = solve_series_system(SeriesMatrix(m), rhs)
    return one + q + 2 * p(2) * sol[0]
