"""Locally convex permutations: counting, and the endpoint-state
transition digraph behind the growth-rate bounds.

A permutation is convex with parameter k when every second difference is
at most k.  For k <= 2 such permutations are "mountains" (an increasing
run followed by a decreasing run), and their extension behavior is fully
determined by the four endpoint entries (first, second, second-to-last,
last).  Classes of permutations with identical descendant counts are
merged into single digraph nodes; walks from the start node count the
permutations themselves.
"""

from __future__ import annotations

from convexenum import ladder, search
from convexenum.exact import ratfun, roots
from convexenum.frozen import Frozen


def count_perms_bruteforce(n: int, k: int) -> int:
    """Count k-convex permutations by backtracking: they are the k-convex
    words on [n] without a repeated letter."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return search.count_convex_sequences(n, n, k, distinct=True)


def f0_closed(n: int) -> int:
    """Closed form for the number of 0-convex permutations."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return {1: 1, 2: 2, 3: 4, 4: 6}.get(n, 8)


# ---------------------------------------------------------------------------
# The identically-descending digraph
# ---------------------------------------------------------------------------

START_KEY = "12"  # key of the start node, which is never merged with a class


# Internal merged representation: (a, b, c, d) where b is None when all
# left-descending second entries collapse to one class, and c is None
# likewise for right-descending second-to-last entries.

def state_key(t, k):
    """Digraph node key of an endpoint tuple: the reversal-minimal
    starred tuple, so identically-descending states compare equal.

    Starring (replacing a descending inner entry by None) commutes with
    reversal, so the tuple is starred once; None sorts as 0, and on a
    tie of the outer pairs the two orientations are equal.
    """
    a, b, c, d = t
    if b is not None and b - 2 * a <= k:
        b = None
    if c is not None and c - 2 * d <= k:
        c = None
    if (a, b or 0) <= (d, c or 0):
        return (a, b, c, d)
    return (d, c, b, a)


#: Truncation points matching the published bound computations.
DEFAULT_CUTOFF = {1: (1, 2, 6, 7), 2: (1, 2, 7, 8)}


class DescendantDigraph(Frozen):
    """Finite piece of the identically-descending transition digraph.

    ``nodes`` are merged state keys in BFS order, index 0 the root;
    ``edges`` are ``(from_index, to_index, "L"/"R")``.
    """

    __slots__ = ("k", "nodes", "edges")

    @property
    def labels(self) -> tuple[str, ...]:
        """The least endpoint tuple of a k-convex permutation in each
        node's class, as digits; the start node keeps its key, 12.

        A class holds the tuples whose :func:`state_key` is its key.
        Oriented like the key, (1, b, c, d), a starred entry ranges over
        the values other than 1 and d that keep the tuple descending
        (b - 2 <= k, c - 2d <= k), and tuples compare by (second,
        second-to-last).  The label fills a starred second entry with
        2, or 3 when d = 2, and a starred second-to-last entry with
        d - 1, or 3 when d = 2; for k >= 1 both keep the tuple
        descending, so the filled tuple is in the class.  For k <= 2
        every k-convex permutation is a mountain, since a valley
        x > y < z of distinct entries has x + z - 2y >= 3, and a
        mountain's second differences are the growth of its gaps along
        the ascent, and along the descent read from the right, and
        negative at the peak.  The key of every node past the start has
        one of the three shapes of :func:`build_digraph`:

        - L_j = (1, *, *, j).  For j = 2 the fill is 1332, the tuple of
          132, and for j = 3 it is 1223, that of 123; each inner entry
          takes the least value other than 1 and j.  For j >= 4 it is
          (1, 2, j-1, j), that of the identity 1 2 ... j.  Its second
          entry is the least; a second-to-last entry below j - 1 lies
          below the last one, j, so the mountain ends ascending and is
          the identity, whose second-to-last entry is j - 1.
        - (1, b, *, 2) with b concrete, so b > 2 + k >= 3.  The fill
          (1, b, 3, 2) is the tuple of 1 b (b-1) ... 3 2, whose ascent
          has one gap and whose descent gaps are all 1, and 3 is the
          least value other than 1 and 2.
        - (1, *, c, d) with c concrete, so c > 2d + k and d >= 2.  The
          fill (1, 3, c, 2) for d = 2, or (1, 2, c, d) for d >= 3, is the
          tuple of [1, c] minus {d} increasing, then d: its descent has
          one gap, and its ascent gaps are 1 except one gap of 2 (after
          1, or where d is skipped), so they grow by at most 1.  The
          second entry is the least value other than 1 and d.

        So each label is the least tuple of its class, with no
        realizability test.  Any other key raises ``ValueError``.  One
        with a concrete entry that keeps the tuple descending
        (b <= 2 + k or c <= 2d + k) is no key of a tuple, since
        :func:`state_key` stars such an entry.  The rest have no
        k-convex member.  A key has a <= d, and 1 is exactly one end of
        a mountain, so a = 1 < d.  A member (1, b, c, d) with a concrete
        b > 2 + k is neither the identity nor a length-3 shape, so
        c > d, and every value below b and c is 1 or d: the ascent after
        1 holds values >= b, the descent before d values >= c.  The
        value 2 is neither when d >= 3, and 3 is neither when d = 2 and
        c > 4 + k is concrete.
        """
        k = self.k
        labels = []
        for key in self.nodes:
            if key == START_KEY:
                labels.append(key)
                continue
            a, b, c, d = key
            if not (a == 1 and d >= 2
                    and (b is None or c is None and d == 2 and b > 2 + k)
                    and (c is None or c > 2 * d + k)):
                raise ValueError(
                    f"no realizable representative for class {key}")
            labels.append("%d%d%d%d" % (
                a, (3 if d == 2 else 2) if b is None else b,
                (3 if d == 2 else d - 1) if c is None else c, d))
        return tuple(labels)

    def to_dot(self) -> str:
        """DOT source; the self-loop that loop truncation adds is dashed.

        It is the only L self-loop: the L child (1, 2, c + 1, d + 1) of a
        key ending in d is never reversed, as 1 < d + 1, so its key ends
        in d + 1.
        """
        lines = ["digraph descendants {"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for u, v, lab in self.edges:
            style = ", style=dashed" if u == v and lab == "L" else ""
            lines.append(f'  n{u} -> n{v} [label="{lab}"{style}];')
        lines.append("}")
        return "\n".join(lines)


def build_digraph(k: int, depth: int | None = None, cutoff=None,
                  loop: bool = False) -> DescendantDigraph:
    """The transition digraph from the start node (the permutation 12),
    in BFS order, its nodes enumerated by the return-path lemma below.

    Without a ``cutoff``, expansion stops after ``depth`` generations
    (the graph is infinite), so walks of up to ``depth`` steps from the
    start node are exact.  Left edges are listed before right edges.

    A ``cutoff`` endpoint tuple truncates the digraph: it cuts the
    ladder.  Write L_D for the ladder key (1, *, *, D), with * a starred
    entry; L_2 is the class of 1332.  The cutoff's key must be L_D with
    D >= 3.  Its left edge is dropped, and the edited graph is expanded
    from the start node to closure, or for ``depth`` generations.  The
    closure is finite.  Past the start node every key is (1, b, c, d).
    An L step shifts every entry up by one and prepends 1, and an R step
    shifts them and appends 1.  Only the new second difference can break
    k-convexity, so a step keeps it exactly when the end pair it extends
    descends: second - 2 first <= k for L, and second-to-last - 2 last
    <= k for R.  The key marks such a pair by starring its inner entry,
    and the child's key is :func:`state_key` of the new endpoint tuple.
    So:

    - an L step needs b starred and gives (1, *, c + 1, d + 1), where
      c + 1 is starred when c is or when c + 1 - 2(d + 1) <= k: a
      concrete c loses one against 2d + k at each L step;
    - an R step needs c starred and gives (1, d + 1, b + 1, 2) (the
      child is reversed), where d + 1 is starred when d - 1 <= k, and
      b + 1 when b is or when b - 3 <= k.

    So a key with b concrete has no L edge, one with c concrete no R
    edge, and L_j has both.  The start node steps to L_3 (L) and L_2
    (R), and L_2 to L_3 (L) and to itself (R).  From L_j the ladder
    climbs to L_(j+1), and for j >= k + 3 the right edge starts the
    return path

        L_j -R-> (1, j+1, *, 2) -R-> (1, *, j+2, 2) -L-> ...
            -L-> (1, *, 2j-1-k, j-1-k) -L-> L_(j-k),

    since (1, *, j+2, 2) is j - 2 - k L steps from a starred c.  For
    j = k + 2 the second R step already stars both inner entries and
    gives L_2, and for j = k + 1 (k = 2) the first one does.  So for
    every j >= 3 the return path of L_j has exactly d_j = j - k steps
    and ends at L_max(2, j-k), and each node inside it has a concrete
    entry, so it is not on the ladder and has one out-edge.  With the
    left edge of L_D dropped, every node reached is then L_2 .. L_D or
    on the return path of one of them, and every return path rejoins
    the ladder below its start: the closure is finite.  With any other
    cutoff the ladder L_3 -L-> L_4 -L-> ... stays whole and the closure
    is infinite, so such a cutoff raises ``ValueError`` at once.

    The nodes are therefore enumerated, not searched for.  Node i of
    the return path of L_j, for 1 <= i < d_j = max(1, j - k), is
    (1, j+1, *, 2) for i = 1 and (1, *, j+i, i) for i >= 2; its one
    in-edge comes from node i - 1 (L_j for i = 1), so it is new when
    that node is expanded.  A child on the ladder is new exactly when
    its level has no node yet.  The start node is expanded like L_2,
    and each generation is expanded in the order it was found, L edges
    first, as a BFS would.

    With ``loop`` the truncation also puts a self-loop, labeled L, at
    the last node (1, *, 2D-1-k, D-1-k) of the cutoff's return path.
    That needs a ``cutoff`` with D >= k + 3, since a shorter return path
    has no such node, and the whole closure: a ``depth`` that stops
    before it raises ``ValueError``.
    """
    if k not in (1, 2):
        raise ValueError("digraph machinery requires k in {1, 2}")
    if loop and cutoff is None:
        raise ValueError("loop mode needs a truncation cutoff")
    if cutoff is None and depth is None:
        raise ValueError("need a depth bound or a truncation cutoff")
    if depth is not None and depth < 0:
        raise ValueError("depth must be nonnegative")
    level = None  # the cutoff's ladder level D, whose L edge is left out
    if cutoff is not None:
        cutoff_key = state_key(cutoff, k)
        level = cutoff_key[3]
        if cutoff_key[:3] != (1, None, None) or level < 3:
            raise ValueError("a truncation needs a ladder cutoff "
                             f"(1, *, *, D) with D >= 3, not {cutoff}")
        if loop and level < k + 3:
            raise ValueError(f"loop mode needs a cutoff level D >= {k + 3}")

    def key(j, i):
        """Node i of the return path of L_j; node 0 is L_j itself."""
        if i == 0:
            return (1, None, None, j)
        return (1, j + 1, None, 2) if i == 1 else (1, None, j + i, i)

    nodes = [START_KEY]
    rungs = {}  # level j -> index of L_j
    edges = []
    frontier = [(0, 2, 0)]  # (index, j, i); the start node branches like L_2
    generation = 0
    while frontier and (depth is None or generation < depth):
        nxt = []
        for u, j, i in frontier:
            ahead = (j, i + 1) if i + 1 < j - k else (max(2, j - k), 0)
            out = [("R" if i < 2 else "L", ahead)]  # along the return path
            if i == 0 and j != level:
                out.insert(0, ("L", (j + 1, 0)))  # up the ladder
            for label, (cj, ci) in out:
                v = rungs[cj] if ci == 0 and cj in rungs else len(nodes)
                if v == len(nodes):
                    nodes.append(key(cj, ci))
                    nxt.append((v, cj, ci))
                    if ci == 0:
                        rungs[cj] = v
                edges.append((u, v, label))
        frontier = nxt
        generation += 1

    if loop:
        if frontier:
            raise ValueError(
                f"depth {depth} stops before the closure of the loop cutoff "
                f"{cutoff} is built")
        u = nodes.index(key(level, level - 1 - k))
        edges.append((u, u, "L"))

    return DescendantDigraph(k=k, nodes=tuple(nodes), edges=tuple(edges))


def walks(g: DescendantDigraph, steps: int) -> list[int]:
    """The number of walks from the root (node 0, the start node of a
    digraph from :func:`build_digraph`) of each length 0..steps.

    On a depth-bounded digraph the counts are exact up to its depth.
    Each step pushes every node's count along every edge.
    """
    counts = [1] + [0] * (len(g.nodes) - 1)  # the root
    totals = [1]
    for _ in range(steps):
        nxt = [0] * len(counts)
        for u, v, _ in g.edges:
            nxt[v] += counts[u]
        counts = nxt
        totals.append(sum(counts))
    return totals


def walk_count(g: DescendantDigraph, n: int) -> int:
    """Walks of length n-2 from the start node; equals f_k(n)/2 for n >= 2.

    The start node stands for the permutation 12, and every edge extends
    the permutation by one entry.  The digraph must be untruncated and
    deep enough (depth >= n-2) for the count to be exact.
    """
    if n < 2:
        raise ValueError("walk counts are defined for n >= 2")
    return walks(g, n - 2)[-1]


def count_perms_digraph(k: int, n: int) -> int:
    """f_k(n) via the transition digraph (k in {1, 2})."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return ladder.perm_counts(k, n)[-1]


# ---------------------------------------------------------------------------
# Rational bounds on the growth constant
# ---------------------------------------------------------------------------

class GrowthBounds(Frozen):
    """The bound GFs of f_k (``RationalFunction``s), their smallest
    positive roots as the integer intervals ``(lo, hi, den)`` of
    :func:`roots.root_interval`, and the growth-rate bounds those roots
    give, as decimal strings."""

    __slots__ = ("lower_gf", "upper_gf", "lower_root", "upper_root",
                 "lower_rate", "upper_rate")


def gf_bound(k: int, side: str, cutoff: tuple[int, int, int, int] | None = None
             ) -> ratfun.RationalFunction:
    """Rational generating function of a truncated digraph's walk totals:
    the ``"lower"`` side cuts the digraph, the ``"upper"`` side cuts it
    and adds loop truncation's self-loop.

    The cut digraph is a subgraph of the infinite one, so its totals are
    at most f_k(n).  The loop digraph gives the published upper GF, but
    its totals do not dominate either: at the default cutoffs and
    n <= 250 they fall below f_k(n) at every n >= 8 (k = 1) and n >= 9
    (k = 2), so no certificate for the upper rate exists yet.

    The walk totals W(x) from the start node are rescaled to full
    counts as 1 + x + 2 x^2 W(x).  With n nodes, W = P/D where D is
    det(I - xA) of degree <= n and deg P < n, so the bound has linear
    complexity at most n + 2: the integer walk DP supplies its first
    2n + 4 coefficients (plus two checked ones), from which
    Berlekamp-Massey recovers the closed form exactly.
    """
    if k not in DEFAULT_CUTOFF:
        raise ValueError("bounds require k in {1, 2}")
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    g = build_digraph(k, cutoff=cutoff or DEFAULT_CUTOFF[k],
                      loop=side == "upper")
    n = len(g.nodes)
    terms = [1, 1] + [2 * w for w in walks(g, 2 * n + 3)]
    return ratfun.RationalFunction.from_sequence(terms, n + 2)


def growth_bounds(k: int, precision: int = 20) -> GrowthBounds:
    """Bounds on the exponential growth rate of f_k from the smallest
    roots of both :func:`gf_bound` sides, isolated in certified integer
    intervals (lo, hi, den); only the lower rate is a proved bound (see
    :func:`gf_bound`).  A rate is the reciprocal of a root, den/hi or
    den/lo, so it is printed by one floor division."""
    if precision < 1:
        raise ValueError("precision must be positive")
    lower = gf_bound(k, "lower")
    upper = gf_bound(k, "upper")
    lo_root = roots.root_interval(lower.den, precision)
    up_root = roots.root_interval(upper.den, precision)
    # rate bounds are reciprocals: the smaller root gives the larger rate
    return GrowthBounds(
        lower_gf=lower, upper_gf=upper,
        lower_root=lo_root, upper_root=up_root,
        lower_rate=roots.decimal_value(lo_root[2], lo_root[1], 10),
        upper_rate=roots.decimal_value(up_root[2], up_root[0], 10),
    )


def check_subadditivity(k: int, max_n: int) -> dict:
    """Probe f_k(m+n) <= f_k(m) f_k(n) for all splits m <= n with
    m + n <= max_n; report the violations.

    This is a report, not an assertion: the record ``perms subadd``
    prints, ``holds`` and ``violations``, the (m, n, f_k(m+n),
    f_k(m) f_k(n)) of each failing split in order of m, then n.
    """
    f = [None, *ladder.perm_counts(k, max_n)]  # f[n] = f_k(n)
    violations = [(m, n, f[m + n], f[m] * f[n])
                  for m in range(1, max_n)
                  for n in range(m, max_n - m + 1)
                  if f[m + n] > f[m] * f[n]]
    return {"holds": not violations, "violations": violations}
