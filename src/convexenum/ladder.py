"""Walks on the ladder of the k-convex transition digraph (k in {1, 2}).

The ladder is the chain of nodes L_j = (1, *, *, j) of
:func:`convexenum.perms.build_digraph`; every other node lies on a
return path with one out-edge, so walks on the infinite digraph are
counted on the ladder alone, by one recurrence.  It serves the counts
of k-convex permutations (:func:`perm_counts`) and every ladder series
of :mod:`convexenum.cfrac`.  It is its own module so that those counts
and series run without loading ``perms``.
"""

from __future__ import annotations


def ladder_walks(k: int, root: int, steps: int):
    """Walks from the ladder node L_root that never go below it
    (k in {1, 2}, root >= 2), in O(steps^2) integer additions:
    ``(rows, totals)``, where rows[t][m] (m <= root + t) counts the walks
    of length t that end at L_m and totals[t] counts all walks of
    length t, for t = 0..steps.

    By :func:`convexenum.perms.build_digraph`, L_j = (1, *, *, j) has an
    L edge to L_(j+1), and its R edge leads to L_max(2, j-k) after
    exactly d_j = max(1, j - k) steps; for j = 2 that edge is L_2's
    self-loop.  Each node inside a return path has one out-edge, so a
    walk that takes L_j's R edge follows the path to its end or stops
    inside it.  Walks stay at or above L_root when they take only the R
    edges that land there: the R edge of L_j is kept iff
    max(2, j - k) >= root, that is, for every j >= lo, where lo = 2 at
    root 2 and lo = root + k above.  Every node reached is then a ladder
    node L_m with m >= root, or inside the return path of some L_j with
    j >= lo.

    Let c_t[m] = rows[t][m], with c_0 = [L_root: 1].  Split a walk of
    length t + 1 that ends at L_m at its last visit to the ladder before
    the end.  Either that visit is at length t and the last edge is the
    L edge from L_(m-1) (m > root), or the walk left some L_j (j >= lo)
    by its kept R edge at length t + 1 - d_j and followed the return
    path, which it cannot leave, to L_m = L_max(2, j-k); a cut R edge
    would land below L_root.  The parts are disjoint, so

        c_(t+1)[m] = c_t[m-1] + sum over j >= lo with max(2, j-k) = m
                     of c_(t+1-d_j)[j],

    where c_s[j] = 0 unless 0 <= s and j <= root + s: a walk climbs one
    level per step.  For m >= 3 the sum has the one term j = m + k; for
    m = 2 (root 2 only) it runs over 2 <= j <= k + 2.  As j >= root, a
    term with j - k >= 1 is nonzero only if 2j <= t + 1 + k + root.

    A walk of length t + 1 is a walk of length t and one out-edge of its
    end.  L_m with m >= lo has two out-edges; every other node reached
    has one (L_root .. L_(lo-1) their L edge), so W_0 = 1 and

        W_(t+1) = W_t + sum over m >= lo of c_t[m].
    """
    if k not in (1, 2):
        raise ValueError("digraph machinery requires k in {1, 2}")
    if root < 2:
        raise ValueError("root must be a ladder level >= 2")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    lo = 2 if root == 2 else root + k  # the least level whose R edge is kept
    rows = [[0] * root + [1]]  # rows[t][m] = c_t[m] for m <= root + t
    totals = [1]  # totals[t] = W_t
    for t in range(steps):
        row = rows[t]
        totals.append(totals[t] + sum(row[lo:]))
        nxt = [0, *row]  # the L edges
        top = (t + 1 + k + root) // 2  # c_(t+1+k-j)[j] = 0 for every j > top
        for j in range(lo, min(k + 2, top) + 1):  # the R edges into L_2
            nxt[2] += rows[t + 1 - max(1, j - k)][j]
        for j in range(max(lo, k + 3), top + 1):
            nxt[j - k] += rows[t + 1 + k - j][j]
        rows.append(nxt)
    return rows, totals


def perm_counts(k: int, max_n: int) -> list[int]:
    """[f_k(1), ..., f_k(max_n)] (k in {1, 2}) from walks on the ladder
    alone, in O(max_n^2) integer additions; f_k(n) = 2 W_(n-2) for
    n >= 2, where W_t, the totals[t] of :func:`ladder_walks` from L_2,
    counts the walks of length t from the start node.

    The start node has L_2's out-edges (L to L_3, R to L_2), so walks
    from it are counted as the walks of :func:`ladder_walks` from L_2,
    where no R edge is cut.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    _, totals = ladder_walks(k, 2, max(max_n - 2, 0))
    return [1, *(2 * w for w in totals)][:max_n]
