"""Tests for convex permutations, the transition digraph, and growth bounds."""

import hashlib
import re
import sys
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

import _oracles
from _oracles import (
    Permutation,
    canonicalize_state,
    descend,
    endpoint_state,
    from_terms,
    is_convex_perm,
    is_slow_riser,
    mountain_from_coloring,
    realizable,
    to_series,
)
from _goldens import (
    BOUND_GF,
    CUTOFF_1278_ROOT,
    DEEP_F,
    DOT_SHA256,
    LABELS_SHA256,
    MATRIX_A_ROWS,
    PERM_SEARCH_CALLS,
    RATES,
    RESOLVENT_CONSTRUCTIONS,
    RESOLVENT_ROW_SHA256,
    ROOT_DIGITS,
    ROOT_INTERVALS,
    TABLE_F0,
    TABLE_F1,
    TABLE_F2,
    root_fraction,
)
from convexenum import perms, search
from convexenum.ladder import ladder_walks
from convexenum.exact.linalg import matrix_resolvent_row
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.roots import smallest_positive_root
from convexenum.exact.series import TruncatedSeries
from convexenum.perms import (
    DEFAULT_CUTOFF,
    START_KEY,
    DescendantDigraph,
    build_digraph,
    check_subadditivity,
    count_perms_bruteforce,
    count_perms_digraph,
    f0_closed,
    gf_bound,
    growth_bounds,
    state_key,
    walk_count,
    walks,
)
from convexenum.ladder import perm_counts
from convexenum.search import convex_sequences, count_convex_sequences


class TestPermutationBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 3))
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_convexity(self):
        assert is_convex_perm(Permutation((1, 2, 4, 3)), 1)
        assert not is_convex_perm(Permutation((2, 1, 3)), 2)  # 1+3-2 = 3
        assert is_convex_perm(Permutation((2, 1, 3)), 3)

    def test_slow_riser(self):
        assert is_slow_riser(Permutation((3, 4, 2, 1)))
        assert not is_slow_riser(Permutation((1, 3, 2)))


class TestCounting:
    def test_closed_form_matches_bruteforce(self):
        for n in range(1, 9):
            assert f0_closed(n) == count_perms_bruteforce(n, 0), n

    def test_bruteforce_matches_digraph(self):
        for k in (1, 2):
            for n in range(1, 9):
                assert count_perms_bruteforce(n, k) == \
                    count_perms_digraph(k, n), (k, n)

    def test_perm_search_calls_stay_under_the_recorded_ceiling(self):
        # extend() calls of the permutation search, counted as
        # test_word_search_visits_each_convex_prefix_once counts them;
        # a weaker reach cut visits more prefixes and fails here
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "extend" \
                    and frame.f_code.co_filename == search.__file__:
                calls += 1

        previous = sys.getprofile()
        for (n, k), ceiling in PERM_SEARCH_CALLS.items():
            calls = 0
            sys.setprofile(count)
            try:
                total = count_perms_bruteforce(n, k)
            finally:
                sys.setprofile(previous)
            assert calls <= ceiling, (n, k, calls)
            # the unpruned generator is the reach cut's oracle
            assert total == sum(
                1 for _ in convex_sequences(n, n, k, True)), (n, k)

    def test_reference_table(self):
        assert [f0_closed(n) for n in range(1, 13)] == TABLE_F0
        assert [count_perms_digraph(1, n) for n in range(1, 13)] == TABLE_F1
        assert [count_perms_digraph(2, n) for n in range(1, 13)] == TABLE_F2

    def test_perm_counts_short_and_long(self):
        for k in (1, 2):
            assert perm_counts(k, 0) == []
            assert perm_counts(k, 1) == [1]
            assert perm_counts(k, 2) == [1, 2]
        # a walk of length 248 reaches ladder level 250
        counts = perm_counts(2, 250)
        assert counts[:12] == TABLE_F2
        assert counts[-1] == DEEP_F[2, 250]
        assert count_perms_digraph(2, 250) == counts[-1]
        assert perm_counts(1, 250)[-1] == DEEP_F[1, 250]
        assert perm_counts(1, 120)[-1] == DEEP_F[1, 120]
        assert perm_counts(2, 500)[-1] == DEEP_F[2, 500]

    def test_ladder_counts_match_walks_on_the_bfs_digraph(self):
        for k in (1, 2):
            for max_n in [*range(61), 250]:
                assert perm_counts(k, max_n) == \
                    _oracles.perm_counts_by_walks(k, max_n), (k, max_n)

    def test_perm_counts_rejects_bad_arguments(self):
        for k in (0, 3):
            with pytest.raises(ValueError, match=r"^digraph machinery "
                               r"requires k in \{1, 2\}$"):
                perm_counts(k, 5)
        for k in (1, 3):
            with pytest.raises(ValueError,
                               match="^max_n must be nonnegative$"):
                perm_counts(k, -1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_ladder_walks_match_walks_over_the_transitions(self, k):
        # the oracle cuts the R edges that land below the root, found by
        # following them, so it does not rest on the return-path lemma
        order = 60
        for root in range(2, 12):
            levels = range(root, root + order + 1)
            drop = {((1, None, None, j), "R") for j in levels
                    if _r_edge_landing(k, j) < root}
            totals, ending = _oracles.subgraph_walks(
                k, (1, None, None, root), order, drop,
                [(1, None, None, m) for m in levels])
            expected = [[0] * root + [ending[i][t] for i in range(t + 1)]
                        for t in range(order + 1)]
            for steps in range(order + 1):
                assert ladder_walks(k, root, steps) == \
                    (expected[:steps + 1], totals[:steps + 1]), (root, steps)

    def test_ladder_walks_rejects_bad_arguments(self):
        for args, message in (((3, 2, 5), "k in"), ((1, 1, 5), "root"),
                              ((2, 5, -1), "steps")):
            with pytest.raises(ValueError, match=message):
                ladder_walks(*args)

    def test_generator_matches_counts(self):
        # the definition itself, filtered over all n! permutations in
        # lexicographic order, is the oracle for the shared search
        for n in range(1, 8):
            every = [Permutation(e) for e in permutations(range(1, n + 1))]
            for k in range(-1, 4):
                convex = [p for p in every if is_convex_perm(p, k)]
                assert [Permutation(e) for e in
                        convex_sequences(n, n, k, True)] == convex, (n, k)
                assert count_perms_bruteforce(n, k) == len(convex), (n, k)
        with pytest.raises(ValueError):
            count_perms_bruteforce(0, 1)

    def test_reach_cut_matches_generator(self):
        # the counter cuts a permutation prefix whose largest unused value
        # is out of reach; with p > n no value has to be placed, which a
        # cut taken over from p = n gets wrong (at n=3, p=5, k=-1).  The
        # unpruned generator is the oracle; larger cases would take it
        # minutes, so n = 8..10 run with p = n and k <= 4 only
        cases = [(n, p, k) for n in range(1, 8) for p in (n, n + 1, n + 3)
                 for k in range(-1, 7)]
        cases += [(n, n, k) for n in (8, 9, 10) for k in range(-1, 5)]
        for n, p, k in cases:
            assert count_convex_sequences(n, p, k, True) == \
                sum(1 for _ in convex_sequences(n, p, k, True)), (n, p, k)


def _convex_perms(n, k):
    """The k-convex permutations of length n, listed by the shared
    search, which yields one list updated in place."""
    return [Permutation(e) for e in convex_sequences(n, n, k, True)]


class TestDescendants:
    def test_descend_shifts_and_prepends(self):
        p = Permutation((1, 2, 3))
        assert descend(p, "L", 1).entries == (1, 2, 3, 4)
        assert descend(p, "R", 1).entries == (2, 3, 4, 1)

    def test_descend_respects_convexity(self):
        # 1423: left descent would need 4 - 2*1 <= k
        p = Permutation((1, 4, 3, 2))
        assert descend(p, "L", 1) is None
        assert descend(p, "L", 2) is not None

    @pytest.mark.parametrize("k", (0, 1, 2))
    def test_descendants_of_length_n_minus_1_are_length_n(self, k):
        # for k <= 2 the entry 1 sits at an end of every k-convex
        # permutation, so removing it (L or R) and shifting down is the
        # inverse of descend; lengths 0 and 1 have both descendants
        parents = [Permutation(())]
        for n in range(1, 9):
            children = {descend(p, direction, k)
                        for p in parents for direction in "LR"} - {None}
            parents = _convex_perms(n, k)
            assert children == set(parents), (n, k)

    def test_descendants_stay_convex(self):
        for k in (1, 2):
            for p in _convex_perms(6, k):
                for direction in "LR":
                    child = descend(p, direction, k)
                    if child is not None:
                        assert is_convex_perm(child, k)

    def test_mountain_from_coloring(self):
        p = mountain_from_coloring(5, {1, 3})
        assert p.entries == (1, 3, 5, 4, 2)
        with pytest.raises(ValueError):
            mountain_from_coloring(3, {5})


def _accepted(t, k):
    """Whether canonicalize_state takes the endpoint tuple t."""
    try:
        canonicalize_state(t, k)
    except ValueError:
        return False
    return True


def _mountain_dp(t, k):
    """Whether a k-convex mountain with endpoints t and its peak at most
    max(t) + 2 exists.

    Values 1, 2, ... go in increasing order to the ascent or to the
    descent; both are then built from their low end, the ascent must
    start a, b and the descent (read from the right) d, c, and a gap may
    grow by at most k from one step to the next.  A side is (length,
    last value, last gap).  The peak ends both sides.
    """
    a, b, c, d = t

    def place(side, v, first, second):
        size, last, gap = side
        if size == 0:
            return (1, v, None) if v == first else None
        if size == 1:
            return (2, v, v - last) if v == second else None
        return (size + 1, v, v - last) if v - last <= gap + k else None

    states = {((0, None, None), (0, None, None))}
    for v in range(1, max(t) + 3):
        if not states:
            break
        if v >= max(t) and any(place(asc, v, a, b) and place(desc, v, d, c)
                               for asc, desc in states):
            return True
        states = {pair for asc, desc in states
                  for pair in ((place(asc, v, a, b), desc),
                               (asc, place(desc, v, d, c)))
                  if all(pair)}
    return False


def _starred_pair_key(t, k):
    """The node key as first defined: star each orientation, then take
    the smaller one with None read as 0 (the forward one on a tie)."""
    def star(s):
        a, b, c, d = s
        return (a, None if b is not None and b - 2 * a <= k else b,
                None if c is not None and c - 2 * d <= k else c, d)

    return min(star(t), star(t[::-1]),
               key=lambda s: tuple(0 if v is None else v for v in s))


class TestCanonicalization:
    def test_state_key_matches_starred_pair_definition(self):
        inner = [None, *range(1, 11)]
        for k in (1, 2):
            for a, b, c, d in product(range(1, 9), inner, inner, range(1, 9)):
                t = (a, b, c, d)
                assert state_key(t, k) == _starred_pair_key(t, k), (t, k)

    def test_example_state(self):
        assert canonicalize_state((1, 2, 6, 4), 2) == (1, 2, 3, 4)

    def test_seed_is_fixed(self):
        assert canonicalize_state((1, 2, 1, 2), 1) == (1, 2, 1, 2)

    def test_idempotent(self):
        for k in (1, 2):
            for p in _convex_perms(7, k):
                s = canonicalize_state(endpoint_state(p), k)
                assert canonicalize_state(s, k) == s

    def test_unrealizable_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_state((5, 1, 1, 5), 1)

    def test_entries_below_one_are_unrealizable(self):
        for k in (1, 2):
            for t in ((0, 2, 3, 1), (1, 3, 2, -1), (1, 2, 1, 0)):
                assert realizable(t, k) is False

    def test_only_mountain_parameters(self):
        # the endpoint test is proved for k in {1, 2} only (for k = 0 it
        # would accept (1, 2, 5, 3)), so other k are rejected even for a
        # state that ends a 0-convex permutation, such as 1342
        for k in (0, 3):
            with pytest.raises(ValueError):
                canonicalize_state((1, 3, 4, 2), k)
            with pytest.raises(ValueError):
                canonicalize_state((1, 2, 1, 2), k)

    def test_accepts_exactly_the_endpoint_states(self):
        # every realizable tuple in the box ends a permutation of length
        # at most 8, so lengths up to 12 give the exact set
        box = set(product(range(1, 9), repeat=4))
        for k in (1, 2):
            ends = {endpoint_state(p) for n in range(2, 13)
                    for p in _convex_perms(n, k)}
            assert {t for t in box if _accepted(t, k)} == ends & box, k

    def test_least_concrete_matches_search_oracle(self):
        # the closed form against trying every filling of a class in
        # order: on every label of the depth-150 digraphs, and on the
        # canonical form of every realizable tuple with entries <= 12
        def expected_label(key, k):
            if key == START_KEY:
                return key
            return "".join(str(x) for x in _oracles.least_concrete(key, k))

        for k in (1, 2):
            g = build_digraph(k, depth=150)
            assert g.labels == tuple(expected_label(key, k) for key in g.nodes)
            assert hashlib.sha256("\n".join(g.labels).encode()).hexdigest() \
                == LABELS_SHA256[k, 150]
            for t in product(range(1, 13), repeat=4):
                if realizable(t, k):
                    want = t if t == (1, 2, 1, 2) else \
                        _oracles.least_concrete(state_key(t, k), k)
                    assert canonicalize_state(t, k) == want, (t, k)

    def test_labels_of_every_cutoff_digraph_match_the_search_oracle(self):
        # the closed-form fill against trying every filling in order, on
        # every ladder cutoff (1, 2, D-1, D) with D <= 20, cut and looped
        for k in (1, 2):
            for level in range(3, 21):
                for loop in (False, True)[:1 + (level >= k + 3)]:
                    g = build_digraph(k, cutoff=(1, 2, level - 1, level),
                                      loop=loop)
                    assert g.labels[0] == START_KEY
                    for key, label in zip(g.nodes[1:], g.labels[1:]):
                        least = _oracles.least_concrete(key, k)
                        assert realizable(least, k), (key, k)
                        assert label == "%d%d%d%d" % least, (key, k, loop)

    def test_labels_take_exactly_the_keys_of_realizable_tuples(self):
        # a key gets a label iff it is the key of some realizable tuple,
        # and that label is the least tuple of its class; keys with
        # entries up to 12 against the realizable tuples up to 12
        def label(key, k):
            try:
                return DescendantDigraph(k=k, nodes=(key,), edges=()).labels
            except ValueError as error:
                assert str(error) == \
                    f"no realizable representative for class {key}"
                return None

        inner = (None, *range(1, 13))
        for k in (1, 2):
            keys = {state_key(t, k) for t in product(range(1, 13), repeat=4)
                    if realizable(t, k)}
            for key in product((1, 2), inner, inner, range(1, 13)):
                got = label(key, k)
                assert (got is not None) == (key in keys), (key, k)
                if got is not None:
                    least = _oracles.least_concrete(key, k)
                    assert got == ("%d%d%d%d" % least,), (key, k)

    def test_general_states_match_value_order_dp(self):
        for k in (1, 2):
            for t in permutations(range(1, 19), 4):
                a, b, c, d = t
                if a < b and d < c:
                    assert _accepted(t, k) == _mountain_dp(t, k), (t, k)


class TestDigraph:
    def test_cut_sizes(self):
        for k, nodes in ((1, 22), (2, 23)):
            g = build_digraph(k, cutoff=DEFAULT_CUTOFF[k])
            assert len(g.nodes) == nodes

    def test_loop_adds_one_self_edge(self):
        for k in (1, 2):
            cut = build_digraph(k, cutoff=DEFAULT_CUTOFF[k])
            loop = build_digraph(k, cutoff=DEFAULT_CUTOFF[k], loop=True)
            assert len(loop.edges) == len(cut.edges) + 1
            # exactly one self-loop is added (the merged bottom class
            # already carries its own)
            cut_loops = {e for e in cut.edges if e[0] == e[1]}
            new_loops = {e for e in loop.edges if e[0] == e[1]} - cut_loops
            assert len(new_loops) == 1
            assert next(iter(new_loops))[2] == "L"

    @pytest.mark.parametrize("k", [1, 2])
    def test_return_paths_rejoin_the_ladder(self, k):
        # the lemma perm_counts rests on: the start node branches like
        # L_2, and the R edge of L_j starts a path of j - k steps that
        # runs through nodes off the ladder with one out-edge each and
        # ends at L_max(2, j-k)
        def ladder(j):
            return (1, None, None, j)

        transitions = _oracles.transitions
        assert transitions(START_KEY, k) == transitions(ladder(2), k)
        for j in range(3, 201):
            path = [child for label, child in transitions(ladder(j), k)
                    if label == "R"]
            while len(path) < j - k:
                key = path[-1]
                assert key[:3] != (1, None, None), (j, path)
                (_, child), = transitions(key, k)
                path.append(child)
            assert path[-1] == ladder(max(2, j - k)), (j, path)

    @pytest.mark.parametrize("k", [1, 2])
    def test_only_the_start_node_and_the_ladder_branch(self, k):
        for key in build_digraph(k, depth=120).nodes:
            branches = key == START_KEY or key[:3] == (1, None, None)
            assert len(_oracles.transitions(key, k)) == \
                (2 if branches else 1), key

    def test_depth_bounded_walks_match_counts(self):
        g = build_digraph(1, depth=10)
        for n in range(2, 13):
            assert 2 * walk_count(g, n) == TABLE_F1[n - 1]

    def test_matches_reference_adjacency(self):
        # the one isomorphism from the reference rows to our nodes, as
        # the label of the node each row stands for; equal edge sets
        # check strictly more than isomorphism
        row_labels = (
            "12", "1332", "1432", "1223", "1234", "1532", "1362", "1245",
            "1632", "1372", "1283", "1256", "1732", "1382", "1293", "12104",
            "1267", "1832", "1392", "12103", "12114", "12125")
        g = build_digraph(1, cutoff=DEFAULT_CUTOFF[1])
        row = {label: i for i, label in enumerate(row_labels, start=1)}
        assert sorted(g.labels) == sorted(row_labels)
        ours = [(row[g.labels[u]], row[g.labels[v]]) for u, v, _ in g.edges]
        reference = {(u, v) for u, vs in MATRIX_A_ROWS.items() for v in vs}
        assert len(ours) == len(reference)
        assert set(ours) == reference

    def test_loop_depth_must_reach_the_return_path(self):
        # The loop sits at the end of the cutoff's return path; a depth
        # bound that leaves part of that path unexpanded used to crash
        # (shallow) or misplace the loop (deeper), and now raises.
        for k, first_ok in ((1, 11), (2, 12)):
            loop = {"cutoff": DEFAULT_CUTOFF[k], "loop": True}
            for depth in range(1, first_ok):
                with pytest.raises(ValueError):
                    build_digraph(k, depth=depth, **loop)
            closure = build_digraph(k, **loop)
            for depth in (first_ok, first_ok + 1, first_ok + 5):
                g = build_digraph(k, depth=depth, **loop)
                assert (g.nodes, g.edges) == (closure.nodes, closure.edges)
            loops = [u for u, v, _ in closure.edges if u == v]
            assert [closure.labels[u] for u in loops] == \
                ["1332", {1: "12125", 2: "12135"}[k]]

    def test_closed_form_loop_node_matches_search_oracle(self):
        # loop mode is the cut digraph plus one L self-loop, at the node
        # the return-path search finds, for every ladder cutoff it allows
        for k in (1, 2):
            for level in range(3, 41):
                cutoff = (1, 2, level - 1, level)
                cut = build_digraph(k, cutoff=cutoff)
                if level < k + 3:
                    with pytest.raises(ValueError, match="loop mode"):
                        build_digraph(k, cutoff=cutoff, loop=True)
                    continue
                u = _oracles.loop_node(cut, (1, None, None, level))
                assert cut.nodes[u] == \
                    (1, None, 2 * level - 1 - k, level - 1 - k)
                loop = build_digraph(k, cutoff=cutoff, loop=True)
                assert (loop.nodes, loop.edges) == \
                    (cut.nodes, cut.edges + ((u, u, "L"),)), (k, level)

    @pytest.mark.parametrize("cutoff", [(9, 9, 9, 9), (1, 3, 3, 2),
                                        (1, 2, 9, 3), (1, 9, 3, 4)])
    def test_off_ladder_cutoff_raises_at_once(self, cutoff):
        # the ladder stays whole, so the closure would be infinite
        for k in (1, 2):
            for loop in (False, True):
                start = time.perf_counter()
                with pytest.raises(ValueError, match="ladder"):
                    build_digraph(k, cutoff=cutoff, loop=loop)
                assert time.perf_counter() - start < 1
            with pytest.raises(ValueError, match="ladder"):
                gf_bound(k, "lower", cutoff=cutoff)

    def test_dot_export(self):
        g = build_digraph(1, cutoff=DEFAULT_CUTOFF[1], loop=True)
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert 'label="12"' in dot
        # only the truncation loop is marked, not 1332's own R self-loop
        assert [line for line in dot.splitlines() if "dashed" in line] == \
            ['  n21 -> n21 [label="L", style=dashed];']
        assert '  n2 -> n2 [label="R"];' in dot

    def test_dot_matches_golden_hashes(self):
        for (k, how), digest in DOT_SHA256.items():
            if isinstance(how, int):
                g = build_digraph(k, depth=how)
            else:
                g = build_digraph(k, cutoff=DEFAULT_CUTOFF[k],
                                  loop=how == "loop")
            assert hashlib.sha256(g.to_dot().encode()).hexdigest() == \
                digest, (k, how)

    @pytest.mark.parametrize("k", [1, 2])
    def test_build_digraph_equals_the_transition_bfs(self, k):
        # the enumeration by the return-path lemma against the BFS that
        # finds every node by hashing its key, with the same errors
        def both(**kwargs):
            built = []
            for build in (build_digraph, _oracles.bfs_digraph):
                try:
                    g = build(k, **kwargs)
                except ValueError as error:
                    built.append(("ValueError", str(error)))
                else:
                    built.append((g.nodes, g.edges, g.to_dot()))
            return built

        for depth in (*range(41), 60, 150):
            ours, bfs = both(depth=depth)
            assert ours == bfs, depth
        for level in range(3, 26):
            cutoff = (1, 2, level - 1, level)
            for depth in (*range(40), None):
                for loop in (False, True):
                    ours, bfs = both(depth=depth, cutoff=cutoff, loop=loop)
                    assert ours == bfs, (level, depth, loop)
                    # the closure is built once the loop node, 2D - 3 - k
                    # steps from the start, is expanded
                    shallow = level < k + 3 or (
                        depth is not None and depth < 2 * level - 2 - k)
                    assert (ours[0] == "ValueError") == (loop and shallow), \
                        (level, depth, loop)

    def test_needs_depth_or_truncation(self):
        with pytest.raises(ValueError):
            build_digraph(1)
        with pytest.raises(ValueError):
            build_digraph(3, depth=2)
        for cutoff in (None, DEFAULT_CUTOFF[1]):
            with pytest.raises(ValueError, match="depth must be nonnegative"):
                build_digraph(1, depth=-3, cutoff=cutoff)

    def test_loop_needs_a_cutoff(self):
        for depth in (None, 0, 5):
            with pytest.raises(ValueError, match="loop mode needs"):
                build_digraph(1, depth=depth, loop=True)


def _r_edge_landing(k, j):
    """The ladder level that the R edge of L_j leads to, found by
    following the transitions through nodes with one out-edge."""
    (key,) = [child for label, child
              in _oracles.transitions((1, None, None, j), k) if label == "R"]
    while key[:3] != (1, None, None):
        (_, key), = _oracles.transitions(key, k)
    return key[3]


def _push_walks(g, steps):
    """The walk DP as first written, summed: every node pushes its count
    along its out-edges, at every step.  It serves the graphs that no
    transition model describes: the loop closures and hand-built ones."""
    out = [[] for _ in g.nodes]
    for u, v, _ in g.edges:
        out[u].append(v)
    counts = [0] * len(g.nodes)
    counts[0] = 1
    totals = [1]
    for _ in range(steps):
        nxt = [0] * len(g.nodes)
        for u, cu in enumerate(counts):
            if cu:
                for v in out[u]:
                    nxt[v] += cu
        counts = nxt
        totals.append(sum(counts))
    return totals


class TestWalks:
    def test_depth_bounded_graphs(self):
        # the walks over the transitions from 12, with no digraph built;
        # past the depth, the unexpanded frontier has no out-edges
        for k in (1, 2):
            g = build_digraph(k, depth=40)
            assert walks(g, 40) == \
                _oracles.subgraph_walks(k, START_KEY, 40, set(), [])[0]
            assert walks(g, 45) == _push_walks(g, 45)

    def test_truncation_closures(self):
        for k in (1, 2):
            # the cut closure drops the cutoff's L edge and nothing else
            cut = {(state_key(DEFAULT_CUTOFF[k], k), "L")}
            assert walks(build_digraph(k, cutoff=DEFAULT_CUTOFF[k]), 59) == \
                _oracles.subgraph_walks(k, START_KEY, 59, cut, [])[0]
            g = build_digraph(k, cutoff=DEFAULT_CUTOFF[k], loop=True)
            assert walks(g, 60) == _push_walks(g, 60)

    def test_hand_built_graph(self):
        # a double edge 0 -> 1, a self-loop at 1, a back edge 2 -> 0, and
        # node 3, never reached, with an edge into the reachable part
        g = DescendantDigraph(k=1, nodes=(START_KEY, "x", "y", "z"), edges=(
            (0, 1, "L"), (0, 1, "R"), (1, 1, "L"), (1, 2, "R"), (2, 0, "L"),
            (3, 1, "L")))
        assert walks(g, 12) == _push_walks(g, 12)
        assert walks(g, 3) == [1, 2, 4, 6]
        lone = DescendantDigraph(k=1, nodes=(START_KEY,), edges=())
        assert walks(lone, 3) == _push_walks(lone, 3) == [1, 0, 0, 0]

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.sampled_from("LR")), max_size=20),
        st.integers(0, 12))))
    def test_random_graphs(self, case):
        n, edges, steps = case
        g = DescendantDigraph(k=1, nodes=tuple(range(n)), edges=tuple(edges))
        assert walks(g, steps) == _push_walks(g, steps)


def _bound_denominators():
    """The denominators of the four bound GFs and of the k = 1 lower one
    cut at (1, 2, 7, 8), each with its golden root interval."""
    pairs = [(gf_bound(k, side).den, ROOT_INTERVALS[k, side])
             for k, side in ROOT_INTERVALS]
    cut = gf_bound(1, "lower", cutoff=(1, 2, 7, 8)).den
    return pairs + [(cut, CUTOFF_1278_ROOT)]


class TestGrowthBounds:
    @pytest.mark.parametrize("k,side", list(BOUND_GF))
    def test_gf_matches_reference(self, k, side):
        order = 30
        nd, dd = BOUND_GF[(k, side)]
        reference = RationalFunction(from_terms(nd), from_terms(dd))
        x = TruncatedSeries.monomial(1, order)
        # reference series counts half-walks; rescale to full counts
        expected = (1 + x
                    + 2 * x * x * to_series(reference, order))
        assert to_series(gf_bound(k, side), order) == expected

    def test_matches_resolvent_elimination(self):
        # a second route: 1 + x + 2 x^2 W, for W the start row of
        # (I - xA)^{-1} (one Berlekamp-Massey fit per vertex, where
        # gf_bound fits the walk totals) summed in the oracle ring, whose
        # rows test_resolvent_row_inverts_the_system checks exactly
        g = build_digraph(2, cutoff=DEFAULT_CUTOFF[2], loop=True)
        walks = _oracles.rf_sum(
            matrix_resolvent_row(_oracles.adjacency(g), 0))
        num, den = walks.num.coeffs, walks.den.coeffs
        expected = _oracles.reduced(_oracles.q_add(
            _oracles.q_mul([1, 1], den), _oracles.q_mul([0, 0, 2], num)), den)
        assert gf_bound(2, "upper") == expected

    def test_resolvent_builds_one_canonical_form_per_entry(
            self, monkeypatch):
        # the resolvent counts walks in integers, so the only canonical
        # forms it builds are the entries that Berlekamp-Massey returns
        m = _oracles.adjacency(build_digraph(1, cutoff=DEFAULT_CUTOFF[1]))
        built = []

        def init(self, *args, init=RationalFunction.__init__):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(RationalFunction, "__init__", init)
        row = matrix_resolvent_row(m, 0)
        monkeypatch.undo()
        text = "\n".join(f"{e.num} / {e.den}" for e in row)
        assert hashlib.sha256(text.encode()).hexdigest() == RESOLVENT_ROW_SHA256
        assert len(built) == RESOLVENT_CONSTRUCTIONS == len(row)
        assert all(b is e for b, e in zip(built, row))

    def test_lower_bound_undercounts_only_eventually(self):
        lower = to_series(gf_bound(1, "lower"), 20).coeffs
        for n in range(1, 13):
            assert lower[n] <= TABLE_F1[n - 1]
        for n in range(1, 8):
            assert lower[n] == TABLE_F1[n - 1]  # exact before the cut bites
        assert lower[8] < TABLE_F1[7]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the published loop truncation does not "
                              "dominate: its totals fall below f_k(n) from "
                              "n = 8 (k = 1) and n = 9 (k = 2) on")
    def test_loop_truncation_dominates_the_counts(self):
        for k in (1, 2):
            upper = to_series(gf_bound(k, "upper"), 250).coeffs
            f = perm_counts(k, 250)
            assert all(upper[n] >= f[n - 1] for n in range(1, 251)), k

    @pytest.mark.parametrize("k", [1, 2])
    def test_certified_roots_and_rates(self, k):
        gb = growth_bounds(k, precision=20)
        for side, (lo, hi, den) in (("lower", gb.lower_root),
                                    ("upper", gb.upper_root)):
            lo, hi = Fraction(lo, den), Fraction(hi, den)
            target = root_fraction(k, side)
            assert hi - lo < Fraction(1, 10**20)
            assert abs((lo + hi) / 2 - target) < Fraction(1, 10**18), \
                (k, side, ROOT_DIGITS[(k, side)])
        assert abs(float(gb.lower_rate) - RATES[(k, "lower")]) < 1e-9
        assert abs(float(gb.upper_rate) - RATES[(k, "upper")]) < 1e-9
        assert float(gb.lower_rate) < float(gb.upper_rate)


    @pytest.mark.parametrize("k", [1, 2])
    def test_root_intervals_are_exact_goldens(self, k):
        gb = growth_bounds(k, precision=20)
        for root, side in ((gb.lower_root, "lower"), (gb.upper_root, "upper")):
            lo, hi, den = root
            assert (Fraction(lo, den), Fraction(hi, den)) \
                == ROOT_INTERVALS[(k, side)]
            assert all(type(end) is int for end in root) and den > 0

    def test_cutoff_root_interval_is_exact_golden(self):
        den = gf_bound(1, "lower", cutoff=(1, 2, 7, 8)).den
        assert smallest_positive_root(den, 20) == CUTOFF_1278_ROOT

    @pytest.mark.parametrize("precision", [1, 7, 60])
    def test_bound_roots_match_rational_oracle(self, precision):
        # the goldens above pin precision 20; the same five denominators
        # at the extremes, where at 60 the bisection's denominator
        # reaches about 200 bits (too slow for a hypothesis example
        # within its deadline)
        for den, _ in _bound_denominators():
            assert smallest_positive_root(den, precision) == \
                _oracles.smallest_positive_root(den.coeffs, precision)

    @pytest.mark.parametrize("call", [lambda: growth_bounds(3),
                                      lambda: gf_bound(0, "lower")])
    def test_bad_k_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="k in"):
            call()

    def test_bad_precision_is_rejected_before_any_digraph(self, monkeypatch):
        def no_digraph(*args, **kwargs):
            raise AssertionError("a digraph was built")

        monkeypatch.setattr(perms, "build_digraph", no_digraph)
        with pytest.raises(ValueError, match="precision"):
            growth_bounds(1, 0)


class TestSubadditivity:
    def test_report_lists_violations(self):
        report = check_subadditivity(2, 12)
        assert not report["holds"]
        assert (6, 6, 1088, 900) in report["violations"]
        # every listed violation is a genuine inequality failure
        f = [None, *perm_counts(2, 12)]
        for m, n, f_mn, bound in report["violations"]:
            assert (f_mn, bound) == (f[m + n], f[m] * f[n])
            assert f[m + n] > f[m] * f[n]


@pytest.mark.parametrize("call,message", [
    (lambda: f0_closed(0), "n must be at least 1"),
    (lambda: count_perms_digraph(1, 0), "n must be at least 1"),
    (lambda: descend(Permutation((1, 2)), "U", 1),
     "direction must be 'L' or 'R'"),
    (lambda: endpoint_state(Permutation((1,))), "need length at least 2"),
    (lambda: walk_count(build_digraph(1, depth=0), 1),
     "walk counts are defined for n >= 2"),
    (lambda: gf_bound(1, "middle"), "side must be 'lower' or 'upper'"),
    (lambda: DescendantDigraph(k=1, nodes=(START_KEY, (2, None, None, 3)),
                               edges=()).labels,
     "no realizable representative for class (2, None, None, 3)"),
    (lambda: DescendantDigraph(k=1, nodes=(START_KEY, (1, 5, 9, 3)),
                               edges=()).labels,
     "no realizable representative for class (1, 5, 9, 3)"),
], ids=["f0_closed", "count_perms_digraph", "descend", "endpoint_state",
        "walk_count", "gf_bound", "labels", "labels_both_inner_concrete"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
