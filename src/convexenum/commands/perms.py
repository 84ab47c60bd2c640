"""The ``convexenum perms`` subcommands."""

from __future__ import annotations

from convexenum import ladder, perms
from convexenum.exact import roots


def _perms_count(args):
    yield "bruteforce", perms.count_perms_bruteforce(args.n, args.k)
    if args.k == 0:
        yield "closed_form", perms.f0_closed(args.n)
    elif args.k in (1, 2):
        yield "digraph", perms.count_perms_digraph(args.k, args.n)
    else:  # nothing cross-checks the search
        yield "skipped", ["closed_form (k must be 0)",
                          "digraph (k must be 1 or 2)"]


def _perms_table(args):
    f1 = ladder.perm_counts(1, args.max_n)
    f2 = ladder.perm_counts(2, args.max_n)
    for n in range(1, args.max_n + 1):
        yield f"n={n}", [perms.f0_closed(n), f1[n - 1], f2[n - 1]]


def _perms_bounds(args):
    gb = perms.growth_bounds(args.k, args.precision)
    for side, gf in (("lower", gb.lower_gf), ("upper", gb.upper_gf)):
        yield f"{side}_gf_num", str(gf.num)
        yield f"{side}_gf_den", str(gf.den)
    digits = min(args.precision, 20)
    yield "lower_gf_root", roots.render_interval(*gb.lower_root, digits)
    yield "upper_gf_root", roots.render_interval(*gb.upper_root, digits)
    yield "rate_lower_bound", gb.lower_rate
    yield "rate_upper_bound", gb.upper_rate


def _perms_digraph(args):
    cutoff = perms.DEFAULT_CUTOFF.get(args.k) if args.truncate else None
    g = perms.build_digraph(args.k, depth=args.depth, cutoff=cutoff,
                            loop=args.truncate == "loop")
    yield "nodes", len(g.nodes)
    yield "edges", len(g.edges)
    yield "dot", g.to_dot()


def _perms_subadd(args):
    report = perms.check_subadditivity(args.k, args.max_n)
    yield "holds", report["holds"]
    yield "violations", [f"m={m} n={n} f={f} bound={bound}"
                         for m, n, f, bound in report["violations"]]


_INT = {"type": int, "required": True}
_MAX_N = {"type": int, "default": 12}

#: subcommand -> (handler, engines, options), as in
#: :mod:`convexenum.commands.words`
COMMANDS = {
    "count": (_perms_count, ("bruteforce", "closed_form", "digraph"),
              {"n": _INT, "k": _INT}),
    "table": (_perms_table, ("closed_form", "digraph"), {"max_n": _MAX_N}),
    "bounds": (_perms_bounds, ("digraph", "walk_dp", "berlekamp_massey"),
               {"k": _INT, "precision": {"type": int, "default": 20}}),
    "digraph": (_perms_digraph, ("digraph",), {
        "k": _INT, "depth": {"type": int},
        "truncate": {"choices": ["cut", "loop"]},
        "dot": {"action": "store_true",
                "help": "emit raw DOT instead of a record"}}),
    "subadd": (_perms_subadd, ("digraph",), {"k": _INT, "max_n": _MAX_N}),
}
