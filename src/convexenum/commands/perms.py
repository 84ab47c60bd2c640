"""The ``convexenum perms`` subcommands."""

from __future__ import annotations

from convexenum import ladder, perms
from convexenum.exact import roots


def _perms_count(args, rec):
    engines = {"bruteforce": perms.count_perms_bruteforce(args.n, args.k)}
    if args.k == 0:
        engines["closed_form"] = perms.f0_closed(args.n)
    elif args.k in (1, 2):
        engines["digraph"] = perms.count_perms_digraph(args.k, args.n)
    rec.add_agreement(engines)
    if len(engines) == 1:  # nothing cross-checks the search
        rec.add("skipped", ["closed_form (k must be 0)",
                            "digraph (k must be 1 or 2)"])


def _perms_table(args, rec):
    f1 = ladder.perm_counts(1, args.max_n)
    f2 = ladder.perm_counts(2, args.max_n)
    for n in range(1, args.max_n + 1):
        rec.add(f"n={n}", [perms.f0_closed(n), f1[n - 1], f2[n - 1]])


def _perms_bounds(args, rec):
    gb = perms.growth_bounds(args.k, args.precision)
    for side, gf in (("lower", gb.lower_gf), ("upper", gb.upper_gf)):
        rec.add(f"{side}_gf_num", str(gf.num))
        rec.add(f"{side}_gf_den", str(gf.den))
    digits = min(args.precision, 20)
    rec.add("lower_gf_root", roots.render_interval(*gb.lower_root, digits))
    rec.add("upper_gf_root", roots.render_interval(*gb.upper_root, digits))
    rec.add("rate_lower_bound", gb.lower_rate)
    rec.add("rate_upper_bound", gb.upper_rate)


def _perms_digraph(args, rec):
    cutoff = perms.DEFAULT_CUTOFF.get(args.k) if args.truncate else None
    g = perms.build_digraph(args.k, depth=args.depth, cutoff=cutoff,
                            loop=args.truncate == "loop")
    rec.add("nodes", len(g.nodes))
    rec.add("edges", len(g.edges))
    rec.add("dot", g.to_dot())


def _perms_subadd(args, rec):
    report = perms.check_subadditivity(args.k, args.max_n)
    rec.add("holds", report["holds"])
    rec.add("violations", [f"m={m} n={n} f={f} bound={bound}"
                           for m, n, f, bound in report["violations"]])


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
