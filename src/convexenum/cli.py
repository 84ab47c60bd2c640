"""Command-line front end for the convexenum library.

Grammar: ``convexenum <words|perms|cfrac> <subcommand> [--flags]``.

Every numeric value is rendered exactly: integers verbatim, rationals
as num/den, root intervals as decimal strings with explicit endpoints.
Commands that run more than one engine report their agreement in-band
and exit nonzero on a mismatch; an engine that cannot run is named
in-band as skipped.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys


def _register_lazily(*names: str) -> None:
    """Put each named module in ``sys.modules``, and on its parent
    package, without compiling or running it: that happens the first
    time one of its attributes is read, so a command compiles only the
    modules it runs.  A module already imported is left as it is."""
    for name in names:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)


# the library's modules, but for the package inits and ``frozen``,
# which every other one imports when it runs
_register_lazily(
    "convexenum.exact.polynomial", "convexenum.exact.series",
    "convexenum.exact.ratfun", "convexenum.exact.roots",
    "convexenum.exact.linalg", "convexenum.words", "convexenum.ladder",
    "convexenum.perms", "convexenum.cfrac")

# every command runs a module built on ``frozen``, so it runs with the
# CLI's own start-up rather than inside the command
import convexenum.frozen  # noqa: E402,F401
from convexenum import DEFAULT_ORDER, cfrac, perms, words  # noqa: E402
from convexenum.exact import roots, series  # noqa: E402


class OutputRecord:
    """Machine-readable result of one CLI invocation."""

    __slots__ = ("command", "parameters", "results", "provenance", "exit_code")

    def __init__(self, command: str, parameters: dict):
        self.command = command
        self.parameters = parameters
        self.results = []
        self.provenance = []
        self.exit_code = 0

    def add(self, name: str, value) -> None:
        self.results.append((name, value))

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "results": [[name, value] for name, value in self.results],
            "provenance": self.provenance,
        }


def _render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record.to_dict(), indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        import csv  # here, so that start-up does not pay for it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value"])
        for name, value in record.results:
            if isinstance(value, (list, tuple)):
                value = ";".join(str(v) for v in value)
            writer.writerow([name, value])
        return buf.getvalue()
    lines = [f"{record.command}"]
    if record.parameters:
        params = " ".join(f"{k}={v}" for k, v in record.parameters.items())
        lines.append(f"  parameters: {params}")
    if record.provenance:
        lines.append(f"  engines: {', '.join(record.provenance)}")
    for name, value in record.results:
        if isinstance(value, (list, tuple)):
            value = ", ".join(str(v) for v in value)
        lines.append(f"  {name}: {value}")
    return "\n".join(lines) + "\n"


def _emit(record: OutputRecord, args) -> int:
    if getattr(args, "dot", False):
        text = record.results[-1][1]  # DOT source prepared by the command
    else:
        fmt = "json" if args.json else "csv" if args.csv else "text"
        text = _render(record, fmt)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return record.exit_code


def _parse_partition(text: str) -> words.IntegerPartition:
    if not text:
        return words.IntegerPartition(())
    parts = tuple(sorted(int(x) for x in text.split(",")))
    return words.IntegerPartition(parts)


def _parse_letters(text: str) -> tuple:
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return tuple(int(ch) for ch in text)


def _add_series(rec: OutputRecord, engine: str,
                s: series.TruncatedSeries) -> None:
    rec.provenance = [engine]
    rec.add("coefficients", [str(c) for c in s.coeffs])


def _add_agreement(rec: OutputRecord, engines: dict) -> None:
    """Report each engine's value and, when more than one ran, whether
    they agree; exit 1 if not."""
    rec.provenance = list(engines)
    for name, value in engines.items():
        rec.add(name, value)
    if len(engines) > 1:
        agree = len(set(engines.values())) == 1
        rec.add("agree", agree)
        rec.exit_code = 0 if agree else 1


# ---------------------------------------------------------------------------
# subcommand handlers: each fills the record main() built from its arguments
# ---------------------------------------------------------------------------

def _words_count(args, rec):
    _add_agreement(rec, {
        "bruteforce": words.count_words_bruteforce(args.n, args.p, args.k),
        "dp": words.count_words_dp(args.n, args.p, args.k)})


def _words_gf(args, rec):
    _add_series(rec, "dp", words.word_gf(args.p, args.k, args.order).series)


def _words_stable(args, rec):
    rec.provenance = ["dp"]
    rec.add("stable_count", words.g0p_stable(args.p))


def _words_encode(args, rec):
    w = words.encode_word(args.m, _parse_partition(args.w1),
                          _parse_partition(args.w2), args.n, p=args.p)
    rec.provenance = ["bijection"]
    rec.add("word", str(w))


def _words_decode(args, rec):
    m, w1, w2 = words.decode_word(words.Word(_parse_letters(args.word), args.p))
    rec.provenance = ["bijection"]
    rec.add("m", m)
    rec.add("w1", str(w1))
    rec.add("w2", str(w2))


def _perms_count(args, rec):
    engines = {"bruteforce": perms.count_perms_bruteforce(args.n, args.k)}
    if args.k == 0:
        engines["closed_form"] = perms.f0_closed(args.n)
    elif args.k in (1, 2):
        engines["digraph"] = perms.count_perms_digraph(args.k, args.n)
    _add_agreement(rec, engines)
    if len(engines) == 1:  # nothing cross-checks the search
        rec.add("skipped", "digraph (k must be 1 or 2)")


def _perms_table(args, rec):
    rec.provenance = ["closed_form", "digraph"]
    f1 = perms.perm_counts(1, args.max_n)
    f2 = perms.perm_counts(2, args.max_n)
    for n in range(1, args.max_n + 1):
        rec.add(f"n={n}", [perms.f0_closed(n), f1[n - 1], f2[n - 1]])


def _perms_bounds(args, rec):
    gb = perms.growth_bounds(args.k, args.precision)
    rec.provenance = ["digraph", "walk_dp", "berlekamp_massey"]
    rec.add("lower_gf_num", str(gb.lower_gf.num))
    rec.add("lower_gf_den", str(gb.lower_gf.den))
    rec.add("upper_gf_num", str(gb.upper_gf.num))
    rec.add("upper_gf_den", str(gb.upper_gf.den))
    digits = min(args.precision, 20)
    rec.add("lower_gf_root", roots.render_interval(*gb.lower_root, digits))
    rec.add("upper_gf_root", roots.render_interval(*gb.upper_root, digits))
    rec.add("rate_lower_bound", gb.lower_rate)
    rec.add("rate_upper_bound", gb.upper_rate)


def _perms_digraph(args, rec):
    g = perms.build_digraph(
        args.k, depth=args.depth,
        cutoff=perms.DEFAULT_CUTOFF.get(args.k) if args.truncate else None,
        loop=args.truncate == "loop")
    rec.provenance = ["digraph"]
    rec.add("nodes", len(g.nodes))
    rec.add("edges", len(g.edges))
    rec.add("dot", g.to_dot())


def _perms_subadd(args, rec):
    report = perms.check_subadditivity(args.k, args.max_n)
    rec.provenance = ["digraph"]
    rec.add("holds", report["holds"])
    rec.add("violations", [f"m={m} n={n} f={f} bound={bound}"
                           for m, n, f, bound in report["violations"]])


def _cfrac_series(args, rec):
    engine = {"bot": cfrac.bot_series, "tot": cfrac.tot_series,
              "f1": cfrac.f1_series}[args.subcommand]
    _add_series(rec, "cfrac", engine(args.order))


def _cfrac_f2check(args, rec):
    report = cfrac.f2_formula_check(args.order)
    rec.provenance = ["cfrac", "digraph"]
    for name, value in report.items():
        rec.add(name, [str(v) for v in value] if isinstance(value, list)
                else value)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_INT = {"type": int, "required": True}
_ORDER = {"type": int, "default": DEFAULT_ORDER}
_MAX_N = {"type": int, "default": 12}

#: group -> (its help, {subcommand -> (handler, options)}), where the
#: options map each destination to its ``add_argument`` keywords, in
#: the order they are declared
COMMANDS = {
    "words": ("locally convex words", {
        "count": (_words_count, {"n": _INT, "p": _INT, "k": _INT}),
        "gf": (_words_gf, {"p": _INT, "k": _INT, "order": _ORDER}),
        "stable": (_words_stable, {"p": _INT}),
        "encode": (_words_encode, {"p": _INT, "m": _INT, "w1": {"default": ""},
                                   "w2": {"default": ""}, "n": _INT}),
        "decode": (_words_decode, {"word": {"required": True}, "p": _INT}),
    }),
    "perms": ("locally convex permutations", {
        "count": (_perms_count, {"n": _INT, "k": _INT}),
        "table": (_perms_table, {"max_n": _MAX_N}),
        "bounds": (_perms_bounds, {"k": _INT,
                                   "precision": {"type": int, "default": 20}}),
        "digraph": (_perms_digraph, {
            "k": _INT, "depth": {"type": int},
            "truncate": {"choices": ["cut", "loop"]},
            "dot": {"action": "store_true",
                    "help": "emit raw DOT instead of a record"}}),
        "subadd": (_perms_subadd, {"k": _INT, "max_n": _MAX_N}),
    }),
    "cfrac": ("continued-fraction series", {
        "bot": (_cfrac_series, {"order": _ORDER}),
        "tot": (_cfrac_series, {"order": _ORDER}),
        "f1": (_cfrac_series, {"order": _ORDER}),
        "f2check": (_cfrac_f2check, {"order": _ORDER}),
    }),
}


def _command(subparsers, name: str, handler, options: dict) -> None:
    """Declare one subcommand: its options in order, the output flags
    shared by every subcommand, and the handler that fills its record.
    A ``dot`` option is an output format, exclusive with JSON and CSV."""
    p = subparsers.add_parser(name)
    fmt = p.add_mutually_exclusive_group()
    for dest, spec in options.items():
        (fmt if dest == "dot" else p).add_argument(
            "--" + dest.replace("_", "-"), **spec)
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--out", help="write output to a file")
    p.set_defaults(handler=handler)


def _level(parser, dest: str, table: dict, argv: list):
    """Add the ``dest`` level of subparsers to ``parser``; return it and
    the entries of ``table`` to declare there: the one that ``argv[0]``
    names, or all of them when it names none.  With one entry, the
    metavar lists them all, so the usage line of an "unrecognized
    arguments" error is unchanged; with all, errors that name the level
    itself (a missing or unknown entry) still call it ``dest``."""
    if argv and argv[0] in table:
        metavar = "{" + ",".join(table) + "}"
        return parser.add_subparsers(dest=dest, required=True,
                                     metavar=metavar), argv[:1]
    return parser.add_subparsers(dest=dest, required=True), list(table)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``: at each level it declares only the entry
    that ``argv`` names there (the group ``argv[0]``, then the
    subcommand ``argv[1]``), or every entry when it names none, so one
    command builds three parsers.  argparse reads only the named
    entries, and wherever a name is missing or unknown every sibling is
    declared, so ``--help`` and usage errors are those of the parser
    with every entry (``build_parser()``)."""
    argv = list(argv)
    parser = argparse.ArgumentParser(
        prog="convexenum",
        description="Enumeration of locally convex words and permutations.")
    top, groups = _level(parser, "group", COMMANDS, argv)
    for group in groups:
        about, commands = COMMANDS[group]
        sub, names = _level(top.add_parser(group, help=about), "subcommand",
                            commands, argv[1:])
        for name in names:
            _command(sub, name, *commands[name])
    return parser


# parsed arguments that select the handler or the output, not the result
_NOT_PARAMETERS = {"group", "subcommand", "handler", "json", "csv", "out", "dot"}


def main(argv=None) -> int:
    """Run one command; exit 0 on success, 1 when engines disagree, 2
    on a usage, input or output error (one ``error:`` line on stderr)
    and 3 on an internal error (its traceback on stderr)."""
    if argv is None:  # the console script
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    record = OutputRecord(
        f"{args.group} {args.subcommand}",
        {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS})
    try:
        args.handler(args, record)
        return _emit(record, args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here, so that start-up does not pay for it
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
