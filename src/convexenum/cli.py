"""Command-line front end for the convexenum library.

Grammar: ``convexenum <words|perms|cfrac> <subcommand> [--flags]``.

Every numeric value is rendered exactly: integers verbatim, rationals
as num/den, root intervals as decimal strings with explicit endpoints.
Commands that run more than one engine report their agreement in-band
and exit nonzero on a mismatch; an engine that cannot run is named
in-band as skipped.  Each group's subcommands and their handlers live
in its module of :mod:`convexenum.commands`, which never imports this
one: run as ``python -m convexenum.cli``, this file would otherwise
compile twice.
"""

from __future__ import annotations

import argparse
import gc
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
    "convexenum.exact.coefficients", "convexenum.exact.polynomial",
    "convexenum.exact.series", "convexenum.exact.ratfun",
    "convexenum.exact.roots", "convexenum.exact.linalg", "convexenum.search",
    "convexenum.words", "convexenum.ladder", "convexenum.perms",
    "convexenum.cfrac")

# every command runs a module built on ``frozen``, so it runs with the
# CLI's own start-up rather than inside the command
import convexenum.frozen  # noqa: E402,F401


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

    def add_series(self, engine: str, s) -> None:
        """Report the coefficients of the ``TruncatedSeries`` ``s``."""
        self.provenance = [engine]
        self.add("coefficients", [str(c) for c in s.coeffs])

    def add_agreement(self, engines: dict) -> None:
        """Report each engine's value and, when more than one ran, whether
        they agree; exit 1 if not."""
        self.provenance = list(engines)
        for name, value in engines.items():
            self.add(name, value)
        if len(engines) > 1:
            agree = len(set(engines.values())) == 1
            self.add("agree", agree)
            self.exit_code = 0 if agree else 1


def _render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dict(
            command=record.command, parameters=record.parameters,
            results=record.results, provenance=record.provenance),
            indent=2) + "\n"  # each (name, value) pair is an array
    sep = ";" if fmt == "csv" else ", "  # between the items of a list
    results = [(name, sep.join(map(str, value))
                if isinstance(value, (list, tuple)) else value)
               for name, value in record.results]
    if fmt == "csv":
        import csv  # here, so that start-up does not pay for it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value"])
        writer.writerows(results)
        return buf.getvalue()
    lines = [record.command]
    if record.parameters:
        params = " ".join(f"{k}={v}" for k, v in record.parameters.items())
        lines.append(f"  parameters: {params}")
    if record.provenance:
        lines.append(f"  engines: {', '.join(record.provenance)}")
    lines += (f"  {name}: {value}" for name, value in results)
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


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

#: group -> its help; the subcommands of a group and their handlers are
#: the ``COMMANDS`` of its module in :mod:`convexenum.commands`
GROUPS = {
    "words": "locally convex words",
    "perms": "locally convex permutations",
    "cfrac": "continued-fraction series",
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
    with every entry (``build_parser()``).  A group's subcommands are
    read from its module in :mod:`convexenum.commands`, imported only
    when the group is declared, so one command imports one of them."""
    argv = list(argv)
    parser = argparse.ArgumentParser(
        prog="convexenum",
        description="Enumeration of locally convex words and permutations.")
    top, groups = _level(parser, "group", GROUPS, argv)
    for group in groups:
        commands = importlib.import_module(f"convexenum.commands.{group}")
        sub, names = _level(top.add_parser(group, help=GROUPS[group]),
                            "subcommand", commands.COMMANDS, argv[1:])
        for name in names:
            _command(sub, name, *commands.COMMANDS[name])
    return parser


# parsed arguments that select the handler or the output, not the result
_NOT_PARAMETERS = {"group", "subcommand", "handler", "json", "csv", "out", "dot"}


def main(argv=None) -> int:
    """Run one command; exit 0 on success, 1 when engines disagree, 2
    on a usage, input or output error (one ``error:`` line on stderr)
    and 3 on an internal error (its traceback on stderr).

    Once the command is done, ``main`` freezes the heap
    (``gc.freeze()``): what it leaves lives until the process exits, so
    the cyclic collector, and the full collections at shutdown, skip
    it, while reference counting still frees it.  A caller that runs
    ``main`` inside a long-lived process calls ``gc.unfreeze()`` if it
    wants those objects collected again."""
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
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
