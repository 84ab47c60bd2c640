"""Command-line front end for the convexenum library.

Grammar: ``convexenum <words|perms|cfrac> <subcommand> [--flags]``.

Integers are printed verbatim, and closed forms as polynomial
expressions; no command prints a rational.  A root interval prints as
its two endpoints, each truncated to ``--precision`` decimal places (at
most 20), so the printed interval can miss the certified root it
stands for (the strict xfail
``test_bounds_print_intervals_that_contain_the_roots``).  Outward
rounding mends that, but it changes results that
``perfbench/reference.json`` pins, so it waits on the benchmark's next
revision (ROADMAP item 1, stage C).
Each group's subcommands and their handlers live in its module of
:mod:`convexenum.commands`, which never imports this one: run as
``python -m convexenum.cli``, this file would otherwise compile twice.
The parsers read only a row's options, so the parsed arguments hold
the group, the subcommand and the option values, and :func:`main`
looks up the row's handler and engines itself.  A record's parameters
are the row's options, in row order, less the output formats.  A
handler yields ``(name, value)`` results, and ``main`` builds the
record from them by one rule over the row's engines: a result named
after one of them is its value; when more than one engine reports,
``main`` appends whether they ``agree`` and exits 1 if not; and the
record names the engines that reported, or the whole row when none
did.  A handler names an engine that cannot run in-band as skipped.
"""

from __future__ import annotations

import gc
import importlib.util
import io
import sys
from types import SimpleNamespace


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


def _render(record: dict, fmt: str) -> str:
    if fmt == "json":
        import json  # here, so that start-up does not pay for it
        # each (name, value) pair is an array
        return json.dumps(record, indent=2) + "\n"
    sep = ";" if fmt == "csv" else ", "  # between the items of a list
    results = [(name, sep.join(map(str, value))
                if isinstance(value, (list, tuple)) else value)
               for name, value in record["results"]]
    if fmt == "csv":
        import csv  # here, so that start-up does not pay for it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value"])
        writer.writerows(results)
        return buf.getvalue()
    params = " ".join(f"{k}={v}" for k, v in record["parameters"].items())
    lines = [record["command"], f"  parameters: {params}",
             f"  engines: {', '.join(record['provenance'])}"]
    lines += (f"  {name}: {value}" for name, value in results)
    return "\n".join(lines) + "\n"


def _emit(record: dict, args) -> None:
    if getattr(args, "dot", False):
        text = record["results"][-1][1]  # DOT source prepared by the command
    else:
        fmt = "json" if args.json else "csv" if args.csv else "text"
        text = _render(record, fmt)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


#: the options every subcommand takes after its own, in this order: two
#: output formats and the output file
OUTPUT = {
    "json": {"action": "store_true", "help": "emit JSON"},
    "csv": {"action": "store_true", "help": "emit CSV"},
    "out": {"help": "write output to a file"},
}

#: the output formats, of which a command takes at most one; ``dot`` is
#: a subcommand's own
_FORMATS = {"json", "csv", "dot"}


def build_parser():
    """The ``argparse`` parser of every group and subcommand, each
    group's read from its module in :mod:`convexenum.commands`: a
    subcommand declares its row's options in order, then ``OUTPUT``,
    and its output formats are mutually exclusive.  It
    reads what :func:`fast_parse` declines: help, usage errors and the
    spellings only argparse reads, so a well-formed command never
    imports ``argparse``, and ``--help`` at any level imports every
    group's module."""
    import argparse  # here, so that a well-formed command never loads it
    parser = argparse.ArgumentParser(
        prog="convexenum",
        description="Enumeration of locally convex words and permutations.")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, text in GROUPS.items():
        commands = importlib.import_module(f"convexenum.commands.{group}")
        sub = groups.add_parser(group, help=text).add_subparsers(
            dest="subcommand", required=True)
        for name, (_, _, options) in commands.COMMANDS.items():
            p = sub.add_parser(name)
            fmt = p.add_mutually_exclusive_group()
            for dest, spec in {**options, **OUTPUT}.items():
                (fmt if dest in _FORMATS else p).add_argument(
                    "--" + dest.replace("_", "-"), **spec)
    return parser


def fast_parse(argv: list):
    """``build_parser().parse_args(argv)`` for a well-formed ``argv``,
    read from the ``COMMANDS`` table of the group it names: the same
    namespace of the group, the subcommand and the option values, its
    keys in the same order.  Well-formed is a known group and
    subcommand, then each option at most once as ``--name value`` (a
    flag alone), each value converted by the option's ``type`` and
    among its ``choices`` and not starting with ``-``, every required
    option given, and at most one output format.
    For any other ``argv`` it returns None: help, usage errors,
    ``--name=value``, abbreviations, a repeated option and a value
    that starts with ``-`` (a negative number among them) are left to
    argparse, the one reader of those spellings, so its messages and
    exit codes are the only ones."""
    if len(argv) < 2 or argv[0] not in GROUPS:
        return None
    commands = importlib.import_module(
        f"convexenum.commands.{argv[0]}").COMMANDS
    if argv[1] not in commands:
        return None
    options = {**commands[argv[1]][2], **OUTPUT}
    dests = {"--" + dest.replace("_", "-"): dest for dest in options}
    flags = {dest for dest, spec in options.items()
             if spec.get("action") == "store_true"}
    values = {dest: spec.get("default", False if dest in flags else None)
              for dest, spec in options.items()}
    seen = set()
    tokens = iter(argv[2:])
    for token in tokens:
        dest = dests.get(token)
        if dest is None or dest in seen:
            return None
        seen.add(dest)
        if dest in flags:
            values[dest] = True
            continue
        spec = options[dest]
        value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        try:
            value = spec.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    if len(seen & _FORMATS) > 1 or any(
            spec.get("required") and dest not in seen
            for dest, spec in options.items()):
        return None
    return SimpleNamespace(group=argv[0], subcommand=argv[1], **values)


def main(argv=None) -> int:
    """Run one command; exit 0 on success, 1 when engines disagree, 2
    on a usage, input or output error (one ``error:`` line on stderr)
    and 3 on an internal error (its traceback on stderr).

    A well-formed command is read from the ``COMMANDS`` tables by
    :func:`fast_parse`; ``argparse`` reads any other ``argv``
    (:func:`build_parser`), so help, usage errors and their exit codes
    are its own, and so is a negative value (``--k -1`` as
    ``--k=-1``).  Either parser gives only the option values; ``main``
    takes the handler, engines and options from the subcommand's
    ``COMMANDS`` row.

    Once the command is done, ``main`` freezes the heap
    (``gc.freeze()``): what it leaves lives until the process exits, so
    the cyclic collector, and the full collections at shutdown, skip
    it, while reference counting still frees it.  A caller that runs
    ``main`` inside a long-lived process calls ``gc.unfreeze()`` if it
    wants those objects collected again."""
    if argv is None:  # the console script
        argv = sys.argv[1:]
    args = fast_parse(argv) or build_parser().parse_args(argv)
    try:
        handler, engines, options = importlib.import_module(
            f"convexenum.commands.{args.group}").COMMANDS[args.subcommand]
        results = list(handler(args))
        ran = {name: value for name, value in results if name in engines}
        agree = len(set(ran.values())) <= 1
        if len(ran) > 1:
            results.append(("agree", agree))
        _emit({"command": f"{args.group} {args.subcommand}",
               "parameters": {dest: getattr(args, dest) for dest in options
                              if dest not in _FORMATS},
               "results": results,
               "provenance": [engine for engine in engines
                              if engine in ran] or list(engines)}, args)
        return 0 if agree else 1
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
