"""Code conventions checked on the source tree itself.

No module reaches into another module's private names: every ``.py``
file under ``src/`` and ``tests/`` is parsed, and neither
``from convexenum... import _name`` nor ``<convexenum module>._name``
may appear.  Dunder names such as ``__version__`` are public.

Every name has one import path, its defining module: no package
``__init__.py`` imports anything, and one holds only its docstring and
literal constants, each a dunder or an upper-case name.

Every name the benchmark's tracer (``perfbench/tracing.py``) wraps
still exists, with the parameters its counter hooks read, and each
hook counts on a real call.

The benchmark's oracle (``perfbench/oracles.py``) parses every
printed ``Polynomial`` back to its nonzero terms.

``import convexenum.cli`` puts every module the tracer binds in
``sys.modules``, but runs only the library modules every command needs,
and no standard module that only some commands need.  A command runs
only the modules it calls into, a command that computes only with
integers never imports ``fractions``, and none of the benchmark's
commands does, not even ``perms bounds``, whose root intervals are
integers from bisection to print; a well-formed command never
imports ``argparse`` (with its ``gettext`` and ``locale``) and only
``--json`` imports ``json``, and the tracer wraps the functions of
modules that have not run yet.  These checks run in interpreters
without ``site`` (``python -S``), so that no module the host's
``site`` preloads can hide an import.

The paper's value types and the exact kernel's compare by value, only
to their own type.  They and the library's records cannot be assigned
to or deleted from, pickle and copy back to an equal value, and the
kernel's print as an expression that evaluates back to an equal value.
No class but ``Frozen`` implements immutability, equality or pickling
itself, so that there is one implementation of each.  A record is
built by position, by field name or both, and no subclass of ``Frozen``
has an ``__init__`` that only passes its parameters on to it.

The exact kernel has one operand protocol, the decorator
``series._binary``: no other function of the kernel returns or tests
``NotImplemented``, and the decorator imports no ``Fraction`` to tell
an ``int`` operand.  Only ``TruncatedSeries`` takes part:
``Polynomial`` is a value with no operators.  The kernel computes in
Z[x] and Z[[x]], so only the bodies of ``roots.smallest_positive_root``,
the adapter that turns the integer root interval into ``Fraction``s,
and of ``linalg.solve_field_system``, the one rational solve, import
``fractions``.  It has one division loop, ``pseudo_divide``, read only
by ``Polynomial.remainder_sequence`` and by ``roots.root_interval``'s
squarefree strip, so it has one pseudo-remainder sequence, which the
gcd and the Sturm chain read.  Only ``RationalFunction.from_sequence``
builds a ``RationalFunction``, so every one the library builds comes
from Berlekamp–Massey's reduced pair, and no library code calls a
``gcd`` method.

``src/`` holds what a command runs.  Under a call trace, the golden CLI
commands, perfbench's call jobs, a word count deep enough for the
counter's generator path, and one small call for each name that only
perfbench's tracer wraps run every function of ``src/``, but for a
short list of exemptions, each with its reason.

A record's engines come from its subcommand's ``COMMANDS`` row alone:
every handler is a generator that takes the parsed arguments alone and
yields results, from which ``main`` builds the record; no assignment
under ``convexenum/commands/`` writes ``provenance``; and every golden
command's record names its row's engines in row order, but for those
it did not run.  The parsed arguments of a golden command, from either
parser, hold its group, its subcommand and the options of its row and
of ``OUTPUT``, and no callable: ``main`` reads the handler and engines
from the row itself.  Every row names an engine and an option that is
not an output format, so every text record prints both lines.

The suite's warning policy, in ``pyproject.toml``, turns warnings into
errors but still lets a failing property test print its example.

Three helpers serve these checks, each the one implementation of its
mechanism.  ``_fresh.fresh`` runs each probe's code in a fresh
interpreter without ``site``, with ``src`` and ``perfbench`` first on
``sys.path``.  ``scoped`` walks a module's syntax tree once and gives
each node with the module, classes and functions that hold it; every
checker that names a scope reads it from there.  ``_found`` sweeps a
list of files with one checker and keeps, by path under the
repository root, the files where it finds something.  Two scope rules
ride on ``scoped``: a nested function is a scope of its own where the
checks name functions (the unrun check), reads of ``pseudo_divide`` and
builds of a ``RationalFunction``, but part of the function that holds it
for the operand protocol, where the outermost function is the one that
declines an operand.
"""

import ast
import contextlib
import copy
import importlib
import importlib.util
import inspect
import io
import json
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from _fresh import ROOT, SRC, fresh
from _goldens import CLI_STDOUT_SHA256
from _oracles import Permutation
from convexenum import perms
from convexenum.cli import GROUPS, OUTPUT, build_parser, fast_parse, main
from convexenum.exact import linalg, roots
from convexenum.exact.polynomial import Polynomial
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.series import TruncatedSeries
from convexenum.frozen import Frozen
from convexenum.words import IntegerPartition, Word, WordGF


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _library_modules() -> set[str]:
    modules = set()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return modules


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _found(paths, check) -> dict:
    """``{path under ROOT: findings}`` for each of ``paths`` in which
    ``check(path)`` finds something."""
    found = {str(path.relative_to(ROOT)): check(path) for path in paths}
    return {path: findings for path, findings in found.items() if findings}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scoped(source: str, module: str):
    """``(holders, node)`` for every node of ``source``, in source order.
    The holders are the scopes that hold the node, outermost first: the
    module, whose ``name`` is ``module``, then each enclosing class and
    function.  A function's decorators and defaults count as its own."""
    tree = ast.parse(source)
    tree.name = module

    def walk(node, holders):
        for child in ast.iter_child_nodes(node):
            yield holders, child
            yield from walk(child, holders + (child,) if isinstance(
                child, (*_FUNCTIONS, ast.ClassDef)) else holders)

    return walk(tree, (tree,))


def _scope(holders) -> str:
    """``module.Class.function``: the dotted name of ``holders``."""
    return ".".join(holder.name for holder in holders)


def private_uses(source: str, modules: set[str]) -> list[str]:
    """The private names of the library ``modules`` that ``source``
    imports or reads as a module attribute."""
    tree = ast.parse(source)
    bound = {}  # local name -> the library module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "convexenum":
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
                if f"{node.module}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            head, _, rest = (_dotted(node.value) or "").partition(".")
            module = ".".join(filter(None, (bound.get(head), rest)))
            if head in bound and module in modules:
                found.append(f"{module}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    modules = _library_modules()
    assert {"convexenum", "convexenum.exact.series"} <= modules
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 15
    assert _found(files, lambda path: private_uses(path.read_text(),
                                                   modules)) == {}


def test_the_check_finds_both_forms():
    source = (
        "import convexenum.perms\n"
        "import convexenum.exact.series as series\n"
        "from convexenum import words as w\n"
        "from convexenum.perms import _least_concrete, state_key\n"
        "from convexenum import __version__\n"
        "convexenum.perms._SEED\n"
        "series._private\n"
        "w._word_counts(2, 0, 3)\n"
        "w.word_gf(2, 0)._attribute_of_a_result\n"
        "state_key._attribute_of_a_function\n"
        "self._own_attribute\n")
    assert private_uses(source, _library_modules()) == [
        "from convexenum.perms import _least_concrete",
        "convexenum.perms._SEED",
        "convexenum.exact.series._private",
        "convexenum.words._word_counts"]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_package_inits_import_nothing_and_hold_only_constants():
    inits = sorted(SRC.rglob("__init__.py"))
    assert len(inits) >= 2
    for path in inits:
        tree = ast.parse(path.read_text())
        docstring, *statements = tree.body
        assert isinstance(docstring, ast.Expr) \
            and isinstance(docstring.value, ast.Constant), path
        for node in statements:
            # no import, def, class or computed value: a literal, bound
            # to a dunder or an upper-case name
            assert isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant), path
            assert all(isinstance(target, ast.Name)
                       and (_dunder(target.id) or target.id.isupper())
                       for target in node.targets), path


@cache
def _perfbench_module(name: str):
    """``perfbench/NAME.py``, imported once under a name of its own; the
    tracer's wrappers are not installed."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _perfbench_module("tracing")
    entries = [(module, attr) for module, attr, *_ in tracing.SPANS
               + tracing.COUNTS]
    assert len(entries) > 20
    for module_name, attr in entries:
        module = importlib.import_module(module_name)
        if "." in attr:  # a method: the wrapper replaces the class's own
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def test_traced_functions_keep_what_their_hooks_read():
    for fn, names in ((perms.walk_count, {"g", "n"}),
                      (linalg.solve_field_system, {"matrix"}),
                      (linalg.solve_series_system, {"m"}),
                      (roots.smallest_positive_root, {"p"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
    # each hook runs on a real call and counts something
    one = TruncatedSeries.monomial(0, 3)
    calls = {
        "perms.build_digraph": ((1,), {"depth": 2}),
        "perms.walk_count": ((perms.build_digraph(1, depth=2), 4), {}),
        "exact.linalg.solve_field_system": (([[Fraction(2)]], [1]), {}),
        "exact.linalg.solve_series_system": (
            (linalg.SeriesMatrix([[one]]), [one]), {}),
        "exact.roots.smallest_positive_root": ((Polynomial((-1, 2)),), {}),
    }
    tracing = _perfbench_module("tracing")
    hooked = {name: (module, attr, hook)
              for module, attr, name, hook in tracing.SPANS if hook}
    assert set(hooked) == set(calls)
    for name, (module, attr, hook) in hooked.items():
        fn = getattr(importlib.import_module(module), attr)
        args, kwargs = calls[name]
        counters = Counter()
        hook(counters, fn, args, kwargs, fn(*args, **kwargs))
        assert counters and all(v > 0 for v in counters.values()), name


@given(st.lists(st.integers(-12, 12), max_size=7))
def test_printed_polynomial_parses_back(coeffs):
    p = Polynomial(coeffs)
    terms = {i: c for i, c in enumerate(p.coeffs) if c}
    assert _perfbench_module("oracles").parse_poly(str(p)) == terms


def _modules_after(code: str) -> dict[str, bool]:
    """Each module in ``sys.modules`` after :func:`fresh` runs ``code``,
    mapped to whether it has run: a module the CLI registers lazily runs
    when one of its attributes is first read."""
    out = fresh(code + "\nimport types\n"
                "for name, module in list(sys.modules.items()):\n"
                "    print(name, type(module) is types.ModuleType)")
    lines = (line.split() for line in out.splitlines())
    return {name: ran == "True" for name, ran in lines}


def test_fresh_runs_without_site_with_src_then_perfbench_first():
    assert fresh("print(sys.flags.no_site, sys.path[:2])") == \
        f"1 {[str(SRC), str(ROOT / 'perfbench')]}\n"
    with pytest.raises(subprocess.CalledProcessError):
        fresh("raise SystemExit(3)")


IMPORT_CLI = "import convexenum.cli"


def _ran(modules: dict[str, bool]) -> set[str]:
    """The library modules that have run, of ``_modules_after``'s map."""
    return {name for name in _library_modules() if modules.get(name)}


def _benchmark_commands() -> list[str]:
    """The CLI jobs of the benchmark's workloads, as commands."""
    workloads = _perfbench_module("workloads")
    return [" ".join(arg for arg in job.args if arg != "--json")
            for jobs in workloads.WORKLOADS.values() for job in jobs
            if job.kind == "cli"]


def test_cli_import_defers_what_only_some_commands_need():
    cli = _modules_after(IMPORT_CLI)
    # dataclasses pulls in inspect; traceback serves exit 3 only, csv
    # and json one output format each, argparse (which loads gettext
    # and locale) help and usage errors, and fractions (which imports
    # decimal) the callers that want rational roots
    assert not cli.keys() & {
        "dataclasses", "inspect", "traceback", "csv", "json", "argparse",
        "gettext", "locale", "fractions", "decimal"}
    # the tracer looks its modules up in sys.modules after this import
    tracing = _perfbench_module("tracing")
    assert {module for module, *_ in tracing.SPANS + tracing.COUNTS} \
        <= cli.keys()
    # but of the library's modules only these have run: the CLI reads
    # convexenum.DEFAULT_ORDER, and every command runs a module built on
    # frozen; a group's command module is imported when a command
    # names the group
    ran = {"convexenum", "convexenum.exact", "convexenum.cli",
           "convexenum.frozen"}
    groups = {f"convexenum.commands.{group}" for group in GROUPS}
    commands = groups | {"convexenum.commands"}
    assert commands <= _library_modules()
    assert _library_modules() - commands <= cli.keys()
    assert not commands & cli.keys()
    assert _ran(cli) == ran

    def run(*commands: str) -> dict[str, bool]:
        """``_modules_after`` the commands, one after another."""
        return _modules_after(IMPORT_CLI + "\nimport os\n" + "".join(
            f"convexenum.cli.main({command.split()!r} + "
            "['--out', os.devnull])\n" for command in commands))

    # a command runs only the modules it calls into: the integer
    # commands of the paper's tables run neither words nor the kernel
    table = run("perms table --max-n 5", "perms subadd --k 2 --max-n 8",
                "perms digraph --k 2 --depth 8 --dot")
    assert _ran(table) == ran | {"convexenum.commands",
                                 "convexenum.commands.perms",
                                 "convexenum.perms", "convexenum.ladder"}
    # the k = 1 ladder series read the ladder recurrence alone
    ladder = run("cfrac bot --order 20", "cfrac tot --order 20",
                 "cfrac f1 --order 20")
    assert ladder["convexenum.ladder"]
    assert not ladder["convexenum.perms"]
    assert not ladder["convexenum.exact.linalg"]
    # the integer series import neither fractions nor decimal (the
    # modules only grow, so no one command of a sequence imports them)
    integer = run("cfrac f2check --order 20",
                  "words gf --p 6 --k 0 --order 30",
                  "words gf --p 4 --k 2 --order 40")
    for modules in (table, ladder, integer):
        assert not modules.keys() & {"fractions", "decimal"}
    # the 2-convex closed form is one series division, no elimination
    assert integer["convexenum.cfrac"]
    assert not integer["convexenum.exact.linalg"]
    # nor do the bounds: their root intervals stay integers from the
    # bisection to the printed decimals, so fractions, with the decimal,
    # numbers and re that it imports, stays out
    assert not run("perms bounds --k 1").keys() & {
        "fractions", "decimal", "numbers", "re"}

    # each of the benchmark's commands, in a fresh interpreter of its own
    runs = {command: run(command) for command in _benchmark_commands()}
    loads = {command: _ran(modules) for command, modules in runs.items()}
    assert len(loads) >= 10
    # a well-formed command is read from the COMMANDS tables, not by
    # argparse, and json (which imports re) serves --json alone; no
    # command imports fractions, so none imports re
    for command, modules in runs.items():
        assert not modules.keys() & {"argparse", "gettext", "locale",
                                     "json"}, command
        assert not modules.keys() & {"fractions", "re"}, command
    as_json = run("words stable --p 3 --json").keys()
    assert "json" in as_json and "argparse" not in as_json
    for command, modules in loads.items():
        # it imports the command module of its group and no other
        group = command.split()[0]
        assert modules & groups == {f"convexenum.commands.{group}"}, command
    series = [command for command in loads
              if command.startswith(("cfrac ", "words gf "))]
    assert len(series) >= 5
    for command in series:
        # the series kernel reads its coefficient helpers from their
        # own module, so these commands never compile Polynomial
        assert "convexenum.exact.coefficients" in loads[command], command
        assert "convexenum.exact.polynomial" not in loads[command], command
    for command in loads:
        if command.startswith("cfrac f2check "):
            # f2check counts its exact side with ladder.perm_counts
            assert "convexenum.perms" not in loads[command], command
        if command.startswith("perms count "):
            # permutations are counted by the shared search, not words
            assert "convexenum.search" in loads[command], command
            assert "convexenum.words" not in loads[command], command
        if command.startswith("words gf "):
            assert "convexenum.search" not in loads[command], command


def imports_of(source: str, module: str) -> list[str]:
    """The statements of ``source`` that import ``module`` or a name
    from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == module or name.startswith(f"{module}.")
               for name in names):
            found.append(ast.unparse(node))
    return found


def test_no_command_module_imports_the_cli():
    # run as ``python -m convexenum.cli``, the CLI is ``__main__``, so
    # a command module that imported ``convexenum.cli`` would compile
    # and run it a second time
    files = sorted((SRC / "convexenum" / "commands").glob("*.py"))
    assert len(files) == len(GROUPS) + 1
    assert _found(files, lambda path: imports_of(path.read_text(),
                                                 "convexenum.cli")) == {}
    assert imports_of("import convexenum.cli\n"
                      "from convexenum import cli, words\n"
                      "from convexenum.cli import main\n"
                      "from convexenum.commands import perms\n",
                      "convexenum.cli") == [
        "import convexenum.cli", "from convexenum import cli, words",
        "from convexenum.cli import main"]
    # and each group's command, run as the module, loads no second copy
    code = ("import os, runpy\n"
            "for argv in (['words', 'stable', '--p', '3'],\n"
            "             ['perms', 'count', '--n', '5', '--k', '1'],\n"
            "             ['cfrac', 'f1', '--order', '5']):\n"
            "    sys.argv = ['convexenum', *argv, '--out', os.devnull]\n"
            "    try:\n"
            "        runpy.run_module('convexenum.cli', run_name='__main__')\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.startswith('convexenum.c')))")
    assert fresh(code) == repr(["convexenum.cfrac", "convexenum.commands",
                                *sorted(f"convexenum.commands.{group}"
                                        for group in GROUPS)]) + "\n"


def provenance_writes(source: str) -> list[str]:
    """The statements of ``source`` that assign to a ``provenance``
    name or attribute, also inside a tuple target or by ``setattr``."""
    def named(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(named, target.elts))
        if isinstance(target, ast.Starred):
            return named(target.value)
        return getattr(target, "attr", getattr(target, "id", None)) \
            == "provenance"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            writes = any(map(named, node.targets))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            writes = named(node.target)
        elif isinstance(node, ast.Call) and _dotted(node.func) == "setattr":
            writes = getattr(node.args[1], "value", None) == "provenance"
        else:
            continue
        if writes:
            found.append((node.lineno, ast.unparse(node)))
    return [text for _, text in sorted(found)]


def test_each_handler_is_a_generator_of_args_alone():
    # a handler yields its results and main builds the record from them
    for group in GROUPS:
        commands = importlib.import_module(f"convexenum.commands.{group}")
        for name, (handler, _, _) in commands.COMMANDS.items():
            assert inspect.isgeneratorfunction(handler), (group, name)
            assert len(inspect.signature(handler).parameters) == 1, \
                (group, name)


def test_no_handler_writes_provenance():
    # a record's engines come from its subcommand's COMMANDS row alone
    files = sorted((SRC / "convexenum" / "commands").glob("*.py"))
    assert _found(files, lambda path: provenance_writes(path.read_text())) \
        == {}


def test_parsed_arguments_hold_only_the_command_and_its_options():
    # main reads the handler and engines from the row, so neither
    # parser carries them
    parser = build_parser()
    for command in CLI_STDOUT_SHA256:
        argv = command.split()
        options = importlib.import_module(
            f"convexenum.commands.{argv[0]}").COMMANDS[argv[1]][2]
        for args in fast_parse(argv), parser.parse_args(argv):
            assert list(vars(args)) == \
                ["group", "subcommand", *options, *OUTPUT], command
            assert not any(map(callable, vars(args).values())), command


def test_each_row_names_an_engine_and_an_option_that_is_not_a_format():
    # _render prints the parameters: and engines: lines of every record
    for group in GROUPS:
        commands = importlib.import_module(f"convexenum.commands.{group}")
        for name, (_, engines, options) in commands.COMMANDS.items():
            assert engines, (group, name)
            assert set(options) - {"json", "csv", "dot"}, (group, name)


def test_the_provenance_check_finds_every_assignment_form():
    assert provenance_writes(
        "def handler(args, rec):\n"
        "    rec.provenance = ['x']\n"
        "    rec.provenance += ['y']\n"
        "    rec.provenance: list = []\n"
        "    rec.results, rec.provenance = [], ['x']\n"
        "    setattr(rec, 'provenance', ['x'])\n"
        "    provenance = ['x']\n"
        "    rec.add('provenance', ['x'])\n"
        "    seen = rec.provenance\n") == [
        "rec.provenance = ['x']", "rec.provenance += ['y']",
        "rec.provenance: list = []",
        "rec.results, rec.provenance = ([], ['x'])",
        "setattr(rec, 'provenance', ['x'])", "provenance = ['x']"]


def _record(argv: list[str]) -> dict:
    """The JSON record of the command ``argv``, run in process."""
    argv = [arg for arg in argv if arg not in ("--json", "--csv", "--dot")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json"]) == 0, argv
    return json.loads(out.getvalue())


def test_each_record_names_the_engines_of_its_row_that_ran():
    # every golden command, and perms count on both sides of each
    # engine's domain: a record names its row's engines in row order,
    # but for those that did not run, which an agreement leaves out; a
    # record that names skipped engines names every one of those
    sweep = [["perms", "count", "--n", "6", "--k", str(k)]
             for k in range(-1, 5)]
    provenance = {}
    for argv in [command.split() for command in CLI_STDOUT_SHA256] + sweep:
        row = importlib.import_module(
            f"convexenum.commands.{argv[0]}").COMMANDS[argv[1]][1]
        record = _record(argv)
        results = dict(map(tuple, record["results"]))
        ran = [engine for engine in row if engine in results] or list(row)
        assert record["provenance"] == ran, argv
        if "skipped" in results:
            assert [text.split(" (")[0] for text in results["skipped"]] == \
                [engine for engine in row if engine not in ran], argv
        provenance[" ".join(argv)] = record["provenance"]
    assert [provenance[" ".join(argv)] for argv in sweep] == [
        ["bruteforce"], ["bruteforce", "closed_form"],
        ["bruteforce", "digraph"], ["bruteforce", "digraph"],
        ["bruteforce"], ["bruteforce"]]


def test_the_tracer_wraps_the_lazily_loaded_modules():
    # as a traced benchmark job does: import the CLI, install the
    # tracer, run one command, then the call job that isolates a root
    # with the Fraction adapter, which the command no longer runs
    code = (
        "import json, os\n"
        "import convexenum.cli, tracing\n"
        "tracer = tracing.install()\n"
        "code = convexenum.cli.main("
        "['perms', 'bounds', '--k', '1', '--out', os.devnull])\n"
        "import child\n"
        "child.gf_bound_k1_cutoff1278_root()\n"
        "print(json.dumps([code, [s[0] for s in tracer.spans], "
        "tracer.counters]))")
    code, spans, counters = json.loads(fresh(code))
    assert code == 0
    assert {"cli.main", "perms.build_digraph", "perms.growth_bounds",
            "exact.roots.smallest_positive_root"} <= set(spans)
    assert counters["exact.ratfun.RationalFunction.constructions"] > 0


def function_starts(sources: dict[str, str]) -> dict[str, tuple[str, int]]:
    """``module.Class.function`` -> ``(module, first line)`` for each
    function that ``sources`` (module name -> source) defines, nested
    ones included.  The first line is that of its first decorator, as in
    its code's ``co_firstlineno``."""
    return {_scope((*holders, node)): (module, min(
                [node.lineno] + [decorator.lineno
                                 for decorator in node.decorator_list]))
            for module, source in sources.items()
            for holders, node in scoped(source, module)
            if isinstance(node, _FUNCTIONS)}


def unrun_functions(starts: dict[str, tuple[str, int]],
                    ran: set[tuple[str, int]], exempt=()) -> list[str]:
    """The functions of :func:`function_starts`' map whose code never
    ran: no ``(module, first line)`` pair in ``ran`` is theirs.  A name
    in ``exempt`` is left out."""
    return [name for name, start in starts.items()
            if start not in ran and name not in exempt]


#: the functions that stay in ``src/`` though no command runs them
_PROTOCOL = "Frozen's value protocol, which tests and callers use"
UNRUN_EXEMPT = {
    "convexenum.frozen._values": _PROTOCOL,
    **{f"convexenum.frozen.Frozen.{name}": _PROTOCOL for name in (
        "__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__",
        "__reduce__")},
    "convexenum.exact.linalg.SeriesMatrix.rows":
        "perfbench's tracer reads it in a counter hook",
}

#: a small call for each name that perfbench's tracer wraps and no
#: command runs, keyed by that name, so that tracing it still works
TRACED_ONLY = {
    "convexenum.perms.walk_count":
        "perms.walk_count(perms.build_digraph(1, depth=3), 5)",
    "convexenum.cfrac.ladder_tower": "cfrac.ladder_tower(6)",
    "convexenum.exact.linalg.matrix_resolvent_row":
        "linalg.matrix_resolvent_row([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 0)",
    "convexenum.exact.linalg.solve_field_system":
        "linalg.solve_field_system([[2, 1], [1, 3]], [5, 10])",
    "convexenum.exact.linalg.solve_series_system":
        "x, one = (series.TruncatedSeries.monomial(e, 3) for e in (1, 0))\n"
        "linalg.solve_series_system(linalg.SeriesMatrix("
        "[[x, one], [one, x]]), [one, x])",
    "convexenum.exact.polynomial.Polynomial.__call__":
        "polynomial.Polynomial((1, 2))(3)",
    "convexenum.exact.polynomial.Polynomial.gcd":
        "polynomial.Polynomial((1, 2)).gcd(polynomial.Polynomial((2, 4)))",
    "convexenum.exact.series.TruncatedSeries.invert":
        "series.TruncatedSeries((1, -1), 4).invert()",
}


def _ran_by_the_commands() -> tuple[list[int], list, list]:
    """Run every command of ``CLI_STDOUT_SHA256`` in text form, one with
    ``--json`` and one with ``--csv``, two that ``fast_parse`` declines
    (a negative value and ``--p=3``), which argparse reads, a
    permutation count with k = 3, which runs brute force alone,
    perfbench's call jobs, and a word count past half the recursion
    limit, which the counter hands to the generator, in one fresh
    interpreter under a call-only trace started
    before ``import convexenum.cli``; then the calls of ``TRACED_ONLY``.
    Return the commands' exit codes, and the ``(file, first line)`` of
    each library function that ran before those calls and by the end."""
    commands = list(dict.fromkeys(
        " ".join(arg for arg in command.split() if arg not in ("--json",
                                                                "--csv"))
        for command in CLI_STDOUT_SHA256))
    commands += ["words stable --p 3 --json", "words stable --p 3 --csv",
                 "words count --n 6 --p 3 --k -1", "words stable --p=3",
                 "words count --n 1200 --p 3 --k 0",
                 "perms count --n 8 --k 3"]
    code = (
        "import json, os\n"
        "ran = set()\n"
        "def trace(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    ran.add((code.co_filename, code.co_firstlineno))\n"
        "sys.settrace(trace)\n"
        "import convexenum.cli\n"
        "codes = [convexenum.cli.main(command.split() + ['--out', "
        f"os.devnull]) for command in {commands!r}]\n"
        "import child\n"
        "for call in child.CALLS.values():\n"
        "    call()\n"
        "by_commands = set(ran)\n"
        "from convexenum import cfrac, perms\n"
        "from convexenum.exact import linalg, polynomial, series\n"
        + "".join(call + "\n" for call in TRACED_ONLY.values()) +
        "sys.settrace(None)\n"
        f"mine = lambda lines: [l for l in lines if l[0].startswith("
        f"{str(SRC)!r})]\n"
        "print(json.dumps([codes, mine(by_commands), mine(ran)]))")
    return json.loads(fresh(code))


def test_every_library_function_runs_in_a_command():
    codes, by_commands, by_the_end = _ran_by_the_commands()
    assert len(codes) > 20 and set(codes) == {0}
    paths = sorted(SRC.rglob("*.py"))
    module = {str(path): ".".join(path.relative_to(SRC).with_suffix("")
                                  .parts).removesuffix(".__init__")
              for path in paths}
    starts = function_starts({module[str(path)]: path.read_text()
                              for path in paths})

    def unrun(ran, exempt=()):
        return unrun_functions(
            starts, {(module[file], line) for file, line in ran}, exempt)

    # every exemption names a function of src/ that never runs, so that
    # no exemption outlives its reason, and no other stays unrun
    assert set(UNRUN_EXEMPT) <= set(unrun(by_the_end))
    assert unrun(by_the_end, UNRUN_EXEMPT) == []
    # the extra calls run exactly the traced names that no command runs
    tracing = _perfbench_module("tracing")
    traced = {f"{owner}.{attr}"
              for owner, attr, *_ in tracing.SPANS + tracing.COUNTS}
    traced_only = traced & set(unrun(by_commands))
    assert set(TRACED_ONLY) == traced_only
    assert not traced_only & set(unrun(by_the_end))


def test_the_unrun_check_finds_functions_methods_and_properties():
    source = (
        "def plain():\n"                     # line 1
        "    def inner(): ...\n"             # 2
        "class Value:\n"                     # 3
        "    def method(self): ...\n"        # 4
        "    @property\n"                    # 5
        "    def size(self): ...\n"          # 6
        "    @staticmethod\n"                # 7
        "    @cache\n"                       # 8
        "    def decorated(): ...\n"         # 9
        "    def exempt(self): ...\n"        # 10
        "    def ran(self): ...\n"           # 11
        "    @property\n"                    # 12
        "    def ran_too(self): ...\n"       # 13
        "if True:\n"                         # 14
        "    def guarded(): ...\n")          # 15
    starts = function_starts({"mod": source, "other": "def ran(): ...\n"})
    found = unrun_functions(starts, {("mod", 11), ("mod", 12), ("other", 1)},
                            exempt={"mod.Value.exempt"})
    assert found == ["mod.plain", "mod.plain.inner", "mod.Value.method",
                     "mod.Value.size", "mod.Value.decorated", "mod.guarded"]
    # a decorated function's code starts at its first decorator, not at
    # its def line
    assert starts["mod.Value.decorated"] == ("mod", 7)
    assert "mod.Value.decorated" in unrun_functions(starts, {("mod", 9)})


# the permutation, the partition and the polynomial hold the same field
# values, so only their types tell them apart
VALUES = [(Permutation, ((1, 2, 3),)), (Word, ((1, 2, 3), 3)),
          (IntegerPartition, ((1, 2, 3),)), (Polynomial, ((1, 2, 3),)),
          (TruncatedSeries, ((1, 2, 3), 2))]


def _copies(value):
    """``value`` through pickle, ``copy.copy`` and ``copy.deepcopy``."""
    return (pickle.loads(pickle.dumps(value)), copy.copy(value),
            copy.deepcopy(value))


@pytest.mark.parametrize("cls,args", VALUES)
def test_value_types_compare_by_value_and_only_to_their_own_type(cls, args):
    a, b = cls(*args), cls(list(args[0]), *args[1:])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != args[0] and args[0] != a  # not a tuple of its entries
    assert all(a != other(*other_args) for other, other_args in VALUES
               if other is not cls)
    assert all(type(c) is cls and c == a and hash(c) == hash(a)
               for c in _copies(a))


def test_frozen_types_reject_assignment():
    one = TruncatedSeries.monomial(0, 3)
    rf = RationalFunction(Polynomial((1, -1)), Polynomial((1, -2)))
    bounds = dict(lower_gf=rf, upper_gf=rf, lower_root=(0, 1, 1),
                  upper_root=(0, 1, 1), lower_rate="1", upper_rate="1")
    records = [
        perms.DescendantDigraph(k=1, nodes=(perms.START_KEY,), edges=()),
        perms.GrowthBounds(**bounds),
        WordGF(series=one, ratfun=None),
    ]
    assert records[-1].ratfun is None
    assert records[1] == perms.GrowthBounds(**bounds)
    assert records[1] != perms.GrowthBounds(**{**bounds, "lower_rate": "2"})
    assert repr(Permutation((2, 1))) == "Permutation(entries=(2, 1))"
    assert repr(records[0]) == (f"DescendantDigraph(k=1, "
                                f"nodes=({perms.START_KEY!r},), edges=())")
    own = [Permutation((2, 1)), Word((1,), 2), IntegerPartition((1,)),
           *records]
    kernel = [Polynomial((1, 2)), rf, one, linalg.SeriesMatrix([[one, one]])]
    assert kernel[-1].rows == 1
    for value in own + kernel:
        with pytest.raises(AttributeError):
            delattr(value, type(value).__slots__[0])
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for clone in _copies(value):
            assert type(clone) is type(value), value
            assert all(getattr(clone, name) == getattr(value, name)
                       for name in type(value).__slots__), value


def test_kernel_values_print_as_an_expression_for_an_equal_value():
    one = TruncatedSeries((1, -2), 3)
    values = [Polynomial((1, -2)), one,
              RationalFunction(Polynomial((1, -1)), Polynomial((1, -2))),
              linalg.SeriesMatrix([[one, one], [one, -1 * one]])]
    names = {cls.__name__: cls for cls in map(type, values)}
    for value in values:
        assert type(value).__repr__ is Frozen.__repr__
        assert eval(repr(value), names) == value
    assert repr(values[0]) == "Polynomial(coeffs=(1, -2))"


PROTOCOL = {"__setattr__", "__delattr__", "__reduce__", "__eq__", "__hash__"}


def protocol_forks(source: str) -> list[str]:
    """``Class.method`` for each method of :class:`Frozen`'s protocol
    that a class of ``source`` other than ``Frozen`` defines or binds."""
    found = []
    for (*_, owner), node in scoped(source, ""):
        if not isinstance(owner, ast.ClassDef) or owner.name == "Frozen":
            continue
        if isinstance(node, _FUNCTIONS):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [f"{owner.name}.{name}" for name in names if name in PROTOCOL]
    return found


def test_only_frozen_implements_immutability_equality_and_pickling():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    assert _found(files, lambda path: protocol_forks(path.read_text())) == {}


def test_the_fork_check_finds_methods_and_bindings():
    source = (
        "class Frozen:\n"
        "    def __eq__(self, other): ...\n"
        "class Value(Frozen):\n"
        "    __hash__ = None\n"
        "    def __delattr__(self, name): ...\n"
        "    def __repr__(self): ...\n")
    assert protocol_forks(source) == ["Value.__hash__", "Value.__delattr__"]


_RF = RationalFunction(Polynomial((1, -1)), Polynomial((1, -2)))
# each record type of the library, with the fields of one value
RECORDS = {
    perms.DescendantDigraph: dict(k=1, nodes=(perms.START_KEY,), edges=()),
    perms.GrowthBounds: dict(lower_gf=_RF, upper_gf=_RF,
                             lower_root=(0, 1, 1), upper_root=(0, 1, 1),
                             lower_rate="1", upper_rate="1"),
    WordGF: dict(series=TruncatedSeries.monomial(0, 3), ratfun=_RF),
}


@pytest.mark.parametrize("cls,fields", RECORDS.items(),
                         ids=[cls.__name__ for cls in RECORDS])
def test_records_are_built_by_position_or_by_field_name(cls, fields):
    values = list(fields.values())
    assert list(fields) == list(cls.__slots__)
    by_position = cls(*values)
    by_name = cls(**fields)
    mixed = cls(*values[:1], **dict(list(fields.items())[1:]))
    shuffled = cls(**dict(reversed(fields.items())))
    assert by_position == by_name == mixed == shuffled
    assert all(getattr(by_name, name) is value
               for name, value in fields.items())


@pytest.mark.parametrize("cls,fields", RECORDS.items(),
                         ids=[cls.__name__ for cls in RECORDS])
def test_a_missing_unknown_or_doubled_field_is_a_type_error(cls, fields):
    first, last = cls.__slots__[0], cls.__slots__[-1]
    values = list(fields.values())
    without_last = {name: v for name, v in fields.items() if name != last}
    for args, kwargs, named in (
            ((), without_last, last),  # missing, by name
            (values[:-1], {}, last),  # missing, by position
            ((), {**fields, "extra": 0}, "extra"),  # unknown
            (values[:1], fields, first),  # twice, by position and name
            (values[:1], {first: values[0]}, first)):
        with pytest.raises(TypeError,
                           match=rf"^{cls.__name__}\(\) .*'{named}'$"):
            cls(*args, **kwargs)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes "):
        cls(*values, 0)


def forwarders(source: str) -> list[str]:
    """``Class.__init__`` for each direct subclass of ``Frozen`` in
    ``source`` whose ``__init__``, but for a docstring, only passes its
    own parameters on to ``super().__init__``: ``Frozen`` takes them by
    position or by name itself."""
    found = []
    for (*_, owner), node in scoped(source, ""):
        if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"
                and isinstance(owner, ast.ClassDef) and any(
                    (_dotted(base) or "").split(".")[-1] == "Frozen"
                    for base in owner.bases)):
            continue
        body = node.body[1:] if ast.get_docstring(node) else node.body
        call = body[0].value if len(body) == 1 \
            and isinstance(body[0], ast.Expr) else None
        if not isinstance(call, ast.Call) \
                or ast.unparse(call.func) != "super().__init__":
            continue
        params = {arg.arg for arg in ast.walk(node.args)
                  if isinstance(arg, ast.arg)}
        passed = [getattr(arg, "value", arg) for arg in call.args] \
            + [keyword.value for keyword in call.keywords]
        if all(isinstance(arg, ast.Name) and arg.id in params
               for arg in passed):
            found.append(f"{owner.name}.__init__")
    return found


def test_no_frozen_subclass_only_forwards_its_fields():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    assert _found(files, lambda path: forwarders(path.read_text())) == {}


def test_the_forwarder_check_finds_forwarding_constructors():
    source = (
        "class Record(Frozen):\n"
        "    def __init__(self, a, b=None):\n"
        "        'A docstring does not count.'\n"
        "        super().__init__(a, b)\n"
        "class Named(frozen.Frozen):\n"
        "    def __init__(self, *values, **fields):\n"
        "        super().__init__(*values, **fields)\n"
        "class Checked(Frozen):\n"
        "    def __init__(self, a):\n"
        "        a = tuple(a)\n"
        "        super().__init__(a)\n"
        "class Converted(Frozen):\n"
        "    def __init__(self, a):\n"
        "        super().__init__(tuple(a), 0)\n"
        "class Other(Base):\n"
        "    def __init__(self, a):\n"
        "        super().__init__(a)\n")
    assert forwarders(source) == ["Record.__init__", "Named.__init__"]


#: the one function of the exact kernel that may decline an operand:
#: the operand protocol of ``TruncatedSeries``
OPERAND_PROTOCOL = "series._binary"


def operand_forks(source: str, module: str) -> list[str]:
    """``module.function`` (or ``module.Class.method``) for each function
    of ``source`` but ``OPERAND_PROTOCOL`` that names ``NotImplemented``,
    to return it or to test ``other is NotImplemented``, and
    ``... imports Fraction`` when ``OPERAND_PROTOCOL`` imports
    ``Fraction``.  A nested function counts as part of the function that
    holds it."""
    found = []
    for holders, node in scoped(source, module):
        depth = next((i for i, holder in enumerate(holders)
                      if isinstance(holder, _FUNCTIONS)), None)
        if depth is None:
            continue
        name = _scope(holders[:depth + 1])
        if name != OPERAND_PROTOCOL and isinstance(node, ast.Name) \
                and node.id == "NotImplemented":
            found.append(name)
        if name == OPERAND_PROTOCOL and isinstance(node, ast.ImportFrom) \
                and node.module == "fractions" \
                and any(alias.name == "Fraction" for alias in node.names):
            found.append(f"{name} imports Fraction")
    return list(dict.fromkeys(found))


def test_the_kernel_has_one_operand_protocol():
    files = sorted((SRC / "convexenum" / "exact").glob("*.py"))
    assert {"coefficients", "polynomial", "series", "ratfun"} \
        <= {path.stem for path in files}
    assert _found(files, lambda path: operand_forks(path.read_text(),
                                                    path.stem)) == {}
    # and the operators that the protocol wraps keep their own names;
    # the one type with arithmetic is the only one that takes part
    ops = vars(TruncatedSeries)
    for name in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__"):
        assert ops[name].__qualname__ == f"TruncatedSeries.{name}"
    assert ops["__radd__"] is ops["__add__"]
    assert ops["__rmul__"] is ops["__mul__"]
    arithmetic = {"_coerce", "__neg__", "__add__", "__radd__", "__sub__",
                  "__rsub__", "__mul__", "__rmul__", "__truediv__",
                  "__rtruediv__"}
    assert not (arithmetic | {"__bool__"}) & set(vars(RationalFunction))
    assert not arithmetic & set(vars(Polynomial))
    assert "_coerce" not in ops


def test_the_operand_check_finds_preambles_and_fraction_imports():
    source = (
        "def _binary(op):\n"
        "    from fractions import Fraction\n"
        "    def method(self, other):\n"
        "        if not isinstance(other, (int, Fraction)):\n"
        "            return NotImplemented\n"
        "class Value:\n"
        "    def __add__(self, other):\n"
        "        other = self._coerce(other)\n"
        "        if other is NotImplemented:\n"
        "            return NotImplemented\n"
        "    def __mul__(self, other):\n"
        "        return self if other is None else other\n"
        "    def _coerce(self, other):\n"
        "        if isinstance(other, int):\n"
        "            return Value(other)\n"
        "        return NotImplemented\n"
        "def helper(other):\n"
        "    if other is NotImplemented:\n"
        "        pass\n")
    assert operand_forks(source, "series") == [
        "series._binary imports Fraction",
        "series.Value.__add__",
        "series.Value._coerce",
        "series.helper"]
    # the same decorator anywhere else is a second protocol
    assert operand_forks(source, "coefficients")[0] == "coefficients._binary"


def test_only_roots_and_the_field_solve_import_fractions():
    # the kernel computes in Z[x] and Z[[x]]: roots' adapter turns the
    # integer interval into Fractions, and the rational solve divides
    # with a Fraction of its own, each in its own body
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    found = _found(files, lambda path: imports_of(path.read_text(),
                                                  "fractions"))
    assert set(found) == {"src/convexenum/exact/linalg.py",
                          "src/convexenum/exact/roots.py"}
    for module, function in (("linalg", "solve_field_system"),
                             ("roots", "smallest_positive_root")):
        source = (SRC / "convexenum" / "exact" / f"{module}.py").read_text()
        (body,) = [node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == function]
        assert imports_of(ast.unparse(body), "fractions") \
            == found[f"src/convexenum/exact/{module}.py"], function


def test_the_fractions_check_finds_every_import_form():
    source = (
        "from fractions import Fraction\n"
        "import fractions, math\n"
        "import fractions as fr\n"
        "def invert(c):\n"
        "    from fractions import Fraction as F\n"
        "    return F(1) / c\n"
        "from decimal import Decimal\n"
        "from .fractions import local\n"
        "import fractional\n")
    assert imports_of(source, "fractions") == [
        "from fractions import Fraction", "import fractions, math",
        "import fractions as fr", "from fractions import Fraction as F"]


def pseudo_divide_reads(source: str, module: str) -> list[str]:
    """The scope, ``module`` or ``module.Class.function``, of each read
    of a name ``pseudo_divide`` in ``source``: a call, or a function
    kept for later.  A nested function is a scope of its own."""
    return [_scope(holders) for holders, node in scoped(source, module)
            if getattr(node, "attr", getattr(node, "id", None))
            == "pseudo_divide"]


def test_one_pseudo_remainder_sequence():
    # the one division loop serves the remainder sequence, which the gcd
    # and the Sturm chain both read, and root_interval's squarefree
    # strip, which reads its quotient
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    assert _found(files, lambda path: pseudo_divide_reads(
        path.read_text(), path.stem)) == {
        "src/convexenum/exact/polynomial.py":
            ["polynomial.Polynomial.remainder_sequence"],
        "src/convexenum/exact/roots.py": ["roots.root_interval"]}
    assert not hasattr(Polynomial, "pseudo_remainder")


def test_the_remainder_check_finds_calls_and_bound_methods():
    source = (
        "def chain(p, q):\n"
        "    return polynomial.pseudo_divide(p, q)\n"
        "class Poly:\n"
        "    def gcd(self, other):\n"
        "        step = pseudo_divide\n"
        "        def inner():\n"
        "            return pseudo_divide(self, other)\n"
        "    def pseudo_divide(self, other):\n"
        "        return self.remainder_sequence(other)\n"
        "rem = pseudo_divide(a, b)[1]\n"
        "name = 'pseudo_divide'\n")
    assert pseudo_divide_reads(source, "roots") == [
        "roots.chain", "roots.Poly.gcd", "roots.Poly.gcd.inner", "roots"]


def reductions(source: str, module: str) -> list[str]:
    """``scope builds`` for each call in ``source`` that builds a
    ``RationalFunction``, and ``scope calls gcd`` for each call of a
    ``gcd`` method (``math.gcd`` is an integer gcd), with the scopes of
    :func:`pseudo_divide_reads`.  A call builds one when it calls a name
    ``RationalFunction``, or ``cls`` or ``type(self)`` in the class
    ``RationalFunction``."""
    found = []
    for holders, node in scoped(source, module):
        if not isinstance(node, ast.Call):
            continue
        callee = ast.unparse(node.func)
        in_ratfun = any(isinstance(holder, ast.ClassDef)
                        and holder.name == "RationalFunction"
                        for holder in holders)
        if callee.split(".")[-1] == "RationalFunction" or (
                in_ratfun and callee in ("cls", "type(self)")):
            found.append(f"{_scope(holders)} builds")
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "gcd" and callee != "math.gcd":
            found.append(f"{_scope(holders)} calls gcd")
    return found


def test_only_berlekamp_massey_builds_a_rational_function():
    # every RationalFunction of the library is a Berlekamp-Massey pair,
    # which is reduced, so the constructor's coprime contract holds on
    # every library path, and nothing reduces by a polynomial gcd
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    found = [name for path in files
             for name in reductions(path.read_text(), path.stem)]
    assert found == ["ratfun.RationalFunction.from_sequence builds"]


def test_the_reduction_check_finds_builds_and_gcd_calls():
    source = (
        "def resolvent(y, det):\n"
        "    g = y.gcd(det)\n"
        "    return ratfun.RationalFunction(y, det), math.gcd(2, 4)\n"
        "class RationalFunction:\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return cls(n)\n"
        "    def copy(self):\n"
        "        return type(self)(self.num)\n"
        "class Other:\n"
        "    def make(cls):\n"
        "        return cls(), gcd(1, 2)\n"
        "ONE = RationalFunction(1)\n")
    assert reductions(source, "m") == [
        "m.resolvent calls gcd", "m.resolvent builds",
        "m.RationalFunction.make builds", "m.RationalFunction.copy builds",
        "m builds"]


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under the repo's warning policy a warning raised while hypothesis
    # reports a failure must not end the run before the report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_fails.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "Falsifying example" in run.stdout
    assert run.returncode == 1
