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

``import convexenum.cli`` puts every module the tracer binds in
``sys.modules``, but runs only the library modules every command needs,
and no standard module that only some commands need.  A command runs
only the modules it calls into, a command that computes only with
integers never imports ``fractions``, and the tracer wraps the
functions of modules that have not run yet.

The paper's value types and the exact kernel's compare by value, only
to their own type.  They and the library's records cannot be assigned
to or deleted from, pickle and copy back to an equal value, and the
kernel's print as an expression that evaluates back to an equal value.
No class but ``Frozen`` implements immutability, equality or pickling
itself, so that there is one implementation of each.  A record is
built by position, by field name or both, and no subclass of ``Frozen``
has an ``__init__`` that only passes its parameters on to it.
"""

import ast
import copy
import importlib
import importlib.util
import inspect
import json
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from convexenum import perms
from convexenum.exact import linalg, roots
from convexenum.exact.polynomial import Polynomial
from convexenum.exact.ratfun import RationalFunction
from convexenum.exact.series import TruncatedSeries
from convexenum.frozen import Frozen
from convexenum.perms import Permutation
from convexenum.words import IntegerPartition, Word, WordGF

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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
    uses = {str(path.relative_to(ROOT)): private_uses(path.read_text(), modules)
            for path in files}
    assert {path: found for path, found in uses.items() if found} == {}


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


def _tracing_module():
    """``perfbench/tracing.py``, imported without installing its wrappers."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
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
    one = TruncatedSeries.one(3)
    calls = {
        "perms.build_digraph": ((1,), {"depth": 2}),
        "perms.walk_count": ((perms.build_digraph(1, depth=2), 4), {}),
        "exact.linalg.solve_field_system": (([[Fraction(2)]], [1]), {}),
        "exact.linalg.solve_series_system": (
            (linalg.SeriesMatrix([[one]]), [one]), {}),
        "exact.roots.smallest_positive_root": ((Polynomial((-1, 2)),), {}),
    }
    tracing = _tracing_module()
    hooked = {name: (module, attr, hook)
              for module, attr, name, hook in tracing.SPANS if hook}
    assert set(hooked) == set(calls)
    for name, (module, attr, hook) in hooked.items():
        fn = getattr(importlib.import_module(module), attr)
        args, kwargs = calls[name]
        counters = Counter()
        hook(counters, fn, args, kwargs, fn(*args, **kwargs))
        assert counters and all(v > 0 for v in counters.values()), name


def _modules_after(code: str) -> dict[str, bool]:
    """Each module in ``sys.modules`` after a fresh interpreter runs
    ``code``, mapped to whether it has run: a module the CLI registers
    lazily runs when one of its attributes is first read."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys, types\n"
         "for name, module in list(sys.modules.items()):\n"
         "    print(name, type(module) is types.ModuleType)"],
        capture_output=True, text=True, check=True).stdout
    lines = (line.split() for line in out.splitlines())
    return {name: ran == "True" for name, ran in lines}


IMPORT_CLI = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
              "import convexenum.cli")


def test_cli_import_defers_what_only_some_commands_need():
    # against a bare interpreter, so that what ``site`` preloads on a
    # given host does not count
    bare = _modules_after("pass")
    cli = _modules_after(IMPORT_CLI)
    # dataclasses pulls in inspect; traceback serves exit 3 only, csv
    # one output format, and fractions (which imports decimal) the
    # exact kernel
    assert not (cli.keys() - bare.keys()) & {
        "dataclasses", "inspect", "traceback", "csv", "fractions", "decimal"}
    # the tracer looks its modules up in sys.modules after this import
    tracing = _tracing_module()
    assert {module for module, *_ in tracing.SPANS + tracing.COUNTS} \
        <= cli.keys()
    # but of the library's modules only these have run: the CLI reads
    # convexenum.DEFAULT_ORDER, and every command runs a module built on
    # frozen
    ran = {"convexenum", "convexenum.exact", "convexenum.cli",
           "convexenum.frozen"}
    assert _library_modules() <= cli.keys()
    assert {name for name in _library_modules() if cli[name]} == ran

    def run(*commands: str) -> dict[str, bool]:
        """``_modules_after`` the commands, one after another."""
        return _modules_after(IMPORT_CLI + "\nimport os\n" + "".join(
            f"convexenum.cli.main({command.split()!r} + "
            "['--out', os.devnull])\n" for command in commands))

    # a command runs only the modules it calls into: the integer
    # commands of the paper's tables run neither words nor the kernel
    table = run("perms table --max-n 5", "perms subadd --k 2 --max-n 8",
                "perms digraph --k 2 --depth 8 --dot")
    assert {name for name in _library_modules() if table[name]} == \
        ran | {"convexenum.perms", "convexenum.ladder"}
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
        assert not (modules.keys() - bare.keys()) & {"fractions", "decimal"}
    # the 2-convex closed form is one series division, no elimination,
    # and f2check counts its exact side with perm_counts
    assert integer["convexenum.cfrac"]
    assert integer["convexenum.perms"]
    assert not integer["convexenum.exact.linalg"]
    # and a command that meets rationals does import fractions
    assert "fractions" in run("perms bounds --k 1").keys() - bare.keys()


def test_the_tracer_wraps_the_lazily_loaded_modules():
    # as a traced benchmark job does: import the CLI, install the
    # tracer, run one command
    code = (
        f"import json, os, sys\nsys.path[:0] = "
        f"[{str(SRC)!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import convexenum.cli, tracing\n"
        "tracer = tracing.install()\n"
        "code = convexenum.cli.main("
        "['perms', 'bounds', '--k', '1', '--out', os.devnull])\n"
        "print(json.dumps([code, [s[0] for s in tracer.spans], "
        "tracer.counters]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    code, spans, counters = json.loads(out)
    assert code == 0
    assert {"cli.main", "perms.build_digraph",
            "exact.roots.smallest_positive_root"} <= set(spans)
    assert counters["exact.ratfun.RationalFunction.constructions"] > 0


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
    one = TruncatedSeries.one(3)
    rf = RationalFunction(Polynomial((1, -1)), Polynomial((1, -2)))
    bounds = dict(k=1, lower_gf=rf, upper_gf=rf, lower_root=(0, 1),
                  upper_root=(0, 1), lower_rate="1", upper_rate="1")
    records = [
        perms.DescendantDigraph(k=1, nodes=(perms.START_KEY,), edges=()),
        perms.GrowthBounds(**bounds),
        WordGF(p=2, k=0, series=one, ratfun=None),
    ]
    assert records[-1].ratfun is None
    assert records[1] == perms.GrowthBounds(**bounds)
    assert records[1] != perms.GrowthBounds(**{**bounds, "k": 2})
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
    one = TruncatedSeries((1, Fraction(1, 2)), 3)
    values = [Polynomial((1, Fraction(-2, 3))), one,
              RationalFunction(Polynomial((1, -1)), Polynomial((1, -2))),
              linalg.SeriesMatrix([[one, one], [one, -one]])]
    names = {cls.__name__: cls for cls in map(type, values)}
    for value in values:
        assert type(value).__repr__ is Frozen.__repr__
        assert eval(repr(value), {"Fraction": Fraction, **names}) == value
    assert repr(values[0]) == "Polynomial(coeffs=(1, Fraction(-2, 3)))"


PROTOCOL = {"__setattr__", "__delattr__", "__reduce__", "__eq__", "__hash__"}


def protocol_forks(source: str) -> list[str]:
    """``Class.method`` for each method of :class:`Frozen`'s protocol
    that a class of ``source`` other than ``Frozen`` defines or binds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or node.name == "Frozen":
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names
                      if name in PROTOCOL]
    return found


def test_only_frozen_implements_immutability_equality_and_pickling():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    forks = {str(path.relative_to(ROOT)): protocol_forks(path.read_text())
             for path in files}
    assert {path: found for path, found in forks.items() if found} == {}


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
    perms.GrowthBounds: dict(k=1, lower_gf=_RF, upper_gf=_RF,
                             lower_root=(0, 1), upper_root=(0, 1),
                             lower_rate="1", upper_rate="1"),
    WordGF: dict(p=2, k=0, series=TruncatedSeries.one(3), ratfun=_RF),
}


@pytest.mark.parametrize("cls,fields", RECORDS.items(),
                         ids=[cls.__name__ for cls in RECORDS])
def test_records_are_built_by_position_or_by_field_name(cls, fields):
    values = list(fields.values())
    assert list(fields) == list(cls.__slots__)
    by_position = cls(*values)
    by_name = cls(**fields)
    mixed = cls(*values[:2], **dict(list(fields.items())[2:]))
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
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
                (_dotted(base) or "").split(".")[-1] == "Frozen"
                for base in node.bases):
            continue
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"):
                continue
            body = item.body[1:] if ast.get_docstring(item) else item.body
            call = body[0].value if len(body) == 1 \
                and isinstance(body[0], ast.Expr) else None
            if not isinstance(call, ast.Call) \
                    or ast.unparse(call.func) != "super().__init__":
                continue
            params = {arg.arg for arg in ast.walk(item.args)
                      if isinstance(arg, ast.arg)}
            passed = [getattr(arg, "value", arg) for arg in call.args] \
                + [keyword.value for keyword in call.keywords]
            if all(isinstance(arg, ast.Name) and arg.id in params
                   for arg in passed):
                found.append(f"{node.name}.__init__")
    return found


def test_no_frozen_subclass_only_forwards_its_fields():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    found = {str(path.relative_to(ROOT)): forwarders(path.read_text())
             for path in files}
    assert {path: names for path, names in found.items() if names} == {}


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
