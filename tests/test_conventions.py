"""Code conventions checked on the source tree itself.

No module reaches into another module's private names: every ``.py``
file under ``src/`` and ``tests/`` is parsed, and neither
``from convexenum... import _name`` nor ``<convexenum module>._name``
may appear.  Dunder names such as ``__version__`` are public.

Every name has one import path, its defining module: no package
``__init__.py`` imports anything or binds a name other than a dunder.

Every name the benchmark's tracer (``perfbench/tracing.py``) wraps
still exists, with the parameters its counter hooks read, and each
hook counts on a real call.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from fractions import Fraction
from pathlib import Path

from convexenum import perms
from convexenum.exact import linalg, roots
from convexenum.exact.polynomial import Polynomial
from convexenum.exact.series import TruncatedSeries

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


def test_package_inits_bind_only_dunders():
    inits = sorted(SRC.rglob("__init__.py"))
    assert len(inits) >= 2
    for path in inits:
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = [node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)]
        bound += [node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))]
        assert not imports, path.relative_to(ROOT)
        assert all(map(_dunder, bound)), path.relative_to(ROOT)


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
