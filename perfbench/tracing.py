"""Spans and counters recorded around convexenum's public functions.

Nothing inside the library is edited: each traced function or method is
replaced, for the life of one job process, by a wrapper that records a
span ``[name, start, end, parent]`` in memory.  A function is replaced
under every name any ``convexenum`` module binds it to, so that calls
through ``from ... import`` bindings (``perms.smallest_positive_root``,
``words.solve_field_system``, ``cfrac.solve_series_system``, ...) and
method aliases (``TruncatedSeries.__rmul__``) are traced as well.  The
library's caches are neither warmed nor cleared.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_digraph(counters, fn, args, kwargs, graph):
    counters["perms.digraph.nodes"] += len(graph.nodes)
    counters["perms.digraph.edges"] += len(graph.edges)


def _count_walk(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counters["perms.walk_count.node_steps"] += (
        len(a["g"].nodes) * max(0, a["n"] - 2))


def _count_field_unknowns(counters, fn, args, kwargs, result):
    counters["exact.linalg.solve_field_system.unknowns"] += len(
        _bound(fn, args, kwargs)["matrix"])


def _count_series_unknowns(counters, fn, args, kwargs, result):
    counters["exact.linalg.solve_series_system.unknowns"] += _bound(
        fn, args, kwargs)["m"].rows


def _count_root_degree(counters, fn, args, kwargs, result):
    counters["exact.roots.smallest_positive_root.degree"] += _bound(
        fn, args, kwargs)["p"].degree


ROOTS = "exact.roots.smallest_positive_root"

#: (module, attribute, span name, counter hook).  An attribute with a
#: dot is a method.  Pipelines without a metric of their own are traced
#: too, so that their work is not charged to their caller's self time.
SPANS = [
    ("convexenum.cli", "main", "cli.main", None),
    ("convexenum.perms", "build_digraph", "perms.build_digraph", _count_digraph),
    ("convexenum.perms", "walk_count", "perms.walk_count", _count_walk),
    ("convexenum.perms", "count_perms_bruteforce", "perms.count_perms_bruteforce", None),
    ("convexenum.perms", "count_perms_digraph", "perms.count_perms_digraph", None),
    ("convexenum.perms", "check_subadditivity", "perms.check_subadditivity", None),
    ("convexenum.perms", "gf_bound", "perms.gf_bound", None),
    ("convexenum.perms", "growth_bounds", "perms.growth_bounds", None),
    ("convexenum.words", "word_gf", "words.word_gf", None),
    ("convexenum.words", "count_words_dp", "words.count_words_dp", None),
    ("convexenum.words", "count_words_bruteforce", "words.count_words_bruteforce", None),
    ("convexenum.cfrac", "ladder_tower", "cfrac.ladder_tower", None),
    ("convexenum.cfrac", "tot_series", "cfrac.tot_series", None),
    ("convexenum.cfrac", "f1_series", "cfrac.f1_series", None),
    ("convexenum.cfrac", "k2_components", "cfrac.k2_components", None),
    ("convexenum.cfrac", "f2_formula_series", "cfrac.f2_formula_series", None),
    ("convexenum.cfrac", "f2_exact_series", "cfrac.f2_exact_series", None),
    ("convexenum.cfrac", "f2_formula_check", "cfrac.f2_formula_check", None),
    ("convexenum.exact.linalg", "solve_field_system",
     "exact.linalg.solve_field_system", _count_field_unknowns),
    ("convexenum.exact.linalg", "solve_series_system",
     "exact.linalg.solve_series_system", _count_series_unknowns),
    ("convexenum.exact.linalg", "matrix_resolvent_row",
     "exact.linalg.matrix_resolvent_row", None),
    ("convexenum.exact.roots", "smallest_positive_root", ROOTS, _count_root_degree),
    ("convexenum.exact.polynomial", "Polynomial.gcd", "exact.polynomial.gcd", None),
    ("convexenum.exact.series", "TruncatedSeries.__mul__", "exact.series.mul", None),
    ("convexenum.exact.series", "TruncatedSeries.__sub__", "exact.series.sub", None),
    ("convexenum.exact.series", "TruncatedSeries.invert", "exact.series.invert", None),
]

#: (module, method, counter, span that must be open for a call to count)
COUNTS = [
    ("convexenum.exact.ratfun", "RationalFunction.__init__",
     "exact.ratfun.RationalFunction.constructions", None),
    ("convexenum.exact.polynomial", "Polynomial.__call__",
     "exact.roots.evaluations", ROOTS),
]


class Tracer:
    """Records spans and counters for one job process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.depth: Counter = Counter()  # span name -> nesting depth
        self._stack: list[int] = []

    def span(self, name, fn, hook=None):
        spans, stack, depth, counters = (
            self.spans, self._stack, self.depth, self.counters)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            depth[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                depth[name] -= 1
                stack.pop()
            if hook is not None:
                hook(counters, fn, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn, inside=None):
        counters, depth = self.counters, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or depth[inside]:
                counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(module_name: str, attr: str, make) -> None:
    """Replace ``attr`` under every name that binds the same object."""
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        original = cls.__dict__[method]
        wrapper = make(original)
        for name, value in list(cls.__dict__.items()):
            if value is original:  # e.g. __rmul__ = __mul__
                setattr(cls, name, wrapper)
        return
    original = getattr(owner, attr)
    wrapper = make(original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("convexenum"):
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


def install() -> Tracer:
    """Wrap every traced name; the convexenum modules must be imported."""
    import convexenum.cli  # noqa: F401  (loads every traced module)

    tracer = Tracer()
    for module, attr, name, hook in SPANS:
        _rebind(module, attr,
                lambda fn, name=name, hook=hook: tracer.span(name, fn, hook))
    for module, attr, name, inside in COUNTS:
        _rebind(module, attr,
                lambda fn, name=name, inside=inside: tracer.counter(name, fn, inside))
    return tracer
