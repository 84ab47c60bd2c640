"""The ``convexenum cfrac`` subcommands."""

from __future__ import annotations

from convexenum import DEFAULT_ORDER, cfrac


def _cfrac_series(args):
    engine = {"bot": cfrac.bot_series, "tot": cfrac.tot_series,
              "f1": cfrac.f1_series}[args.subcommand]
    yield "coefficients", [str(c) for c in engine(args.order).coeffs]


def _cfrac_f2check(args):
    for name, value in cfrac.f2_formula_check(args.order).items():
        yield name, ([str(v) for v in value] if isinstance(value, list)
                     else value)


_ORDER = {"type": int, "default": DEFAULT_ORDER}

#: subcommand -> (handler, engines, options), as in
#: :mod:`convexenum.commands.words`
COMMANDS = {
    "bot": (_cfrac_series, ("cfrac",), {"order": _ORDER}),
    "tot": (_cfrac_series, ("cfrac",), {"order": _ORDER}),
    "f1": (_cfrac_series, ("cfrac",), {"order": _ORDER}),
    "f2check": (_cfrac_f2check, ("cfrac", "digraph"), {"order": _ORDER}),
}
