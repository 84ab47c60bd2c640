"""The ``convexenum cfrac`` subcommands."""

from __future__ import annotations

from convexenum import DEFAULT_ORDER, cfrac


def _cfrac_series(args, rec):
    engine = {"bot": cfrac.bot_series, "tot": cfrac.tot_series,
              "f1": cfrac.f1_series}[args.subcommand]
    rec.add_series(engine(args.order))


def _cfrac_f2check(args, rec):
    for name, value in cfrac.f2_formula_check(args.order).items():
        rec.add(name, [str(v) for v in value] if isinstance(value, list)
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
