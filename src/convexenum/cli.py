"""Command-line front end for the convexenum library.

Grammar: ``convexenum <words|perms|cfrac> <subcommand> [--flags]``.

Every numeric value is rendered exactly: integers verbatim, rationals
as num/den, root intervals as decimal strings with explicit endpoints.
Commands that run more than one engine report their agreement in-band
and exit nonzero on a mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from convexenum import cfrac, perms, words
from convexenum.exact.roots import render_interval
from convexenum.exact.series import DEFAULT_ORDER, TruncatedSeries


@dataclass
class OutputRecord:
    """Machine-readable result of one CLI invocation."""

    command: str
    parameters: dict
    results: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
    exit_code: int = 0

    def add(self, name: str, value) -> None:
        self.results.append((name, value))

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "results": [[name, value] for name, value in self.results],
            "provenance": self.provenance,
        }


def _series_strings(s: TruncatedSeries) -> list:
    return [str(c) for c in s.coeffs]


def _render(record: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record.to_dict(), indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
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


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def cmd_words(args) -> OutputRecord:
    sub = args.subcommand
    if sub == "count":
        rec = OutputRecord("words count",
                           {"n": args.n, "p": args.p, "k": args.k})
        bf = words.count_words_bruteforce(args.n, args.p, args.k)
        dp = words.count_words_dp(args.n, args.p, args.k)
        rec.provenance = ["bruteforce", "dp"]
        rec.add("bruteforce", bf)
        rec.add("dp", dp)
        rec.add("agree", bf == dp)
        if bf != dp:
            rec.exit_code = 1
        return rec
    if sub == "gf":
        order = args.order if args.order is not None else DEFAULT_ORDER
        rec = OutputRecord("words gf",
                           {"p": args.p, "k": args.k, "order": order})
        gf = words.word_gf(args.p, args.k, order)
        rec.provenance = ["dp"]
        rec.add("coefficients", _series_strings(gf.series))
        return rec
    if sub == "stable":
        rec = OutputRecord("words stable", {"p": args.p})
        rec.provenance = ["dp"]
        rec.add("stable_count", words.g0p_stable(args.p))
        return rec
    if sub == "encode":
        rec = OutputRecord("words encode",
                           {"p": args.p, "m": args.m, "w1": args.w1,
                            "w2": args.w2, "n": args.n})
        w = words.encode_word(args.m, _parse_partition(args.w1),
                              _parse_partition(args.w2), args.n, p=args.p)
        rec.provenance = ["bijection"]
        rec.add("word", str(w))
        return rec
    if sub == "decode":
        rec = OutputRecord("words decode", {"word": args.word, "p": args.p})
        w = words.Word(_parse_letters(args.word), args.p)
        m, w1, w2 = words.decode_word(w)
        rec.provenance = ["bijection"]
        rec.add("m", m)
        rec.add("w1", str(w1))
        rec.add("w2", str(w2))
        return rec
    raise ValueError(f"unknown words subcommand {sub!r}")


# ---------------------------------------------------------------------------
# perms
# ---------------------------------------------------------------------------

def cmd_perms(args) -> OutputRecord:
    sub = args.subcommand
    if sub == "count":
        rec = OutputRecord("perms count", {"n": args.n, "k": args.k})
        engines = {}
        engines["bruteforce"] = perms.count_perms_bruteforce(args.n, args.k)
        if args.k == 0:
            engines["closed_form"] = perms.f0_closed(args.n)
        elif args.k in (1, 2):
            engines["digraph"] = perms.count_perms_digraph(args.k, args.n)
        rec.provenance = list(engines)
        for name, value in engines.items():
            rec.add(name, value)
        agree = len(set(engines.values())) == 1
        rec.add("agree", agree)
        if not agree:
            rec.exit_code = 1
        return rec
    if sub == "table":
        rec = OutputRecord("perms table", {"max_n": args.max_n})
        rec.provenance = ["closed_form", "digraph"]
        f1 = perms.perm_counts(1, args.max_n)
        f2 = perms.perm_counts(2, args.max_n)
        for n in range(1, args.max_n + 1):
            rec.add(f"n={n}", [perms.f0_closed(n), f1[n - 1], f2[n - 1]])
        return rec
    if sub == "bounds":
        precision = args.precision
        rec = OutputRecord("perms bounds",
                           {"k": args.k, "precision": precision})
        if args.k not in (1, 2):
            raise ValueError("bounds require k in {1, 2}")
        gb = perms.growth_bounds(args.k, precision)
        rec.provenance = ["digraph", "walk_dp", "berlekamp_massey"]
        rec.add("lower_gf_num", str(gb.lower_gf.num))
        rec.add("lower_gf_den", str(gb.lower_gf.den))
        rec.add("upper_gf_num", str(gb.upper_gf.num))
        rec.add("upper_gf_den", str(gb.upper_gf.den))
        digits = min(precision, 20)
        rec.add("lower_gf_root", render_interval(*gb.lower_root, digits))
        rec.add("upper_gf_root", render_interval(*gb.upper_root, digits))
        rec.add("rate_lower_bound", gb.lower_rate)
        rec.add("rate_upper_bound", gb.upper_rate)
        return rec
    if sub == "digraph":
        rec = OutputRecord("perms digraph",
                           {"k": args.k, "depth": args.depth,
                            "truncate": args.truncate})
        if args.k not in (1, 2):
            raise ValueError("digraph requires k in {1, 2}")
        truncation = None
        if args.truncate:
            truncation = perms.TruncationPolicy(
                perms.DEFAULT_CUTOFF[args.k], mode=args.truncate)
        g = perms.build_digraph(args.k, depth=args.depth,
                                truncation=truncation)
        rec.provenance = ["digraph"]
        rec.add("nodes", len(g.nodes))
        rec.add("edges", len(g.edges))
        rec.add("dot", g.to_dot())
        return rec
    if sub == "subadd":
        rec = OutputRecord("perms subadd", {"k": args.k, "max_n": args.max_n})
        if args.k not in (1, 2):
            raise ValueError("subadd requires k in {1, 2}")
        report = perms.check_subadditivity(args.k, args.max_n)
        rec.provenance = ["digraph"]
        rec.add("holds", report["holds"])
        rec.add("violations",
                [f"m={v['m']} n={v['n']} f={v['f_mn']} bound={v['bound']}"
                 for v in report["violations"]])
        return rec
    raise ValueError(f"unknown perms subcommand {sub!r}")


# ---------------------------------------------------------------------------
# cfrac
# ---------------------------------------------------------------------------

def cmd_cfrac(args) -> OutputRecord:
    sub = args.subcommand
    order = args.order if args.order is not None else DEFAULT_ORDER
    if sub in ("bot", "tot", "f1"):
        rec = OutputRecord(f"cfrac {sub}", {"order": order})
        series = {"bot": cfrac.bot_series, "tot": cfrac.tot_series,
                  "f1": cfrac.f1_series}[sub](order)
        rec.provenance = ["cfrac"]
        rec.add("coefficients", _series_strings(series))
        return rec
    if sub == "f2check":
        rec = OutputRecord("cfrac f2check", {"order": order})
        report = cfrac.f2_formula_check(order)
        rec.provenance = ["cfrac", "digraph"]
        rec.add("exact", [str(v) for v in report["exact"]])
        for root, ev in report["evaluations"].items():
            rec.add(f"{root}_formula",
                    [c["formula"] for c in ev["coefficients"]])
            rec.add(f"{root}_first_mismatch", ev["first_mismatch"])
        rec.add("derived_closed_form_agrees",
                report["derived_closed_form_agrees"])
        return rec
    raise ValueError(f"unknown cfrac subcommand {sub!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--out", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexenum",
        description="Enumeration of locally convex words and permutations.")
    top = parser.add_subparsers(dest="group", required=True)

    pw = top.add_parser("words", help="locally convex words")
    sw = pw.add_subparsers(dest="subcommand", required=True)
    p = sw.add_parser("count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p = sw.add_parser("gf")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int)
    _add_common(p)
    p = sw.add_parser("stable")
    p.add_argument("--p", type=int, required=True)
    _add_common(p)
    p = sw.add_parser("encode")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w1", default="")
    p.add_argument("--w2", default="")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p = sw.add_parser("decode")
    p.add_argument("--word", required=True)
    p.add_argument("--p", type=int, required=True)
    _add_common(p)

    pp = top.add_parser("perms", help="locally convex permutations")
    sp = pp.add_subparsers(dest="subcommand", required=True)
    p = sp.add_parser("count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p = sp.add_parser("table")
    p.add_argument("--max-n", dest="max_n", type=int, default=12)
    _add_common(p)
    p = sp.add_parser("bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--precision", type=int, default=20)
    _add_common(p)
    p = sp.add_parser("digraph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--truncate", choices=["cut", "loop"])
    p.add_argument("--dot", action="store_true",
                   help="emit raw DOT instead of a record")
    _add_common(p)
    p = sp.add_parser("subadd")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-n", dest="max_n", type=int, default=12)
    _add_common(p)

    pc = top.add_parser("cfrac", help="continued-fraction series")
    sc = pc.add_subparsers(dest="subcommand", required=True)
    for name in ("bot", "tot", "f1", "f2check"):
        p = sc.add_parser(name)
        p.add_argument("--order", type=int)
        _add_common(p)

    return parser


_DISPATCH = {"words": cmd_words, "perms": cmd_perms, "cfrac": cmd_cfrac}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = _DISPATCH[args.group](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(record, args)


if __name__ == "__main__":
    sys.exit(main())
