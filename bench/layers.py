"""Layer timings of the exhaustive searches, the round trip of the
0-convex word bijection (decode then encode every 0-convex word of
length 11 on [6]), the word DP's series of 1-convex words on [12] to
order 300, the series and closed form of 1-convex words on [20], the
ladder counts of k-convex permutations, to n = 1000 with the k = 1
ladder's f_1 series beside them, the depth-150 digraphs
(built, labeled and written as DOT), the exact kernel's certified
growth bounds and its integer root isolation alone (``root_interval``,
what ``perms bounds`` runs) on their four bound denominators and the
k = 1 lower one cut at (1, 2, 7, 8), the gcd of each of those five
with its derivative, the resolvent row of the k = 1 cut digraph (walk
counts, then Berlekamp–Massey per entry; its sum is checked outside
the timed call), the k = 1 ladder's tot and f_1 series, the k = 2
components, the exact f_2 series from precomputed components and the
2-convex formula report, the size of the library's code, and what each
of the benchmark's CLI commands loads.

    python bench/layers.py [--label NAME] [--src DIR]

Each in-process case runs seven times, timed with ``time.perf_counter``;
its median and its quartiles, which show how far a run's times spread,
are kept.  The two cases at n = 1000 also keep the ``tracemalloc`` peak
of one more call, made apart from the timed samples, which tracing
slows about twentyfold; n = 2000 stays out, since there one traced
call took 16 s on a 2-core x86-64 host, and CI runs this harness.
Before every sample a fixed standard-library probe is timed
(``probe``), as ``perfbench/run.py`` times its ``PROBE`` before every
job, and each case also keeps the median of its samples over their
probes.  The machine's speed drifts between runs, and drift slows a
probe and the sample after it alike: in two back-to-back runs of one
tree on a shared 2-core x86-64 host, ``count_perms_bruteforce(12, 2)``
read 12.4 and 8.4 ms but 2.14 and 2.09 probes.  So comparisons across
runs, such as a parent tree against a change, read that ratio; the raw
times show the machine of one run.  Every result is checked against
``tests/_goldens.py``, a root interval (lo, hi, den) through
``Fraction(lo, den)``, or ``tot_series`` against the convergents of the
continued fraction in ``tests/_oracles.py`` and the deeper word search
against ``words.count_words_dp``, and the bijection's round trip
against its input, and the word series' first seven coefficients
against ``words.count_words_bruteforce``, ``f1_series(1000)`` against
``ladder.perm_counts(1, 1000)``, with the closed form on [20]
expanded by ``_oracles.to_series`` against its series, and a wrong one
stops the run with exit 1.
No cache is left in ``convexenum.perms``, so the labels, and the DOT
text that holds them, are timed cold.
The code size is the number of lines of ``src`` that hold a token,
leaving out blank lines, comments and docstrings, in total and per
module, and the same count of the ``tests`` directory next to ``src``.

Start-up is not timed here: a best of five fresh interpreters cannot
resolve differences below about 30 ms on a noisy 2-core host.  The
benchmark in ``perfbench/`` measures it as ``setup_s`` on every job,
with its spread.  What it loads is recorded instead, which does not
vary from run to run: each of the benchmark's CLI commands, as listed
in ``perfbench/workloads.py``, runs in a fresh interpreter without
``site`` (so nothing preloads a module), and its record lists the
library modules that ran, whether ``fractions`` was imported, which of
``argparse``, ``gettext``, ``locale``, ``json`` and ``re`` were
(``deferred_imported``), the code lines of those modules, and
``gc_tracked_after_main``: the number of objects the cyclic collector
tracks right after ``main`` returns, all of which the full collections
at interpreter shutdown traverse.  Each record also holds the medians
of one ``fast_parse`` and of one ``build_parser().parse_args`` of the
command's benchmark argv (``--json`` included), timed in process with
warm imports.

The times are merged into ``BENCH_layers.json`` at the repository root
under NAME (default ``current``), next to the runs already there, which
stay as they were recorded.  ``--src`` measures the library in another
checkout's ``src`` directory, for example a clone of an older commit;
one older than ``roots.root_interval`` needs the harness of its own
checkout.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
import tokenize
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEAT = 7
PARSES = 20  # calls in one timed sample of a parse
#: the cases whose tracemalloc peak is kept too
PEAKED = ("perm_counts(2, 1000)", "f1_series(1000)")

def cli_commands(workloads) -> dict[str, list[str]]:
    """The CLI jobs of ``perfbench/workloads.py``, by workload: each
    one's command, without the ``--json`` that the benchmark appends to
    compare their results, and its argv as the benchmark runs it."""
    commands = {}
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            if job.kind == "cli":
                argv = job.args[:-1] if job.args[-1] == "--json" else job.args
                commands[" ".join(argv)] = list(job.args)
    return commands


def cases(cfrac, ladder, perms, words, g, oracles):
    """(name, call, check) for every timed case."""
    from convexenum.exact import linalg
    from convexenum.exact.roots import root_interval
    from convexenum.exact.polynomial import Polynomial
    from convexenum.search import convex_sequences
    search = g.SEARCH_COUNTS
    b1, _, t = oracles.convergents(60)
    words_12_1 = [words.count_words_bruteforce(n, 12, 1) for n in range(7)]
    words_20_1 = [words.count_words_bruteforce(n, 20, 1) for n in range(7)]
    tot = t / b1  # walks from 1223
    k2 = cfrac.k2_components(250)
    f1 = ladder.perm_counts(1, 1000)

    def digraph(k, depth):
        graph = perms.build_digraph(k, depth=depth)
        dot, labels = g.DOT_SHA256[k, depth], g.LABELS_SHA256[k, depth]

        def sha256(text):
            return hashlib.sha256(text.encode()).hexdigest()

        return [
            (f"build_digraph({k}, depth={depth})",
             lambda: perms.build_digraph(k, depth=depth),
             lambda out: sha256(out.to_dot()) == dot),
            (f"labels of build_digraph({k}, {depth}), cold",
             lambda: graph.labels,
             lambda out: sha256("\n".join(out)) == labels),
            (f"to_dot of build_digraph({k}, {depth})", graph.to_dot,
             lambda out: sha256(out) == dot),
        ]

    def counts(k, n):
        return (f"perm_counts({k}, {n})", lambda: ladder.perm_counts(k, n),
                lambda out: len(out) == n and out[-1] == g.DEEP_F[k, n])

    def rational(interval):
        """An integer interval (lo, hi, den) as its pair of
        ``Fraction``s, to compare with a golden."""
        lo, hi, den = interval
        return Fraction(lo, den), Fraction(hi, den)

    def bounds(k):
        roots = g.ROOT_INTERVALS[k, "lower"], g.ROOT_INTERVALS[k, "upper"]
        return (f"growth_bounds({k}, 20)", lambda: perms.growth_bounds(k, 20),
                lambda out: (rational(out.lower_root),
                             rational(out.upper_root)) == roots)

    def root(k, side, cutoff=None):
        """Root isolation alone, on a bound denominator built before
        the timing."""
        den = perms.gf_bound(k, side, cutoff=cutoff).den
        if cutoff is None:
            name, interval = f"{side} {k}", g.ROOT_INTERVALS[k, side]
        else:  # the one cut bound with a golden root
            name = f"{side} {k}, cutoff={cutoff}"
            interval = g.CUTOFF_1278_ROOT
        return (f"root_interval(gf_bound({name}).den, 20)",
                lambda: root_interval(den, 20),
                lambda out: rational(out) == interval)

    def squarefree(k, side, cutoff=None):
        """The gcd of a bound denominator and its derivative, built
        before the timing: the primitive remainder sequence alone.  Every
        bound denominator is squarefree, so the gcd is 1."""
        den = perms.gf_bound(k, side, cutoff=cutoff).den
        name = f"{side} {k}" + (f", cutoff={cutoff}" if cutoff else "")
        return (f"gcd(den, den') of gf_bound({name})",
                lambda: den.gcd(den.derivative()),
                lambda out: out == Polynomial((1,)))

    def resolvent():
        """The resolvent row of the k = 1 cut digraph, computed by the
        kernel alone.  Its check, outside the timed call, sums the row
        exactly by ``_oracles.rf_sum`` into the walk totals W; as
        1 + x + 2 x^2 W, formed in the oracles' ring Q[x], they are the
        lower bound GF."""
        lower = perms.gf_bound(1, "lower")
        m = oracles.adjacency(
            perms.build_digraph(1, cutoff=perms.DEFAULT_CUTOFF[1]))

        def check(out):
            walks = oracles.rf_sum(out)
            num, den = walks.num.coeffs, walks.den.coeffs
            return oracles.reduced(oracles.q_add(
                oracles.q_mul([1, 1], den), oracles.q_mul([0, 0, 2], num)),
                den) == lower

        return (f"matrix_resolvent_row(adjacency of "
                f"build_digraph(1, cutoff={perms.DEFAULT_CUTOFF[1]}), 0)",
                lambda: linalg.matrix_resolvent_row(m, 0), check)

    def bijection(n, p):
        """Decode then encode every 0-convex word of length n on [p],
        listed by the shared search before the timing; n > 2(p - 1), so
        there are G0P_STABLE[p - 1] of them."""
        # the search yields one list, updated in place: Word copies it
        ws = [words.Word(letters, p)
              for letters in convex_sequences(n, p, 0, False)]
        return (f"encode_word(*decode_word(w), {n}, {p}) for every "
                f"0-convex word w of length {n} on [{p}]",
                lambda: [words.encode_word(*words.decode_word(w), n, p)
                         for w in ws],
                lambda out: out == ws and len(out) == g.G0P_STABLE[p - 1])

    return [
        ("count_words_bruteforce(12, 5, 1)",
         lambda: words.count_words_bruteforce(12, 5, 1),
         lambda out: out == search[12, 5, 1, False]),
        ("count_words_bruteforce(13, 5, 1)",
         lambda: words.count_words_bruteforce(13, 5, 1),
         lambda out: out == words.count_words_dp(13, 5, 1)),
        bijection(11, 6),
        ("word_gf(12, 1, order=300)",
         lambda: words.word_gf(12, 1, order=300),
         lambda out: list(out.series.coeffs[:7]) == words_12_1),
        ("word_gf(20, 1, with_ratfun=True)",
         lambda: words.word_gf(20, 1, with_ratfun=True),
         lambda out: list(out.series.coeffs[:7]) == words_20_1
         and oracles.to_series(out.ratfun, out.series.order) == out.series),
        ("count_perms_bruteforce(12, 1)",
         lambda: perms.count_perms_bruteforce(12, 1),
         lambda out: out == g.TABLE_F1[11]),
        ("count_perms_bruteforce(12, 2)",
         lambda: perms.count_perms_bruteforce(12, 2),
         lambda out: out == g.TABLE_F2[11]),
        ("count_perms_bruteforce(12, 3)",
         lambda: perms.count_perms_bruteforce(12, 3),
         lambda out: out == search[12, 12, 3, True]),
        ("count_perms_bruteforce(11, 4)",
         lambda: perms.count_perms_bruteforce(11, 4),
         lambda out: out == search[11, 11, 4, True]),
        counts(1, 120),
        counts(2, 250),
        counts(2, 500),
        ("perm_counts(2, 1000)", lambda: ladder.perm_counts(2, 1000),
         lambda out: len(out) == 1000 and out[499] == g.DEEP_F[2, 500]),
        *digraph(1, 150),
        *digraph(2, 150),
        bounds(1),
        bounds(2),
        root(1, "lower"),
        root(1, "upper"),
        root(2, "lower"),
        root(2, "upper"),
        root(1, "lower", cutoff=(1, 2, 7, 8)),
        squarefree(1, "lower"),
        squarefree(1, "upper"),
        squarefree(2, "lower"),
        squarefree(2, "upper"),
        squarefree(1, "lower", cutoff=(1, 2, 7, 8)),
        resolvent(),
        ("tot_series(60)", lambda: cfrac.tot_series(60),
         lambda out: out == tot),
        ("f1_series(120)", lambda: cfrac.f1_series(120),
         lambda out: out.coeffs[120] == g.DEEP_F[1, 120]),
        ("f1_series(250)", lambda: cfrac.f1_series(250),
         lambda out: out.coeffs[250] == g.DEEP_F[1, 250]),
        ("f1_series(1000)", lambda: cfrac.f1_series(1000),
         lambda out: list(out.coeffs[1:]) == f1),
        ("k2_components(200)", lambda: cfrac.k2_components(200),
         lambda out: tuple(s.coeffs[200] for s in out)
         == g.K2_COMPONENTS_200),
        ("f2_exact_series(k2_components(250))",
         lambda: cfrac.f2_exact_series(k2),
         lambda out: out.coeffs[250] == g.DEEP_F[2, 250]),
        ("f2_formula_check(40)",
         lambda: cfrac.f2_formula_check(40),
         lambda out: out["exact"][1:13] == g.TABLE_F2
         and out["derived_closed_form_agrees"] is True),
    ]


def probe() -> float:
    """Seconds of a fixed computation in the standard library alone,
    ``Fraction`` and list arithmetic, about 3 to 5 ms: a smaller copy of
    ``perfbench/run.py``'s ``PROBE``."""
    start = time.perf_counter()
    a = [Fraction(i, i + 1) for i in range(1, 30)]
    for _ in range(20):
        a = [x * y + Fraction(1, 3) for x, y in zip(a, reversed(a))]
        a = [Fraction(x.numerator % 10007, x.denominator % 10009 + 1)
             for x in a]
    return time.perf_counter() - start


def run_times(call, check) -> tuple[list[float], list[float]]:
    """The seconds of ``REPEAT`` calls, and the probe timed right before
    each."""
    times, probes = [], []
    for _ in range(REPEAT):
        probes.append(probe())
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
        if not check(out):
            raise SystemExit(f"wrong result: {out!r}")
    return times, probes


def peak_mib(call) -> float:
    """The ``tracemalloc`` peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src: Path) -> dict[str, int]:
    """Lines of each ``.py`` file under ``src`` that hold a token, not
    counting blank lines, comments and docstrings, by module name."""
    counts = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        counts[module] = len(lines - docstrings)
    return counts


#: standard modules that a command needs only for help, a usage error
#: or ``--json``
DEFERRED = ("argparse", "gettext", "locale", "json", "re")


def startup(src: Path, command: str, by_module: dict[str, int]) -> dict:
    """What ``convexenum COMMAND`` loads from the library in ``src``, in
    a fresh interpreter without ``site``: the library modules that run,
    whether ``fractions`` is imported, which of ``DEFERRED`` are, the
    code lines of those library modules, and the objects the cyclic
    collector still tracks right after ``main`` returns, which
    shutdown's full collections traverse.  A lazily registered module
    that is never read has not run.  A command that does not exit 0
    stops the run."""
    code = (
        f"import gc, os, sys, types\nsys.path.insert(0, {str(src)!r})\n"
        "import convexenum.cli\n"
        f"code = convexenum.cli.main({command.split()!r} + "
        "['--out', os.devnull])\n"
        "tracked = len(gc.get_objects())\n"
        "print(*sorted(name for name, module in sys.modules.items()\n"
        "              if name.partition('.')[0] == 'convexenum'\n"
        "              and type(module) is types.ModuleType))\n"
        f"print(*(name for name in {DEFERRED!r} if name in sys.modules))\n"
        "print('fractions' in sys.modules)\nprint(tracked)\n"
        "sys.exit(code)")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"convexenum {command} exited {out.returncode}:\n"
                         f"{out.stderr}")
    names, deferred, fractions, tracked = out.stdout.splitlines()
    modules = names.split()
    return {"modules": modules, "fractions": fractions == "True",
            "deferred_imported": deferred.split(),
            "code_lines": sum(by_module[name] for name in modules),
            "gc_tracked_after_main": int(tracked)}


def parse_times(cli, argv: list[str]) -> dict:
    """Median seconds, in process and warm, of one ``fast_parse(argv)``
    and of one ``build_parser().parse_args(argv)`` of the CLI module
    ``cli``, each from ``REPEAT`` samples of ``PARSES`` calls.  A
    command's imports are not in them: ``startup`` lists those."""
    def median(call):
        return round(statistics.median(timeit.repeat(
            call, number=PARSES, repeat=REPEAT)) / PARSES, 7)

    return {"fast_parse_s": median(lambda: cli.fast_parse(argv)),
            "argparse_s": median(lambda: cli.build_parser().parse_args(argv))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests"),
                    str(ROOT / "perfbench")]
    import _goldens
    import _oracles
    import workloads
    from convexenum import cfrac, ladder, perms, words

    medians, quartiles, ratios, peaks, all_probes = {}, {}, {}, {}, []
    for name, call, check in cases(cfrac, ladder, perms, words, _goldens,
                                   _oracles):
        ts, probes = run_times(call, check)
        all_probes += probes
        q1, median, q3 = statistics.quantiles(ts, n=4)
        medians[name] = round(median, 5)
        quartiles[name] = [round(q1, 5), round(q3, 5)]
        ratios[name] = round(statistics.median(
            t / p for t, p in zip(ts, probes)), 4)
        print(f"{median * 1000:10.1f} ms  [{q1 * 1000:.1f}, {q3 * 1000:.1f}]"
              f"  {ratios[name]:8.3f} probes  {name}")
        if name in PEAKED:
            peaks[name] = round(peak_mib(call), 1)
            print(f"{peaks[name]:10.1f} MiB tracemalloc peak  {name}")
    probe_s = statistics.median(all_probes)
    print(f"{probe_s * 1000:10.1f} ms  median probe")
    by_module = code_lines(args.src)
    lines = sum(by_module.values())
    print(f"{lines:10d} code lines in {args.src}")
    tests_by_module = code_lines(args.src.parent / "tests")
    print(f"{sum(tests_by_module.values()):10d} code lines in "
          f"{args.src.parent / 'tests'}")
    import convexenum.cli
    loads = {}
    for command, argv in cli_commands(workloads).items():
        record = loads[command] = startup(args.src.resolve(), command,
                                          by_module)
        record.update(parse_times(convexenum.cli, argv))
        print(f"{record['code_lines']:10d} code lines in "
              f"{len(record['modules'])} modules, fractions "
              f"{'loaded' if record['fractions'] else 'not loaded'}, "
              f"imports of {'/'.join(DEFERRED)}: "
              f"{' '.join(record['deferred_imported']) or 'none'}, "
              f"{record['gc_tracked_after_main']} objects tracked after "
              f"main, parsed in {record['fast_parse_s'] * 1e6:.0f} us "
              f"(argparse {record['argparse_s'] * 1e6:.0f} us): "
              f"convexenum {command}")

    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    runs = report.get("runs", {})
    runs[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "statistic": f"median and quartiles of {REPEAT}, in process; "
                     "median of each sample over the probe before it",
        "median_s": medians,
        "quartiles_s": quartiles,
        "probe_s": round(probe_s, 6),
        "median_probe_ratio": ratios,
        "tracemalloc_peak_mib": peaks,
        "src_code_lines": lines,
        "src_code_lines_by_module": by_module,
        "tests_code_lines": sum(tests_by_module.values()),
        "tests_code_lines_by_module": tests_by_module,
        "cli_startup": loads,
    }
    OUT.write_text(json.dumps({"harness": "bench/layers.py", "runs": runs},
                              indent=2) + "\n")
    print(f"wrote {OUT.name}: {', '.join(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
