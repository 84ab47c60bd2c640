"""Layer timings of the exhaustive searches, the round trip of the
0-convex word bijection (decode then encode every 0-convex word of
length 11 on [6]), the word DP's series of 1-convex words on [12] to
order 300, the ladder counts of k-convex permutations, the
depth-150 digraphs (built, labeled and written as DOT), the exact
kernel's certified growth bounds and its root isolation alone on their
four bound denominators and the k = 1 lower one cut at (1, 2, 7, 8),
the gcd of each of those five with its derivative, its rational-function
elimination of the k = 1 cut digraph, the canonical form of a rational
function with a common factor, the k = 1 ladder's tot and f_1 series,
the k = 2 components, the exact f_2 series from precomputed components
and the 2-convex formula report, the size of the library's code, and
what each of the benchmark's CLI commands loads.

    python bench/layers.py [--label NAME] [--src DIR]

Each in-process case runs seven times, timed with ``time.perf_counter``;
its median, its quartiles and its best time are kept.  On a noisy
2-core host the best of a run can swing by 1.7x from one run to the
next, so the quartiles show how far a run's times spread.  Every result
is checked against ``tests/_goldens.py``, or ``tot_series`` against the
convergents of the continued fraction in ``tests/_oracles.py`` and the
deeper word search against ``words.count_words_dp``, and the bijection's
round trip against its input, and the word series' first seven
coefficients against ``words.count_words_bruteforce``, and a wrong one
stops the run with exit 1.
No cache is left in ``convexenum.perms``, so the labels, and the DOT
text that holds them, are timed cold.
The code size is the number of lines of ``src`` that hold a token,
leaving out blank lines, comments and docstrings, in total and per
module.

Start-up is not timed here: a best of five fresh interpreters cannot
resolve differences below about 30 ms on a noisy 2-core host.  The
benchmark in ``perfbench/`` measures it as ``setup_s`` on every job,
with its spread.  What it loads is recorded instead, which does not
vary from run to run: each of the benchmark's CLI commands, as listed
in ``perfbench/workloads.py``, runs in a fresh interpreter without
``site`` (so nothing preloads a module), and its record lists the
library modules that ran, whether ``fractions`` was imported, the
code lines of those modules, and ``gc_tracked_after_main``: the number
of objects the cyclic collector tracks right after ``main`` returns,
all of which the full collections at interpreter shutdown traverse.

The times are merged into ``BENCH_layers.json`` at the repository root
under NAME (default ``current``), next to the runs already there, and
each run's speedup over the first run in the file that recorded a
median for the same case is recomputed from the medians.  Runs recorded
before medians were kept have only best times and keep the speedups
they were written with.  ``--src`` measures the library in another
checkout's ``src`` directory, for example a clone of an older commit.
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
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEAT = 7

def cli_commands(workloads) -> list[str]:
    """The CLI jobs of ``perfbench/workloads.py``, by workload, as
    commands, without the ``--json`` that the benchmark appends to
    compare their results."""
    commands = []
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            if job.kind == "cli":
                argv = job.args[:-1] if job.args[-1] == "--json" else job.args
                commands.append(" ".join(argv))
    return commands


def cases(cfrac, ladder, perms, words, g, oracles):
    """(name, call, check) for every timed case."""
    from convexenum.exact import linalg
    from convexenum.exact.roots import smallest_positive_root
    from convexenum.exact.polynomial import Polynomial
    from convexenum.exact.ratfun import RationalFunction
    search = g.SEARCH_COUNTS
    b1, _, t = oracles.convergents(60)
    words_12_1 = [words.count_words_bruteforce(n, 12, 1) for n in range(7)]
    tot = t / b1  # walks from 1223
    k2 = cfrac.k2_components(250)
    # older checkouts define perm_counts in perms, not in ladder
    perm_counts = getattr(ladder, "perm_counts", None) or perms.perm_counts

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
        return (f"perm_counts({k}, {n})", lambda: perm_counts(k, n),
                lambda out: len(out) == n and out[-1] == g.DEEP_F[k, n])

    def bounds(k):
        roots = g.ROOT_INTERVALS[k, "lower"], g.ROOT_INTERVALS[k, "upper"]
        return (f"growth_bounds({k}, 20)", lambda: perms.growth_bounds(k, 20),
                lambda out: (out.lower_root, out.upper_root) == roots)

    def root(k, side, cutoff=None):
        """Root isolation alone, on a bound denominator built before
        the timing."""
        den = perms.gf_bound(k, side, cutoff=cutoff).den
        if cutoff is None:
            name, interval = f"{side} {k}", g.ROOT_INTERVALS[k, side]
        else:  # the one cut bound with a golden root
            name = f"{side} {k}, cutoff={cutoff}"
            interval = g.CUTOFF_1278_ROOT
        return (f"smallest_positive_root(gf_bound({name}).den, 20)",
                lambda: smallest_positive_root(den, 20),
                lambda out: out == interval)

    def squarefree(k, side, cutoff=None):
        """The gcd of a bound denominator and its derivative, built
        before the timing: the primitive remainder sequence alone.  Every
        bound denominator is squarefree, so the gcd is 1."""
        den = perms.gf_bound(k, side, cutoff=cutoff).den
        name = f"{side} {k}" + (f", cutoff={cutoff}" if cutoff else "")
        return (f"gcd(den, den') of gf_bound({name})",
                lambda: den.gcd(den.derivative()),
                lambda out: out == Polynomial.one())

    def resolvent():
        """The walk totals of the k = 1 cut digraph by elimination over
        rational functions, the kernel path with the most operators; as
        1 + x + 2 x^2 W they are the lower bound GF."""
        x = Polynomial.x()
        lower = perms.gf_bound(1, "lower")
        m = oracles.adjacency(
            perms.build_digraph(1, cutoff=perms.DEFAULT_CUTOFF[1]))
        return (f"sum of matrix_resolvent_row(adjacency of "
                f"build_digraph(1, cutoff={perms.DEFAULT_CUTOFF[1]}), 0)",
                lambda: sum(linalg.matrix_resolvent_row(m, 0)),
                lambda out: 1 + x + 2 * x * x * out == lower)

    def bijection(n, p):
        """Decode then encode every 0-convex word of length n on [p],
        listed before the timing; n > 2(p - 1), so there are
        G0P_STABLE[p - 1] of them."""
        ws = list(words.all_convex_words(n, p, 0))
        return (f"encode_word(*decode_word(w), {n}, {p}) for every "
                f"0-convex word w of length {n} on [{p}]",
                lambda: [words.encode_word(*words.decode_word(w), n, p)
                         for w in ws],
                lambda out: out == ws and len(out) == g.G0P_STABLE[p - 1])

    def common_factor():
        """The k = 1 lower bound GF g with both parts times
        f = 1 + 2x + 3x^2: the one case whose gcd is not 1, so the one
        that divides polynomials (by ``//``)."""
        lower, f = perms.gf_bound(1, "lower"), Polynomial((1, 2, 3))
        num, den = lower.num * f, lower.den * f
        return ("RationalFunction(g.num * f, g.den * f), "
                "g = gf_bound(1, lower), f = 1 + 2x + 3x^2",
                lambda: RationalFunction(num, den),
                lambda out: out == lower)

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
        common_factor(),
        ("tot_series(60)", lambda: cfrac.tot_series(60),
         lambda out: out == tot),
        ("f1_series(120)", lambda: cfrac.f1_series(120),
         lambda out: out[120] == g.DEEP_F[1, 120]),
        ("f1_series(250)", lambda: cfrac.f1_series(250),
         lambda out: out[250] == g.DEEP_F[1, 250]),
        ("k2_components(200)", lambda: cfrac.k2_components(200),
         lambda out: tuple(s[200] for s in out) == g.K2_COMPONENTS_200),
        ("f2_exact_series(k2_components(250))",
         lambda: cfrac.f2_exact_series(k2),
         lambda out: out[250] == g.DEEP_F[2, 250]),
        ("f2_formula_check(40)",
         lambda: cfrac.f2_formula_check(40),
         lambda out: out["exact"][1:13] == g.TABLE_F2
         and out["derived_closed_form_agrees"] is True),
    ]


def run_times(call, check) -> list[float]:
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
        if not check(out):
            raise SystemExit(f"wrong result: {out!r}")
    return times


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


def startup(src: Path, command: str, by_module: dict[str, int]) -> dict:
    """What ``convexenum COMMAND`` loads from the library in ``src``, in
    a fresh interpreter without ``site``: the library modules that run,
    whether ``fractions`` is imported, the code lines of those modules,
    and the objects the cyclic collector still tracks right after
    ``main`` returns, which shutdown's full collections traverse.  A
    lazily registered module that is never read has not run.  A command
    that does not exit 0 stops the run."""
    code = (
        f"import gc, os, sys, types\nsys.path.insert(0, {str(src)!r})\n"
        "import convexenum.cli\n"
        f"code = convexenum.cli.main({command.split()!r} + "
        "['--out', os.devnull])\n"
        "tracked = len(gc.get_objects())\n"
        "print(*sorted(name for name, module in sys.modules.items()\n"
        "              if name.partition('.')[0] == 'convexenum'\n"
        "              and type(module) is types.ModuleType))\n"
        "print('fractions' in sys.modules)\nprint(tracked)\n"
        "sys.exit(code)")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"convexenum {command} exited {out.returncode}:\n"
                         f"{out.stderr}")
    names, fractions, tracked = out.stdout.splitlines()
    modules = names.split()
    return {"modules": modules, "fractions": fractions == "True",
            "code_lines": sum(by_module[name] for name in modules),
            "gc_tracked_after_main": int(tracked)}


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

    times, medians, quartiles = {}, {}, {}
    for name, call, check in cases(cfrac, ladder, perms, words, _goldens,
                                   _oracles):
        ts = run_times(call, check)
        q1, median, q3 = statistics.quantiles(ts, n=4)
        times[name] = round(min(ts), 5)
        medians[name] = round(median, 5)
        quartiles[name] = [round(q1, 5), round(q3, 5)]
        print(f"{median * 1000:10.1f} ms  [{q1 * 1000:.1f}, {q3 * 1000:.1f}]"
              f"  best {min(ts) * 1000:.1f}  {name}")
    by_module = code_lines(args.src)
    lines = sum(by_module.values())
    print(f"{lines:10d} code lines in {args.src}")
    loads = {command: startup(args.src.resolve(), command, by_module)
             for command in cli_commands(workloads)}
    for command, record in loads.items():
        print(f"{record['code_lines']:10d} code lines in "
              f"{len(record['modules'])} modules, fractions "
              f"{'loaded' if record['fractions'] else 'not loaded'}, "
              f"{record['gc_tracked_after_main']} objects tracked after "
              f"main: convexenum {command}")

    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    runs = report.get("runs", {})
    runs[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "statistic": f"median, quartiles and best of {REPEAT}, in process",
        "times_s": times,
        "median_s": medians,
        "quartiles_s": quartiles,
        "src_code_lines": lines,
        "src_code_lines_by_module": by_module,
        "cli_startup": loads,
    }
    first = {}  # case -> its median in the first run that recorded one
    for run in runs.values():
        if "median_s" not in run:
            continue
        for name, t in run["median_s"].items():
            first.setdefault(name, t)
        run["speedup"] = {name: round(first[name] / t, 2)
                          for name, t in run["median_s"].items() if t > 0}
    OUT.write_text(json.dumps({"harness": "bench/layers.py", "runs": runs},
                              indent=2) + "\n")
    print(f"wrote {OUT.name}: {', '.join(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
