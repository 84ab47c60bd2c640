"""Layer timings of the exhaustive searches, the digraph labels and
the start-up import, and the size of the library's code.

    python bench/layers.py [--label NAME] [--src DIR]

Each in-process case runs five times, timed with ``time.perf_counter``,
and its best time is kept.  Every result is checked against
``tests/_goldens.py`` first, and a wrong one stops the run with exit 1.
No cache is left in ``convexenum.perms``, so the labels are timed cold.

The import case starts five fresh interpreters that write no bytecode,
each on a copy of the ``src`` tree without ``__pycache__``, so every
library module compiles from source as in a fresh checkout; each child
times ``import convexenum.cli`` with ``time.perf_counter`` and prints
it, and the best is kept.  The code size is the number of lines of
``src`` that hold a token, leaving out blank lines, comments and
docstrings.

The times are merged into ``BENCH_layers.json`` at the repository root
under NAME (default ``current``), next to the runs already there, and
each run's speedup over the first run in the file that timed the same
case is recomputed.  ``--src`` measures the library in another
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
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEAT = 5


def cases(perms, words, g):
    """(name, call, check) for every timed case."""
    search = g.SEARCH_COUNTS

    def labels(k, depth):
        graph = perms.build_digraph(k, depth=depth)
        digest = g.LABELS_SHA256[k, depth]
        return lambda: graph.labels, lambda out: hashlib.sha256(
            "\n".join(out).encode()).hexdigest() == digest

    return [
        ("count_words_bruteforce(12, 5, 1)",
         lambda: words.count_words_bruteforce(12, 5, 1),
         lambda out: out == search[12, 5, 1, False]),
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
        ("labels of build_digraph(2, 150), cold", *labels(2, 150)),
    ]


def best_time(call, check) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
        if not check(out):
            raise SystemExit(f"wrong result: {out!r}")
    return best


IMPORT_CASE = "import convexenum.cli, fresh interpreter"
CHILD = ("import time; t = time.perf_counter(); import convexenum.cli; "
         "print(time.perf_counter() - t)")


def import_time(src: Path) -> float:
    """Best time of ``import convexenum.cli`` over REPEAT children."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(copy))
        return min(
            float(subprocess.run([sys.executable, "-c", CHILD], env=env,
                                 capture_output=True, text=True,
                                 check=True).stdout)
            for _ in range(REPEAT))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src: Path) -> int:
    """Lines of the ``.py`` files under ``src`` that hold a token, not
    counting blank lines, comments and docstrings."""
    total = 0
    for path in src.rglob("*.py"):
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
        total += len(lines - docstrings)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
    import _goldens
    from convexenum import perms, words

    times = {}
    for name, call, check in cases(perms, words, _goldens):
        times[name] = round(best_time(call, check), 5)
        print(f"{times[name] * 1000:10.1f} ms  {name}")
    times[IMPORT_CASE] = round(import_time(args.src), 5)
    print(f"{times[IMPORT_CASE] * 1000:10.1f} ms  {IMPORT_CASE}")
    lines = code_lines(args.src)
    print(f"{lines:10d} code lines in {args.src}")

    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    runs = report.get("runs", {})
    runs[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "statistic": f"best of {REPEAT}, in process except {IMPORT_CASE!r}",
        "times_s": times,
        "src_code_lines": lines,
    }
    first = {}  # case -> its time in the first run that timed it
    for run in runs.values():
        for name, t in run["times_s"].items():
            first.setdefault(name, t)
        run["speedup"] = {name: round(first[name] / t, 2)
                          for name, t in run["times_s"].items() if t > 0}
    OUT.write_text(json.dumps({"harness": "bench/layers.py", "runs": runs},
                              indent=2) + "\n")
    print(f"wrote {OUT.name}: {', '.join(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
