"""Layer timings of the exhaustive searches and of the digraph labels.

    python bench/layers.py [--label NAME] [--src DIR]

Each case runs in this process five times, timed with
``time.perf_counter``, and its best time is kept.  Every result is
checked against ``tests/_goldens.py`` first, and a wrong one stops the
run with exit 1.  The labels are timed cold: every cache of
``convexenum.perms`` is cleared before each run.

The times are merged into ``BENCH_layers.json`` at the repository root
under NAME (default ``current``), next to the runs already there, and
each run's speedup over the first run in the file is recomputed.
``--src`` times the library in another checkout's ``src`` directory,
for example a clone of an older commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEAT = 5


def cases(perms, words, g):
    """(name, call, check) for every timed case."""
    search = g.SEARCH_COUNTS

    def labels(k, depth):
        graph = perms.build_digraph(k, depth=depth)

        def cold():
            for obj in vars(perms).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
            return graph.labels

        digest = g.LABELS_SHA256[k, depth]
        return cold, lambda out: hashlib.sha256(
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

    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    runs = report.get("runs", {})
    runs[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "statistic": f"best of {REPEAT}, in process",
        "times_s": times,
    }
    first = next(iter(runs.values()))["times_s"]
    for run in runs.values():
        run["speedup"] = {name: round(first[name] / t, 2)
                          for name, t in run["times_s"].items()
                          if name in first and t > 0}
    OUT.write_text(json.dumps({"harness": "bench/layers.py", "runs": runs},
                              indent=2) + "\n")
    print(f"wrote {OUT.name}: {', '.join(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
