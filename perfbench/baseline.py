"""Run the benchmark over several seeds and record the figures.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

For each workload it makes one untraced run per seed and one traced run,
with the ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median and the spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to a third of
the metric's bound, the steadiness the benchmark aims for.  With
``--out`` it writes every figure, with the commit, Python version and
CPU count, to FILE (``results/baseline.json`` holds the seed commit's).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=180)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def raw_times(report: list[str]) -> dict:
    """Unscaled end-to-end times, from ``run.py``'s report lines."""
    found = (re.match(r"\s+(\w+)\s+\S+ s\s+raw\s+(\S+) s", line) for line in report)
    return {m[1]: float(m[2]) for m in found if m}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"commit": git_commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "machine": platform.machine(),
              "run_seconds": seconds, "seeds": parse_seeds(args.seeds),
              "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in record["seeds"]]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}, "report": runs[0]["report"]}
        print(f"{workload}: {len(runs)} runs, {entry['failed']} of "
              f"{entry['attempted']} jobs failed", flush=True)
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bound
            raw = [raw_times(r["report"]).get(name) for r in runs]
            if None not in raw:
                s["raw"] = spread(raw)
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady = steady and ok
            print(f"  {name:<12} median {s['median']:10.4f} {s['unit']:<3} "
                  f"spread {s['spread']:.4f}  bound/3 {bound / 3:.4f}"
                  f"{'' if ok else '  UNSTEADY'}"
                  + (f"  (unscaled spread {s['raw']['spread']:.4f})" if "raw" in s else "")
                  + "  " + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        traced = run_once(workload, record["seeds"][0], seconds, 1)
        entry["correct"] = entry["correct"] and traced["correct"]
        entry["per_layer"] = traced["metrics"]
        entry["trace_report"] = traced["report"]
        record["workloads"][workload] = entry
        for name in sorted(entry["per_layer"]):
            if name.startswith("share."):
                print(f"  {name:<24} {entry['per_layer'][name]['value']:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
