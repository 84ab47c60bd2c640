"""End-to-end and per-layer benchmark for convexenum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
library is imported from its ``src``.  The workloads are defined in
``workloads.py``.

A closed loop with one client: each job is a fresh Python process that
imports ``convexenum.cli`` and runs one command, and the next job starts
when it exits.  A fresh process per job matters because ``gf_bound``,
``_realizable`` and ``_least_concrete`` are cached inside the process:
a CLI user pays them cold on every run.  One pass runs every job of the
workload once, in an order drawn from ``--seed``; a run makes the number
of passes set by ``workloads.passes_per_run``.  After the last pass every
output is checked for exactness (``verify.py``); a job that exits
nonzero, times out or prints anything else counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics, with times
scaled to a reference machine speed (see ``PROBE``).  With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, unscaled, from spans recorded around the library's public
functions (``tracing.py``); the spans are written to
``perfbench/out/spans-WORKLOAD.jsonl.gz``.  The last line of stdout is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import verify
from workloads import ALL_JOBS, TRAILER, WORKLOADS, Job, passes_per_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: A job that runs longer than this has failed (the slowest takes ~6 s).
JOB_TIMEOUT_S = 60.0
#: No job starts, and none runs on, past this point of a run, so that a
#: run always ends well inside three minutes.
RUN_DEADLINE_S = 150.0

#: A fixed program, independent of convexenum, that the run times in a
#: fresh interpreter before every job: interpreter start-up, the
#: standard modules the CLI imports, and exact rational arithmetic.  On
#: a shared host the machine's speed drifts by up to 1.8x over minutes,
#: and it moves this program and the jobs alike.  Every end-to-end time
#: is scaled by PROBE_REF_S / (the run's median probe time), so it reads
#: in seconds of a machine as fast as the reference one, and the drift
#: is taken out of comparisons between runs (on 7 series runs the
#: spread of wall_s fell from 0.079 to 0.034).  Raw times are printed too.
PROBE = """\
import argparse, csv, dataclasses, fractions, functools, io, json
F = fractions.Fraction
a = [F(i, i + 1) for i in range(1, 60)]
for _ in range(60):
    a = [x * y + F(1, 3) for x, y in zip(a, reversed(a))]
    a = [F(x.numerator % 10007, x.denominator % 10009 + 1) for x in a]
"""
#: Median probe time on a 2-core x86-64 machine with Python 3.11.
PROBE_REF_S = 0.095

END_TO_END = [("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

SPAN_CALLS = ["exact.linalg.solve_field_system", "exact.polynomial.gcd",
              "exact.roots.smallest_positive_root",
              "exact.linalg.solve_series_system", "exact.series.mul",
              "exact.series.sub", "exact.series.invert",
              "perms.build_digraph", "perms.walk_count"]
SPAN_SELF = SPAN_CALLS + [
    "exact.linalg.matrix_resolvent_row", "perms.gf_bound",
    "perms.count_perms_bruteforce", "words.word_gf", "words.count_words_dp",
    "words.count_words_bruteforce", "cfrac.ladder_tower", "cfrac.f1_series",
    "cfrac.k2_components", "cfrac.f2_formula_check", "cli.main"]
COUNTERS = ["exact.linalg.solve_field_system.unknowns",
            "exact.ratfun.RationalFunction.constructions",
            "exact.roots.smallest_positive_root.degree",
            "exact.roots.evaluations",
            "exact.linalg.solve_series_system.unknowns",
            "perms.digraph.nodes", "perms.digraph.edges",
            "perms.walk_count.node_steps"]
#: Layer groups whose share of traced job time the report states.  A
#: span counts once, even when nested inside another span of its group.
SHARES = {
    "field_elimination": {"exact.linalg.solve_field_system"},
    "series_kernel": {"exact.linalg.solve_series_system", "exact.series.mul",
                      "exact.series.sub", "exact.series.invert"},
    "digraph": {"perms.build_digraph", "perms.walk_count"},
    "roots": {"exact.roots.smallest_positive_root"},
    "bruteforce": {"perms.count_perms_bruteforce",
                   "words.count_words_bruteforce"},
}

PER_LAYER = (
    [(f"{n}.calls", "count") for n in SPAN_CALLS]
    + [(f"{n}.self_s", "s") for n in SPAN_SELF]
    + [(n, "count") for n in COUNTERS]
    + [("cli.output_bytes", "bytes"), ("process.import_s", "s"),
       ("process.cpu_s", "s")]
    + [(f"job.{name}.wall_s", "s") for name in ALL_JOBS]
    + [(f"share.{g}", "ratio") for g in SHARES]
    + [("trace.overhead_s", "s")]
)


@dataclass
class Outcome:
    """One job as the parent saw it."""

    job: Job
    pass_index: int
    latency_s: float | None = None  # spawn to exit
    setup_s: float | None = None  # spawn to convexenum.cli imported
    exit_code: int | None = None
    stdout: str = ""
    trailer: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class Pass:
    index: int
    traced: bool
    wall_s: float  # first spawn to last exit, without the probes
    outcomes: list[Outcome]
    probes_s: list[float]


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"  # one source of run-to-run noise fewer
    return env


def run_job(job: Job, pass_index: int, traced: bool, timeout: float,
            env: dict) -> Outcome:
    """Spawn one job process, wait for it, and record what it did."""
    outcome = Outcome(job, pass_index)
    if timeout <= 0:
        outcome.error = "not started: run deadline reached"
        return outcome
    cmd = [sys.executable, str(HERE / "child.py"), "1" if traced else "0",
           *job.child_args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        outcome.latency_s = time.monotonic() - start
        outcome.error = f"timeout after {timeout:.1f} s"
        return outcome
    outcome.latency_s = time.monotonic() - start
    outcome.exit_code = proc.returncode
    outcome.stdout = out
    lines = err.splitlines()
    if lines and lines[-1].startswith(TRAILER):
        outcome.trailer = json.loads(lines.pop()[len(TRAILER):])
        outcome.setup_s = outcome.trailer["ready"] - start
    if proc.returncode != 0:
        first = lines[0] if lines else ""
        last = lines[-1] if len(lines) > 1 else ""
        outcome.error = f"exit {proc.returncode}: {first}" + (
            f" ... {last}" if last else "")
    elif not outcome.trailer:
        outcome.error = "exited without a trailer"
    return outcome


def probe() -> float:
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", PROBE], check=True)
    return time.monotonic() - start


def run_pass(index: int, jobs: list[Job], traced: bool, deadline: float,
             env: dict) -> Pass:
    outcomes, probes = [], []
    start = time.monotonic()
    for job in jobs:
        probes.append(probe())
        outcomes.append(run_job(job, index, traced,
                                min(JOB_TIMEOUT_S, deadline - time.monotonic()), env))
    wall = time.monotonic() - start - sum(probes)
    return Pass(index, traced, wall, outcomes, probes)


# -- statistics -------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples no
    percentile qualifies, and the maximum is returned as percentile 100.
    """
    s = sorted(latencies)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def span_stats(spans: list) -> tuple[dict, dict]:
    """Per span name: (calls, self seconds); per share group: seconds."""
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    per_name: dict = defaultdict(lambda: [0, 0.0])
    for i, (name, _, _, _) in enumerate(spans):
        per_name[name][0] += 1
        per_name[name][1] += dur[i] - child[i]
    shares = {}
    for group, names in SHARES.items():
        inside = [False] * n  # an ancestor belongs to the group
        covered = 0.0
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                inside[i] = inside[parent] or spans[parent][0] in names
            if name in names and not inside[i]:
                covered += dur[i]
        shares[group] = covered
    return per_name, shares


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    outcomes = [o for p in passes for o in p.outcomes]
    latencies = [o.latency_s for o in outcomes if o.latency_s is not None]
    setups = [o.setup_s for o in outcomes if o.setup_s is not None]
    rss = [o.trailer["maxrss_kb"] for o in outcomes if o.trailer]
    tail_value, tail_pct = tail(latencies)
    failed = sum(o.error is not None for o in outcomes)
    probe_s = statistics.median(t for p in passes for t in p.probes_s)
    scale = PROBE_REF_S / probe_s
    raw = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    values = {name: v * scale for name, v in raw.items()}
    values["peak_rss_mb"] = max(rss, default=0) / 1024
    how = {
        "wall_s": f"median of {len(passes)} passes",
        "job_p50_s": f"median of {len(latencies)} jobs",
        "job_tail_s": f"p{tail_pct:.1f} of {len(latencies)} jobs" + (
            " (10 beyond it)" if len(latencies) > 10
            else " (fewer than 11: the maximum)"),
        "setup_s": f"median of {len(setups)} spawns until convexenum.cli is imported",
    }
    notes = [f"  machine speed: probe median {probe_s:.4f} s, times scaled by "
             f"{scale:.4f} to the reference {PROBE_REF_S} s"]
    notes += [f"  {name:<12} {values[name]:10.4f} s   raw {raw[name]:10.4f} s  {how[name]}"
              for name in raw]
    notes += [
        f"  peak_rss_mb  {values['peak_rss_mb']:10.4f} MB  largest job ru_maxrss",
        f"  failed_frac  {failed / len(outcomes):10.4f}     {failed} of "
        f"{len(outcomes)} jobs",
    ]
    return values, notes


def per_layer(passes: list[Pass]) -> tuple[dict, list[str], bool]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    counts_per_pass, self_per_pass, share_per_pass = [], [], []
    for p in traced:
        calls, self_s, counters, shares = Counter(), Counter(), Counter(), Counter()
        job_total = 0.0
        for o in p.outcomes:
            if not o.trailer:
                continue
            per_name, covered = span_stats(o.trailer["spans"])
            for name, (c, s) in per_name.items():
                calls[name] += c
                self_s[name] += s
            counters.update(o.trailer["counters"])
            if o.job.kind == "cli":
                counters["cli.output_bytes"] += len(o.stdout.encode())
            shares.update(covered)
            job_total += o.latency_s
        counts = {f"{n}.calls": calls[n] for n in SPAN_CALLS}
        counts.update({n: counters[n] for n in COUNTERS + ["cli.output_bytes"]})
        counts_per_pass.append(counts)
        self_per_pass.append(self_s)
        share_per_pass.append({g: shares[g] / (job_total or 1.0) for g in SHARES})

    values: dict = dict(counts_per_pass[0])
    steady = all(c == counts_per_pass[0] for c in counts_per_pass)
    for n in SPAN_SELF:
        values[f"{n}.self_s"] = statistics.median(s[n] for s in self_per_pass)
    outcomes = [o for p in passes for o in p.outcomes]
    values["process.import_s"] = statistics.median(
        o.setup_s for o in outcomes if o.setup_s is not None)
    values["process.cpu_s"] = statistics.median(
        sum(o.trailer.get("cpu_s", 0.0) for o in p.outcomes) for p in plain)
    for name in ALL_JOBS:
        mine = [o.latency_s for p in plain for o in p.outcomes
                if o.job.name == name and o.latency_s is not None]
        values[f"job.{name}.wall_s"] = statistics.median(mine) if mine else 0.0
    for g in SHARES:
        values[f"share.{g}"] = statistics.median(s[g] for s in share_per_pass)
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s for p in plain))
    notes = [f"  {name:<52} {values[name]:14.6g} {unit}"
             for name, unit in PER_LAYER
             if not (name.startswith("job.") and values[name] == 0.0)]
    if not steady:
        notes.append("  WARNING: a count differed between traced passes")
    return values, notes, steady


def write_spans(workload: str, passes: list[Pass]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for p in passes:
            for o in p.outcomes:
                if p.traced and o.trailer:
                    fh.write(json.dumps({"job_id": f"{p.index}:{o.job.name}",
                                         "spans": o.trailer["spans"]}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "convexenum" / "cli.py").is_file():
        print(f"error: no convexenum source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = verify.load_reference()
    jobs = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    n_passes = passes_per_run(args.workload, args.seconds)
    schedule = ([False, True] * max(1, n_passes // 3) if args.trace
                else [False] * n_passes)
    env = child_env()
    deadline = time.monotonic() + RUN_DEADLINE_S
    passes = [run_pass(i, rng.sample(jobs, len(jobs)), traced, deadline, env)
              for i, traced in enumerate(schedule)]

    outcomes = [o for p in passes for o in p.outcomes]
    for o in outcomes:
        if o.error is None:
            o.error = verify.check(o.job, o.stdout, reference)
    failures = [o for o in outcomes if o.error is not None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} x {len(jobs)} jobs  (python {sys.version.split()[0]})")
    plain = [p for p in passes if not p.traced]
    values, notes = end_to_end(plain)
    correct = not failures
    if args.trace:
        values, layer_notes, steady = per_layer(passes)
        correct = correct and steady
        notes += layer_notes
        notes.append(f"  spans: {write_spans(args.workload, passes).relative_to(ROOT)}")
    for o in failures:
        notes.append(f"  FAILED pass {o.pass_index} {o.job.name}: {o.error}")
    print("\n".join(notes))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
