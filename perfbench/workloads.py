"""The benchmark's workloads: which jobs each one runs, and why.

A job is one fresh ``convexenum`` process.  A CLI job runs
``convexenum.cli.main(argv)``, exactly as the ``convexenum`` script
does; a call job runs a named library call from ``child.CALLS`` for an
operation that has no CLI form.  Job sizes are fixed, so every job's
exact output is fixed too and is checked against ``reference.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "call"
    args: tuple[str, ...]  # CLI arguments, or the name of the call

    @property
    def child_args(self) -> list[str]:
        return [self.kind, *self.args]


def _cli(name: str, command: str) -> Job:
    argv = command.split()
    if "--dot" not in argv:
        argv.append("--json")  # the results field is compared exactly
    return Job(name, "cli", tuple(argv))


def _call(name: str) -> Job:
    return Job(name, "call", (name,))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Certified bounds: exact elimination over RationalFunction, then
    # Sturm isolation.  The digraph BFS costs under 1% here.
    "closed_forms": (
        _cli("perms_bounds_k1", "perms bounds --k 1"),
        _cli("perms_bounds_k2", "perms bounds --k 2"),
        _call("gf_bound_k1_cutoff1278_root"),
        _call("word_gf_p4_k1_ratfun"),
    ),
    # Exact counting sequences: integer digraph BFS, walk DP and CLI
    # rendering; the exact kernel does no work.
    "counts": (
        _cli("perms_table_n120", "perms table --max-n 120"),
        _cli("perms_subadd_k2_n120", "perms subadd --k 2 --max-n 120"),
        _cli("perms_digraph_k2_d150_dot", "perms digraph --k 2 --depth 150 --dot"),
        _cli("perms_count_n12_k2", "perms count --n 12 --k 2"),
        _cli("words_count_n12_p5_k1", "words count --n 12 --p 5 --k 1"),
    ),
    # Generating-function series: Gaussian elimination over
    # TruncatedSeries, and the continued-fraction tower.
    "series": (
        _cli("words_gf_p6_k0_o30", "words gf --p 6 --k 0 --order 30"),
        _cli("words_gf_p4_k2_o40", "words gf --p 4 --k 2 --order 40"),
        _cli("cfrac_f1_o80", "cfrac f1 --order 80"),
        _cli("cfrac_tot_o60", "cfrac tot --order 60"),
        _cli("cfrac_f2check_o40", "cfrac f2check --order 40"),
    ),
}

ALL_JOBS: dict[str, Job] = {
    job.name: job for jobs in WORKLOADS.values() for job in jobs}

#: Passes in a run of RUN_SECONDS.  A run takes 25 to 55 s on a 2-core
#: x86-64 machine with Python 3.11, and these counts put the median and
#: the tail sample of the job latencies in the middle of one job's
#: samples, away from where two jobs of similar latency meet.  The count
#: is fixed, so two commits compared always run the same jobs the same
#: number of times, and their percentiles stand on the same samples.
PASSES = {"closed_forms": 3, "counts": 5, "series": 5}
RUN_SECONDS = 30

#: Prefix of the JSON line a job process writes last on stderr.
TRAILER = "perfbench-trailer "

#: A latency tail needs at least ten samples beyond it.
MIN_JOBS_PER_RUN = 11


def passes_per_run(workload: str, seconds: float) -> int:
    """PASSES scaled to ``seconds``, but enough jobs to have a tail."""
    jobs = len(WORKLOADS[workload])
    return max(math.ceil(MIN_JOBS_PER_RUN / jobs),
               round(PASSES[workload] * seconds / RUN_SECONDS))
