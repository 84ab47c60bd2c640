"""Record every job's exact output into ``reference.json``.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right (it was run
on the seed commit); the benchmark then fails any job whose output
differs.  It also stores ``cfrac.f1_series(120)``, the independent
check on the ``f_1`` column of ``perms table``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import verify
from workloads import ALL_JOBS


def main() -> int:
    env = run.child_env()
    reference = {}
    for job in ALL_JOBS.values():
        outcome = run.run_job(job, 0, False, run.JOB_TIMEOUT_S, env)
        if outcome.error is not None:
            print(f"{job.name}: {outcome.error}", file=sys.stderr)
            return 1
        if "--dot" in job.args:
            reference[job.name] = verify.dot_digest(outcome.stdout)
        else:
            reference[job.name] = {"results": verify.results_of(outcome.stdout)}
    f1 = subprocess.run(
        [sys.executable, "-c", "from convexenum import cfrac; "
         "print(' '.join(str(c) for c in cfrac.f1_series(120).coeffs))"],
        env=env, check=True, capture_output=True, text=True).stdout.split()
    reference["f1_series_o120"] = f1
    with open(verify.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
