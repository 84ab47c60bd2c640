"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/child.py TRACE cli ARG...    # convexenum ARG...
    python3 perfbench/child.py TRACE call NAME     # a call from CALLS

TRACE is 0 or 1.  ``convexenum`` must be importable (``run.py`` puts the
checkout's ``src`` on PYTHONPATH).  ``convexenum.cli`` is imported
before anything else, so the monotonic clock read right after it is the
moment the process is set up, as it is for a user of the CLI.

A CLI job writes the CLI's own output to stdout; a call job writes one
JSON record with a ``results`` field.  On success the last stderr line
is ``TRAILER`` followed by JSON: that moment, the process's peak RSS and
CPU time, and with TRACE=1 the spans and counters.  A job that raises
exits as the interpreter does, with a traceback and no trailer.
"""

import time

import convexenum.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from convexenum import perms, words  # noqa: E402
from convexenum.exact import roots  # noqa: E402
from workloads import TRAILER  # noqa: E402


def gf_bound_k1_cutoff1278_root():
    """Lower-bound GF one cutoff deeper than the published one, and its root.

    The cut digraph has 29 nodes and the denominator has degree 19.
    """
    gf = perms.gf_bound(1, "lower", cutoff=(1, 2, 7, 8))
    lo, hi = roots.smallest_positive_root(gf.den, 20)
    return [["gf_num", str(gf.num)], ["gf_den", str(gf.den)],
            ["root", [str(lo), str(hi)]]]


def word_gf_p4_k1_ratfun():
    """Closed-form GF of 1-convex words on 4 letters, with its series."""
    gf = words.word_gf(4, 1, with_ratfun=True)
    return [["coefficients", [str(c) for c in gf.series.coeffs]],
            ["ratfun_num", str(gf.ratfun.num)],
            ["ratfun_den", str(gf.ratfun.den)]]


CALLS = {f.__name__: f for f in (gf_bound_k1_cutoff1278_root,
                                 word_gf_p4_k1_ratfun)}


def main(argv: list[str]) -> int:
    trace, kind, rest = argv[0] == "1", argv[1], argv[2:]
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install()
    if kind == "cli":
        code = convexenum.cli.main(rest)
    elif kind == "call":
        sys.stdout.write(json.dumps({"results": CALLS[rest[0]]()}) + "\n")
        code = 0
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    trailer = {"ready": READY, "maxrss_kb": usage.ru_maxrss,
               "cpu_s": usage.ru_utime + usage.ru_stime}
    if tracer is not None:
        trailer["spans"] = tracer.spans
        trailer["counters"] = tracer.counters
    sys.stderr.write(TRAILER + json.dumps(trailer) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
