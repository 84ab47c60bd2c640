"""Exactness checks on a job's output.

A job passes when its ``results`` field equals the one recorded from
the seed commit in ``reference.json`` and its independent checks in
``oracles`` pass.  Only ``results`` is compared, so fields that later
versions add to a CLI record (statistics, provenance) do not matter.
The DOT job, whose output is raw DOT rather than a record, is compared
by size and SHA-256 digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import oracles

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def dot_digest(text: str) -> dict:
    data = text.encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def results_of(text: str) -> list:
    """The ``results`` field of a JSON record, with tuples as lists."""
    return json.loads(text)["results"]


def check(job, text: str, reference: dict) -> str | None:
    """None when ``text`` is the job's exact expected output, else why not."""
    expected = reference[job.name]
    if "sha256" in expected:
        if dot_digest(text) != expected:
            return "DOT output differs from the reference"
        return None
    try:
        results = results_of(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"output is not a JSON record with results: {exc!r}"
    if results != expected["results"]:
        names = [r[0] if isinstance(r, list) and r else r for r in results]
        differing = [n for n, r, e in zip(names, results, expected["results"])
                     if r != e]
        where = differing[0] if differing else "the number of results"
        return f"results differ from the reference at {where}"
    return oracles.check(job.name, results, reference)
