"""Independent checks of job outputs, cheap enough to run on every job.

They use only the standard library: published values copied from the
repository's golden file, a word counter written here from the
definition, and exact polynomial arithmetic on the CLI's printed
polynomials.  ``check(job_name, results, reference)`` returns None when
every check passes and a one-line reason otherwise.
"""

from __future__ import annotations

import re
from fractions import Fraction

# f_k(n) for n = 1..12, counted by brute force.
TABLE_F = {
    0: [1, 2, 4, 6, 8, 8, 8, 8, 8, 8, 8, 8],
    1: [1, 2, 4, 8, 14, 24, 40, 66, 106, 170, 270, 426],
    2: [1, 2, 4, 8, 16, 30, 56, 102, 186, 336, 606, 1088],
}

# Published bound GFs as (num, den) term dicts; the bound on f_k is
# 1 + x + 2 x^2 num/den.
BOUND_GF = {
    (1, "lower"): (
        {0: -1, 1: -1, 2: -2, 3: -2, 4: -2, 5: -2, 6: -1, 7: 1, 8: 1,
         9: 2, 10: 1, 11: 1, 14: -1},
        {0: -1, 1: 1, 3: 1, 4: 1, 8: -2, 9: -1, 10: -2, 13: 1, 15: 1},
    ),
    (1, "upper"): (
        {0: -1, 2: -1, 6: 1, 7: 2, 8: 1, 9: 2, 10: 1, 11: 1, 14: -1},
        {0: -1, 1: 2, 2: -1, 3: 1, 5: -1, 8: -1, 10: -1, 11: 1, 12: -1,
         13: 1, 15: 1},
    ),
    (2, "lower"): (
        {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2, 7: 1, 10: -1, 11: -1,
         12: -1},
        {0: 1, 1: -1, 2: -1, 4: -1, 5: -1, 8: 1, 9: 2, 10: 1, 11: 1,
         12: 1, 13: 1, 14: -1},
    ),
    (2, "upper"): (
        {0: 1, 3: 1, 7: -1, 8: -1, 9: -1, 10: -2, 11: -1, 12: -1},
        {0: 1, 1: -2, 3: 1, 4: -1, 6: 1, 8: 1, 11: 1, 13: 1, 14: -1},
    ),
}

# Smallest positive roots of the four denominators, 20 decimal digits.
ROOT = {
    key: Fraction(int(digits), 10**20) for key, digits in {
        (1, "lower"): "65149869151455837735",
        (1, "upper"): "65145978572056851317",
        (2, "lower"): "55979335021175578170",
        (2, "upper"): "55977426822528580510",
    }.items()
}

# Growth-rate bounds, rounded.
RATES = {
    (1, "lower"): 1.5349224995,
    (1, "upper"): 1.535014167,
    (2, "lower"): 1.786373489,
    (2, "upper"): 1.786434384,
}


# -- exact polynomials as {exponent: Fraction} ------------------------

_TERM = re.compile(r"^(?:(?P<c>-?[\d/]+)(?:\*x(?:\^(?P<e1>\d+))?)?"
                   r"|(?P<s>-?)x(?:\^(?P<e2>\d+))?)$")


def parse_poly(text: str) -> dict:
    """Parse ``str(Polynomial)``, e.g. ``-1 + 2*x - x^3``."""
    poly: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"bad polynomial term {term!r}")
        if m["c"] is not None:
            coeff = Fraction(m["c"])
            exp = 0 if "x" not in term else int(m["e1"] or 1)
        else:
            coeff = Fraction(-1 if m["s"] else 1)
            exp = int(m["e2"] or 1)
        if coeff:
            poly[exp] = poly.get(exp, 0) + coeff
    return poly


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def expand(num: dict, den: dict, order: int) -> list:
    """Power-series coefficients of num/den up to x^order."""
    out = []
    for n in range(order + 1):
        acc = Fraction(num.get(n, 0))
        acc -= sum(den.get(j, 0) * out[n - j] for j in range(1, n + 1))
        out.append(acc / den[0])
    return out


def _bound_gf(k: int, side: str) -> tuple[dict, dict]:
    n, d = BOUND_GF[(k, side)]
    return _add(_mul({0: 1, 1: 1}, d), _mul({2: 2}, n)), d


# -- counters written from the definitions ----------------------------

def word_counts(p: int, k: int, order: int) -> list[int]:
    """k-convex words on [p] of length 0..order, by their last two letters."""
    counts = [1, p]
    last = {(a, b): 1 for a in range(1, p + 1) for b in range(1, p + 1)}
    for _ in range(2, order + 1):
        counts.append(sum(last.values()))
        nxt: dict = {}
        for (a, b), c in last.items():
            for v in range(1, min(p, k + 2 * b - a) + 1):
                nxt[(b, v)] = nxt.get((b, v), 0) + c
        last = nxt
    return counts[:order + 1]


def table_column(reference: dict, k: int) -> list[int]:
    """f_k(1..120) from the reference ``perms table`` results."""
    return [row[k] for _, row in reference["perms_table_n120"]["results"]]


# -- per-job checks ---------------------------------------------------

def _check_bounds(k, r, reference):
    for side in ("lower", "upper"):
        num, den = parse_poly(r[f"{side}_gf_num"]), parse_poly(r[f"{side}_gf_den"])
        ref_num, ref_den = _bound_gf(k, side)
        if _mul(num, ref_den) != _mul(den, ref_num):
            return f"{side} bound GF differs from the published one"
        lo, hi = (Fraction(x) for x in r[f"{side}_gf_root"].strip("[]").split(", "))
        if abs((lo + hi) / 2 - ROOT[(k, side)]) >= Fraction(1, 10**18):
            return f"{side} root differs from the published one"
        rate = float(r[f"rate_{side}_bound"])
        if abs(rate - RATES[(k, side)]) >= 1e-9:
            return f"{side} rate {rate} differs from the published one"
    return None


def _check_deeper_cut(r, reference):
    lo, hi = (Fraction(x) for x in r["root"])
    # one cutoff deeper, the lower bound on the rate tightens but stays
    # below the upper bound: its root lies between the published roots
    if not ROOT[(1, "upper")] < lo < hi < ROOT[(1, "lower")]:
        return "deeper-cut root outside the published root interval"
    f1 = table_column(reference, 1)
    series = expand(parse_poly(r["gf_num"]), parse_poly(r["gf_den"]), 40)
    if any(series[n] > f1[n - 1] for n in range(1, 41)):
        return "deeper-cut lower bound exceeds f_1(n)"
    if any(series[n] != f1[n - 1] for n in range(1, 8)):
        return "deeper-cut lower bound is not exact for n <= 7"
    return None


def _check_word_ratfun(r, reference):
    coeffs = [Fraction(c) for c in r["coefficients"]]
    order = len(coeffs) - 1
    if coeffs != word_counts(4, 1, order):
        return "word series differs from the word counter"
    num, den = parse_poly(r["ratfun_num"]), parse_poly(r["ratfun_den"])
    if expand(num, den, order) != coeffs:
        return "closed form does not expand to the word series"
    return None


def _check_table(r, reference):
    rows = [v for name, v in r.items() if name.startswith("n=")]
    for k, golden in TABLE_F.items():
        if [row[k] for row in rows[:12]] != golden:
            return f"f_{k}(1..12) differs from brute force"
    f1 = [int(c) for c in reference["f1_series_o120"]]
    if [row[1] for row in rows] != f1[1:len(rows) + 1]:
        return "f_1 column differs from cfrac.f1_series"
    return None


def _check_subadd(r, reference):
    f = [None] + table_column(reference, 2)
    max_n = 120
    violations = [
        f"m={m} n={n} f={f[m + n]} bound={f[m] * f[n]}"
        for m in range(1, max_n) for n in range(m, max_n - m + 1)
        if f[m + n] > f[m] * f[n]]
    if r["violations"] != violations or r["holds"] != (not violations):
        return "subadditivity report differs from the f_2 table"
    return None


def _check_count(r, reference):
    expected = TABLE_F[2][11]
    if not (r["bruteforce"] == r["digraph"] == expected and r["agree"]):
        return f"f_2(12) engines disagree or differ from {expected}"
    return None


def _check_words_count(r, reference):
    expected = word_counts(5, 1, 12)[12]
    if not (r["bruteforce"] == r["dp"] == expected and r["agree"]):
        return f"word count engines disagree or differ from {expected}"
    return None


def _words_gf(p, k):
    def check(r, reference):
        coeffs = [int(c) for c in r["coefficients"]]
        if coeffs != word_counts(p, k, len(coeffs) - 1):
            return "word series differs from the word counter"
        return None
    return check


def _check_f1(r, reference):
    f1 = table_column(reference, 1)
    coeffs = [int(c) for c in r["coefficients"]]
    if coeffs != [1] + f1[:len(coeffs) - 1]:
        return "f1 series differs from the perms table f_1 column"
    return None


def _check_f2check(r, reference):
    f2 = table_column(reference, 2)
    exact = [int(c) for c in r["exact"]]
    if exact != [1] + f2[:len(exact) - 1]:
        return "f2check exact counts differ from the perms table f_2 column"
    return None


CHECKS = {
    "perms_bounds_k1": lambda r, ref: _check_bounds(1, r, ref),
    "perms_bounds_k2": lambda r, ref: _check_bounds(2, r, ref),
    "gf_bound_k1_cutoff1278_root": _check_deeper_cut,
    "word_gf_p4_k1_ratfun": _check_word_ratfun,
    "perms_table_n120": _check_table,
    "perms_subadd_k2_n120": _check_subadd,
    "perms_count_n12_k2": _check_count,
    "words_count_n12_p5_k1": _check_words_count,
    "words_gf_p6_k0_o30": _words_gf(6, 0),
    "words_gf_p4_k2_o40": _words_gf(4, 2),
    "cfrac_f1_o80": _check_f1,
    "cfrac_f2check_o40": _check_f2check,
}


def check(job_name: str, results: list, reference: dict) -> str | None:
    """Run the job's independent checks on its ``results`` list."""
    oracle = CHECKS.get(job_name)
    if oracle is None:
        return None
    try:
        return oracle(dict(results), reference)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed results: {exc!r}"
