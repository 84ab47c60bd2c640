"""Reference values shared across the test suite.

Polynomials are given as {exponent: coefficient} dicts; roots as exact
decimal digit strings (20 places).
"""

from fractions import Fraction

# f_k(n) for n = 1..12
TABLE_F0 = [1, 2, 4, 6, 8, 8, 8, 8, 8, 8, 8, 8]
TABLE_F1 = [1, 2, 4, 8, 14, 24, 40, 66, 106, 170, 270, 426]
TABLE_F2 = [1, 2, 4, 8, 16, 30, 56, 102, 186, 336, 606, 1088]

# 0-convex words on 3 letters, counts by length 0..20
WORD_GF_30 = [1, 3, 9, 16, 20] + [21] * 16

# stable 0-convex word counts for p = 1..9
G0P_STABLE = [1, 5, 21, 70, 214, 575, 1475, 3500, 7989]
G0P_STABLE_REFERENCE_P9 = 7469  # known erratum; the formula gives 7989

# reference bijection examples: (m, w1 parts, w2 parts, n, p, word)
ENCODE_EXAMPLES = [
    (3, (1,), (1, 1), 5, 3, "23321"),
    (8, (1, 1, 2, 3), (2, 4), 15, 8, "146788888888862"),
    (5, (1, 1, 1, 1), (3,), 9, 5, "123455552"),
]

# reference rational bounds on f_k, keyed by (k, side): (num, den) term dicts
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

# smallest positive roots of the four denominators, 20 decimal digits
ROOT_DIGITS = {
    (1, "lower"): "65149869151455837735",
    (1, "upper"): "65145978572056851317",
    (2, "lower"): "55979335021175578170",
    (2, "upper"): "55977426822528580510",
}

# reference growth-rate bounds (reciprocals of the roots, rounded)
RATES = {
    (1, "lower"): 1.5349224995,
    (1, "upper"): 1.535014167,
    (2, "lower"): 1.786373489,
    (2, "upper"): 1.786434384,
}


# exact root intervals, recorded from the rational-arithmetic Sturm
# isolation: growth_bounds(k, 20) keyed by (k, side), and the root of
# gf_bound(1, "lower", cutoff=(1, 2, 7, 8)).den at precision 20
ROOT_INTERVALS = {
    (1, "lower"): (Fraction(6009014813362853545, 9223372036854775808),
                   Fraction(96144237013805656721, 147573952589676412928)),
    (1, "upper"): (
        Fraction(1922769910640158655719227699106401586557,
                 2951479051793528258560000000000000000000),
        Fraction(4806924776600396639348069247766003966393,
                 7378697629483820646400000000000000000000)),
    (2, "lower"): (Fraction(41305458662082886149, 73786976294838206464),
                   Fraction(82610917324165772299, 147573952589676412928)),
    (2, "upper"): (Fraction(20652025329999783781, 36893488147419103232),
                   Fraction(82608101319999135125, 147573952589676412928)),
}
CUTOFF_1278_ROOT = (
    Fraction(2403603619320092754924036036193200927549,
             3689348814741910323200000000000000000000),
    Fraction(9614414477280371019796144144772803710197,
             14757395258967641292800000000000000000000))


def root_fraction(k, side) -> Fraction:
    return Fraction(int(ROOT_DIGITS[(k, side)]), 10**20)


# reference 22x22 adjacency matrix of the truncated k=1 digraph, as
# 1-based out-neighbor lists per row
MATRIX_A_ROWS = {
    1: [2, 4], 2: [2, 4], 3: [2], 4: [3, 5], 5: [6, 8], 6: [7], 7: [4],
    8: [9, 12], 9: [10], 10: [11], 11: [5], 12: [13, 17], 13: [14],
    14: [15], 15: [16], 16: [8], 17: [18], 18: [19], 19: [20], 20: [21],
    21: [22], 22: [12],
}

# SHA-256 of DescendantDigraph.to_dot(), keyed by (k, depth) for
# depth-bounded digraphs and by (k, mode) for TruncationPolicy at
# DEFAULT_CUTOFF[k]; the node labels are least realizable endpoint tuples
DOT_SHA256 = {
    (1, 60): "7f179b7d953efb03884d461cf3b06c9b76acaf0ae20e2862d4e466612dacb01a",
    (2, 60): "ea2142b668e4bf84b10740811a204285f4f65bb2c262dda84e24d6df786ca9d0",
    (1, "cut"): "578767b3073acded3bbc811fe771dc2d4ae05e77f52e637ea0862cc26155ca90",
    (1, "loop"): "ec616d21f671d34090204a7a38761716e26c9899ad3d0a973ca552da119ec7ac",
    (2, "cut"): "e6d40744d1b9f3aef1c53ecd0272f063c4418e088e9c0422d2d67b114fe23bd9",
    (2, "loop"): "47faa225a23fca0a999129ee657ce3f5f5e2977dd54c43af314e827ca0c55d31",
}
