"""Reference values shared across the test suite.

Polynomials are given as {exponent: coefficient} dicts; roots as exact
decimal digit strings (20 places).
"""

from fractions import Fraction

# f_k(n) for n = 1..12
TABLE_F0 = [1, 2, 4, 6, 8, 8, 8, 8, 8, 8, 8, 8]
TABLE_F1 = [1, 2, 4, 8, 14, 24, 40, 66, 106, 170, 270, 426]
TABLE_F2 = [1, 2, 4, 8, 16, 30, 56, 102, 186, 336, 606, 1088]

# f_k(n) at deep n, recorded from the depth-bounded BFS and walk DP
DEEP_F = {
    (1, 120): 59829794435020262074022,
    (1, 250): 92941931301726113465284085063358626565051716590,
    (2, 250): 1027986655778360554331545629830166860136959244782503549766377276,
    (2, 500): int(
        "101218249306742572241231272770779915844576104658976061339209347"
        "4213229995134465283872348284566692486200905591085546176192079474"),
}

# tot', bot1' and bot2' of k2_components(200) at q^200, recorded from
# the BFS of the 2-convex upper subgraph and the walk DP over it
K2_COMPONENTS_200 = (4139556609329472, 22399155389340, 40421421440816)

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
# depth-bounded digraphs and by (k, "cut" or "loop") for
# build_digraph(k, cutoff=DEFAULT_CUTOFF[k], loop=...), the truncation
# without and with its self-loop; the node labels are least realizable
# endpoint tuples.
# The two loop digests (and the CLI one for k = 1 below) were re-recorded
# when only the added L self-loop stayed dashed: each output differs from
# the earlier one in one line, where 1332's own R self-loop loses its
# ", style=dashed"
DOT_SHA256 = {
    (1, 60): "7f179b7d953efb03884d461cf3b06c9b76acaf0ae20e2862d4e466612dacb01a",
    (2, 60): "ea2142b668e4bf84b10740811a204285f4f65bb2c262dda84e24d6df786ca9d0",
    (1, 150): "22f1c728d919e3c2a235132faa4bca612950ed606a47f1fa71d8a14144a97044",
    (2, 150): "bff488a112e7e22b55f0cf784954bc2276f68efd832aade7b3f3015f2d107dd8",
    (1, "cut"): "578767b3073acded3bbc811fe771dc2d4ae05e77f52e637ea0862cc26155ca90",
    (1, "loop"): "c19e57a9f14aaa6b301b6b638fb0453cda6321c995dbedf98b4dbb5f0791a943",
    (2, "cut"): "e6d40744d1b9f3aef1c53ecd0272f063c4418e088e9c0422d2d67b114fe23bd9",
    (2, "loop"): "07f5de399c2d56ea57b802ff9d576e8a905d52b84c40c7fab7cf0b56151dee78",
}

# SHA-256 of "\n".join(build_digraph(k, 150).labels), recorded while the
# labels were still found by searching each merged class in order
LABELS_SHA256 = {
    (1, 150): "92edd8cb91531380ec35bb7b1fe1316b44f8f9d306457c0acff1f7939eb13145",
    (2, 150): "b17414383859824f2d9e5be4111e3c5f4ac87a0cab36389a3e25dd5f93478711",
}

# exhaustive counts past the tables, keyed by (n, p, k, distinct) of
# search.count_convex_sequences; recorded from the unpruned generator
# search.convex_sequences (p = n with distinct entries counts f_k(n))
SEARCH_COUNTS = {
    (12, 12, 3, True): 125264,
    (11, 11, 4, True): 156380,
    (12, 5, 1, False): 277900,
}

# calls of the search's extend() that count_perms_bruteforce(n, k) makes,
# keyed by (n, k), recorded from the reach cut of search._first_children:
# a ceiling, since a weaker cut visits more prefixes.  Not every
# surviving prefix extends to a permutation: k = 0, n = 10 makes 474
# calls for 8 permutations.
PERM_SEARCH_CALLS = {
    (3, 0): 7, (4, 0): 18, (5, 0): 39, (6, 0): 73,
    (7, 0): 127, (8, 0): 203, (9, 0): 316, (10, 0): 474,
    (3, 1): 7, (4, 1): 19, (5, 1): 45, (6, 1): 99,
    (7, 1): 204, (8, 1): 405, (9, 1): 779, (10, 1): 1470,
    (3, 2): 7, (4, 2): 19, (5, 2): 47, (6, 2): 108,
    (7, 2): 239, (8, 2): 511, (9, 2): 1071, (10, 2): 2204,
    (3, 3): 9, (4, 3): 31, (5, 3): 107, (6, 3): 387,
    (7, 3): 1352, (8, 3): 4721, (9, 3): 16161, (10, 3): 55369,
}

# RationalFunction constructions in matrix_resolvent_row(A, 0), A the
# adjacency of build_digraph(1, cutoff=DEFAULT_CUTOFF[1]) (22 nodes): a
# ceiling, since an elimination that builds the canonical form of every
# zero product f * 0 in its row updates makes 7,611.  And the SHA-256 of
# that row, one entry a line as "num / den", recorded from that
# elimination.
RESOLVENT_CONSTRUCTIONS = 1938
RESOLVENT_ROW_SHA256 = (
    "f02fe4c5fe49f400401c0d4155c274b5b195e249e912953de652206785802ae7")

# SHA-256 of the CLI's stdout, keyed by its arguments; every command exits 0.
# Each subcommand runs as text, with --json and with --csv, plus one
# digraph with --dot; "words gf" and "cfrac f1" run at the default order.
CLI_STDOUT_SHA256 = {
    "words count --n 6 --p 3 --k 1":
        "e6abf65c0e42cfeb331e7823c921b7ca437c525fa896ebf922d777397f798cdc",
    "words count --n 6 --p 3 --k 1 --json":
        "36189f012196b0be51cc928599b8dd62331e0e74ca5ab1c2bbfd8ea33ab73d0b",
    "words count --n 6 --p 3 --k 1 --csv":
        "cbbc1408678aba8dff6299e21031da8c9f8f5d36334b14e1d4aadaa09a436743",
    "words gf --p 3 --k 1 --order 8":
        "3ed9c95fb48b17483cc6ed3ffa91d91bf6fab1977ded9910a879d06aaec086ac",
    "words gf --p 3 --k 1 --order 8 --json":
        "cc202da9e8f3f3c9b451bd65d2935bf1c1dd9dc21da4c06623eae44373d878aa",
    "words gf --p 3 --k 1 --order 8 --csv":
        "3367a7f5d8ce39c4d043ea5422294542baef32c80a9aa573c47f1cec89c57c1e",
    "words gf --p 2 --k 0":
        "9056220e4e304a8f749df8bb2af9ae7e53692a7457bd09c6e56e8db410aa3145",
    "words gf --p 2 --k 0 --json":
        "0ec07c992291134b923c4dd679102fc433de9145d036b2c7a02dce66698d4b70",
    "words gf --p 2 --k 0 --csv":
        "6dd07f6d6b12aa7566f18e0cbfe2f01a6e2ffe1392de4e48b4c45995668454ff",
    "words stable --p 4":
        "ebac6f9f4035ade8e57f697738008ff72c9db81e43c1f14dbb5e66eed746b9c0",
    "words stable --p 4 --json":
        "8d59fa264699bb1b49f0542f92cc6f21da0bbd401be727bb9e7e20764ff59772",
    "words stable --p 4 --csv":
        "f9cebc111abae9915f4298b161e7e28952f913b0f822a7a565c084e52e068fd4",
    "words encode --p 3 --m 3 --w1 1 --w2 1,1 --n 5":
        "f368b26b79b34fd77d6b1e3d7b1a5222921837d667793c21b9519b027413f319",
    "words encode --p 3 --m 3 --w1 1 --w2 1,1 --n 5 --json":
        "70d4f915932a354667ec4fb5fece5e78cc1c8a1cc516128deb59bef8ebf6ca8a",
    "words encode --p 3 --m 3 --w1 1 --w2 1,1 --n 5 --csv":
        "a2ca1111c2e3f08d871954064771929e812362d47e003028ac48cf7adbb4af44",
    "words decode --word 23321 --p 3":
        "c645cfb1a8af9d13bf27efc0cb3ed56b73433778decaa84f1066f3737974d3db",
    "words decode --word 23321 --p 3 --json":
        "79b89a49a291d69538cd9c79669514e2de92d9b885596d39555f0edda4bd2156",
    "words decode --word 23321 --p 3 --csv":
        "5162e4b87ccc014262938b3b61ffb2cd1ca751eaef4f79864a161484d90dc423",
    "perms count --n 6 --k 0":
        "b6da8b623a8811daae0458751505da78f266079017bb9382e95fe04ced9ace9a",
    "perms count --n 6 --k 0 --json":
        "d367e6b554efb19d91c681859ccde380299d441ef17d0154712ab0d9451a7c3c",
    "perms count --n 6 --k 0 --csv":
        "77244c9f371924dc0bb1750644044f689a673fa82a9a0d267e46b87fe00ae766",
    "perms count --n 6 --k 1":
        "e1fb8e057043ae0283f310f65fe3fa4fc6e1d8dab63c1bec5aa402b778abd8f9",
    "perms count --n 6 --k 1 --json":
        "fbe06c994cd47d4c2437190653dfd78347c0e39729e588b6f1b0efaa0dd83054",
    "perms count --n 6 --k 1 --csv":
        "c29132f9bb27881955008dc2e01ac4d8506a3091ada21fee03b496760c3bfff5",
    "perms count --n 6 --k 2":
        "aa668d61ec7ff21e3e78f021b2db37924fdad13fc2f80471e242a4ebb72481ca",
    "perms count --n 6 --k 2 --json":
        "f5561f922ad46fc1e6ebf2ff49b26e4c320fc13871498722996a19df6f66d97b",
    "perms count --n 6 --k 2 --csv":
        "2136a83e318c4728fb8e8f9d1dd7d4b86f3729f1c4ce8db485db9d538a81d3f5",
    "perms table --max-n 8":
        "8a591a024d784ef0c017f20306acb4e2e5f5ebe82d7025e0c5b0ca29cc107e23",
    "perms table --max-n 8 --json":
        "d97294990e89a3863d77c3e6eabf424ca47e0f8a3df64e7711d1deee46c6e409",
    "perms table --max-n 8 --csv":
        "7feb24b1d37eaa48420462157100f5c1e52ce16e538b01196419d98fc945352e",
    "perms bounds --k 1 --precision 12":
        "9ee6f421c80a4228c2fdac001dcfdbb9f86e0e8f19f710c43afcbc9e9b697749",
    "perms bounds --k 1 --precision 12 --json":
        "5c3a868012e89041fcf04e02913a3ac10671274130cedabdef457efeb522f97a",
    "perms bounds --k 1 --precision 12 --csv":
        "a582970778add4a4ecf267e36e1f328da0cc172904aec6f17b9dfc99c5ef90e8",
    "perms bounds --k 2 --precision 12":
        "b32c4b800bf63fd0dd5bbe6a908d125c38798e06716b5fdbc530ee2b6333bee2",
    "perms bounds --k 2 --precision 12 --json":
        "e2c05d8e3a87f3b7c78076f8b2ca27492e24e5b19f979b05d662a673d0cf6c15",
    "perms bounds --k 2 --precision 12 --csv":
        "ef6ce83844bffc255f66801ad994f5321d71a515e9ce086ff76d76b917e85b14",
    "perms digraph --k 2 --depth 6 --truncate cut":
        "fb0493de7b4c3b390c4df67e0d8b8a762d4bab18c577b8779d4eed0bbe10cba4",
    "perms digraph --k 2 --depth 6 --truncate cut --json":
        "a34992538138ea4969a20fee9759d552402de13dee48adafee9038d426204d7c",
    "perms digraph --k 2 --depth 6 --truncate cut --csv":
        "d6fb45d49e3d2513b7abb832c045e399bb5f27b58b5edac19e8a78d154a7f02b",
    "perms subadd --k 2 --max-n 12":
        "e89e57b1df1284f0a53e683e722f4a1e2626e7cdc44bf3f995cbd0435c820b44",
    "perms subadd --k 2 --max-n 12 --json":
        "0119827707ce5c88176fb50ca36f735ca0b7c2990a3b2a049dabf3b3451bf3ca",
    "perms subadd --k 2 --max-n 12 --csv":
        "6dd81ca3667d6ac09d4a0ffa6338534104221eead3ea1ef9b50b37215679b565",
    "cfrac bot --order 10":
        "d9d050957f13afeef9efac5ddba45a5c42bb15393479be7eba5aa4ac54674f64",
    "cfrac bot --order 10 --json":
        "c926d61d7073e1778a7b719dac9552424f391706bb21286fc5a420565d1b1eac",
    "cfrac bot --order 10 --csv":
        "b436319f20247b3364f6dcbc58b29fb87794c69b06d61f3ca07036f9495b6280",
    "cfrac tot --order 10":
        "eeca747b370916a60e79d82237555f0df6d453642465e92631070edf6acbf499",
    "cfrac tot --order 10 --json":
        "7c93a423b17071f25051324db37ce298b07cfcaafe1dfb906e0b8fb098b5b055",
    "cfrac tot --order 10 --csv":
        "31d24de80a0623f8eeaed0f04d9cdda8b4d54960965e4235764ca14bcdb5051c",
    "cfrac f1":
        "5a352dd85f2aab1eb1051725af4480aeeb78d120cffcc8d6ffc029cc30be123b",
    "cfrac f1 --json":
        "ccfff36b72774c26985928c96239529da2dabc1182b0065a30b3e74cb92841b1",
    "cfrac f1 --csv":
        "27df38bd2aa6db0bb457f435040228d2e7e0ef11347ba5be6e95011e328abfb5",
    "cfrac f2check --order 10":
        "d38325a1372e231e7b95d76c3ba820ec1b6fe6c7f982f98ff2dac5739d8c346b",
    "cfrac f2check --order 10 --json":
        "41c7565fc5546ec52c78b30d1cc91861ff63f228f274cb0fdc07358fa59054f6",
    "cfrac f2check --order 10 --csv":
        "539ee7f0f4cb0d2f0d3e42d728da049697b978da0b63529277ff227d289dd911",
    "perms digraph --k 1 --truncate loop --dot":
        "c19e57a9f14aaa6b301b6b638fb0453cda6321c995dbedf98b4dbb5f0791a943",
}
