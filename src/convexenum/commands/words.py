"""The ``convexenum words`` subcommands."""

from __future__ import annotations

from convexenum import DEFAULT_ORDER, words


def _parse_partition(text: str, option: str) -> words.IntegerPartition:
    """The partition that ``option`` gives as its parts, separated by
    commas in any order, which ``IntegerPartition`` sorts; an empty
    value is the empty partition."""
    try:
        parts = [int(x) for x in text.split(",")] if text else ()
    except ValueError:
        raise ValueError(f"{option} takes parts separated by commas, such as "
                         f"1,1,2, not {text!r}") from None
    return words.IntegerPartition(parts)


def _parse_letters(text: str) -> tuple:
    """The letters of ``--word``: one digit each, or separated by commas."""
    try:
        return tuple(map(int, text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError("--word takes one digit per letter, such as 23321, "
                         "or letters separated by commas, such as 2,3,3,2,1, "
                         f"not {text!r}") from None


def _words_count(args, rec):
    rec.add_agreement({
        "bruteforce": words.count_words_bruteforce(args.n, args.p, args.k),
        "dp": words.count_words_dp(args.n, args.p, args.k)})


def _words_gf(args, rec):
    rec.add_series("dp", words.word_gf(args.p, args.k, args.order).series)


def _words_stable(args, rec):
    rec.provenance = ["dp"]
    rec.add("stable_count", words.g0p_stable(args.p))


def _words_encode(args, rec):
    w = words.encode_word(args.m, _parse_partition(args.w1, "--w1"),
                          _parse_partition(args.w2, "--w2"), args.n, p=args.p)
    rec.provenance = ["bijection"]
    rec.add("word", str(w))


def _words_decode(args, rec):
    m, w1, w2 = words.decode_word(words.Word(_parse_letters(args.word), args.p))
    rec.provenance = ["bijection"]
    rec.add("m", m)
    rec.add("w1", str(w1))
    rec.add("w2", str(w2))


_INT = {"type": int, "required": True}
_ORDER = {"type": int, "default": DEFAULT_ORDER}

#: subcommand -> (handler, options), where the options map each
#: destination to its ``add_argument`` keywords, in the order they are
#: declared
COMMANDS = {
    "count": (_words_count, {"n": _INT, "p": _INT, "k": _INT}),
    "gf": (_words_gf, {"p": _INT, "k": _INT, "order": _ORDER}),
    "stable": (_words_stable, {"p": _INT}),
    "encode": (_words_encode, {"p": _INT, "m": _INT, "w1": {"default": ""},
                               "w2": {"default": ""}, "n": _INT}),
    "decode": (_words_decode, {"word": {"required": True}, "p": _INT}),
}
