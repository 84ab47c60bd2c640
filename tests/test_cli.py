"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _goldens import CLI_STDOUT_SHA256, ENCODE_EXAMPLES
from convexenum import perms, words
from convexenum.cli import GROUPS, OUTPUT, build_parser, fast_parse, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def results_dict(payload):
    return dict(map(tuple, payload["results"]))


class TestWordsCommands:
    def test_count_reports_engine_agreement(self, capsys):
        code, payload = run_json(capsys, "words", "count",
                                 "--n", "5", "--p", "3", "--k", "0")
        assert code == 0
        res = results_dict(payload)
        assert res["bruteforce"] == res["dp"] == 21
        assert res["agree"] is True
        assert payload["provenance"] == ["bruteforce", "dp"]

    def test_gf_coefficients(self, capsys):
        code, payload = run_json(capsys, "words", "gf",
                                 "--p", "3", "--k", "0", "--order", "6")
        assert code == 0
        res = results_dict(payload)
        assert res["coefficients"] == ["1", "3", "9", "16", "20", "21", "21"]
        assert payload["provenance"] == ["dp"]

    def test_stable_count(self, capsys):
        code, payload = run_json(capsys, "words", "stable", "--p", "9")
        assert code == 0
        assert results_dict(payload)["stable_count"] == 7989

    def test_encode_decode_roundtrip(self, capsys):
        code, payload = run_json(capsys, "words", "encode", "--p", "3",
                                 "--m", "3", "--w1", "1", "--w2", "1,1",
                                 "--n", "5")
        assert code == 0
        assert results_dict(payload)["word"] == "23321"
        code, payload = run_json(capsys, "words", "decode",
                                 "--word", "23321", "--p", "3")
        assert code == 0
        res = results_dict(payload)
        assert res["m"] == 3
        assert res["w1"] == "{1}"
        assert res["w2"] == "{1,1}"

    def test_decode_reads_comma_separated_letters(self, capsys):
        plain = run_json(capsys, "words", "decode", "--word", "23321",
                         "--p", "3")
        commas = run_json(capsys, "words", "decode", "--word", "2,3,3,2,1",
                          "--p", "3")
        assert commas[0] == plain[0] == 0
        assert commas[1]["results"] == plain[1]["results"] == \
            [["m", 3], ["w1", "{1}"], ["w2", "{1,1}"]]
        assert commas[1]["provenance"] == plain[1]["provenance"]
        # past nine letters only the comma form can spell a word
        code, payload = run_json(capsys, "words", "decode",
                                 "--word", "9,10,10,9", "--p", "10")
        assert code == 0
        assert results_dict(payload) == {"m": 10, "w1": "{1}", "w2": "{1}"}

    def test_encode_reads_parts_in_any_order(self, capsys):
        # IntegerPartition sorts the parts, so the parser does not; the
        # record differs from the sorted spelling's only in the echoed
        # parameters
        m, w1, w2, n, p, word = ENCODE_EXAMPLES[1]
        code, ordered = run_json(capsys, "words", "encode", "--p", str(p),
                                 "--m", str(m), "--w1", ",".join(map(str, w1)),
                                 "--w2", ",".join(map(str, w2)), "--n", str(n))
        assert code == 0
        code, shuffled = run_json(capsys, "words", "encode", "--p", "8",
                                  "--m", "8", "--w1", "3,1,2,1", "--w2", "4,2",
                                  "--n", "15")
        assert code == 0
        assert shuffled["parameters"]["w1"] == "3,1,2,1"
        del ordered["parameters"], shuffled["parameters"]
        assert shuffled == ordered
        assert results_dict(shuffled)["word"] == word == "146788888888862"

    @pytest.mark.parametrize("flags,word,w1,w2", [
        (["--w2", "1,1"], "33321", "{}", "{1,1}"),
        (["--w1", "1"], "23333", "{1}", "{}"),
        ([], "33333", "{}", "{}"),
        (["--w1", "", "--w2", ""], "33333", "{}", "{}"),
    ])
    def test_encode_without_a_partition_reads_it_as_empty(
            self, capsys, flags, word, w1, w2):
        code, payload = run_json(capsys, "words", "encode", "--p", "3",
                                 "--m", "3", *flags, "--n", "5")
        assert code == 0
        assert results_dict(payload)["word"] == word
        code, payload = run_json(capsys, "words", "decode", "--word", word,
                                 "--p", "3")
        assert code == 0
        assert results_dict(payload) == {"m": 3, "w1": w1, "w2": w2}

    def test_invalid_input_exits_2(self, capsys):
        code = main(["words", "decode", "--word", "313", "--p", "3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["decode", "--word", "1,,2", "--p", "3"],
         "--word takes one digit per letter, such as 23321, or letters "
         "separated by commas, such as 2,3,3,2,1, not '1,,2'"),
        (["decode", "--word", "12a", "--p", "3"],
         "--word takes one digit per letter, such as 23321, or letters "
         "separated by commas, such as 2,3,3,2,1, not '12a'"),
        (["encode", "--p", "3", "--m", "3", "--w1", "1,,2", "--n", "5"],
         "--w1 takes parts separated by commas, such as 1,1,2, not '1,,2'"),
        (["encode", "--p", "3", "--m", "3", "--w2", "1;1", "--n", "5"],
         "--w2 takes parts separated by commas, such as 1,1,2, not '1;1'"),
    ], ids=["word_empty_letter", "word_not_a_digit", "w1", "w2"])
    def test_malformed_option_names_itself_and_its_form(self, capsys, argv,
                                                        message):
        code = main(["words", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_empty_alphabet_exits_2(self, capsys):
        code = main(["words", "count", "--n", "1", "--p", "-1", "--k", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: p must be positive\n"


class TestPermsCommands:
    def test_count_multiple_engines(self, capsys):
        code, payload = run_json(capsys, "perms", "count",
                                 "--n", "8", "--k", "1")
        assert code == 0
        res = results_dict(payload)
        assert res["bruteforce"] == res["digraph"] == 66
        assert res["agree"] is True

    @pytest.mark.parametrize("k, count", [("3", 136), ("-1", 0)])
    def test_count_names_the_skipped_engine(self, capsys, k, count):
        # brute force alone is not a cross-check, so no agreement is claimed
        code, out = run(capsys, "perms", "count", "--n", "6", "--k", k)
        assert code == 0
        assert out == ("perms count\n"
                       f"  parameters: n=6 k={k}\n"
                       "  engines: bruteforce\n"
                       f"  bruteforce: {count}\n"
                       "  skipped: digraph (k must be 1 or 2)\n")
        code, payload = run_json(capsys, "perms", "count", "--n", "6", "--k", k)
        assert code == 0
        assert payload["provenance"] == ["bruteforce"]
        assert payload["results"] == [
            ["bruteforce", count], ["skipped", "digraph (k must be 1 or 2)"]]

    def test_table(self, capsys):
        code, payload = run_json(capsys, "perms", "table", "--max-n", "12")
        assert code == 0
        res = results_dict(payload)
        assert res["n=12"] == [8, 426, 1088]

    def test_bounds(self, capsys):
        code, payload = run_json(capsys, "perms", "bounds", "--k", "1")
        assert code == 0
        res = results_dict(payload)
        assert res["rate_lower_bound"].startswith("1.53492249")
        assert res["rate_upper_bound"].startswith("1.53501416")
        assert res["lower_gf_root"].startswith("[0.65149869151455837")
        assert res["upper_gf_root"].startswith("[0.65145978572056851")
        assert payload["provenance"] == \
            ["digraph", "walk_dp", "berlekamp_massey"]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="render_interval truncates both endpoints, so "
                              "a printed upper end can fall below the root")
    def test_bounds_print_intervals_that_contain_the_roots(self, capsys):
        for k in (1, 2):
            for precision in (1, 20):
                gb = perms.growth_bounds(k, precision)
                code, payload = run_json(capsys, "perms", "bounds", "--k",
                                         str(k), "--precision", str(precision))
                res = results_dict(payload)
                for side, (lo, hi) in (("lower", gb.lower_root),
                                       ("upper", gb.upper_root)):
                    a, b = res[f"{side}_gf_root"].strip("[]").split(", ")
                    assert Fraction(a) <= lo and hi <= Fraction(b), \
                        (k, precision, side)

    def test_digraph_dot_output(self, capsys):
        code, out = run(capsys, "perms", "digraph", "--k", "1",
                        "--truncate", "loop", "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "style=dashed" in out

    def test_digraph_record(self, capsys):
        code, payload = run_json(capsys, "perms", "digraph", "--k", "2",
                                 "--truncate", "cut")
        assert code == 0
        assert results_dict(payload)["nodes"] == 23

    def test_digraph_loop_too_shallow_exits_2(self, capsys):
        code = main(["perms", "digraph", "--k", "1", "--depth", "5",
                     "--truncate", "loop"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_digraph_negative_depth_exits_2(self, capsys):
        code = main(["perms", "digraph", "--k", "1", "--depth", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: depth must be nonnegative\n"
        assert captured.out == ""

    def test_subadd_report(self, capsys):
        code, payload = run_json(capsys, "perms", "subadd",
                                 "--k", "2", "--max-n", "12")
        assert code == 0
        res = results_dict(payload)
        assert res["holds"] is False
        assert any("m=6 n=6" in v for v in res["violations"])

    @pytest.mark.parametrize("precision", ["-3", "0"])
    def test_bounds_nonpositive_precision_exits_2(self, capsys, precision):
        code = main(["perms", "bounds", "--k", "1", "--precision", precision])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: precision must be positive\n"
        assert captured.out == ""

    def test_bad_k_exits_2(self, capsys):
        code = main(["perms", "bounds", "--k", "3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--k", "0"],
        ["subadd", "--k", "3"],
        ["digraph", "--k", "3", "--truncate", "cut"],
    ])
    def test_bad_k_is_one_error_line(self, capsys, argv):
        code = main(["perms", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "k in {1, 2}" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestCfracCommands:
    def test_f1_coefficients(self, capsys):
        code, payload = run_json(capsys, "cfrac", "f1", "--order", "12")
        assert code == 0
        coeffs = results_dict(payload)["coefficients"]
        assert coeffs == ["1", "1", "2", "4", "8", "14", "24", "40", "66",
                          "106", "170", "270", "426"]

    def test_f2check_report(self, capsys):
        code, payload = run_json(capsys, "cfrac", "f2check", "--order", "14")
        assert code == 0
        res = results_dict(payload)
        assert res["derived_closed_form_agrees"] is True
        assert res["root_1234_first_mismatch"] == 7
        assert res["root_1245_first_mismatch"] == 13

    def test_f2check_order_zero(self, capsys):
        code, payload = run_json(capsys, "cfrac", "f2check", "--order", "0")
        assert code == 0
        res = results_dict(payload)
        assert res["exact"] == ["1"]
        assert res["derived_closed_form_agrees"] is True


    def test_f2check_negative_order_exits_2(self, capsys):
        code = main(["cfrac", "f2check", "--order", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: order must be nonnegative\n"


class TestOutputFormats:
    def test_text_default(self, capsys):
        code, out = run(capsys, "words", "stable", "--p", "3")
        assert code == 0
        assert "stable_count: 21" in out

    def test_csv(self, capsys):
        code, out = run(capsys, "words", "stable", "--p", "3", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value"]
        assert ["stable_count", "21"] in rows

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(["words", "stable", "--p", "3", "--json",
                     "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text())
        assert results_dict(payload)["stable_count"] == 21

    def test_unknown_group_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["nonsense"])
        capsys.readouterr()

    def test_json_and_csv_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["words", "stable", "--p", "3", "--json", "--csv"])
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_dot_and_record_formats_are_exclusive(self, capsys, fmt):
        # --dot is an output format too: combining formats is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["perms", "digraph", "--k", "1", "--depth", "2", "--dot",
                  fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with" in captured.err and captured.out == ""

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        code = main(["words", "stable", "--p", "3",
                     "--out", str(tmp_path / "missing" / "x.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_internal_error_exits_3_with_traceback(self, monkeypatch, capsys):
        # 1 means "engines disagree", so an unexpected exception must not
        # exit 1; the handler's engine raising stands in for a bug
        def broken(p):
            raise RuntimeError("broken engine")

        monkeypatch.setattr(words, "g0p_stable", broken)
        code = main(["words", "stable", "--p", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("Traceback")
        assert captured.err.rstrip().endswith("RuntimeError: broken engine")
        assert captured.out == ""


@pytest.mark.parametrize("command", list(CLI_STDOUT_SHA256))
def test_stdout_matches_golden_hash(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CLI_STDOUT_SHA256[command]


def test_module_run_prints_what_main_prints(capsys):
    # ``python -m convexenum.cli`` runs the module as ``__main__``, which
    # registers the library's modules itself
    argv = ["cfrac", "f1", "--order", "5", "--csv"]
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-m", "convexenum.cli", *argv], cwd=src,
        capture_output=True, text=True, check=True).stdout
    assert out == run(capsys, *argv)[1]


def _parser_cases():
    """Every subcommand with its required options, -h at each level, a
    missing or unknown group or subcommand, a missing required option,
    an unrecognized argument and a value outside an option's choices."""
    yield []
    yield ["-h"]
    yield ["nonsense"]
    for group in GROUPS:
        yield [group]
        yield [group, "-h"]
        yield [group, "nonsense"]
        commands = importlib.import_module(f"convexenum.commands.{group}")
        for name, (_, options) in commands.COMMANDS.items():
            argv = [group, name]
            for dest, spec in options.items():
                if spec.get("required"):
                    argv += ["--" + dest.replace("_", "-"), "1"]
            yield argv
            yield [group, name, "-h"]
            yield argv + ["--nonsense"]
            if len(argv) > 2:
                yield argv[:-2]  # its last required option is missing
            for dest, spec in options.items():
                if "choices" in spec:
                    yield argv + ["--" + dest.replace("_", "-"), "nonsense"]


def _parse(parser, argv, capsys):
    try:
        parsed = vars(parser.parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    return parsed, capsys.readouterr()


@pytest.mark.parametrize("argv", list(_parser_cases()), ids=" ".join)
def test_parser_for_argv_parses_as_the_full_parser(capsys, argv):
    # a well-formed command is read by fast_parse, to the full parser's
    # namespace in its order; help and usage errors are argparse's own
    parsed, _ = _parse(build_parser(), argv, capsys)
    fast = fast_parse(argv)
    if isinstance(parsed, dict):
        assert list(vars(fast).items()) == list(parsed.items())
    else:
        assert fast is None


@functools.cache
def _full_parser():
    return build_parser()


def _full_parse(argv):
    """The full parser's namespace of ``argv`` as an ordered item list,
    or None where it prints help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return list(vars(_full_parser().parse_args(argv)).items())
        except SystemExit:
            return None


def test_fast_parse_reads_every_golden_command():
    for command in CLI_STDOUT_SHA256:
        argv = command.split()
        assert list(vars(fast_parse(argv)).items()) == _full_parse(argv), \
            command


def _values(spec):
    """Values for ``spec``: its choices or a near miss, integers,
    negative ones among them, or text, some of it starting with ``-``
    as a negative number or an option does."""
    if "choices" in spec:
        return st.sampled_from([*spec["choices"], spec["choices"][0].upper()])
    if spec.get("type") is int:
        return st.integers(-3, 20).map(str)
    return st.sampled_from(["", "1,1", "23321", "a b", "-1", "-.5", "-1.",
                            "-x", "- 1"])


_JUNK = ["-h", "--help", "--", "-", "-x", "- 1", "-.5", "1.5", "x", "",
         "--nonsense", "words", "count"]


def _table(group) -> dict:
    """The ``COMMANDS`` table of ``group``, empty for an unknown one."""
    return (importlib.import_module(f"convexenum.commands.{group}").COMMANDS
            if group in GROUPS else {})


def _options(group, name) -> dict:
    """The options of subcommand ``name`` of ``group``, then ``OUTPUT``."""
    return {**_table(group).get(name, (None, {}))[1], **OUTPUT}


@st.composite
def _argvs(draw):
    """A group and subcommand, mostly known ones, and their options in
    any order, each required one and some others as ``--name value`` or
    a flag alone; then up to three faults, each a dropped option or an
    inserted token: junk, ``--name=value``, an abbreviated name, or an
    option of the subcommand that may repeat one or have a bad value."""
    group = draw(st.sampled_from([*GROUPS, "nonsense"]))
    name = draw(st.sampled_from([*_table(group), "nonsense"]))
    options = _options(group, name)

    def piece(dest, value):
        flag = "--" + dest.replace("_", "-")
        return [flag] if options[dest].get("action") == "store_true" \
            else [flag, draw(value)]

    pieces = [piece(dest, _values(options[dest]))
              for dest in draw(st.permutations(list(options)))
              if options[dest].get("required") or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(pieces)))
        dest = draw(st.sampled_from(list(options)))
        fault = draw(st.sampled_from(["drop", "junk", "joined", "abbreviated",
                                      "option", "bad value"]))
        good = piece(dest, _values(options[dest]))
        if fault == "drop":
            del pieces[at:at + 1]
            continue
        pieces.insert(at, {
            "junk": [draw(st.sampled_from(_JUNK))],
            "joined": ["=".join(good)],
            "abbreviated": [good[0][:draw(st.integers(3, 5))], *good[1:]],
            "option": good,
            "bad value": piece(dest, st.sampled_from(_JUNK)),
        }[fault])
    return [group, name, *(token for tokens in pieces for token in tokens)]


def _dash_value(argv) -> bool:
    """Whether a token of ``argv`` that follows the name of an option
    of its subcommand that takes a value starts with ``-``.  Then
    ``fast_parse`` reads that token, or the name before it, as a value
    that starts with ``-``, unless it declines earlier."""
    names = {"--" + dest.replace("_", "-")
             for dest, spec in _options(*argv[:2]).items()
             if spec.get("action") != "store_true"}
    return any(name in names and value[:1] == "-"
               for name, value in zip(argv[2:], argv[3:]))


@settings(max_examples=500)
@given(_argvs())
def test_fast_parse_gives_none_or_the_full_parsers_namespace(argv):
    fast = fast_parse(argv)
    assert fast is None or list(vars(fast).items()) == _full_parse(argv)
    # a value that starts with - is argparse's to read
    assert fast is None or not _dash_value(argv)


def test_negative_value_reads_as_its_equals_form(capsys):
    # fast_parse declines a value that starts with -, so argparse is the
    # one reader of --k -1 as of --k=-1; both give one record
    spaced = ["words", "count", "--n", "6", "--p", "3", "--k", "-1"]
    joined = ["words", "count", "--n=6", "--p=3", "--k=-1"]
    assert fast_parse(spaced) is None and fast_parse(joined) is None
    assert run_json(capsys, *spaced) == run_json(capsys, *joined)


@pytest.mark.parametrize("argv, exit_code", [
    (["cfrac", "f1", "--order", "20"], 0),
    (["perms", "digraph", "--k", "1", "--depth", "5", "--truncate", "loop"],
     2),
])
def test_main_leaves_the_collector_nothing_to_track(argv, exit_code):
    # what ``main`` leaves lives until the process exits, so ``main``
    # freezes it and shutdown's full collections do not traverse it
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        f"import gc, os, sys\nsys.path.insert(0, {str(src)!r})\n"
        "import convexenum.cli\n"
        f"code = convexenum.cli.main({argv!r} + ['--out', os.devnull])\n"
        "print(code, len(gc.get_objects()), gc.get_freeze_count())")
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, check=True).stdout
    code, tracked, frozen = map(int, out.split())
    assert code == exit_code
    assert tracked < 100
    assert frozen > 1000


def test_every_benchmark_job_gives_its_reference_output(tmp_path):
    # each job of perfbench's workloads, through perfbench's own checker
    # (verify.check against reference.json and the job's oracle), in one
    # fresh interpreter: a CLI job as main(args + ['--out', file]), a
    # call job from child.CALLS as its JSON record
    root = Path(__file__).resolve().parent.parent
    script = (
        f"import json, sys\nsys.path[:0] = "
        f"[{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "import convexenum.cli, child, verify, workloads\n"
        "reference, found = verify.load_reference(), {}\n"
        "for name, job in workloads.ALL_JOBS.items():\n"
        "    if job.kind == 'cli':\n"
        f"        out = {str(tmp_path / 'out')!r}\n"
        "        code = convexenum.cli.main(list(job.args) + ['--out', out])\n"
        "        text = open(out).read()\n"
        "    else:\n"
        "        code = 0\n"
        "        text = json.dumps({'results': child.CALLS[job.args[0]]()})\n"
        "    found[name] = [code, verify.check(job, text, reference)]\n"
        "print(json.dumps(found))")
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, check=True).stdout
    found = json.loads(out)
    assert len(found) > 10
    assert found == {name: [0, None] for name in found}
