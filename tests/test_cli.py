"""CLI behavior: golden outputs, formats, and the exit-code contract."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spreadpoly
from spreadpoly import BiPoly, Z_METHODS, z_polynomial
from spreadpoly.gf import GF_KINDS
from spreadpoly.cli import main
import spreadpoly.cli as cli_module
from spreadpoly import sequences, verify


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- gen ---------------------------------------------------------------------


def test_gen_z3_text(capsys):
    code, out, _ = run_cli(["gen", "Z", "3"], capsys)
    assert code == 0
    assert out == "x^3 + 6*s*x^2 + 9*s^2*x\n"


def test_gen_f0(capsys):
    code, out, _ = run_cli(["gen", "F", "0"], capsys)
    assert code == 0
    assert out == "0\n"


def test_gen_json_golden(capsys):
    code, out, _ = run_cli(["gen", "Z", "2", "--method", "via_fib", "--format", "json"], capsys)
    assert code == 0
    assert out.strip() == (
        '{"family":"Z","n":2,"terms":[{"x":2,"s":0,"c":"1"},{"x":1,"s":1,"c":"4"}]}'
    )


def test_gen_identical_across_methods(capsys):
    outputs = set()
    for method in Z_METHODS:
        code, out, _ = run_cli(["gen", "Z", "7", "--method", method], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_gen_json_round_trip(capsys):
    code, out, _ = run_cli(["gen", "Z", "9", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    rebuilt = BiPoly({(t["x"], t["s"]): int(t["c"]) for t in payload["terms"]})
    assert rebuilt == z_polynomial(9)


def test_gen_past_the_int_str_limit(capsys):
    # F(3300) has a 688-digit coefficient; at the lowest settable limit (640)
    # printing it fails unless main lifts the limit.  The coefficients sum to
    # the Fibonacci number F(3300)(1, 1), computed here by integer recurrence.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    fib_prev, fib = 0, 1
    for _ in range(3299):
        fib_prev, fib = fib, fib + fib_prev
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = run_cli(["gen", "F", "3300", "--method", "closed"], capsys)
        payload = run_cli(["gen", "F", "3300", "--method", "closed", "--format", "json"], capsys)
        assert sys.get_int_max_str_digits() == 640  # restored
        sys.set_int_max_str_digits(0)
        assert text[0] == payload[0] == 0
        poly = BiPoly({(t["x"], t["s"]): int(t["c"]) for t in json.loads(payload[1])["terms"]})
        coeffs = [c for _, c in poly.terms()]
        assert max(len(str(c)) for c in coeffs) == 688
        assert sum(coeffs) == fib
        assert text[1] == poly.render() + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_gen_univariate_family_json(capsys):
    code, out, _ = run_cli(["gen", "Zx", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"x": 2, "s": 0, "c": "-1"}, {"x": 1, "s": 0, "c": "4"}]


def assert_usage_error(args, capsys):
    """Exit 2 with the subcommand's own usage line, and nothing on stdout."""
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: spreadpoly {args[0]} ")
    return err


def test_gen_usage_errors(capsys):
    assert_usage_error(["gen", "Q", "3"], capsys)  # unknown family
    assert_usage_error(["gen", "Z", "-3"], capsys)  # negative index
    assert_usage_error(["gen", "Z", "3", "--method", "nope"], capsys)
    assert_usage_error(["gen", "T", "3", "--method", "recurrence"], capsys)
    assert_usage_error(["gen", "Z", "3", "--format", "csv"], capsys)
    assert_usage_error(["gen", "S", "1", "--format", "csv"], capsys)
    # from_fib needs n >= 1: the builder's ValueError is a usage error, not exit 1
    err = assert_usage_error(["gen", "L", "0", "--method", "from_fib"], capsys)
    assert "needs n >= 1" in err
    err = assert_usage_error(["gen", "Z", "3", "extra"], capsys)
    assert "unrecognized arguments: extra" in err


# -- triangle -----------------------------------------------------------------


def test_triangle_csv_golden(capsys):
    code, out, _ = run_cli(["triangle", "5", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "1",
        "4,1",
        "9,6,1",
        "16,20,8,1",
        "25,50,35,10,1",
    ]


def test_triangle_csv_tiny(capsys):
    assert run_cli(["triangle", "1", "--format", "csv"], capsys)[1] == "1\n"
    code, out, _ = run_cli(["triangle", "3", "--format", "csv"], capsys)
    assert out.splitlines() == ["1", "4,1", "9,6,1"]


def test_triangle_text_aligned(capsys):
    code, out, _ = run_cli(["triangle", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert [line.split() for line in lines] == [["1"], ["4", "1"], ["9", "6", "1"]]


def test_triangle_json(capsys):
    code, out, _ = run_cli(["triangle", "4", "--format", "json"], capsys)
    rows = json.loads(out)["rows"]
    assert rows[3] == ["16", "20", "8", "1"]


def test_triangle_rejects_zero(capsys):
    assert run_cli(["triangle", "0"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [["triangle", "0"], ["triangle", "-1"], ["verify", "cassini", "--max-n", "-1"]],
    ids=" ".join,
)
def test_positive_arguments_name_their_own_limit(argv, capsys):
    # 0 is refused too, so every value below 1 reports ">= 1", never ">= 0".
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.endswith(f": must be >= 1: {argv[-1]}\n")


# -- eval ---------------------------------------------------------------------


def test_eval_golden(capsys):
    assert run_cli(["eval", "Z", "3", "1", "2"], capsys)[1] == "49\n"
    assert run_cli(["eval", "F", "5", "1", "1"], capsys)[1] == "5\n"
    assert run_cli(["eval", "Z", "0", "7", "3"], capsys)[1] == "0\n"


def test_eval_rational_literals(capsys):
    # Zx(2) = 4x - x^2 at 1/2 -> 2 - 1/4 = 7/4
    code, out, _ = run_cli(["eval", "Zx", "2", "1/2"], capsys)
    assert code == 0
    assert out == "7/4\n"
    code, out, _ = run_cli(["eval", "F", "3", "-1/2", "2"], capsys)
    assert out == "9/4\n"  # x^2 + s at (-1/2, 2)


def test_eval_negative_literals(capsys):
    # A word of a '-' and a digit is a value, so every literal that _rational
    # reads gets to it: F(3) = x^2 + s.
    assert run_cli(["eval", "F", "3", "1", "-3/-4"], capsys) == (0, "7/4\n", "")
    assert run_cli(["eval", "F", "3", "1", "-1_0/3"], capsys) == (0, "-7/3\n", "")
    code, _, err = run_cli(["eval", "F", "3", "1", "-1e3"], capsys)
    assert code == 2 and "not a rational literal" in err


def test_eval_usage_errors(capsys):
    assert_usage_error(["eval", "Z", "3", "1"], capsys)  # missing s0
    assert_usage_error(["eval", "Z", "3", "1/2"], capsys)  # missing s0, rational x0
    assert_usage_error(["eval", "T", "3", "1", "2"], capsys)  # extra s0
    assert_usage_error(["eval", "Z", "3", "1.5", "2"], capsys)  # bad literal
    assert_usage_error(["eval", "Z", "3", "1/0", "2"], capsys)  # zero denominator
    assert_usage_error(["eval", "Z", "3", "1", "2", "3"], capsys)  # one argument too many


def test_eval_degenerate_points(capsys):
    # x = 0, s < 0 and x^2 + 4s = 0, where the Binet closed forms do not apply
    assert run_cli(["eval", "F", "4", "0", "-3"], capsys)[1] == "0\n"  # x^3 + 2sx at x = 0
    # x^4 + 4sx^2 + 2s^2 at x^2 + 4s = 0
    assert run_cli(["eval", "L", "4", "2", "-1"], capsys)[1] == "2\n"
    assert run_cli(["eval", "Z", "2", "-1/2", "-3"], capsys)[1] == "25/4\n"  # x^2 + 4sx


def test_eval_past_the_int_str_limit(capsys):
    # T(5000)(9) has 6270 digits, past Python's default 4300-digit int-to-str
    # limit; T(n+1)(9) = 18 T(n)(9) - T(n-1)(9) gives it independently.
    prev, cur = 1, 9
    for _ in range(4999):
        prev, cur = cur, 18 * cur - prev
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run_cli(["eval", "T", "5000", "9"], capsys)
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored
    assert len(out) == 6271
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{cur}\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_integer_argument_past_the_str_to_int_limit(capsys):
    # A well-formed integer longer than Python's str-to-int digit limit is
    # named as such, not as "not an integer"; a malformed one still is.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no str-to-int digit limit in this interpreter")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        long_n = "9" * 4400
        for args in (
            ["eval", "T", long_n, "1"],
            ["eval", "T", "5", f"-{long_n}/7"],
            ["gen", "F", long_n],
            ["verify", "all", "--max-n", long_n],
        ):
            err = assert_usage_error(args, capsys)
            assert "4400-digit integer is past Python's str-to-int limit of 4300 digits" in err
            assert "not an integer" not in err and "not a rational" not in err
        err = assert_usage_error(["eval", "T", long_n + "x", "1"], capsys)
        assert "not an integer" in err
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_result_size_bound(capsys, monkeypatch):
    def must_not_run(n, x0, s0):
        raise AssertionError("evaluated past the result-size bound")

    methods, builder, _ = cli_module._FAMILIES["T"]
    monkeypatch.setitem(cli_module._FAMILIES, "T", (methods, builder, must_not_run))
    err = assert_usage_error(["eval", "T", str(10**30), "9"], capsys)
    assert "bits" in err and str(cli_module._EVAL_MAX_BITS) in err


# -- usage errors that a handler raises -----------------------------------------

# Each call of _usage_error: argv and the message it must print.
_HANDLER_USAGE_ERRORS = [
    (
        ["gen", "Z", "3", "--method", "nope"],
        "family Z accepts methods recurrence, closed, via_lucas, via_fib, parity; got 'nope'",
    ),
    (
        ["gen", "T", "3", "--method", "recurrence"],
        "family T has a single construction; drop --method",
    ),
    (["gen", "L", "0", "--method", "from_fib"], "from_fib references F(n-1) and needs n >= 1"),
    (["eval", "Z", "3", "1"], "family Z is bivariate; supply both x0 and s0"),
    (["eval", "T", "3", "1", "2"], "family T is univariate; supply x0 only"),
    (
        ["eval", "T", str(10**30), "9"],
        f"T({10**30}) at this point may need up to "
        f"{sequences.point_bits_bound(10**30, Fraction(9), 0)} bits, above the limit of 1048576",
    ),
    (["gen", "Z", "3", "extra"], "unrecognized arguments: extra"),
]


@pytest.mark.parametrize(
    "argv, message", _HANDLER_USAGE_ERRORS, ids=[" ".join(a) for a, _ in _HANDLER_USAGE_ERRORS]
)
def test_handler_usage_errors_are_exact(argv, message, capsys):
    # Exit 2, nothing on stdout, and on stderr exactly what the subcommand's
    # parser writes: its usage, then the message under its prog.
    usage = cli_module.build_parser().commands[argv[0]].format_usage()
    expected = f"{usage}spreadpoly {argv[0]}: error: {message}\n"
    assert run_cli(argv, capsys) == (2, "", expected)


# -- series ---------------------------------------------------------------------


def test_series_z_shifted(capsys):
    code, out, _ = run_cli(["series", "z_shifted", "2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "x",
        "x^2 + 4*s*x",
        "x^3 + 6*s*x^2 + 9*s^2*x",
    ]


def test_series_fibonacci_and_lucas(capsys):
    assert run_cli(["series", "fibonacci", "1"], capsys)[1].splitlines() == ["0", "1"]
    assert run_cli(["series", "lucas", "0"], capsys)[1] == "2\n"


def test_series_json(capsys):
    code, out, _ = run_cli(["series", "fibonacci", "2", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload[0] == []
    assert payload[2] == [{"x": 1, "s": 0, "c": "1"}]


def test_series_unknown_kind(capsys):
    assert run_cli(["series", "catalan", "3"], capsys)[0] == 2


# -- verify -----------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(["verify", "cassini", "--max-n", "1"], capsys)
    assert code == 0
    assert "cassini" in out and "PASS" in out and "FAIL" not in out


def test_verify_all_small(capsys):
    code, out, _ = run_cli(["verify", "all", "--max-n", "8"], capsys)
    assert code == 0
    assert out.count("PASS") >= 12
    assert "FAIL" not in out


def test_verify_cross_method(capsys):
    code, out, _ = run_cli(["verify", "cross_method", "--max-n", "15"], capsys)
    assert code == 0
    assert "cross_method" in out


def test_verify_usage_errors(capsys):
    assert run_cli(["verify", "everything"], capsys)[0] == 2
    assert run_cli(["verify", "cassini", "--max-n", "0"], capsys)[0] == 2
    assert_usage_error(["verify", "all", "--maxn", "5"], capsys)  # misspelt option


def test_verify_failure_exits_one(capsys, monkeypatch):
    from spreadpoly.identities import failure

    monkeypatch.setattr(
        verify,
        "check_cassini",
        lambda n, members=None: failure("cassini", f"n={n}", n, "x", "s"),
    )
    code, out, _ = run_cli(["verify", "cassini", "--max-n", "2"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "lhs: x" in out and "rhs: s" in out


def test_verify_coefficients_against_the_recurrence(capsys, monkeypatch):
    # An entry off by one in the row kernel that `gen` and `triangle` run, at
    # c(12, 5) and, inside the vendored fixture (rows 1..10), at c(10, 5): Z by
    # its recurrence never reads a row, so coefficients_match_z must flag both
    # rows and a156308_fixture row 10.  coefficient_c is not on that path.
    c_row = sequences._c_row

    def skewed_row(n):
        return (c + ((n, k) in {(10, 5), (12, 5)}) for k, c in enumerate(c_row(n), start=1))

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_c_row", skewed_row)
        code, out, _ = run_cli(["verify", "coefficients", "--max-n", "12"], capsys)
    assert code == 1
    for witness in ("coefficients_match_z n=10", "coefficients_match_z n=12", "a156308_fixture row 10"):
        assert f"witness [{witness}] index" in out, witness
    assert "coefficient_forms" not in out

    # c(12, 5) off by one in the per-entry oracle, wherever it is bound: only
    # coefficient_forms reads it, and it must flag n = 12.
    original = sequences.coefficient_c

    def skewed(n, k, form="ratio_binomial"):
        return original(n, k, form=form) + ((n, k) == (12, 5))

    for module in (spreadpoly, sequences, spreadpoly.identities):
        monkeypatch.setattr(module, "coefficient_c", skewed)
    code, out, _ = run_cli(["verify", "coefficients", "--max-n", "12"], capsys)
    assert code == 1
    assert "witness [coefficient_forms n=12] index 5:" in out
    assert "coefficients_match_z" not in out and "a156308_fixture" not in out


def test_verify_binet_against_the_doubling_kernel(capsys, monkeypatch):
    # The doubling kernel is the binet suite's third route: F(3) off by one
    # there alone fails binet_fib_lucas at every point at n = 3, Z(2) off by
    # one fails binet_z at every grid point at n = 2, and each witness names
    # all three values.
    doubling, z_at = verify._doubling, verify.z_at

    def skewed(n, x, s):
        f, l = doubling(n, x, s)
        return f + (n == 3), l

    monkeypatch.setattr(verify, "_doubling", skewed)
    monkeypatch.setattr(verify, "z_at", lambda n, x, s: z_at(n, x, s) + (n == 2))
    report = verify.SUITES["binet"](3)
    fib_fails = [f for f in report.failures if f.name == "binet_fib_lucas"]
    z_fails = [f for f in report.failures if f.name == "binet_z"]
    assert len(fib_fails) == verify._BINET_POINTS and len(z_fails) == len(verify._binet_grid())
    assert len(report.failures) == len(fib_fails) + len(z_fails)
    assert {f.witness[0] for f in fib_fails} == {3} and {f.witness[0] for f in z_fails} == {2}
    _, lhs, rhs = fib_fails[0].witness
    binet_f = lhs.split("F=")[1].split(",")[0]
    evaluated, doubled = rhs.split("; ")
    assert evaluated.startswith(f"evaluated F={binet_f}, L=")
    assert doubled.startswith("doubling F=") and doubled.split("F=")[1].split(",")[0] != binet_f
    _, lhs, rhs = z_fails[0].witness
    assert lhs.startswith("binet ") and rhs.startswith("evaluated ") and "; doubling " in rhs
    code, out, _ = run_cli(["verify", "binet", "--max-n", "3"], capsys)
    assert code == 1
    assert "witness [binet_z n=2 at (q=0,s=-3)] index 2:" in out


def test_one_suite_table():
    # The tracer in perfbench wraps every module-level dict that holds all the
    # suite names, so a second binding of the table would wrap each suite twice.
    tables = [
        (name, attr)
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "spreadpoly"
        for attr, value in vars(module).items()
        if isinstance(value, dict) and all(s in value for s in verify.SUITES)
    ]
    assert tables == [("spreadpoly.verify", "SUITES")]
    assert len(verify.SUITES) == 13


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 2


# -- parser selection ----------------------------------------------------------------

# The usage errors above (but for the digit-limit ones, which depend on the
# interpreter's limit), each subcommand's help, and what argparse treats
# specially: extra arguments, "--", abbreviated options, a word that is not a
# subcommand, no argument at all, and one op of each benchmark workload kind.
_PARSER_CASES = [
    *([name, flag] for name in cli_module._SUBCOMMANDS for flag in ("-h", "--help", "--he")),
    *([name] for name in cli_module._SUBCOMMANDS),
    *([name, "a", "b", "c", "d", "e"] for name in cli_module._SUBCOMMANDS),
    [],
    ["-h"],
    ["--help"],
    ["-h", "gen"],
    ["--"],
    ["--", "gen", "Z", "3"],
    ["nope"],
    ["GEN", "Z", "3"],
    ["gen", "Q", "3"],
    ["gen", "Z", "-3"],
    ["gen", "Z", "3", "--method", "nope"],
    ["gen", "T", "3", "--method", "recurrence"],
    ["gen", "Z", "3", "--format", "csv"],
    ["gen", "S", "1", "--format", "csv"],
    ["gen", "L", "0", "--method", "from_fib"],
    ["gen", "Z", "3", "extra"],
    ["gen", "Z", "3", "--fo", "json"],
    ["gen", "--", "Z", "3"],
    ["triangle", "0"],
    ["triangle", "-1"],
    ["eval", "Z", "3", "1"],
    ["eval", "Z", "3", "1/2"],
    ["eval", "T", "3", "1", "2"],
    ["eval", "Z", "3", "1.5", "2"],
    ["eval", "Z", "3", "1/0", "2"],
    ["eval", "Z", "3", "1", "2", "3"],
    ["eval", "Z", "3", "--", "-1/2", "-2"],
    ["eval", "F", "3", "1", "-3/-4"],
    ["eval", "F", "3", "1", "-1_0/3"],
    ["eval", "F", "3", "1", "-1e3"],
    ["eval", "T", str(10**30), "9"],
    ["series", "catalan", "3"],
    ["verify", "everything"],
    ["verify", "cassini", "--max-n", "0"],
    ["verify", "cassini", "--max-n", "-1"],
    ["verify", "all", "--maxn", "5"],
    ["verify", "z_cassini", "--max-n", "10"],
    ["gen", "Z", "25", "--method", "parity", "--format", "json"],
    ["triangle", "19", "--format", "csv"],
    ["series", "z_shifted", "11"],
    ["eval", "Z", "670", "-2/7", "-1/4"],
    # What the decoder accepts in its own way (flags first, int() spellings)
    # and each form it leaves to argparse.
    ["gen", "--format", "json", "--method", "closed", "Z", "3"],
    ["gen", "Z", "+4", "--method", "closed"],
    ["triangle", " 5 ", "--format", "csv"],
    ["series", "lucas", "1_0"],
    ["verify", "cassini", "--max-n", "\u0663"],
    ["gen", "Z", "30", "--format=json"],
    ["gen", "Z", "3", "--format", "json", "--format", "text"],
    ["gen", "Z", "3", "--format"],
    ["gen", "Z", "3", "--method", "-x"],
    ["gen", "Z", "3", "--method", "--format"],
    ["gen", "Z", "3", "-h"],
    ["gen", "Z"],
    ["triangle", "-"],
    ["triangle", "5", "-"],
    ["triangle", "- 5"],
    ["triangle", "5", "--format", ""],
    ["series", "z_shifted", "3", "--fo=json"],
    ["verify", "cassini", "--max-n=5"],
    ["verify", "cassini", "--max-n", "-5"],
    ["verify", "cassini", "--max-n", "5", "--max-n", "6"],
    ["verify", "--max-n", "5"],
    ["eval", "F", "3", "--", "1", "-3/-4"],
    ["eval", "F", "3", "1", "-"],
    ["eval", "F", "3", "1", "2", "--"],
]


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_subcommand_parser_matches_the_full_parser(argv, capsys, monkeypatch):
    # main decodes argv without a parser, or leaves it to build_parser();
    # either way it must print and exit exactly as a parse through the whole
    # of build_parser() does.  Only an argv that _decode accepts compares two
    # paths here: one that it declines takes build_parser() on both runs, so
    # for it this pins only that main prints and exits the same way twice.
    # (The name predates the one full parser; no per-subcommand parser is
    # left to compare.)
    alone = run_cli(list(argv), capsys)
    monkeypatch.setattr(
        cli_module, "_parse", lambda args: cli_module.build_parser().parse_known_args(args)
    )
    assert run_cli(list(argv), capsys) == alone


# The tokens argv is drawn from: subcommand words, the names each subcommand
# chooses from, int() spellings, rational literals, option values and flags
# in every form argparse treats specially.
_NAMES = ["all", "Q", "catalan", *cli_module._FAMILIES, *GF_KINDS, *verify.SUITES]
_INTS = ["3", "0", "7", "+4", "1_0", " 5 ", "\u0663", "-3", "1.5", "x", ""]
_RATIONALS = ["1", "-3/-4", "1/2", "-1_0/3", "1/0", "-1e3", "\u0663/7"]
_OPTION_VALUES = ["json", "text", "csv", "closed", "recurrence", "5", "-1", "nope", ""]
_FLAGS = [
    "--format", "--method", "--max-n", "--fo", "--max", "--format=json", "--max-n=5",
    "--maxn", "-h", "--help", "--", "-",
]
_WORDS = list(cli_module._SUBCOMMANDS) + _NAMES + _INTS + _RATIONALS


@st.composite
def _argv(draw):
    # Positionals of the usual kinds in order, sometimes one short or one
    # too many, with flag items inserted anywhere, before them too.  Names,
    # flags and option values lean to the ones the subcommand declares, so
    # that a good share of argv is decoded: choices are weighted, so they come
    # from a drawn Random rather than from Hypothesis's own integer draws.
    rng = draw(st.randoms(use_true_random=True))
    command = rng.choice(list(cli_module._SUBCOMMANDS))
    arguments = cli_module._SUBCOMMANDS[command][2]
    words = []
    for name, keywords in arguments:
        if not name.startswith("-"):
            pool = _RATIONALS if name in ("x0", "s0") else _INTS
            if "choices" in keywords:
                pool = 3 * list(keywords["choices"]) + _NAMES
            words.append(rng.choice(pool))
    words = words[: len(words) - (rng.random() < 0.2)]
    if rng.random() < 0.1:
        words.append(rng.choice(_WORDS))
    items = [[word] for word in words]
    own = {name: keywords for name, keywords in arguments if name.startswith("-")}
    for _ in range(rng.choice((0, 1, 1, 2))):
        flag = rng.choice(4 * list(own) + _FLAGS)
        item = [flag]
        if rng.random() < 0.9:
            values = 3 * list(own.get(flag, {}).get("choices", ())) + _OPTION_VALUES
            item.append(rng.choice(values))
        items.insert(rng.randint(0, len(items)), item)
    return [command, *(token for item in items for token in item)]


@settings(max_examples=1000, deadline=None)
@given(_argv())
@example(["eval", "F", "3", "1", "-3/-4"])
@example(["gen", "--format", "json", "Z", "\u0663"])
@example(["verify", "all", "--max-n", " 5 "])
def test_decoder_matches_the_full_parser(argv):
    # Whenever the decoder accepts argv, build_parser() reads the same
    # Namespace from it, with no extra arguments; accepting or not, the
    # decoder prints nothing.
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        decoded = cli_module._decode(argv[0], argv[1:])
    assert output.getvalue() == ""
    if decoded is None:
        return
    with contextlib.redirect_stderr(output):
        full, extra = cli_module.build_parser().parse_known_args(argv)
    assert extra == []
    assert vars(decoded) == vars(full)


def test_workload_ops_build_no_parser(capsys, monkeypatch):
    # One op of each kind that the benchmark workloads run is decoded: it
    # exits 0 without constructing any ArgumentParser.  An =-joined flag is
    # left to argparse: build_parser() constructs the one full parser, the
    # top-level one and then every subcommand's.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["gen", "Z", "25", "--method", "parity", "--format", "json"],
        ["triangle", "19", "--format", "csv"],
        ["series", "z_shifted", "11"],
        ["verify", "cassini", "--max-n", "5"],
        ["eval", "Z", "670", "-1/8", "1/4"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "") and out, argv
    assert built == []
    assert run_cli(["gen", "Z", "3", "--format=json"], capsys)[0] == 0
    assert built == ["spreadpoly", *(f"spreadpoly {name}" for name in cli_module._SUBCOMMANDS)]


# -- entry point -------------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spreadpoly", "gen", "Z", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^3 + 6*s*x^2 + 9*s^2*x"


def test_closed_output_pipe_exits_141():
    # The reader stops after a few bytes (`spreadpoly triangle 300 | head`):
    # the exit is 128 + SIGPIPE, with no traceback, not 1 ("checks failed").
    proc = subprocess.Popen(
        [sys.executable, "-m", "spreadpoly", "triangle", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_output_exits_74():
    # A full disk is an I/O error (EX_IOERR), told in one line on stderr, not
    # a traceback and 1 ("checks failed").
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spreadpoly", "gen", "Z", "3"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 74
    assert proc.stderr == "spreadpoly: [Errno 28] No space left on device\n"
