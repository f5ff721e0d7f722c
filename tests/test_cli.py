"""CLI behavior: golden outputs, formats, and the exit-code contract."""

import json
import subprocess
import sys

from spreadpoly import BiPoly, Z_METHODS, z_polynomial
from spreadpoly.cli import main
import spreadpoly.cli as cli_module


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


def test_gen_univariate_family_json(capsys):
    code, out, _ = run_cli(["gen", "Zx", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"x": 2, "s": 0, "c": "-1"}, {"x": 1, "s": 0, "c": "4"}]


def test_gen_usage_errors(capsys):
    assert run_cli(["gen", "Q", "3"], capsys)[0] == 2  # unknown family
    assert run_cli(["gen", "Z", "-3"], capsys)[0] == 2  # negative index
    assert run_cli(["gen", "Z", "3", "--method", "nope"], capsys)[0] == 2
    assert run_cli(["gen", "T", "3", "--method", "recurrence"], capsys)[0] == 2
    assert run_cli(["gen", "Z", "3", "--format", "csv"], capsys)[0] == 2
    # from_fib needs n >= 1: the builder's ValueError is a usage error, not exit 1
    code, out, err = run_cli(["gen", "L", "0", "--method", "from_fib"], capsys)
    assert code == 2
    assert out == "" and "needs n >= 1" in err


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


def test_eval_usage_errors(capsys):
    assert run_cli(["eval", "Z", "3", "1"], capsys)[0] == 2  # missing s0
    assert run_cli(["eval", "T", "3", "1", "2"], capsys)[0] == 2  # extra s0
    assert run_cli(["eval", "Z", "3", "1.5", "2"], capsys)[0] == 2  # bad literal
    assert run_cli(["eval", "Z", "3", "1/0", "2"], capsys)[0] == 2  # zero denominator


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


def test_verify_failure_exits_one(capsys, monkeypatch):
    from spreadpoly.identities import failure

    monkeypatch.setattr(
        cli_module, "check_cassini", lambda n: failure("cassini", f"n={n}", n, "x", "s")
    )
    code, out, _ = run_cli(["verify", "cassini", "--max-n", "2"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "lhs: x" in out and "rhs: s" in out


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 2


# -- entry point -------------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spreadpoly", "gen", "Z", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^3 + 6*s*x^2 + 9*s^2*x"
