"""The mutation probe's keys, mutants and stages (tools/mutants.py), without
running any subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SOURCE = '''\
from __future__ import annotations


def f(a: int | None, b=1) -> int | None:
    return a - b < 2 and (lambda: a << 3)()
'''


def test_keys_name_function_operator_and_occurrence_not_line():
    keys = [
        "m:f:int+1#0",
        "m:f:Lt->LtE#0",
        "m:f:Sub->Add#0",
        "m:f:int+1#1",
        "m:f:LShift->RShift#0",
        "m:f:int+1#2",
    ]
    # The annotations' | is never evaluated, so it is no mutant.
    assert mutants.mutants(SOURCE, "m") == keys
    assert mutants.mutants("# moved down\n\n" + SOURCE, "m") == keys


def test_each_mutant_changes_its_one_token():
    expected = ["b=2", "a - b <= 2", "a + b < 2", "a - b < 3", "a >> 3", "a << 4"]
    for i, text in enumerate(expected):
        source = mutants.mutated(SOURCE, i)
        assert text in source, (i, source)
        compile(source, "<mutant>", "exec")


def _package(tmp_path):
    """A package ``pkg`` holding SOURCE as ``pkg.m``, and an empty test file."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(SOURCE)
    test_file = tmp_path / "test_m.py"
    test_file.write_text("")
    return package / "m.py", test_file


def _fake_run(test_file, tests_fail_on):
    """A stand-in for the probe's subprocess: verify's output changes only
    with ``a + b``, and the tests fail only on ``tests_fail_on`` text."""

    def run(root, command):
        text = (root / "pkg" / "m.py").read_text()
        if "pytest" in command:
            assert command[-4:] == ["-x", "-p", "no:cacheprovider", str(test_file.resolve())]
            return int(tests_fail_on in text), "pytest output"
        return 0, "changed" if "a + b" in text else "same"

    return run


def test_survivors_of_verify_meet_the_tests(tmp_path, monkeypatch, capsys):
    module, test_file = _package(tmp_path)
    monkeypatch.setattr(mutants, "_run", _fake_run(test_file, "a << 4"))
    assert mutants.main([str(module), "--tests", str(test_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcomes"] == {
        "pkg.m:f:int+1#0": "survived",
        "pkg.m:f:Lt->LtE#0": "survived",
        "pkg.m:f:Sub->Add#0": "killed",
        "pkg.m:f:int+1#1": "survived",
        "pkg.m:f:LShift->RShift#0": "survived",
        "pkg.m:f:int+1#2": "killed_by_tests",
    }
    assert (report["killed"], report["killed_by_tests"], report["survived"]) == (1, 1, 4)
    assert report["by_function"] == {"f": {"killed": 1, "killed_by_tests": 1, "survived": 4}}
    assert report["tests_command"][-1] == str(test_file)
    # Without --tests no test runs, and the same mutant survives.
    report = mutants.probe(module, 0, 0)
    assert report["outcomes"]["pkg.m:f:int+1#2"] == "survived"
    assert (report["killed_by_tests"], report["tests_command"]) == (0, None)


def test_a_baseline_that_fails_the_tests_stops_the_probe(tmp_path, monkeypatch):
    module, test_file = _package(tmp_path)
    monkeypatch.setattr(mutants, "_run", _fake_run(test_file, "def f"))
    with pytest.raises(SystemExit) as stopped:
        mutants.probe(module, 0, 0, [test_file])
    assert stopped.value.code == 2
