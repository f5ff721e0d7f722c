"""The mutation probe's keys, mutants and stages (tools/mutants.py), without
running any subprocess."""

import hashlib
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
            copied = str(root / "tests" / "test_m.py")
            assert command[-4:] == ["-x", "-p", "no:cacheprovider", copied]
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


def test_the_probe_runs_the_tests_as_they_were_when_it_started(tmp_path, monkeypatch):
    # The test file is edited in the tree at every test run, the baseline's
    # first; each run still reads the copy taken when the probe started, so
    # no verdict moves, and the report holds the sha256 of the bytes that ran.
    module, test_file = _package(tmp_path)
    (tmp_path / "pyproject.toml").write_text("[tool.pytest.ini_options]\n")
    test_file.write_text("# as the probe found it\n")
    original = test_file.read_bytes()
    ran = []

    def run(root, command):
        if "pytest" not in command:
            return 0, "same"
        ran.append(Path(command[-1]))
        assert (root / "pyproject.toml").read_text() == "[tool.pytest.ini_options]\n"
        test_file.write_text("# edited while the probe runs\n")
        return int("edited" in ran[-1].read_text()), "pytest output"

    monkeypatch.setattr(mutants, "_run", run)
    report = mutants.probe(module, 0, 0, [test_file])
    assert (report["run"], report["survived"], len(ran)) == (6, 6, 7)
    assert all(path.name == test_file.name and path != test_file.resolve() for path in ran)
    assert report["tests_sha256"] == {str(test_file): hashlib.sha256(original).hexdigest()}


def test_a_module_outside_a_package_or_two_tests_of_one_name_stop_the_probe(tmp_path, capsys):
    # Both exit 2, as a failing baseline does, before any run.
    loose = tmp_path / "loose.py"
    loose.write_text(SOURCE)
    module, test_file = _package(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    (other / test_file.name).write_text("")
    for path, tests in ((loose, []), (module, [test_file, other / test_file.name])):
        with pytest.raises(SystemExit) as stopped:
            mutants.probe(path, 0, 0, tests)
        assert stopped.value.code == 2
    err = capsys.readouterr().err
    assert "is not in a package" in err and "two --tests files share a name" in err
