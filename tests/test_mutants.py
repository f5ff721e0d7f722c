"""The mutation probe's keys and mutants (tools/mutants.py), without running any."""

import importlib.util
from pathlib import Path

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
