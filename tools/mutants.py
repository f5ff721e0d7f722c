"""Mutation probe: does ``spreadpoly verify`` notice a one-token change to a module?

Usage (from the repository root):

    python3 tools/mutants.py src/spreadpoly/identities.py --sample 40 --seed 1 > report.json
    python3 tools/mutants.py src/spreadpoly/identities.py \
        --tests tests/test_identities.py tests/test_verify.py > report.json

Each mutant changes one token of the module: a binary operator swapped for a
partner (+ and -, * and //, << and >>, ...), a comparison swapped (== and !=,
< and <=, ...), or an int constant plus 1.  The mutated module is written,
through ``ast.unparse``, into a copy of its package in a temporary directory,
and ``python -m <package> verify all --max-n 12`` runs there in a subprocess.
A mutant survives when that run gives the same exit code and the same stdout
sha256 as the unmutated module, itself unparsed, gives; any other exit code,
output, a run past two minutes or past 1 GiB of address space kills it.  The
unmutated baseline must exit 0.

With ``--tests FILE...`` a mutant that survives ``verify`` meets a second
stage: ``python -m pytest -q -x -p no:cacheprovider FILE...`` runs against
the mutated copy, under the same time and memory limits, and kills it
(``killed_by_tests``) unless it passes.  The unmutated copy must pass them.
The test files run from copies taken when the probe starts, in
``tests/`` of the temporary directory, beside a copy of the pytest
configuration file nearest above the first of them: a test file edited
while the probe runs changes no verdict of that run.  The report records the
sha256 of each test file as copied.

A mutant is keyed by module, function and operator occurrence, never by line:
``spreadpoly.identities:check_cassini:Sub->Add#2`` is the third (from 0)
``-`` made ``+`` inside ``check_cassini``, nested functions and lambdas
included, in source order; ``<module>`` holds the code outside every function.
``--sample K`` runs K mutants drawn with ``--seed`` (all of them when K is 0).
The JSON report on stdout holds the baseline, the test files' sha256, the
counts, the counts per function and every mutant's outcome (``killed``,
``killed_by_tests`` or ``survived``); a summary line goes to stderr.  Exit
code 0 whatever survives; 2 when the baseline fails ``verify`` or the tests,
the module is not in a package or two test files share a name.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator, Sequence

_BINARY = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr,
}
_COMPARE = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}

_MAX_N = 12
_STATUSES = ("killed", "killed_by_tests", "survived")
_TIMEOUT_S = 120
# The address space a mutant's run may take, so that a mutant which builds a
# huge int fails instead of exhausting the host.
_MEMORY_LIMIT = 1 << 30
# The files pytest reads its configuration from, in the order it tries them.
_PYTEST_CONFIGS = ("pytest.ini", ".pytest.ini", "pyproject.toml", "tox.ini", "setup.cfg")


def _sites(tree: ast.Module) -> Iterator[tuple[str, str, Callable[[], None]]]:
    """(function, operator, mutate) for every mutable token, in source order;
    ``mutate`` applies the mutation to ``tree`` in place."""

    def visit(node: ast.AST, scope: str) -> Iterator[tuple[str, str, Callable[[], None]]]:
        swaps = []  # (operator, its partners, how to put a new one in its place)
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            swaps = [(node.op, _BINARY, lambda new: setattr(node, "op", new))]
        elif isinstance(node, ast.Compare):
            swaps = [
                (op, _COMPARE, lambda new, i=i: node.ops.__setitem__(i, new))
                for i, op in enumerate(node.ops)
            ]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield scope, "int+1", lambda: setattr(node, "value", node.value + 1)
        for old, partners, put in swaps:
            new = partners.get(type(old))
            if new is not None:
                name = f"{type(old).__name__}->{new.__name__}"
                yield scope, name, lambda put=put, new=new: put(new())
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        # Annotations are never evaluated under `from __future__ import
        # annotations`, so a mutant there could only survive.
        annotations = {getattr(node, "returns", None), getattr(node, "annotation", None)}
        for child in ast.iter_child_nodes(node):
            if child not in annotations:
                yield from visit(child, scope)

    return visit(tree, "<module>")


def mutants(source: str, module: str) -> list[str]:
    """The key of every mutant of ``source``, in source order."""
    keys, seen = [], {}
    for scope, operator, _ in _sites(ast.parse(source)):
        k = seen[scope, operator] = seen.get((scope, operator), -1) + 1
        keys.append(f"{module}:{scope}:{operator}#{k}")
    return keys


def mutated(source: str, index: int) -> str:
    """``source`` with mutant ``index`` (in source order) applied, unparsed."""
    tree = ast.parse(source)
    for i, (_, _, mutate) in enumerate(_sites(tree)):
        if i == index:
            mutate()
            break
    return ast.unparse(tree) + "\n"


def _limit_memory() -> None:
    import resource  # POSIX only, as is the preexec_fn that calls this

    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


def _run(root: Path, command: list[str]) -> tuple[int | str, str]:
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=_TIMEOUT_S,
            preexec_fn=_limit_memory if os.name == "posix" else None,
        )
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def _copy_tests(tests: Sequence[Path], root: Path) -> list[Path]:
    """Copies of the test files in ``root/tests``, and of the pytest
    configuration file nearest above the first of them in ``root``."""
    if not tests:
        return []
    (root / "tests").mkdir()
    copies = [root / "tests" / test.name for test in tests]
    if len(set(copies)) < len(copies):
        print("mutants: two --tests files share a name", file=sys.stderr)
        raise SystemExit(2)
    for test, copy in zip(tests, copies):
        shutil.copyfile(test, copy)
    for folder in tests[0].resolve().parents:
        config = next((folder / n for n in _PYTEST_CONFIGS if (folder / n).is_file()), None)
        if config:
            shutil.copyfile(config, root / config.name)
            break
    return copies


def probe(path: Path, sample: int, seed: int, tests: Sequence[Path] = ()) -> dict:
    package = path.resolve().parent
    if not (package / "__init__.py").exists():
        print(f"mutants: {path} is not in a package", file=sys.stderr)
        raise SystemExit(2)
    module = f"{package.name}.{path.stem}"
    source = path.read_text()
    keys = mutants(source, module)
    chosen = range(len(keys))
    if sample:
        chosen = sorted(random.Random(seed).sample(chosen, min(sample, len(keys))))
    command = [sys.executable, "-m", package.name, "verify", "all", "--max-n", str(_MAX_N)]
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        copy = root / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        test_copies = _copy_tests(tests, root)
        test_command = [*pytest, *map(str, test_copies)]
        tests_sha256 = {
            str(test): hashlib.sha256(copied.read_bytes()).hexdigest()
            for test, copied in zip(tests, test_copies)
        }
        target = copy / path.name
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        baseline = _run(root, command)
        if baseline[0] != 0:
            print(f"mutants: the unmutated baseline exited {baseline[0]}", file=sys.stderr)
            raise SystemExit(2)
        if tests and _run(root, test_command)[0] != 0:
            print("mutants: the unmutated baseline fails the tests", file=sys.stderr)
            raise SystemExit(2)
        outcomes, by_function = {}, {}
        for i in chosen:
            target.write_text(mutated(source, i))
            status = "killed"
            if _run(root, command) == baseline:
                passed = not tests or _run(root, test_command)[0] == 0
                status = "survived" if passed else "killed_by_tests"
            outcomes[keys[i]] = status
            function = keys[i].split(":")[1]
            counts = by_function.setdefault(function, dict.fromkeys(_STATUSES, 0))
            counts[status] += 1
    totals = {status: sum(s == status for s in outcomes.values()) for status in _STATUSES}
    return {
        "module": module,
        "command": ["python", *command[1:]],
        "tests_command": ["python", *pytest[1:], *map(str, tests)] if tests else None,
        "tests_sha256": tests_sha256 or None,
        "baseline": {"exit": baseline[0], "stdout_sha256": baseline[1]},
        "mutants": len(keys),
        "sample": sample or None,
        "seed": seed if sample else None,
        "run": len(outcomes),
        **totals,
        "by_function": by_function,
        "outcomes": outcomes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", type=Path, help="a module file inside its package")
    parser.add_argument("--sample", type=int, default=0, help="mutants to run; 0 runs all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tests", type=Path, nargs="+", default=[], metavar="FILE",
        help="test files that every mutant surviving verify must also pass",
    )
    args = parser.parse_args(argv)
    report = probe(args.module, args.sample, args.seed, args.tests)
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    print(
        f"mutants: {report['module']}: {report['run']} of {report['mutants']} run,"
        f" {report['killed_by_tests']} killed by tests, {report['survived']} survived",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
