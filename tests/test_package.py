"""The package surface: ``spreadpoly`` re-exports exactly its modules' ``__all__``."""

import os
import subprocess
import sys
import types

import spreadpoly
from spreadpoly import gf, identities, poly, sequences, surd

MODULES = (gf, identities, poly, sequences, surd)


def test_package_all_is_the_union_of_module_all():
    names = spreadpoly.__all__
    assert sorted(names) == sorted(name for m in MODULES for name in m.__all__)
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spreadpoly, name) is getattr(module, name), name
    # Beside the re-exports, only submodules are public attributes.
    for name in dir(spreadpoly):
        if not name.startswith("_") and name not in names:
            assert isinstance(getattr(spreadpoly, name), types.ModuleType), name


def test_a_launch_loads_no_dataclasses():
    # What `spreadpoly` pays at every launch: the parser and every module it
    # imports.  The per-layer tracer patches only the spreadpoly modules that
    # are loaded at this point, so all six must stay among them.
    probe = (
        "import sys; before = set(sys.modules)\n"
        "import spreadpoly.cli; spreadpoly.cli.build_parser()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded
    for name in ("poly", "sequences", "identities", "surd", "gf", "verify"):
        assert f"spreadpoly.{name}" in loaded, name


def test_a_launch_without_site_loads_no_resource_machinery():
    # Without `site` (python -S) nothing else has loaded importlib.resources,
    # so a launch must not either: only `verify coefficients` reads the
    # vendored CSV, and it still reads it in that mode.
    env = {
        **os.environ,
        "PYTHONPATH": os.path.dirname(os.path.dirname(spreadpoly.__file__)),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    probe = (
        "import sys\n"
        "import spreadpoly.cli; spreadpoly.cli.build_parser()\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    loaded = set(proc.stdout.split())
    assert "spreadpoly.fixtures" in loaded
    for name in ("importlib.resources", "zipfile", "tempfile"):
        assert name not in loaded, name
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "spreadpoly", "verify", "coefficients", "--max-n", "12"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all PASS" in proc.stdout
