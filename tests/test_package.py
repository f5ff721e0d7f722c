"""The package surface: ``spreadpoly`` re-exports exactly its modules' ``__all__``."""

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
