"""The public surface: every exported name resolves."""

import importlib
import types

import pytest

MODULES = ("arith", "checks", "cli", "eisenstein", "geometry", "integrals",
           "lattice", "specfun", "volumes")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # importing a submodule runs the package's __init__ first; the
    # benchmark's tracer then looks up each __all__ name with getattr
    module = importlib.import_module(f"kudla_green.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"


def test_package_reexports_only_submodule_exports():
    # the benchmark's tracer wraps __all__ names only, so a name the
    # package binds outside every __all__ (a deleted class, say) is stale
    package = importlib.import_module("kudla_green")
    exported = set()
    for name in MODULES:
        exported |= set(getattr(importlib.import_module(f"kudla_green.{name}"),
                                "__all__", ()))
    for attr, value in vars(package).items():
        if attr.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert attr in exported, f"kudla_green.{attr} is in no __all__"
