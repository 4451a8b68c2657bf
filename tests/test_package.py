"""The public surface: every exported name resolves."""

import importlib

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
