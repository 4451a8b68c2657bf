"""The public surface: every exported name resolves, and is needed."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

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


def _names_read(paths):
    """Every name loaded, and every attribute read, in the given files."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_every_exported_constant_is_read():
    # an UPPER_CASE export that neither the library nor the benchmark reads
    # is dead; the package's re-exports and the tests do not count
    library = [p for p in (ROOT / "src" / "kudla_green").glob("*.py")
               if p.name != "__init__.py"]
    read = _names_read(library + list((ROOT / "perfbench").glob("*.py")))
    unread = [f"{name}.{attr}" for name in MODULES
              for attr in getattr(importlib.import_module(
                  f"kudla_green.{name}"), "__all__", ())
              if attr.isupper() and attr not in read]
    assert not unread, f"exported but never read: {unread}"


def test_readme_library_example_runs():
    # a name the example imports or calls that the library no longer has
    # fails here rather than in a reader's session
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
