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


def _exports_not_read():
    """module.name of every export that neither the library nor the
    benchmark reads; the package's re-exports and the tests do not count."""
    library = [p for p in (ROOT / "src" / "kudla_green").glob("*.py")
               if p.name != "__init__.py"]
    read = _names_read(library + list((ROOT / "perfbench").glob("*.py")))
    return [(f"{name}.{attr}", getattr(module, attr))
            for name in MODULES
            for module in [importlib.import_module(f"kudla_green.{name}")]
            for attr in getattr(module, "__all__", ()) if attr not in read]


def test_every_exported_constant_is_read():
    # an UPPER_CASE export nothing reads is dead
    unread = [name for name, _ in _exports_not_read()
              if name.rpartition(".")[2].isupper()]
    assert not unread, f"exported but never read: {unread}"


def test_every_exported_function_is_read():
    # a public function that only the tests call belongs in the tests
    # (tests/oracles.py holds the independent routes they check against)
    unread = [name for name, value in _exports_not_read() if callable(value)]
    assert not unread, f"read only by the tests: {unread}"


def test_readme_library_example_runs():
    # a name the example imports or calls that the library no longer has
    # fails here rather than in a reader's session
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


# The benchmark under perfbench/ imports library names, reads module
# attributes, monkeypatches some by their string names and names its spans
# `layer.function`; the checks below read those files and import nothing
# from them.
PERFBENCH = ROOT / "perfbench"


def _literal(path, name):
    """The literal a perfbench file assigns to the module-level `name`."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no literal {name}")


def _library_names_used(path):
    """(module, attribute) pairs a perfbench file imports, reads or
    monkeypatches by name from kudla_green."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, used = {}, []  # local name -> the library module it binds
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "kudla_green"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                used.append((module, alias.name))
                if node.module == "kudla_green" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = \
                        importlib.import_module(f"kudla_green.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kudla_green":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and getattr(node.func, "attr", None) == "setattr"):
            target, attr = node.args[:2]
            if (isinstance(target, ast.Name) and target.id in modules
                    and isinstance(attr, ast.Constant)):
                used.append((modules[target.id], attr.value))
            elif (isinstance(target, ast.Constant)
                  and str(target.value).startswith("kudla_green.")):
                module, _, name = target.value.rpartition(".")
                used.append((importlib.import_module(module), name))
    return used


def test_benchmark_library_names_resolve():
    used = [pair for path in sorted(PERFBENCH.glob("*.py"))
            for pair in _library_names_used(path)]
    assert used
    missing = sorted({f"{module.__name__}.{attr}" for module, attr in used
                      if not hasattr(module, attr)})
    assert not missing, f"perfbench uses names the library lacks: {missing}"


def test_benchmark_span_names_are_exported():
    spans = PERFBENCH / "spans.py"
    names = set()
    for _, span_names, *within in _literal(spans, "METRICS").values():
        names.update(span_names, within)
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"kudla_green.{layer}")
        assert attr in module.__all__, f"span {name} is no export of {layer}"
    for layer in _literal(spans, "LAYERS"):
        assert importlib.import_module(f"kudla_green.{layer}").__all__
    cli = importlib.import_module("kudla_green.cli")
    checks = _literal(PERFBENCH / "workloads.py", "VERIFY_CHECKS")
    assert set(checks) <= set(cli._VERIFY_CHECKS)
