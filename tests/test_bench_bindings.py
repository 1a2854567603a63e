"""The benchmark binds names of the package, so deleting or renaming one of
them breaks every benchmark run while the package's own tests still pass.

``bench/tracing.py`` wraps every name in its ``TRACED`` table with
``getattr`` on ``transversals.<home>``.  Every ``bench/*.py`` file also
imports names from the package, reads attributes of the package modules it
imports (``cli.main``, ``cli._dump_json``, ...) and patches some of them
with ``monkeypatch.setattr``.  These tests read those bindings, without
importing the bench modules that use them, and fail first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = [
        f"{home}.{name}"
        for home, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"transversals.{home}"), name, None))
    ]
    assert missing == []


def bench_bindings(tree):
    """(module, name) for every package name one bench file binds: each
    ``from transversals... import name``, and each attribute read or patched
    by string on a package module that the file imports."""
    modules = {}  # local name -> package module name
    bindings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "transversals" or node.module.startswith("transversals.")
        ):
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(submodule)
                except ModuleNotFoundError:
                    bindings.append((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            bindings.append((modules[node.value.id], node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in modules
            and isinstance(node.args[1], ast.Constant)
        ):
            bindings.append((modules[node.args[0].id], node.args[1].value))
    return bindings


def test_every_bench_binding_resolves():
    found = {}
    for path in sorted(BENCH.glob("*.py")):
        for module, name in bench_bindings(ast.parse(path.read_text(), str(path))):
            found.setdefault((module, name), path.name)
    # One binding of each kind: imported, read as an attribute, patched by name.
    assert ("transversals.transversal", "validate_witness") in found
    assert ("transversals.cli", "_dump_json") in found
    assert ("transversals.cli", "_emit") in found
    missing = [
        f"{where}: {module}.{name}"
        for (module, name), where in sorted(found.items())
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
