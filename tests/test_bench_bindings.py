"""The benchmark's traced runs bind functions of the package by name.

``bench/tracing.py`` wraps every name in its ``TRACED`` table with
``getattr`` on ``transversals.<home>``, so deleting or renaming one of them
breaks every traced run.  This test reads that table and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
