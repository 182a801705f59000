"""Every function the benchmark's tracer wraps must exist in the package.

`bench/tracing.py` replaces each (module, name) in its ``TRACED`` table with
a wrapper via ``getattr``, so a function that is deleted or moved would break
traced benchmark runs.  This test only reads ``bench/``; it runs nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize(("module", "name"), _traced_names())
def test_traced_name_resolves(module, name):
    target = getattr(importlib.import_module(f"ustatkit.{module}"), name, None)
    assert callable(target), f"ustatkit.{module}.{name} is not a callable"
