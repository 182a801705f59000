"""Every function the benchmark's tracer wraps must exist in the package.

`bench/tracing.py` replaces each (module, name) in its ``TRACED`` table with
a wrapper via ``getattr``, so a function that is deleted or moved would break
traced benchmark runs.  This test only reads ``bench/``; it runs nothing there.
"""

import importlib
import importlib.util
import json
from collections import Counter
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


def test_cli_calls_the_traced_exact_layer(tmp_path, monkeypatch):
    """CLI `decompose --n` and `product-check` reach `hoeffding.variance` and
    `product.verify_product_formula` through the names the tracer replaces, so
    the per-layer times of those names measure the CLI's work."""
    from ustatkit import cli, hoeffding, product

    calls = Counter()
    namespaces = [importlib.import_module("ustatkit"),
                  *(importlib.import_module(f"ustatkit.{mod}")
                    for mod in {mod for mod, _ in _traced_names()})]
    for original in (hoeffding.variance, product.verify_product_formula):
        def counting(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, counting)

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    kernel = write("K.json", {"order": 2, "alphabet": 2, "values": [1.0, 0.0, 0.0, 1.0]})
    degenerate = write("D.json", {"order": 2, "alphabet": 2, "values": [0.5, -0.5, -0.5, 0.5]})
    measure = write("M.json", {"weights": [0.5, 0.5]})
    assert cli.main(["decompose", "--kernel", kernel, "--measure", measure, "--n", "4",
                     "--out", str(tmp_path / "decompose.json")]) == 0
    assert calls == {"variance": 1}
    assert cli.main(["product-check", "--psi", degenerate, "--phi", degenerate, "--n", "4",
                     "--measure", measure, "--out", str(tmp_path / "product.json")]) == 0
    assert calls == {"variance": 1, "verify_product_formula": 1}
