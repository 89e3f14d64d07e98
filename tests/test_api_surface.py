"""Every library name the benchmark's tracer wraps must still resolve.

``benchmarks/spans.py`` lists the public functions and methods that a
``--trace 1`` run wraps; a renamed or deleted one would make that run die
with an ``AttributeError``. This reads the list without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_TABLE = load_spans()


@pytest.mark.parametrize("entry", SPAN_TABLE.FUNCTIONS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_function_resolves(entry):
    _, module, attr = entry[:3]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("entry", SPAN_TABLE.METHODS, ids=lambda e: f"{e[2]}.{e[3]}")
def test_traced_method_resolves(entry):
    _, module, cls, method = entry[:4]
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))
