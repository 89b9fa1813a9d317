"""The benchmark's tracer wraps program functions by name; a rename must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.SPANNED, tracing.COUNTED)
    return [f"{layer}.{func}" for table in tables for layer, funcs in table.items() for func in funcs]


@pytest.mark.parametrize("name", traced_names())
def test_traced_function_resolves(name):
    layer, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"neuralfgp.{layer}"), func, None)), name
