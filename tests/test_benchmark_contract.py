"""The benchmark's span tracer wraps package functions by name
(perfbench/spans.py, TRACED); each of them must exist, or `--trace 1` fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module_name,func_name", traced_names())
def test_traced_function_exists(module_name, func_name):
    module = importlib.import_module(f"blockwise_unlearn.{module_name}")
    assert callable(getattr(module, func_name, None))
