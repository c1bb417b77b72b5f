"""The benchmark's tracer wraps package functions by name
(``perfbench/spans.py`` ``ENTRY_POINTS``). Renaming or removing one
would crash a traced benchmark run while every other test stays green,
so each target must resolve to a callable here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name, module, attr", spans.ENTRY_POINTS)
def test_entry_point_resolves(name, module, attr):
    importlib.import_module(module)
    owner, leaf = spans._resolve(module, attr)
    assert callable(getattr(owner, leaf)), name
