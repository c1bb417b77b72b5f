"""The benchmark's tracer wraps package functions by name
(``perfbench/spans.py`` ``ENTRY_POINTS``). Renaming or removing one
would crash a traced benchmark run while every other test stays green,
so each target must resolve to a callable here. The sweep workload's
gates read one ``relax_dyadic`` result per (eta, trial), captured at
the binding in ``dyadicbp.training``, so ``sweep_eta`` and
``check_gradients`` must reach that binding once per relaxation and
return a trace with its counts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dyadicbp
from dyadicbp import ExperimentConfig, GradientMethod, RelaxTrace

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


@pytest.fixture
def relax_dyadic_traces(monkeypatch):
    """The traces of every relax_dyadic call made through ``dyadicbp.training``."""
    training = importlib.import_module("dyadicbp.training")
    original = training.relax_dyadic
    traces = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        traces.append(result[3])
        return result

    monkeypatch.setattr(training, "relax_dyadic", counted)
    return traces


def _assert_counts(traces, expected):
    assert len(traces) == expected
    for trace in traces:
        assert isinstance(trace, RelaxTrace)
        assert type(trace.iterations_used) is int and trace.iterations_used >= 1
        assert type(trace.converged) is bool


def test_sweep_reaches_relax_dyadic_once_per_eta_and_trial(relax_dyadic_traces):
    config = ExperimentConfig(seed=3, method=GradientMethod.DYADIC, precision=32)
    etas = (0.5, 1.0)
    rows = dyadicbp.sweep_eta(config, etas, trials=3)
    _assert_counts(relax_dyadic_traces, len(etas) * 3)
    for i, row in enumerate(rows):
        iters = [t.iterations_used for t in relax_dyadic_traces[3 * i : 3 * i + 3]]
        assert row["max_iterations"] == max(iters)


def test_check_reaches_relax_dyadic_once_per_trial(relax_dyadic_traces):
    config = ExperimentConfig(seed=3, method=GradientMethod.DYADIC, precision=32, eta=0.5)
    rows = dyadicbp.check_gradients(config, trials=3)
    _assert_counts(relax_dyadic_traces, 3)
    assert [r["iterations"] for r in rows] == [t.iterations_used for t in relax_dyadic_traces]
    assert [r["converged"] for r in rows] == [t.converged for t in relax_dyadic_traces]
