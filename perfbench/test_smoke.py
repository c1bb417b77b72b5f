"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It makes one short run of every workload in both modes and checks that
every metric BENCHMARK.json names is printed with its unit, that the
gates pass on the unchanged program, that the gates flag doctored
outputs, and that the command fails without a program to measure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
import dyadicbp  # noqa: E402
from dyadicbp import DatasetSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seconds="1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"{m['name']} = " in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _train_check(name, rows, converged):
    w = workloads.WORKLOADS[name]
    config = w.config(0, epochs=1, dataset=DatasetSpec(n_samples=160))  # 128 train, 2 batches
    capture = workloads.Capture()
    capture.engine += [(None, None, np.full(c.size, 9), c) for c in converged]
    return w.check(config, type("Result", (), {"rows": rows}), capture)


def test_twoL_gate_demands_exact_gradients():
    ok = np.ones(64, dtype=bool)
    exact = _train_check("train-twoL-L17", [{}, {"fid_rel_err": 0.0}], [ok, ok])
    assert (exact.failed, exact.violations) == (0, [])
    off = _train_check("train-twoL-L17", [{}, {"fid_rel_err": 1e-17}], [ok, ok])
    assert off.failed == 128 and len(off.violations) == 1


def test_dyadic_gate_counts_stalls_apart_and_flags_low_cosine():
    ok = np.ones(64, dtype=bool)
    stalled = ok.copy()
    stalled[:3] = False
    good = _train_check("train-dyadic-eta0.5-L9", [{}, {"fid_cos": 1.0}], [ok, stalled])
    assert (good.failed, good.nonconverged, good.violations) == (0, 3, [])
    bad = _train_check("train-dyadic-eta0.5-L9", [{}, {"fid_cos": 0.999}], [ok, ok])
    assert bad.failed == 128 and len(bad.violations) == 1


def _sweep_check(engine_grads, bp_grads, min_cos=1.0, stalled=()):
    """SweepWorkload.check on made-up gradients: ``engine_grads[i][t]`` is
    the gradient of eta i, trial t; ``bp_grads[t]`` is BP's for trial t;
    the (i, t) in ``stalled`` ran to k_max."""
    w = workloads.WORKLOADS["sweep-dyadic-f32-L9"]
    rows = [{"eta": eta, "min_cos": min_cos} for eta in w.etas]
    capture = workloads.Capture()
    capture.bp += [(SimpleNamespace(flat=lambda g=g: g),) for g in bp_grads]
    capture.engine += [
        (None, None, SimpleNamespace(flat=lambda g=g: g),
         SimpleNamespace(converged=(i, t) not in stalled, iterations_used=9))
        for i, per_trial in enumerate(engine_grads)
        for t, g in enumerate(per_trial)
    ]
    return w.check(w.config(0), rows, capture)


def test_sweep_gate_flags_a_wrong_gradient_and_a_low_reported_cosine():
    w = workloads.WORKLOADS["sweep-dyadic-f32-L9"]
    bp = [np.random.default_rng(t).standard_normal(50) for t in range(w.per_call)]
    engine = [[g.copy() for g in bp] for _ in w.etas]
    good = _sweep_check(engine, bp)
    assert (good.failed, good.violations) == (0, [])
    stall = _sweep_check(engine, bp, stalled={(len(w.etas) - 1, 0), (len(w.etas) - 1, 1)})
    assert (stall.failed, stall.nonconverged, stall.violations) == (0, 2, [])
    engine[-1][2] = -engine[-1][2]
    flipped = _sweep_check(engine, bp)
    assert flipped.failed == 1 and len(flipped.violations) == 1
    low = _sweep_check([[g.copy() for g in bp] for _ in w.etas], bp, min_cos=0.99)
    assert low.failed == 0 and len(low.violations) == len(w.etas)


def test_twoL_verify_flags_a_changed_trajectory(tmp_path):
    w = workloads.WORKLOADS["train-twoL-L17"]
    config = w.config(0, epochs=1, dataset=DatasetSpec(n_samples=160))
    rows = [dict(r) for r in dyadicbp.train(config).rows]
    assert w.verify([(config, rows)], tmp_path) == []
    rows[1]["train_loss"] = np.nextafter(rows[1]["train_loss"], np.inf)
    violations = w.verify([(config, rows)], tmp_path)
    assert len(violations) == 1 and "differs from BP" in violations[0]


def test_twoL_verify_flags_a_wrong_golden_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GOLDEN_SHA256", "0" * 64)
    violations = workloads.WORKLOADS["train-twoL-L17"].verify([], tmp_path)
    assert len(violations) == 1 and "golden train.csv sha256" in violations[0]
