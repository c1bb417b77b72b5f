"""``scripts/kernel_times.py`` prints one timing line per kernel, depth
and case, alone or against another tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "kernel_times.py"
KERNELS = (
    "apply_w_array",
    "apply_wt_array",
    "_sigma_pair_array",
    "LossSpec.gradient",
    "LossSpec.value",
    "dyadic_step",
    "dyadic_relax_step",
    "dyadic_relax_call",
    "twoL_call",
    "bp_call",
)
CASES = (("float32", "(n,)"), ("float64", "(n,64)"))
BATCH_ONLY = ("evaluate", "train_epoch")  # timed in the batch case only


def _run(*args, timeout=120):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=timeout,
    )


def _rows(proc, columns):
    """The timing rows of a run, after checking its header and row keys."""
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["kernel", "depth", "dtype", "shape", *columns]
    rows = [line.split() for line in lines]
    assert [tuple(r[:4]) for r in rows] == [
        (kernel, depth, dtype, shape)
        for depth in ("L9", "L17")
        for dtype, shape in CASES
        for kernel in KERNELS + (BATCH_ONLY if shape != "(n,)" else ())
    ]
    return rows


def test_kernel_times_prints_one_line_per_kernel():
    rows = _rows(_run("--repeats", "2"), ["median_us"])
    assert all(float(r[4]) > 0 for r in rows)


def test_kernel_times_against_prints_both_medians_and_their_ratio():
    # Against its own tree: two imports of one package, timed in turns.
    rows = _rows(
        _run("--repeats", "1", "--against", str(ROOT / "src")),
        ["median_us", "against_us", "ratio"],
    )
    for r in rows:
        us, other_us, ratio = map(float, r[4:])
        assert us > 0 and other_us > 0
        assert ratio == pytest.approx(us / other_us, rel=0.01, abs=1e-3)


def test_kernel_times_against_needs_a_package(tmp_path):
    proc = _run("--against", str(tmp_path), timeout=60)
    assert proc.returncode == 2 and "error:" in proc.stderr and proc.stdout == ""


def test_kernel_times_rejects_zero_repeats():
    proc = _run("--repeats", "0", timeout=60)
    assert proc.returncode == 2 and "--repeats" in proc.stderr
