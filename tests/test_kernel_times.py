"""``scripts/kernel_times.py`` prints one timing line per kernel, depth
and case."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_kernel_times_prints_one_line_per_kernel():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "2"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["kernel", "depth", "dtype", "shape", "median_us"]
    rows = [line.split() for line in lines]
    assert [tuple(r[:4]) for r in rows] == [
        (kernel, depth, dtype, shape)
        for depth in ("L9", "L17")
        for dtype, shape in CASES
        for kernel in KERNELS
    ]
    assert all(float(r[4]) > 0 for r in rows)


def test_kernel_times_rejects_zero_repeats():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 2 and "--repeats" in proc.stderr
