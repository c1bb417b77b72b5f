"""The activation kernels are numpy only, and each formula is written once.

Sigmoid is numpy's 1 / (1 + e^(-v)); ``scipy.special.expit`` is its
oracle here (scipy is a test dependency, not a runtime one). It stays
within 4 ulp of scipy, and saturates to exact 0 and 1 with sigma' = 0
and no warning. ``sigma_array`` and ``sigma_prime_array`` walk the
activation runs and keep the bits of the per-block kernels. Tanh, ReLU
and Identity keep the bits of the derivative formulas that
``Activation.derivative`` wrote before it called ``_sigma_pair``.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import dyadicbp
import oracles
from dyadicbp import Activation, random_network
from dyadicbp.network import _sigma_pair, sigma_array, sigma_prime_array

SIGMOID = Activation.SIGMOID
DTYPES = (np.float64, np.float32)
MIXED_RUNS = (
    Activation.TANH,
    Activation.TANH,
    Activation.SIGMOID,
    Activation.SIGMOID,
    Activation.RELU,
    Activation.IDENTITY,
    Activation.IDENTITY,
    Activation.TANH,
)


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != +0.0."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def ulps(got, want):
    """Distance in units in the last place between nonnegative floats."""
    ints = np.int32 if got.dtype == np.float32 else np.int64
    return np.abs(got.view(ints).astype(np.int64) - want.view(ints).astype(np.int64))


def sigmoid_kernels(v):
    """(apply, derivative, sigma and sigma' of _sigma_pair) at v."""
    sig = np.full_like(v, np.nan)
    dsig = np.full_like(v, np.nan)
    _sigma_pair(SIGMOID, v, sig, dsig)
    return SIGMOID.apply(v), SIGMOID.derivative(v), sig, dsig


def test_import_loads_no_scipy():
    src = Path(dyadicbp.__file__).resolve().parents[1]
    code = (
        "import sys, dyadicbp, dyadicbp.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scale", (0.1, 1.0, 3.0, 10.0, 30.0))
def test_sigmoid_is_within_4_ulp_of_scipy(dtype, scale):
    rng = np.random.default_rng(int(scale * 10))
    v = (scale * rng.standard_normal(200_000)).astype(dtype)
    want = expit(v)
    want_prime = want * (1.0 - want)
    apply, derivative, sig, dsig = sigmoid_kernels(v)
    assert_same_bits(sig, apply)
    assert_same_bits(dsig, derivative)
    assert apply.dtype == want.dtype
    assert ulps(apply, want).max() <= 4
    # sigma' = sigma (1 - sigma) carries sigma's error times |1 - 2 sigma| <= 1,
    # plus its own rounding: at most 4 ulp of sigma and 1 ulp of sigma'.
    err = np.abs(derivative.astype(np.float64) - want_prime)
    assert (err <= 4 * np.spacing(want) + np.spacing(want_prime)).all()


@pytest.mark.parametrize("dtype, big", ((np.float64, 800.0), (np.float32, 100.0)))
def test_sigmoid_saturates_exactly_without_warnings(dtype, big):
    v = np.array([-np.inf, -big, big, np.inf], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        apply, derivative, sig, dsig = sigmoid_kernels(v)
    for got in (apply, sig):
        assert_same_bits(got, np.array([0.0, 0.0, 1.0, 1.0], dtype=dtype))
    for got in (derivative, dsig):
        assert_same_bits(got, np.zeros(4, dtype=dtype))


@pytest.mark.parametrize("dtype", DTYPES)
def test_derivative_keeps_the_written_formulas(dtype):
    v = (3.0 * np.random.default_rng(2).standard_normal((7, 5))).astype(dtype)
    v[0, :2] = 0.0  # the ReLU kink
    t = np.tanh(v)
    assert_same_bits(Activation.TANH.derivative(v), 1.0 - t * t)
    assert_same_bits(Activation.RELU.derivative(v), (v > 0).astype(v.dtype))
    assert_same_bits(Activation.IDENTITY.derivative(v), np.ones_like(v))


@pytest.mark.parametrize("dtype", DTYPES)
def test_sigma_arrays_equal_the_per_block_kernels(dtype):
    rng = np.random.default_rng(9)
    params = random_network(3, [5, 4, 3, 6, 2, 3, 4, 2], MIXED_RUNS, rng, dtype=dtype)
    pre = (4.0 * rng.standard_normal((params.state_size, 6))).astype(dtype)
    pre[::7, 1] = 0.0
    for v in (pre, pre[:, 1], np.ascontiguousarray(pre[:, 3])):
        assert_same_bits(sigma_array(params, v), oracles.unfused_sigma(params, v))
        assert_same_bits(sigma_prime_array(params, v), oracles.unfused_sigma_prime(params, v))
