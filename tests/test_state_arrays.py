"""Stacked states are plain (n,) arrays: what the public operations return
and how they check the states and inputs they take."""

import warnings

import numpy as np
import pytest

from helpers import make_instance
from dyadicbp import (
    NumericError,
    RelaxConfig,
    RelaxMode,
    ShapeError,
    apply_global_W,
    beta_drive,
    classical_backprop,
    energy,
    finite_difference_grad,
    forward_field,
    forward_pass,
    neumann_stress,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
    stability_check,
)


def _float32_instance(seed):
    return make_instance(np.random.default_rng(seed), depth=3, dtype=np.float32)


def _state_calls(params, x0, loss):
    """Each public operation that takes a state, as a function of it."""
    zero = np.zeros(params.state_size, dtype=params.dtype)
    return {
        "apply_global_W": lambda v: apply_global_W(params, v),
        "forward_field": lambda v: forward_field(params, x0, v),
        "energy x": lambda v: energy(params, x0, loss, v, zero),
        "energy z": lambda v: energy(params, x0, loss, zero, v),
    }


def test_float64_state_with_float32_params_is_rejected():
    params, x0, loss = _float32_instance(1)
    v = np.random.default_rng(2).standard_normal(params.state_size)
    for call in _state_calls(params, x0, loss).values():
        with pytest.raises(ShapeError, match="dtype"):
            call(v)


def test_integer_state_is_cast_to_the_params_dtype():
    params, x0, loss = _float32_instance(3)
    v = np.random.default_rng(4).integers(-3, 4, params.state_size)
    for name, call in _state_calls(params, x0, loss).items():
        got, want = call(v), call(v.astype(np.float32))
        if name.startswith("energy"):  # a Python float of the float32 sum
            assert got == want, name
        else:
            assert got.dtype == np.float32, name
            assert got.tobytes() == want.tobytes(), name


def test_wrong_length_state_is_rejected():
    params, x0, loss = _float32_instance(5)
    for length in (params.state_size - 1, params.state_size + 1):
        for call in _state_calls(params, x0, loss).values():
            with pytest.raises(ShapeError):
                call(np.zeros(length, dtype=np.float32))
    with pytest.raises(ShapeError):
        apply_global_W(params, np.zeros((params.state_size, 2), dtype=np.float32))


def test_non_finite_state_raises_numeric_error():
    params, x0, loss = _float32_instance(6)
    for bad in (np.nan, np.inf):
        v = np.zeros(params.state_size, dtype=np.float32)
        v[-1] = bad
        for call in _state_calls(params, x0, loss).values():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NumericError):
                    call(v)


def test_batched_input_is_rejected_where_one_sample_is_expected():
    params, x0, loss = _float32_instance(7)
    xb = np.stack([x0, x0], axis=1)
    zero = np.zeros(params.state_size, dtype=np.float32)
    calls = [
        lambda: energy(params, xb, loss, zero, zero),
        lambda: forward_pass(params, xb),
        lambda: beta_drive(params, xb),
        lambda: forward_field(params, xb, zero),
        lambda: neumann_stress(params, xb, loss),
        lambda: stability_check(params, xb),
        lambda: classical_backprop(params, xb, loss),
        lambda: finite_difference_grad(params, xb, loss),
        lambda: relax_twoL(params, xb, loss),
    ]
    for call in calls:
        with pytest.raises(ShapeError):
            call()


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_public_states_are_plain_arrays_of_the_params_dtype(dtype):
    params, x0, loss = make_instance(np.random.default_rng(8), depth=3, dtype=dtype)
    states = {
        "neumann_stress": neumann_stress(params, x0, loss),
        "classical_backprop sens": classical_backprop(params, x0, loss)[1],
        "forward_pass": forward_pass(params, x0)[1],
        "beta_drive": beta_drive(params, x0),
    }
    for name, relax, mode in (
        ("relax_dyadic", relax_dyadic, RelaxMode.DYADIC),
        ("relax_mean_stress", relax_mean_stress, RelaxMode.DYADIC),
        ("relax_split", relax_split, RelaxMode.SPLIT),
    ):
        cfg = RelaxConfig(mode=mode, k_max=50)
        states[f"{name} m"], states[f"{name} s"], _, _ = relax(params, x0, loss, cfg)
    states["relax_twoL m"], states["relax_twoL s"], _ = relax_twoL(params, x0, loss)
    states["apply_global_W"] = apply_global_W(params, states["forward_pass"])
    states["forward_field"] = forward_field(params, x0, states["forward_pass"])
    for name, v in states.items():
        assert type(v) is np.ndarray, name
        assert v.shape == (params.state_size,), name
        assert v.dtype == dtype, name
