"""The stacked block plan: ``NetworkParams`` holds the weights of each
run of consecutive equal-shaped W_l as one strided view of its
parameter buffer, and ``apply_w_array`` / ``apply_wt_array`` do one
matmul per run. These properties pin both kernels to the per-block
products they replaced (``oracles.per_block_w``/``per_block_wt``) byte
for byte, over depths 1-7, runs of every length, both precisions, (n,),
(n, 1) and (n, B) states and calls with and without ``out=``; they pin
the stacks of rebuilt params to fresh ones, and the one read-only
buffer that the weights, biases and stacks are views of.

Consecutive W_l of equal shape are square (W_l is n_l x n_{l-1}), so
non-square shapes appear as runs of length one, between square runs.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import ALL_ACTS
from dyadicbp import (
    Activation,
    GradientBundle,
    LayerParams,
    LayerSpec,
    NetworkParams,
    ShapeError,
    random_network,
)
from dyadicbp.network import apply_w_array, apply_wt_array


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != +0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def plan_cases(draw):
    """A network whose widths repeat in segments (runs of equal-shaped
    W_l of length 1..6) and a state of shape (n,), (n, 1) or (n, B), in
    C or Fortran order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 7))
    widths: list[int] = []
    while len(widths) < depth:
        widths += [draw(st.integers(1, 6))] * draw(st.integers(1, depth))
    widths = widths[:depth]
    input_dim = draw(st.integers(1, 6))
    acts = [ALL_ACTS[int(rng.integers(len(ALL_ACTS)))] for _ in range(depth)]
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    params = random_network(input_dim, widths, acts, rng, bias_std=0.5, dtype=dtype)
    n = params.state_size
    shape = draw(st.sampled_from(((n,), (n, 1), (n, draw(st.integers(2, 6))))))
    arr = rng.standard_normal(shape).astype(dtype)
    # Signed zeros must keep their sign through both paths.
    arr[rng.random(shape) < 0.2] = -0.0
    if draw(st.booleans()):
        arr = np.asfortranarray(arr)
    return params, arr


def _expected_runs(params):
    """Lengths of the runs of consecutive equal-shaped W_2..W_L."""
    runs: list[int] = []
    shapes = [lp.weight.shape for lp in params.layers[1:]]
    for i, shape in enumerate(shapes):
        if i and shape == shapes[i - 1]:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


@given(plan_cases(), st.booleans())
def test_stacked_kernels_equal_per_block_products(case, with_out):
    params, arr = case
    assert [s.shape[0] for s, _, _ in params._stacks] == _expected_runs(params)
    for kernel, oracle in (
        (apply_w_array, oracles.per_block_w),
        (apply_wt_array, oracles.per_block_wt),
    ):
        want = oracle(params, arr)
        if with_out:
            out = np.full_like(arr, np.nan)
            got = kernel(params, arr, out=out)
            assert got is out
        else:
            got = kernel(params, arr)
        assert_same_bits(got, want)


@given(plan_cases())
def test_stacked_kernels_write_into_strided_out(case):
    # ``out`` may be a non-contiguous view: every run's reshaped output
    # must still be a view of it, so no product is lost in a copy.
    params, arr = case
    for kernel, oracle in (
        (apply_w_array, oracles.per_block_w),
        (apply_wt_array, oracles.per_block_wt),
    ):
        base = np.full((2 * arr.shape[0],) + arr.shape[1:], np.nan, dtype=arr.dtype)
        out = base[::2]
        kernel(params, arr, out=out)
        assert_same_bits(out, oracle(params, arr))


def test_reference_depth_nine_has_two_runs():
    rng = np.random.default_rng(0)
    params = random_network(2, (32,) * 8 + (2,), Activation.TANH, rng)
    assert [s.shape for s, _, _ in params._stacks] == [(7, 32, 32), (1, 2, 32)]
    deep = random_network(2, (32,) * 16 + (2,), Activation.TANH, rng)
    assert [s.shape for s, _, _ in deep._stacks] == [(15, 32, 32), (1, 2, 32)]


def _assert_stacks_match_layers(params):
    """The stacks of ``params`` equal those of freshly built params and
    hold W_2..W_L in order."""
    fresh = NetworkParams(
        params.input_dim,
        tuple(
            LayerParams(lp.spec, lp.weight.copy(), lp.bias.copy()) for lp in params.layers
        ),
    )
    assert len(params._stacks) == len(fresh._stacks)
    for (stack, lo, hi), (f_stack, f_lo, f_hi) in zip(params._stacks, fresh._stacks):
        assert (lo, hi) == (f_lo, f_hi)
        assert_same_bits(stack, f_stack)
    stacked = [w for stack, _, _ in params._stacks for w in stack]
    assert len(stacked) == params.depth - 1
    for w, lp in zip(stacked, params.layers[1:]):
        assert_same_bits(w, lp.weight)


@given(plan_cases())
def test_rebuilt_params_carry_fresh_stacks(case):
    params, _ = case
    other = np.float64 if params.dtype == np.float32 else np.float32
    cast = params.astype(other)
    _assert_stacks_match_layers(cast)
    assert all(s.dtype == np.dtype(other) for s, _, _ in cast._stacks)
    stepped = params._with_flat(params._flat - 0.25)  # a training step's route
    _assert_stacks_match_layers(stepped)
    for old, new in zip(params.layers, stepped.layers):
        assert_same_bits(new.weight, old.weight - 0.25)


@given(plan_cases())
def test_layer_arrays_are_read_only(case):
    params, _ = case
    for lp in params.layers:
        with pytest.raises(ValueError):
            lp.weight[0, 0] = 1.0
        with pytest.raises(ValueError):
            lp.bias[0] = 1.0
        with pytest.raises(ValueError):
            lp.weight += 1.0


@given(plan_cases())
def test_layers_and_stacks_are_views_of_one_read_only_buffer(case):
    params, arr = case
    for p in (params, params.astype(np.float32), params._with_flat(params._flat * 2)):
        flat = p._flat
        assert flat.ndim == 1 and not flat.flags.writeable
        views = [a for lp in p.layers for a in (lp.weight, lp.bias)]
        views += [stack for stack, _, _ in p._stacks]
        assert all(np.shares_memory(v, flat) for v in views)
        # Layer-major order W_1, b_1, ..., W_L, b_L: the order of GradientBundle.flat().
        bundle = GradientBundle([lp.weight for lp in p.layers], [lp.bias for lp in p.layers])
        assert_same_bits(flat, bundle.flat())
        _assert_stacks_match_layers(p)
        x = arr.astype(p.dtype)
        assert_same_bits(apply_w_array(p, x), oracles.per_block_w(p, x))
        assert_same_bits(apply_wt_array(p, x), oracles.per_block_wt(p, x))


def test_caller_arrays_are_copied_into_the_buffer():
    # The arrays handed in stay the caller's: writing into them does not
    # reach the network's buffer.
    weight = np.ones((3, 2))
    bias = np.zeros(3)
    params = NetworkParams(2, (LayerParams(LayerSpec(3, Activation.TANH), weight, bias),))
    weight[0, 0] = 2.0
    bias[0] = 2.0
    assert_same_bits(params.layers[0].weight, np.ones((3, 2)))
    assert_same_bits(params.layers[0].bias, np.zeros(3))
    assert not np.shares_memory(params._flat, weight)


def test_view_of_a_writable_buffer_is_copied():
    # Flagging a view would leave its writable base free to change the
    # weights under the stack, so a view is copied before it is flagged.
    rng = np.random.default_rng(5)
    buf = rng.standard_normal((2, 3, 3))
    biases = np.zeros((2, 3))
    layers = (
        LayerParams(LayerSpec(3, Activation.TANH), rng.standard_normal((3, 2)), biases[0]),
        LayerParams(LayerSpec(3, Activation.TANH), buf[1], biases[1]),
    )
    params = NetworkParams(2, layers)
    weight = buf[1].copy()
    buf[1, 0, 0] += 1.0
    biases[1, 0] = 1.0
    assert buf.flags.writeable and biases.flags.writeable
    assert_same_bits(params.layers[1].weight, weight)
    assert params.layers[1].bias[0] == 0.0
    assert not params.layers[1].weight.flags.writeable
    _assert_stacks_match_layers(params)
    arr = rng.standard_normal(params.state_size)
    assert_same_bits(apply_w_array(params, arr), oracles.per_block_w(params, arr))


@pytest.mark.parametrize("part", ["weight", "bias"])
def test_layers_of_different_dtypes_are_rejected(part):
    # A float64 layer after float32 ones would upcast every later
    # activation, and the network would report only layer 1's dtype.
    rng = np.random.default_rng(3)
    params = random_network(3, (4, 4, 4, 4), Activation.TANH, rng, dtype=np.float32)
    layers = list(params.layers)
    arrays = {"weight": layers[2].weight, "bias": layers[2].bias}
    arrays[part] = arrays[part].astype(np.float64)
    layers[2] = LayerParams(layers[2].spec, **arrays)
    with pytest.raises(ShapeError, match="layer 3 holds"):
        NetworkParams(params.input_dim, tuple(layers))
