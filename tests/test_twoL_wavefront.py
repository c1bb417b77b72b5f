"""TwoL conformance: the block wavefront equals backprop bit for bit.

TwoL computes only the settling block of each step. These properties
pin it to the references over every activation (ReLU with exact-zero
pre-activations included), both losses, both precisions, depths 1-7
and batches 1-8. The full-state two-phase sweep, the unit-step
Dyadic run of ``helpers.two_phase_states``, ends at the same state
and meets the paper's settle steps: mean block l is final from step l,
stress block l from step 2L - l + 1. At the depth-17 training
benchmark's shapes the batch wavefront also equals backprop bitwise,
and peaks at no more traced memory than ``backprop_batch``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ALL_ACTS, gradient_from_equilibrium, two_phase_states
from dyadicbp import (
    Activation,
    LossKind,
    LossSpec,
    RelaxConfig,
    RelaxMode,
    ShapeError,
    classical_backprop,
    forward_pass,
    random_network,
    relax_batch,
    relax_twoL,
)
from dyadicbp.network import _block_slices
from dyadicbp.reference import backprop_batch


@st.composite
def twoL_batches(draw):
    """A random (params, column batch, batch loss) over the full matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 7))
    batch = draw(st.integers(1, 8))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    kind = draw(st.sampled_from(tuple(LossKind)))
    # Zero biases and a zero input column put every pre-activation of
    # that column exactly at 0, the ReLU kink.
    kink = draw(st.booleans())
    input_dim = int(rng.integers(1, 9))
    widths = [int(rng.integers(1, 9)) for _ in range(depth)]
    acts = [ALL_ACTS[int(rng.integers(len(ALL_ACTS)))] for _ in range(depth)]
    params = random_network(
        input_dim, widths, acts, rng, bias_std=0.0 if kink else 0.5, dtype=dtype
    )
    x = rng.standard_normal((input_dim, batch)).astype(dtype)
    if kink:
        x[:, int(rng.integers(batch))] = 0.0
    out_dim = widths[-1]
    if kind is LossKind.MSE:
        target = rng.standard_normal((out_dim, batch))
    else:
        target = np.zeros((out_dim, batch))
        target[rng.integers(out_dim, size=batch), np.arange(batch)] = 1.0
    return params, x, LossSpec(kind, target.astype(dtype))


def _column_loss(loss, j):
    return LossSpec(loss.kind, loss.target[:, j])


def _assert_bundle_equal(bundle, ref):
    got_all = bundle.weight_grads + bundle.bias_grads
    for got, want in zip(got_all, ref.weight_grads + ref.bias_grads):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(twoL_batches())
def test_relax_batch_twoL_equals_backprop_batch(case):
    params, x, loss = case
    ws, bs, iters, conv = relax_batch(params, x, loss, RelaxConfig(mode=RelaxMode.TWO_L))
    ref_w, ref_b = backprop_batch(params, x, loss)
    assert np.all(iters == 2 * params.depth) and conv.all()
    for got, want in zip(ws + bs, ref_w + ref_b):
        assert got.dtype == params.dtype
        np.testing.assert_array_equal(got, want)


@given(twoL_batches())
def test_relax_twoL_traced_and_untraced_equal_classical_backprop(case):
    params, x, loss = case
    for j in range(x.shape[1]):
        x0, col_loss = x[:, j], _column_loss(loss, j)
        ref, sens = classical_backprop(params, x0, col_loss)
        _, acts = forward_pass(params, x0)
        m, s, bundle = relax_twoL(params, x0, col_loss)
        np.testing.assert_array_equal(m, acts)
        np.testing.assert_array_equal(s, sens)
        _assert_bundle_equal(bundle, ref)
        states = two_phase_states(params, x0, col_loss)
        assert len(states) == 2 * params.depth
        m, s = states[-1]
        np.testing.assert_array_equal(m, acts)
        np.testing.assert_array_equal(s, sens)
        _assert_bundle_equal(gradient_from_equilibrium(params, x0, m, s), ref)


@given(twoL_batches())
def test_relax_batch_of_one_equals_relax_twoL(case):
    params, x, loss = case
    j = x.shape[1] - 1
    one_loss = LossSpec(loss.kind, loss.target[:, j : j + 1])
    cfg = RelaxConfig(mode=RelaxMode.TWO_L)
    ws, bs, _, _ = relax_batch(params, x[:, j : j + 1], one_loss, cfg)
    _, _, bundle = relax_twoL(params, x[:, j], _column_loss(loss, j))
    for got, want in zip(ws + bs, bundle.weight_grads + bundle.bias_grads):
        np.testing.assert_array_equal(got, want)


@given(twoL_batches())
def test_traced_blocks_freeze_at_their_settle_steps(case):
    # Mean block l of the two-phase sweep is bitwise constant from step
    # l on, stress block l from step 2L - l + 1 on, and the frozen values
    # are exactly what the wavefront returns.
    params, x, loss = case
    x0, col_loss = x[:, 0], _column_loss(loss, 0)
    states = two_phase_states(params, x0, col_loss)
    m_final, s_final, _ = relax_twoL(params, x0, col_loss)
    depth = params.depth
    assert len(states) == 2 * depth
    for layer in range(1, depth + 1):
        sl = _block_slices(params)[layer - 1]
        for k in range(layer, 2 * depth + 1):
            np.testing.assert_array_equal(states[k - 1][0][sl], m_final[sl])
        for k in range(2 * depth - layer + 1, 2 * depth + 1):
            np.testing.assert_array_equal(states[k - 1][1][sl], s_final[sl])


def test_wavefront_settle_steps_are_the_first_final_ones():
    # The settle steps are tight: on a generic Tanh chain the block
    # still differs from its final value one step earlier.
    rng = np.random.default_rng(5)
    depth = 5
    params = random_network(4, (6,) * depth, Activation.TANH, rng, bias_std=0.5)
    x0 = rng.standard_normal(4)
    loss = LossSpec(LossKind.MSE, rng.standard_normal(6))
    states = two_phase_states(params, x0, loss)
    m_final, s_final, _ = relax_twoL(params, x0, loss)
    for layer in range(2, depth + 1):
        sl = _block_slices(params)[layer - 1]
        assert not np.array_equal(states[layer - 2][0][sl], m_final[sl])
        assert not np.array_equal(states[2 * depth - layer - 1][1][sl], s_final[sl])


def test_float64_input_with_float32_params_is_rejected():
    rng = np.random.default_rng(6)
    params = random_network(3, (4, 2), Activation.TANH, rng, dtype=np.float32)
    x = rng.standard_normal((3, 5))
    loss = LossSpec(LossKind.MSE, np.zeros((2, 5), dtype=np.float32))
    with pytest.raises(ShapeError, match="dtype"):
        relax_twoL(params, x[:, 0], LossSpec(LossKind.MSE, loss.target[:, 0]))
    with pytest.raises(ShapeError, match="dtype"):
        relax_batch(params, x, loss, RelaxConfig(mode=RelaxMode.TWO_L))
    with pytest.raises(ShapeError, match="dtype"):
        classical_backprop(params, x[:, 0], LossSpec(LossKind.MSE, loss.target[:, 0]))
    cfg = RelaxConfig(mode=RelaxMode.TWO_L)
    ws, bs, _, _ = relax_batch(params, x.astype(np.float32), loss, cfg)
    assert all(g.dtype == np.float32 for g in ws + bs)


def test_integer_input_is_cast_to_parameter_dtype():
    rng = np.random.default_rng(7)
    params = random_network(3, (4, 2), Activation.TANH, rng, dtype=np.float32)
    loss = LossSpec(LossKind.MSE, np.zeros(2, dtype=np.float32))
    x_int = np.array([1, 0, -2])
    _, _, bundle = relax_twoL(params, x_int, loss)
    ref, _ = classical_backprop(params, x_int.astype(np.float32), loss)
    _assert_bundle_equal(bundle, ref)


def _benchmark_instance(dtype, batch):
    """The shapes of the depth-17 training benchmark: input 2, sixteen
    Tanh layers of width 32, an Identity output of width 2, one-hot
    cross-entropy targets."""
    rng = np.random.default_rng(17)
    acts = [Activation.TANH] * 16 + [Activation.IDENTITY]
    params = random_network(2, (32,) * 16 + (2,), acts, rng, dtype=dtype)
    x = rng.standard_normal((2, batch)).astype(dtype)
    target = np.zeros((2, batch), dtype=dtype)
    target[rng.integers(2, size=batch), np.arange(batch)] = 1.0
    return params, x, LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, target)


@pytest.mark.parametrize("batch", (64, 32), ids=("full", "short_last"))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_twoL_equals_backprop_at_the_benchmark_shapes(dtype, batch):
    # The hypothesis draws stay at depth <= 7, widths <= 8 and batches
    # <= 8; the training benchmark runs (32, 32) blocks on 64 and 32
    # columns, other gemm shapes.
    params, x, loss = _benchmark_instance(dtype, batch)
    ws, bs, iters, conv = relax_batch(params, x, loss, RelaxConfig(mode=RelaxMode.TWO_L))
    ref_w, ref_b = backprop_batch(params, x, loss)
    assert np.all(iters == 34) and conv.all()
    for got, want in zip(ws + bs, ref_w + ref_b):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for j in (0, batch - 1):
        ref, sens = classical_backprop(params, x[:, j], _column_loss(loss, j))
        _, s, bundle = relax_twoL(params, x[:, j], _column_loss(loss, j))
        assert s.tobytes() == sens.tobytes()
        _assert_bundle_equal(bundle, ref)


def _peak_traced_bytes(call):
    """The peak traced memory of one ``call()`` after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_twoL_batch_peaks_no_higher_than_backprop_batch():
    # numpy traces its data buffers. A (state_size, 64) float64 array of
    # this net is 263 KB. The wavefront keeps per-layer blocks, as
    # backprop does (m_l and sigma'_l, dropped as the backward pass
    # consumes them), and builds no such array.
    params, x, loss = _benchmark_instance(np.float64, 64)
    cfg = RelaxConfig(mode=RelaxMode.TWO_L)
    twoL = _peak_traced_bytes(lambda: relax_batch(params, x, loss, cfg))
    bp = _peak_traced_bytes(lambda: backprop_batch(params, x, loss))
    assert twoL <= bp
