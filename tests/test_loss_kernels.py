"""The cross-entropy kernels in numpy equal scipy's, byte for byte.

``LossSpec.gradient`` and ``.value`` replicate ``scipy.special.softmax``
and ``logsumexp`` (scipy stays the oracle here). These properties pin
the value, dtype, shape and Python-float-vs-array type over 1-6 rows,
(n,) and (n, B) outputs, both precisions, tied maxima, magnitudes from
1e-3 to 1e3 and saturated logits, where softmax rounds to exact 0 and 1;
TwoL must stay bitwise equal to backprop on a net driven into that
saturation, and non-finite results must still raise. The in-place
kernel that the relaxation steps call, ``losses._gradient_into``, has
the bits of ``LossSpec.gradient`` for both loss kinds, and a relaxation
whose output turns non-finite still raises NumericError without the
gradient's own check.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

import dyadicbp.losses
from dyadicbp import (
    Activation,
    LayerParams,
    LayerSpec,
    LossKind,
    LossSpec,
    NetworkParams,
    NumericError,
    RelaxConfig,
    RelaxMode,
    classical_backprop,
    forward_pass,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
)
from dyadicbp.losses import _gradient_into
from dyadicbp.reference import backprop_batch

CE = LossKind.SOFTMAX_CROSS_ENTROPY
# Logit magnitude at which the smaller softmax entries underflow to 0.
SATURATED = {np.float64: 1e3, np.float32: 80.0}


def assert_same(got, want):
    """Same type; for arrays also same dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def scipy_value(output, target):
    val = logsumexp(output, axis=0) - np.sum(target * output, axis=0)
    return float(val) if output.ndim == 1 else val


def scipy_gradient(output, target):
    return softmax(output, axis=0) - target


@st.composite
def ce_cases(draw):
    """Logits and a probability target: ties, scales and saturation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 6))
    batch = draw(st.sampled_from((None, 1, 2, 5)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    shape = (rows,) if batch is None else (rows, batch)
    scale = draw(st.sampled_from((1e-3, 1e-1, 1.0, 10.0, 1e3)))
    out = (scale * rng.standard_normal(shape)).astype(dtype)
    if draw(st.booleans()):
        sign = np.where(rng.random(shape) < 0.5, 1.0, -1.0)
        out = (SATURATED[dtype] * sign + rng.standard_normal(shape)).astype(dtype)
    if draw(st.booleans()):
        # Tie about half the entries of each column with its maximum.
        out = np.where(rng.random(shape) < 0.5, out.max(axis=0), out).astype(dtype)
    if draw(st.booleans()):
        target = np.zeros(shape)
        hot = rng.integers(rows, size=shape[1:])
        if batch is None:
            target[hot] = 1.0
        else:
            target[hot, np.arange(batch)] = 1.0
    else:
        target = rng.random(shape) + 0.1
        target /= target.sum(axis=0)
    return out, target.astype(dtype)


@given(ce_cases())
def test_cross_entropy_kernels_equal_scipy(case):
    out, target = case
    loss = LossSpec(CE, target)
    assert_same(loss.gradient(out), scipy_gradient(out, target))
    assert_same(loss.value(out), scipy_value(out, target))


def assert_kernel_matches_gradient(loss, out):
    """``_gradient_into`` into a fresh buffer and into ``out`` itself has
    the bits of ``loss.gradient(out)``."""
    want = loss.gradient(out)
    assert_same(_gradient_into(loss, out, np.empty_like(out)), want)
    own = out.copy()
    _gradient_into(loss, own, own)
    assert_same(own, want)


@given(ce_cases())
def test_in_place_cross_entropy_kernel_has_the_gradient_bits(case):
    out, target = case
    assert_kernel_matches_gradient(LossSpec(CE, target), out)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.sampled_from((None, 1, 5)),
    st.sampled_from((np.float32, np.float64)),
)
def test_in_place_mse_kernel_has_the_gradient_bits(seed, rows, batch, dtype):
    rng = np.random.default_rng(seed)
    shape = (rows,) if batch is None else (rows, batch)
    out, target = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    assert_kernel_matches_gradient(LossSpec(LossKind.MSE, target), out)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_saturated_softmax_rounds_to_exact_zero_and_one(dtype):
    sat = SATURATED[dtype]
    out = np.array([[sat, -sat, 0.5], [-sat, sat, -0.5], [-sat, -sat, sat]], dtype=dtype)
    target = np.eye(3, dtype=dtype)[:, [1, 1, 2]]
    loss = LossSpec(CE, target)
    grad = loss.gradient(out)
    soft = grad + target
    assert (soft[:, :2] == np.array([[1, 0], [0, 1], [0, 0]], dtype=dtype)).all()
    assert_same(grad, scipy_gradient(out, target))
    assert_same(loss.value(out), scipy_value(out, target))
    assert loss.value(out)[0] == dtype(2 * sat)
    assert_kernel_matches_gradient(loss, out)
    for j in range(out.shape[1]):
        assert_kernel_matches_gradient(LossSpec(CE, target[:, j]), np.ascontiguousarray(out[:, j]))


def _saturated_net(rng, dtype):
    """A Tanh net with an Identity output layer scaled so the largest
    logit of a unit-normal input batch is at the saturation magnitude."""
    params = random_network(
        3, (6, 6, 4), [Activation.TANH, Activation.TANH, Activation.IDENTITY], rng, dtype=dtype
    )
    x = rng.standard_normal((3, 4)).astype(dtype)
    _, acts = forward_pass(params, x[:, 0])
    scale = SATURATED[dtype] / np.abs(acts[params.output_slice]).max()
    last = params.layers[-1]
    layers = params.layers[:-1] + (
        LayerParams(last.spec, (last.weight * scale).astype(dtype), last.bias),
    )
    return NetworkParams(params.input_dim, layers), x


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_twoL_equals_backprop_in_saturation(dtype):
    rng = np.random.default_rng(80)
    params, x = _saturated_net(rng, dtype)
    target = np.zeros((4, x.shape[1]), dtype=dtype)
    target[rng.integers(4, size=x.shape[1]), np.arange(x.shape[1])] = 1.0
    loss = LossSpec(CE, target)
    _, acts = forward_pass(params, x[:, 0])
    soft = softmax(acts[params.output_slice])
    assert (soft == 0).any()
    ws, bs, _, _ = relax_batch(params, x, loss, RelaxConfig(mode=RelaxMode.TWO_L))
    ref_w, ref_b = backprop_batch(params, x, loss)
    for got, want in zip(ws + bs, ref_w + ref_b):
        assert_same(got, want)
    for j in range(x.shape[1]):
        col = LossSpec(CE, target[:, j])
        _, _, bundle = relax_twoL(params, x[:, j], col)
        ref, _ = classical_backprop(params, x[:, j], col)
        for got, want in zip(
            bundle.weight_grads + bundle.bias_grads, ref.weight_grads + ref.bias_grads
        ):
            assert_same(got, want)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("batch", (None, 3))
@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_non_finite_cross_entropy_raises_numeric_error(dtype, batch, bad):
    shape = (3,) if batch is None else (3, batch)
    target = np.zeros(shape, dtype=dtype)
    target[0] = 1.0
    loss = LossSpec(CE, target)
    out = np.zeros(shape, dtype=dtype)
    out[1] = bad
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            loss.value(out)
        if bad != -np.inf:  # a -inf logit only has probability 0
            with pytest.raises(NumericError):
                loss.gradient(out)
        out[:] = -np.inf
        with pytest.raises(NumericError):
            loss.value(out)
        with pytest.raises(NumericError):
            loss.gradient(out)


def test_losses_module_does_not_import_scipy():
    tree = ast.parse(Path(dyadicbp.losses.__file__).read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def _overflowing_net(dtype):
    """Two Identity layers whose output block overflows to inf while the
    state settles: block 1 settles to 20s, then W_2 (1e37s) lifts the
    output to 6e38, past float32's largest value."""
    identity = Activation.IDENTITY
    layers = (
        LayerParams(LayerSpec(3, identity), np.full((3, 2), 10.0, dtype), np.zeros(3, dtype)),
        LayerParams(LayerSpec(2, identity), np.full((2, 3), 1e37, dtype), np.zeros(2, dtype)),
    )
    return NetworkParams(2, layers), np.ones(2, dtype)


@pytest.mark.parametrize("kind", tuple(LossKind))
@pytest.mark.parametrize("relax", (relax_dyadic, relax_mean_stress, relax_split))
def test_a_relaxation_whose_output_turns_non_finite_raises_numeric_error(relax, kind):
    params, x0 = _overflowing_net(np.float32)
    loss = LossSpec(kind, np.array([1.0, 0.0], np.float32))
    mode = RelaxMode.SPLIT if relax is relax_split else RelaxMode.DYADIC
    cfg = RelaxConfig(eta=1.0, k_max=50, mode=mode)
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        relax(params, x0, loss, cfg)
    batch = np.ones((2, 3), np.float32)
    loss = LossSpec(kind, np.repeat(loss.target[:, None], 3, axis=1))
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        relax_batch(params, batch, loss, cfg)
