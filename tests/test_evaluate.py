"""The epoch evaluation of ``train``: its output-only forward through two
reused buffers gives the floats of ``forward_layers``, keeps no layer
list, and the cross-entropy target check of ``LossSpec`` decides as
``np.allclose`` does."""

import struct
import tracemalloc

import numpy as np
import pytest

from dyadicbp import Activation, DatasetSpec, LossKind, LossSpec, generate_dataset, random_network
from dyadicbp import training
from dyadicbp.network import forward_layers, forward_output

ACTS = (Activation.TANH, Activation.SIGMOID, Activation.RELU, Activation.IDENTITY)
WIDTHS = (5, 16, 3, 7, 2)  # unequal, the widest inside


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != +0.0."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _instance(shift, dtype, kind, columns, seed=0):
    """A 5-layer net whose activations rotate by ``shift`` through ACTS,
    and the evaluation set of ``columns`` random samples with 2 classes."""
    rng = np.random.default_rng(seed)
    acts = [ACTS[(i + shift) % len(ACTS)] for i in range(len(WIDTHS))]
    params = random_network(4, WIDTHS, acts, rng, bias_std=0.5, dtype=dtype)
    features = rng.standard_normal((columns, 4))
    onehot = np.eye(2)[rng.integers(2, size=columns)]
    return params, training._eval_set(features, onehot, kind, params)


@pytest.mark.parametrize("columns", [1, 63, 800])
@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shift", range(len(ACTS)))
def test_evaluate_equals_the_layer_list_forward(shift, dtype, kind, columns):
    params, eval_set = _instance(shift, dtype, kind, columns)
    x_cols, loss, labels, bufs = eval_set
    out = forward_layers(params, x_cols)[1][-1]
    want_loss = float(np.asarray(loss.value(out), dtype=np.float64).mean())
    want_acc = float(np.mean(np.argmax(out, axis=0) == labels))

    assert_same_bits(forward_output(params, x_cols, bufs), out)
    got_loss, got_acc = training._evaluate(params, *eval_set)
    assert struct.pack("<d", got_loss) == struct.pack("<d", want_loss)
    assert struct.pack("<d", got_acc) == struct.pack("<d", want_acc)


def test_reused_buffers_keep_no_state_between_evaluations():
    params, eval_set = _instance(1, np.float64, LossKind.MSE, 63)
    first = training._evaluate(params, *eval_set)
    other = params._with_flat(params._flat * 0.5)  # type: ignore[attr-defined]
    training._evaluate(other, *eval_set)
    assert training._evaluate(params, *eval_set) == first


def test_evaluate_peak_stays_below_three_layer_buffers():
    # The depth-17 net of the train-twoL-L17 config on its 800 training
    # columns; a forward that keeps its layer lists peaks at about 6.3 MB.
    rng = np.random.default_rng(17)
    acts = [Activation.TANH] * 16 + [Activation.IDENTITY]
    params = random_network(2, (32,) * 16 + (2,), acts, rng)
    features, onehot = generate_dataset(DatasetSpec(n_samples=1000), 0)
    kind = LossKind.SOFTMAX_CROSS_ENTROPY
    eval_set = training._eval_set(features[:800], onehot[:800], kind, params)
    training._evaluate(params, *eval_set)
    tracemalloc.start()
    try:
        training._evaluate(params, *eval_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 32 * 800 * 8


def _ulp_steps(dtype):
    """Floats of ``dtype`` stepped by ulps across 1 +/- 1.1e-5: all of them
    in float32, 300 ulps either side of each edge and of 1 in float64."""
    ints = np.int32 if dtype == np.float32 else np.int64
    if dtype == np.float32:
        lo, hi = (np.array(v, dtype).view(ints) for v in (1 - 1.2e-5, 1 + 1.2e-5))
        return np.arange(lo, hi + 1, dtype=ints).view(dtype)
    centers = np.array([1 - 1.1e-5, 1.0, 1 + 1.1e-5], dtype).view(ints)
    return (centers[:, None] + np.arange(-300, 301)).ravel().view(dtype)


def _accepts(target):
    try:
        LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, target)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_target_check_decides_as_allclose(dtype, batched):
    decisions = []
    for s in _ulp_steps(dtype):
        target = np.array([s, 0], dtype)  # sums to s exactly
        if batched:
            target = target[:, None]
        want = bool(np.allclose(target.sum(axis=0), 1.0, atol=1e-6))
        assert _accepts(target) == want, repr(s)
        decisions.append(want)
    assert 0 < sum(decisions) < len(decisions)  # the steps cross both edges


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_target_summing_to_inf_is_rejected(dtype):
    big = np.finfo(dtype).max
    target = np.array([[big, 1.0], [big, 0.0]], dtype)
    with np.errstate(over="ignore"):
        assert not np.allclose(target.sum(axis=0), 1.0, atol=1e-6)
        assert not _accepts(target)
        assert not _accepts(target[:, 0])


def test_cross_entropy_target_check_needs_every_column():
    steps = _ulp_steps(np.float64)
    near = [s for s in steps if np.allclose(s, 1.0, atol=1e-6)]
    far = [s for s in steps if not np.allclose(s, 1.0, atol=1e-6)]
    columns = np.array([near[:3], [0.0] * 3])
    assert _accepts(columns)
    columns[0, 1] = far[0]
    assert not _accepts(columns)
