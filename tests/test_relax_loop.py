"""The one relaxation loop: a column batch relaxes exactly as its
samples do one at a time, for every convergence-driven scheme, and the
shared input checks hold for every engine and both references."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ALL_ACTS, make_chain
from dyadicbp import (
    Activation,
    ConfigError,
    LossKind,
    LossSpec,
    NumericError,
    RelaxConfig,
    RelaxMode,
    ShapeError,
    classical_backprop,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
)
from dyadicbp import dynamics
from dyadicbp.network import beta_array
from dyadicbp.reference import backprop_batch

SINGLE = {RelaxMode.DYADIC: relax_dyadic, RelaxMode.SPLIT: relax_split}

# Each public single-sample entry point, and the mode of the config it takes.
ENTRY_POINTS = {
    "relax_dyadic": (relax_dyadic, RelaxMode.DYADIC),
    "relax_mean_stress": (relax_mean_stress, RelaxMode.DYADIC),
    "relax_split": (relax_split, RelaxMode.SPLIT),
}


@st.composite
def relax_cases(draw):
    """A random scheme, float64 network, column batch and batch loss."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(tuple(SINGLE)))
    depth = draw(st.integers(1, 5))
    batch = draw(st.integers(1, 6))
    acts = draw(st.lists(st.sampled_from(ALL_ACTS), min_size=depth, max_size=depth))
    kind = draw(st.sampled_from(tuple(LossKind)))
    eta = draw(st.sampled_from((0.5, 0.8, 1.0)))
    input_dim = int(rng.integers(1, 7))
    widths = [int(rng.integers(1, 7)) for _ in range(depth)]
    params = random_network(input_dim, widths, acts, rng, bias_std=0.5)
    x = rng.standard_normal((input_dim, batch))
    if kind is LossKind.MSE:
        target = rng.standard_normal((widths[-1], batch))
    else:
        target = np.zeros((widths[-1], batch))
        target[rng.integers(widths[-1], size=batch), np.arange(batch)] = 1.0
    cfg = RelaxConfig(eta=eta, k_max=300, tol=1e-9, mode=mode)
    return params, x, LossSpec(kind, target), cfg


@given(relax_cases())
def test_batch_columns_relax_like_single_samples(case):
    params, x, loss, cfg = case
    ws, bs, iters, conv = relax_batch(params, x, loss, cfg)
    batch = x.shape[1]
    acc_w = [np.zeros_like(w) for w in ws]
    acc_b = [np.zeros_like(b) for b in bs]
    for j in range(batch):
        col_loss = LossSpec(loss.kind, loss.target[:, j])
        _, _, bundle, trace = SINGLE[cfg.mode](params, x[:, j], col_loss, cfg)
        assert iters[j] == trace.iterations_used
        assert conv[j] == trace.converged
        for i in range(params.depth):
            acc_w[i] += bundle.weight_grads[i]
            acc_b[i] += bundle.bias_grads[i]
    for got, acc in zip(ws + bs, acc_w + acc_b):
        np.testing.assert_allclose(got, acc / batch, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("mode", tuple(SINGLE))
def test_batch_blowup_raises_numeric_error(mode):
    rng = np.random.default_rng(88)
    params = make_chain(rng, depth=2, acts=(Activation.IDENTITY,))
    xb = rng.standard_normal((params.input_dim, 3))
    loss = LossSpec(LossKind.MSE, rng.standard_normal((params.widths[-1], 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cfg = RelaxConfig(eta=4.0, k_max=1000, tol=1e-12, mode=mode)
        with pytest.raises(NumericError):
            relax_batch(params, xb, loss, cfg)


def _float32_instance(target):
    rng = np.random.default_rng(8)
    params = random_network(3, (4, 2), Activation.TANH, rng, dtype=np.float32)
    x = rng.standard_normal((3, target.shape[1])).astype(np.float32)
    return params, x


def test_float64_target_with_float32_params_is_rejected():
    target = np.zeros((2, 4))
    params, x = _float32_instance(target)
    batch_loss = LossSpec(LossKind.MSE, target)
    loss = LossSpec(LossKind.MSE, target[:, 0])
    calls = [
        lambda: relax_twoL(params, x[:, 0], loss),
        lambda: classical_backprop(params, x[:, 0], loss),
        lambda: backprop_batch(params, x, batch_loss),
        lambda: relax_batch(params, x, batch_loss, RelaxConfig(mode=RelaxMode.TWO_L)),
    ]
    for mode, relax in SINGLE.items():
        cfg = RelaxConfig(mode=mode)
        calls.append(lambda relax=relax, cfg=cfg: relax(params, x[:, 0], loss, cfg))
        calls.append(lambda cfg=cfg: relax_batch(params, x, batch_loss, cfg))
    for call in calls:
        with pytest.raises(ShapeError, match="dtype"):
            call()


@pytest.mark.parametrize("mode", tuple(SINGLE))
def test_eta_that_casts_to_zero_is_rejected(mode):
    # 1e-46 is positive, but 0.0 in float32: every step would be a no-op
    # that stops at step 1 as converged with an all-zero gradient.
    target = np.zeros((2, 4), dtype=np.float32)
    params, x = _float32_instance(target)
    batch_loss = LossSpec(LossKind.MSE, target)
    cfg = RelaxConfig(eta=1e-46, mode=mode)
    with pytest.raises(ConfigError, match="eta"):
        SINGLE[mode](params, x[:, 0], LossSpec(LossKind.MSE, target[:, 0]), cfg)
    with pytest.raises(ConfigError, match="eta"):
        relax_batch(params, x, batch_loss, cfg)
    # float64 holds 1e-46: the same config relaxes there.
    wide_loss = LossSpec(LossKind.MSE, target.astype(np.float64))
    relax_batch(params.astype(np.float64), x.astype(np.float64), wide_loss, cfg)


def test_integer_target_is_cast_to_parameter_dtype():
    onehot = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
    params, x = _float32_instance(onehot)
    kind = LossKind.SOFTMAX_CROSS_ENTROPY
    _, _, bundle = relax_twoL(params, x[:, 0], LossSpec(kind, onehot[:, 0]))
    ref, _ = classical_backprop(params, x[:, 0], LossSpec(kind, onehot[:, 0].astype(np.float32)))
    for got, want in zip(bundle.weight_grads + bundle.bias_grads, ref.weight_grads + ref.bias_grads):
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)
    ws, bs = backprop_batch(params, x, LossSpec(kind, onehot))
    assert all(g.dtype == np.float32 for g in ws + bs)


def _poison(k, first, second):
    """An ``on_step`` callback that overwrites each array it receives."""
    first.fill(np.nan)
    second.fill(np.nan)


@pytest.mark.parametrize("eta", (0.5, 1.0))
@pytest.mark.parametrize("shape", ((), (4,)), ids=("sample", "batch"))
@pytest.mark.parametrize("mode", tuple(SINGLE))
def test_on_step_receives_copies_of_the_state(mode, shape, eta):
    # A callback that writes into what it receives must not reach the
    # loop: a view of the state (one half of the stacked pair) would.
    rng = np.random.default_rng(13)
    params = random_network(3, (5, 4, 3), Activation.TANH, rng, bias_std=0.5)
    x = rng.standard_normal((3, *shape))
    loss = LossSpec(LossKind.MSE, rng.standard_normal((3, *shape)))
    beta = beta_array(params, x)
    cfg = RelaxConfig(eta=eta, k_max=200, tol=1e-10, mode=mode)
    step = dynamics._STEPS[mode]
    runs = [dynamics._relax(params, beta, loss, cfg, step, on_step=cb) for cb in (None, _poison)]
    for m, s, *_ in runs:
        assert np.isfinite(m).all() and np.isfinite(s).all()
    (m, s, *flags), (m_cb, s_cb, *flags_cb) = runs
    assert int(np.max(flags[0])) < cfg.k_max  # it settled before the budget ran out
    grads = [
        dynamics._grads_from_delta(params, x, a, dynamics._delta_at(params, beta, a, b))
        for a, b, *_ in runs
    ]
    want = [m, s, *flags, *grads[0][0], *grads[0][1]]
    got = [m_cb, s_cb, *flags_cb, *grads[1][0], *grads[1][1]]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()


@pytest.mark.parametrize("eta", (0.5, 1.0))
@pytest.mark.parametrize("entry", tuple(ENTRY_POINTS))
def test_public_on_step_cannot_reach_the_relaxation(entry, eta):
    # The same through each public entry point: a callback that writes
    # into the pair it receives changes no bit of what the call returns.
    rng = np.random.default_rng(14)
    params = random_network(3, (5, 4, 3), Activation.TANH, rng, bias_std=0.5)
    x0 = rng.standard_normal(3)
    loss = LossSpec(LossKind.MSE, rng.standard_normal(3))
    relax, mode = ENTRY_POINTS[entry]
    cfg = RelaxConfig(eta=eta, k_max=200, tol=1e-10, mode=mode)
    seen = []
    runs = []
    for cb in (None, lambda k, a, b: (seen.append(k), _poison(k, a, b))):
        m, s, bundle, trace = relax(params, x0, loss, cfg, on_step=cb)
        runs.append(([m, s, *bundle.weight_grads, *bundle.bias_grads], trace))
    (want, trace), (got, trace_cb) = runs
    assert trace.converged and seen == list(range(1, trace.iterations_used + 1))
    assert (trace_cb.iterations_used, trace_cb.status) == (trace.iterations_used, trace.status)
    for g, w in zip(got, want):
        assert np.isfinite(g).all()
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
