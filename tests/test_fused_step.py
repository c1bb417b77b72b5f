"""The fused Euler step: one sigma/sigma' kernel per activation run and a
per-call workspace give the same bits as the unfused per-block step
(``oracles.unfused_step``), for every scheme, activation mix, precision
and step size, single sample and column batch. Dyadic steps (m, s); a
single sample's are observed exactly through ``relax_mean_stress``."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from helpers import ALL_ACTS
from dyadicbp import (
    Activation,
    ExperimentConfig,
    LayerParams,
    LossKind,
    LossSpec,
    NetworkParams,
    RelaxConfig,
    RelaxMode,
    ShapeError,
    energy,
    random_network,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
)
from dyadicbp import dynamics
from dyadicbp.network import _sigma_pair, _sigma_pair_array, beta_array
from dyadicbp.training import _random_instance

MIXED_RUNS = (
    Activation.TANH,
    Activation.TANH,
    Activation.SIGMOID,
    Activation.RELU,
    Activation.RELU,
    Activation.IDENTITY,
)
SINGLE = {"Dyadic": relax_mean_stress, "Split": relax_split}


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != +0.0."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _with_biases(params, value):
    layers = tuple(
        LayerParams(lp.spec, lp.weight, np.full_like(lp.bias, value)) for lp in params.layers
    )
    return NetworkParams(params.input_dim, layers)


@st.composite
def step_cases(draw):
    """A network (random or mixed activation runs), an input batch whose
    edge variants hit exact-zero pre-activations, a loss and a step size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    if draw(st.booleans()):
        acts = list(MIXED_RUNS)
    else:
        depth = draw(st.integers(1, 6))
        acts = draw(st.lists(st.sampled_from(ALL_ACTS), min_size=depth, max_size=depth))
    input_dim = int(rng.integers(1, 6))
    widths = [int(rng.integers(1, 7)) for _ in acts]
    params = random_network(input_dim, widths, acts, rng, bias_std=0.5, dtype=dtype)
    batch = draw(st.integers(1, 5))
    x = rng.standard_normal((input_dim, batch)).astype(dtype)
    edge = draw(st.sampled_from(("none", "zero", "negative-zero")))
    if edge != "none":
        # A zero input with zero biases puts every ReLU exactly at its
        # kink; a -0.0 bias probes the sign of zero through each sum.
        params = _with_biases(params, 0.0 if edge == "zero" else -0.0)
        x[:] = 0.0
    kind = draw(st.sampled_from(tuple(LossKind)))
    if kind is LossKind.MSE:
        target = rng.standard_normal((widths[-1], batch)).astype(dtype)
    else:
        target = np.zeros((widths[-1], batch), dtype=dtype)
        target[rng.integers(widths[-1], size=batch), np.arange(batch)] = 1.0
    # Every sweep eta, and one that rounds to 1 in float32 only, where the
    # mean/stress step still blends (the unfused step tests eta == 1 uncast).
    eta = draw(st.sampled_from((0.25, 0.5, 0.75, 1.0, 1 - 2**-25)))
    return params, x, LossSpec(kind, target), eta


def _sweep_case(eta):
    """The first instance of ``sweep_eta`` with the default config in float32:
    the reference depth-9 net (eight Tanh layers of 32 units and an
    Identity output of 2) with a cross-entropy loss, as a batch of one."""
    config = ExperimentConfig(seed=0, precision=32)
    params, x0, loss = _random_instance(config, np.random.default_rng(config.seed))
    return params, x0[:, None], LossSpec(loss.kind, loss.target[:, None]), eta


@given(step_cases(), st.sampled_from(tuple(SINGLE)))
@example(_sweep_case(0.25), "Dyadic")
@example(_sweep_case(1.0), "Dyadic")  # the bound unit step
@example(_sweep_case(1 - 2**-25), "Dyadic")  # 1 in float32, but blended
@example(_sweep_case(0.5), "Split")
def test_single_sample_states_match_unfused_step(case, mode):
    params, x, loss, eta = case
    x0 = x[:, 0]
    loss0 = LossSpec(loss.kind, loss.target[:, 0])
    cfg = RelaxConfig(eta=eta, k_max=40, tol=1e-12, mode=RelaxMode.from_name(mode))
    states = []
    SINGLE[mode](params, x0, loss0, cfg, on_step=lambda k, a, b: states.append((a, b)))
    beta = beta_array(params, x0)
    a = np.zeros_like(beta)
    b = np.zeros_like(beta)
    for got in states:
        a, b = oracles.unfused_step(mode, params, beta, loss0, a, b, eta)
        for g, w in zip(got, (a, b)):
            assert_same_bits(g, w)


def _signed_zeros(rng, arr):
    """``arr`` with about a third of its entries set to +0.0 or -0.0, so
    the step meets zeros of both signs in states and drive: a -0.0 drive
    cannot come out of ``beta_array``, whose BLAS sums start at +0.0."""
    arr = arr.copy()
    hit = rng.random(arr.shape) < 1 / 3
    arr[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return arr


@given(step_cases(), st.sampled_from(tuple(SINGLE)), st.integers(0, 2**32 - 1))
def test_batch_step_on_random_states_matches_unfused_step(case, mode, seed):
    params, x, loss, eta = case
    rng = np.random.default_rng(seed)
    beta = _signed_zeros(rng, beta_array(params, x))
    a, b = (
        _signed_zeros(rng, rng.standard_normal(beta.shape).astype(beta.dtype)) for _ in range(2)
    )
    ws = dynamics._Workspace(beta.shape, beta.dtype)
    step, _ = dynamics._STEPS[RelaxMode.from_name(mode)](params, beta, loss, eta, ws)
    ws.state[...] = a, b
    got = step()
    want = oracles.unfused_step(mode, params, beta, loss, a, b, eta)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@given(step_cases(), st.sampled_from(tuple(SINGLE)))
def test_batch_relaxation_states_match_unfused_loop(case, mode):
    params, x, loss, eta = case
    beta = beta_array(params, x)
    relax_mode = RelaxMode.from_name(mode)
    cfg = RelaxConfig(eta=eta, k_max=60, tol=1e-5, mode=relax_mode)
    states = []
    dynamics._relax(
        params, beta, loss, cfg, dynamics._STEPS[relax_mode],
        on_step=lambda k, a, b: states.append((a, b)),
    )
    want, _ = oracles.unfused_relax(mode, params, beta, loss, eta, cfg.k_max, cfg.tol)
    assert len(states) == len(want)
    for (got_a, got_b), (want_a, want_b) in zip(states, want):
        assert_same_bits(got_a, want_a)
        assert_same_bits(got_b, want_b)


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_layer_grads_single_sample_equals_outer(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    delta = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, 1.5, -3.0], dtype=dtype)
    prev = np.array([-0.0, 0.0, tiny, 2.0, -np.inf, np.inf, -tiny], dtype=dtype)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan in both
        (weight_grad,), (bias_grad,) = dynamics._layer_grads([(prev, delta)])
        want = np.outer(delta, prev)
    assert_same_bits(weight_grad, want)
    assert_same_bits(bias_grad, delta)


def _kernel_inputs(dtype):
    rng = np.random.default_rng(3)
    big = (rng.standard_normal((40, 7)) * 12).astype(dtype)
    # Saturating magnitudes past 20, both zeros, and infinities.
    big[0] = [0.0, -0.0, 20.5, -20.5, 35.0, -np.inf, np.inf]
    big[1] = [-0.0, 0.0, 1e-30, -1e-30, 700.0, -700.0, 0.5]
    return big


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("activation", tuple(Activation))
def test_sigma_pair_equals_apply_and_derivative(activation, dtype):
    big = _kernel_inputs(dtype)
    views = (big, big[2:30], big[:, 3], big[1], big[::3, 1::2])
    for v in views:
        sig = np.full_like(v, np.nan)
        dsig = np.full_like(v, np.nan)
        _sigma_pair(activation, v, sig, dsig)
        assert_same_bits(sig, activation.apply(v))
        assert_same_bits(dsig, activation.derivative(v))


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_sigma_pair_array_walks_activation_runs(dtype):
    rng = np.random.default_rng(4)
    acts = MIXED_RUNS + (Activation.TANH,)
    params = random_network(3, [5, 4, 3, 6, 2, 3, 4], acts, rng, dtype=dtype)
    pre = _kernel_inputs(dtype)[: params.state_size, :5]
    for v in (pre, pre[:, 2]):
        sig = np.empty_like(v)
        dsig = np.empty_like(v)
        _sigma_pair_array(params, v, sig, dsig)
        assert_same_bits(sig, oracles.unfused_sigma(params, v))
        assert_same_bits(dsig, oracles.unfused_sigma_prime(params, v))


def test_public_helpers_reject_a_float64_target_with_float32_params():
    rng = np.random.default_rng(8)
    params = random_network(3, (4, 2), Activation.TANH, rng, dtype=np.float32)
    x0 = rng.standard_normal(3).astype(np.float32)
    loss = LossSpec(LossKind.MSE, np.full(2, 0.1))
    v = rng.standard_normal(params.state_size).astype(np.float32)
    with pytest.raises(ShapeError, match="dtype"):
        energy(params, x0, loss, v, v.copy())
    int_loss = LossSpec(LossKind.MSE, np.array([1, 0]))
    m, s, _, _ = relax_dyadic(params, x0, int_loss, RelaxConfig(k_max=20))
    assert m.dtype == s.dtype == np.float32
