"""Step records come from an observer of the stepped pair. An ``on_step``
observer changes no bits of a single-sample relaxation, and
``dynamics._trajectory`` reports the relaxation's iterations and status
with one row per update, equal to rows rebuilt from the public
``on_step`` copies (Dyadic's equal MeanStress's). A state whose energy
is not finite raises NumericError: a plain call after its last update,
``_trajectory`` at the update. The block layout that every step reads is
computed once per NetworkParams."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ALL_ACTS, make_chain, make_loss
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
    random_network,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
)
from dyadicbp import dynamics
from dyadicbp.network import _activation_runs, _block_slices, beta_array

SINGLE = {
    "Dyadic": relax_dyadic,
    "MeanStress": relax_mean_stress,
    "Split": relax_split,
}


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != +0.0."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _zero_rows(params, rng):
    """``params`` with about a third of each layer's rows (weights and
    bias) set to zero, so those pre-activations are exactly 0 at every
    step: ReLU sits on its kink there."""
    layers = []
    for lp in params.layers:
        keep = rng.random(lp.spec.width) >= 1 / 3
        weight = lp.weight * keep[:, None].astype(lp.weight.dtype)
        layers.append(LayerParams(lp.spec, weight, lp.bias * keep.astype(lp.bias.dtype)))
    return NetworkParams(params.input_dim, tuple(layers))


@st.composite
def record_cases(draw):
    """A scheme, a network of mixed activations with exact-zero
    pre-activations, a precision, a loss and a step size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(tuple(SINGLE)))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    depth = draw(st.integers(1, 5))
    acts = draw(st.lists(st.sampled_from(ALL_ACTS), min_size=depth, max_size=depth))
    input_dim = int(rng.integers(1, 6))
    widths = [int(rng.integers(1, 7)) for _ in acts]
    params = random_network(input_dim, widths, acts, rng, bias_std=0.5, dtype=dtype)
    params = _zero_rows(params, rng)
    x0 = rng.standard_normal(input_dim).astype(dtype)
    kind = draw(st.sampled_from(tuple(LossKind)))
    loss = make_loss(rng, widths[-1], kind=kind, dtype=dtype)
    eta = draw(st.sampled_from((0.5, 1.0)))
    cfg = RelaxConfig(eta=eta, k_max=200, tol=1e-9, mode=RelaxMode.from_name(mode))
    return SINGLE[mode], params, x0, loss, cfg


@given(record_cases())
def test_an_observer_changes_no_bits_and_trajectory_has_a_row_per_update(case):
    relax, params, x0, loss, cfg = case
    seen = []
    m1, s1, b1, t1 = relax(params, x0, loss, cfg)
    m2, s2, b2, t2 = relax(params, x0, loss, cfg, on_step=lambda k, a, b: seen.append(k))
    assert_same_bits(m2, m1)
    assert_same_bits(s2, s1)
    for got, want in zip(b2.weight_grads + b2.bias_grads, b1.weight_grads + b1.bias_grads):
        assert_same_bits(got, want)
    assert len(b2.weight_grads) == len(b1.weight_grads) == params.depth
    assert (t2.iterations_used, t2.status) == (t1.iterations_used, t1.status)
    assert type(t1.iterations_used) is int and type(t1.converged) is bool
    n = t1.iterations_used
    assert seen == list(range(1, n + 1))
    trace, rows = dynamics._trajectory(params, x0, loss, cfg)
    assert (trace.iterations_used, trace.status) == (n, t1.status)
    assert len(rows) == n
    assert all(len(norms) == params.depth for _, _, norms in rows)


def _rebuilt_rows(params, x0, loss, cfg):
    """The step records of a MeanStress or Split run, rebuilt from the
    (k, first, second) copies its public ``on_step`` receives: the summed
    norms of the two halves' increments (from the zero pair), the energy
    at (m, s) and the per-block stress norms."""
    zero = np.zeros(params.state_size, dtype=params.dtype)
    pairs = [(zero, zero)]
    SINGLE[cfg.mode.value](params, x0, loss, cfg, on_step=lambda k, a, b: pairs.append((a, b)))
    beta = beta_array(params, x0)
    rows = []
    for (a0, b0), (a, b) in zip(pairs, pairs[1:]):
        delta = float(np.linalg.norm(a - a0) + np.linalg.norm(b - b0))
        m, s = (0.5 * (a + b), a - b) if cfg.mode is RelaxMode.SPLIT else (a, b)
        stress = tuple(float(np.linalg.norm(s[sl])) for sl in _block_slices(params))
        rows.append((delta, dynamics._energy_ms(params, beta, loss, m, s), stress))
    return rows


@given(record_cases())
def test_trajectory_rows_equal_rows_rebuilt_from_the_public_observer(case):
    _, params, x0, loss, cfg = case
    rows = dynamics._trajectory(params, x0, loss, cfg)[1]
    if cfg.mode is RelaxMode.DYADIC:  # its observer sees (x, z); it steps (m, s)
        cfg = dataclasses.replace(cfg, mode=RelaxMode.MEAN_STRESS)
        assert dynamics._trajectory(params, x0, loss, cfg)[1] == rows
    assert _rebuilt_rows(params, x0, loss, cfg) == rows


def test_blowup_raises_numeric_error_with_and_without_records():
    # The case of test_dynamics' blow-up test: the step delta overflows.
    rng = np.random.default_rng(88)
    params = make_chain(rng, depth=2, acts=(Activation.IDENTITY,))
    x0 = rng.standard_normal(params.input_dim)
    loss = make_loss(rng, params.widths[-1], kind=LossKind.MSE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cfg = RelaxConfig(eta=4.0, k_max=1000, tol=1e-12)
        with pytest.raises(NumericError):
            relax_dyadic(params, x0, loss, cfg)
        with pytest.raises(NumericError):
            dynamics._trajectory(params, x0, loss, cfg)


@pytest.mark.parametrize("mode", tuple(SINGLE))
def test_final_state_with_non_finite_energy_raises(mode):
    # float32, output near 4e19: every step delta and the gradient stay
    # finite, but the loss at the output, 0.5 |m_L|^2, overflows. A plain
    # call runs all k_max steps and raises on the energy of the state it
    # would return; the step records raise at the first such update.
    dt = np.float32
    weight = np.full((2, 1), 4e19, dtype=dt)
    layer = LayerParams(LayerSpec(2, Activation.IDENTITY), weight, np.zeros(2, dt))
    params = NetworkParams(1, (layer,))
    x0 = np.ones(1, dtype=dt)
    loss = LossSpec(LossKind.MSE, np.zeros(2, dt))
    cfg = RelaxConfig(eta=0.1, k_max=60, tol=1e-6, mode=RelaxMode.from_name(mode))
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError):
            SINGLE[mode](params, x0, loss, cfg, on_step=lambda k, a, b: steps.append(k))
        assert steps == list(range(1, cfg.k_max + 1))
        with pytest.raises(NumericError):
            dynamics._trajectory(params, x0, loss, cfg)


def _fresh_layout(params):
    """Block slices and activation runs rebuilt from the layer widths."""
    slices = []
    runs = []
    start = 0
    for lp in params.layers:
        sl = slice(start, start + lp.spec.width)
        slices.append(sl)
        if runs and runs[-1][1] is lp.spec.activation:
            runs[-1] = (slice(runs[-1][0].start, sl.stop), lp.spec.activation)
        else:
            runs.append((sl, lp.spec.activation))
        start = sl.stop
    return slices, runs


@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(ALL_ACTS), min_size=1, max_size=6))
def test_stored_layout_equals_a_fresh_one(seed, acts):
    rng = np.random.default_rng(seed)
    widths = [int(rng.integers(1, 7)) for _ in acts]
    params = random_network(int(rng.integers(1, 6)), widths, acts, rng)
    rebuilt = params._with_flat(params._flat * 2 + 1)  # a training step's route
    for p in (params, params.astype(np.float32), rebuilt):
        slices, runs = _fresh_layout(p)
        assert list(_block_slices(p)) == slices
        assert list(_activation_runs(p)) == runs
        assert p.output_slice == slices[-1]
        assert p.offsets == (0, *(sl.stop for sl in slices))
        assert all(type(o) is int for o in p.offsets)
