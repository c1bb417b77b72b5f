"""The precision floor of the relaxation loop: a run whose step delta
stalls at the rounding noise of its own state stops there, converged,
and a run that never settles still runs out of budget. The stop tests
on Python floats stop where numpy's own comparisons in the state's
dtype stop, and a float32 tolerance below the subnormals still stops at
an exact fixed point."""

import math

import numpy as np
import pytest

from dyadicbp import (
    Activation,
    ExperimentConfig,
    GradientMethod,
    LossKind,
    LossSpec,
    NumericError,
    RelaxConfig,
    RelaxMode,
    RelaxStatus,
    classical_backprop,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
)
from dyadicbp import dynamics
from dyadicbp.network import beta_array
from dyadicbp.training import _random_instance
from helpers import SMOOTH_ACTS, make_chain, ufunc_stop_relax

# The instances of ``sweep_eta`` on the default depth-9 float32 net with
# seed 0 (20 trials) on which Dyadic ran to k_max = 1000 at eta = 1 and
# tol 1e-6 before the loop had a precision floor, while it stepped
# (x, z): their last deltas, 1.4-1.8e-6, were the float32 noise of
# |(x, z)|. Dyadic now steps (m, s), and its unit step lands exactly on
# backprop's fixed point; Split's unit step, still in (x, z), stalls at
# its float32 noise on each of them, after 48 to 60 steps.
STALLED_TRIALS = (0, 2, 7, 9, 10, 11, 13, 14, 16, 17)


def _last_delta(params, x0, loss, cfg) -> float:
    """The step delta of the last update of the run, from its step records."""
    return dynamics._trajectory(params, x0, loss, cfg)[1][-1][0]


def _cosine(bundle, ref) -> float:
    a = bundle.flat().astype(np.float64)
    b = ref.flat().astype(np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _sweep_instances(method, count=20):
    """The unit-step relax config and the first ``count`` instances of
    ``sweep_eta`` on the default depth-9 float32 net with seed 0."""
    config = ExperimentConfig(seed=0, precision=32, method=method, eta=1.0)
    rng = np.random.default_rng(config.seed)
    return config.relax_config(), [_random_instance(config, rng) for _ in range(count)]


def test_float32_unit_step_stalls_stop_at_the_precision_floor():
    cfg, instances = _sweep_instances(GradientMethod.SPLIT)
    cfg64 = RelaxConfig(eta=1.0, k_max=1000, tol=1e-12, mode=RelaxMode.SPLIT)
    floor_cos = 1.0 - math.sqrt(float(np.finfo(np.float32).eps))
    for t in STALLED_TRIALS:
        params, x0, loss = instances[t]
        _, _, bundle, trace = relax_split(params, x0, loss, cfg)
        assert trace.iterations_used <= 8 * params.depth, t
        assert trace.status is RelaxStatus.PRECISION_FLOOR, t
        assert trace.converged is True
        assert _last_delta(params, x0, loss, cfg) >= cfg.tol  # the tolerance was out of reach
        # The float64 run of the same scheme, far past the float32 noise.
        loss64 = LossSpec(loss.kind, loss.target.astype(np.float64))
        ref = relax_split(params.astype(np.float64), x0.astype(np.float64), loss64, cfg64)[2]
        assert _cosine(bundle, ref) >= floor_cos, t


def test_float32_dyadic_unit_step_lands_on_backprop_instead_of_the_floor():
    cfg, instances = _sweep_instances(GradientMethod.DYADIC)
    for t in STALLED_TRIALS:
        params, x0, loss = instances[t]
        _, _, bundle, trace = relax_dyadic(params, x0, loss, cfg)
        assert trace.status is RelaxStatus.CONVERGED, t
        assert trace.iterations_used == 2 * params.depth + 1, t
        assert _last_delta(params, x0, loss, cfg) == 0.0
        ref, _ = classical_backprop(params, x0, loss)
        assert bundle.flat().tobytes() == ref.flat().tobytes(), t


def test_a_run_that_never_settles_runs_out_of_budget():
    # A Split batch whose columns oscillate until k_max (max|m| up to
    # about 128, last deltas 0.9-34): the floor must not call it settled.
    rng = np.random.default_rng(51)
    acts = [Activation.TANH] * 3 + [Activation.RELU]
    params = random_network(4, (2, 3, 4, 3), acts, rng, bias_std=0.5)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((3, 3))
    cfg = RelaxConfig(eta=0.5, k_max=300, tol=1e-9, mode=RelaxMode.SPLIT)
    _, _, iterations, converged = relax_batch(params, x, LossSpec(LossKind.MSE, target), cfg)
    assert iterations.tolist() == [cfg.k_max] * 3
    assert not converged.any()
    for j in range(3):
        loss = LossSpec(LossKind.MSE, target[:, j])
        _, _, _, trace = relax_split(params, x[:, j], loss, cfg)
        assert trace.iterations_used == cfg.k_max
        assert trace.status is RelaxStatus.OUT_OF_BUDGET
        assert trace.converged is False


def _far_out_step(params, beta, loss, eta, ws):
    """Jump the first state to 1e17, then move it by 64 per entry and step
    (exact in float64): the delta stays at 64 sqrt(n), far below the
    rounding noise 16 eps |first| (about 615 for n = 3), yet never settles."""

    def bind(state, nxt):
        def step():
            first, second = state
            nxt[0] = first + (64.0 if first.any() else 1e17)
            nxt[1] = second
            return nxt

        return step

    return bind(ws.state, ws.next), bind(ws.next, ws.state)


@pytest.mark.parametrize("shape", ((3,), (3, 2)), ids=("sample", "batch"))
def test_the_floor_needs_a_delta_within_1e3_tol(shape):
    beta = np.zeros(shape)
    columns = shape[1:]
    # 110.9 is far above 1e3 tol = 1e-3: the run goes on to k_max.
    cfg = RelaxConfig(k_max=40, tol=1e-6)
    _, _, iterations, converged, floored = dynamics._relax(None, beta, None, cfg, _far_out_step)
    assert np.array_equal(iterations, np.full(columns, cfg.k_max))
    assert not converged.any() and not floored.any()
    # Within 1e3 tol = 1000 it stops at step 3, the first step whose delta
    # is no smaller than the one before.
    cfg = RelaxConfig(k_max=40, tol=1.0)
    _, _, iterations, converged, floored = dynamics._relax(None, beta, None, cfg, _far_out_step)
    assert np.array_equal(iterations, np.full(columns, 3))
    assert converged.all() and floored.all()


def test_a_float32_tolerance_below_the_subnormals_stops_at_a_fixed_point():
    # tol = 1e-300 casts to float32 0.0, which no delta is below: the exact
    # fixed point of the unit step (delta 0.0 after 2L + 1 updates) must
    # still stop the run, at the same step as a representable tolerance.
    rng = np.random.default_rng(5)
    params = random_network(3, (4, 2), Activation.TANH, rng, dtype=np.float32)
    x0 = rng.standard_normal(3).astype(np.float32)
    loss = LossSpec(LossKind.MSE, rng.standard_normal(2).astype(np.float32))
    for tol in (1e-30, 1e-300):
        cfg = RelaxConfig(eta=1.0, k_max=50, tol=tol)
        trace = relax_mean_stress(params, x0, loss, cfg)[3]
        assert trace.status is RelaxStatus.CONVERGED
        assert trace.iterations_used == 2 * params.depth + 1
        assert _last_delta(params, x0, loss, cfg) == 0.0


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_limits_keep_every_representable_tolerance(dtype):
    dt = np.dtype(dtype)
    for tol in (0.1, 1e-6, 1 / 3, 1e-40, 1e-45, 1e-300):
        if dtype(tol) == 0:
            continue
        assert dynamics._limits(RelaxConfig(tol=tol), dt) == (
            float(dtype(tol)),
            float(dtype(1e3 * tol)),
        )
    if dtype is np.float32:  # 1e-300 casts to 0.0: both limits become the smallest subnormal
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        assert dynamics._limits(RelaxConfig(tol=1e-300), dt) == (tiny, tiny)


def _relax_or_none(run):
    try:
        return run()
    except NumericError:
        return None


def _stop_cases(rng, dtype, batch):
    """Random (params, beta, loss) with columns when ``batch``."""
    params = make_chain(rng, depth=int(rng.integers(2, 5)), acts=SMOOTH_ACTS, dtype=dtype)
    tail = () if batch is None else (batch,)
    x = rng.standard_normal((params.input_dim, *tail)).astype(dtype)
    target = rng.standard_normal((params.widths[-1], *tail)).astype(dtype)
    return params, beta_array(params, x), LossSpec(LossKind.MSE, target)


@pytest.mark.parametrize("batch", (None, 3), ids=("sample", "batch"))
@pytest.mark.parametrize("mode", (RelaxMode.DYADIC, RelaxMode.SPLIT))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_stop_tests_stop_where_the_ufunc_tests_stop(dtype, mode, batch):
    rng = np.random.default_rng(17)
    for _ in range(3):
        params, beta, loss = _stop_cases(rng, dtype, batch)
        for eta in (0.5, 1.0):
            for tol in (1e-2, 1e-5, 1e-9, 1e-13, 1e-40):
                cfg = RelaxConfig(eta=eta, k_max=150, tol=tol, mode=mode)
                step = dynamics._STEPS[mode]
                got = _relax_or_none(lambda: dynamics._relax(params, beta, loss, cfg, step))
                want = _relax_or_none(lambda: ufunc_stop_relax(params, beta, loss, cfg))
                assert (got is None) == (want is None)
                if got is None:
                    continue
                first, second = want[0]
                if mode is RelaxMode.SPLIT:
                    first, second = 0.5 * (first + second), first - second
                for g, w in zip(got, (first, second, *want[1:])):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes(), (eta, tol)


def test_float32_floor_stops_match_the_ufunc_tests():
    cfg, instances = _sweep_instances(GradientMethod.SPLIT, STALLED_TRIALS[-1] + 1)
    step = dynamics._STEPS[RelaxMode.SPLIT]
    for t in STALLED_TRIALS[:4]:
        params, x0, loss = instances[t]
        beta = beta_array(params, x0)
        got = dynamics._relax(params, beta, loss, cfg, step)
        _, *want = ufunc_stop_relax(params, beta, loss, cfg)
        assert [a.tolist() for a in got[2:]] == [a.tolist() for a in want]
        assert bool(got[4]) is True  # the precision floor
