"""The precision floor of the relaxation loop: a run whose step delta
stalls at the rounding noise of its own state stops there, converged,
and a run that never settles still runs out of budget."""

import math

import numpy as np
import pytest

from dyadicbp import (
    Activation,
    ExperimentConfig,
    GradientMethod,
    LossKind,
    LossSpec,
    RelaxConfig,
    RelaxMode,
    RelaxStatus,
    classical_backprop,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_split,
)
from dyadicbp import dynamics
from dyadicbp.training import _random_instance

# The instances of ``sweep_eta`` on the default depth-9 float32 net with
# seed 0 (20 trials) that ran to k_max = 1000 at eta = 1 and tol 1e-6
# before the loop had a precision floor: their last deltas, 1.4-1.8e-6,
# are the float32 noise of |(x, z)|.
STALLED_TRIALS = (0, 2, 7, 9, 10, 11, 13, 14, 16, 17)


def _cosine(bundle, ref) -> float:
    a = bundle.flat().astype(np.float64)
    b = ref.flat().astype(np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_float32_unit_step_stalls_stop_at_the_precision_floor():
    config = ExperimentConfig(seed=0, precision=32, method=GradientMethod.DYADIC, eta=1.0)
    cfg = config.relax_config()
    rng = np.random.default_rng(config.seed)
    instances = [_random_instance(config, rng) for _ in range(20)]
    floor_cos = 1.0 - math.sqrt(float(np.finfo(np.float32).eps))
    for t in STALLED_TRIALS:
        params, x0, loss = instances[t]
        _, _, bundle, trace = relax_dyadic(params, x0, loss, cfg)
        assert trace.iterations_used <= 2 * params.depth + 5, t
        assert trace.status is RelaxStatus.PRECISION_FLOOR, t
        assert trace.converged is True
        assert trace.deltas[-1] >= cfg.tol  # the tolerance itself was out of reach
        ref, _ = classical_backprop(params, x0, loss)
        assert _cosine(bundle, ref) >= floor_cos, t


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
    first, second = ws.state.both
    nxt = ws.next.both
    nxt[0] = first + (64.0 if first.any() else 1e17)
    nxt[1] = second
    return nxt


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
