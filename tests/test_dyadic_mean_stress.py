"""Dyadic relaxes the saddle flow in its mean/stress coordinates.

- At eta = 1 its step is the cancelled two-phase map, so its gradient is
  backprop's bit for bit after 2L + 1 updates, the paper's claim, in
  float32 and float64, for one sample and a column batch.
- At every step size it returns MeanStress's bits and iteration counts.
- It agrees with the oracle's Euler loop in the doubled coordinates
  (x, z) up to rounding and the two loops' stopping quantities.
- Its ``on_step`` still observes (x, z).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import SMOOTH_ACTS, make_chain
from dyadicbp import (
    Activation,
    LossKind,
    LossSpec,
    RelaxConfig,
    RelaxMode,
    classical_backprop,
    energy,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
)
from dyadicbp import dynamics
from dyadicbp.network import beta_array
from dyadicbp.reference import backprop_batch

ETAS = (0.25, 0.5, 0.75, 1.0)
# The unit step's tolerance: a normal float32, so a column stops only on an
# exact zero increment. A coarser one can stop a column whose lower stress
# blocks are still flushing, if they are smaller than it (a vanishing
# gradient), before it reaches backprop.
UNIT = RelaxConfig(eta=1.0, tol=1e-30)


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@st.composite
def tanh_batches(draw, max_depth=11, max_batch=69):
    """A Tanh net of depth 1-11 (an Identity output for cross-entropy), an
    input batch of 1-69 columns, a loss with conforming targets. Outputs
    are at least 2 wide: the cross-entropy of one logit has gradient 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    depth = draw(st.integers(1, max_depth))
    batch = draw(st.integers(1, max_batch))
    kind = draw(st.sampled_from(tuple(LossKind)))
    acts = [Activation.TANH] * depth
    if kind is LossKind.SOFTMAX_CROSS_ENTROPY:
        acts[-1] = Activation.IDENTITY
    widths = [int(rng.integers(1, 17)) for _ in acts[:-1]] + [int(rng.integers(2, 17))]
    input_dim = int(rng.integers(1, 9))
    params = random_network(input_dim, widths, acts, rng, bias_std=0.5, dtype=dtype)
    x = rng.standard_normal((input_dim, batch)).astype(dtype)
    if kind is LossKind.MSE:
        target = rng.standard_normal((widths[-1], batch)).astype(dtype)
    else:
        target = np.zeros((widths[-1], batch), dtype=dtype)
        target[rng.integers(widths[-1], size=batch), np.arange(batch)] = 1.0
    return params, x, LossSpec(kind, target)


@given(tanh_batches())
def test_unit_step_dyadic_batch_is_backprop_bitwise(case):
    params, x, loss = case
    weights, biases, iterations, converged = relax_batch(params, x, loss, UNIT)
    ref_weights, ref_biases = backprop_batch(params, x, loss)
    assert _bits(weights + biases) == _bits(list(ref_weights) + list(ref_biases))
    assert iterations.tolist() == [2 * params.depth + 1] * x.shape[1]
    assert converged.all()


@given(tanh_batches(max_batch=3))
def test_unit_step_dyadic_sample_is_backprop_bitwise(case):
    params, x, loss = case
    for j in range(x.shape[1]):
        loss_j = LossSpec(loss.kind, loss.target[:, j])
        _, _, bundle, trace = relax_dyadic(params, x[:, j], loss_j, UNIT)
        ref, _ = classical_backprop(params, x[:, j], loss_j)
        got = bundle.weight_grads + bundle.bias_grads
        assert _bits(got) == _bits(ref.weight_grads + ref.bias_grads)
        assert trace.iterations_used == 2 * params.depth + 1
        assert trace.converged


@given(tanh_batches(max_depth=6, max_batch=8), st.sampled_from(ETAS))
def test_dyadic_returns_mean_stress_bits_at_every_step_size(case, eta):
    params, x, loss = case
    dyadic = relax_batch(params, x, loss, RelaxConfig(eta=eta, tol=1e-5))
    mean_stress = relax_batch(
        params, x, loss, RelaxConfig(eta=eta, tol=1e-5, mode=RelaxMode.MEAN_STRESS)
    )
    assert _bits(dyadic[0] + dyadic[1]) == _bits(mean_stress[0] + mean_stress[1])
    assert dyadic[2].tolist() == mean_stress[2].tolist()
    assert dyadic[3].tolist() == mean_stress[3].tolist()
    x0 = x[:, 0]
    loss0 = LossSpec(loss.kind, loss.target[:, 0])
    dyadic_cfg = RelaxConfig(eta=eta, tol=1e-5)
    mean_stress_cfg = RelaxConfig(eta=eta, tol=1e-5, mode=RelaxMode.MEAN_STRESS)
    m1, s1, b1, t1 = relax_dyadic(params, x0, loss0, dyadic_cfg)
    m2, s2, b2, t2 = relax_mean_stress(params, x0, loss0, mean_stress_cfg)
    assert _bits((m1, s1, *b1.weight_grads, *b1.bias_grads)) == _bits(
        (m2, s2, *b2.weight_grads, *b2.bias_grads)
    )
    assert t1.iterations_used == t2.iterations_used
    rows = dynamics._trajectory(params, x0, loss0, dyadic_cfg)[1]
    assert rows == dynamics._trajectory(params, x0, loss0, mean_stress_cfg)[1]


def test_dyadic_agrees_with_the_doubled_state_euler_loop():
    # The oracle steps (x, z) by the saddle energy's own velocity and stops
    # on ||dx|| + ||dz||, which lies between max(2 ||dm||, ||ds||) and
    # 2 ||dm|| + ||ds||; so a column may stop a step apart from Dyadic's
    # ||dm|| + ||ds||, within a tolerance of the same equilibrium. Columns
    # that stop together agree to rounding. (On float32 near its noise, or
    # at a ReLU kink, the two loops can drift further apart.)
    rng = np.random.default_rng(26)
    for draw in range(40):
        params = make_chain(
            rng, depth=int(rng.integers(1, 8)), acts=SMOOTH_ACTS, identity_output=True
        )
        batch = int(rng.integers(1, 9))
        x = rng.standard_normal((params.input_dim, batch))
        loss = LossSpec(LossKind.MSE, rng.standard_normal((params.widths[-1], batch)))
        eta, tol = ETAS[draw % 4], (1e-6, 1e-9)[draw // 4 % 2]
        cfg = RelaxConfig(eta=eta, k_max=1000, tol=tol)
        beta = beta_array(params, x)
        m, s, iterations, converged, _ = dynamics._relax(
            params, beta, loss, cfg, dynamics._STEPS[RelaxMode.DYADIC]
        )
        states, want_iterations = oracles.unfused_relax(
            "Saddle", params, beta, loss, eta, cfg.k_max, cfg.tol
        )
        xs, zs = states[-1]
        want_m, want_s = 0.5 * (xs + zs), xs - zs
        assert converged.all()
        assert np.abs(iterations - want_iterations).max() <= 1, draw
        scale = np.maximum(1.0, np.maximum(np.abs(want_m).max(0), np.abs(want_s).max(0)))
        gap = np.maximum(np.abs(m - want_m).max(0), np.abs(s - want_s).max(0)) / scale
        together = iterations == want_iterations
        assert (gap[together] <= 1e-12).all(), draw
        assert (gap[~together] <= tol).all(), draw


def test_on_step_observes_the_doubled_state():
    # The last (x, z) maps back to the returned (m, s) up to rounding, and
    # the energy there is the task loss (the stress meets a settled mean).
    rng = np.random.default_rng(27)
    for draw in range(20):
        eta = ETAS[draw % 4]
        params = make_chain(rng, depth=int(rng.integers(1, 7)), acts=SMOOTH_ACTS)
        x0 = rng.standard_normal(params.input_dim)
        loss = LossSpec(LossKind.MSE, rng.standard_normal(params.widths[-1]))
        seen = []
        cfg = RelaxConfig(eta=eta, k_max=3000, tol=1e-12)
        m, s, _, trace = relax_dyadic(
            params, x0, loss, cfg, on_step=lambda k, x, z: seen.append((k, x, z))
        )
        assert [k for k, _, _ in seen] == list(range(1, trace.iterations_used + 1))
        _, x, z = seen[-1]
        scale = max(1.0, float(np.abs(m).max()), float(np.abs(s).max()))
        np.testing.assert_allclose(0.5 * (x + z), m, rtol=0, atol=1e-15 * scale)
        np.testing.assert_allclose(x - z, s, rtol=0, atol=1e-15 * scale)
        task_loss = loss.value(m[params.output_slice])
        assert abs(energy(params, x0, loss, x, z) - task_loss) <= 1e-10 * max(1.0, task_loss)
