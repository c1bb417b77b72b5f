"""Saddle dynamics: energy, velocity identities, relaxations, stability."""

import warnings

import numpy as np
import pytest

import oracles
from helpers import (
    SMOOTH_ACTS,
    bound_velocity,
    gradient_from_equilibrium,
    make_chain,
    make_instance,
    make_loss,
    mean_stress_velocities,
    saddle_velocities,
    two_phase_states,
)
from dyadicbp import (
    Activation,
    ConfigError,
    GradientBundle,
    LayerParams,
    LayerSpec,
    LossKind,
    LossSpec,
    NetworkParams,
    NumericError,
    RelaxConfig,
    RelaxMode,
    ShapeError,
    classical_backprop,
    energy,
    forward_pass,
    neumann_stress,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
    stability_check,
)
from dyadicbp import dynamics
from dyadicbp.reference import backprop_batch


def _cfg(mode, **kw):
    return RelaxConfig(mode=mode, **kw)


def _rel(bundle, ref):
    r = ref.flat()
    return float(np.linalg.norm(bundle.flat() - r) / np.linalg.norm(r))


# ---------------------------------------------------------------------------
# Energy.


def test_energy_matches_naive_oracle():
    rng = np.random.default_rng(61)
    for _ in range(50):
        params, x0, loss = make_instance(rng)
        x = rng.standard_normal(params.state_size)
        z = rng.standard_normal(params.state_size)
        got = energy(params, x0, loss, x, z)
        want = oracles.naive_energy(params, x0, loss.kind, loss.target, x, z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_energy_equals_loss_when_states_coincide():
    rng = np.random.default_rng(62)
    params, x0, loss = make_instance(rng)
    v = rng.standard_normal(params.state_size)
    got = energy(params, x0, loss, v, v.copy())
    out = v[params.output_slice]
    assert got == pytest.approx(loss.value(out), abs=1e-14)


def test_energy_at_forward_stack_is_plain_task_loss():
    rng = np.random.default_rng(63)
    for _ in range(20):
        params, x0, loss = make_instance(rng)
        acts, stacked = forward_pass(params, x0)
        got = energy(params, x0, loss, stacked, stacked.copy())
        assert abs(got - loss.value(acts[-1])) <= 1e-12


def test_energy_raises_on_non_finite_state():
    rng = np.random.default_rng(64)
    params, x0, loss = make_instance(rng)
    bad = np.full(params.state_size, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError):
            energy(params, x0, loss, bad, np.zeros_like(bad))


# ---------------------------------------------------------------------------
# Velocity fields.


def test_saddle_velocity_sum_and_difference_identities():
    # The oracle's (x, z) velocity of the saddle flow is the package's
    # mean/stress field in doubled coordinates: dm = (dx + dz) / 2 and
    # ds = dx - dz. This is why Dyadic may step (m, s).
    rng = np.random.default_rng(65)
    from dyadicbp import forward_field

    for _ in range(50):
        params, x0, loss = make_instance(rng)
        x = rng.standard_normal(params.state_size)
        z = rng.standard_normal(params.state_size)
        dx, dz = saddle_velocities(params, x0, loss, x, z)
        f = forward_field(params, x0, 0.5 * (x + z))
        scale = max(1.0, float(np.abs(dx).max()))
        np.testing.assert_allclose(dx + dz, 2.0 * f, rtol=0, atol=1e-12 * scale)
        dm, ds = mean_stress_velocities(params, x0, loss, 0.5 * (x + z), x - z)
        np.testing.assert_allclose(0.5 * (dx + dz), dm, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(dx - dz, ds, rtol=0, atol=1e-12 * scale)


def test_equal_states_zero_gradient_collapse_to_forward_field():
    # With x = z and no loss gradient both velocities are the plain
    # forward field evaluated at the shared state.
    rng = np.random.default_rng(66)
    from dyadicbp import forward_field

    params = make_chain(rng, identity_output=True)
    x0 = rng.standard_normal(params.input_dim)
    v = rng.standard_normal(params.state_size)
    loss = LossSpec(LossKind.MSE, v[params.output_slice].copy())
    dx, dz = saddle_velocities(params, x0, loss, v, v.copy())
    f = forward_field(params, x0, v)
    np.testing.assert_array_equal(dx, dz)
    np.testing.assert_allclose(dx, f, rtol=0, atol=1e-14)


def test_velocities_vanish_at_backprop_equilibrium():
    rng = np.random.default_rng(67)
    for _ in range(25):
        params, x0, loss = make_instance(rng)
        _, stacked = forward_pass(params, x0)
        _, sens = classical_backprop(params, x0, loss)
        x = stacked + 0.5 * sens
        z = stacked - 0.5 * sens
        dx, dz = saddle_velocities(params, x0, loss, x, z)
        assert np.linalg.norm(dx) <= 1e-10
        assert np.linalg.norm(dz) <= 1e-10


def test_mean_velocity_vanishes_at_forward_fixed_point():
    rng = np.random.default_rng(68)
    params, x0, loss = make_instance(rng)
    _, stacked = forward_pass(params, x0)
    dm, _ = mean_stress_velocities(
        params, x0, loss, stacked, np.zeros(params.state_size)
    )
    assert np.linalg.norm(dm) <= 1e-14


def test_stress_velocity_vanishes_at_neumann_stress():
    rng = np.random.default_rng(69)
    for _ in range(25):
        params, x0, loss = make_instance(rng)
        _, stacked = forward_pass(params, x0)
        sbar = neumann_stress(params, x0, loss)
        _, ds = mean_stress_velocities(params, x0, loss, stacked, sbar)
        assert np.linalg.norm(ds) <= 1e-10


# ---------------------------------------------------------------------------
# Relaxations.


def test_dyadic_zero_loss_gradient_settles_to_forward_with_zero_stress():
    rng = np.random.default_rng(70)
    params = make_chain(rng, identity_output=True)
    x0 = rng.standard_normal(params.input_dim)
    acts, stacked = forward_pass(params, x0)
    loss = LossSpec(LossKind.MSE, acts[-1].copy())
    m, s, bundle, trace = relax_dyadic(
        params, x0, loss, _cfg(RelaxMode.DYADIC, eta=1.0, tol=1e-12)
    )
    assert trace.converged
    assert np.linalg.norm(s) <= 1e-12
    assert np.linalg.norm(bundle.flat()) <= 1e-12
    np.testing.assert_allclose(m, stacked, rtol=0, atol=1e-12)


def test_dyadic_unit_step_converges_within_2l_plus_1_and_matches_backprop():
    rng = np.random.default_rng(71)
    for _ in range(25):
        params, x0, loss = make_instance(rng)
        ref, _ = classical_backprop(params, x0, loss)
        m, s, bundle, trace = relax_dyadic(
            params, x0, loss, _cfg(RelaxMode.DYADIC, eta=1.0)
        )
        assert trace.converged
        assert trace.iterations_used <= 2 * params.depth + 1
        if np.linalg.norm(ref.flat()) > 1e-12:
            assert _rel(bundle, ref) <= 1e-10


def test_dyadic_small_step_cosine_misalignment():
    rng = np.random.default_rng(72)
    from dyadicbp import compare

    params = make_chain(rng, depth=6, max_width=8, identity_output=True)
    x0 = rng.standard_normal(params.input_dim)
    loss = make_loss(rng, params.widths[-1])
    ref, _ = classical_backprop(params, x0, loss)
    _, _, bundle, trace = relax_dyadic(
        params, x0, loss, _cfg(RelaxMode.DYADIC, eta=0.25, tol=1e-12, k_max=3000)
    )
    assert trace.converged
    report = compare(bundle, ref)
    assert 1.0 - report.cosine_similarity <= 1e-9


def test_mean_stress_unit_step_matches_twoL_state_for_state():
    # The unit-step Euler run may freeze exactly before 2L steps (a
    # saturated tanh has derivative exactly zero), at which point it
    # stops and ``two_phase_states`` repeats its last state; either way
    # the run ends at the (m, s) that the TwoL wavefront returns.
    rng = np.random.default_rng(73)
    for _ in range(50):
        params, x0, loss = make_instance(rng)
        states = two_phase_states(params, x0, loss)
        assert len(states) == 2 * params.depth
        m, s, _ = relax_twoL(params, x0, loss)
        np.testing.assert_array_equal(states[-1][0], m)
        np.testing.assert_array_equal(states[-1][1], s)


def test_forward_layer_freezing_is_exact():
    # At unit step, block l of the mean never changes again after
    # update l; the equality is of stored floats, not within a tolerance.
    rng = np.random.default_rng(74)
    for _ in range(20):
        params, x0, loss = make_instance(rng, depth=int(rng.integers(2, 7)))
        states = []
        relax_mean_stress(
            params,
            x0,
            loss,
            _cfg(RelaxMode.MEAN_STRESS, eta=1.0, k_max=2 * params.depth, tol=1e-300),
            on_step=lambda k, m, s: states.append(m),
        )
        offs = params.offsets
        for layer in range(1, params.depth + 1):
            if layer > len(states):
                break  # run froze exactly before this block's settling step
            frozen = states[layer - 1][offs[layer - 1] : offs[layer]]
            for later in states[layer:]:
                np.testing.assert_array_equal(
                    later[offs[layer - 1] : offs[layer]], frozen
                )


def test_twoL_fixed_point_persists_after_2l():
    rng = np.random.default_rng(75)
    from dyadicbp.network import apply_w_array, apply_wt_array, beta_array
    from dyadicbp.network import sigma_array, sigma_prime_array

    params, x0, loss = make_instance(rng, depth=3)
    m, s, _ = relax_twoL(params, x0, loss)
    beta = beta_array(params, x0)
    m_arr, s_arr = m, s
    for _ in range(3):
        pre = apply_w_array(params, m_arr) + beta
        s_next = apply_wt_array(params, sigma_prime_array(params, pre) * s_arr)
        s_next[params.output_slice] = loss.gradient(m_arr[params.output_slice])
        m_next = sigma_array(params, pre)
        np.testing.assert_array_equal(m_next, m_arr)
        np.testing.assert_array_equal(s_next, s_arr)
        m_arr, s_arr = m_next, s_next


def test_twoL_single_layer_converges_in_two_steps():
    rng = np.random.default_rng(76)
    params = make_chain(rng, depth=1)
    x0 = rng.standard_normal(params.input_dim)
    loss = make_loss(rng, params.widths[-1])
    ref, sens = classical_backprop(params, x0, loss)
    m, s, bundle = relax_twoL(params, x0, loss)
    acts, _ = forward_pass(params, x0)
    np.testing.assert_array_equal(m, acts[-1])
    np.testing.assert_array_equal(s, sens)
    np.testing.assert_array_equal(bundle.flat(), ref.flat())


def test_change_of_variables_dyadic_equals_mean_stress():
    rng = np.random.default_rng(77)
    for eta in (0.4, 0.75, 1.0):
        params, x0, loss = make_instance(rng)
        m1, s1, b1, t1 = relax_dyadic(
            params, x0, loss, _cfg(RelaxMode.DYADIC, eta=eta, tol=1e-11, k_max=3000)
        )
        m2, s2, b2, t2 = relax_mean_stress(
            params, x0, loss, _cfg(RelaxMode.MEAN_STRESS, eta=eta, tol=1e-11, k_max=3000)
        )
        assert t1.converged and t2.converged
        np.testing.assert_allclose(m1, m2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b1.flat(), b2.flat(), rtol=0, atol=1e-12)


def test_stress_stays_exactly_zero_without_a_source():
    # Output layer with zero weight and bias plus a zero target keeps
    # the loss gradient identically zero along the whole trajectory, so
    # no update can ever create stress.
    rng = np.random.default_rng(78)
    base = make_chain(rng, depth=3, identity_output=True)
    last = base.layers[-1]
    layers = base.layers[:-1] + (
        LayerParams(last.spec, np.zeros_like(last.weight), np.zeros_like(last.bias)),
    )
    params = NetworkParams(base.input_dim, layers)
    x0 = rng.standard_normal(params.input_dim)
    loss = LossSpec(LossKind.MSE, np.zeros(params.widths[-1]))

    seen = []
    relax_mean_stress(
        params,
        x0,
        loss,
        _cfg(RelaxMode.MEAN_STRESS, eta=0.7, k_max=60, tol=1e-300),
        on_step=lambda k, m, s: seen.append(s),
    )
    assert seen and all(np.all(s == 0.0) for s in seen)

    pairs = []
    relax_dyadic(
        params,
        x0,
        loss,
        _cfg(RelaxMode.DYADIC, eta=0.7, k_max=60, tol=1e-300),
        on_step=lambda k, x, z: pairs.append((x, z)),
    )
    assert pairs and all(np.array_equal(x, z) for x, z in pairs)


def test_split_zero_loss_gradient_keeps_states_equal():
    rng = np.random.default_rng(79)
    base = make_chain(rng, depth=3, identity_output=True)
    last = base.layers[-1]
    layers = base.layers[:-1] + (
        LayerParams(last.spec, np.zeros_like(last.weight), np.zeros_like(last.bias)),
    )
    params = NetworkParams(base.input_dim, layers)
    x0 = rng.standard_normal(params.input_dim)
    loss = LossSpec(LossKind.MSE, np.zeros(params.widths[-1]))
    pairs = []
    _, s, bundle, _ = relax_split(
        params,
        x0,
        loss,
        _cfg(RelaxMode.SPLIT, eta=0.6, k_max=80, tol=1e-300),
        on_step=lambda k, x, z: pairs.append((x, z)),
    )
    assert pairs and all(np.array_equal(x, z) for x, z in pairs)
    assert np.linalg.norm(s) == 0.0
    assert np.linalg.norm(bundle.flat()) == 0.0


def test_split_velocities_match_saddle_flow_at_equal_states():
    rng = np.random.default_rng(80)
    from dyadicbp.dynamics import _split_velocity_arrays
    from dyadicbp.network import beta_array

    params, x0, loss = make_instance(rng)
    v = rng.standard_normal(params.state_size)
    beta = beta_array(params, x0)
    dx_ref, dz_ref = saddle_velocities(params, x0, loss, v, v.copy())
    velocity, ws = bound_velocity(_split_velocity_arrays, params, beta, loss, v, v.copy())
    velocity()
    dx, dz = ws.next
    np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-13)
    np.testing.assert_allclose(dz, dz_ref, rtol=0, atol=1e-13)


def test_split_agreement_with_dyadic_is_first_order_in_stress():
    # The split equilibrium deviates from the dyadic one at second
    # order in the stress, so the relative gradient error shrinks
    # linearly with the output residual scale.
    rng = np.random.default_rng(81)
    params = make_chain(
        rng, depth=4, max_width=6, acts=(Activation.TANH,), identity_output=True
    )
    x0 = rng.standard_normal(params.input_dim)
    acts, _ = forward_pass(params, x0)
    direction = rng.standard_normal(params.widths[-1])
    direction /= np.linalg.norm(direction)
    rels = {}
    for scale in (1e-2, 1e-4):
        loss = LossSpec(LossKind.MSE, acts[-1] + scale * direction)
        _, _, dy_bundle, t1 = relax_dyadic(
            params, x0, loss, _cfg(RelaxMode.DYADIC, eta=0.5, tol=1e-13, k_max=4000)
        )
        _, _, sp_bundle, t2 = relax_split(
            params, x0, loss, _cfg(RelaxMode.SPLIT, eta=0.5, tol=1e-13, k_max=4000)
        )
        assert t1.converged and t2.converged
        rels[scale] = _rel(sp_bundle, dy_bundle)
    assert rels[1e-2] <= 10.0 * 1e-2
    assert rels[1e-4] <= 10.0 * 1e-4
    assert rels[1e-4] <= rels[1e-2] / 10.0


def test_gradient_from_equilibrium_reproduces_backprop():
    rng = np.random.default_rng(83)
    for _ in range(25):
        params, x0, loss = make_instance(rng)
        ref, sens = classical_backprop(params, x0, loss)
        _, stacked = forward_pass(params, x0)
        bundle = gradient_from_equilibrium(params, x0, stacked, sens)
        if np.linalg.norm(ref.flat()) == 0.0:
            assert np.linalg.norm(bundle.flat()) == 0.0
        else:
            assert _rel(bundle, ref) <= 1e-12


def test_gradient_from_equilibrium_zero_stress():
    rng = np.random.default_rng(84)
    params, x0, _ = make_instance(rng)
    _, stacked = forward_pass(params, x0)
    bundle = gradient_from_equilibrium(
        params, x0, stacked, np.zeros(params.state_size)
    )
    assert np.linalg.norm(bundle.flat()) == 0.0


def test_gradient_from_equilibrium_single_linear_layer_closed_form():
    rng = np.random.default_rng(85)
    params = NetworkParams(
        2,
        (
            LayerParams(
                LayerSpec(2, Activation.IDENTITY),
                rng.standard_normal((2, 2)),
                rng.standard_normal(2),
            ),
        ),
    )
    x0 = rng.standard_normal(2)
    y = rng.standard_normal(2)
    m, s, bundle = relax_twoL(params, x0, LossSpec(LossKind.MSE, y))
    residual = params.layers[0].weight @ x0 + params.layers[0].bias - y
    np.testing.assert_allclose(
        bundle.weight_grads[0], np.outer(residual, x0), rtol=0, atol=1e-14
    )


# ---------------------------------------------------------------------------
# Traces, configs, failure modes.


def test_trace_invariants_and_nonconvergence_flag():
    rng = np.random.default_rng(86)
    params, x0, loss = make_instance(rng)
    cfg = _cfg(RelaxMode.DYADIC, eta=0.05, k_max=5, tol=1e-14)
    _, _, _, trace = relax_dyadic(params, x0, loss, cfg)
    assert not trace.converged
    assert trace.iterations_used == 5
    recorded, rows = dynamics._trajectory(params, x0, loss, cfg)
    assert (recorded.iterations_used, recorded.status) == (5, trace.status)
    assert len(rows) == 5
    assert all(len(norms) == params.depth for _, _, norms in rows)

    cfg = _cfg(RelaxMode.DYADIC, eta=1.0, tol=1e-6)
    _, _, _, trace2 = relax_dyadic(params, x0, loss, cfg)
    assert trace2.converged
    _, rows = dynamics._trajectory(params, x0, loss, cfg)
    assert rows[-1][0] < 1e-6  # the last update's delta
    assert len(rows) == trace2.iterations_used


def test_relax_config_validation():
    with pytest.raises(ConfigError):
        RelaxConfig(eta=0.0)
    with pytest.raises(ConfigError):
        RelaxConfig(eta=-0.5)
    with pytest.raises(ConfigError):
        RelaxConfig(k_max=0)
    with pytest.raises(ConfigError):
        RelaxConfig(tol=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigError, match="finite"):
            RelaxConfig(eta=bad)
        with pytest.raises(ConfigError, match="finite"):
            RelaxConfig(tol=bad)
    with pytest.warns(RuntimeWarning):
        RelaxConfig(eta=1.5)


def test_relax_mode_mismatch_is_config_error():
    rng = np.random.default_rng(87)
    params, x0, loss = make_instance(rng, depth=2)
    with pytest.raises(ConfigError):
        relax_dyadic(params, x0, loss, _cfg(RelaxMode.MEAN_STRESS))
    with pytest.raises(ConfigError):
        relax_mean_stress(params, x0, loss, _cfg(RelaxMode.DYADIC))
    with pytest.raises(ConfigError):
        relax_split(params, x0, loss, _cfg(RelaxMode.DYADIC))


def test_relaxation_blowup_raises_numeric_error():
    rng = np.random.default_rng(88)
    params = make_chain(rng, depth=2, acts=(Activation.IDENTITY,))
    x0 = rng.standard_normal(params.input_dim)
    loss = make_loss(rng, params.widths[-1], kind=LossKind.MSE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cfg = _cfg(RelaxMode.DYADIC, eta=4.0, k_max=1000, tol=1e-12)
        with pytest.raises(NumericError):
            relax_dyadic(params, x0, loss, cfg)


def test_relaxations_reject_batched_input():
    rng = np.random.default_rng(89)
    params, _, loss = make_instance(rng, depth=2)
    xb = rng.standard_normal((params.input_dim, 3))
    with pytest.raises(ShapeError):
        relax_dyadic(params, xb, loss, _cfg(RelaxMode.DYADIC))


# ---------------------------------------------------------------------------
# Stability.


def test_stability_residuals_are_exactly_zero():
    rng = np.random.default_rng(91)
    for _ in range(20):
        params, x0, _ = make_instance(rng)
        report = stability_check(params, x0)
        assert report.depth == params.depth
        assert report.max_forward_residual == 0.0
        assert report.max_backward_residual == 0.0


def test_stability_single_layer_annihilates_in_one_application():
    rng = np.random.default_rng(92)
    params = make_chain(rng, depth=1)
    x0 = rng.standard_normal(params.input_dim)
    report = stability_check(params, x0, n_probes=4)
    assert report.max_forward_residual == 0.0
    assert report.max_backward_residual == 0.0


def test_dense_jacobian_eigenvalues_are_minus_one():
    rng = np.random.default_rng(93)
    for _ in range(10):
        params = make_chain(rng, depth=3, max_width=8)
        x0 = rng.standard_normal(params.input_dim)
        acts = oracles.naive_forward(params, x0)
        m = np.concatenate(acts)
        w = oracles.dense_w(params)
        d = oracles.dense_d(params, x0, m)
        n = w.shape[0]
        j_mm = d @ w - np.eye(n)
        j_ss = w.T @ d - np.eye(n)
        for mat in (j_mm, j_ss):
            eig = np.linalg.eigvals(mat)
            assert np.max(np.abs(eig - (-1.0))) <= 1e-8


# ---------------------------------------------------------------------------
# Batched relaxation.


def test_relax_batch_matches_single_sample_runs():
    rng = np.random.default_rng(94)
    for mode in (RelaxMode.DYADIC, RelaxMode.MEAN_STRESS, RelaxMode.SPLIT):
        params = make_chain(rng, depth=3, identity_output=True)
        batch = 5
        xb = rng.standard_normal((params.input_dim, batch))
        out_dim = params.widths[-1]
        targets = rng.standard_normal((out_dim, batch))
        loss = LossSpec(LossKind.MSE, targets)
        cfg = _cfg(mode, eta=0.8, tol=1e-9, k_max=2000)
        ws, bs, iters, conv = relax_batch(params, xb, loss, cfg)
        assert conv.all()

        single = {
            RelaxMode.DYADIC: relax_dyadic,
            RelaxMode.MEAN_STRESS: relax_mean_stress,
            RelaxMode.SPLIT: relax_split,
        }[mode]
        acc_w = [np.zeros_like(w) for w in ws]
        acc_b = [np.zeros_like(b) for b in bs]
        for j in range(batch):
            sl = LossSpec(LossKind.MSE, targets[:, j])
            _, _, bundle, trace = single(params, xb[:, j], sl, cfg)
            assert trace.iterations_used == iters[j]
            for i in range(params.depth):
                acc_w[i] += bundle.weight_grads[i]
                acc_b[i] += bundle.bias_grads[i]
        for i in range(params.depth):
            np.testing.assert_allclose(ws[i], acc_w[i] / batch, rtol=0, atol=1e-11)
            np.testing.assert_allclose(bs[i], acc_b[i] / batch, rtol=0, atol=1e-11)


def test_relax_batch_twoL_matches_batched_backprop_bitwise():
    rng = np.random.default_rng(95)
    params = make_chain(rng, depth=4, identity_output=True)
    batch = 6
    xb = rng.standard_normal((params.input_dim, batch))
    out_dim = params.widths[-1]
    targets = np.zeros((out_dim, batch))
    targets[rng.integers(out_dim, size=batch), np.arange(batch)] = 1.0
    loss = LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, targets)
    ws, bs, iters, conv = relax_batch(params, xb, loss, _cfg(RelaxMode.TWO_L))
    ref_w, ref_b = backprop_batch(params, xb, loss)
    assert np.all(iters == 2 * params.depth)
    assert conv.all()
    for i in range(params.depth):
        np.testing.assert_array_equal(ws[i], ref_w[i])
        np.testing.assert_array_equal(bs[i], ref_b[i])


def test_relax_batch_freezes_columns_independently():
    # One easy column and one stiff column: the easy one must keep the
    # state it converged to, untouched by the extra iterations the stiff
    # column needs.
    rng = np.random.default_rng(96)
    params = make_chain(rng, depth=2, identity_output=True)
    out_dim = params.widths[-1]
    x_easy = np.zeros(params.input_dim)
    x_hard = rng.standard_normal(params.input_dim) * 3.0
    xb = np.column_stack([x_easy, x_hard])
    targets = np.column_stack([np.zeros(out_dim), rng.standard_normal(out_dim) * 5.0])
    loss = LossSpec(LossKind.MSE, targets)
    cfg = _cfg(RelaxMode.DYADIC, eta=0.5, tol=1e-8, k_max=3000)
    ws, bs, iters, conv = relax_batch(params, xb, loss, cfg)
    assert conv.all()
    _, _, easy_bundle, easy_trace = relax_dyadic(
        params, x_easy, LossSpec(LossKind.MSE, targets[:, 0]), cfg
    )
    assert iters[0] == easy_trace.iterations_used
    assert iters[1] >= iters[0]


def test_relax_batch_rejects_single_vector():
    rng = np.random.default_rng(97)
    params, x0, loss = make_instance(rng, depth=2)
    with pytest.raises(ShapeError):
        relax_batch(params, x0, loss, _cfg(RelaxMode.DYADIC))
