"""Network algebra against dense matrices and plain per-layer loops."""

import numpy as np
import pytest

import oracles
from helpers import ALL_ACTS, SMOOTH_ACTS, make_chain
from dyadicbp import (
    Activation,
    LayerParams,
    LayerSpec,
    NetworkParams,
    NumericError,
    ShapeError,
    apply_global_W,
    beta_drive,
    forward_field,
    forward_pass,
    random_network,
)
from dyadicbp.network import (
    _block_slices,
    apply_w_array,
    apply_wt_array,
    beta_array,
    sigma_prime_array,
)


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = make_chain(rng, acts=ALL_ACTS)
        x0 = rng.standard_normal(params.input_dim)
        acts, stacked = forward_pass(params, x0)
        naive = oracles.naive_forward(params, x0)
        assert len(acts) == params.depth
        for a, b in zip(acts, naive):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(stacked, np.concatenate(acts))


def test_apply_w_matches_dense_matrix():
    rng = np.random.default_rng(12)
    for _ in range(100):
        params = make_chain(rng)
        w = oracles.dense_w(params)
        v = rng.standard_normal(params.state_size)
        got = apply_global_W(params, v)
        np.testing.assert_allclose(got, w @ v, rtol=0, atol=1e-12)
        got_t = apply_wt_array(params, v)
        np.testing.assert_allclose(got_t, w.T @ v, rtol=0, atol=1e-12)


def test_apply_w_adjoint_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        params = make_chain(rng)
        v = rng.standard_normal(params.state_size)
        u = rng.standard_normal(params.state_size)
        lhs = np.dot(apply_global_W(params, v), u)
        rhs = np.dot(v, apply_wt_array(params, u))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_apply_w_linearity():
    rng = np.random.default_rng(14)
    params = make_chain(rng, depth=4)
    v = rng.standard_normal(params.state_size)
    u = rng.standard_normal(params.state_size)
    a, b = 0.3, -1.7
    combo = apply_global_W(params, a * v + b * u)
    parts = a * apply_global_W(params, v)
    parts += b * apply_global_W(params, u)
    np.testing.assert_allclose(combo, parts, rtol=0, atol=1e-12)


def test_global_w_nilpotent_of_index_depth():
    # W^L annihilates exactly: each application zeroes one more block,
    # so after L applications nothing survives, with no rounding at all.
    rng = np.random.default_rng(15)
    count = 0
    while count < 100:
        for depth in range(1, 9):
            params = make_chain(rng, depth=depth)
            v = rng.standard_normal(params.state_size)
            for _ in range(depth):
                v = apply_global_W(params, v)
            assert np.all(v == 0.0)
            w = rng.standard_normal(params.state_size)
            for _ in range(depth):
                w = apply_wt_array(params, w)
            assert np.all(w == 0.0)
            count += 1


def test_beta_drive_blocks():
    rng = np.random.default_rng(16)
    params = make_chain(rng, depth=3)
    x0 = rng.standard_normal(params.input_dim)
    beta = beta_drive(params, x0)
    offs = params.offsets
    np.testing.assert_allclose(
        beta[offs[0] : offs[1]],
        params.layers[0].weight @ x0 + params.layers[0].bias,
        rtol=0,
        atol=1e-14,
    )
    for layer in range(2, params.depth + 1):
        np.testing.assert_array_equal(beta[offs[layer - 1] : offs[layer]], params.layers[layer - 1].bias)


def test_forward_field_vanishes_at_forward_stack():
    rng = np.random.default_rng(17)
    for _ in range(50):
        params = make_chain(rng, acts=ALL_ACTS)
        x0 = rng.standard_normal(params.input_dim)
        _, stacked = forward_pass(params, x0)
        field = forward_field(params, x0, stacked)
        assert np.linalg.norm(field) <= 1e-14


def test_forward_field_unique_fixed_point():
    # Any deviation from the forward stack leaves a nonzero field.
    rng = np.random.default_rng(18)
    params = make_chain(rng, depth=3)
    x0 = rng.standard_normal(params.input_dim)
    _, stacked = forward_pass(params, x0)
    bumped = stacked + 0.1
    assert np.linalg.norm(forward_field(params, x0, bumped)) > 1e-3


def test_local_derivative_diag_matches_naive():
    rng = np.random.default_rng(19)
    for _ in range(50):
        params = make_chain(rng, acts=ALL_ACTS)
        x0 = rng.standard_normal(params.input_dim)
        m = rng.standard_normal(params.state_size)
        got = sigma_prime_array(params, apply_w_array(params, m) + beta_array(params, x0))
        pre = oracles.dense_w(params) @ m + oracles.dense_beta(params, x0)
        np.testing.assert_allclose(
            got, oracles.stack_sigma_prime(params, pre), rtol=0, atol=1e-12
        )


def test_batched_forward_matches_per_column():
    rng = np.random.default_rng(20)
    params = make_chain(rng, depth=4)
    xb = rng.standard_normal((params.input_dim, 7))
    from dyadicbp.network import forward_layers

    pres_b, acts_b = forward_layers(params, xb)
    for j in range(xb.shape[1]):
        pres_j, acts_j = forward_layers(params, xb[:, j])
        for pb, pj in zip(pres_b, pres_j):
            np.testing.assert_allclose(pb[:, j], pj, rtol=0, atol=1e-13)
        for ab, aj in zip(acts_b, acts_j):
            np.testing.assert_allclose(ab[:, j], aj, rtol=0, atol=1e-13)


def test_relu_derivative_is_zero_at_kink():
    v = np.array([-1.0, -0.0, 0.0, 1e-300, 2.0])
    d = Activation.RELU.derivative(v)
    np.testing.assert_array_equal(d, [0.0, 0.0, 0.0, 1.0, 1.0])


def test_activation_derivatives_match_finite_differences():
    rng = np.random.default_rng(21)
    v = rng.standard_normal(64)
    h = 1e-6
    for act in SMOOTH_ACTS:
        fd = (act.apply(v + h) - act.apply(v - h)) / (2 * h)
        np.testing.assert_allclose(act.derivative(v), fd, rtol=0, atol=1e-8)


def test_activation_from_name_round_trip():
    for act in ALL_ACTS:
        assert Activation.from_name(act.value) is act
        assert Activation.from_name(act.value.upper()) is act
    with pytest.raises(ValueError):
        Activation.from_name("softplus")


def test_network_params_properties():
    rng = np.random.default_rng(23)
    params = random_network(3, (4, 5, 2), Activation.TANH, rng)
    assert params.depth == 3
    assert params.widths == (4, 5, 2)
    assert params.offsets == (0, 4, 9, 11)
    assert params.state_size == 11
    assert params.output_slice == slice(9, 11)
    assert _block_slices(params)[0] == slice(0, 4)


def test_astype_round_trip_preserves_values():
    rng = np.random.default_rng(24)
    params = make_chain(rng, depth=2)
    low = params.astype(np.float32)
    assert low.dtype == np.float32
    np.testing.assert_allclose(
        low.layers[0].weight, params.layers[0].weight, rtol=0, atol=1e-7
    )


def test_random_network_init_statistics():
    rng = np.random.default_rng(25)
    params = random_network(64, (256,), Activation.TANH, rng)
    w = params.layers[0].weight
    assert abs(w.std() - 1.0 / 8.0) < 0.01
    assert np.all(params.layers[0].bias == 0.0)


def test_shape_validation_errors():
    rng = np.random.default_rng(26)
    params = make_chain(rng, depth=2)
    with pytest.raises(ShapeError):
        forward_pass(params, np.zeros(params.input_dim + 1))
    with pytest.raises(NumericError):
        forward_pass(params, np.full(params.input_dim, np.nan))
    other = make_chain(rng, depth=3)
    assert other.state_size != params.state_size
    with pytest.raises(ShapeError):
        apply_global_W(params, np.zeros(other.state_size))
    with pytest.raises(ShapeError):
        LayerParams(LayerSpec(3, Activation.TANH), np.zeros((2, 4)), np.zeros(3))
    with pytest.raises(ShapeError):
        NetworkParams(
            2,
            (
                LayerParams(LayerSpec(3, Activation.TANH), np.zeros((3, 2)), np.zeros(3)),
                LayerParams(LayerSpec(2, Activation.TANH), np.zeros((2, 5)), np.zeros(2)),
            ),
        )
    with pytest.raises(ValueError):
        LayerParams(
            LayerSpec(2, Activation.TANH), np.full((2, 2), np.inf), np.zeros(2)
        )
