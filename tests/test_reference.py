"""The gradient oracles against each other and against closed forms."""

import numpy as np
import pytest

import oracles
from helpers import SMOOTH_ACTS, make_chain, make_instance, make_loss
from dyadicbp import (
    Activation,
    GradientBundle,
    LossKind,
    LossSpec,
    NumericError,
    ShapeError,
    classical_backprop,
    finite_difference_grad,
    forward_pass,
    neumann_stress,
    random_network,
)
from dyadicbp.reference import backprop_batch


def _rel(bundle, ref):
    t = bundle.flat()
    r = ref.flat()
    return np.linalg.norm(t - r) / np.linalg.norm(r)


def test_backprop_matches_finite_differences_smooth():
    rng = np.random.default_rng(41)
    for _ in range(25):
        params, x0, loss = make_instance(rng, max_width=5)
        bundle, _ = classical_backprop(params, x0, loss)
        fd = finite_difference_grad(params, x0, loss)
        if np.linalg.norm(bundle.flat()) == 0.0:
            assert np.linalg.norm(fd.flat()) <= 1e-9
            continue
        assert _rel(fd, bundle) <= 1e-5


def test_backprop_matches_finite_differences_relu():
    # ReLU gradients are exact away from the kinks; keep only instances
    # whose pre-activations clear the finite-difference step by a wide
    # margin so both sides differentiate the same linear piece.
    rng = np.random.default_rng(42)
    h = 1e-5
    accepted = 0
    while accepted < 10:
        params = make_chain(rng, acts=(Activation.RELU,), identity_output=True)
        x0 = rng.standard_normal(params.input_dim)
        from dyadicbp.network import forward_layers

        pres, _ = forward_layers(params, x0)
        if min(np.abs(p).min() for p in pres) < 1e3 * h:
            continue
        loss = make_loss(rng, params.widths[-1], kind=LossKind.MSE)
        bundle, _ = classical_backprop(params, x0, loss)
        fd = finite_difference_grad(params, x0, loss, h=h)
        assert _rel(fd, bundle) <= 1e-5
        accepted += 1


def test_backprop_matches_dense_neumann_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        params, x0, loss = make_instance(rng)
        bundle, sens = classical_backprop(params, x0, loss)
        ws, bs, s = oracles.neumann_bp(params, x0, loss.kind, loss.target)
        oracle = GradientBundle(tuple(ws), tuple(bs))
        denom = max(np.linalg.norm(oracle.flat()), 1e-30)
        assert np.linalg.norm(bundle.flat() - oracle.flat()) / denom <= 1e-12 or (
            np.linalg.norm(oracle.flat()) == 0.0 and np.linalg.norm(bundle.flat()) <= 1e-15
        )
        np.testing.assert_allclose(sens, s, rtol=0, atol=1e-12 * max(1, np.abs(s).max()))


def test_single_linear_layer_closed_form():
    # L=1 identity with MSE: grad W = (Wx + b - y) x^T, grad b = residual.
    rng = np.random.default_rng(44)
    params = random_network(3, (2,), Activation.IDENTITY, rng, bias_std=0.5)
    x0 = rng.standard_normal(3)
    y = rng.standard_normal(2)
    bundle, sens = classical_backprop(params, x0, LossSpec(LossKind.MSE, y))
    residual = params.layers[0].weight @ x0 + params.layers[0].bias - y
    np.testing.assert_allclose(bundle.weight_grads[0], np.outer(residual, x0), atol=1e-14)
    np.testing.assert_allclose(bundle.bias_grads[0], residual, atol=1e-14)
    np.testing.assert_allclose(sens, residual, atol=1e-14)


def test_sensitivities_output_block_is_loss_gradient():
    rng = np.random.default_rng(45)
    params, x0, loss = make_instance(rng)
    acts, _ = forward_pass(params, x0)
    _, sens = classical_backprop(params, x0, loss)
    np.testing.assert_array_equal(sens[params.output_slice], loss.gradient(acts[-1]))


def test_neumann_stress_equals_backprop_sensitivities():
    rng = np.random.default_rng(46)
    for _ in range(50):
        params, x0, loss = make_instance(rng)
        _, sens = classical_backprop(params, x0, loss)
        s = neumann_stress(params, x0, loss)
        scale = max(1.0, float(np.abs(sens).max()))
        np.testing.assert_allclose(s, sens, rtol=0, atol=1e-12 * scale)


def test_zero_loss_gradient_gives_zero_bundle():
    rng = np.random.default_rng(47)
    params = make_chain(rng, identity_output=True)
    x0 = rng.standard_normal(params.input_dim)
    acts, _ = forward_pass(params, x0)
    loss = LossSpec(LossKind.MSE, acts[-1].copy())
    bundle, sens = classical_backprop(params, x0, loss)
    assert np.linalg.norm(bundle.flat()) == 0.0
    assert np.linalg.norm(sens) == 0.0


def test_finite_difference_step_validation():
    rng = np.random.default_rng(48)
    params, x0, loss = make_instance(rng, depth=1)
    with pytest.raises(ValueError):
        finite_difference_grad(params, x0, loss, h=0.0)


def test_backprop_batch_matches_per_sample_mean():
    rng = np.random.default_rng(49)
    for kind in LossKind:
        params = make_chain(rng, depth=3, identity_output=True)
        batch = 5
        xb = rng.standard_normal((params.input_dim, batch))
        out_dim = params.widths[-1]
        if kind is LossKind.MSE:
            targets = rng.standard_normal((out_dim, batch))
        else:
            targets = np.zeros((out_dim, batch))
            targets[rng.integers(out_dim, size=batch), np.arange(batch)] = 1.0
        ws, bs = backprop_batch(params, xb, LossSpec(kind, targets))
        acc_w = [np.zeros_like(w) for w in ws]
        acc_b = [np.zeros_like(b) for b in bs]
        for j in range(batch):
            bundle, _ = classical_backprop(params, xb[:, j], LossSpec(kind, targets[:, j]))
            for i in range(params.depth):
                acc_w[i] += bundle.weight_grads[i]
                acc_b[i] += bundle.bias_grads[i]
        for i in range(params.depth):
            np.testing.assert_allclose(ws[i], acc_w[i] / batch, rtol=0, atol=1e-13)
            np.testing.assert_allclose(bs[i], acc_b[i] / batch, rtol=0, atol=1e-13)


def test_gradient_bundle_interface():
    rng = np.random.default_rng(50)
    params = make_chain(rng, depth=3)
    zero = GradientBundle(
        tuple(np.zeros_like(lp.weight) for lp in params.layers),
        tuple(np.zeros_like(lp.bias) for lp in params.layers),
    )
    assert zero.depth == params.depth
    assert np.linalg.norm(zero.flat()) == 0.0
    assert zero.flat().shape[0] == sum(
        lp.weight.size + lp.bias.size for lp in params.layers
    )
    with pytest.raises(ShapeError):
        GradientBundle((np.zeros((2, 2)),), (np.zeros(2), np.zeros(2)))
    with pytest.raises(ShapeError):
        GradientBundle((np.zeros((2, 2)),), (np.zeros(3),))
    with pytest.raises(NumericError):
        GradientBundle((np.full((2, 2), np.nan),), (np.zeros(2),))


def test_neumann_stress_checks_the_target_dtype():
    # A float64 target with float32 params would put a float64 loss
    # gradient into float32 stress; classical_backprop rejects it too.
    rng = np.random.default_rng(47)
    params = random_network(3, (4, 2), Activation.TANH, rng, dtype=np.float32)
    x0 = rng.standard_normal(3).astype(np.float32)
    with pytest.raises(ShapeError):
        neumann_stress(params, x0, LossSpec(LossKind.MSE, np.zeros(2)))
    with pytest.raises(ShapeError):
        classical_backprop(params, x0, LossSpec(LossKind.MSE, np.zeros(2)))
    onehot = np.array([0, 1])
    got = neumann_stress(params, x0, LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, onehot))
    want = neumann_stress(
        params, x0, LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, onehot.astype(np.float32))
    )
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
