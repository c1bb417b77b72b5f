"""Independent gradient oracles: classical backprop, central finite
differences, and the Neumann closed form for the stacked sensitivities.

These three share no algorithmic structure with the relaxation dynamics
and serve as the references every dynamics-derived gradient is checked
against. Backprop is one recursion (``_backprop``) on a sample or a
column batch with two assemblies: ``classical_backprop`` forms the
per-sample outer products, ``backprop_batch`` the batch means. The
Neumann series takes its sigma' from the pre-activations of its own
forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericError, ShapeError
from .losses import LossSpec, _check_target
from .network import (
    NetworkParams,
    _check_batch,
    _check_sample,
    apply_wt_array,
    forward_layers,
    sigma_prime_array,
)

__all__ = [
    "GradientBundle",
    "classical_backprop",
    "finite_difference_grad",
    "neumann_stress",
]


_NON_FINITE = "gradient bundle contains non-finite entries"


@dataclass(frozen=True, eq=False)
class GradientBundle:
    """Per-layer weight and bias gradients, the output of any gradient method."""

    weight_grads: tuple[np.ndarray, ...]
    bias_grads: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight_grads", tuple(self.weight_grads))
        object.__setattr__(self, "bias_grads", tuple(self.bias_grads))
        if len(self.weight_grads) != len(self.bias_grads):
            raise ShapeError("weight and bias gradient lists must have equal length")
        for gw, gb in zip(self.weight_grads, self.bias_grads):
            if gw.ndim != 2 or gb.ndim != 1 or gw.shape[0] != gb.shape[0]:
                raise ShapeError("gradient shapes do not form layer pairs")
            if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
                raise NumericError(_NON_FINITE)

    @property
    def depth(self) -> int:
        return len(self.weight_grads)

    def layer_flat(self, i: int) -> np.ndarray:
        """Concatenated (W, b) gradients of layer i (0-based), flattened."""
        return np.concatenate([self.weight_grads[i].ravel(), self.bias_grads[i]])

    def flat(self) -> np.ndarray:
        """Full flattened concatenation, layer by layer."""
        return np.concatenate([self.layer_flat(i) for i in range(self.depth)])


def _backprop(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec, check_input=_check_batch
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The backprop recursion on a column batch (n0, B), or on one sample
    (n0,) with ``check_input`` ``_check_sample``.

    Yields (a_{l-1}, delta_l, sens_l) for l = L, ..., 1, where
    sens_L = grad C, sens_l = W_{l+1}^T delta_{l+1} and
    delta_l = sigma'_l(z_l) . sens_l. Layer by layer, so that a batch
    can drop each delta once its gradients are formed: holding all L
    deltas and sensitivities of a 64-column batch grew the training
    loop's heap and slowed the relaxation calls between backprops.
    """
    x0 = check_input(params, x0)
    loss = _check_target(loss, params.dtype)
    pres, acts = forward_layers(params, x0)
    prev = [x0] + acts[:-1]
    sens = loss.gradient(acts[-1])
    for i in range(params.depth - 1, -1, -1):
        delta = params.layers[i].spec.activation.derivative(pres[i]) * sens
        yield prev[i], delta, sens
        if i > 0:
            sens = params.layers[i].weight.T @ delta


def classical_backprop(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec
) -> tuple[GradientBundle, np.ndarray]:
    """Classical backpropagation.

    Runs the layer recursion delta_L = grad C . sigma'_L(z_L),
    delta_l = (W_{l+1}^T delta_{l+1}) . sigma'_l(z_l) and assembles the
    outer-product gradients dC/dW_l = delta_l a_{l-1}^T, dC/db_l = delta_l.

    Returns:
        The gradient bundle and the stacked (n,) activation sensitivities
        dC/da_l (block l is W_{l+1}^T delta_{l+1} for l < L and the loss
        gradient at l = L), the quantity the stress variable of the
        doubled dynamics converges to.
    """
    layers = list(_backprop(params, x0, loss, _check_sample))[::-1]
    bundle = GradientBundle(
        tuple(np.outer(d, a) for a, d, _ in layers), tuple(d.copy() for _, d, _ in layers)
    )
    return bundle, np.concatenate([s for _, _, s in layers])


def finite_difference_grad(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec, h: float = 1e-5
) -> GradientBundle:
    """Central-difference gradient, one fresh forward pass per evaluation.

    Every parameter entry is perturbed by +/- h and the loss difference
    quotient (C(theta + h e) - C(theta - h e)) / 2h is recorded. Purely a
    test oracle; cost grows with the parameter count.
    """
    if not h > 0:
        raise ValueError("finite-difference step h must be positive")
    x0 = _check_sample(params, x0)
    theta = params._flat.astype(np.float64)  # type: ignore[attr-defined]
    layers = list(zip(params.layers, params._layer_views(theta)))

    def loss_at(k: int, value) -> float:
        theta[k] = value
        a = x0
        for lp, (w, b) in layers:
            a = lp.spec.activation.apply(w @ a + b)
        return loss.value(a)

    grad = np.empty_like(theta)
    for k, orig in enumerate(theta.copy()):  # the buffer's order: W_1 row-major, b_1, ...
        grad[k] = (loss_at(k, orig + h) - loss_at(k, orig - h)) / (2.0 * h)
        theta[k] = orig
    return GradientBundle(*zip(*params._layer_views(grad)))


def neumann_stress(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec
) -> np.ndarray:
    """Closed-form equilibrium stress via the finite Neumann series.

    Because W^T D is nilpotent of index L, the fixed point of
    s = W^T D s + g has the exact finite sum
    s = sum_{k=0}^{L-1} (W^T D)^k g, with D evaluated at the forward
    fixed point and g the loss gradient embedded in the output block.
    """
    x0 = _check_sample(params, x0)
    loss = _check_target(loss, params.dtype)
    pres, acts = forward_layers(params, x0)
    dbar = sigma_prime_array(params, np.concatenate(pres, axis=0))

    g = np.zeros_like(dbar)
    g[params.output_slice] = loss.gradient(acts[-1])
    s = g.copy()
    term = g
    for _ in range(params.depth - 1):
        term = apply_wt_array(params, dbar * term)
        s += term
    return s


def backprop_batch(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Batched classical backprop over column-stacked samples.

    Returns per-layer weight and bias gradients averaged over the batch
    (the mean of the per-sample bundles).
    """
    grads = [((d @ a.T) / a.shape[1], d.mean(axis=1)) for a, d, _ in _backprop(params, x0, loss)]
    return [w for w, _ in grads[::-1]], [b for _, b in grads[::-1]]
