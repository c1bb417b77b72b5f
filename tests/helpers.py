"""Shared random-instance builders for the test suite, thin array
entry points to the package's step and extraction kernels, the
full-state iterates of the 2L unit-step schedule, and the relaxation
loop's stopping rule as numpy ufunc tests."""

import numpy as np

from dyadicbp import (
    Activation,
    GradientBundle,
    LossKind,
    LossSpec,
    NumericError,
    RelaxConfig,
    RelaxMode,
    random_network,
    relax_mean_stress,
)
from dyadicbp.dynamics import (
    _STEPS,
    _Workspace,
    _delta_at,
    _grads_from_delta,
)
from dyadicbp.network import beta_array
from oracles import _saddle_velocity

SMOOTH_ACTS = (Activation.IDENTITY, Activation.TANH, Activation.SIGMOID)
ALL_ACTS = SMOOTH_ACTS + (Activation.RELU,)


def make_chain(
    rng,
    depth=None,
    max_width=8,
    acts=SMOOTH_ACTS,
    input_dim=None,
    dtype=np.float64,
    identity_output=False,
):
    """Draw a random chain network with the given activation pool."""
    if depth is None:
        depth = int(rng.integers(1, 6))
    if input_dim is None:
        input_dim = int(rng.integers(1, max_width + 1))
    widths = tuple(int(rng.integers(1, max_width + 1)) for _ in range(depth))
    activations = [acts[int(rng.integers(len(acts)))] for _ in range(depth)]
    if identity_output:
        activations[-1] = Activation.IDENTITY
    params = random_network(input_dim, widths, activations, rng)
    if np.dtype(dtype) != np.float64:
        params = params.astype(dtype)
    return params


def make_loss(rng, out_dim, kind=None, dtype=np.float64):
    """Draw a random loss spec with a conforming target."""
    if kind is None:
        kind = LossKind.MSE if rng.integers(2) == 0 else LossKind.SOFTMAX_CROSS_ENTROPY
    if kind is LossKind.MSE:
        target = rng.standard_normal(out_dim)
    else:
        target = np.zeros(out_dim)
        target[int(rng.integers(out_dim))] = 1.0
    return LossSpec(kind, target.astype(dtype))


def make_instance(rng, **chain_kwargs):
    """A random (params, input, loss) triple."""
    params = make_chain(rng, **chain_kwargs)
    x0 = rng.standard_normal(params.input_dim).astype(params.dtype)
    loss = make_loss(rng, params.widths[-1], dtype=params.dtype)
    return params, x0, loss


def saddle_velocities(params, x0, loss, x, z):
    """(dx, dz) of the saddle flow at the arrays (x, z), by the oracle's
    unfused velocity: the package steps this flow in (m, s) only."""
    return _saddle_velocity(params, beta_array(params, x0), loss, x, z)


def unit_step_velocities(mode, params, x0, loss, first, second):
    """The velocity of ``mode``'s flow at the state pair (first, second):
    the package's unit step from the pair minus the pair, the difference
    its step at any other eta scales and adds back."""
    beta = beta_array(params, x0)
    ws = _Workspace(beta.shape, np.result_type(beta, first, second))
    step, _ = _STEPS[mode](params, beta, loss, 1.0, ws)
    ws.state[...] = first, second
    return tuple(step() - ws.state)


def mean_stress_velocities(params, x0, loss, m, s):
    """(dm, ds) of the mean/stress flow, Dyadic's, at the arrays (m, s)."""
    return unit_step_velocities(RelaxMode.DYADIC, params, x0, loss, m, s)


def gradient_from_equilibrium(params, x0, m, s):
    """The outer-product gradient the relaxations read off the arrays (m, s)."""
    delta = _delta_at(params, beta_array(params, x0), m, s)
    return GradientBundle(*_grads_from_delta(params, x0, m, delta))


def two_phase_states(params, x0, loss):
    """The (m, s) after each of the 2L steps of the discrete two-phase
    maps: ``relax_mean_stress`` at eta = 1, seen through ``on_step``. A run
    that stops early at an exact fixed point (a zero increment) is padded
    with its last state."""
    steps = 2 * params.depth
    cfg = RelaxConfig(eta=1.0, k_max=steps, tol=1e-300)
    states = []
    relax_mean_stress(params, x0, loss, cfg, on_step=lambda k, m, s: states.append((m, s)))
    return states + states[-1:] * (steps - len(states))


def _ufunc_pair_norm(pair):
    """Summed L2 norms of the two halves of a (2, n) or (2, n, B) array,
    all in numpy: a 0-d result for one sample, (B,) for columns."""
    if pair.ndim == 2:
        norms = np.matmul(pair[:, None, :], pair[:, :, None])
        return np.add.reduce(np.sqrt(norms, out=norms), axis=None)
    squares = np.add.reduce(pair * pair, axis=1)
    return np.add.reduce(np.sqrt(squares, out=squares), axis=0)


def ufunc_stop_relax(params, beta, loss, cfg):
    """The relaxation loop with its stopping rule written as numpy ufunc
    tests on a 0-d or (B,) delta, as the package once wrote it for one
    sample and columns alike: the tolerance and the 1e3 tol gate are
    Python floats that numpy casts to the state's dtype (NEP 50), and eta
    a Python float. Returns the final pair of the package's own step,
    the iterations and the converged and floored flags per column."""
    columns = beta.shape[1:]
    ws = _Workspace(beta.shape, beta.dtype)
    steps = _STEPS[cfg.mode](params, beta, loss, cfg.eta, ws)
    pairs = (ws.state, ws.next)  # step k goes from pairs[(k - 1) % 2] to pairs[k % 2]
    active = np.ones(columns, dtype=bool)
    iterations = np.full(columns, cfg.k_max)
    converged = np.zeros(columns, dtype=bool)
    floored = np.zeros(columns, dtype=bool)
    gate = 1e3 * cfg.tol
    scale = 16 * np.finfo(beta.dtype).eps
    previous = np.inf
    frozen = None
    every, some = np.logical_and.reduce, np.logical_or.reduce
    for k in range(1, cfg.k_max + 1):
        state = pairs[(k - 1) % 2]
        cand = steps[(k - 1) % 2]()
        delta = _ufunc_pair_norm(cand - state)
        finite = np.isfinite(delta)
        if not every(finite, axis=None) and some(active & ~finite, axis=None):
            raise NumericError("non-finite step delta")
        if frozen is not None:
            np.copyto(cand, state, where=frozen)
        near = delta < gate
        if some(near, axis=None):
            done = delta < cfg.tol
            stalled = near & (delta >= previous) & active & ~done
            if some(stalled, axis=None):
                # The state norms of the stalled columns only.
                if columns:
                    cols = np.flatnonzero(stalled)
                    stalled = np.zeros_like(stalled)
                    stalled[cols] = delta[cols] < scale * _ufunc_pair_norm(cand[:, :, cols])
                else:
                    stalled = stalled & (delta < scale * _ufunc_pair_norm(cand))
                floored |= stalled
                done |= stalled
            if some(done, axis=None):
                newly = active & done
                iterations[newly] = k
                converged |= newly
                active &= ~newly
                if not some(active, axis=None):
                    break
                frozen = ~active
        previous = delta
    return cand.copy(), iterations, converged, floored
