"""Doubled-state saddle dynamics: the energy and the relaxations, which
return the gradient they extract from their equilibrium.

The doubled state is the pair (x, z) of stacked (n,) arrays; the
derived coordinates are the mean m = (x + z) / 2, which relaxes to the
forward activations, and the stress s = x - z, which relaxes to the
stacked loss sensitivities. Forward Euler with unit step turns the flow
into two exact discrete maps (the inertial term cancels), so the mean
settles layer by layer in L steps and the stress flushes to the exact
backprop sensitivities in the following L steps.

One Euler loop, ``_relax``, runs both convergence-driven schemes (Dyadic,
Split) for a single sample or a column batch: it starts from zero,
takes the scheme's Euler step, freezes each column once its increment
drops below the tolerance or stalls at the rounding noise of its state
(the precision floor), and hands each update's stepped pair to an
``on_step`` observer when given one (``_trajectory`` records from it).
Dyadic steps the flow of (x, z) in its mean/stress coordinates
(dm = (dx + dz) / 2 and ds = dx - dz), by one kernel at every step
size: it writes the cancelled two-phase map, which at unit step is the
step and returns backprop's bits, and at any other step size blends
the state toward it (``_mean_stress_steps``). ``relax_mean_stress``
observes that stepped (m, s); ``relax_dyadic`` forms
(x, z) = (m + s/2, m - s/2) from it for its ``on_step`` observer. Split
has no mean/stress form and steps (x, z) under its velocity field
(``_split_steps``).
Each column reports why it stopped as a ``RelaxStatus``. TwoL runs the
exact 2L schedule instead, as an O(L) block wavefront on per-layer
blocks (``_twoL_wavefront``), for a sample and a batch alike: it builds
no state-sized array and forms each layer's gradient as its delta
arrives. All relaxation modes extract the gradient from the final
(m, s) by the same per-layer rule (``_layer_grads``): outer products
for one sample, their batch means for columns.

The convergence-driven steps write into a per-call workspace
(``_Workspace``) of state-sized buffers and evaluate sigma and sigma' in
one pass per run of layers that share an activation. The relaxing pair
is one (2, n) or (2, n, B) array, so the Euler update, the increment and
its norms run once per step over both halves. Each call binds its
scheme's step once (``_STEPS``), for both sides of the state swap: a
closure over every buffer, block-matmul view, activation run, loss
temporary and constant, so a step looks up no buffer or view. It
allocates nothing state-sized; its floats are the unfused per-layer step's.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import INTEGER, ConfigError, NumericError, ShapeError, enum_from_name
from .losses import LossSpec, _bind_gradient, _check_target
from .network import (
    NetworkParams,
    _bias_like,
    _bind_sigma_pair,
    _block_plan,
    _block_slices,
    _check_batch,
    _check_sample,
    _check_state,
    _run_block_plan,
    _sigma_pair,
    _sigma_pair_array,
    apply_w_array,
    apply_wt_array,
    beta_array,
    forward_layers,
    sigma_array,
    sigma_prime_array,
)
from .reference import GradientBundle

__all__ = [
    "RelaxMode",
    "RelaxConfig",
    "RelaxStatus",
    "RelaxTrace",
    "StabilityReport",
    "energy",
    "relax_dyadic",
    "relax_mean_stress",
    "relax_twoL",
    "relax_split",
    "stability_check",
]

StepCallback = Callable[[int, np.ndarray, np.ndarray], None]


class RelaxMode(enum.Enum):
    """Which relaxation scheme a RelaxConfig drives."""

    DYADIC = "Dyadic"
    TWO_L = "TwoL"
    SPLIT = "Split"

    @classmethod
    def from_name(cls, name: str) -> "RelaxMode":
        return enum_from_name(cls, name, "relaxation mode")


@dataclass(frozen=True)
class RelaxConfig:
    """Step size, iteration budget, tolerance, and scheme selection."""

    eta: float = 1.0
    k_max: int = 1000
    tol: float = 1e-6
    mode: RelaxMode = RelaxMode.DYADIC

    def __post_init__(self) -> None:
        if not 0 < self.eta < np.inf:
            raise ConfigError("step size eta must be positive and finite")
        if self.eta > 1:
            warnings.warn(
                "eta > 1 is outside the analyzed step-size range", RuntimeWarning
            )
        if INTEGER("k_max", self.k_max) < 1:
            raise ConfigError("k_max must be at least 1")
        if not 0 < self.tol < np.inf:
            raise ConfigError("tolerance must be positive and finite")


class RelaxStatus(enum.Enum):
    """Why a relaxation (or one column of a batch) stopped.

    CONVERGED: the step delta fell below the tolerance. PRECISION_FLOOR:
    the delta stopped shrinking within 1e3 tolerances, at the rounding
    noise of the state's own norm, so the tolerance could not be met in
    this precision. OUT_OF_BUDGET: k_max updates ran without either. The
    first two count as converged.
    """

    CONVERGED = "converged"
    PRECISION_FLOOR = "precision floor"
    OUT_OF_BUDGET = "out of budget"


@dataclass
class RelaxTrace:
    """How one relaxation run ended.

    ``iterations_used`` is the number of Euler updates performed,
    ``status`` says why the run stopped (see ``_relax``), and
    ``converged`` is true unless it ran out of budget. An ``on_step``
    observer sees the state of every update.
    """

    iterations_used: int = 0
    status: RelaxStatus = RelaxStatus.OUT_OF_BUDGET

    @property
    def converged(self) -> bool:
        return self.status is not RelaxStatus.OUT_OF_BUDGET


@dataclass(frozen=True)
class StabilityReport:
    """Nilpotency residuals of the block structure of W.

    Both linearization blocks are (nilpotent - identity): the mean block
    is D(m) W - I and the stress block is W^T D(m) - I, so applying
    (J + I) L times must annihilate any vector. The residuals are the
    largest norms remaining after L applications over random unit
    probes. Each application moves the exact zeros W writes into block 1
    (W^T: block L) one block on, so for finite parameters both are 0.0
    whatever D(m) is: they check the block structure of W, not the
    transient of the linearization at the forward point.
    """

    depth: int
    n_probes: int
    max_forward_residual: float
    max_backward_residual: float


class _Workspace:
    """The buffers every convergence-driven step of one relaxation call
    shares. The relaxing pair, (x, z) or (m, s), alternates between
    ``state`` and ``next``, two (2, n) or (2, n, B) arrays; ``pre`` and
    ``dsig`` hold a step's pre-activation and sigma', and ``diff`` the
    increment. Split's other temporaries are made by its binder. Binding
    steps writes the zero rows W and W^T leave empty, the sigma' = 1 of
    Identity runs and (the mean/stress step) both pairs' second output
    rows: load a state after it."""

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype) -> None:
        self.pre = np.empty(shape, dtype=dtype)
        self.dsig = np.empty_like(self.pre)
        self.state = np.zeros((2, *shape), dtype=dtype)
        self.next = np.zeros_like(self.state)
        self.diff = np.empty_like(self.state)


Step = Callable[[], np.ndarray]  # a bound Euler step; returns the pair it wrote


def _bind_pre_activation(
    params: NetworkParams, beta: np.ndarray, v: np.ndarray, pre: np.ndarray
) -> Callable[[], None]:
    """A closure writing W v + beta into ``pre``; block 1 is 0 + beta_1, as
    in the sum of arrays, zeroed on every call (steps write ``pre``)."""
    plan = _block_plan(params, v, pre)
    first = pre[_block_slices(params)[0]]

    def pre_activation() -> None:
        first.fill(0)
        _run_block_plan(plan)
        np.add(pre, beta, pre)

    return pre_activation


def _energy_ms(
    params: NetworkParams,
    beta: np.ndarray,
    loss: LossSpec,
    m: np.ndarray,
    s: np.ndarray,
    sig: Optional[np.ndarray] = None,
):
    """Energy in mean/stress coordinates: s . (sigma(Wm + beta) - m) + C(m_L);
    ``sig`` is sigma(Wm + beta) if the caller has it, and is overwritten."""
    if sig is None:
        sig = sigma_array(params, apply_w_array(params, m) + beta)
    lift = np.add.reduce(np.multiply(s, np.subtract(sig, m, out=sig), out=sig), axis=0)
    value = lift + loss.value(m[params.output_slice])
    if not np.isfinite(value).all():
        raise NumericError("energy is not finite")
    return float(value) if m.ndim == 1 else value


def energy(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec, x: np.ndarray, z: np.ndarray
) -> float:
    """Saddle energy E(x, z) of the doubled state, two (n,) arrays.

    E couples the stress to the forward residual of the mean and adds
    the task loss at the mean's output block, so at any point with
    x = z (zero stress) the energy is exactly the task loss.
    """
    x0 = _check_sample(params, x0)
    loss = _check_target(loss, params.dtype)
    x, z = _check_state(params, x), _check_state(params, z)
    beta = beta_array(params, x0)
    return _energy_ms(params, beta, loss, 0.5 * (x + z), x - z)


def _delta_at(
    params: NetworkParams, beta: np.ndarray, m: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Pre-activation errors D(m) s at a state (m, s)."""
    return sigma_prime_array(params, apply_w_array(params, m) + beta) * s


def _layer_grads(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(weight_grads, bias_grads), in the order of the (m_{l-1}, delta_l)
    ``pairs``, by the engine's one gradient rule: delta m^T and delta for
    one sample, as ``classical_backprop`` forms them, and their batch
    means for columns, (delta @ m^T) / B and the row sums of delta over
    B, each divided in place. Those are the floats of ``backprop_batch``'s
    ``mean(axis=1)`` at about half its cost. Each pair is consumed as it
    arrives."""
    weight_grads, bias_grads = [], []
    for prev, delta in pairs:
        if prev.ndim == 1:
            weight_grads.append(np.multiply(delta[:, None], prev))  # np.outer's definition
            bias_grads.append(delta.copy())
        else:
            batch = prev.shape[1]
            weight_grad, bias_grad = delta @ prev.T, np.add.reduce(delta, axis=1)
            weight_grad /= batch
            bias_grad /= batch
            weight_grads.append(weight_grad)
            bias_grads.append(bias_grad)
    return weight_grads, bias_grads


def _grads_from_delta(
    params: NetworkParams, x0: np.ndarray, m: np.ndarray, delta: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``_layer_grads`` of the stacked (n[, B]) m and delta."""
    slices = _block_slices(params)
    prevs = [x0] + [m[sl] for sl in slices[:-1]]
    return _layer_grads(zip(prevs, (delta[sl] for sl in slices)))


def _twoL_wavefront(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The 2L unit-step schedule on (n0,) or (n0, B) ``x0``, block by block.

    Yields (m_{l-1}, m_l, delta_l, s_l) of its final state for
    l = L, ..., 1, with m_0 = x0. W is nilpotent: mean block l is final
    from step l, stress block l from step 2L - l + 1, and no step reads
    any other block value. So only the settling block of each step is
    computed: L forward block steps m_l = sigma(W_l m_{l-1} + b_l) that
    keep sigma' of the same pre-activation, then s_L = grad C(m_L) and
    delta_l = sigma'_l s_l with L - 1 backward block steps
    s_{l-1} = W_l^T delta_l. These are backprop's floating-point
    operations in backprop's order, so the outputs equal it bitwise.

    Every array is one layer's block: the matmul result takes the bias
    and becomes m_l in place, sigma'_l becomes delta_l, and each is
    dropped once the caller has consumed it, so no (state_size[, B])
    array is built.
    """
    means, dsigs = [x0], []
    for lp in params.layers:
        pre = lp.weight @ means[-1]
        pre += _bias_like(lp.bias, x0)
        dsig = np.empty_like(pre)
        _sigma_pair(lp.spec.activation, pre, pre, dsig)
        means.append(pre)
        dsigs.append(dsig)
    s = loss.gradient(means[-1])
    for i in range(params.depth - 1, -1, -1):
        m = means.pop()
        delta = dsigs.pop()
        delta *= s
        yield means[-1], m, delta, s
        if i:
            s = params.layers[i].weight.T @ delta


def _mean_stress_steps(
    params: NetworkParams, beta: np.ndarray, loss: LossSpec, eta, ws: _Workspace
) -> tuple[Step, Step]:
    """The Euler steps in mean/stress coordinates from ``ws.state`` into
    ``ws.next`` and back. Each writes the unit-step map of TwoL,
    F = (sigma(Wm + beta), W^T D(m) s + grad C(m_L)), into the candidate
    pair, and at eta != 1 blends it, (F - state) * eta + state over both
    halves: the floats of state + eta * velocity, as F - state is the
    velocity (at the output rows a zero of g - s may differ in sign from
    (0 - s) + g only where adding s back gives +0.0 either way). Unit is
    eta == 1 before the cast, so an eta that only rounds to 1 blends."""
    pre, dsig = ws.pre, ws.dsig
    out = params.output_slice
    blend = eta != 1.0
    eta = np.full((), eta, dtype=ws.state.dtype)

    def side(state: np.ndarray, nxt: np.ndarray) -> Step:
        (m, s), (m_next, s_next) = state, nxt
        pre_activation = _bind_pre_activation(params, beta, m, pre)
        sigma_pair = _bind_sigma_pair(params, pre, m_next, dsig)
        w_t = partial(_run_block_plan, _block_plan(params, pre, s_next, transpose=True))
        gradient = _bind_gradient(loss, m[out], s_next[out])

        def step() -> np.ndarray:
            pre_activation()
            sigma_pair()
            np.multiply(dsig, s, pre)
            w_t()
            gradient()
            if blend:
                np.subtract(nxt, state, nxt)
                np.multiply(nxt, eta, nxt)
                np.add(nxt, state, nxt)
            return nxt

        return step

    return side(ws.state, ws.next), side(ws.next, ws.state)


def _split_steps(
    params: NetworkParams, beta: np.ndarray, loss: LossSpec, eta, ws: _Workspace
) -> tuple[Step, Step]:
    """The Euler steps of Split's (x, z) from ``ws.state`` into ``ws.next``
    and back: the velocity (dx, dz) into the candidate pair, then
    state + eta * velocity for both halves at once (IEEE addition
    commutes), with eta cast to the state's dtype here, as numpy would
    cast it. The temporaries are made once per call."""
    pre, dsig = ws.pre, ws.dsig
    m, s, sig, wt = np.empty((4, *pre.shape), dtype=pre.dtype)
    half = np.full((), 0.5, dtype=pre.dtype)
    eta = np.full((), eta, dtype=pre.dtype)
    out = params.output_slice
    # sigma and sigma' of x's pre-activation, then of z's into m (Split has
    # no mean). Halving keeps the +0.0 rows of wt that W^T leaves empty.
    sigma_x = _bind_sigma_pair(params, pre, sig, dsig)
    sigma_z = _bind_sigma_pair(params, pre, m, dsig)
    w_t = partial(_run_block_plan, _block_plan(params, pre, wt, transpose=True))
    mid, half_g = np.empty((2, *pre[out].shape), dtype=pre.dtype)
    gradient = _bind_gradient(loss, mid, half_g)

    def side(state: np.ndarray, nxt: np.ndarray) -> Step:
        (x, z), (dx, dz) = state, nxt
        x_out, z_out, dx_out, dz_out = x[out], z[out], dx[out], dz[out]
        pre_x = _bind_pre_activation(params, beta, x, pre)
        pre_z = _bind_pre_activation(params, beta, z, pre)

        def step() -> np.ndarray:
            np.add(x_out, z_out, mid)
            np.multiply(mid, half, mid)
            gradient()
            np.multiply(half_g, half, half_g)
            np.subtract(x, z, s)
            pre_x()
            sigma_x()
            np.multiply(dsig, s, pre)
            w_t()
            np.multiply(wt, half, wt)  # half_back of x
            pre_z()
            sigma_z()
            np.add(sig, m, sig)
            np.multiply(sig, half, sig)  # the averaged drive
            np.subtract(sig, x, dx)
            np.add(dx, wt, dx)
            np.add(dx_out, half_g, dx_out)
            np.multiply(dsig, s, pre)
            w_t()
            np.multiply(wt, half, wt)  # half_back of z
            np.subtract(sig, z, dz)
            np.subtract(dz, wt, dz)
            np.subtract(dz_out, half_g, dz_out)
            np.multiply(nxt, eta, nxt)
            np.add(nxt, state, nxt)
            return nxt

        return step

    return side(ws.state, ws.next), side(ws.next, ws.state)


# The Euler steps of each convergence-driven scheme, bound once per call:
# ``_STEPS[mode](params, beta, loss, eta, ws)``. Dyadic steps (m, s);
# Split steps the doubled state (x, z).
_STEPS = {RelaxMode.DYADIC: _mean_stress_steps, RelaxMode.SPLIT: _split_steps}


def _bind_pair_norm(pair: np.ndarray) -> Callable[[], object]:
    """A closure returning the summed L2 norms of the two halves of a (2, n)
    or (2, n, B) ``pair``, per column, each with np.linalg.norm's bits. One
    sample keeps the vector norm's sqrt(v . v) (summing its squares along
    the rows would add in another order), both halves in one batched
    matmul, as a Python float. Columns square ``pair`` in place and sum
    along the rows, into a new (B,) array per call."""
    add, sqrt = np.add.reduce, np.sqrt
    norms = np.empty((2, 1, 1) if pair.ndim == 2 else (2, *pair.shape[2:]), dtype=pair.dtype)
    if pair.ndim == 2:
        rows, cols = pair[:, None, :], pair[:, :, None]
        return lambda: float(add(sqrt(np.matmul(rows, cols, norms), norms), None))
    return lambda: add(sqrt(add(np.multiply(pair, pair, pair), 1, None, norms), norms), 0)


# The precision floor of ``_relax``: its gate in tolerances and its
# width in eps of the state's norm.
_FLOOR_GATE = 1e3
_FLOOR_ULPS = 16


def _check_eta(eta: float, dtype: np.dtype) -> None:
    """ConfigError if ``eta`` casts to 0.0 in ``dtype``: every step a no-op."""
    if dtype.type(eta) == 0:
        raise ConfigError(f"step size eta {eta!r} is 0 in {dtype.name}")


def _limits(cfg: RelaxConfig, dtype: np.dtype) -> tuple[float, float]:
    """The tolerance and the floor's gate, 1e3 tol, cast to ``dtype`` as
    numpy casts a Python float it compares with a ``dtype`` delta (NEP 50),
    as Python floats. One that casts to 0.0 (float32 below the smallest
    subnormal) becomes that subnormal, so that an exact fixed point, delta
    0.0, still stops; no representable tolerance changes."""
    tiny = float(np.finfo(dtype).smallest_subnormal)
    return float(dtype.type(cfg.tol)) or tiny, float(dtype.type(_FLOOR_GATE * cfg.tol)) or tiny


def _below_floor(delta, stalled, state: np.ndarray, scale):
    """Which ``stalled`` columns have delta < ``scale`` (|first| + |second|)
    for the two halves of a (2, n, B) ``state``.

    The norms are taken only over the stalled columns of the state.
    """
    cols = np.flatnonzero(stalled)
    below = np.zeros_like(stalled)
    below[cols] = delta[cols] < scale * _bind_pair_norm(state[:, :, cols])()
    return below


def _mean_stress(a: np.ndarray, b: np.ndarray, doubled: bool) -> tuple[np.ndarray, np.ndarray]:
    """(m, s) of a stepped pair: (0.5 (x + z), x - z) of Split's (x, z)."""
    return (0.5 * (a + b), a - b) if doubled else (a, b)


def _relax(
    params: NetworkParams,
    beta: np.ndarray,
    loss: LossSpec,
    cfg: RelaxConfig,
    step: Callable[..., tuple[Step, Step]],
    on_step: Optional[StepCallback] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Euler-relax an (n,) or (n, B) state from zero under ``step``, one of
    ``_STEPS``, which binds the steps on the call's workspace.

    The state is (m, s), or (x, z) in Split mode, and a column's delta
    is the summed L2 norm of its two increments. A column freezes
    once its delta drops below the tolerance (converged), or at the
    precision floor: when its delta is below 1e3 tol, no smaller than
    its previous delta, and below 16 eps (|first| + |second|) of its
    new state, the rounding noise of the state itself, so that a
    tolerance below that noise cannot stall it until k_max. The 1e3 tol
    gate keeps a state that grows without bound (whose noise grows with
    it) from passing as settled, and keeps the state norms, taken only
    for columns past both cheap tests, off the path of a run whose
    deltas keep falling. A non-finite increment in a running column
    raises NumericError, and an eta that casts to 0.0 in the state's
    dtype (every step a no-op) raises ConfigError.

    ``on_step`` receives (k, first, second) copies of the stepped pair
    after each update, the only way to watch the loop. Returns the final
    (m, s) and per column the iterations, the converged flag (either
    stop) and the floored flag (the precision floor); a column with
    neither flag ran out of budget at k_max.

    The pair lives in one (2, n) or (2, n, B) array of a workspace made
    per call (``_Workspace``), so the Euler update, the increment, its
    norms, the frozen-column copy and the floor's state norms each run
    once per step over both halves, and a step allocates no state-sized
    array. Odd steps go from ``ws.state`` to ``ws.next``, even steps back.
    The tolerance and gate (``_limits``) and the floor's scale are cast to
    the state's dtype once per call; ``step`` takes ``cfg.eta`` uncast and
    casts it. A sample's delta is then tested as a Python float, and (B,)
    columns by masked ufuncs.
    """
    doubled = cfg.mode is RelaxMode.SPLIT
    columns = beta.shape[1:]
    dtype = beta.dtype
    _check_eta(cfg.eta, dtype)
    ws = _Workspace(beta.shape, dtype)
    active = np.ones(columns, dtype=bool)
    iterations = np.full(columns, cfg.k_max)
    converged = np.zeros(columns, dtype=bool)
    floored = np.zeros(columns, dtype=bool)
    tol, gate = _limits(cfg, dtype)
    scale = _FLOOR_ULPS * np.finfo(dtype).eps
    previous = math.inf
    frozen = None  # the mask of frozen columns, once some column froze
    every, some = np.logical_and.reduce, np.logical_or.reduce
    forward, back = step(params, beta, loss, cfg.eta, ws)
    sides = ((back, ws.next, ws.state), (forward, ws.state, ws.next))  # by k & 1
    diff = ws.diff
    norm = _bind_pair_norm(diff)

    for k in range(1, cfg.k_max + 1):
        advance, old, state = sides[k & 1]
        advance()
        np.subtract(state, old, diff)
        delta = norm()
        if columns:
            # The masked tests run only once some delta is non-finite or
            # below the floor's gate, so running columns pay two per step.
            finite = np.isfinite(delta)
            diverged = not every(finite) and some(active & ~finite)
        else:
            diverged = not math.isfinite(delta)
        if diverged:
            raise NumericError("relaxation state diverged (non-finite step delta)")
        if frozen is not None:  # frozen columns keep their state
            np.copyto(state, old, where=frozen)
        if on_step is not None:
            on_step(k, state[0].copy(), state[1].copy())
        if not columns:
            # Stop below tol, or at the floor: a stall below the gate that
            # is within the rounding noise of the new state.
            if delta < gate and (
                delta < tol
                or delta >= previous and delta < scale * _bind_pair_norm(state)()
            ):
                iterations[()] = k
                converged[()] = True
                floored[()] = delta >= tol
                break
        elif some(near := delta < gate):
            done = delta < tol
            # A frozen column's delta, a step from the same state each time,
            # stays flat: only running columns can stall.
            stalled = near & (delta >= previous) & active
            if some(stalled):
                stalled = _below_floor(delta, stalled & ~done, state, scale)
                floored |= stalled
                done |= stalled
            if some(done):
                newly = active & done
                iterations[newly] = k
                converged |= newly
                active &= ~newly
                if not some(active):
                    break
                frozen = ~active
        previous = delta
    return (*_mean_stress(*state, doubled), iterations, converged, floored)


def _prepare(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec, batch: bool = False
) -> tuple[np.ndarray, LossSpec]:
    """Checked input (n0,) and target (n_L,) of one sample, or (n0, B) and
    (n_L, B) of a column batch."""
    x0 = (_check_batch if batch else _check_sample)(params, x0)
    expected = (params.widths[-1],) + x0.shape[1:]
    if loss.target.shape != expected:
        raise ShapeError(f"loss target has shape {loss.target.shape}, expected {expected}")
    return x0, _check_target(loss, params.dtype)


def _relax_sample(
    params: NetworkParams,
    x0: np.ndarray,
    loss: LossSpec,
    cfg: RelaxConfig,
    on_step: Optional[StepCallback],
    mode: RelaxMode,
    caller: str,
) -> tuple[np.ndarray, np.ndarray, GradientBundle, RelaxTrace]:
    """A single-sample relaxation of ``mode``: ``on_step`` observes the
    stepped pair, and the energy of the returned state is checked
    (NumericError if not finite)."""
    if cfg.mode is not mode:
        raise ConfigError(f"{caller} requires mode {mode.value}, got {cfg.mode.value}")
    x0, loss = _prepare(params, x0, loss)
    beta = beta_array(params, x0)
    trace = RelaxTrace()
    m, s, iters, conv, floored = _relax(params, beta, loss, cfg, _STEPS[mode], on_step)
    # sigma and sigma' at the final pre-activation, for the energy and delta.
    sig, dsig = np.empty_like(m), np.empty_like(m)
    _sigma_pair_array(params, apply_w_array(params, m) + beta, sig, dsig)
    _energy_ms(params, beta, loss, m, s, sig)
    trace.iterations_used = int(iters)
    if floored:
        trace.status = RelaxStatus.PRECISION_FLOOR
    elif conv:
        trace.status = RelaxStatus.CONVERGED
    bundle = GradientBundle(*_grads_from_delta(params, x0, m, np.multiply(dsig, s, out=dsig)))
    return m, s, bundle, trace


def _trajectory(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec, cfg: RelaxConfig
) -> tuple[RelaxTrace, list[tuple[float, float, tuple[float, ...]]]]:
    """The single-sample relaxation of ``cfg.mode`` and one row per update:
    (delta, energy, per-layer stress norms) of its stepped pair, (m, s),
    or Split's (x, z) with (m, s) = (0.5 (x + z), x - z), as ``_relax``
    forms them. The delta is the loop's norm of the increment from the
    previous pair, from the all-zero pair the loop starts at. The first
    non-finite energy raises NumericError at its update."""
    x0, loss = _prepare(params, x0, loss)
    beta = beta_array(params, x0)
    doubled = cfg.mode is RelaxMode.SPLIT
    previous = np.zeros((2, params.state_size), dtype=beta.dtype)
    diff = np.empty_like(previous)
    norm, blocks = _bind_pair_norm(diff), _block_slices(params)
    rows = []

    def record(k: int, first: np.ndarray, second: np.ndarray) -> None:
        np.subtract((first, second), previous, diff)
        previous[0], previous[1] = first, second
        m, s = _mean_stress(first, second, doubled)
        stress = tuple(float(np.linalg.norm(s[sl])) for sl in blocks)
        rows.append((norm(), _energy_ms(params, beta, loss, m, s), stress))

    trace = _relax_sample(params, x0, loss, cfg, record, cfg.mode, "_trajectory")[3]
    return trace, rows


def _doubled(on_step: StepCallback) -> StepCallback:
    """``on_step`` fed (k, x, z) = (k, m + s/2, m - s/2) for (k, m, s)."""
    return lambda k, m, s: on_step(k, m + 0.5 * s, m - 0.5 * s)


def relax_dyadic(
    params: NetworkParams,
    x0: np.ndarray,
    loss: LossSpec,
    cfg: RelaxConfig,
    on_step: Optional[StepCallback] = None,
) -> tuple[np.ndarray, np.ndarray, GradientBundle, RelaxTrace]:
    """Relax the doubled state (x, z) by forward Euler on the saddle flow.

    The flow is stepped in its mean/stress coordinates, m = (x + z) / 2
    and s = x - z: this is ``relax_mean_stress`` seen through (x, z),
    and at eta = 1 its step is the cancelled two-phase map, so the
    unit-step gradient is backprop's, bit for bit. Starts from
    x = z = 0 and stops when ||dm|| + ||ds||, the summed L2 norms of the
    two increments, drops below the tolerance, or when it stalls at the
    float rounding noise of the state (the precision floor of
    ``_relax``), or when the iteration budget runs out. The trace's
    ``status`` names which; running out of budget is reported
    (``converged`` false), not raised. Returns the mean, the stress, the
    extracted gradient, and the trace. ``on_step`` (if given) receives
    (k, x, z) after each update, formed as (m + s/2, m - s/2) from the
    stepped pair. The energy of the returned state is checked
    (NumericError if not finite); a transient overflow of it with finite
    increments does not raise.
    """
    # Not a call of relax_mean_stress, so that a wrapper of either entry
    # point sees each relaxation once.
    doubled = None if on_step is None else _doubled(on_step)
    return _relax_sample(params, x0, loss, cfg, doubled, RelaxMode.DYADIC, "relax_dyadic")


def relax_mean_stress(
    params: NetworkParams,
    x0: np.ndarray,
    loss: LossSpec,
    cfg: RelaxConfig,
    on_step: Optional[StepCallback] = None,
) -> tuple[np.ndarray, np.ndarray, GradientBundle, RelaxTrace]:
    """The Dyadic relaxation of ``relax_dyadic`` observed in (m, s).

    Takes a Dyadic ``cfg`` and returns ``relax_dyadic``'s m, s, gradient
    and trace. Each step writes the cancelled two-phase map and, at eta
    other than 1, blends the state toward it (see
    ``_mean_stress_steps``). So the unit-step run is identical, float for
    float, to the discrete two-phase scheme, which is what makes the
    layerwise freezing of the mean hold as exact equality of stored
    floats rather than up to rounding. ``on_step`` receives (k, m, s)
    copies of the stepped pair after each update, the only exact view of
    it: (m, s) rebuilt from ``relax_dyadic``'s (x, z) is not.
    """
    return _relax_sample(params, x0, loss, cfg, on_step, RelaxMode.DYADIC, "relax_mean_stress")


def relax_twoL(
    params: NetworkParams, x0: np.ndarray, loss: LossSpec
) -> tuple[np.ndarray, np.ndarray, GradientBundle]:
    """Run the 2L unit-step schedule of the discrete two-phase maps.

    m settles to the forward activations within the first L steps; the
    stress then flushes to the exact stacked sensitivities by step 2L,
    at which point both maps are at their fixed point and the extracted
    gradient is classical backprop's, bit for bit. Only the settling
    block of each step is computed: L forward and L - 1 backward block
    steps, O(L) block kernels (``_twoL_wavefront``, the same wavefront
    as ``relax_batch``'s TwoL), whose per-layer blocks are concatenated
    into the returned m and s. The full-state transients of the schedule
    are those of the Dyadic relaxation at eta = 1, which
    ``relax_mean_stress``'s ``on_step`` sees one by one.
    """
    x0, loss = _prepare(params, x0, loss)
    layers = list(_twoL_wavefront(params, x0, loss))[::-1]
    bundle = GradientBundle(*_layer_grads((prev, d) for prev, _, d, _ in layers))
    m = np.concatenate([m for _, m, _, _ in layers])
    s = np.concatenate([s for _, _, _, s in layers])
    return m, s, bundle


def relax_split(
    params: NetworkParams,
    x0: np.ndarray,
    loss: LossSpec,
    cfg: RelaxConfig,
    on_step: Optional[StepCallback] = None,
) -> tuple[np.ndarray, np.ndarray, GradientBundle, RelaxTrace]:
    """Relax the decoupled split scheme: per-state drives and Jacobians.

    Each state keeps its own activation drive and derivative diagonal,
    sigma(Wx + beta) and D_x for x, likewise for z, and the two are
    coupled only through the averaged drive Sigma = (sigma_x + sigma_z)/2
    and the shared stress s = x - z. This avoids ever forming the
    midpoint for derivative evaluations and agrees with the exact saddle
    flow to first order in the stress.

    The loss gradient is evaluated once, at the midpoint output:
    evaluated at each state's own output, the cost would bias the output
    stress to (4/3) g for MSE. ``on_step`` receives (k, x, z) copies
    after each update.
    """
    return _relax_sample(params, x0, loss, cfg, on_step, RelaxMode.SPLIT, "relax_split")


def stability_check(
    params: NetworkParams,
    x0: np.ndarray,
    n_probes: int = 8,
    seed: int = 0,
) -> StabilityReport:
    """Check the block nilpotency of the linearized dynamics.

    Applies the (J + I) actions, v -> D(m) W v for the mean block and
    v -> W^T (D(m) v) for the stress block, with D(m) at the forward
    point, L times to random unit vectors and reports the largest
    remaining norm. Each application moves the zeros W (W^T) writes into
    its first block one block on, so for finite parameters both are
    exactly 0.0 whatever D(m) is: this checks the block structure of W,
    not the transient before step L.
    """
    pres, _ = forward_layers(params, _check_sample(params, x0))
    d = sigma_prime_array(params, np.concatenate(pres, axis=0))
    rng = np.random.default_rng(seed)
    max_fwd = 0.0
    max_bwd = 0.0
    for _ in range(n_probes):
        v = rng.normal(size=params.state_size)
        v /= np.linalg.norm(v)
        u = v.copy()
        w = v.copy()
        for _ in range(params.depth):
            u = d * apply_w_array(params, u)
            w = apply_wt_array(params, d * w)
        max_fwd = max(max_fwd, float(np.linalg.norm(u)))
        max_bwd = max(max_bwd, float(np.linalg.norm(w)))
    return StabilityReport(params.depth, n_probes, max_fwd, max_bwd)


def relax_batch(
    params: NetworkParams,
    x0: np.ndarray,
    loss: LossSpec,
    cfg: RelaxConfig,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """Relax a column batch and return batch-mean gradients.

    Samples are columns of ``x0`` with matching columns in the loss
    target. Columns relax independently in the same loop as the
    single-sample relaxations: each one stops (freezes) by its own
    stopping rule (the tolerance or the precision floor, see
    ``_relax``), so iteration counts are per sample, and the reduction
    to the mean bundle is a fixed-order matrix product, keeping results
    bit-reproducible. A column that is not converged ran out of budget.

    TwoL runs the O(L) block wavefront of ``_twoL_wavefront``, bitwise
    equal to ``backprop_batch``, and reports 2L iterations per column. It
    forms each layer's gradients as that layer's delta arrives and builds
    no state-sized array: no beta, no stacked m, s or delta.

    Returns (weight_grads, bias_grads, iterations, converged) where the
    gradients are the mean over the batch.
    """
    x0, loss = _prepare(params, x0, loss, batch=True)
    if cfg.mode is RelaxMode.TWO_L:
        batch = x0.shape[1]
        weight_grads, bias_grads = _layer_grads(
            (prev, d) for prev, _, d, _ in _twoL_wavefront(params, x0, loss)
        )
        iterations = np.full(batch, 2 * params.depth)
        return weight_grads[::-1], bias_grads[::-1], iterations, np.ones(batch, bool)
    beta = beta_array(params, x0)
    m, s, iterations, converged, _ = _relax(params, beta, loss, cfg, _STEPS[cfg.mode])
    weight_grads, bias_grads = _grads_from_delta(params, x0, m, _delta_at(params, beta, m, s))
    return weight_grads, bias_grads, iterations, converged
