"""Chain networks and the global block-triangular operator algebra.

A depth-L chain network with layer widths n_1..n_L acts on stacked
"global" vectors in R^n, n = n_1 + ... + n_L, holding one contiguous
block per layer at ``params.offsets``. The global weight operator W
carries W_l on the subdiagonal block (l, l-1) and is strictly lower
block-triangular, so W^L = 0 (and likewise for its transpose). W is
never materialized as a dense matrix; ``apply_w_array`` and
``apply_wt_array`` apply W and W^T, one stacked matmul per run of
equal-shaped blocks.

A stacked state has one type everywhere: a plain ndarray of shape (n,)
for one sample, or (n, B) for B samples stacked as columns inside the
engine. The private ``*_array`` kernels take them unchecked. Every
public operation checks its arguments first, one check per kind of
array: an input (``_check_sample`` for one sample, ``_check_batch`` for
a column batch) or a state (``_check_state``). Both cast integers
to the parameters' dtype and reject another float width (``ShapeError``)
and non-finite entries (``NumericError``).

Each activation formula is written in numpy: sigma in
:meth:`Activation.apply` (in place with ``out=``, as the output-only
:func:`forward_output` runs it), sigma' in :func:`_sigma_pair` (together with
sigma, at one pre-activation) and the logistic in :func:`_logistic`.
The bound Euler steps repeat two of them as ufunc calls:
:func:`_bind_sigma_pair` those of :func:`_sigma_pair`, and
``losses._bind_gradient`` those of the cross-entropy gradient.
``tests/test_fused_step.py`` pins the copies: it checks the bound steps
against ``oracles.unfused_step``, and ``_sigma_pair`` against ``apply``
and ``derivative`` (``test_sigma_pair_equals_apply_and_derivative``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericError, ShapeError, enum_from_name

__all__ = [
    "Activation",
    "LayerSpec",
    "LayerParams",
    "NetworkParams",
    "random_network",
    "forward_pass",
    "beta_drive",
    "apply_global_W",
    "forward_field",
]


class Activation(enum.Enum):
    """Elementwise layer nonlinearity with its exact derivative."""

    IDENTITY = "Identity"
    TANH = "Tanh"
    SIGMOID = "Sigmoid"
    RELU = "ReLU"

    @classmethod
    def from_name(cls, name: str) -> "Activation":
        return enum_from_name(cls, name, "activation")

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """sigma(v), written into ``out`` when given (it may be ``v``)."""
        if self is Activation.IDENTITY:
            return np.positive(v, out=out)  # a copy, -0.0 kept
        if self is Activation.TANH:
            return np.tanh(v, out=out)
        if self is Activation.SIGMOID:
            return _logistic(v, np.empty_like(v) if out is None else out)
        return np.maximum(v, 0, out=out)

    def derivative(self, v: np.ndarray) -> np.ndarray:
        """Exact elementwise derivative at pre-activation v (:func:`_sigma_pair`).

        For ReLU the derivative at exactly 0 is defined as 0; every
        gradient method in the package must share this convention or the
        exact-equality claims between them break at kink points.
        """
        dsig = np.empty_like(v)
        _sigma_pair(self, v, np.empty_like(v), dsig)
        return dsig


@dataclass(frozen=True)
class LayerSpec:
    """Width and nonlinearity of one layer."""

    width: int
    activation: Activation

    def __post_init__(self) -> None:
        if not isinstance(self.width, (int, np.integer)) or self.width < 1:
            raise ValueError(f"layer width must be a positive integer, got {self.width!r}")


@dataclass(frozen=True, eq=False)
class LayerParams:
    """One layer's spec, weight matrix and bias vector. In a
    :class:`NetworkParams` both are read-only views of its buffer."""

    spec: LayerSpec
    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.weight.ndim != 2 or self.weight.shape[0] != self.spec.width:
            raise ShapeError(
                f"weight shape {self.weight.shape} does not match layer width {self.spec.width}"
            )
        if self.bias.shape != (self.spec.width,):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match layer width {self.spec.width}"
            )
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """The full parameter set of a depth-L chain network.

    Layers are ordered from input to output; ``layers[i].weight`` has
    shape (n_{i+1}, n_i) with n_0 = ``input_dim``. Construction copies
    the layers, all of one dtype, into one read-only (P,) buffer in the
    order of ``GradientBundle.flat()``: W_1 (row-major), b_1, ..., W_L,
    b_L. Each weight and bias, and the stack of each run of consecutive
    equal-shaped W_2..W_L (a strided (k, r, c) view), is a view of it.
    """

    input_dim: int
    layers: tuple[LayerParams, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.input_dim, (int, np.integer)) or self.input_dim < 1:
            raise ValueError("input_dim must be a positive integer")
        if len(self.layers) < 1:
            raise ValueError("a network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        fan_in = self.input_dim
        dtype = self.layers[0].weight.dtype
        for i, lp in enumerate(self.layers):
            if lp.weight.shape[1] != fan_in:
                raise ShapeError(
                    f"layer {i + 1} expects fan-in {lp.weight.shape[1]}, "
                    f"previous width is {fan_in}"
                )
            if lp.weight.dtype != dtype or lp.bias.dtype != dtype:
                raise ShapeError(f"layer {i + 1} holds {lp.weight.dtype} weights and "
                                 f"{lp.bias.dtype} biases, layer 1 {dtype}: one dtype per network")
            fan_in = lp.spec.width
        # Frozen params fix the block layout and the place of each W_l in
        # the buffer (b_l follows it): relaxation steps read them, not rebuild them.
        offsets = np.cumsum([0] + [lp.spec.width for lp in self.layers]).tolist()
        acts = [lp.spec.activation for lp in self.layers]
        runs = [(slice(offsets[a], offsets[b]), acts[a]) for a, b in _equal_runs(acts)]
        starts = np.cumsum([0] + [lp.weight.size + lp.bias.size for lp in self.layers]).tolist()
        places = [(p, *lp.weight.shape) for p, lp in zip(starts, self.layers)]
        # One stack per run of equal-shaped W_l (l >= 2); lo/hi: its input/output rows.
        shapes = [None] + [lp.weight.shape for lp in self.layers[1:]]  # W_1 runs alone
        spans = [(*places[a], b - a, slice(offsets[a - 1], offsets[b - 1]),
                  slice(offsets[a], offsets[b])) for a, b in _equal_runs(shapes)[1:]]
        slices = tuple(map(slice, offsets[:-1], offsets[1:]))
        vars(self).update(_offsets=tuple(offsets), _slices=slices, _runs=tuple(runs),
                          _places=tuple(places), _spans=tuple(spans))
        self._bind(np.concatenate([a.ravel() for lp in self.layers for a in (lp.weight, lp.bias)]))

    def _with_flat(self, flat: np.ndarray) -> "NetworkParams":
        """This network on ``flat``, a (P,) vector nothing writes again: no copy, no checks."""
        params = object.__new__(type(self))
        vars(params).update(vars(self))
        params._bind(flat)
        return params

    def _layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (W_l, b_l) views of a (P,) vector in this network's layout."""
        return [
            (flat[p : p + r * c].reshape(r, c), flat[p + r * c : p + r * c + r])
            for p, r, c in self._places  # type: ignore[attr-defined]
        ]

    def _bind(self, flat: np.ndarray) -> None:
        """Make ``flat`` the read-only buffer, the layers and stacks its views."""
        flat.flags.writeable = False
        layers = []
        for lp, (weight, bias) in zip(self.layers, self._layer_views(flat)):
            layer = object.__new__(LayerParams)  # checked already: no copy, no checks
            vars(layer).update(spec=lp.spec, weight=weight, bias=bias)
            layers.append(layer)
        stacks = tuple(
            (flat[p : p + k * (r * c + r)].reshape(k, -1)[:, : r * c].reshape(k, r, c), lo, hi)
            for p, r, c, k, lo, hi in self._spans  # type: ignore[attr-defined]
        )
        vars(self).update(layers=tuple(layers), _flat=flat, _stacks=stacks)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(lp.spec.width for lp in self.layers)

    @property
    def offsets(self) -> tuple[int, ...]:
        return self._offsets  # type: ignore[attr-defined]

    @property
    def state_size(self) -> int:
        return self.offsets[-1]

    @property
    def dtype(self) -> np.dtype:
        return self._flat.dtype  # type: ignore[attr-defined]

    @property
    def output_slice(self) -> slice:
        return self._slices[-1]  # type: ignore[attr-defined]

    def astype(self, dtype) -> "NetworkParams":
        flat = self._flat.astype(dtype)  # type: ignore[attr-defined]
        if not np.isfinite(flat).all():
            raise ValueError("layer parameters must be finite")
        return self._with_flat(flat)


def _equal_runs(keys: list) -> list[tuple[int, int]]:
    """(start, stop) of each run of consecutive equal ``keys``."""
    cuts = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    return list(zip([0] + cuts, cuts + [len(keys)]))


def _checked_values(params: NetworkParams, arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` in the parameters' dtype, all finite: integers and bools are
    cast, another float width (it would change the results' dtype) raises."""
    if arr.dtype != params.dtype:
        if arr.dtype.kind not in "biu":
            raise ShapeError(f"{what} dtype {arr.dtype} does not match parameters' {params.dtype}")
        arr = arr.astype(params.dtype)
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains non-finite entries")
    return arr


def _check_input(params: NetworkParams, x0: np.ndarray, ndim: int) -> np.ndarray:
    """One input (n0,) for ``ndim`` 1, or a column batch (n0, B) of B >= 1."""
    x0 = np.asarray(x0)
    if x0.ndim != ndim or x0.shape[0] != params.input_dim or x0.size == 0:
        expected = f"({params.input_dim},)" if ndim == 1 else f"({params.input_dim}, B), B >= 1"
        raise ShapeError(f"input has shape {x0.shape}, expected {expected}")
    return _checked_values(params, x0, "network input")


_check_sample = partial(_check_input, ndim=1)
_check_batch = partial(_check_input, ndim=2)


def _check_state(params: NetworkParams, v: np.ndarray) -> np.ndarray:
    """One stacked state (n,), laid out in the blocks of ``params``."""
    v = np.asarray(v)
    if v.shape != (params.state_size,):
        raise ShapeError(f"state has shape {v.shape}, expected ({params.state_size},)")
    return _checked_values(params, v, "state")


def _block_slices(params: NetworkParams) -> tuple[slice, ...]:
    return params._slices  # type: ignore[attr-defined]


def _bias_like(bias: np.ndarray, arr: np.ndarray) -> np.ndarray:
    # Broadcast a (width,) bias across the batch axis when present.
    return bias if arr.ndim == 1 else bias[:, None]


def beta_array(params: NetworkParams, x0: np.ndarray) -> np.ndarray:
    """Constant drive beta(x_0): block 1 = W_1 x_0 + b_1, block l>1 = b_l."""
    dtype = np.result_type(params.dtype, x0.dtype)
    shape = (params.state_size,) if x0.ndim == 1 else (params.state_size, x0.shape[1])
    out = np.empty(shape, dtype=dtype)
    slices = _block_slices(params)
    first = params.layers[0]
    out[slices[0]] = first.weight @ x0 + _bias_like(first.bias, x0)
    for i in range(1, params.depth):
        out[slices[i]] = _bias_like(params.layers[i].bias, out)
    return out


def _block_plan(
    params: NetworkParams, arr: np.ndarray, out: np.ndarray, transpose: bool = False
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The views that W (W^T with ``transpose``) reads of ``arr`` and writes
    of ``out``: per stack of k equal-shaped W_l the (stack, operand,
    result) of one matmul over (k, c, tail) blocks. The rows of ``out``
    that W leaves empty (block 1; W^T: block L) are zeroed here.

    The views share memory with C-contiguous ``arr`` and ``out``, so a
    caller that applies W between the same buffers many times builds them
    once, and zeroes those rows again only if it writes them in between.
    """
    tail = arr.shape[1:] or (1,)
    mats = []
    for stack, lo, hi in params._stacks:  # type: ignore[attr-defined]
        k, r, c = stack.shape
        if transpose:
            stack, lo, hi, r, c = stack.transpose(0, 2, 1), hi, lo, c, r
        mats.append((stack, arr[lo].reshape(k, c, *tail), out[hi].reshape(k, r, *tail)))
    out[_block_slices(params)[-1 if transpose else 0]].fill(0)
    return tuple(mats)


def _run_block_plan(plan) -> None:
    """One matmul per stack."""
    for stack, operand, result in plan:
        np.matmul(stack, operand, out=result)


def apply_w_array(
    params: NetworkParams, arr: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Action of the global W: block 1 -> 0, block l -> W_l @ block(l-1).

    One matmul per run of equal-shaped W_l, the bits of one per block,
    written into ``out`` when given (it must not overlap ``arr``).
    """
    out = np.empty_like(arr) if out is None else out
    _run_block_plan(_block_plan(params, arr, out))
    return out


def apply_wt_array(
    params: NetworkParams, arr: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Action of the global W transpose: block L -> 0, block l -> W_{l+1}^T @ block(l+1).

    As :func:`apply_w_array`, on a transposed view of each stack (BLAS's
    transpose flag).
    """
    out = np.empty_like(arr) if out is None else out
    _run_block_plan(_block_plan(params, arr, out, transpose=True))
    return out


def sigma_array(params: NetworkParams, pre: np.ndarray) -> np.ndarray:
    """Blockwise activation sigma applied to a stacked pre-activation."""
    out = np.empty_like(pre)
    for rows, act in _activation_runs(params):
        out[rows] = act.apply(pre[rows])
    return out


def sigma_prime_array(params: NetworkParams, pre: np.ndarray) -> np.ndarray:
    """Blockwise exact activation derivative at a stacked pre-activation."""
    dsig = np.empty_like(pre)
    _sigma_pair_array(params, pre, np.empty_like(pre), dsig)
    return dsig


def _activation_runs(params: NetworkParams) -> tuple[tuple[slice, Activation], ...]:
    """Rows and activation of each run of consecutive blocks sharing one."""
    return params._runs  # type: ignore[attr-defined]


def _logistic(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + e^(-v)) written into ``out``, which may be ``v``."""
    with np.errstate(over="ignore"):  # v -> -inf: e^(-v) = inf gives an exact 0
        np.exp(np.negative(v, out=out), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def _sigma_pair(
    activation: Activation, v: np.ndarray, sig: np.ndarray, dsig: Optional[np.ndarray]
) -> None:
    """sigma(v) into ``sig`` and sigma'(v) into ``dsig`` with one evaluation
    of the transcendental. The package's only sigma' formulas: ``derivative``
    calls this, and ``sig`` holds the floats of ``apply``. ``sig`` may be ``v``."""
    if activation is Activation.TANH:
        np.tanh(v, out=sig)
        np.multiply(sig, sig, out=dsig)
        np.subtract(1.0, dsig, out=dsig)
    elif activation is Activation.SIGMOID:
        _logistic(v, sig)
        np.subtract(1.0, sig, out=dsig)
        np.multiply(sig, dsig, out=dsig)
    elif activation is Activation.RELU:
        np.greater(v, 0, out=dsig)
        np.maximum(v, 0, out=sig)
    else:
        np.copyto(sig, v)
        if dsig is not None:  # None: a plan wrote the constant 1
            dsig.fill(1)


def _sigma_plan(
    params: NetworkParams, pre: np.ndarray, sig: np.ndarray, dsig: np.ndarray
) -> tuple[tuple[Activation, np.ndarray, np.ndarray, Optional[np.ndarray]], ...]:
    """(activation, pre, sig, dsig) rows of each run of consecutive blocks
    that share an activation. The constant sigma' = 1 of Identity runs is
    written here, and their entries hold None for dsig: a caller that
    reuses the views keeps those rows of ``dsig`` as they are."""
    plan = []
    for rows, act in _activation_runs(params):
        d = dsig[rows]
        if act is Activation.IDENTITY:
            d.fill(1)
            d = None
        plan.append((act, pre[rows], sig[rows], d))
    return tuple(plan)


def _sigma_pair_array(
    params: NetworkParams, pre: np.ndarray, sig: np.ndarray, dsig: np.ndarray
) -> None:
    """Blockwise sigma and sigma' of a stacked pre-activation, written into
    ``sig`` and ``dsig``: one kernel call per run of consecutive blocks
    that share an activation."""
    for act, v, s, d in _sigma_plan(params, pre, sig, dsig):
        _sigma_pair(act, v, s, d)


def _bind_sigma_pair(
    params: NetworkParams, pre: np.ndarray, sig: np.ndarray, dsig: np.ndarray
) -> Callable[[], None]:
    """``_sigma_pair_array(params, pre, sig, dsig)`` as one closure: per run,
    the ufunc calls of :func:`_sigma_pair` on views and a 0-d unit built once."""
    one = np.ones((), dtype=pre.dtype)
    calls = []
    for act, v, s, d in _sigma_plan(params, pre, sig, dsig):
        if act is Activation.TANH:
            calls += [partial(np.tanh, v, s), partial(np.multiply, s, s, d)]
            calls.append(partial(np.subtract, one, d, d))
        elif act is Activation.SIGMOID:
            calls += [partial(_logistic, v, s), partial(np.subtract, one, s, d)]
            calls.append(partial(np.multiply, s, d, d))
        elif act is Activation.RELU:
            calls += [partial(np.greater, v, 0, d), partial(np.maximum, v, 0, out=s)]
        else:
            calls.append(partial(np.copyto, s, v))

    def sigma_pair() -> None:
        for call in calls:
            call()

    return sigma_pair


def forward_layers(
    params: NetworkParams, x0: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Layer-by-layer forward pass; returns (pre-activations, activations)."""
    pres: list[np.ndarray] = []
    acts: list[np.ndarray] = []
    a = x0
    for lp in params.layers:
        pre = lp.weight @ a + _bias_like(lp.bias, a)
        a = lp.spec.activation.apply(pre)
        pres.append(pre)
        acts.append(a)
    return pres, acts


def forward_output(
    params: NetworkParams, x0: np.ndarray, bufs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The output block of the forward pass on the columns of ``x0``, the
    floats of ``forward_layers(params, x0)[1][-1]``, and no other layer kept.

    Layer l runs in the first n_l rows of ``bufs[l % 2]``, two (max width,
    B) buffers: the matmul writes them, the bias is added and sigma applied
    in place. Returns a view of one buffer, valid until it is reused.
    """
    a = x0
    for i, lp in enumerate(params.layers):
        pre = np.matmul(lp.weight, a, out=bufs[i % 2][: lp.spec.width])
        pre += lp.bias[:, None]
        a = lp.spec.activation.apply(pre, out=pre)
    return a


def forward_pass(
    params: NetworkParams, x0: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Run the network forward.

    Args:
        params: network parameters.
        x0: input vector of length ``params.input_dim``.

    Returns:
        The per-layer activations ``[a_1, ..., a_L]`` and their stacked
        concatenation, an (n,) array.
    """
    _, acts = forward_layers(params, _check_sample(params, x0))
    return acts, np.concatenate(acts, axis=0)


def beta_drive(params: NetworkParams, x0: np.ndarray) -> np.ndarray:
    """Stack the constant input-and-bias drive beta(x_0)."""
    return beta_array(params, _check_sample(params, x0))


def apply_global_W(params: NetworkParams, v: np.ndarray) -> np.ndarray:
    """Apply the strictly lower block-triangular global weight operator."""
    return apply_w_array(params, _check_state(params, v))


def forward_field(params: NetworkParams, x0: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Forward vector field F(a) = sigma(W a + beta(x_0)) - a.

    Its unique fixed point is the stacked forward pass.
    """
    x0 = _check_sample(params, x0)
    a = _check_state(params, a)
    pre = apply_w_array(params, a) + beta_array(params, x0)
    return sigma_array(params, pre) - a


def random_network(
    input_dim: int,
    widths: Sequence[int],
    activations,
    rng: np.random.Generator,
    bias_std: float = 0.0,
    dtype=np.float64,
) -> NetworkParams:
    """Draw a network with Gaussian weights of std 1/sqrt(fan_in).

    Args:
        input_dim: width of the input layer.
        widths: output width of each layer, input to output.
        activations: one :class:`Activation` for all layers or a
            sequence with one entry per layer.
        rng: seeded generator; the draw is deterministic given it.
        bias_std: biases are zero when 0, else Gaussian with this std.
        dtype: parameter dtype (float64 or float32).
    """
    widths = [int(w) for w in widths]
    if isinstance(activations, Activation):
        acts = [activations] * len(widths)
    else:
        acts = list(activations)
        if len(acts) != len(widths):
            raise ValueError("need one activation per layer")
    layers = []
    fan_in = int(input_dim)
    for w, act in zip(widths, acts):
        weight = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(w, fan_in))
        bias = rng.normal(0.0, bias_std, size=w) if bias_std > 0 else np.zeros(w)
        layers.append(
            LayerParams(LayerSpec(w, act), weight.astype(dtype), bias.astype(dtype))
        )
        fan_in = w
    return NetworkParams(int(input_dim), tuple(layers))
