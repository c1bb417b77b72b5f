"""Experiment harness: configs, SGD training with any gradient method,
gradient-fidelity trials, and step-size sweeps.

Every run is deterministic given the config: dataset draws, weight
init, the train/test split, and batch shuffling all derive from the
seed, and none of them depend on the gradient method, so runs that
differ only in the method see identical data and identical initial
parameters.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .datasets import DatasetSpec, generate_dataset
from .dynamics import (
    RelaxConfig,
    RelaxMode,
    RelaxTrace,
    _check_eta,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
)
from .errors import (
    BOOL, INTEGER, NUMBER, STRING, ConfigError, NumericError, check_fields, checked,
    enum_from_name, list_of, member, optional, typed,
)
from .fidelity import _global_metrics, compare
from .losses import LossKind, LossSpec
from .network import Activation, NetworkParams, forward_output, random_network
from .reference import (
    _NON_FINITE,
    GradientBundle,
    backprop_batch,
    classical_backprop,
    finite_difference_grad,
)

__all__ = [
    "GradientMethod",
    "ExperimentConfig",
    "TrainResult",
    "train",
    "check_gradients",
    "sweep_eta",
    "TRAIN_FIELDS",
    "CHECK_FIELDS",
    "SWEEP_FIELDS",
    "format_cell",
    "write_csv",
]


class GradientMethod(enum.Enum):
    """How per-batch parameter gradients are produced."""

    BP = "BP"
    DYADIC = "Dyadic"
    MEAN_STRESS = "MeanStress"
    TWO_L = "TwoL"
    SPLIT = "Split"
    FINITE_DIFF = "FiniteDiff"

    @classmethod
    def from_name(cls, name: str) -> "GradientMethod":
        return enum_from_name(cls, name, "gradient method")


# Methods whose behaviour depends on the relaxation step size.
_ETA_DRIVEN = frozenset(
    {GradientMethod.DYADIC, GradientMethod.MEAN_STRESS, GradientMethod.SPLIT}
)

_DESK_HIDDEN = (32,) * 8

def _plain(value):
    """A field value as the config file spells it."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment.

    ``widths`` and ``activations`` default to the reference depth-9
    network: eight Tanh hidden layers of 32 units and an identity
    output layer sized to the dataset's class count.  Learning rates
    default to the cosine schedule endpoints 0.035 and 0.0002, scaled
    by ``batch_size / 64``.

    Each field is one key of a config file: its checker, the section
    that holds it (the top level where none is named), its file key
    where that is not the field name, and ``hashed=False`` where the
    config hash leaves it out. The dataset section holds the fields of
    ``dataset``.
    """

    seed: int = checked(0, INTEGER)
    precision: int = checked(64, INTEGER)
    method: GradientMethod = checked(GradientMethod.DYADIC, member(GradientMethod))
    out_dir: str = checked(".", STRING, hashed=False)
    input_dim: int = checked(2, INTEGER, section="network")
    widths: Optional[tuple] = checked(
        None, optional(list_of(typed((int,), "a list of integers"))), section="network"
    )
    activation: Activation = checked(Activation.TANH, member(Activation), section="network")
    activations: Optional[tuple] = checked(
        None, optional(list_of(member(Activation))), section="network"
    )
    loss_kind: LossKind = checked(LossKind.SOFTMAX_CROSS_ENTROPY, member(LossKind), key="loss")
    eta: float = checked(1.0, NUMBER, section="relax")
    k_max: int = checked(1000, INTEGER, section="relax")
    tol: float = checked(1e-6, NUMBER, section="relax")
    lr_max: Optional[float] = checked(None, optional(NUMBER), section="optimizer")
    lr_min: Optional[float] = checked(None, optional(NUMBER), section="optimizer")
    momentum: float = checked(0.9, NUMBER, section="optimizer")
    weight_decay: float = checked(5e-4, NUMBER, section="optimizer")
    epochs: int = checked(100, INTEGER, section="optimizer")
    batch_size: int = checked(64, INTEGER, section="optimizer")
    test_fraction: float = checked(0.2, NUMBER, section="optimizer")
    fd_step: float = checked(1e-5, NUMBER)
    strict: bool = checked(False, BOOL, hashed=False)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)

    def __post_init__(self) -> None:
        check_fields(self)
        if not isinstance(self.dataset, DatasetSpec):
            raise ConfigError(f"dataset must be a DatasetSpec, got {self.dataset!r}")
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
        if self.fd_step <= 0.0:
            raise ConfigError("fd_step must be positive")
        if any(lr is not None and lr <= 0.0 for lr in (self.lr_max, self.lr_min)):
            raise ConfigError("learning rates must be positive")
        if self.widths is not None and (not self.widths or any(w < 1 for w in self.widths)):
            raise ConfigError("widths must be a non-empty list of positive integers")
        if self.method not in (GradientMethod.BP, GradientMethod.FINITE_DIFF):
            self.relax_config()  # fail on eta, k_max or tol before any output
        if self.method in _ETA_DRIVEN:
            _check_eta(self.eta, self.dtype)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == 32 else np.float64)

    def resolved_widths(self, classes: int) -> tuple:
        if self.widths is not None:
            return self.widths
        return _DESK_HIDDEN + (classes,)

    def resolved_activations(self, depth: int) -> tuple:
        if self.activations is not None:
            if len(self.activations) != depth:
                raise ConfigError(
                    f"activations has {len(self.activations)} entries for depth {depth}"
                )
            return self.activations
        return (self.activation,) * (depth - 1) + (Activation.IDENTITY,)

    def resolved_lr(self) -> tuple:
        scale = self.batch_size / 64.0
        lr_max = self.lr_max if self.lr_max is not None else 0.035 * scale
        lr_min = self.lr_min if self.lr_min is not None else 0.0002 * scale
        return lr_max, lr_min

    def relax_config(self) -> RelaxConfig:
        mode = RelaxMode.from_name(self.method.value)
        return RelaxConfig(eta=self.eta, k_max=self.k_max, tol=self.tol, mode=mode)

    def to_canonical(self) -> dict:
        """Plain nested dict of the config, for hashing and logs.

        Excludes ``out_dir`` and ``strict``: neither changes a computed
        number, so runs differing only there share a hash.
        """
        out: dict = {}
        for f in dataclasses.fields(self):
            if f.name == "dataset":
                out["dataset"] = {k: _plain(v) for k, v in dataclasses.asdict(self.dataset).items()}
            elif f.metadata.get("hashed", True):
                section = f.metadata.get("section")
                into = out.setdefault(section, {}) if section else out
                into[f.metadata.get("key", f.name)] = _plain(getattr(self, f.name))
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.to_canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from a parsed YAML mapping.

        Accepts the same nested sections `to_canonical` emits and hands
        each value to the field it sets, which checks it.  Unknown keys
        anywhere raise ConfigError so typos fail loudly.
        """
        if not isinstance(mapping, dict):
            raise ConfigError("config root must be a mapping")
        sections = _sections()
        unknown = set(mapping) - set(sections[None]) - {s for s in sections if s}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
        kwargs: dict = {}
        for section, keys in sections.items():
            sub = mapping if section is None else mapping.get(section) or {}
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {section!r} must be a mapping")
            extra = set(sub) - set(keys) if section else ()
            if extra:
                raise ConfigError(f"unknown keys in {section!r}: {sorted(extra, key=str)}")
            values = {keys[k]: v for k, v in sub.items() if k in keys and v is not None}
            if section == "dataset":
                kwargs["dataset"] = DatasetSpec(**values)
            else:
                kwargs.update(values)
        return cls(**kwargs)


def _sections() -> dict:
    """Each section of a config file (None: the top level) with its keys,
    each mapped to the field it sets."""
    sections: dict = {None: {}}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "dataset":
            sections["dataset"] = {g.name: g.name for g in dataclasses.fields(DatasetSpec)}
        else:
            key = f.metadata.get("key", f.name)
            sections.setdefault(f.metadata.get("section"), {})[key] = f.name
    return sections


# ---------------------------------------------------------------------------
# CSV plumbing shared by train / check / sweep and the CLI.

# The global metrics of ``fidelity._global_metrics`` (in its order, with
# to_record()'s keys) that train averages per epoch as ``fid_<key>``.
_FID_KEYS = ("cos", "rel_err", "norm_ratio", "snr")

TRAIN_FIELDS = (
    "epoch",
    "lr",
    "train_loss",
    "train_acc",
    "test_acc",
    "mean_iterations",
    "frac_converged",
) + tuple(f"fid_{key}" for key in _FID_KEYS)

# check.csv rows extend these with the FidelityReport columns, whose
# per-layer entries depend on the network depth.
CHECK_FIELDS = ("trial", "method", "iterations", "converged")

SWEEP_FIELDS = (
    "eta",
    "mean_iterations",
    "max_iterations",
    "frac_converged",
    "mean_cos",
    "min_cos",
    "mean_rel_err",
    "max_rel_err",
    "mean_norm_ratio",
    "min_norm_ratio",
    "max_norm_ratio",
    "worst_logmis",
)


def format_cell(value) -> str:
    """Render one CSV field; floats round-trip exactly via repr."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _provenance(seed: int, config_hash: str) -> str:
    return f"# seed: {seed}\n# config: {config_hash}\n"


class _IncrementalCsv:
    """Row-at-a-time CSV writer that flushes eagerly.

    Training can abort mid-run on numeric failure; everything logged
    so far must already be on disk when that happens.  The file's
    directory is created on open, so a run that fails before its first
    row leaves no output directory behind.
    """

    def __init__(self, path, fieldnames: Sequence[str], seed: int, config_hash: str):
        self.fieldnames = tuple(fieldnames)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(_provenance(seed, config_hash))
        self._fh.write(",".join(self.fieldnames) + "\n")
        self._fh.flush()

    def write_row(self, row: dict) -> None:
        cells = ",".join(format_cell(row.get(name)) for name in self.fieldnames)
        self._fh.write(cells + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def write_csv(
    path,
    fieldnames: Sequence[str],
    rows: Iterable[dict],
    seed: int,
    config_hash: str,
) -> None:
    writer = _IncrementalCsv(path, fieldnames, seed, config_hash)
    try:
        for row in rows:
            writer.write_row(row)
    finally:
        writer.close()


# ---------------------------------------------------------------------------
# Gradient dispatch.


def _fd_batch(
    params: NetworkParams, xb: np.ndarray, loss: LossSpec, config: ExperimentConfig
) -> tuple:
    """Mean finite-difference gradient over the columns of ``xb``."""
    batch = xb.shape[1]
    acc = np.zeros(params._flat.size)  # type: ignore[attr-defined]
    for j in range(batch):
        sample_loss = LossSpec(loss.kind, loss.target[:, j])
        acc += finite_difference_grad(params, xb[:, j], sample_loss, h=config.fd_step).flat()
    return tuple(zip(*params._layer_views((acc / batch).astype(params.dtype))))


def _batch_gradients(
    params: NetworkParams, xb: np.ndarray, loss: LossSpec, config: ExperimentConfig
) -> tuple:
    """Per-batch mean gradients plus relaxation bookkeeping.

    Returns (weight_grads, bias_grads, iterations, converged) where the
    last two are per-sample arrays for relaxation methods and None for
    BP and finite differences.
    """
    if config.method is GradientMethod.BP:
        ws, bs = backprop_batch(params, xb, loss)
        return ws, bs, None, None
    if config.method is GradientMethod.FINITE_DIFF:
        ws, bs = _fd_batch(params, xb, loss, config)
        return ws, bs, None, None
    return relax_batch(params, xb, loss, config.relax_config())


# ---------------------------------------------------------------------------
# Training.


@dataclass
class TrainResult:
    rows: list
    params: NetworkParams
    config_hash: str
    classes: int


def _cosine_lr(epoch: int, epochs: int, lr_max: float, lr_min: float) -> float:
    """Learning rate for 1-based ``epoch``; hits lr_max at 1, lr_min at end."""
    if epochs <= 1:
        return lr_max
    t = (epoch - 1) / (epochs - 1)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t))


def _eval_set(
    features: np.ndarray, onehot: np.ndarray, kind: LossKind, params: NetworkParams
) -> tuple:
    """The (inputs as columns, loss, labels, forward buffers) that
    :func:`_evaluate` takes for ``params``' layout, built once per run."""
    dtype = params.dtype
    x_cols = np.ascontiguousarray(features.T.astype(dtype))
    shape = (max(params.widths), x_cols.shape[1])
    bufs = (np.empty(shape, dtype), np.empty(shape, dtype))
    return x_cols, LossSpec(kind, onehot.T.astype(dtype)), np.argmax(onehot, axis=1), bufs


def _evaluate(
    params: NetworkParams, x_cols: np.ndarray, loss: LossSpec, labels, bufs: tuple
) -> tuple:
    """Mean loss and accuracy over a sample set held as columns, from the
    output-only forward through the set's two buffers."""
    out = forward_output(params, x_cols, bufs)
    mean_loss = float(np.asarray(loss.value(out), dtype=np.float64).mean())
    acc = float(np.mean(np.argmax(out, axis=0) == labels))
    return mean_loss, acc


def _pack(views, weight_grads, bias_grads) -> None:
    """Write per-layer gradients into the (W_l, b_l) views of a (P,) vector."""
    for (w, b), gw, gb in zip(views, weight_grads, bias_grads, strict=True):
        w[...], b[...] = gw, gb


def _mean_or_none(values) -> Optional[float]:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def _draw_network(
    config: ExperimentConfig, input_dim: int, classes: int, rng: np.random.Generator
) -> NetworkParams:
    """Random network of the configured widths (an output layer of
    ``classes`` by default) and activations, in the configured precision."""
    widths = config.resolved_widths(classes)
    acts = config.resolved_activations(len(widths))
    return random_network(input_dim, widths, acts, rng, dtype=config.dtype)


def train(config: ExperimentConfig, csv_path=None) -> TrainResult:
    """SGD with Nesterov momentum and cosine annealing.

    The epoch log starts with an epoch-0 row for the untrained network,
    then one row per epoch.  When ``csv_path`` is given the log is
    flushed row by row, so a divergence abort still leaves a complete
    partial log behind.  Gradient methods other than BP also log mean
    fidelity of their batch gradients against batch BP.
    """
    rng = np.random.default_rng(config.seed)
    features, onehot = generate_dataset(config.dataset, config.seed)
    n, input_dim = features.shape
    classes = onehot.shape[1]
    params = _draw_network(config, input_dim, classes, rng)
    if params.widths[-1] != classes:
        raise ConfigError(
            f"output width {params.widths[-1]} does not match {classes} classes"
        )

    n_test = int(round(config.test_fraction * n))
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    if train_idx.size == 0:
        raise ConfigError("test_fraction leaves no training samples")
    train_set = _eval_set(features[train_idx], onehot[train_idx], config.loss_kind, params)
    if n_test:
        test_set = _eval_set(features[test_idx], onehot[test_idx], config.loss_kind, params)
    x_train = train_set[0]
    y_train_cols = np.ascontiguousarray(onehot[train_idx].T.astype(params.dtype))

    lr_max, lr_min = config.resolved_lr()
    # One parameter vector and one velocity in the buffer's layout; each
    # update wraps its new parameter vector, which nothing writes again.
    theta = params._flat  # type: ignore[attr-defined]
    velocity = np.zeros_like(theta)
    grad, ref = np.empty_like(theta), np.empty_like(theta)
    ref_views = params._layer_views(ref)  # ref is never replaced, its views built once

    writer = None
    if csv_path is not None:
        writer = _IncrementalCsv(csv_path, TRAIN_FIELDS, config.seed, config.config_hash())
    rows: list = []

    def log_epoch(params: NetworkParams, epoch: int, lr=None, **columns) -> None:
        """Log the row of ``epoch``: ``params`` on the train and test sets."""
        train_loss, train_acc = _evaluate(params, *train_set)
        test_acc = _evaluate(params, *test_set)[1] if n_test else None
        rows.append(dict(epoch=epoch, lr=lr, train_loss=train_loss, train_acc=train_acc,
                         test_acc=test_acc, **columns))
        if writer is not None:
            writer.write_row(rows[-1])

    try:
        log_epoch(params, 0)

        n_train = x_train.shape[1]
        mu, wd = config.momentum, config.weight_decay
        for epoch in range(1, config.epochs + 1):
            lr = _cosine_lr(epoch, config.epochs, lr_max, lr_min)
            order = rng.permutation(n_train)
            iter_counts, conv_flags, fid_records = [], [], []  # per batch
            for start in range(0, n_train, config.batch_size):
                idx = order[start : start + config.batch_size]
                xb = x_train[:, idx]
                loss = LossSpec(config.loss_kind, y_train_cols[:, idx])
                ws, bs, iters, conv = _batch_gradients(params, xb, loss, config)
                _pack(params._layer_views(grad), ws, bs)
                if iters is not None:
                    iter_counts.append(float(np.mean(iters)))
                    conv_flags.append(float(np.mean(conv)))
                if config.method is not GradientMethod.BP:
                    _pack(ref_views, *backprop_batch(params, xb, loss))
                    if not (np.isfinite(grad).all() and np.isfinite(ref).all()):
                        raise NumericError(_NON_FINITE)  # GradientBundle's check
                    t, r = (v.astype(np.float64, copy=False) for v in (grad, ref))
                    fid_records.append(_global_metrics(t, r))

                # Nesterov: g = grad + wd theta, v = mu v + g, theta - lr (g + mu v),
                # in grad and velocity with ref as scratch; grad becomes the new theta.
                grad += np.multiply(theta, wd, out=ref)
                velocity *= mu
                velocity += grad
                grad += np.multiply(velocity, mu, out=ref)
                grad *= lr
                np.subtract(theta, grad, out=grad)
                if not np.isfinite(grad).all():
                    raise NumericError(f"parameters diverged in epoch {epoch}; partial log kept")
                params = params._with_flat(grad)
                theta = grad  # frees the old theta, whose memory the next grad reuses
                grad = np.empty_like(theta)

            fidelity = {
                f"fid_{key}": _mean_or_none(rec[i] for rec in fid_records)
                for i, key in enumerate(_FID_KEYS)
            }
            log_epoch(params, epoch, lr, mean_iterations=_mean_or_none(iter_counts),
                      frac_converged=_mean_or_none(conv_flags), **fidelity)
    finally:
        if writer is not None:
            writer.close()

    return TrainResult(
        rows=rows, params=params, config_hash=config.config_hash(), classes=classes
    )


# ---------------------------------------------------------------------------
# Gradient checking and step-size sweeps.


def _random_instance(
    config: ExperimentConfig, rng: np.random.Generator
) -> tuple:
    """One random (params, input, loss) triple for a fidelity trial."""
    params = _draw_network(config, config.input_dim, config.dataset.classes, rng)
    x0 = rng.standard_normal(config.input_dim)
    out_dim = params.widths[-1]
    if config.loss_kind is LossKind.MSE:
        target = rng.standard_normal(out_dim)
    else:
        target = np.zeros(out_dim)
        target[int(rng.integers(out_dim))] = 1.0
    dtype = params.dtype
    return params, x0.astype(dtype), LossSpec(config.loss_kind, target.astype(dtype))


def _sample_gradient(
    params: NetworkParams,
    x0: np.ndarray,
    loss: LossSpec,
    config: ExperimentConfig,
) -> tuple[GradientBundle, Optional[RelaxTrace]]:
    """Gradient of one sample by the configured method, and the trace of
    a step-size-driven relaxation (None for the other methods).

    The engines are read as module globals at each call, so rebinding
    them here (as the benchmark's span tracer does) reaches every call.
    """
    method = config.method
    if method is GradientMethod.BP:
        return classical_backprop(params, x0, loss)[0], None
    if method is GradientMethod.FINITE_DIFF:
        return finite_difference_grad(params, x0, loss, h=config.fd_step), None
    if method is GradientMethod.TWO_L:
        return relax_twoL(params, x0, loss)[2], None
    if method is GradientMethod.DYADIC:
        relax = relax_dyadic
    elif method is GradientMethod.MEAN_STRESS:
        relax = relax_mean_stress
    else:
        relax = relax_split
    cfg = config.relax_config()
    _, _, bundle, trace = relax(params, x0, loss, cfg)
    return bundle, trace


def check_gradients(config: ExperimentConfig, trials: int = 20) -> list:
    """Compare the configured method against classical backprop.

    Each trial draws a fresh random network and input, computes the
    gradient both ways, and records the fidelity metrics as one row.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(config.seed)
    rows = []
    for t in range(trials):
        params, x0, loss = _random_instance(config, rng)
        bundle, trace = _sample_gradient(params, x0, loss, config)
        ref, _ = classical_backprop(params, x0, loss)
        report = compare(bundle, ref)
        if trace is not None:
            iterations, converged = trace.iterations_used, trace.converged
        else:
            two_l = config.method is GradientMethod.TWO_L
            iterations, converged = (2 * params.depth if two_l else None), True
        row = {
            "trial": t,
            "method": config.method.value,
            "iterations": iterations,
            "converged": converged,
        }
        row.update(report.to_record())
        rows.append(row)
    return rows


def sweep_eta(
    config: ExperimentConfig, eta_list: Sequence[float], trials: int = 20
) -> list:
    """Fidelity of the configured relaxation method across step sizes.

    The same random instances are reused for every eta so rows differ
    only through the step size.  Only step-size-driven methods make
    sense here; TwoL, BP and finite differences are rejected.
    """
    if config.method not in _ETA_DRIVEN:
        raise ConfigError(
            f"sweep requires a step-size-driven method, got {config.method.value}"
        )
    etas = [float(e) for e in eta_list]
    if not etas:
        raise ConfigError("eta list is empty")
    if any(e <= 0.0 for e in etas):
        raise ConfigError("eta values must be positive")
    if trials < 1:
        raise ConfigError("trials must be >= 1")

    rng = np.random.default_rng(config.seed)
    instances = [_random_instance(config, rng) for _ in range(trials)]
    references = [
        classical_backprop(params, x0, loss)[0] for params, x0, loss in instances
    ]

    rows = []
    for eta in etas:
        eta_config = dataclasses.replace(config, eta=eta)
        reports = []
        iters = []
        convs = []
        for (params, x0, loss), ref in zip(instances, references):
            bundle, trace = _sample_gradient(params, x0, loss, eta_config)
            reports.append(compare(bundle, ref))
            iters.append(trace.iterations_used)
            convs.append(float(trace.converged))
        cosines = [r.cosine_similarity for r in reports]
        rel_errs = [r.relative_error for r in reports if r.relative_error is not None]
        ratios = [r.norm_ratio for r in reports if r.norm_ratio is not None]
        logmis = [
            max(r.per_layer_log_misalignment) for r in reports
        ]
        rows.append(
            {
                "eta": eta,
                "mean_iterations": float(np.mean(iters)),
                "max_iterations": int(np.max(iters)),
                "frac_converged": float(np.mean(convs)),
                "mean_cos": float(np.mean(cosines)),
                "min_cos": float(np.min(cosines)),
                "mean_rel_err": float(np.mean(rel_errs)) if rel_errs else None,
                "max_rel_err": float(np.max(rel_errs)) if rel_errs else None,
                "mean_norm_ratio": float(np.mean(ratios)) if ratios else None,
                "min_norm_ratio": float(np.min(ratios)) if ratios else None,
                "max_norm_ratio": float(np.max(ratios)) if ratios else None,
                "worst_logmis": float(np.max(logmis)),
            }
        )
    return rows
