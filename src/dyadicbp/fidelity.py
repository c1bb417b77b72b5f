"""Gradient-fidelity metrics between two gradient bundles.

All metrics are computed in float64 regardless of the bundles' storage
precision; the storage precision only sets the clamp floor used for the
log-misalignment, so a 32-bit run plateaus at the 32-bit floor instead
of producing spurious -inf values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .reference import GradientBundle

__all__ = [
    "FLOOR_64",
    "FLOOR_32",
    "FidelityReport",
    "compare",
    "log_misalignment",
]

FLOOR_64 = 1e-16
FLOOR_32 = 1e-8


def log_misalignment(cos: float, precision_floor: float) -> float:
    """log10(1 - cos), clamped below at the precision floor.

    The clamp keeps a perfectly aligned pair at the finite machine
    plateau (-16 in 64-bit, -8 in 32-bit) instead of -inf.
    """
    if cos > 1.0 + 1e-12:
        raise ValueError("cosine similarity cannot exceed 1")
    return math.log10(max(1.0 - cos, precision_floor))


def _cosine(t: np.ndarray, r: np.ndarray) -> float:
    # Identical vectors get an exact 1.0; the norm product below would
    # otherwise smear it by a couple of ulps through the square roots.
    if np.array_equal(t, r):
        return 1.0
    nt = float(np.linalg.norm(t))
    nr = float(np.linalg.norm(r))
    if nt == 0.0 or nr == 0.0:
        return 0.0
    return float(np.clip(np.dot(t, r) / (nt * nr), -1.0, 1.0))


def _global_metrics(t: np.ndarray, r: np.ndarray) -> tuple:
    """(cos, rel_err, norm_ratio, snr) of the float64 vector ``t`` against
    ``r``: the global metrics of :func:`compare`, the ones ``train`` logs."""
    nt = float(np.linalg.norm(t))
    nr = float(np.linalg.norm(r))
    diff = float(np.linalg.norm(t - r))
    if not nr > 0.0:
        return _cosine(t, r), None, None, None
    snr = math.inf if diff == 0.0 else (nr * nr) / (diff * diff)
    return _cosine(t, r), diff / nr, nt / nr, snr


@dataclass(frozen=True)
class FidelityReport:
    """The metric set comparing a test bundle against a reference bundle.

    The ratio metrics are None (serialized as an empty CSV field) when
    the reference gradient is exactly zero; the SNR is +inf when the two
    bundles are identical.
    """

    cosine_similarity: float
    relative_error: Optional[float]
    norm_ratio: Optional[float]
    snr: Optional[float]
    per_layer_cosine: tuple[float, ...]
    per_layer_log_misalignment: tuple[float, ...]
    precision_floor: float

    def to_record(self) -> dict:
        """Flat record with fixed column names for CSV emission."""
        record: dict = {
            "cos": self.cosine_similarity,
            "rel_err": self.relative_error,
            "norm_ratio": self.norm_ratio,
            "snr": self.snr,
        }
        for i, (c, lm) in enumerate(
            zip(self.per_layer_cosine, self.per_layer_log_misalignment), start=1
        ):
            record[f"layer_{i}_cos"] = c
            record[f"layer_{i}_logmis"] = lm
        return record


def compare(test: GradientBundle, reference: GradientBundle) -> FidelityReport:
    """Compute all fidelity metrics of ``test`` against ``reference``.

    The global metrics use the full flattened concatenation of each
    bundle; the per-layer metrics use each layer's concatenated (W, b)
    gradients. The precision floor follows the bundles' storage
    precision (32-bit wins if either side stores float32).
    """
    if test.depth != reference.depth:
        raise ShapeError("bundles compare layer by layer; depths differ")
    for gt, gr in zip(test.weight_grads, reference.weight_grads):
        if gt.shape != gr.shape:
            raise ShapeError(f"weight gradient shapes differ: {gt.shape} vs {gr.shape}")
    dtypes = [g.dtype for g in test.weight_grads + reference.weight_grads]
    precision_floor = FLOOR_32 if any(dt == np.float32 for dt in dtypes) else FLOOR_64

    # One float64 (W, b) vector per layer; their concatenation is ``flat()``.
    t_layers = [test.layer_flat(i).astype(np.float64, copy=False) for i in range(test.depth)]
    r_layers = [reference.layer_flat(i).astype(np.float64, copy=False) for i in range(test.depth)]
    cos, relative_error, norm_ratio, snr = _global_metrics(
        np.concatenate(t_layers), np.concatenate(r_layers)
    )

    per_cos = []
    per_logmis = []
    for tl, rl in zip(t_layers, r_layers):
        c = _cosine(tl, rl)
        per_cos.append(c)
        per_logmis.append(log_misalignment(c, precision_floor))

    return FidelityReport(
        cosine_similarity=cos,
        relative_error=relative_error,
        norm_ratio=norm_ratio,
        snr=snr,
        per_layer_cosine=tuple(per_cos),
        per_layer_log_misalignment=tuple(per_logmis),
        precision_floor=precision_floor,
    )
