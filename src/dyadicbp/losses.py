"""Task losses evaluated on the network's output block.

Softmax is folded into the cross-entropy loss, so the network output
stays a plain elementwise-activated block (use an Identity output layer
for classification) and the loss gradient is softmax(a_L) - y.

Softmax and log-sum-exp are scipy's operations in scipy's order, in numpy
alone (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError, enum_from_name

__all__ = ["LossKind", "LossSpec"]


class LossKind(enum.Enum):
    MSE = "MSE"
    SOFTMAX_CROSS_ENTROPY = "SoftmaxCrossEntropy"

    @classmethod
    def from_name(cls, name: str) -> "LossKind":
        return enum_from_name(cls, name, "loss kind")


@dataclass(frozen=True, eq=False)
class LossSpec:
    """A loss kind together with its target y.

    The target has shape (n_L,) for a single sample or (n_L, B) for a
    batch evaluated columnwise. For cross-entropy each target column
    must be a probability vector.
    """

    kind: LossKind
    target: np.ndarray

    def __post_init__(self) -> None:
        target = np.asarray(self.target)
        object.__setattr__(self, "target", target)
        if target.ndim not in (1, 2) or target.size == 0:
            raise ShapeError("loss target must be a vector or a column batch, not empty")
        if not np.isfinite(target).all():
            raise ValueError("loss target must be finite")
        if self.kind is LossKind.SOFTMAX_CROSS_ENTROPY:
            # np.allclose(sums, 1.0, atol=1e-6) written out: its bound
            # atol + rtol * 1.0 compared in the sums' dtype; inf and NaN fail.
            sums = target.sum(axis=0)
            if target.min() < 0 or not (abs(sums - 1.0) <= 1e-6 + 1e-5).all():
                raise ValueError(
                    "cross-entropy targets must be probability vectors summing to 1"
                )

    def _check_output(self, output: np.ndarray) -> np.ndarray:
        output = np.asarray(output)
        if output.shape != self.target.shape:
            raise ShapeError(
                f"output shape {output.shape} does not match target shape "
                f"{self.target.shape}"
            )
        return output

    def value(self, output: np.ndarray):
        """C(output, y); a scalar for a single sample, a (B,) array batched."""
        output = self._check_output(output)
        if self.kind is LossKind.MSE:
            diff = output - self.target
            val = 0.5 * np.sum(diff * diff, axis=0)
        else:
            val = _logsumexp(output) - np.sum(self.target * output, axis=0)
        if not np.isfinite(val).all():
            raise NumericError("loss value is not finite")
        return float(val) if output.ndim == 1 else val

    def gradient(self, output: np.ndarray) -> np.ndarray:
        """Gradient of C with respect to the output block, columnwise, in
        the dtype of ``output - target``."""
        output = self._check_output(output)
        grad = np.empty(output.shape, np.result_type(output, self.target))
        if not np.isfinite(_gradient_into(self, output, grad)).all():
            raise NumericError("loss gradient is not finite")
        return grad


def _gradient_into(loss: LossSpec, output: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The loss gradient at ``output`` written into ``out`` (which may be
    ``output``), unchecked: the kernel of ``LossSpec.gradient``, for
    callers that check shapes once and the result themselves. Cross-entropy
    is softmax(output) - y, the max-shifted exponentials over their sum;
    the reductions run along axis 0, their default: columnwise."""
    if loss.kind is LossKind.MSE:
        return np.subtract(output, loss.target, out=out)
    np.subtract(output, np.maximum.reduce(output), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out)
    out -= loss.target
    return out


def _bind_gradient(loss: LossSpec, output: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    """``_gradient_into(loss, output, out)`` as one closure: the same ufunc
    calls, with the column maxima and sums written into buffers made here."""
    target = loss.target
    if loss.kind is LossKind.MSE:
        return partial(np.subtract, output, target, out)
    peak, total = (np.empty(output.shape[1:], dtype=out.dtype) for _ in range(2))

    def gradient() -> None:
        np.maximum.reduce(output, 0, None, peak)
        np.subtract(output, peak, out)
        np.exp(out, out)
        np.add.reduce(out, 0, None, total)
        np.divide(out, total, out)
        np.subtract(out, target, out)

    return gradient


def _logsumexp(output: np.ndarray):
    """scipy's ``logsumexp(output, axis=0)`` for real input: the m tied maxima
    leave the shifted sum, then log1p(sum / m) + log(m) + max (m >= 1)."""
    a_max = np.maximum.reduce(output, axis=0)
    top = output == a_max
    rest = np.exp(np.where(top, -np.inf, output) - a_max)
    m = np.add.reduce(top, axis=0, dtype=rest.dtype)
    return np.log1p(np.add.reduce(rest, axis=0) / m) + np.log(m) + a_max


def _check_target(loss: LossSpec, dtype: np.dtype) -> LossSpec:
    """``loss`` with its target in the parameters' ``dtype``.

    Integer and bool targets are cast. A float target of another width
    is a ShapeError: it would silently change the gradients' dtype.
    """
    target = loss.target
    if target.dtype == dtype:
        return loss
    if target.dtype.kind not in "biu":
        raise ShapeError(f"loss target dtype {target.dtype} does not match parameters' {dtype}")
    return LossSpec(loss.kind, target.astype(dtype))
