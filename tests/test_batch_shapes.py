"""Targets and batches of the wrong shape are ShapeErrors, raised before a
relaxation takes its first step, in every mode and in batched backprop."""

import numpy as np
import pytest

from dyadicbp import (
    Activation,
    LossKind,
    LossSpec,
    RelaxConfig,
    RelaxMode,
    ShapeError,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
)
from dyadicbp.reference import backprop_batch

N0, N_L, B = 3, 4, 5


def _params():
    rng = np.random.default_rng(0)
    return random_network(N0, (6, N_L), (Activation.TANH, Activation.IDENTITY), rng)


def _mse(shape):
    return LossSpec(LossKind.MSE, np.random.default_rng(1).standard_normal(shape))


@pytest.mark.parametrize("mode", tuple(RelaxMode))
@pytest.mark.parametrize("shape", ((N_L, 1), (N_L,), (N_L + 1, B)), ids=str)
def test_batch_target_of_another_shape_is_rejected(mode, shape):
    x = np.random.default_rng(2).standard_normal((N0, B))
    with pytest.raises(ShapeError, match="loss target has shape"):
        relax_batch(_params(), x, _mse(shape), RelaxConfig(mode=mode))


def _no_step(k, first, second):
    raise AssertionError(f"step {k} ran")


SAMPLE_RELAXATIONS = {
    "Dyadic": lambda p, x, loss: relax_dyadic(p, x, loss, RelaxConfig(), _no_step),
    "relax_mean_stress": lambda p, x, loss: relax_mean_stress(
        p, x, loss, RelaxConfig(), _no_step
    ),
    "Split": lambda p, x, loss: relax_split(
        p, x, loss, RelaxConfig(mode=RelaxMode.SPLIT), _no_step
    ),
    "TwoL": relax_twoL,
}


@pytest.mark.parametrize("relax", SAMPLE_RELAXATIONS.values(), ids=SAMPLE_RELAXATIONS.keys())
@pytest.mark.parametrize("shape", ((1,), (N_L, 1), (N_L + 1,)), ids=str)
def test_sample_target_of_another_shape_is_rejected_before_a_step(relax, shape):
    x = np.random.default_rng(3).standard_normal(N0)
    with pytest.raises(ShapeError, match="loss target has shape"):
        relax(_params(), x, _mse(shape))


@pytest.mark.parametrize("mode", tuple(RelaxMode))
def test_empty_batch_is_rejected(mode):
    empty = np.zeros((N0, 0))
    with pytest.raises(ShapeError, match="B >= 1"):
        relax_batch(_params(), empty, _mse((N_L, B)), RelaxConfig(mode=mode))
    with pytest.raises(ShapeError, match="B >= 1"):
        backprop_batch(_params(), empty, _mse((N_L, B)))


@pytest.mark.parametrize("kind", tuple(LossKind))
def test_empty_target_is_rejected(kind):
    with pytest.raises(ShapeError, match="not empty"):
        LossSpec(kind, np.zeros((N_L, 0)))


def test_backprop_batch_rejects_a_single_sample():
    x = np.random.default_rng(4).standard_normal(N0)
    with pytest.raises(ShapeError, match="expected"):
        backprop_batch(_params(), x, _mse(N_L))
