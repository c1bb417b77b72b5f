"""Exact neural-network gradients from a relaxed two-state dynamical system.

A feed-forward network is recast as one global fixed-point condition on
a stacked state vector.  Doubling that state into a pair (x, z) yields
a saddle system whose equilibrium encodes both the forward activations
(the mean, (x + z) / 2) and the loss sensitivities (the stress, x - z).
With unit step size the Euler discretization settles in exactly 2L
steps for a depth-L network and reproduces classical backpropagation
bit for bit; smaller steps trade iterations for the same answer.

The package provides the network algebra, the relaxation dynamics,
independent reference gradients, fidelity metrics, synthetic datasets,
and a training harness with a CLI front end.
"""

from .datasets import DatasetKind, DatasetSpec, generate_dataset, write_dataset_csv
from .dynamics import (
    RelaxConfig,
    RelaxMode,
    RelaxStatus,
    RelaxTrace,
    StabilityReport,
    energy,
    relax_batch,
    relax_dyadic,
    relax_mean_stress,
    relax_split,
    relax_twoL,
    stability_check,
)
from .errors import ConfigError, ConvergenceError, NumericError, ShapeError
from .fidelity import FidelityReport, compare, log_misalignment
from .losses import LossKind, LossSpec
from .network import (
    Activation,
    LayerParams,
    LayerSpec,
    NetworkParams,
    apply_global_W,
    beta_drive,
    forward_field,
    forward_pass,
    random_network,
)
from .reference import (
    GradientBundle,
    classical_backprop,
    finite_difference_grad,
    neumann_stress,
)
from .training import (
    ExperimentConfig,
    GradientMethod,
    TrainResult,
    check_gradients,
    sweep_eta,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "ConfigError",
    "ConvergenceError",
    "DatasetKind",
    "DatasetSpec",
    "ExperimentConfig",
    "FidelityReport",
    "GradientBundle",
    "GradientMethod",
    "LayerParams",
    "LayerSpec",
    "LossKind",
    "LossSpec",
    "NetworkParams",
    "NumericError",
    "RelaxConfig",
    "RelaxMode",
    "RelaxStatus",
    "RelaxTrace",
    "ShapeError",
    "StabilityReport",
    "TrainResult",
    "apply_global_W",
    "beta_drive",
    "check_gradients",
    "classical_backprop",
    "compare",
    "energy",
    "finite_difference_grad",
    "forward_field",
    "forward_pass",
    "generate_dataset",
    "log_misalignment",
    "neumann_stress",
    "random_network",
    "relax_batch",
    "relax_dyadic",
    "relax_mean_stress",
    "relax_split",
    "relax_twoL",
    "stability_check",
    "sweep_eta",
    "train",
    "write_dataset_csv",
]
