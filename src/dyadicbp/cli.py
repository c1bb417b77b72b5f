"""Command-line front end.

Subcommands: gen-data, check, sweep, relax, train.  Configuration comes
from an optional YAML file plus flag overrides; flags win.  Every CSV
written carries ``# seed`` and ``# config`` comment lines so outputs
are attributable to an exact run.

Exit codes: 0 success, 1 usage or config error, 2 numeric failure,
3 non-convergence when --strict demanded convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from .datasets import generate_dataset, write_dataset_csv
from .errors import ConfigError, ConvergenceError, NumericError, ShapeError
from .training import (
    ExperimentConfig,
    SWEEP_FIELDS,
    _ETA_DRIVEN,
    _PARSE,
    _random_instance,
    _sample_gradient,
    check_gradients,
    sweep_eta,
    train,
    write_csv,
)

__all__ = ["main"]

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--eta", type=float, help="relaxation step size")
    parser.add_argument("--kmax", type=int, help="iteration cap")
    parser.add_argument("--tol", type=float, help="stopping tolerance")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument(
        "--method",
        help="gradient method: BP, Dyadic, MeanStress, TwoL, Split, FiniteDiff",
    )
    parser.add_argument("--precision", type=int, choices=(32, 64), help="float width")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--strict",
        action="store_const",
        const=True,
        default=None,
        help="treat non-convergence as a failure (exit 3)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="dyadicbp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a dataset CSV")
    _add_common(p)

    p = sub.add_parser("check", help="gradient fidelity trials against backprop")
    _add_common(p)
    p.add_argument("--trials", type=int, default=20, help="number of random trials")

    p = sub.add_parser("sweep", help="fidelity and iteration counts across step sizes")
    _add_common(p)
    p.add_argument(
        "--etas",
        default="0.25,0.5,0.75,1.0",
        help="comma-separated step sizes",
    )
    p.add_argument("--trials", type=int, default=20, help="trials per step size")

    p = sub.add_parser("relax", help="dump one relaxation trajectory")
    _add_common(p)

    p = sub.add_parser("train", help="SGD training with the configured method")
    _add_common(p)

    return parser


# Each override flag and the config field it sets; its value goes through
# the parser that the same value from the YAML file goes through.
_FLAG_FIELDS = {
    "eta": "eta", "kmax": "k_max", "tol": "tol", "seed": "seed", "method": "method",
    "precision": "precision", "out": "out_dir", "strict": "strict",
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must contain a mapping")
        mapping = loaded
    config = ExperimentConfig.from_mapping(mapping)

    overrides = {
        field: _PARSE[field](getattr(args, flag))
        for flag, field in _FLAG_FIELDS.items()
        if getattr(args, flag) is not None
    }
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_data(config: ExperimentConfig) -> int:
    features, onehot = generate_dataset(config.dataset, config.seed)
    path = _out_dir(config) / "dataset.csv"
    write_dataset_csv(path, features, onehot, config.seed, config.config_hash())
    print(
        f"wrote {path}: {features.shape[0]} samples, "
        f"{features.shape[1]} features, {onehot.shape[1]} classes"
    )
    return 0


def _cmd_check(config: ExperimentConfig, trials: int) -> int:
    rows = check_gradients(config, trials)
    path = _out_dir(config) / "check.csv"
    write_csv(path, list(rows[0].keys()), rows, config.seed, config.config_hash())
    cosines = [row["cos"] for row in rows]
    rel_errs = [row["rel_err"] for row in rows if row["rel_err"] is not None]
    print(f"wrote {path}: {len(rows)} trials, method={config.method.value}")
    print(f"  cos: mean {np.mean(cosines):.17g}, min {np.min(cosines):.17g}")
    if rel_errs:
        print(f"  rel_err: mean {np.mean(rel_errs):.3e}, max {np.max(rel_errs):.3e}")
    if config.strict and not all(row["converged"] for row in rows):
        bad = sum(1 for row in rows if not row["converged"])
        raise ConvergenceError(f"{bad} of {len(rows)} trials did not converge")
    return 0


def _cmd_sweep(config: ExperimentConfig, etas: Sequence[float], trials: int) -> int:
    rows = sweep_eta(config, etas, trials)
    path = _out_dir(config) / "sweep.csv"
    write_csv(path, SWEEP_FIELDS, rows, config.seed, config.config_hash())
    print(f"wrote {path}: {len(rows)} step sizes, {trials} trials each")
    for row in rows:
        print(
            f"  eta={row['eta']:g}: mean iterations {row['mean_iterations']:.2f}, "
            f"min cos {row['min_cos']:.17g}"
        )
    if config.strict and any(row["frac_converged"] < 1.0 for row in rows):
        raise ConvergenceError("some sweep trials did not converge")
    return 0


def _cmd_relax(config: ExperimentConfig) -> int:
    if config.method not in _ETA_DRIVEN:
        raise ConfigError(
            f"relax needs a step-size-driven method, got {config.method.value}"
        )
    rng = np.random.default_rng(config.seed)
    params, x0, loss = _random_instance(config, rng)
    _, trace = _sample_gradient(params, x0, loss, config, record_steps=True)

    depth = params.depth
    fieldnames = ("k", "delta_norm", "energy") + tuple(
        f"stress_{i}" for i in range(1, depth + 1)
    )
    rows = []
    for k in range(trace.iterations_used):
        row = {
            "k": k + 1,
            "delta_norm": trace.deltas[k],
            "energy": trace.energies[k],
        }
        for i in range(depth):
            row[f"stress_{i + 1}"] = trace.stress_block_norms[k][i]
        rows.append(row)
    path = _out_dir(config) / "trajectory.csv"
    write_csv(path, fieldnames, rows, config.seed, config.config_hash())
    state = "converged" if trace.converged else "did not converge"
    print(f"wrote {path}: {trace.iterations_used} iterations, {state}")
    if config.strict and not trace.converged:
        raise ConvergenceError(
            f"relaxation did not converge within {config.k_max} iterations"
        )
    return 0


def _cmd_train(config: ExperimentConfig) -> int:
    path = _out_dir(config) / "train.csv"
    result = train(config, csv_path=path)
    last = result.rows[-1]
    print(f"wrote {path}: {len(result.rows)} rows, method={config.method.value}")
    print(
        f"  final: epoch {last['epoch']}, train_loss {last['train_loss']:.6f}, "
        f"train_acc {last['train_acc']:.4f}, test_acc "
        + (f"{last['test_acc']:.4f}" if last["test_acc"] is not None else "n/a")
    )
    unconverged = [
        row
        for row in result.rows
        if row.get("frac_converged") is not None and row["frac_converged"] < 1.0
    ]
    if config.strict and unconverged:
        raise ConvergenceError(
            f"{len(unconverged)} epochs contained unconverged relaxations"
        )
    return 0


def _parse_etas(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad eta list {text!r}") from exc
    return values


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _build_parser().parse_args(argv)
    config = _build_config(args)
    if args.command == "gen-data":
        return _cmd_gen_data(config)
    if args.command == "check":
        return _cmd_check(config, args.trials)
    if args.command == "sweep":
        return _cmd_sweep(config, _parse_etas(args.etas), args.trials)
    if args.command == "relax":
        return _cmd_relax(config)
    return _cmd_train(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
