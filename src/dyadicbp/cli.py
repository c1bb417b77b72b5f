"""Command-line front end.

Subcommands: gen-data, check, sweep, relax, train.  Configuration comes
from an optional YAML file plus flag overrides; flags win.  Every CSV
written carries ``# seed`` and ``# config`` comment lines so outputs
are attributable to an exact run.

Exit codes: 0 success, 1 usage or config error, 2 numeric failure,
3 non-convergence when --strict demanded convergence: a relaxation that
ran out of budget (one that stopped at the precision floor converged).
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
from .dynamics import _trajectory
from .errors import ConfigError, ConvergenceError, NumericError, ShapeError
from .training import (
    ExperimentConfig,
    SWEEP_FIELDS,
    _ETA_DRIVEN,
    _random_instance,
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
    parser.add_argument("--kmax", type=int, dest="k_max", help="iteration cap")
    parser.add_argument("--tol", type=float, help="stopping tolerance")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument(
        "--method",
        help="gradient method: BP, Dyadic, TwoL, Split, FiniteDiff",
    )
    parser.add_argument("--precision", type=int, choices=(32, 64), help="float width")
    parser.add_argument("--out", dest="out_dir", help="output directory")
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


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must contain a mapping")
        mapping = loaded
    # Each override flag's dest is the field it sets, which checks it.
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return dataclasses.replace(ExperimentConfig.from_mapping(mapping), **overrides)


# Each _cmd_* writes its output and returns what did not converge, or
# None; _run turns that into a ConvergenceError under --strict.


def _cmd_gen_data(config: ExperimentConfig) -> None:
    features, onehot = generate_dataset(config.dataset, config.seed)
    path = Path(config.out_dir) / "dataset.csv"
    write_dataset_csv(path, features, onehot, config.seed, config.config_hash())
    print(
        f"wrote {path}: {features.shape[0]} samples, "
        f"{features.shape[1]} features, {onehot.shape[1]} classes"
    )


def _cmd_check(config: ExperimentConfig, trials: int) -> Optional[str]:
    rows = check_gradients(config, trials)
    path = Path(config.out_dir) / "check.csv"
    write_csv(path, list(rows[0].keys()), rows, config.seed, config.config_hash())
    cosines = [row["cos"] for row in rows]
    rel_errs = [row["rel_err"] for row in rows if row["rel_err"] is not None]
    print(f"wrote {path}: {len(rows)} trials, method={config.method.value}")
    print(f"  cos: mean {np.mean(cosines):.17g}, min {np.min(cosines):.17g}")
    if rel_errs:
        print(f"  rel_err: mean {np.mean(rel_errs):.3e}, max {np.max(rel_errs):.3e}")
    bad = sum(1 for row in rows if not row["converged"])
    return f"{bad} of {len(rows)} trials did not converge" if bad else None


def _cmd_sweep(config: ExperimentConfig, etas: Sequence[float], trials: int) -> Optional[str]:
    rows = sweep_eta(config, etas, trials)
    path = Path(config.out_dir) / "sweep.csv"
    write_csv(path, SWEEP_FIELDS, rows, config.seed, config.config_hash())
    print(f"wrote {path}: {len(rows)} step sizes, {trials} trials each")
    for row in rows:
        print(
            f"  eta={row['eta']:g}: mean iterations {row['mean_iterations']:.2f}, "
            f"min cos {row['min_cos']:.17g}"
        )
    unconverged = any(row["frac_converged"] < 1.0 for row in rows)
    return "some sweep trials did not converge" if unconverged else None


def _cmd_relax(config: ExperimentConfig) -> Optional[str]:
    if config.method not in _ETA_DRIVEN:
        raise ConfigError(
            f"relax needs a step-size-driven method, got {config.method.value}"
        )
    rng = np.random.default_rng(config.seed)
    params, x0, loss = _random_instance(config, rng)
    trace, records = _trajectory(params, x0, loss, config.relax_config())

    # One row per Euler update, with the stress norm of each layer.
    stress = tuple(f"stress_{i}" for i in range(1, params.depth + 1))
    fieldnames = ("k", "delta_norm", "energy") + stress
    rows = [
        {"k": k, "delta_norm": delta, "energy": energy, **dict(zip(stress, norms))}
        for k, (delta, energy, norms) in enumerate(records, start=1)
    ]
    path = Path(config.out_dir) / "trajectory.csv"
    write_csv(path, fieldnames, rows, config.seed, config.config_hash())
    print(f"wrote {path}: {trace.iterations_used} iterations, stop reason: {trace.status.value}")
    if not trace.converged:
        return f"relaxation did not converge within {config.k_max} iterations"
    return None


def _cmd_train(config: ExperimentConfig) -> Optional[str]:
    path = Path(config.out_dir) / "train.csv"
    result = train(config, csv_path=path)
    last = result.rows[-1]
    print(f"wrote {path}: {len(result.rows)} rows, method={config.method.value}")
    print(
        f"  final: epoch {last['epoch']}, train_loss {last['train_loss']:.6f}, "
        f"train_acc {last['train_acc']:.4f}, test_acc "
        + (f"{last['test_acc']:.4f}" if last["test_acc"] is not None else "n/a")
    )
    fracs = [row.get("frac_converged") for row in result.rows]
    bad = sum(1 for frac in fracs if frac is not None and frac < 1.0)
    return f"{bad} epochs contained unconverged relaxations" if bad else None


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
        unconverged = _cmd_gen_data(config)
    elif args.command == "check":
        unconverged = _cmd_check(config, args.trials)
    elif args.command == "sweep":
        unconverged = _cmd_sweep(config, _parse_etas(args.etas), args.trials)
    elif args.command == "relax":
        unconverged = _cmd_relax(config)
    else:
        unconverged = _cmd_train(config)
    if config.strict and unconverged:
        raise ConvergenceError(unconverged)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
