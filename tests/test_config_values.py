"""Malformed config values are config errors: exit 1, an ``error:`` line
on stderr, no traceback, and no output written before the check."""

import pytest

from dyadicbp import Activation, ConfigError, DatasetKind, GradientMethod, LossKind, RelaxMode
from dyadicbp.cli import main
from dyadicbp.training import ExperimentConfig

MALFORMED = [
    ("train", 'network: {widths: ["x", 2]}'),
    ("train", "network: {widths: 5}"),
    ("train", "network: {activations: 5}"),
    ("check", "seed: abc"),
    ("check", "seed: -1"),
    ("train", 'optimizer: {epochs: "3"}'),
    ("train", 'relax: {eta: "x"}'),
    ("train", "relax: {tol: 1e-6}"),  # YAML reads 1e-6 without a dot as text
    ("train", "optimizer: {batch_size: 2.5}"),
    ("train", "relax: {k_max: 2.5}"),
    ("train", "relax: {k_max: true}"),
    ("train", 'dataset: {n_samples: "x"}'),
    ("train", 'dataset: {noise: "x"}'),
    ("train", "strict: 1"),
    ("check", "network: {input_dim: 0}"),
]


@pytest.mark.parametrize("command, text", MALFORMED)
def test_malformed_value_exits_1_without_traceback(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    args = [command, "--config", str(cfg), "--out", str(out)]
    if command == "check":
        args += ["--trials", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eta", "--tol"])
def test_non_finite_step_size_or_tolerance_exits_1(tmp_path, capsys, flag):
    # An infinite tolerance would pass every trial after one update, and
    # an infinite step size would diverge: both are config errors.
    out = tmp_path / "out"
    args = ["check", flag, "inf", "--trials", "1", "--strict", "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


def test_bad_relax_field_fails_before_train_csv(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--method", "Dyadic", "--kmax", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "train.csv").exists()


def test_int_values_stay_ints():
    # Validation does not coerce: eta 1 keeps its int spelling and hash.
    config = ExperimentConfig.from_mapping({"relax": {"eta": 1}, "optimizer": {"momentum": 0}})
    assert type(config.eta) is int and type(config.momentum) is int
    assert config.to_canonical()["relax"]["eta"] == 1


@pytest.mark.parametrize(
    "cls",
    (RelaxMode, GradientMethod, LossKind, Activation, DatasetKind),
    ids=lambda cls: cls.__name__,
)
def test_unknown_name_error_lists_every_valid_spelling(cls):
    with pytest.raises(ConfigError, match=r"unknown .* 'no-such-name' \(one of ") as info:
        cls.from_name("no-such-name")
    listed = str(info.value).split("(one of ", 1)[1]
    assert listed == ", ".join(member.value for member in cls) + ")"


@pytest.mark.parametrize("name", ("MeanStress", "mean_stress", "MEAN-STRESS"))
def test_retired_method_name_in_a_config_exits_1(tmp_path, capsys, name):
    # MeanStress was a second name for Dyadic; no spelling of it is a method.
    cfg = tmp_path / "retired.yaml"
    cfg.write_text(f"method: {name}\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown gradient method '{name}' (one of BP, Dyadic,")
    assert "Traceback" not in err
    assert not out.exists()
