"""One config key per field: each field carries its checker and is set by
exactly one key of a config file, every config survives its canonical
form, and a value of the wrong type is a ConfigError on every route that
builds a config."""

import dataclasses

import pytest

from dyadicbp import (
    Activation,
    ConfigError,
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    GradientMethod,
    LossKind,
    RelaxConfig,
)
from dyadicbp import training
from dyadicbp.cli import main


def test_each_field_is_set_by_exactly_one_key():
    for cls in (ExperimentConfig, DatasetSpec):
        for f in dataclasses.fields(cls):
            assert ("check" in f.metadata) == (f.name != "dataset"), f.name
    set_by_keys = [name for keys in training._sections().values() for name in keys.values()]
    fields = [f.name for cls in (ExperimentConfig, DatasetSpec) for f in dataclasses.fields(cls)]
    assert sorted(set_by_keys) == sorted(set(fields) - {"dataset"})


def _one_config_per_member():
    yield from (ExperimentConfig(method=m) for m in GradientMethod)
    yield from (ExperimentConfig(loss_kind=k) for k in LossKind)
    for act in Activation:
        yield ExperimentConfig(activation=act)
        yield ExperimentConfig(widths=(4, 2), activations=(act, Activation.IDENTITY))
    yield ExperimentConfig(dataset=DatasetSpec(kind=DatasetKind.TWO_MOONS))
    yield ExperimentConfig(dataset=DatasetSpec(kind=DatasetKind.SPIRALS, classes=3))
    yield ExperimentConfig(dataset=DatasetSpec(kind=DatasetKind.GAUSSIAN_BLOBS, classes=4))
    yield ExperimentConfig(dataset=DatasetSpec(kind=DatasetKind.CSV_FILE, path="data.csv"))


@pytest.mark.parametrize("config", list(_one_config_per_member()))
def test_canonical_form_reads_back_to_the_same_config(config):
    assert ExperimentConfig.from_mapping(config.to_canonical()) == config


WRONG_TYPES = {
    "widths": lambda: ExperimentConfig(widths=(2.5,)),
    "seed": lambda: ExperimentConfig(seed="1"),
    "n_samples": lambda: DatasetSpec(n_samples=2.5),
    "epochs": lambda: dataclasses.replace(ExperimentConfig(), epochs=2.5),
    "dataset": lambda: ExperimentConfig(dataset={"n_samples": 10}),
    "k_max": lambda: RelaxConfig(k_max=2.5),
    "k_max bool": lambda: RelaxConfig(k_max=True),
}


@pytest.mark.parametrize("build", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_wrong_type_is_a_config_error_where_the_config_is_built(build):
    with pytest.raises(ConfigError, match="must be (an|a list of) integer|DatasetSpec"):
        build()


def test_wrong_method_flag_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check", "--method", "Foo", "--trials", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Foo" in err
    assert not out.exists()


def test_enum_fields_take_members_or_names():
    assert DatasetSpec(kind="TwoMoons") == DatasetSpec(kind=DatasetKind.TWO_MOONS)
    config = ExperimentConfig(method="two-l", loss_kind="mse", activations=["ReLU", "Identity"])
    assert config.method is GradientMethod.TWO_L
    assert config.loss_kind is LossKind.MSE
    assert config.activations == (Activation.RELU, Activation.IDENTITY)


@pytest.mark.parametrize("text", ("~: 1\nsead: 2\n", "1: 1\nsead: 2\n", "relax: {1: 1, etta: 2}\n"))
def test_unknown_keys_of_mixed_types_exit_1(tmp_path, capsys, text):
    cfg = tmp_path / "keys.yaml"
    cfg.write_text(text)
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and "Traceback" not in err


@pytest.mark.parametrize("field", ("lr_max", "lr_min"))
def test_non_positive_learning_rate_fails_where_the_config_is_built(field):
    # check and sweep never resolve the learning rates, so a later check
    # would let them run on an invalid config.
    with pytest.raises(ConfigError, match="learning rates must be positive"):
        ExperimentConfig(**{field: 0.0})
