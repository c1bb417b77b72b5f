"""Experiment configs, the training loop, gradient checks, and sweeps."""

import dataclasses
import math

import numpy as np
import pytest

from dyadicbp import (
    Activation,
    ConfigError,
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    GradientMethod,
    LossKind,
    NumericError,
    check_gradients,
    sweep_eta,
    train,
)
from dyadicbp.training import (
    TRAIN_FIELDS,
    _cosine_lr,
    format_cell,
    write_csv,
)


def _small_config(**overrides):
    base = dict(
        seed=3,
        method=GradientMethod.BP,
        widths=(8, 2),
        epochs=3,
        batch_size=16,
        dataset=DatasetSpec(kind=DatasetKind.TWO_MOONS, n_samples=80, noise=0.1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _check_config(**overrides):
    base = dict(
        seed=5,
        method=GradientMethod.DYADIC,
        input_dim=3,
        widths=(6, 5, 2),
        dataset=DatasetSpec(n_samples=4, classes=2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Config construction and hashing.


def test_from_mapping_reads_nested_sections():
    config = ExperimentConfig.from_mapping(
        {
            "seed": 11,
            "precision": 32,
            "method": "finite_diff",
            "loss": "mse",
            "network": {
                "input_dim": 3,
                "widths": [4, 4, 2],
                "activations": ["ReLU", "Tanh", "Identity"],
            },
            "relax": {"eta": 0.5, "k_max": 200, "tol": 1e-8},
            "optimizer": {"epochs": 7, "batch_size": 8, "momentum": 0.5},
            "dataset": {"kind": "Spirals", "n_samples": 60, "classes": 2},
        }
    )
    assert config.seed == 11
    assert config.precision == 32
    assert config.method is GradientMethod.FINITE_DIFF
    assert config.loss_kind is LossKind.MSE
    assert config.input_dim == 3
    assert config.widths == (4, 4, 2)
    assert config.activations == (Activation.RELU, Activation.TANH, Activation.IDENTITY)
    assert config.eta == 0.5 and config.k_max == 200 and config.tol == 1e-8
    assert config.epochs == 7 and config.batch_size == 8 and config.momentum == 0.5
    assert config.dataset.kind is DatasetKind.SPIRALS
    assert config.dataset.n_samples == 60


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"sead": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"relax": {"etta": 0.5}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"network": {"depth": 4}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping([1, 2])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"optimizer": 7})


def test_from_mapping_empty_mapping_gives_defaults():
    config = ExperimentConfig.from_mapping({})
    assert config == ExperimentConfig()


def test_config_hash_is_stable_and_sensitive():
    a = _small_config()
    b = _small_config()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12
    assert int(a.config_hash(), 16) >= 0
    assert a.config_hash() != _small_config(seed=4).config_hash()
    assert a.config_hash() != _small_config(eta=0.5).config_hash()


def test_section_table_keeps_hashes_and_round_trips():
    # Both hashes were produced by the hand-written section code that the
    # section table replaced; a config file written from the canonical
    # dict must read back to the same config.
    full = ExperimentConfig(
        seed=7,
        precision=32,
        method=GradientMethod.SPLIT,
        widths=(8, 8, 3),
        activations=(Activation.RELU, Activation.SIGMOID, Activation.IDENTITY),
        loss_kind=LossKind.MSE,
        eta=0.5,
        k_max=200,
        tol=1e-8,
        lr_max=0.1,
        lr_min=0.001,
        momentum=0.5,
        weight_decay=0.0,
        epochs=3,
        batch_size=16,
        test_fraction=0.25,
        fd_step=1e-6,
        dataset=DatasetSpec(kind=DatasetKind.SPIRALS, n_samples=300, noise=0.1, classes=3),
    )
    assert ExperimentConfig().config_hash() == "bb392b4988a3"
    assert full.config_hash() == "7734dbed1e03"
    assert ExperimentConfig.from_mapping(full.to_canonical()) == full
    assert ExperimentConfig.from_mapping(ExperimentConfig().to_canonical()) == ExperimentConfig()


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(precision=16)
    with pytest.raises(ConfigError):
        ExperimentConfig(epochs=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(test_fraction=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(weight_decay=-1e-4)
    with pytest.raises(ConfigError):
        ExperimentConfig(fd_step=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(widths=(4, 0))


def test_resolved_network_defaults():
    config = ExperimentConfig()
    assert config.resolved_widths(2) == (32,) * 8 + (2,)
    acts = config.resolved_activations(9)
    assert acts == (Activation.TANH,) * 8 + (Activation.IDENTITY,)
    explicit = ExperimentConfig(widths=(5, 3), activations=(Activation.RELU, Activation.IDENTITY))
    assert explicit.resolved_widths(3) == (5, 3)
    with pytest.raises(ConfigError):
        explicit.resolved_activations(3)


def test_resolved_lr_scales_with_batch_size():
    assert ExperimentConfig(batch_size=64).resolved_lr() == (0.035, 0.0002)
    lr_max, lr_min = ExperimentConfig(batch_size=128).resolved_lr()
    assert lr_max == pytest.approx(0.07)
    assert lr_min == pytest.approx(0.0004)
    assert ExperimentConfig(lr_max=0.1, lr_min=0.001, batch_size=128).resolved_lr() == (
        0.1,
        0.001,
    )
    with pytest.raises(ConfigError):
        ExperimentConfig(lr_max=-0.1).resolved_lr()


def test_gradient_method_from_name_normalizes():
    assert GradientMethod.from_name("bp") is GradientMethod.BP
    assert GradientMethod.from_name("finite_diff") is GradientMethod.FINITE_DIFF
    assert GradientMethod.from_name("two-l") is GradientMethod.TWO_L
    assert GradientMethod.from_name("FINITEDIFF") is GradientMethod.FINITE_DIFF
    with pytest.raises(ConfigError):
        GradientMethod.from_name("adam")


def test_cosine_lr_schedule_endpoints():
    assert _cosine_lr(1, 10, 0.1, 0.001) == 0.1
    assert _cosine_lr(10, 10, 0.1, 0.001) == pytest.approx(0.001, abs=1e-18)
    mid = _cosine_lr(3, 5, 0.1, 0.001)
    assert mid == pytest.approx(0.5 * (0.1 + 0.001))
    assert _cosine_lr(1, 1, 0.1, 0.001) == 0.1
    # Strictly decreasing across the schedule.
    values = [_cosine_lr(e, 10, 0.1, 0.001) for e in range(1, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# CSV plumbing.


def test_format_cell_renderings():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(np.bool_(True)) == "true"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(3)) == "3"
    value = 0.1 + 0.2
    assert float(format_cell(value)) == value
    assert format_cell(math.inf) == "inf"
    assert format_cell("Dyadic") == "Dyadic"


def test_write_csv_provenance_and_rows(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path,
        ("a", "b"),
        [{"a": 1, "b": None}, {"a": 0.5, "b": True}],
        seed=9,
        config_hash="deadbeef0123",
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed: 9"
    assert lines[1] == "# config: deadbeef0123"
    assert lines[2] == "a,b"
    assert lines[3] == "1,"
    assert lines[4] == "0.5,true"


# ---------------------------------------------------------------------------
# Training.


def test_zero_epochs_logs_only_the_initial_row():
    result = train(_small_config(epochs=0))
    assert len(result.rows) == 1
    assert result.rows[0]["epoch"] == 0
    assert result.rows[0]["lr"] is None
    assert 0.0 <= result.rows[0]["train_acc"] <= 1.0


def test_training_log_shape_and_csv(tmp_path):
    path = tmp_path / "train.csv"
    config = _small_config()
    result = train(config, csv_path=path)
    assert len(result.rows) == config.epochs + 1
    lines = path.read_text().splitlines()
    assert lines[0] == f"# seed: {config.seed}"
    assert lines[1] == f"# config: {config.config_hash()}"
    assert lines[2] == ",".join(TRAIN_FIELDS)
    assert len(lines) == 3 + config.epochs + 1
    # Float cells round-trip through repr.
    first_epoch = lines[4].split(",")
    assert float(first_epoch[2]) == result.rows[1]["train_loss"]


def test_training_loss_decreases_on_two_moons():
    result = train(_small_config(epochs=20))
    assert result.rows[-1]["train_loss"] < result.rows[0]["train_loss"]
    assert result.rows[-1]["train_acc"] > 0.8


def test_twoL_training_is_bitwise_identical_to_bp():
    bp = train(_small_config(method=GradientMethod.BP))
    tl = train(_small_config(method=GradientMethod.TWO_L))
    for row_bp, row_tl in zip(bp.rows, tl.rows):
        assert row_bp["train_loss"] == row_tl["train_loss"]
        assert row_bp["train_acc"] == row_tl["train_acc"]
    for lp_bp, lp_tl in zip(bp.params.layers, tl.params.layers):
        np.testing.assert_array_equal(lp_bp.weight, lp_tl.weight)
        np.testing.assert_array_equal(lp_bp.bias, lp_tl.bias)


def test_method_specific_columns():
    tl = train(_small_config(method=GradientMethod.TWO_L, epochs=1))
    row = tl.rows[1]
    assert row["mean_iterations"] == 2 * 2  # depth-2 network
    assert row["frac_converged"] == 1.0
    assert row["fid_cos"] == 1.0
    assert row["fid_rel_err"] == 0.0
    bp = train(_small_config(method=GradientMethod.BP, epochs=1))
    row = bp.rows[1]
    assert row.get("mean_iterations") is None
    assert row.get("fid_cos") is None


def test_divergence_raises_and_keeps_partial_log(tmp_path):
    import warnings

    path = tmp_path / "diverge.csv"
    config = _small_config(lr_max=1e12, lr_min=1e11, epochs=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError):
            train(config, csv_path=path)
    lines = path.read_text().splitlines()
    assert lines[2] == ",".join(TRAIN_FIELDS)
    assert len(lines) >= 4  # provenance + header + at least the epoch-0 row


def test_train_rejects_output_width_class_mismatch():
    with pytest.raises(ConfigError):
        train(_small_config(widths=(8, 3)))


def test_train_32bit_stores_float32_parameters():
    result = train(_small_config(precision=32, epochs=1))
    assert result.params.dtype == np.float32


def test_train_test_split_covers_all_samples():
    config = _small_config(test_fraction=0.25, epochs=0)
    result = train(config)
    assert result.rows[0]["test_acc"] is not None
    no_test = train(_small_config(test_fraction=0.0, epochs=0))
    assert no_test.rows[0]["test_acc"] is None


def test_no_test_set_leaves_every_test_acc_empty(tmp_path):
    path = tmp_path / "train.csv"
    result = train(_small_config(test_fraction=0.0, epochs=2), csv_path=path)
    assert [row["test_acc"] for row in result.rows] == [None] * 3
    column = TRAIN_FIELDS.index("test_acc")
    cells = [line.split(",")[column] for line in path.read_text().splitlines()[3:]]
    assert cells == [""] * 3


def test_finite_difference_training_matches_batch_backprop():
    dataset = DatasetSpec(kind=DatasetKind.TWO_MOONS, n_samples=20, noise=0.1)
    config = _small_config(
        method=GradientMethod.FINITE_DIFF, widths=(3, 2), epochs=1, dataset=dataset
    )
    row = train(config).rows[1]
    assert row["mean_iterations"] is None
    assert row["frac_converged"] is None
    assert row["fid_rel_err"] < 1e-6


def test_train_builds_one_loss_per_batch(monkeypatch):
    from dyadicbp import training

    built = []

    class CountingLoss(training.LossSpec):
        def __post_init__(self):
            super().__post_init__()
            built.append(self.target.shape)

    monkeypatch.setattr(training, "LossSpec", CountingLoss)
    config = _small_config(method=GradientMethod.DYADIC, epochs=2, batch_size=8)
    train(config)
    # 64 training samples in batches of 8, twice; the epoch rows evaluate
    # the 64 training and 16 test samples.
    assert built.count((2, 8)) == 16
# ---------------------------------------------------------------------------
# Gradient checking.


def test_check_gradients_twoL_is_exact():
    rows = check_gradients(_check_config(method=GradientMethod.TWO_L), trials=5)
    assert len(rows) == 5
    for t, row in enumerate(rows):
        assert row["trial"] == t
        assert row["method"] == "TwoL"
        assert row["iterations"] == 6  # 2L for the depth-3 trial network
        assert row["converged"] is True
        assert row["cos"] == 1.0
        assert row["rel_err"] == 0.0
        assert set(row) >= {"layer_1_cos", "layer_2_cos", "layer_3_cos"}


def test_check_gradients_dyadic_unit_step():
    rows = check_gradients(_check_config(eta=1.0), trials=8)
    for row in rows:
        assert row["converged"] is True
        assert row["iterations"] <= 2 * 3 + 1
        assert row["rel_err"] == 0.0


def test_check_gradients_finite_difference():
    rows = check_gradients(_check_config(method=GradientMethod.FINITE_DIFF), trials=5)
    for row in rows:
        assert row["iterations"] is None
        assert row["rel_err"] <= 1e-5


def test_check_gradients_is_seed_deterministic():
    # At eta = 0.5: at eta = 1 every trial of every seed reads cos 1 and
    # rel_err 0, Dyadic being backprop bit for bit there.
    rows1 = check_gradients(_check_config(eta=0.5), trials=4)
    rows2 = check_gradients(_check_config(eta=0.5), trials=4)
    assert rows1 == rows2
    rows3 = check_gradients(_check_config(eta=0.5, seed=6), trials=4)
    assert rows1 != rows3


def test_check_gradients_rejects_bad_trials():
    with pytest.raises(ConfigError):
        check_gradients(_check_config(), trials=0)


def test_check_gradients_32bit_mode():
    rows = check_gradients(_check_config(precision=32, eta=1.0), trials=5)
    for row in rows:
        assert row["rel_err"] <= 1e-5  # float32 arithmetic noise only


# ---------------------------------------------------------------------------
# Step-size sweeps.


def test_sweep_reuses_the_check_instance_stream():
    config = _check_config(eta=1.0, tol=1e-9)
    check_rows = check_gradients(config, trials=6)
    sweep_rows = sweep_eta(config, [1.0], trials=6)
    assert len(sweep_rows) == 1
    srow = sweep_rows[0]
    assert srow["eta"] == 1.0
    assert srow["mean_cos"] == float(np.mean([r["cos"] for r in check_rows]))
    assert srow["max_rel_err"] == float(np.max([r["rel_err"] for r in check_rows]))
    assert srow["mean_iterations"] == float(
        np.mean([r["iterations"] for r in check_rows])
    )


def test_sweep_smaller_steps_need_more_iterations():
    rows = sweep_eta(_check_config(tol=1e-9), [0.25, 1.0], trials=6)
    by_eta = {row["eta"]: row for row in rows}
    assert by_eta[0.25]["mean_iterations"] > by_eta[1.0]["mean_iterations"]
    assert by_eta[0.25]["frac_converged"] == 1.0
    assert by_eta[1.0]["frac_converged"] == 1.0
    for row in rows:
        assert row["mean_cos"] >= 1.0 - 1e-9
        assert abs(row["mean_norm_ratio"] - 1.0) <= 1e-6
        assert row["worst_logmis"] <= -8.0


def test_sweep_validation():
    with pytest.raises(ConfigError):
        sweep_eta(_check_config(method=GradientMethod.BP), [0.5])
    with pytest.raises(ConfigError):
        sweep_eta(_check_config(method=GradientMethod.TWO_L), [0.5])
    with pytest.raises(ConfigError):
        sweep_eta(_check_config(), [])
    with pytest.raises(ConfigError):
        sweep_eta(_check_config(), [0.5, -0.1])
    with pytest.raises(ConfigError):
        sweep_eta(_check_config(), [0.5], trials=0)


def test_sweep_row_fields():
    rows = sweep_eta(_check_config(), [0.5], trials=3)
    from dyadicbp.training import SWEEP_FIELDS

    assert set(rows[0]) == set(SWEEP_FIELDS)


def test_replace_produces_independent_config():
    config = _check_config()
    other = dataclasses.replace(config, eta=0.125)
    assert config.eta == 1.0
    assert other.eta == 0.125
    assert other.config_hash() != config.config_hash()
