"""End-to-end CLI runs, in process, against temporary directories."""

import warnings

import numpy as np
import pytest

from dyadicbp.cli import main
from dyadicbp.training import SWEEP_FIELDS, TRAIN_FIELDS

SMALL_YAML = """
seed: 5
network:
  input_dim: 3
  widths: [5, 4, 2]
dataset:
  n_samples: 4
"""

TRAIN_YAML = """
seed: 2
method: TwoL
network:
  widths: [8, 2]
optimizer:
  epochs: 2
  batch_size: 16
dataset:
  n_samples: 40
  noise: 0.1
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return str(path)


def _read_table(path):
    """Split a provenance-commented CSV into (comments, header, rows)."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    return comments, data[0].split(","), [ln.split(",") for ln in data[1:]]


# ---------------------------------------------------------------------------
# Happy paths.


def test_gen_data_writes_provenance_csv(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["gen-data", "--seed", "4", "--out", str(out)]) == 0
    comments, header, rows = _read_table(out / "dataset.csv")
    assert comments[0] == "# seed: 4"
    assert comments[1].startswith("# config: ")
    assert header == ["x0", "x1", "label"]
    assert len(rows) == 1000  # default dataset size
    assert "wrote" in capsys.readouterr().out


def test_check_writes_one_row_per_trial(tmp_path, small_cfg, capsys):
    out = tmp_path / "run"
    code = main(["check", "--config", small_cfg, "--trials", "4", "--out", str(out)])
    assert code == 0
    comments, header, rows = _read_table(out / "check.csv")
    assert comments[0] == "# seed: 5"
    assert header[:4] == ["trial", "method", "iterations", "converged"]
    assert "cos" in header and "layer_3_logmis" in header
    assert len(rows) == 4
    assert all(r[1] == "Dyadic" for r in rows)
    assert "cos: mean" in capsys.readouterr().out


def test_sweep_writes_one_row_per_eta(tmp_path, small_cfg):
    out = tmp_path / "run"
    code = main(
        [
            "sweep",
            "--config",
            small_cfg,
            "--etas",
            "0.5,1.0",
            "--trials",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, header, rows = _read_table(out / "sweep.csv")
    assert header == list(SWEEP_FIELDS)
    assert [r[0] for r in rows] == ["0.5", "1.0"]


def test_relax_trajectory_columns_and_length(tmp_path, small_cfg):
    out = tmp_path / "run"
    code = main(["relax", "--config", small_cfg, "--eta", "1.0", "--out", str(out)])
    assert code == 0
    _, header, rows = _read_table(out / "trajectory.csv")
    assert header == ["k", "delta_norm", "energy", "stress_1", "stress_2", "stress_3"]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert len(rows) <= 2 * 3 + 1  # unit step settles in 2L, stop fires next
    assert float(rows[-1][1]) < 1e-6


def test_train_logs_epochs(tmp_path, capsys):
    cfg = tmp_path / "train.yaml"
    cfg.write_text(TRAIN_YAML)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = _read_table(out / "train.csv")
    assert header == list(TRAIN_FIELDS)
    assert len(rows) == 3  # epoch 0 plus two epochs
    assert "final: epoch 2" in capsys.readouterr().out


def test_train_reads_dataset_written_by_gen_data(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--seed", "1", "--out", str(data_dir)]) == 0
    cfg = tmp_path / "fromfile.yaml"
    cfg.write_text(
        "method: BP\n"
        "network:\n  widths: [8, 2]\n"
        "optimizer:\n  epochs: 1\n  batch_size: 64\n"
        f"dataset:\n  kind: CsvFile\n  path: {data_dir / 'dataset.csv'}\n"
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_table(out / "train.csv")
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# Overrides and determinism.


def test_flags_override_yaml_values(tmp_path, small_cfg):
    out = tmp_path / "run"
    assert main(["gen-data", "--config", small_cfg, "--seed", "9", "--out", str(out)]) == 0
    comments, _, _ = _read_table(out / "dataset.csv")
    assert comments[0] == "# seed: 9"


def test_reruns_are_byte_identical(tmp_path, small_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["check", "--config", small_cfg, "--trials", "3", "--out", str(out)]) == 0
        assert main(["gen-data", "--config", small_cfg, "--out", str(out)]) == 0
    assert (out1 / "check.csv").read_bytes() == (out2 / "check.csv").read_bytes()
    assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()


def test_seed_changes_the_config_hash(tmp_path, small_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", small_cfg, "--out", str(out1)]) == 0
    assert main(["gen-data", "--config", small_cfg, "--seed", "6", "--out", str(out2)]) == 0
    c1, _, _ = _read_table(out1 / "dataset.csv")
    c2, _, _ = _read_table(out2 / "dataset.csv")
    assert c1[1] != c2[1]


def test_precision_flag_reaches_the_run(tmp_path, small_cfg):
    # At eta = 1 Dyadic is backprop bit for bit in either precision, so the
    # run relaxes at eta 0.5 to a tolerance only float64 can meet: float32
    # stops at its precision floor, about 1e-7 from backprop, and float64
    # within about 1e-12.
    out = tmp_path / "run"
    code = main(
        [
            "check",
            "--config",
            small_cfg,
            "--eta",
            "0.5",
            "--tol",
            "1e-12",
            "--precision",
            "32",
            "--trials",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, header, rows = _read_table(out / "check.csv")
    rel = [float(r[header.index("rel_err")]) for r in rows]
    assert all(1e-9 < v < 1e-4 for v in rel)  # float32 noise, not float64


# ---------------------------------------------------------------------------
# Failure modes and exit codes.


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["check", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "absent.yaml")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_method_exits_1(tmp_path, small_cfg):
    out = tmp_path / "run"
    assert main(["check", "--config", small_cfg, "--method", "adam", "--out", str(out)]) == 1


def test_snake_case_names_are_accepted(tmp_path):
    # Enum lookups ignore case and -/_ separators, so YAML written in
    # snake_case parses the same as the canonical CamelCase names.
    cfg = tmp_path / "snake.yaml"
    cfg.write_text(
        "seed: 6\n"
        "method: two_l\n"
        "loss: softmax_cross_entropy\n"
        "network:\n"
        "  input_dim: 3\n"
        "  widths: [5, 2]\n"
        "  activations: [tanh, identity]\n"
        "dataset:\n"
        "  kind: two_moons\n"
        "  n_samples: 4\n"
    )
    out = tmp_path / "run"
    assert main(["check", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 0
    rows = _read_table(out / "check.csv")[2]
    assert rows[0][1] == "TwoL"


def test_unknown_dataset_kind_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("dataset:\n  kind: mnist\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "unknown dataset kind" in capsys.readouterr().err


def test_non_mapping_yaml_exits_1(tmp_path):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- 1\n- 2\n")
    assert main(["check", "--config", str(cfg)]) == 1


def test_unknown_yaml_key_exits_1(tmp_path):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text("sead: 3\n")
    assert main(["check", "--config", str(cfg)]) == 1


def test_invalid_yaml_syntax_exits_1(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("seed: [unclosed\n")
    assert main(["check", "--config", str(cfg)]) == 1


def test_relax_rejects_untraced_method(tmp_path, small_cfg):
    out = tmp_path / "run"
    assert main(["relax", "--config", small_cfg, "--method", "BP", "--out", str(out)]) == 1
    assert main(["relax", "--config", small_cfg, "--method", "TwoL", "--out", str(out)]) == 1


def test_sweep_rejects_non_eta_method(tmp_path, small_cfg):
    out = tmp_path / "run"
    code = main(["sweep", "--config", small_cfg, "--method", "BP", "--out", str(out)])
    assert code == 1


def test_bad_eta_list_exits_1(tmp_path, small_cfg):
    out = tmp_path / "run"
    code = main(["sweep", "--config", small_cfg, "--etas", "0.5,abc", "--out", str(out)])
    assert code == 1


def test_strict_nonconvergence_exits_3(tmp_path, small_cfg, capsys):
    out = tmp_path / "run"
    args = [
        "relax",
        "--config",
        small_cfg,
        "--eta",
        "0.05",
        "--kmax",
        "3",
        "--out",
        str(out),
    ]
    assert main(args) == 0  # reported in the trace, not fatal
    assert main(args + ["--strict"]) == 3
    assert "error:" in capsys.readouterr().err
    # The trajectory file is still written before the strict check fires.
    _, _, rows = _read_table(out / "trajectory.csv")
    assert len(rows) == 3


def test_strict_from_yaml_without_flag(tmp_path):
    cfg = tmp_path / "strict.yaml"
    cfg.write_text(SMALL_YAML + "strict: true\n")
    out = tmp_path / "run"
    code = main(["relax", "--config", str(cfg), "--eta", "0.05", "--kmax", "3", "--out", str(out)])
    assert code == 3


def test_check_strict_nonconvergence_exits_3(tmp_path, small_cfg):
    out = tmp_path / "run"
    args = [
        "check",
        "--config",
        small_cfg,
        "--eta",
        "0.05",
        "--kmax",
        "2",
        "--trials",
        "3",
        "--out",
        str(out),
    ]
    assert main(args + ["--strict"]) == 3
    assert (out / "check.csv").exists()


@pytest.mark.parametrize(
    "args, yaml_text, message",
    (
        (["sweep", "--etas", "0.05", "--kmax", "3", "--trials", "2"], SMALL_YAML, "some sweep"),
        (["train", "--method", "Dyadic", "--eta", "0.05", "--kmax", "2"], TRAIN_YAML, "2 epochs"),
    ),
    ids=("sweep", "train"),
)
def test_strict_sweep_and_train_exit_3_after_writing(tmp_path, capsys, args, yaml_text, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml_text)
    out = tmp_path / "run"
    full = args + ["--config", str(cfg), "--out", str(out)]
    assert main(full) == 0  # reported, not fatal
    assert main(full + ["--strict"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert len(list(out.glob("*.csv"))) == 1


def test_strict_converged_runs_exit_0(tmp_path, capsys):
    cfg = tmp_path / "train.yaml"
    cfg.write_text(TRAIN_YAML)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    assert main(["gen-data", "--out", str(out), "--strict"]) == 0
    assert capsys.readouterr().err == ""


def test_train_divergence_exits_2(tmp_path, capsys):
    cfg = tmp_path / "diverge.yaml"
    cfg.write_text(
        "method: BP\n"
        "network:\n  widths: [8, 2]\n"
        "optimizer:\n  epochs: 8\n  lr_max: 1.0e+80\n  lr_min: 1.0e+79\n"
        "dataset:\n  n_samples: 40\n"
    )
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert (out / "train.csv").exists()  # partial log survives the abort


def test_float32_unit_step_sweep_passes_strict(tmp_path, capsys):
    # On the default depth-9 net in float32 at eta = 1, Split's trials 0, 1
    # and 2 of seed 0 stall at the rounding noise of their state, above
    # tol 1e-6. They stop at the precision floor, which --strict accepts.
    # (Dyadic's unit step lands on backprop's fixed point in 2L + 1 steps.)
    out = tmp_path / "run"
    args = ["sweep", "--precision", "32", "--etas", "1.0", "--trials", "3", "--seed", "0"]
    for method, most in (("Split", 8 * 9), ("Dyadic", 2 * 9 + 1)):
        run = out / method
        assert main(args + ["--method", method, "--out", str(run), "--strict"]) == 0
        _, header, rows = _read_table(run / "sweep.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["frac_converged"]) == 1.0
        assert int(row["max_iterations"]) <= most
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args, reason, code",
    (
        (
            ["--method", "Split", "--precision", "32", "--eta", "1.0", "--seed", "0"],
            "precision floor",
            0,
        ),
        (["--precision", "64", "--eta", "1.0", "--seed", "0"], "converged", 0),
        (["--precision", "64", "--eta", "0.05", "--kmax", "3"], "out of budget", 3),
    ),
    ids=("floor", "tol", "budget"),
)
def test_relax_names_its_stop_reason(tmp_path, capsys, args, reason, code):
    out = tmp_path / "run"
    assert main(["relax", *args, "--out", str(out), "--strict"]) == code
    assert capsys.readouterr().out.rstrip().endswith(f"stop reason: {reason}")
