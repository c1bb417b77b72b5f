"""Bad inputs the CLI must report as ``error:`` with exit 1, never as a
traceback, and before it creates the output directory."""

import pytest

from dyadicbp.cli import main

NOT_UTF8 = b"# \xff\xfe\n"


def run_cli(command, cfg, tmp_path, capsys, *flags):
    """Run ``command`` with config ``cfg`` (None: no config) and ``flags``;
    assert exit 1, ``error:`` and no output directory, and return stderr."""
    out = tmp_path / "run"
    config = () if cfg is None else ("--config", str(cfg))
    code = main([command, *config, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()
    return err


def csv_dataset_config(tmp_path, data_path):
    cfg = tmp_path / "csv.yaml"
    cfg.write_text(
        "method: BP\n"
        "network:\n  widths: [8, 2]\n"
        "optimizer:\n  epochs: 1\n"
        f"dataset:\n  kind: CsvFile\n  path: {data_path}\n"
    )
    return cfg


@pytest.mark.parametrize("command", ("train", "check", "relax", "sweep"))
def test_empty_widths_exit_1(tmp_path, capsys, command):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("network:\n  widths: []\n")
    run_cli(command, cfg, tmp_path, capsys)


def test_config_path_that_is_a_directory_exits_1(tmp_path, capsys):
    run_cli("train", tmp_path, tmp_path, capsys)


def test_non_utf8_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin.yaml"
    cfg.write_bytes(b"seed: 1\n" + NOT_UTF8)
    assert str(cfg) in run_cli("train", cfg, tmp_path, capsys)


def test_dataset_path_that_is_a_directory_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    cfg = csv_dataset_config(tmp_path, data)
    run_cli("train", cfg, tmp_path, capsys)


@pytest.mark.parametrize(
    "body, names_file",
    (
        (NOT_UTF8 + b"0.1,0.2,0\n0.3,0.4,1\n", True),
        (b"0.1,0.2,0\ninf,0.4,1\n0.5,0.6,1\n", False),
    ),
    ids=("not-utf8", "inf"),
)
def test_unreadable_dataset_exits_1(tmp_path, capsys, body, names_file):
    data = tmp_path / "data.csv"
    data.write_bytes(body)
    cfg = csv_dataset_config(tmp_path, data)
    err = run_cli("train", cfg, tmp_path, capsys)
    assert (str(data) in err) == names_file


@pytest.mark.parametrize("command", ("train", "check", "relax", "sweep"))
def test_eta_that_is_zero_in_float32_exits_1(tmp_path, capsys, command):
    err = run_cli(command, None, tmp_path, capsys, "--precision", "32", "--eta", "1e-46")
    assert err == "error: step size eta 1e-46 is 0 in float32\n"
