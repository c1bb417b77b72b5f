"""``train`` on one flat parameter vector: its rows equal the per-array
Nesterov loop it replaced (``oracles.per_array_train``) bit for bit, its
``fid_*`` columns equal ``compare``'s records, and the params it returns
keep their bits."""

import struct
import warnings

import numpy as np
import pytest

import oracles
from dyadicbp import (
    Activation,
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    GradientBundle,
    GradientMethod,
    LossKind,
    NumericError,
    train,
)
from dyadicbp import training
from dyadicbp.fidelity import compare
from dyadicbp.training import TRAIN_FIELDS, _FID_KEYS, _mean_or_none, format_cell


def _config(**overrides):
    base = dict(
        seed=11,
        method=GradientMethod.DYADIC,
        eta=0.5,
        widths=(8, 6, 2),
        epochs=3,
        batch_size=16,
        weight_decay=0.01,
        dataset=DatasetSpec(kind=DatasetKind.TWO_MOONS, n_samples=90, noise=0.1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _bits(value):
    """A row value as comparable bits: floats by their IEEE bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _same_rows(got, want):
    assert [list(r) for r in got] == [list(r) for r in want]
    for g, w in zip(got, want):
        assert {k: _bits(v) for k, v in g.items()} == {k: _bits(v) for k, v in w.items()}


@pytest.mark.parametrize("precision", [32, 64])
@pytest.mark.parametrize("method", [GradientMethod.BP, GradientMethod.TWO_L, GradientMethod.DYADIC])
def test_train_rows_equal_the_per_array_loop(method, precision):
    config = _config(method=method, precision=precision)
    result = train(config)
    want_rows: list = []
    want_params = oracles.per_array_train(config, want_rows)
    _same_rows(result.rows, want_rows)
    assert result.rows[-1]["epoch"] == config.epochs
    for got, want in zip(result.params.layers, want_params.layers):
        assert got.weight.dtype == config.dtype
        assert got.weight.tobytes() == want.weight.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


@pytest.mark.parametrize("precision", [32, 64])
@pytest.mark.parametrize("method", [GradientMethod.BP, GradientMethod.TWO_L])
def test_divergence_raises_in_the_same_epoch_and_keeps_the_partial_log(
    method, precision, tmp_path
):
    # MSE on ReLU layers at lr 10: the parameters overflow after a few
    # epochs (BP), or the gradients first (TwoL, whose bundle is checked).
    config = _config(
        method=method, precision=precision, loss_kind=LossKind.MSE,
        activation=Activation.RELU, lr_max=10.0, lr_min=1.0, epochs=8,
    )
    path = tmp_path / "diverge.csv"
    want_rows: list = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericError) as got:
            train(config, csv_path=path)
        with pytest.raises(NumericError) as want:
            oracles.per_array_train(config, want_rows)
    assert str(got.value) == str(want.value)
    if method is GradientMethod.BP:
        assert str(got.value).startswith(f"parameters diverged in epoch {len(want_rows)};")
    assert len(want_rows) >= 2  # epoch 0 and at least one trained epoch
    lines = path.read_text().splitlines()
    assert lines[2] == ",".join(TRAIN_FIELDS)
    assert lines[3:] == [
        ",".join(format_cell(row.get(name)) for name in TRAIN_FIELDS) for row in want_rows
    ]


def _recorded_train(config, monkeypatch, zero_reference=False):
    """Train ``config``, recording each batch's (gradient, BP reference)
    pair; with ``zero_reference`` the reference reads all zeros."""
    pairs: list = []
    relax_batch, backprop_batch = training.relax_batch, training.backprop_batch

    def engine(*args):
        result = relax_batch(*args)
        pairs.append([result[:2]])
        return result

    def reference(*args):
        ws, bs = backprop_batch(*args)
        if zero_reference:
            ws, bs = [np.zeros_like(w) for w in ws], [np.zeros_like(b) for b in bs]
        pairs[-1].append((ws, bs))
        return ws, bs

    monkeypatch.setattr(training, "relax_batch", engine)
    monkeypatch.setattr(training, "backprop_batch", reference)
    return train(config), pairs


@pytest.mark.parametrize(
    "method, precision, zero_reference",
    [
        (GradientMethod.DYADIC, 64, False),
        (GradientMethod.DYADIC, 32, False),
        (GradientMethod.TWO_L, 64, False),  # identical bundles: cos 1.0, snr inf
        (GradientMethod.DYADIC, 64, True),  # a zero reference: the None branch
    ],
)
def test_fid_columns_equal_compare_records(method, precision, zero_reference, monkeypatch):
    config = _config(method=method, precision=precision)
    result, pairs = _recorded_train(config, monkeypatch, zero_reference)
    per_epoch = len(pairs) // config.epochs
    assert per_epoch * config.epochs == len(pairs) and per_epoch > 1
    for epoch in range(1, config.epochs + 1):
        records = [
            compare(GradientBundle(*test), GradientBundle(*ref)).to_record()
            for test, ref in pairs[(epoch - 1) * per_epoch : epoch * per_epoch]
        ]
        row = result.rows[epoch]
        for key in _FID_KEYS:
            want = _mean_or_none(rec[key] for rec in records)
            assert _bits(row[f"fid_{key}"]) == _bits(want)
    last = result.rows[-1]
    if method is GradientMethod.TWO_L:
        assert (last["fid_cos"], last["fid_rel_err"], last["fid_snr"]) == (1.0, 0.0, np.inf)
    if zero_reference:
        assert last["fid_rel_err"] is last["fid_norm_ratio"] is last["fid_snr"] is None


def test_result_params_keep_their_bits_after_another_train_call():
    config = _config(method=GradientMethod.TWO_L, epochs=2)
    first = train(config)
    flat = first.params._flat.copy()
    layers = [(lp.weight.copy(), lp.bias.copy()) for lp in first.params.layers]
    second = train(config)
    assert not first.params._flat.flags.writeable
    assert first.params._flat.tobytes() == flat.tobytes()
    for lp, (weight, bias) in zip(first.params.layers, layers):
        assert lp.weight.tobytes() == weight.tobytes() and lp.bias.tobytes() == bias.tobytes()
    assert not np.shares_memory(first.params._flat, second.params._flat)
    assert second.params._flat.tobytes() == flat.tobytes()
