"""Fidelity metrics on crafted and random gradient bundles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_instance
from dyadicbp import (
    FidelityReport,
    GradientBundle,
    ShapeError,
    classical_backprop,
    compare,
    log_misalignment,
)
from dyadicbp.fidelity import FLOOR_32, FLOOR_64


def _bundle(weights, biases):
    return GradientBundle(
        tuple(np.asarray(w, dtype=float) for w in weights),
        tuple(np.asarray(b, dtype=float) for b in biases),
    )


def _simple(scale=1.0, dtype=np.float64):
    w = (scale * np.array([[1.0, 2.0], [3.0, 4.0]], dtype=dtype),)
    b = (scale * np.array([0.5, -1.5], dtype=dtype),)
    return GradientBundle(w, b)


def test_identical_bundles_are_perfectly_aligned():
    rng = np.random.default_rng(100)
    params, x0, loss = make_instance(rng)
    bundle, _ = classical_backprop(params, x0, loss)
    report = compare(bundle, bundle)
    assert report.cosine_similarity == 1.0
    assert report.relative_error == 0.0
    assert report.norm_ratio == 1.0
    assert report.snr == math.inf
    assert all(c == 1.0 for c in report.per_layer_cosine)
    assert all(lm == math.log10(FLOOR_64) for lm in report.per_layer_log_misalignment)


def test_scaled_bundle_keeps_direction():
    ref = _simple()
    test = _simple(scale=2.0)
    report = compare(test, ref)
    assert report.cosine_similarity == pytest.approx(1.0, abs=1e-15)
    assert report.norm_ratio == pytest.approx(2.0, rel=1e-14)
    assert report.relative_error == pytest.approx(1.0, rel=1e-14)
    assert report.snr == pytest.approx(1.0, rel=1e-13)


def test_orthogonal_bundles_have_zero_cosine():
    ref = _bundle([np.array([[1.0, 0.0]])], [np.array([0.0])])
    test = _bundle([np.array([[0.0, 1.0]])], [np.array([0.0])])
    report = compare(test, ref)
    assert report.cosine_similarity == pytest.approx(0.0, abs=1e-15)
    assert report.norm_ratio == pytest.approx(1.0)
    assert report.relative_error == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_opposite_bundles_have_cosine_minus_one():
    ref = _simple()
    test = GradientBundle(
        tuple(-w for w in ref.weight_grads), tuple(-b for b in ref.bias_grads)
    )
    report = compare(test, ref)
    assert report.cosine_similarity == pytest.approx(-1.0, abs=1e-15)
    assert report.norm_ratio == pytest.approx(1.0, rel=1e-14)


def test_zero_reference_yields_none_ratios():
    ref = _bundle([np.zeros((2, 2))], [np.zeros(2)])
    test = _simple()
    report = compare(test, ref)
    assert report.relative_error is None
    assert report.norm_ratio is None
    assert report.snr is None
    assert report.cosine_similarity == 0.0


def test_both_zero_bundles_count_as_aligned():
    ref = _bundle([np.zeros((2, 2))], [np.zeros(2)])
    report = compare(ref, ref)
    assert report.cosine_similarity == 1.0


def test_log_misalignment_clamps_at_floor():
    assert log_misalignment(1.0, FLOOR_64) == math.log10(FLOOR_64) == -16.0
    assert log_misalignment(1.0, FLOOR_32) == -8.0
    assert log_misalignment(0.0, FLOOR_64) == 0.0
    assert log_misalignment(1.0 - 1e-4, FLOOR_64) == pytest.approx(-4.0, abs=1e-10)
    # Tiny overshoots from rounding are tolerated, real ones are not.
    assert log_misalignment(1.0 + 1e-13, FLOOR_64) == -16.0
    with pytest.raises(ValueError):
        log_misalignment(1.0 + 1e-9, FLOOR_64)


def test_float32_storage_selects_coarse_floor():
    ref = _simple(dtype=np.float32)
    report = compare(ref, ref)
    assert report.precision_floor == FLOOR_32
    assert report.per_layer_log_misalignment == (-8.0,)
    mixed = compare(_simple(dtype=np.float32), _simple(dtype=np.float64))
    assert mixed.precision_floor == FLOOR_32


def test_metrics_are_computed_in_float64():
    # A float32 pair whose difference is below float32 resolution of the
    # values still shows up once promoted.
    base = np.float32(1.0)
    ref = _bundle([[[base]]], [[base]])
    test = GradientBundle(
        (np.array([[np.nextafter(base, np.float32(2.0))]], dtype=np.float32),),
        (np.array([base], dtype=np.float32),),
    )
    report = compare(test, ref)
    assert report.relative_error is not None
    assert 0.0 < report.relative_error < 1e-6


def test_per_layer_metrics_have_one_entry_per_layer():
    rng = np.random.default_rng(101)
    params, x0, loss = make_instance(rng, depth=4)
    bundle, _ = classical_backprop(params, x0, loss)
    report = compare(bundle, bundle)
    assert len(report.per_layer_cosine) == 4
    assert len(report.per_layer_log_misalignment) == 4


def test_depth_mismatch_raises():
    one = _bundle([np.ones((2, 2))], [np.ones(2)])
    two = _bundle([np.ones((2, 2)), np.ones((2, 2))], [np.ones(2), np.ones(2)])
    with pytest.raises(ShapeError):
        compare(one, two)


def test_shape_mismatch_raises():
    a = _bundle([np.ones((2, 2))], [np.ones(2)])
    b = _bundle([np.ones((2, 3))], [np.ones(2)])
    with pytest.raises(ShapeError):
        compare(a, b)


def test_record_and_json_round_trip():
    rng = np.random.default_rng(102)
    params, x0, loss = make_instance(rng, depth=3)
    bundle, _ = classical_backprop(params, x0, loss)
    noisy = GradientBundle(
        tuple(w + 1e-9 for w in bundle.weight_grads),
        tuple(b + 1e-9 for b in bundle.bias_grads),
    )
    report = compare(noisy, bundle)
    record = report.to_record()
    assert set(record) == {
        "cos",
        "rel_err",
        "norm_ratio",
        "snr",
        "layer_1_cos",
        "layer_1_logmis",
        "layer_2_cos",
        "layer_2_logmis",
        "layer_3_cos",
        "layer_3_logmis",
    }
    decoded = json.loads(json.dumps(record))
    assert decoded["cos"] == record["cos"]
    assert decoded["rel_err"] == record["rel_err"]


def test_none_fields_serialize_as_json_null():
    ref = _bundle([np.zeros((1, 1))], [np.zeros(1)])
    report = compare(_bundle([np.ones((1, 1))], [np.ones(1)]), ref)
    decoded = json.loads(json.dumps(report.to_record()))
    assert decoded["rel_err"] is None
    assert decoded["norm_ratio"] is None
    assert decoded["snr"] is None


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_positive_scaling_preserves_cosine_and_scales_ratio(scale, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    ref = _bundle([w], [b])
    test = _bundle([scale * w], [scale * b])
    report = compare(test, ref)
    assert report.cosine_similarity == pytest.approx(1.0, abs=1e-12)
    assert report.norm_ratio == pytest.approx(scale, rel=1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_cosine_is_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = _bundle([rng.standard_normal((2, 3))], [rng.standard_normal(2)])
    b = _bundle([rng.standard_normal((2, 3))], [rng.standard_normal(2)])
    ab = compare(a, b)
    ba = compare(b, a)
    assert ab.cosine_similarity == pytest.approx(ba.cosine_similarity, abs=1e-15)
    assert -1.0 <= ab.cosine_similarity <= 1.0


def test_report_is_immutable():
    report = compare(_simple(), _simple())
    with pytest.raises(AttributeError):
        report.cosine_similarity = 0.0
    assert isinstance(report, FidelityReport)
