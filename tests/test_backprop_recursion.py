"""One backprop recursion, one forward point, one flattening pass.

``classical_backprop`` and ``backprop_batch`` assemble their gradients
from one recursion; ``neumann_stress`` and ``stability_check`` take
sigma' from the forward pass's pre-activations; ``compare`` flattens
each layer once. These properties pin all three to the bits of the
formulas they replaced (kept in ``oracles``): comparisons are
byte-wise, so -0.0 != +0.0, over every activation (ReLU with exact-zero
pre-activations included), -0.0 biases, both losses and both
precisions. The one exception is the sign of a zero gradient entry of
a batch of one (see that test).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import ALL_ACTS
from dyadicbp import (
    GradientBundle,
    LayerParams,
    LossKind,
    LossSpec,
    NetworkParams,
    classical_backprop,
    compare,
    neumann_stress,
    random_network,
    stability_check,
)
from dyadicbp.fidelity import FLOOR_32, FLOOR_64
from dyadicbp.reference import backprop_batch


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != +0.0."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def samples(draw):
    """A random (params, input, loss); the edge variants put every
    pre-activation at exactly 0 (zero input, +0.0 or -0.0 biases)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    depth = draw(st.integers(1, 6))
    acts = draw(st.lists(st.sampled_from(ALL_ACTS), min_size=depth, max_size=depth))
    input_dim = int(rng.integers(1, 7))
    widths = [int(rng.integers(1, 7)) for _ in acts]
    params = random_network(input_dim, widths, acts, rng, bias_std=0.5, dtype=dtype)
    x0 = rng.standard_normal(input_dim).astype(dtype)
    edge = draw(st.sampled_from(("none", "zero", "negative-zero")))
    if edge != "none":
        bias = 0.0 if edge == "zero" else -0.0
        layers = tuple(
            LayerParams(lp.spec, lp.weight, np.full_like(lp.bias, bias)) for lp in params.layers
        )
        params = NetworkParams(input_dim, layers)
        x0[:] = 0.0
    kind = draw(st.sampled_from(tuple(LossKind)))
    if kind is LossKind.MSE:
        target = rng.standard_normal(widths[-1]).astype(dtype)
    else:
        target = np.zeros(widths[-1], dtype=dtype)
        target[int(rng.integers(widths[-1]))] = 1.0
    return params, x0, LossSpec(kind, target)


@given(samples())
def test_batch_of_one_equals_classical_backprop(case):
    params, x0, loss = case
    bundle, _ = classical_backprop(params, x0, loss)
    column_loss = LossSpec(loss.kind, loss.target[:, None])
    ws, bs = backprop_batch(params, x0[:, None], column_loss)
    # Equal floats, not equal bytes: the batch's gemm and mean reduce
    # into +0.0, so a zero gradient entry (a zero input, a ReLU at its
    # kink) is +0.0 there where np.outer and copy keep a -0.0.
    for got, want in zip(ws + bs, bundle.weight_grads + bundle.bias_grads):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(samples())
def test_neumann_stress_equals_recomputed_pre_activation_formula(case):
    params, x0, loss = case
    got = neumann_stress(params, x0, loss)
    assert_same_bits(got, oracles.recomputed_neumann_stress(params, x0, loss))


@given(samples(), st.integers(0, 2**16))
def test_stability_check_equals_recomputed_pre_activation_formula(case, seed):
    params, x0, _ = case
    report = stability_check(params, x0, n_probes=3, seed=seed)
    want = oracles.recomputed_stability(params, x0, n_probes=3, seed=seed)
    got = (report.max_forward_residual, report.max_backward_residual)
    assert_same_bits(np.array(got), np.array(want))


def _random_bundle(rng, shapes, dtype):
    weights = tuple(rng.standard_normal(s).astype(dtype) for s in shapes)
    biases = tuple(rng.standard_normal(s[0]).astype(dtype) for s in shapes)
    return GradientBundle(weights, biases)


def _bits(value):
    """A report field as bytes, recursing into tuples; None stays None."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return None if value is None else np.float64(value).tobytes()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from((np.float64, np.float32)),
    st.sampled_from((np.float64, np.float32)),
    st.sampled_from(("random", "same", "scaled", "zero-reference", "zero-layer")),
)
def test_compare_equals_two_pass_formula(seed, depth, dtype_t, dtype_r, relation):
    rng = np.random.default_rng(seed)
    shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in range(depth)]
    test = _random_bundle(rng, shapes, dtype_t)
    if relation == "same":
        reference = GradientBundle(test.weight_grads, test.bias_grads)
    elif relation == "scaled":
        reference = GradientBundle(
            tuple(2.5 * w for w in test.weight_grads), tuple(2.5 * b for b in test.bias_grads)
        )
    else:
        reference = _random_bundle(rng, shapes, dtype_r)
    if relation == "zero-reference":
        reference = GradientBundle(
            tuple(np.zeros_like(w) for w in reference.weight_grads),
            tuple(np.zeros_like(b) for b in reference.bias_grads),
        )
    elif relation == "zero-layer":
        ws = list(reference.weight_grads)
        bs = list(reference.bias_grads)
        i = int(rng.integers(depth))
        ws[i] = np.zeros_like(ws[i])
        bs[i] = np.zeros_like(bs[i])
        reference = GradientBundle(ws, bs)
    report = compare(test, reference)
    dtypes = [g.dtype for g in test.weight_grads + reference.weight_grads]
    floor = FLOOR_32 if np.dtype(np.float32) in dtypes else FLOOR_64
    got = (
        report.cosine_similarity,
        report.relative_error,
        report.norm_ratio,
        report.snr,
        report.per_layer_cosine,
        report.per_layer_log_misalignment,
        report.precision_floor,
    )
    assert _bits(got) == _bits(oracles.two_pass_compare(test, reference, floor))
