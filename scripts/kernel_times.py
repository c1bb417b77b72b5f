"""Median time per call of the relaxation step's kernels, in microseconds.

Usage (from a checkout's root):

    PYTHONPATH=src python scripts/kernel_times.py [--repeats N]

Times ``apply_w_array``, ``apply_wt_array``, ``_sigma_pair_array``,
``LossSpec.gradient``, ``LossSpec.value``, one Dyadic Euler step
(``dynamics._STEPS``, eta 0.5, into a preallocated workspace), one
step of a whole Dyadic relaxation (``dyadic_relax_step``: ``_relax`` from
zero at eta 0.5, default tolerance, divided by its step count) and one
call of the public Dyadic relaxation at ``k_max=1`` (``dyadic_relax_call``:
``relax_dyadic`` for a single state, ``relax_batch`` for a batch), its
fixed cost per call beside the cost per step, one TwoL gradient
(``twoL_call``: ``relax_twoL``, or ``relax_batch`` in TwoL mode) and one
backprop gradient (``bp_call``: ``classical_backprop``, or
``backprop_batch``), the ratio the benchmark's ``x_bp`` reads, on the
reference depth-9 net (input 2, eight Tanh layers of width 32, an
Identity output of width 2, cross-entropy loss) and on the depth-17 net
with sixteen hidden layers. Each runs for a float32 single state (n,)
and a float64 batch (n, 64), with BLAS pinned to one thread.

Each of the N repeats (default 25) times a loop of calls sized to take
about 5 ms; a line reads ``kernel  depth  dtype  shape  median_us``.
"""

import os

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from dyadicbp import (  # noqa: E402
    Activation,
    LossKind,
    LossSpec,
    RelaxConfig,
    RelaxMode,
    classical_backprop,
    random_network,
    relax_batch,
    relax_dyadic,
    relax_twoL,
)
from dyadicbp import dynamics  # noqa: E402
from dyadicbp.network import (  # noqa: E402
    _sigma_pair_array,
    apply_w_array,
    apply_wt_array,
    beta_array,
)
from dyadicbp.reference import backprop_batch  # noqa: E402

DEPTHS = (9, 17)
CASES = ((np.float32, None), (np.float64, 64))


def kernel_calls(depth: int, dtype, batch):
    """(zero-argument closure, steps per call) of each kernel on a fixed
    random instance."""
    rng = np.random.default_rng(depth)
    acts = [Activation.TANH] * (depth - 1) + [Activation.IDENTITY]
    params = random_network(2, (32,) * (depth - 1) + (2,), acts, rng, dtype=dtype)
    tail = () if batch is None else (batch,)
    x0 = rng.standard_normal((2, *tail)).astype(dtype)
    target = np.zeros((2, *tail), dtype=dtype)
    target[0] = 1.0
    loss = LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, target)
    beta = beta_array(params, x0)
    x, z = (rng.standard_normal(beta.shape).astype(dtype) for _ in range(2))
    ws = dynamics._Workspace(params, beta.shape, beta.dtype)
    ws.state.both[...] = x, z
    out = np.empty_like(beta)
    pre = apply_w_array(params, x) + beta
    sig, dsig = np.empty_like(pre), np.empty_like(pre)
    logits = x[params.output_slice]
    step = dynamics._STEPS[RelaxMode.DYADIC]
    eta = beta.dtype.type(0.5)  # as _relax passes it
    cfg = RelaxConfig(eta=0.5)
    one_step = RelaxConfig(eta=0.5, k_max=1)
    two_l = RelaxConfig(mode=RelaxMode.TWO_L)

    def relax():
        return dynamics._relax(params, beta, loss, cfg, step)

    def relax_call():
        if batch is None:
            return relax_dyadic(params, x0, loss, one_step, record_steps=False)
        return relax_batch(params, x0, loss, one_step)

    def twoL_call():
        if batch is None:
            return relax_twoL(params, x0, loss)
        return relax_batch(params, x0, loss, two_l)

    def bp_call():
        if batch is None:
            return classical_backprop(params, x0, loss)
        return backprop_batch(params, x0, loss)

    steps = int(np.max(relax()[2]))  # the loop runs until its last column stops
    return {
        "apply_w_array": (lambda: apply_w_array(params, x, out=out), 1),
        "apply_wt_array": (lambda: apply_wt_array(params, x, out=out), 1),
        "_sigma_pair_array": (lambda: _sigma_pair_array(params, pre, sig, dsig), 1),
        "LossSpec.gradient": (lambda: loss.gradient(logits), 1),
        "LossSpec.value": (lambda: loss.value(logits), 1),
        "dyadic_step": (lambda: step(params, beta, loss, eta, ws), 1),
        "dyadic_relax_step": (relax, steps),
        "dyadic_relax_call": (relax_call, 1),
        "twoL_call": (twoL_call, 1),
        "bp_call": (bp_call, 1),
    }


def median_us(call, repeats: int) -> float:
    """Median over ``repeats`` loops of the time per call, in microseconds."""
    start = time.perf_counter()
    for _ in range(10):
        call()
    per_call = (time.perf_counter() - start) / 10
    number = max(1, int(5e-3 / max(per_call, 1e-9)))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number)
    return 1e6 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the relaxation step's kernels.")
    parser.add_argument("--repeats", type=int, default=25, help="timed loops per kernel")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"{'kernel':<20} {'depth':>5} {'dtype':>8} {'shape':>7} {'median_us':>10}")
    for depth in DEPTHS:
        for dtype, batch in CASES:
            shape = "(n,)" if batch is None else f"(n,{batch})"
            for name, (call, steps) in kernel_calls(depth, dtype, batch).items():
                us = median_us(call, args.repeats) / steps
                print(
                    f"{name:<20} {'L' + str(depth):>5} {np.dtype(dtype).name:>8} "
                    f"{shape:>7} {us:>10.2f}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
