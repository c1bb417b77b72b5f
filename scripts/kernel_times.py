"""Median time per call of the relaxation step's kernels, in microseconds.

Usage (from a checkout's root):

    PYTHONPATH=src python scripts/kernel_times.py [--repeats N] [--against OTHER_SRC]

Times ``apply_w_array``, ``apply_wt_array``, ``_sigma_pair_array``,
``LossSpec.gradient``, ``LossSpec.value``, one Dyadic Euler step
(``dynamics._STEPS``, eta 0.5, from a random (m, s) into a preallocated
workspace: the unit-step map and its blend toward it; a tree whose
Dyadic step runs in (x, z) takes the same pair as its (x, z)), one
step of a whole Dyadic relaxation (``dyadic_relax_step``: ``_relax`` from
zero at eta 0.5, default tolerance, divided by its step count) and one
call of the public Dyadic relaxation at ``k_max=1`` (``dyadic_relax_call``:
``relax_dyadic`` for a single state, with no step records in either
tree, ``relax_batch`` for a batch), its
fixed cost per call beside the cost per step, one TwoL gradient
(``twoL_call``: ``relax_twoL``, or ``relax_batch`` in TwoL mode) and one
backprop gradient (``bp_call``: ``classical_backprop``, or
``backprop_batch``), the ratio the benchmark's ``x_bp`` reads, on the
reference depth-9 net (input 2, eight Tanh layers of width 32, an
Identity output of width 2, cross-entropy loss) and on the depth-17 net
with sixteen hidden layers. Each runs for a float32 single state (n,)
and a float64 batch (n, 64), with BLAS pinned to one thread. The batch
case adds one epoch of ``train`` with TwoL (``train_epoch``: 1,000
two-moons samples, batches of 64, float64), which at depth 17 is the
config of the benchmark's ``train-twoL-L17`` workload, and one
``_evaluate`` of 800 of those samples as columns (``evaluate``), the
size of that config's training set, which ``train`` evaluates once per
epoch.

Each of the N repeats (default 25) times a loop of calls sized to take
about 5 ms; a line reads ``kernel  depth  dtype  shape  median_us``.

``--against OTHER_SRC`` compares this tree with another checkout's
``src`` directory in one process, where the host's drift between
processes cannot tell them apart. The other tree's ``dyadicbp`` is
imported under another module name, each tree builds its instances from
its own names (an enum of one tree is not ``is``-equal to the other's,
so a shared instance would take the wrong branches), and each repeat
times the two trees' loops of the same length back to back, in
alternating order. A line then reads ``kernel  depth  dtype  shape
median_us  against_us  ratio``, the ratio being this tree's median over
the other's.
"""

import os

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import dyadicbp  # noqa: E402

DEPTHS = (9, 17)
CASES = ((np.float32, None), (np.float64, 64))
AGAINST = "dyadicbp_against"  # the module name of the other tree


def import_tree(src: Path, name: str = AGAINST):
    """The ``dyadicbp`` package under ``src``, imported as ``name``."""
    init = src / "dyadicbp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def dyadic_step(pkg, params, beta, loss, eta, m, s):
    """One Dyadic Euler step from the state (m, s) into a preallocated
    workspace, as a zero-argument call. A tree whose steps take the
    workspace on every call (before the steps were bound once per call)
    builds its workspace from ``params``."""
    dynamics = pkg.dynamics
    step = dynamics._STEPS[pkg.RelaxMode.DYADIC]
    try:
        ws = dynamics._Workspace(beta.shape, beta.dtype)
    except TypeError:
        ws = dynamics._Workspace(params, beta.shape, beta.dtype)
        ws.state.both[...] = m, s
        return lambda: step(params, beta, loss, eta, ws)
    forward, _ = step(params, beta, loss, eta, ws)
    ws.state[...] = m, s
    return forward


def evaluate_call(pkg, params):
    """One ``_evaluate`` of 800 two-moons samples as columns, as a
    zero-argument call. A tree whose evaluation set takes the dtype
    (before the output-only forward, it held no buffers) gets
    ``params.dtype``."""
    training = pkg.training
    features, onehot = pkg.datasets.generate_dataset(pkg.DatasetSpec(n_samples=1000), 0)
    takes_params = "params" in inspect.signature(training._eval_set).parameters
    layout = params if takes_params else params.dtype
    kind = pkg.LossKind.SOFTMAX_CROSS_ENTROPY
    eval_set = training._eval_set(features[:800], onehot[:800], kind, layout)
    return lambda: training._evaluate(params, *eval_set)


def kernel_calls(pkg, depth: int, dtype, batch):
    """(zero-argument closure, steps per call) of each kernel of the
    package ``pkg`` on a fixed random instance built from its own names."""
    network, dynamics = pkg.network, pkg.dynamics
    rng = np.random.default_rng(depth)
    acts = [pkg.Activation.TANH] * (depth - 1) + [pkg.Activation.IDENTITY]
    params = pkg.random_network(2, (32,) * (depth - 1) + (2,), acts, rng, dtype=dtype)
    tail = () if batch is None else (batch,)
    x0 = rng.standard_normal((2, *tail)).astype(dtype)
    target = np.zeros((2, *tail), dtype=dtype)
    target[0] = 1.0
    loss = pkg.LossSpec(pkg.LossKind.SOFTMAX_CROSS_ENTROPY, target)
    beta = network.beta_array(params, x0)
    m, s = (rng.standard_normal(beta.shape).astype(dtype) for _ in range(2))
    out = np.empty_like(beta)
    pre = network.apply_w_array(params, m) + beta
    sig, dsig = np.empty_like(pre), np.empty_like(pre)
    logits = m[params.output_slice]
    eta = 0.5  # as _relax passes cfg.eta; the step's binder casts it
    step = dynamics._STEPS[pkg.RelaxMode.DYADIC]
    cfg = pkg.RelaxConfig(eta=0.5)
    one_step = pkg.RelaxConfig(eta=0.5, k_max=1)
    two_l = pkg.RelaxConfig(mode=pkg.RelaxMode.TWO_L)
    # A tree whose relax_dyadic still takes record_steps records every step
    # unless told not to; this tree's records only through an observer.
    takes_records = "record_steps" in inspect.signature(pkg.relax_dyadic).parameters
    quiet = {"record_steps": False} if takes_records else {}

    def relax():
        return dynamics._relax(params, beta, loss, cfg, step)

    def relax_call():
        if batch is None:
            return pkg.relax_dyadic(params, x0, loss, one_step, **quiet)
        return pkg.relax_batch(params, x0, loss, one_step)

    def twoL_call():
        if batch is None:
            return pkg.relax_twoL(params, x0, loss)
        return pkg.relax_batch(params, x0, loss, two_l)

    def bp_call():
        if batch is None:
            return pkg.classical_backprop(params, x0, loss)
        return pkg.reference.backprop_batch(params, x0, loss)

    steps = int(np.max(relax()[2]))  # the loop runs until its last column stops
    calls = {
        "apply_w_array": (lambda: network.apply_w_array(params, m, out=out), 1),
        "apply_wt_array": (lambda: network.apply_wt_array(params, m, out=out), 1),
        "_sigma_pair_array": (lambda: network._sigma_pair_array(params, pre, sig, dsig), 1),
        "LossSpec.gradient": (lambda: loss.gradient(logits), 1),
        "LossSpec.value": (lambda: loss.value(logits), 1),
        "dyadic_step": (dyadic_step(pkg, params, beta, loss, eta, m, s), 1),
        "dyadic_relax_step": (relax, steps),
        "dyadic_relax_call": (relax_call, 1),
        "twoL_call": (twoL_call, 1),
        "bp_call": (bp_call, 1),
    }
    if batch is not None:
        epoch = pkg.ExperimentConfig(
            method=pkg.GradientMethod.TWO_L,
            precision=np.finfo(dtype).bits,
            widths=(32,) * (depth - 1) + (2,),
            epochs=1,
            dataset=pkg.DatasetSpec(n_samples=1000),
        )
        calls["evaluate"] = (evaluate_call(pkg, params), 1)
        calls["train_epoch"] = (lambda: pkg.train(epoch), 1)
    return calls


def loop_size(call) -> int:
    """The number of calls that takes about 5 ms, after a warm-up."""
    start = time.perf_counter()
    for _ in range(10):
        call()
    per_call = (time.perf_counter() - start) / 10
    return max(1, int(5e-3 / max(per_call, 1e-9)))


def loop_us(call, number: int) -> float:
    """Microseconds per call over a loop of ``number`` calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return 1e6 * (time.perf_counter() - start) / number


def median_us(call, repeats: int) -> float:
    """Median over ``repeats`` loops of the time per call, in microseconds."""
    number = loop_size(call)
    return statistics.median(loop_us(call, number) for _ in range(repeats))


def paired_median_us(call, other, repeats: int) -> tuple[float, float]:
    """The medians of ``call`` and ``other`` over ``repeats`` rounds, each
    round one loop of each (of ``call``'s size), the order swapped every
    round."""
    number = loop_size(call)
    loop_size(other)  # its warm-up
    times: tuple[list, list] = ([], [])
    for r in range(repeats):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            times[i].append(loop_us((call, other)[i], number))
    return statistics.median(times[0]), statistics.median(times[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the relaxation step's kernels.")
    parser.add_argument("--repeats", type=int, default=25, help="timed loops per kernel")
    parser.add_argument(
        "--against",
        type=Path,
        metavar="OTHER_SRC",
        help="another checkout's src directory, timed in alternating rounds",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    other = None
    if args.against is not None:
        if not (args.against / "dyadicbp" / "__init__.py").is_file():
            parser.error(f"--against {args.against}: no dyadicbp/__init__.py there")
        other = import_tree(args.against)
    columns = f"{'kernel':<20} {'depth':>5} {'dtype':>8} {'shape':>7} {'median_us':>10}"
    print(columns if other is None else f"{columns} {'against_us':>10} {'ratio':>6}")
    for depth in DEPTHS:
        for dtype, batch in CASES:
            shape = "(n,)" if batch is None else f"(n,{batch})"
            calls = kernel_calls(dyadicbp, depth, dtype, batch)
            others = None if other is None else kernel_calls(other, depth, dtype, batch)
            for name, (call, steps) in calls.items():
                line = (
                    f"{name:<20} {'L' + str(depth):>5} {np.dtype(dtype).name:>8} {shape:>7} "
                )
                if others is None:
                    line += f"{median_us(call, args.repeats) / steps:>10.2f}"
                else:
                    other_call, other_steps = others[name]
                    us, other_us = paired_median_us(call, other_call, args.repeats)
                    us, other_us = us / steps, other_us / other_steps
                    line += f"{us:>10.2f} {other_us:>10.2f} {us / other_us:>6.3f}"
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
