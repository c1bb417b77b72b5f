#!/usr/bin/env python3
"""Training through the relaxation is training with backprop.

Three runs on the two-moons task with identical seeds, data, and
initialization, differing only in how batch gradients are produced:

  * BP      - classical backpropagation,
  * TwoL    - the 2L-step dead-beat schedule,
  * Dyadic  - the relaxation at eta = 0.5, iterated to tolerance.

The TwoL run tracks the BP run bit for bit: same losses, same final
parameters. The eta = 0.5 run converges each batch to a 1e-6 stopping
tolerance and lands at the same test accuracy. The script exits nonzero
if the final TwoL parameters are not bitwise equal to BP's.
"""

import sys

import numpy as np

from dyadicbp import (
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    GradientMethod,
    train,
)


def run(method, eta=1.0):
    config = ExperimentConfig(
        seed=11,
        method=method,
        widths=(32, 32, 32, 2),
        eta=eta,
        epochs=30,
        dataset=DatasetSpec(kind=DatasetKind.TWO_MOONS, n_samples=600, noise=0.1),
    )
    return train(config)


bp = run(GradientMethod.BP)
tl = run(GradientMethod.TWO_L)
dy = run(GradientMethod.DYADIC, eta=0.5)

print("epoch |   BP loss   |  TwoL loss  | identical | Dyadic loss | mean iters")
for k in (0, 1, 5, 10, 20, 30):
    rb, rt, rd = bp.rows[k], tl.rows[k], dy.rows[k]
    same = "yes" if rb["train_loss"] == rt["train_loss"] else "NO"
    iters = rd.get("mean_iterations")
    iters_txt = f"{iters:.1f}" if iters is not None else "-"
    print(
        f"  {k:3d} | {rb['train_loss']:.9f} | {rt['train_loss']:.9f} |    {same:3s}"
        f"    | {rd['train_loss']:.9f} | {iters_txt}"
    )

params_equal = all(
    np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
    for a, b in zip(bp.params.layers, tl.params.layers)
)
print("\nfinal parameters BP vs TwoL bitwise identical:", params_equal)
print(f"final test accuracy: BP {bp.rows[-1]['test_acc']:.3f}, "
      f"TwoL {tl.rows[-1]['test_acc']:.3f}, Dyadic {dy.rows[-1]['test_acc']:.3f}")
if not params_equal:
    sys.exit("TwoL training is not bitwise equal to BP training")
