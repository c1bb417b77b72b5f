#!/usr/bin/env python3
"""The stacked-state view of a feed-forward network.

A depth-L chain is rewritten as one fixed-point condition on the
concatenation of all layer activations: a = sigma(W a + beta(x0)),
where W holds every layer weight on its first lower block diagonal.
Two structural facts carry the whole package and are shown here
numerically:

  * W is nilpotent of index L: applying it L times to anything gives
    exactly zero, not merely something small.
  * The unit-step relaxation m <- sigma(W m + beta) settles block by
    block, layer l exact after l updates, so the forward pass is
    recovered in L updates.

States are plain (n,) arrays: block l is ``a[offsets[l - 1]:offsets[l]]``
for ``offsets = params.offsets``. The script exits nonzero if either
fact fails to hold exactly.
"""

import sys

import numpy as np

from dyadicbp import (
    Activation,
    apply_global_W,
    beta_drive,
    forward_field,
    forward_pass,
    random_network,
)

rng = np.random.default_rng(7)

DEPTH = 4
params = random_network(
    input_dim=3,
    widths=(5, 6, 4, 2),
    activations=(Activation.TANH,) * 3 + (Activation.IDENTITY,),
    rng=rng,
)
x0 = rng.standard_normal(3)

print(f"chain: input 3 -> widths {params.widths}, state size {params.state_size}")

# --- nilpotency ------------------------------------------------------------
v = rng.standard_normal(params.state_size)
print("\nnilpotency of the global operator:")
for power in range(1, DEPTH + 1):
    v = apply_global_W(params, v)
    print(f"  ||W^{power} v|| = {np.linalg.norm(v):.3e}")
nilpotent = np.linalg.norm(v) == 0.0
print("  the last norm is exactly 0.0:", nilpotent)

# --- layerwise settling ----------------------------------------------------
# Iterate the plain mean update from zero and watch each block lock in.
acts, stacked = forward_pass(params, x0)
beta = beta_drive(params, x0)
offs = params.offsets
print(f"\nbeta(x0) drives block 1 with W_1 x0 + b_1; its norm is "
      f"{np.linalg.norm(beta[offs[0] : offs[1]]):.3f}")

m = np.zeros(params.state_size)
print("\nper-block distance to the forward activations after each update:")
header = "  k | " + " | ".join(f"block {i}" for i in range(1, DEPTH + 1))
print(header)
for k in range(1, DEPTH + 1):
    m = m + forward_field(params, x0, m)  # unit step: m <- sigma(Wm + beta)
    dists = [
        np.linalg.norm(m[offs[i - 1] : offs[i]] - stacked[offs[i - 1] : offs[i]])
        for i in range(1, DEPTH + 1)
    ]
    print(f"  {k} | " + " | ".join(f"{d:7.1e}" for d in dists))

settled = np.array_equal(m, stacked)
print("\nafter L updates the stacked state equals the forward pass bitwise:", settled)

residual = forward_field(params, x0, stacked)
print(f"forward field at the fixed point: ||F(a)|| = {np.linalg.norm(residual):.3e}")
if not nilpotent:
    sys.exit("W^L v is not exactly zero")
if not settled:
    sys.exit("the settled mean is not bitwise the forward stack")
