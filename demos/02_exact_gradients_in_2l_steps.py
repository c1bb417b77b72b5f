#!/usr/bin/env python3
"""Exact gradients from a relaxation, in exactly 2L updates.

Doubling the stacked state into a pair (x, z) turns the forward fixed
point into a saddle system. The mean (x + z) / 2 relaxes onto the
forward activations; the stress x - z collects the loss sensitivities.
At unit step size the whole thing is dead-beat: after 2L updates both
components sit at their fixed point and the gradient read off the
equilibrium is classical backprop's, float for float.

The script runs the depth-9 reference architecture, compares the 2L
schedule and the unit-step Dyadic relaxation against an independent
backprop implementation (exiting nonzero if either differs in a single
bit), and prints the relaxation trace including the saddle
energy, which lands on the plain task loss once the forward residual
is gone.
"""

import sys

import numpy as np

from dyadicbp import (
    Activation,
    LossKind,
    LossSpec,
    RelaxConfig,
    classical_backprop,
    energy,
    relax_dyadic,
    relax_twoL,
    random_network,
)

rng = np.random.default_rng(21)

widths = (32,) * 8 + (10,)
activations = (Activation.TANH,) * 8 + (Activation.IDENTITY,)
params = random_network(32, widths, activations, rng)
x0 = rng.standard_normal(32)
target = np.zeros(10)
target[3] = 1.0
loss = LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, target)

L = params.depth
print(f"depth L = {L}, so the schedule needs 2L = {2 * L} updates")

# --- the 2L-step schedule vs independent backprop ---------------------------
m, s, bundle = relax_twoL(params, x0, loss)
ref, sens = classical_backprop(params, x0, loss)

identical = all(
    np.array_equal(a, b) for a, b in zip(bundle.weight_grads, ref.weight_grads)
) and all(np.array_equal(a, b) for a, b in zip(bundle.bias_grads, ref.bias_grads))
print("gradients bitwise identical to backprop:", identical)
same_stress = np.array_equal(s, sens)
print("stress equals the stacked sensitivities bitwise:", same_stress)
if not (identical and same_stress):
    sys.exit("TwoL is not bitwise equal to classical backprop")

# --- the same thing as a monitored relaxation -------------------------------
# An on_step observer sees the state after every update; Dyadic hands it
# the doubled state (x, z). states[k] is the state after update k.
states = [(np.zeros(params.state_size), np.zeros(params.state_size))]
m, s, bundle, trace = relax_dyadic(
    params, x0, loss, RelaxConfig(eta=1.0), on_step=lambda k, x, z: states.append((x, z))
)
print(f"\nstopping rule fired at iteration {trace.iterations_used} "
      f"(settled at 2L = {2 * L}, detected one step later)")
relaxed = np.array_equal(bundle.flat(), ref.flat())
print("relaxed gradients bitwise identical to backprop:", relaxed)
if not relaxed:
    sys.exit("the unit-step Dyadic relaxation is not bitwise equal to classical backprop")

# The step delta is the loop's stopping quantity, ||dm|| + ||ds||, with
# the mean (x + z) / 2 and the stress x - z.
mean_stress = [(0.5 * (x + z), x - z) for x, z in states]
print("\n  k | step delta | energy")
for k in (1, 2, L, 2 * L - 1, 2 * L, trace.iterations_used):
    (m_k, s_k), (m_prev, s_prev) = mean_stress[k], mean_stress[k - 1]
    delta = np.linalg.norm(m_k - m_prev) + np.linalg.norm(s_k - s_prev)
    print(f" {k:2d} | {delta:10.3e} | {energy(params, x0, loss, *states[k]):+.6f}")

# The relaxations return the mean and stress as plain (n,) arrays; the
# energy takes the doubled state x = m + s/2, z = m - s/2.
e = energy(params, x0, loss, m + 0.5 * s, m - 0.5 * s)
c = loss.value(m[params.output_slice])
print(f"\nenergy at equilibrium  : {e:.12f}")
print(f"task loss at the mean  : {c:.12f}")
print(f"difference             : {abs(e - c):.3e}")
