"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single "criterion NN: PASS/FAIL - detail" line (visible
with pytest -s) and then asserts, so a red run names the broken guarantee
directly.
"""

import time

import numpy as np

import oracles
from helpers import make_chain, make_instance, make_loss, two_phase_states
from dyadicbp import (
    Activation,
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    GradientMethod,
    LossKind,
    LossSpec,
    RelaxConfig,
    RelaxMode,
    apply_global_W,
    check_gradients,
    classical_backprop,
    energy,
    finite_difference_grad,
    forward_pass,
    neumann_stress,
    random_network,
    relax_dyadic,
    relax_split,
    relax_twoL,
    stability_check,
    sweep_eta,
    train,
)
from dyadicbp.network import apply_wt_array


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _rel(test_bundle, ref_bundle) -> float:
    t = test_bundle.flat()
    r = ref_bundle.flat()
    nr = float(np.linalg.norm(r))
    if nr == 0.0:
        return float(np.linalg.norm(t))
    return float(np.linalg.norm(t - r) / nr)


def _desk_instance(rng):
    """The reference depth-9 architecture with a fresh draw."""
    widths = (32,) * 8 + (10,)
    acts = (Activation.TANH,) * 8 + (Activation.IDENTITY,)
    params = random_network(32, widths, acts, rng)
    x0 = rng.standard_normal(32)
    target = np.zeros(10)
    target[int(rng.integers(10))] = 1.0
    return params, x0, LossSpec(LossKind.SOFTMAX_CROSS_ENTROPY, target)


def test_criterion_01_twoL_matches_classical_backprop():
    # 200 random chains, depths 1..8, widths up to 32, both loss kinds:
    # the 2L-step schedule reproduces backprop to 1e-12 relative error,
    # in under 30 seconds.
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        depth = int(rng.integers(1, 9))
        params = make_chain(rng, depth=depth, max_width=32)
        x0 = rng.standard_normal(params.input_dim)
        loss = make_loss(rng, params.widths[-1])
        _, _, bundle = relax_twoL(params, x0, loss)
        ref, _ = classical_backprop(params, x0, loss)
        if np.linalg.norm(ref.flat()) == 0.0:
            worst = max(worst, np.linalg.norm(bundle.flat()))
        else:
            worst = max(worst, _rel(bundle, ref))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(1, ok, f"200 chains, max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_unit_step_euler_equals_discrete_two_phase():
    # 50 instances: the eta = 1 Euler iterates coincide state for state
    # with the discrete two-phase maps, stepped 2L times from zero by the
    # unfused oracle, to 1e-15. An exact early freeze (saturated tanh)
    # just shortens the Euler run; the oracle's tail must then be constant.
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        params, x0, loss = make_instance(rng)
        beta = oracles.dense_beta(params, x0)
        m2 = np.zeros_like(beta)
        s2 = np.zeros_like(beta)
        for m1, s1 in two_phase_states(params, x0, loss):
            m2, s2 = oracles.unfused_step("Dyadic", params, beta, loss, m2, s2, 1.0)
            worst = max(
                worst,
                float(np.abs(m1 - m2).max(initial=0.0)),
                float(np.abs(s1 - s2).max(initial=0.0)),
            )
    ok = worst <= 1e-15
    _verdict(2, ok, f"50 instances, max state deviation {worst:.3e}")


def test_criterion_03_depth_nine_settles_at_2l_plus_one():
    # 100 fresh depth-9 instances at unit step: the stopping rule fires
    # at iteration 18 or 19 (settled by 2L = 18; the zero-delta check
    # lands one step later unless the final flush is already tiny).
    rng = np.random.default_rng(1003)
    counts = []
    for _ in range(100):
        params, x0, loss = _desk_instance(rng)
        _, _, _, trace = relax_dyadic(params, x0, loss, RelaxConfig())
        if not trace.converged:
            counts.append(-1)
        else:
            counts.append(trace.iterations_used)
    ok = all(c in (18, 19) for c in counts)
    lo, hi = min(counts), max(counts)
    _verdict(3, ok, f"100 depth-9 runs, stop iteration range [{lo}, {hi}]")


def test_criterion_04_partial_step_per_layer_alignment():
    # eta = 0.75 on the depth-9 architecture, 100 trials per precision:
    # per-layer log misalignment at most -9 in 64-bit on every layer,
    # and at most -5 on >= 95% of trials in 32-bit.
    config64 = ExperimentConfig(
        seed=1004,
        method=GradientMethod.DYADIC,
        eta=0.75,
        tol=1e-12,
        k_max=2000,
    )
    rows64 = check_gradients(config64, trials=100)
    worst64 = max(
        row[f"layer_{i}_logmis"] for row in rows64 for i in range(1, 10)
    )

    config32 = ExperimentConfig(
        seed=1004,
        precision=32,
        method=GradientMethod.DYADIC,
        eta=0.75,
        tol=1e-5,
        k_max=2000,
    )
    rows32 = check_gradients(config32, trials=100)
    good32 = sum(
        1
        for row in rows32
        if all(row[f"layer_{i}_logmis"] <= -5.0 for i in range(1, 10))
    )
    ok = worst64 <= -9.0 and good32 >= 95
    _verdict(
        4,
        ok,
        f"64-bit worst per-layer logmis {worst64:.2f}, "
        f"32-bit clean trials {good32}/100",
    )


def test_criterion_05_step_size_sweep_norm_ratios():
    # Sweeps over eta in {0.25, 0.5, 0.75, 1.0} on the depth-9 network:
    # gradient norm ratios against backprop within 1 +- 1e-8 in 64-bit
    # and 1 +- 1e-3 in 32-bit, every trial converged.
    etas = [0.25, 0.5, 0.75, 1.0]
    rows64 = sweep_eta(
        ExperimentConfig(seed=1005, method=GradientMethod.DYADIC, tol=1e-12, k_max=3000),
        etas,
        trials=20,
    )
    dev64 = max(
        max(abs(row["min_norm_ratio"] - 1.0), abs(row["max_norm_ratio"] - 1.0))
        for row in rows64
    )
    rows32 = sweep_eta(
        ExperimentConfig(
            seed=1005,
            precision=32,
            method=GradientMethod.DYADIC,
            tol=1e-4,
            k_max=3000,
        ),
        etas,
        trials=20,
    )
    dev32 = max(
        max(abs(row["min_norm_ratio"] - 1.0), abs(row["max_norm_ratio"] - 1.0))
        for row in rows32
    )
    conv = all(row["frac_converged"] == 1.0 for row in rows64 + rows32)
    ok = dev64 <= 1e-8 and dev32 <= 1e-3 and conv
    _verdict(
        5,
        ok,
        f"norm-ratio deviation 64-bit {dev64:.3e}, 32-bit {dev32:.3e}, "
        f"all converged {conv}",
    )


def test_criterion_06_independent_reference_oracles_agree():
    # The reference implementations cross-check: backprop matches
    # central finite differences to 1e-5 and the truncated-series stress
    # matches the backprop sensitivities to 1e-12, on 50 instances.
    rng = np.random.default_rng(1006)
    worst_fd = 0.0
    worst_nm = 0.0
    for _ in range(50):
        params, x0, loss = make_instance(rng)
        bundle, sens = classical_backprop(params, x0, loss)
        fd = finite_difference_grad(params, x0, loss)
        if np.linalg.norm(bundle.flat()) > 1e-8:
            worst_fd = max(worst_fd, _rel(fd, bundle))
        stress = neumann_stress(params, x0, loss)
        scale = max(1.0, float(np.linalg.norm(sens)))
        worst_nm = max(
            worst_nm, float(np.linalg.norm(stress - sens)) / scale
        )
    ok = worst_fd <= 1e-5 and worst_nm <= 1e-12
    _verdict(
        6,
        ok,
        f"50 instances, FD vs BP max rel {worst_fd:.3e}, "
        f"series stress vs sensitivities {worst_nm:.3e}",
    )


def test_criterion_07_equilibrium_energy_equals_task_loss():
    # At the settled dyad the coupling term vanishes with the forward
    # residual, so the saddle energy equals the task loss at the mean's
    # output block to 1e-10, on 100 instances.
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(100):
        params, x0, loss = make_instance(rng)
        m, s, _, trace = relax_dyadic(params, x0, loss, RelaxConfig())
        assert trace.converged
        e = energy(params, x0, loss, m + 0.5 * s, m - 0.5 * s)
        c = loss.value(m[params.output_slice])
        worst = max(worst, abs(e - c))
    ok = worst <= 1e-10
    _verdict(7, ok, f"100 equilibria, max |energy - loss| {worst:.3e}")


def test_criterion_08_nilpotency_and_jacobian_spectrum():
    # The global operator is nilpotent of index L (applying it L times
    # annihilates any vector, to 1e-12), the shifted linearizations
    # J + I share that index, and the dense blocks D(m) W - I and
    # W^T D(m) - I have every eigenvalue within 1e-8 of -1.
    rng = np.random.default_rng(1008)
    worst_nil = 0.0
    for _ in range(50):
        params = make_chain(rng)
        v = rng.standard_normal(params.state_size)
        w = rng.standard_normal(params.state_size)
        for _ in range(params.depth):
            v = apply_global_W(params, v)
            w = apply_wt_array(params, w)
        worst_nil = max(worst_nil, float(np.linalg.norm(v)), float(np.linalg.norm(w)))
        x0 = rng.standard_normal(params.input_dim)
        report = stability_check(params, x0, n_probes=4, seed=int(rng.integers(1 << 31)))
        worst_nil = max(
            worst_nil, report.max_forward_residual, report.max_backward_residual
        )

    worst_eig = 0.0
    for _ in range(20):
        params = make_chain(rng, depth=int(rng.integers(2, 5)), max_width=8)
        x0 = rng.standard_normal(params.input_dim)
        m = np.concatenate(oracles.naive_forward(params, x0))
        wmat = oracles.dense_w(params)
        dmat = oracles.dense_d(params, x0, m)
        eye = np.eye(wmat.shape[0])
        for jac in (dmat @ wmat - eye, wmat.T @ dmat - eye):
            eig = np.linalg.eigvals(jac)
            worst_eig = max(worst_eig, float(np.max(np.abs(eig + 1.0))))
    ok = worst_nil <= 1e-12 and worst_eig <= 1e-8
    _verdict(
        8,
        ok,
        f"max L-fold residual {worst_nil:.3e}, "
        f"max eigenvalue distance from -1 {worst_eig:.3e}",
    )


def test_criterion_09_two_moons_training_parity():
    # TwoMoons (n = 1000), depth-4 Tanh network, 100 epochs: the 2L
    # schedule reproduces the BP loss curve to 1e-8 relative, and Dyadic
    # training at eta in {0.25, 0.5, 1.0} lands within 0.5 accuracy
    # points of BP. The whole block must finish inside 5 minutes.
    start = time.monotonic()

    def cfg(method, eta=1.0):
        return ExperimentConfig(
            seed=1009,
            method=method,
            widths=(32, 32, 32, 2),
            eta=eta,
            epochs=100,
            dataset=DatasetSpec(kind=DatasetKind.TWO_MOONS, n_samples=1000, noise=0.1),
        )

    bp = train(cfg(GradientMethod.BP))
    tl = train(cfg(GradientMethod.TWO_L))
    loss_dev = max(
        abs(a["train_loss"] - b["train_loss"]) / max(abs(b["train_loss"]), 1e-30)
        for a, b in zip(tl.rows, bp.rows)
    )

    bp_acc = bp.rows[-1]["test_acc"]
    acc_devs = {}
    for eta in (0.25, 0.5, 1.0):
        dy = train(cfg(GradientMethod.DYADIC, eta=eta))
        acc_devs[eta] = abs(dy.rows[-1]["test_acc"] - bp_acc)
    elapsed = time.monotonic() - start
    worst_acc = max(acc_devs.values())
    ok = loss_dev <= 1e-8 and worst_acc <= 0.005 + 1e-12 and elapsed < 300.0
    _verdict(
        9,
        ok,
        f"TwoL loss-curve rel dev {loss_dev:.3e}, worst accuracy gap "
        f"{worst_acc:.4f} (BP acc {bp_acc:.3f}), {elapsed:.0f}s",
    )


def test_criterion_10_split_dynamics_match_dyadic_gradients():
    # 50 smooth instances driven near the forward fixed point (MSE
    # target offset 3e-7 from the reached output): the split scheme's
    # gradient agrees with the dyadic one to 1e-6 relative at eta = 0.5.
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        params = make_chain(rng, depth=int(rng.integers(1, 4)), identity_output=True)
        x0 = rng.standard_normal(params.input_dim)
        out_dim = params.widths[-1]
        layer_acts, _ = forward_pass(params, x0)
        direction = rng.standard_normal(out_dim)
        direction /= np.linalg.norm(direction)
        loss = LossSpec(LossKind.MSE, layer_acts[-1] + 3e-7 * direction)
        _, _, dy_bundle, t1 = relax_dyadic(
            params,
            x0,
            loss,
            RelaxConfig(eta=0.5, tol=1e-14, k_max=5000, mode=RelaxMode.DYADIC),
        )
        _, _, sp_bundle, t2 = relax_split(
            params,
            x0,
            loss,
            RelaxConfig(eta=0.5, tol=1e-14, k_max=5000, mode=RelaxMode.SPLIT),
        )
        assert t1.converged and t2.converged
        worst = max(worst, _rel(sp_bundle, dy_bundle))
    ok = worst <= 1e-6
    _verdict(10, ok, f"50 near-fixed-point instances, max rel gap {worst:.3e}")
