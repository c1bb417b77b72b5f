"""Brute-force reference implementations used only by the tests.

Everything here rebuilds quantities with explicit dense matrices and
plain per-layer loops, sharing no code with the package's
operator-action kernels, so agreement between the two is evidence and
not tautology. The last four sections are the exception: they keep
earlier package formulas as they were written, so that a rewrite of
the package can be pinned to the same bits.
"""

import math

import numpy as np

from dyadicbp import (
    Activation,
    GradientMethod,
    LayerParams,
    LossKind,
    LossSpec,
    NetworkParams,
    NumericError,
    generate_dataset,
)
from dyadicbp.fidelity import _cosine, compare, log_misalignment
from dyadicbp.network import (
    _block_slices,
    apply_w_array,
    apply_wt_array,
    beta_array,
    forward_layers,
    sigma_prime_array,
)
from dyadicbp.reference import GradientBundle, backprop_batch
from dyadicbp.training import (
    _FID_KEYS,
    _batch_gradients,
    _cosine_lr,
    _draw_network,
    _mean_or_none,
)


def block_bounds(params):
    bounds = []
    start = 0
    for lp in params.layers:
        bounds.append((start, start + lp.spec.width))
        start += lp.spec.width
    return bounds


def state_size(params):
    return sum(lp.spec.width for lp in params.layers)


def dense_w(params):
    """The global weight operator as an explicit dense matrix."""
    n = state_size(params)
    mat = np.zeros((n, n))
    bounds = block_bounds(params)
    for i in range(1, len(params.layers)):
        r0, r1 = bounds[i]
        c0, c1 = bounds[i - 1]
        mat[r0:r1, c0:c1] = params.layers[i].weight
    return mat


def dense_beta(params, x0):
    parts = [np.asarray(params.layers[0].weight, dtype=np.float64) @ x0
             + params.layers[0].bias]
    for lp in params.layers[1:]:
        parts.append(np.asarray(lp.bias, dtype=np.float64))
    return np.concatenate(parts)


def act_apply(activation, v):
    v = np.asarray(v, dtype=np.float64)
    if activation is Activation.IDENTITY:
        return v.copy()
    if activation is Activation.TANH:
        return np.tanh(v)
    if activation is Activation.SIGMOID:
        return 1.0 / (1.0 + np.exp(-v))
    return np.where(v > 0, v, 0.0)


def act_derivative(activation, v):
    v = np.asarray(v, dtype=np.float64)
    if activation is Activation.IDENTITY:
        return np.ones_like(v)
    if activation is Activation.TANH:
        return 1.0 / np.cosh(v) ** 2
    if activation is Activation.SIGMOID:
        p = 1.0 / (1.0 + np.exp(-v))
        return p - p * p
    return np.where(v > 0, 1.0, 0.0)


def stack_sigma(params, pre):
    out = np.empty_like(pre)
    for (b0, b1), lp in zip(block_bounds(params), params.layers):
        out[b0:b1] = act_apply(lp.spec.activation, pre[b0:b1])
    return out


def stack_sigma_prime(params, pre):
    out = np.empty_like(pre)
    for (b0, b1), lp in zip(block_bounds(params), params.layers):
        out[b0:b1] = act_derivative(lp.spec.activation, pre[b0:b1])
    return out


def naive_forward(params, x0):
    """Plain per-layer forward loop; returns the list of activations."""
    a = np.asarray(x0, dtype=np.float64)
    acts = []
    for lp in params.layers:
        a = act_apply(lp.spec.activation, np.asarray(lp.weight, np.float64) @ a + lp.bias)
        acts.append(a)
    return acts


def dense_d(params, x0, m):
    """Dense diagonal matrix D(m) = diag(sigma'(W m + beta))."""
    pre = dense_w(params) @ m + dense_beta(params, x0)
    return np.diag(stack_sigma_prime(params, pre))


def loss_value(kind, output, target):
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if kind is LossKind.MSE:
        diff = output - target
        return 0.5 * float(diff @ diff)
    shift = output.max()
    lse = shift + np.log(np.sum(np.exp(output - shift)))
    return float(lse - target @ output)


def loss_gradient(kind, output, target):
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if kind is LossKind.MSE:
        return output - target
    shift = output.max()
    e = np.exp(output - shift)
    return e / e.sum() - target


def naive_energy(params, x0, kind, target, x, z):
    """Term-by-term energy from dense pieces."""
    m = 0.5 * (np.asarray(x, np.float64) + np.asarray(z, np.float64))
    s = np.asarray(x, np.float64) - np.asarray(z, np.float64)
    pre = dense_w(params) @ m + dense_beta(params, x0)
    lift = float(s @ (stack_sigma(params, pre) - m))
    b0, b1 = block_bounds(params)[-1]
    return lift + loss_value(kind, m[b0:b1], target)


def neumann_bp(params, x0, kind, target):
    """Backprop gradients via the dense Neumann sum of matrix powers.

    Sensitivities come from s = sum_k (W^T D)^k g with explicit dense
    matrices; layer gradients are outer products of D s against the
    previous activation. Structurally unlike the layer recursion.
    """
    acts = naive_forward(params, x0)
    m = np.concatenate(acts)
    w = dense_w(params)
    d = dense_d(params, x0, m)
    bounds = block_bounds(params)
    n = state_size(params)

    g = np.zeros(n)
    b0, b1 = bounds[-1]
    g[b0:b1] = loss_gradient(kind, acts[-1], target)

    a = w.T @ d
    s = np.zeros(n)
    term = g.copy()
    for _ in range(len(params.layers)):
        s += term
        term = a @ term
    delta = d @ s

    weight_grads = []
    bias_grads = []
    prev = np.asarray(x0, dtype=np.float64)
    for (b0, b1), act in zip(bounds, acts):
        blk = delta[b0:b1]
        weight_grads.append(np.outer(blk, prev))
        bias_grads.append(blk.copy())
        prev = act
    return weight_grads, bias_grads, s


# The relaxation step as the package wrote it before the fused kernel and
# the per-call workspace: per-block ``Activation.apply``/``derivative``
# calls and a fresh array for every intermediate. The step-conformance
# tests require the package's steps to give the same bits as this.


def unfused_w(params, arr):
    out = np.zeros_like(arr)
    bounds = block_bounds(params)
    for i in range(1, len(params.layers)):
        (r0, r1), (c0, c1) = bounds[i], bounds[i - 1]
        out[r0:r1] = params.layers[i].weight @ arr[c0:c1]
    return out


def unfused_wt(params, arr):
    out = np.zeros_like(arr)
    bounds = block_bounds(params)
    for i in range(len(params.layers) - 1):
        (r0, r1), (c0, c1) = bounds[i], bounds[i + 1]
        out[r0:r1] = params.layers[i + 1].weight.T @ arr[c0:c1]
    return out


def unfused_sigma(params, pre):
    out = np.empty_like(pre)
    for (b0, b1), lp in zip(block_bounds(params), params.layers):
        out[b0:b1] = lp.spec.activation.apply(pre[b0:b1])
    return out


def unfused_sigma_prime(params, pre):
    out = np.empty_like(pre)
    for (b0, b1), lp in zip(block_bounds(params), params.layers):
        out[b0:b1] = lp.spec.activation.derivative(pre[b0:b1])
    return out


def _embed_output(params, like, block):
    out = np.zeros_like(like)
    b0, b1 = block_bounds(params)[-1]
    out[b0:b1] = block
    return out


def _saddle_velocity(params, beta, loss, x, z):
    b0, b1 = block_bounds(params)[-1]
    m = 0.5 * (x + z)
    s = x - z
    pre = unfused_w(params, m) + beta
    f = unfused_sigma(params, pre) - m
    d = unfused_sigma_prime(params, pre)
    backward = 0.5 * (unfused_wt(params, d * s) - s)
    cost = _embed_output(params, f, 0.5 * loss.gradient(m[b0:b1]))
    return f + backward + cost, f - backward - cost


def _split_velocity(params, beta, loss, x, z):
    b0, b1 = block_bounds(params)[-1]
    s = x - z
    pre_x = unfused_w(params, x) + beta
    pre_z = unfused_w(params, z) + beta
    avg_drive = 0.5 * (unfused_sigma(params, pre_x) + unfused_sigma(params, pre_z))
    d_x = unfused_sigma_prime(params, pre_x)
    d_z = unfused_sigma_prime(params, pre_z)
    g = loss.gradient(0.5 * (x[b0:b1] + z[b0:b1]))
    dx = avg_drive - x + 0.5 * unfused_wt(params, d_x * s)
    dx[b0:b1] += 0.5 * g
    dz = avg_drive - z - 0.5 * unfused_wt(params, d_z * s)
    dz[b0:b1] -= 0.5 * g
    return dx, dz


def _mean_stress(params, beta, loss, m, s, eta):
    b0, b1 = block_bounds(params)[-1]
    pre = unfused_w(params, m) + beta
    if eta == 1.0:
        s1 = unfused_wt(params, unfused_sigma_prime(params, pre) * s)
        s1[b0:b1] = loss.gradient(m[b0:b1])
        return unfused_sigma(params, pre), s1
    dm = unfused_sigma(params, pre) - m
    ds = unfused_wt(params, unfused_sigma_prime(params, pre) * s) - s
    ds[b0:b1] += loss.gradient(m[b0:b1])
    return m + eta * dm, s + eta * ds


def unfused_step(mode, params, beta, loss, a, b, eta):
    """One Euler step of ``mode`` from the state (a, b). "Dyadic" steps
    the mean/stress flow in (m, s); "Split" steps (x, z), and so does
    "Saddle": the Dyadic flow in its doubled coordinates, through the
    velocity of the saddle energy."""
    if mode == "Dyadic":
        return _mean_stress(params, beta, loss, a, b, eta)
    velocity = _saddle_velocity if mode == "Saddle" else _split_velocity
    da, db = velocity(params, beta, loss, a, b)
    return a + eta * da, b + eta * db


def unfused_relax(mode, params, beta, loss, eta, k_max, tol):
    """The pairs after each step of a column batch relaxed from zero under
    ``unfused_step``, and the iterations per column. Each column freezes
    once the summed norm of its pair's two increments drops below
    ``tol``, or at the precision floor: once that norm is below 1e3 tol,
    no smaller than the previous step's, and below 16 eps times the
    summed column norms of the new pair."""
    first = np.zeros_like(beta)
    second = np.zeros_like(beta)
    active = np.ones(beta.shape[1], dtype=bool)
    previous = np.full(beta.shape[1], np.inf)
    eps = np.finfo(beta.dtype).eps
    iterations = np.full(beta.shape[1], k_max)
    states = []
    for k in range(1, k_max + 1):
        cand1, cand2 = unfused_step(mode, params, beta, loss, first, second, eta)
        delta = np.linalg.norm(cand1 - first, axis=0) + np.linalg.norm(cand2 - second, axis=0)
        first = np.where(active, cand1, first)
        second = np.where(active, cand2, second)
        states.append((first, second))
        noise = 16 * eps * (np.linalg.norm(first, axis=0) + np.linalg.norm(second, axis=0))
        floor = (delta < 1e3 * tol) & (delta >= previous) & (delta < noise)
        stops = active & ((delta < tol) | floor)
        iterations[stops] = k
        active &= ~stops
        if not active.any():
            break
        previous = delta
    return states, iterations


# The check-side formulas as the package wrote them before the oracles
# took sigma' from the forward pass's own pre-activations: sigma' at
# W m + beta(x0), recomputed through the package's operator actions,
# and a compare that flattens every layer twice. The tests in
# test_backprop_recursion.py require the package's oracles and metrics
# to give the same bits.


def recomputed_neumann_stress(params, x0, loss):
    _, acts = forward_layers(params, x0)
    stacked = np.concatenate(acts, axis=0)
    dbar = sigma_prime_array(params, apply_w_array(params, stacked) + beta_array(params, x0))
    b0, b1 = block_bounds(params)[-1]
    g = np.zeros_like(stacked)
    g[b0:b1] = loss.gradient(acts[-1])
    s = g.copy()
    term = g
    for _ in range(len(params.layers) - 1):
        term = apply_wt_array(params, dbar * term)
        s += term
    return s


def recomputed_stability(params, x0, n_probes=8, seed=0):
    """(max forward norm, max backward norm) of the nilpotency probe."""
    _, acts = forward_layers(params, x0)
    m = np.concatenate(acts, axis=0)
    d = sigma_prime_array(params, apply_w_array(params, m) + beta_array(params, x0))
    rng = np.random.default_rng(seed)
    max_fwd = max_bwd = 0.0
    for _ in range(n_probes):
        v = rng.normal(size=state_size(params))
        v /= np.linalg.norm(v)
        u = v.copy()
        w = v.copy()
        for _ in range(len(params.layers)):
            u = d * apply_w_array(params, u)
            w = apply_wt_array(params, d * w)
        max_fwd = max(max_fwd, float(np.linalg.norm(u)))
        max_bwd = max(max_bwd, float(np.linalg.norm(w)))
    return max_fwd, max_bwd


def two_pass_compare(test, reference, precision_floor):
    """The FidelityReport fields of ``compare``, from ``flat()`` for the
    global metrics and a second ``layer_flat`` pass per layer."""
    t = test.flat().astype(np.float64)
    r = reference.flat().astype(np.float64)
    nt = float(np.linalg.norm(t))
    nr = float(np.linalg.norm(r))
    diff = float(np.linalg.norm(t - r))
    if nr > 0.0:
        ratios = (diff / nr, nt / nr, math.inf if diff == 0.0 else (nr * nr) / (diff * diff))
    else:
        ratios = (None, None, None)
    per_cos = tuple(
        _cosine(
            test.layer_flat(i).astype(np.float64), reference.layer_flat(i).astype(np.float64)
        )
        for i in range(test.depth)
    )
    per_logmis = tuple(log_misalignment(c, precision_floor) for c in per_cos)
    return (_cosine(t, r),) + ratios + (per_cos, per_logmis, precision_floor)


# The global W actions as the package wrote them before the stacked
# block plan: one matmul per block. The plan's kernels must give the
# same bits as these.


def per_block_w(params, arr, out=None):
    slices = _block_slices(params)
    out = np.empty_like(arr) if out is None else out
    out[slices[0]] = 0
    for i in range(1, params.depth):
        np.matmul(params.layers[i].weight, arr[slices[i - 1]], out=out[slices[i]])
    return out


def per_block_wt(params, arr, out=None):
    slices = _block_slices(params)
    out = np.empty_like(arr) if out is None else out
    out[slices[-1]] = 0
    for i in range(params.depth - 1):
        np.matmul(params.layers[i + 1].weight.T, arr[slices[i + 1]], out=out[slices[i]])
    return out


# The training loop as the package wrote it before the flat parameter
# buffer: 2L separately owned arrays, a Nesterov update per array with
# its own finiteness check, params rebuilt from the arrays after each
# batch, and the fidelity columns taken from ``compare``. ``train`` must
# log the same rows bit for bit.


def per_array_train(config, rows):
    """Run ``config`` as that loop, appending each epoch's row to ``rows``
    as it is logged, so a divergence leaves the partial log there."""
    rng = np.random.default_rng(config.seed)
    features, onehot = generate_dataset(config.dataset, config.seed)
    n, input_dim = features.shape
    params = _draw_network(config, input_dim, onehot.shape[1], rng)
    dtype = params.dtype
    n_test = int(round(config.test_fraction * n))
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    x_train = np.ascontiguousarray(features[train_idx].T.astype(dtype))
    y_train = onehot[train_idx]
    x_test = np.ascontiguousarray(features[test_idx].T.astype(dtype))
    y_test = onehot[test_idx]
    y_train_cols = np.ascontiguousarray(y_train.T.astype(dtype))

    def evaluate(params, x_cols, onehot_rows):
        out = forward_layers(params, x_cols)[1][-1]
        loss = LossSpec(config.loss_kind, onehot_rows.T.astype(out.dtype)).value(out)
        acc = float(np.mean(np.argmax(out, axis=0) == np.argmax(onehot_rows, axis=1)))
        return float(np.asarray(loss, dtype=np.float64).mean()), acc

    def log_epoch(params, epoch, lr=None, **columns):
        train_loss, train_acc = evaluate(params, x_train, y_train)
        test_acc = evaluate(params, x_test, y_test)[1] if n_test else None
        rows.append(dict(epoch=epoch, lr=lr, train_loss=train_loss, train_acc=train_acc,
                         test_acc=test_acc, **columns))

    lr_max, lr_min = config.resolved_lr()
    arrays = [lp.weight for lp in params.layers] + [lp.bias for lp in params.layers]
    velocities = [np.zeros_like(arr) for arr in arrays]
    log_epoch(params, 0)
    n_train = x_train.shape[1]
    mu, wd = config.momentum, config.weight_decay
    for epoch in range(1, config.epochs + 1):
        lr = _cosine_lr(epoch, config.epochs, lr_max, lr_min)
        order = rng.permutation(n_train)
        iter_counts, conv_flags, fid_records = [], [], []
        for start in range(0, n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = x_train[:, idx]
            loss = LossSpec(config.loss_kind, y_train_cols[:, idx])
            ws, bs, iters, conv = _batch_gradients(params, xb, loss, config)
            if iters is not None:
                iter_counts.append(float(np.mean(iters)))
                conv_flags.append(float(np.mean(conv)))
            if config.method is not GradientMethod.BP:
                ref_w, ref_b = backprop_batch(params, xb, loss)
                report = compare(GradientBundle(ws, bs), GradientBundle(ref_w, ref_b))
                fid_records.append(report.to_record())
            for i, grad in enumerate([*ws, *bs]):
                grad = grad + wd * arrays[i]
                velocities[i] = mu * velocities[i] + grad
                arrays[i] = (arrays[i] - lr * (grad + mu * velocities[i])).astype(dtype)
                if not np.all(np.isfinite(arrays[i])):
                    raise NumericError(f"parameters diverged in epoch {epoch}; partial log kept")
            layers = tuple(
                LayerParams(lp.spec, w, b)
                for lp, w, b in zip(params.layers, arrays[: params.depth], arrays[params.depth :])
            )
            params = NetworkParams(params.input_dim, layers)
        fidelity = {
            f"fid_{key}": _mean_or_none(rec[key] for rec in fid_records) for key in _FID_KEYS
        }
        log_epoch(params, epoch, lr, mean_iterations=_mean_or_none(iter_counts),
                  frac_converged=_mean_or_none(conv_flags), **fidelity)
    return params
