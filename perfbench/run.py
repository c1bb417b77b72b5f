"""dyadicbp benchmark: one closed-loop client, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times user calls (``train`` / ``sweep_eta``) for S seconds,
with one clock pair around each gradient-engine call and each BP call,
and reports the end-to-end metrics. ``--trace 1`` wraps every layer
entry point from outside, alternates untraced and traced calls of the
same configs, and reports per-layer metrics plus the tracing overhead.
Both check that the gradients are correct and exit 1 if a gate fails.

The last line of standard output is the JSON result; the lines before
it print each metric with its unit and the run manifest. A fuller
record and the traced spans go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "grads_per_s": "1/s",
    "grad_ms_tail": "ms",
    "x_bp": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "network.matvec_calls": "count",
    "network.matvec_s": "s",
    "network.matvec_gflop": "GFLOP",
    "network.matvec_gflops": "GFLOP/s",
    "network.sigma_calls": "count",
    "network.sigma_s": "s",
    "network.forward_s": "s",
    "network.beta_s": "s",
    "losses.gradient_calls": "count",
    "losses.gradient_s": "s",
    "losses.value_calls": "count",
    "losses.value_s": "s",
    "dynamics.calls": "count",
    "dynamics.self_s": "s",
    "dynamics.iterations_mean": "count",
    "dynamics.iterations_max": "count",
    "dynamics.nonconverged_frac": "ratio",
    "dynamics.column_step_utilization": "ratio",
    "reference.calls": "count",
    "reference.s": "s",
    "fidelity.calls": "count",
    "fidelity.s": "s",
    "training.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: a fresh process that only sets up, for the set-up median.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import dyadicbp from this checkout's src/, with BLAS pinned."""
    if not (ROOT / "src" / "dyadicbp" / "__init__.py").is_file():
        raise SystemExit(f"error: no dyadicbp package under {ROOT / 'src'}; run from a checkout")
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import dyadicbp  # noqa: F401


def set_up(args):
    """Imports, the workload's config stream and a warm-up call."""
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    w.warm_up(OUT)
    return w, w.configs(args.seed)


def setup_probes(args, n):
    """Set-up seconds of ``n`` fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    times = []
    for _ in range(n):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """The closed loop: one user call at a time, each one gated."""

    def __init__(self, w, configs):
        from spans import ENTRY_POINTS
        from workloads import Capture

        self.w = w
        self.configs = configs
        self.capture = Capture()
        self.attempted = 0
        self.failed = 0
        self.nonconverged = 0
        self.violations = []
        self.runs = []  # (config, rows) per call, for the end-of-run gates
        self.last_outcomes = []  # engine (iterations, converged) of the last call
        self.entry_points = [p for p in ENTRY_POINTS if p[0] in (w.engine_span, w.bp_span)]
        self.hooks = {w.engine_span: self._on_engine, w.bp_span: self._on_bp}
        self.pair_bp = False  # time BP right after each engine call
        self.paired_bp_s = []
        self._hook_s = 0.0

    def _on_engine(self, args, result):
        self.capture.engine.append(result)
        if self.pair_bp:
            dt = self.w.time_bp(args)
            self.paired_bp_s.append(dt)
            self._hook_s += dt

    def _on_bp(self, args, result):
        self.capture.bp.append(result)

    def call(self, config, tracer, points=None):
        """One gated user call with ``points`` traced (default: the engine
        and BP bindings, one clock pair each); returns its wall seconds."""
        self.capture.clear()
        self._hook_s = 0.0
        tracer.install(points or self.entry_points, self.hooks)
        t0 = time.perf_counter()
        try:
            result = self.w.call(config, OUT)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            n = self.w.grads(config)
            self.attempted += n
            self.failed += n
            self.violations.append(f"seed {config.seed}: the call raised")
            return time.perf_counter() - t0 - self._hook_s
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - t0 - self._hook_s
        check = self.w.check(config, result, self.capture)
        self.attempted += check.attempted
        self.failed += check.failed
        self.nonconverged += check.nonconverged
        self.violations += check.violations
        self.last_outcomes = [self.w.outcome(r) for r in self.capture.engine]
        if hasattr(result, "rows"):
            self.runs.append((config, result.rows))
        self.capture.clear()
        return wall


def end_to_end(loop, args, setup_main):
    import numpy as np
    from spans import Tracer

    timer = Tracer()
    walls, grads = [], []
    loop.pair_bp = loop.w.time_bp is not None
    t_start = time.perf_counter()
    while True:
        config = next(loop.configs)
        walls.append(loop.call(config, timer))
        grads.append(loop.w.grads(config))
        if time.perf_counter() - t_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    engine = timer.durations(loop.w.engine_span) * 1e3
    bp = np.array(loop.paired_bp_s if loop.pair_bp else timer.durations(loop.w.bp_span)) * 1e3
    n = min(engine.size, bp.size)  # equal unless a call raised between the two
    setups = [setup_main] + setup_probes(args, SETUP_REPEATS - 1)
    metrics = {
        "grads_per_s": sum(grads) / sum(walls),
        "grad_ms_tail": float(np.percentile(engine, loop.w.tail_pct)),
        "x_bp": float(np.median(engine[:n] / bp[:n])),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "user_calls": len(walls),
        "measured_s": sum(walls),
        "grad_calls": int(engine.size),
        "grad_ms_p50": float(np.median(engine)),
        "grad_ms_mean": float(engine.mean()),
        "x_bp_ratio_of_medians": float(np.median(engine) / np.median(bp)),
        "grad_tail_pct": loop.w.tail_pct,
        "grad_calls_beyond_tail": int(engine.size * (1 - loop.w.tail_pct / 100)),
        "grad_ms_percentiles": {
            p: float(np.percentile(engine, p)) for p in (5, 25, 50, 75, 90, 95, 99)
        },
        "setup_s_samples": setups,
    }
    return metrics, END_TO_END_UNITS, extra


def per_layer(loop, args):
    import numpy as np
    from spans import ENTRY_POINTS, Tracer

    light, full = Tracer(), Tracer()
    flop = [0.0]
    per_col = {}

    def count_matvec(call_args, result):
        params, arr = call_args[0], call_args[1]
        offs = params.offsets
        if offs not in per_col:
            widths = np.diff(offs)
            per_col[offs] = 2.0 * float(np.dot(widths[1:], widths[:-1]))
        flop[0] += per_col[offs] * (arr.shape[1] if arr.ndim == 2 else 1)

    loop.hooks["network.apply_w_array"] = loop.hooks["network.apply_wt_array"] = count_matvec
    n_calls = max(1, round(args.seconds / (2 * loop.w.call_s)))
    pairs = []  # (untraced, traced) wall seconds of the same config
    outcomes = []
    for i in range(n_calls):
        config = next(loop.configs)
        wall = {}
        for traced in (i % 2 == 0, i % 2 == 1):  # alternate which runs first
            if traced:
                wall[traced] = loop.call(config, full, ENTRY_POINTS)
                outcomes += loop.last_outcomes
            else:
                wall[traced] = loop.call(config, light)
        pairs.append((wall[False], wall[True]))
    OUT.mkdir(exist_ok=True)
    full.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    spans = full.summary()

    def group(*names, key="s"):
        return sum(spans.get(n, {}).get(key, 0.0) for n in names)

    matvec = ("network.apply_w_array", "network.apply_wt_array")
    sigma = ("network.sigma_array", "network.sigma_prime_array")
    engines = [n for n, _, _ in ENTRY_POINTS if n.startswith("dynamics.")]
    refs = [n for n, _, _ in ENTRY_POINTS if n.startswith("reference.")]
    users = [n for n, _, _ in ENTRY_POINTS if n.startswith("training.")]
    iters = np.concatenate([it for it, _ in outcomes]) if outcomes else np.zeros(1)
    conv = np.concatenate([c for _, c in outcomes]) if outcomes else np.ones(1, bool)
    steps = sum(it.size * it.max() for it, _ in outcomes) or 1
    metrics = {
        "network.matvec_calls": group(*matvec, key="calls"),
        "network.matvec_s": group(*matvec),
        "network.matvec_gflop": flop[0] / 1e9,
        "network.matvec_gflops": flop[0] / 1e9 / max(group(*matvec), 1e-12),
        "network.sigma_calls": group(*sigma, key="calls"),
        "network.sigma_s": group(*sigma),
        "network.forward_s": group("network.forward_layers"),
        "network.beta_s": group("network.beta_array"),
        "losses.gradient_calls": group("losses.gradient", key="calls"),
        "losses.gradient_s": group("losses.gradient"),
        "losses.value_calls": group("losses.value", key="calls"),
        "losses.value_s": group("losses.value"),
        "dynamics.calls": group(*engines, key="calls"),
        "dynamics.self_s": group(*engines, key="self_s"),
        "dynamics.iterations_mean": float(iters.mean()),
        "dynamics.iterations_max": float(iters.max()),
        "dynamics.nonconverged_frac": float(np.count_nonzero(~conv) / conv.size),
        "dynamics.column_step_utilization": float(iters.sum() / steps),
        "reference.calls": group(*refs, key="calls"),
        "reference.s": group(*refs),
        "fidelity.calls": group("fidelity.compare", key="calls"),
        "fidelity.s": group("fidelity.compare"),
        "training.self_s": group(*users, key="self_s"),
        "trace.overhead_frac": statistics.median(t / u for u, t in pairs) - 1.0,
    }
    total_self = sum(v["self_s"] for v in spans.values()) or 1.0
    extra = {
        "traced_user_calls": n_calls,
        "untraced_traced_s": pairs,
        "spans": len(full),
        "self_share": {n: v["self_s"] / total_self for n, v in sorted(spans.items())},
        "span_summary": spans,
    }
    return metrics, PER_LAYER_UNITS, extra


def manifest(args, load_1m):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src" / "dyadicbp"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load_1m,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None):
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    w, configs = set_up(args)
    setup_main = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    loop = Loop(w, configs)
    if args.trace:
        metrics, units, extra = per_layer(loop, args)
    else:
        metrics, units, extra = end_to_end(loop, args, setup_main)
    loop.violations += w.verify(loop.runs, OUT)

    record = {
        "manifest": manifest(args, load_1m),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_frac": loop.failed / loop.attempted,
        "nonconverged_frac": loop.nonconverged / loop.attempted,
        "details": extra,
        "violations": loop.violations,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    for k in ("grad_ms_p50", "grad_ms_mean"):
        if k in extra:
            print(f"{k} = {extra[k]:.6g} ms (not bounded, see README)")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio ({loop.failed}/{loop.attempted})")
    print(f"nonconverged_frac = {record['nonconverged_frac']:.6g} ratio "
          f"({loop.nonconverged}/{loop.attempted}, ran to k_max, gradient within its gate)")
    print("manifest " + json.dumps(record["manifest"]))
    for v in loop.violations:
        print(f"GATE FAILED: {v}", file=sys.stderr)
    correct = not loop.violations
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
