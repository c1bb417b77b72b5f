"""The benchmark's workloads and their correctness gates.

Each workload is a closed loop of calls to one public entry point of
``dyadicbp`` (``train`` or ``sweep_eta``), each call made only after the
previous one returned. The configs come from the workload seed alone.

Gates read the program's own outputs (the ``train`` rows, the
``sweep_eta`` rows) and the engine results captured at the entry point.
A gradient evaluation counts as failed if its call raised or it broke
its gate. One that ran to k_max without meeting the stopping rule but
still passed its gate is counted apart, as non-converged: that is a
known defect of float32 Dyadic at eta = 1, which costs time, not
correctness, and must stay visible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

import dyadicbp
from dyadicbp import DatasetSpec, ExperimentConfig, GradientMethod
from dyadicbp.reference import classical_backprop

REFERENCE_L9 = None  # ExperimentConfig's default: 8 x 32 Tanh + Identity output
DEEP_L17 = (32,) * 16 + (2,)

TRAIN_N_SAMPLES = 1000

# Golden SHA-256 of the body of train.csv (header and rows, without the
# leading "# seed"/"# config" provenance comments) for GOLDEN_CONFIG.
# TwoL must reproduce batched BP bit for bit, so no speed-up may change
# it. Produced at the commit that added this benchmark (numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread).
GOLDEN_CONFIG = dict(
    seed=0,
    method=GradientMethod.TWO_L,
    widths=DEEP_L17,
    epochs=2,
    dataset=DatasetSpec(n_samples=TRAIN_N_SAMPLES),
)
GOLDEN_SHA256 = "6869bc92a73d74db3c480c48bdd14ec579ae784be70b602c2e4f9e8695131814"


def cosine_floor(dtype) -> float:
    """Lowest gradient cosine against BP accepted at this precision."""
    return 1.0 - math.sqrt(float(np.finfo(dtype).eps))


def csv_body_sha256(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class Capture:
    """Engine and BP results seen at the entry point during one user call."""

    engine: list = dataclasses.field(default_factory=list)
    bp: list = dataclasses.field(default_factory=list)

    def clear(self) -> None:
        self.engine.clear()
        self.bp.clear()


@dataclass
class CallCheck:
    """Outcome of the gates for one user call."""

    attempted: int
    failed: int
    violations: list
    nonconverged: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    method: GradientMethod
    precision: int
    eta: float
    widths: Optional[tuple]
    per_call: int  # epochs per train call, or trials per sweep call
    tail_pct: float  # a percentile with >= 10 samples beyond it in a 30 s run
    call_s: float  # nominal seconds per user call on a 2-core box

    # Span names of the gradient engine and its BP baseline, as the
    # tracer records them; both are bound in ``dyadicbp.training``.
    engine_span: str = "dynamics.relax_batch"
    bp_span: str = "reference.backprop_batch"
    # train already alternates engine and BP calls on the same batch, so
    # both see the same machine state; a sweep does not, so the benchmark
    # times BP itself right after each engine call (see SweepWorkload).
    time_bp = None

    def configs(self, seed: int) -> Iterator[ExperimentConfig]:
        """Endless deterministic sequence of call configs for ``seed``."""
        rng = np.random.default_rng(seed)
        while True:
            yield self.config(int(rng.integers(2**31)))

    def config(self, seed: int, **overrides) -> ExperimentConfig:
        fields = dict(
            seed=seed,
            method=self.method,
            precision=self.precision,
            eta=self.eta,
            widths=self.widths,
            epochs=self.per_call,
            dataset=DatasetSpec(n_samples=TRAIN_N_SAMPLES),
        )
        fields.update(overrides)
        return ExperimentConfig(**fields)

    def grads(self, config: ExperimentConfig) -> int:
        return config.epochs * _n_train(config)

    def call(self, config: ExperimentConfig, out_dir: Path):
        return dyadicbp.train(config, csv_path=out_dir / f"{self.name}-train.csv")

    def warm_up(self, out_dir: Path) -> None:
        small = self.config(0, epochs=1, dataset=DatasetSpec(n_samples=160))
        self.call(small, out_dir)

    @staticmethod
    def outcome(result) -> tuple[np.ndarray, np.ndarray]:
        """Per-column (iterations, converged) of one engine result."""
        return np.asarray(result[2]), np.asarray(result[3], dtype=bool)

    def check(self, config: ExperimentConfig, result, capture: Capture) -> CallCheck:
        n_train = _n_train(config)
        per_epoch = -(-n_train // config.batch_size)
        attempted = self.grads(config)
        violations = []
        rows = result.rows
        if len(rows) != config.epochs + 1 or len(capture.engine) != config.epochs * per_epoch:
            violations.append(
                f"{len(rows)} rows and {len(capture.engine)} engine calls for "
                f"{config.epochs} epochs"
            )
            return CallCheck(attempted, attempted, violations)
        floor = cosine_floor(config.dtype)
        failed = nonconverged = 0
        for e, row in enumerate(rows[1:], start=1):
            if self.method is GradientMethod.TWO_L:
                bad = row["fid_rel_err"] != 0.0
                what = f"fid_rel_err {row['fid_rel_err']!r} != 0.0"
            else:
                bad = not row["fid_cos"] >= floor
                what = f"fid_cos {row['fid_cos']!r} < {floor!r}"
            if bad:
                violations.append(f"seed {config.seed} epoch {e}: {what}")
                failed += n_train
                continue
            for res in capture.engine[(e - 1) * per_epoch : e * per_epoch]:
                nonconverged += int(np.count_nonzero(~self.outcome(res)[1]))
        return CallCheck(attempted, failed, violations, nonconverged)

    def verify(self, runs: list, out_dir: Path) -> list:
        """End-of-run gates that re-run the program; returns violations."""
        if self.method is not GradientMethod.TWO_L:
            return []
        violations = []
        keys = ("train_loss", "train_acc", "test_acc")
        for config, rows in runs:
            bp = dyadicbp.train(dataclasses.replace(config, method=GradientMethod.BP))
            for a, b in zip(rows, bp.rows):
                if any(a[k] != b[k] for k in keys):
                    violations.append(
                        f"seed {config.seed} epoch {a['epoch']}: TwoL trajectory differs from BP"
                    )
                    break
        path = out_dir / "golden-train.csv"
        dyadicbp.train(ExperimentConfig(**GOLDEN_CONFIG), csv_path=path)
        digest = csv_body_sha256(path)
        if digest != GOLDEN_SHA256:
            violations.append(f"golden train.csv sha256 {digest} != {GOLDEN_SHA256}")
        return violations


@dataclass(frozen=True)
class SweepWorkload(Workload):
    etas: tuple = (0.25, 0.5, 0.75, 1.0)
    engine_span: str = "dynamics.relax_dyadic"
    bp_span: str = "reference.classical_backprop"

    @staticmethod
    def time_bp(engine_args) -> float:
        """Seconds of classical_backprop on an engine call's instance."""
        params, x0, loss = engine_args[:3]
        t0 = time.perf_counter()
        classical_backprop(params, x0, loss)
        return time.perf_counter() - t0

    def grads(self, config: ExperimentConfig) -> int:
        return self.per_call * len(self.etas)

    def call(self, config: ExperimentConfig, out_dir: Path):
        return dyadicbp.sweep_eta(config, self.etas, trials=self.per_call)

    def warm_up(self, out_dir: Path) -> None:
        dyadicbp.sweep_eta(self.config(0), self.etas, trials=1)

    @staticmethod
    def outcome(result) -> tuple[np.ndarray, np.ndarray]:
        trace = result[3]
        return np.array([trace.iterations_used]), np.array([trace.converged])

    def check(self, config: ExperimentConfig, result, capture: Capture) -> CallCheck:
        trials = self.per_call
        attempted = self.grads(config)
        violations = []
        if (
            len(result) != len(self.etas)
            or len(capture.engine) != attempted
            or len(capture.bp) != trials
        ):
            violations.append(
                f"{len(result)} rows, {len(capture.engine)} engine and "
                f"{len(capture.bp)} BP calls for {trials} trials"
            )
            return CallCheck(attempted, attempted, violations)
        floor = cosine_floor(config.dtype)
        failed = nonconverged = 0
        for i, (eta, row) in enumerate(zip(self.etas, result)):
            if row["eta"] != eta or not row["min_cos"] >= floor:
                violations.append(
                    f"seed {config.seed} eta {eta}: reported min_cos {row['min_cos']!r} < {floor!r}"
                )
            for t in range(trials):
                res = capture.engine[i * trials + t]
                cos = _cosine(res[2].flat(), capture.bp[t][0].flat())
                if not cos >= floor:
                    violations.append(f"seed {config.seed} eta {eta} trial {t}: cos {cos!r}")
                    failed += 1
                elif not res[3].converged:
                    nonconverged += 1
        return CallCheck(attempted, failed, violations, nonconverged)

    def verify(self, runs: list, out_dir: Path) -> list:
        return []


def _n_train(config: ExperimentConfig) -> int:
    n = config.dataset.n_samples
    return n - int(round(config.test_fraction * n))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-twoL-L17",
            method=GradientMethod.TWO_L,
            precision=64,
            eta=1.0,
            widths=DEEP_L17,
            per_call=5,
            tail_pct=90.0,
            call_s=2.3,
        ),
        Workload(
            name="train-dyadic-eta0.5-L9",
            method=GradientMethod.DYADIC,
            precision=64,
            eta=0.5,
            widths=REFERENCE_L9,
            per_call=3,
            tail_pct=90.0,
            call_s=2.8,
        ),
        SweepWorkload(
            name="sweep-dyadic-f32-L9",
            method=GradientMethod.DYADIC,
            precision=32,
            eta=1.0,
            widths=REFERENCE_L9,
            per_call=4,
            tail_pct=95.0,
            call_s=2.0,
        ),
    )
}
