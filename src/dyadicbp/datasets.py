"""Synthetic desk-scale classification datasets and CSV round-tripping.

All synthetic kinds are deterministic for a fixed (spec, seed) pair and
are standardized to zero mean and unit variance per feature column at
generation time. CSV files are loaded verbatim (no re-standardization),
so writing a generated dataset and reloading it reproduces the matrices
bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    INTEGER, NUMBER, STRING, ConfigError, check_fields, checked, enum_from_name, member, optional
)

__all__ = [
    "DatasetKind",
    "DatasetSpec",
    "generate_dataset",
    "one_hot",
    "write_dataset_csv",
]


class DatasetKind(enum.Enum):
    TWO_MOONS = "TwoMoons"
    SPIRALS = "Spirals"
    GAUSSIAN_BLOBS = "GaussianBlobs"
    CSV_FILE = "CsvFile"

    @classmethod
    def from_name(cls, name: str) -> "DatasetKind":
        return enum_from_name(cls, name, "dataset kind")


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate (or load): kind, size, noise, classes, file path."""

    kind: DatasetKind = checked(DatasetKind.TWO_MOONS, member(DatasetKind))
    n_samples: int = checked(1000, INTEGER)
    noise: float = checked(0.1, NUMBER)
    classes: int = checked(2, INTEGER)
    path: Optional[str] = checked(None, optional(STRING))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind is not DatasetKind.CSV_FILE:
            if self.n_samples < 1:
                raise ConfigError("n_samples must be positive")
            if self.noise < 0:
                raise ConfigError("noise must be nonnegative")
            if self.classes < 2:
                raise ConfigError("need at least two classes")
            if self.kind is DatasetKind.TWO_MOONS and self.classes != 2:
                raise ConfigError("TwoMoons is a two-class dataset")
        elif not self.path:
            raise ConfigError("CsvFile dataset needs a path")


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 0 or labels.max() >= classes:
        raise ConfigError(f"labels must lie in 0..{classes - 1}")
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _standardize(features: np.ndarray) -> np.ndarray:
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0] = 1.0  # constant columns pass through centered
    return (features - mean) / std


def _two_moons(n: int, noise: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = np.linspace(0.0, np.pi, n_outer)
    t_inner = np.linspace(0.0, np.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 1.0 - np.sin(t_inner) - 0.5])
    features = np.vstack([outer, inner])
    if noise > 0:
        features = features + rng.normal(0.0, noise, size=features.shape)
    labels = np.concatenate([np.zeros(n_outer, dtype=int), np.ones(n_inner, dtype=int)])
    return features, labels


def _spirals(
    n: int, noise: float, classes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    features = []
    labels = []
    counts = [n // classes + (1 if i < n % classes else 0) for i in range(classes)]
    for k, count in enumerate(counts):
        t = np.linspace(0.05, 1.0, count)
        phi = 2.0 * np.pi * (1.5 * t + k / classes)
        pts = np.column_stack([t * np.cos(phi), t * np.sin(phi)])
        if noise > 0:
            pts = pts + rng.normal(0.0, noise, size=pts.shape)
        features.append(pts)
        labels.append(np.full(count, k, dtype=int))
    return np.vstack(features), np.concatenate(labels)


def _gaussian_blobs(
    n: int, noise: float, classes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    features = []
    labels = []
    counts = [n // classes + (1 if i < n % classes else 0) for i in range(classes)]
    for k, count in enumerate(counts):
        angle = 2.0 * np.pi * k / classes
        center = 3.0 * np.array([np.cos(angle), np.sin(angle)])
        pts = center + noise * rng.normal(size=(count, 2))
        features.append(pts)
        labels.append(np.full(count, k, dtype=int))
    return np.vstack(features), np.concatenate(labels)


def _load_csv(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    path = Path(spec.path)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"dataset file {path} is not UTF-8: {exc}") from exc
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    if rows:
        try:
            float(rows[0][0])
        except ValueError:  # leading header row
            rows = rows[1:]
    if not rows:
        raise ConfigError(f"dataset file {path} holds no data rows")
    width = len(rows[0])
    if width < 2 or any(len(r) != width for r in rows):
        raise ConfigError("dataset CSV must be rectangular: features plus a label column")
    try:
        table = np.array([[float(c) for c in r] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"dataset CSV has a non-numeric cell: {exc}") from exc
    if not np.isfinite(table).all():
        raise ConfigError("dataset CSV contains non-finite entries")
    raw_labels = table[:, -1]
    if not np.all(raw_labels == np.round(raw_labels)):
        raise ConfigError("last CSV column must hold integer class labels")
    labels = raw_labels.astype(int)
    return table[:, :-1], labels


def generate_dataset(spec: DatasetSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Build (features, one-hot labels) for a dataset spec.

    Synthetic kinds are standardized per feature column; CSV files are
    returned exactly as stored. Output shapes are (n, d) and (n, K) with
    samples as rows.
    """
    rng = np.random.default_rng(seed)
    if spec.kind is DatasetKind.TWO_MOONS:
        features, labels = _two_moons(spec.n_samples, spec.noise, rng)
    elif spec.kind is DatasetKind.SPIRALS:
        features, labels = _spirals(spec.n_samples, spec.noise, spec.classes, rng)
    elif spec.kind is DatasetKind.GAUSSIAN_BLOBS:
        features, labels = _gaussian_blobs(spec.n_samples, spec.noise, spec.classes, rng)
    else:
        features, labels = _load_csv(spec)
        classes = max(spec.classes, int(labels.max()) + 1)
        return features, one_hot(labels, classes)
    return _standardize(features), one_hot(labels, spec.classes)


def write_dataset_csv(
    path,
    features: np.ndarray,
    labels: np.ndarray,
    seed: int,
    config_hash: str = "",
) -> None:
    """Write features plus an integer label column, with provenance comments.

    Floats are written with 17 significant digits so a reload reproduces
    the exact float64 values.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=int)
    if labels.ndim == 2:  # one-hot in, label column out
        labels = labels.argmax(axis=1)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# seed: {seed}\n")
        if config_hash:
            fh.write(f"# config: {config_hash}\n")
        header = ",".join(f"x{i}" for i in range(features.shape[1])) + ",label"
        fh.write(header + "\n")
        for row, label in zip(features, labels):
            cells = ",".join(f"{v:.17g}" for v in row)
            fh.write(f"{cells},{label}\n")
