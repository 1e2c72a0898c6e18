"""Evaluation metrics, stratified k-fold cross-validation and the two-solver
comparison built on it."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import DEFAULT_SV_THRESHOLD, LabeledDataset, SvmModel, predict, slack
from .data import kfold
from .data import standardize as standardize_features
from .solver import TrainConfig, TrainTrace, train

__all__ = [
    "REPORT_FIELDS",
    "FoldComparison",
    "ComparisonReport",
    "accuracy",
    "fold_scores",
    "angle_theta",
    "dist_d",
    "cross_validate",
    "run_comparison",
    "comparison_to_dict",
]

@dataclass(frozen=True)
class FoldComparison:
    fold: int
    test_acc_std: float
    train_acc_std: float
    n_sv_std: int
    test_acc_min: float
    train_acc_min: float
    n_sv_min: int
    angle_theta_degrees: float
    dist_d: float


# Column order of the comparison table, FoldComparison's fields after `fold`:
# the standard (p = 1) solver first, then the sparse-slack solver, then the
# geometry between their weights.
REPORT_FIELDS = tuple(f.name for f in fields(FoldComparison) if f.name != "fold")


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Fold-level comparison records plus their arithmetic means.

    `traces` holds each fold's (p = 1, p < 1) training traces, in fold order.
    """

    folds: tuple[FoldComparison, ...]
    means: dict[str, float]
    k: int
    seed: int
    sv_threshold: float
    traces: tuple[tuple[TrainTrace, TrainTrace], ...]


def accuracy(model: SvmModel, dataset: LabeledDataset) -> float:
    """Fraction of samples whose `predict` label matches the dataset's."""
    return float(np.mean(predict(model, dataset.X) == dataset.y))


def fold_scores(model: SvmModel, train_ds: LabeledDataset, test_ds: LabeledDataset,
                sv_threshold: float = DEFAULT_SV_THRESHOLD) -> dict[str, float | int]:
    """A fold's `train_acc`, `test_acc` and `n_sv`, the support-vector count
    on the training split."""
    return {"train_acc": accuracy(model, train_ds),
            "test_acc": accuracy(model, test_ds),
            "n_sv": slack(model, train_ds, sv_threshold).n_sv}


def angle_theta(w1: np.ndarray, w2: np.ndarray) -> float:
    """Angle in degrees between two weight vectors (bias excluded by the caller).

    Mathematically arccos of the normalized dot product (cosine clamped to
    [-1, 1]), evaluated as 2*atan2(||u - v||, ||u + v||) on unit vectors: the
    two agree everywhere, but the atan2 form cannot produce NaN and returns
    exactly 0 for identical inputs and exactly 180 for exact negations.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.shape != w2.shape:
        raise ValueError(f"shape mismatch: {w1.shape} vs {w2.shape}")
    n1 = float(np.linalg.norm(w1))
    n2 = float(np.linalg.norm(w2))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angle is undefined for a zero weight vector")
    u = w1 / n1
    v = w2 / n2
    radians = 2.0 * math.atan2(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))
    return math.degrees(radians)


def dist_d(w1: np.ndarray, w2: np.ndarray) -> float:
    """Euclidean distance between weight vectors, normalized by ||w1||."""
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.shape != w2.shape:
        raise ValueError(f"shape mismatch: {w1.shape} vs {w2.shape}")
    n1 = float(np.linalg.norm(w1))
    if n1 == 0.0:
        raise ValueError("distance is undefined for a zero reference vector")
    return float(np.linalg.norm(w1 - w2)) / n1


def cross_validate(
        dataset: LabeledDataset, configs: list[TrainConfig], k: int, seed: int = 0,
        standardize: bool = False,
) -> list[tuple[LabeledDataset, LabeledDataset, list[tuple[SvmModel, TrainTrace]]]]:
    """Train every configuration on every fold of one stratified k-fold split.

    Returns one (train_ds, test_ds, fits) entry per fold, in index order,
    where `fits` holds `train(train_ds, cfg)` for each config in the given
    order.  With `standardize`, both splits are rescaled with training-split
    statistics.  Deterministic given (dataset, configs, k, seed).
    """
    split = kfold(dataset, k, seed)
    folds = []
    for fold in range(k):
        train_ds = dataset.subset(split.train_indices(fold))
        test_ds = dataset.subset(split.test_indices(fold))
        if standardize:
            train_ds, test_ds = standardize_features(train_ds, test_ds)
        folds.append((train_ds, test_ds, [train(train_ds, cfg) for cfg in configs]))
    return folds


def run_comparison(dataset: LabeledDataset, cfg_std: TrainConfig, cfg_min: TrainConfig,
                   k: int, seed: int = 0,
                   sv_threshold: float = DEFAULT_SV_THRESHOLD,
                   standardize: bool = False) -> ComparisonReport:
    """Stratified k-fold comparison of the two solver configurations.

    Per fold (from `cross_validate`), support vectors are counted on the
    training split, and the angle/distance are computed between the two
    weight vectors (bias excluded).  Each fold's two traces are kept in the
    report.
    """
    folds = []
    traces = []
    for fold, (train_ds, test_ds, fits) in enumerate(
            cross_validate(dataset, [cfg_std, cfg_min], k, seed, standardize)):
        (model_std, trace_std), (model_min, trace_min) = fits
        traces.append((trace_std, trace_min))
        scores = {f"{key}_{tag}": value
                  for tag, model in (("std", model_std), ("min", model_min))
                  for key, value in fold_scores(model, train_ds, test_ds, sv_threshold).items()}
        folds.append(FoldComparison(
            fold=fold,
            **scores,
            angle_theta_degrees=angle_theta(model_std.w, model_min.w),
            dist_d=dist_d(model_std.w, model_min.w),
        ))
    means = {
        field: float(np.mean([getattr(f, field) for f in folds]))
        for field in REPORT_FIELDS
    }
    return ComparisonReport(
        folds=tuple(folds),
        means=means,
        k=k,
        seed=seed,
        sv_threshold=float(sv_threshold),
        traces=tuple(traces),
    )


def comparison_to_dict(report: ComparisonReport) -> dict:
    """JSON-ready view of a comparison report; each fold's two traces appear
    as their `TrainTrace.summary`, under `traces`, in fold order."""
    return {
        "k": report.k,
        "seed": report.seed,
        "sv_threshold": report.sv_threshold,
        "folds": [asdict(f) for f in report.folds],
        "means": dict(report.means),
        "traces": [{"fold": f.fold, "std": trace_std.summary(), "min": trace_min.summary()}
                   for f, (trace_std, trace_min) in zip(report.folds, report.traces)],
    }
