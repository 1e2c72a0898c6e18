"""Evaluation metrics, stratified k-fold cross-validation and the two-solver
comparison built on it."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import DEFAULT_SV_THRESHOLD, LabeledDataset, SvmModel, norm, predict, slack
from .data import kfold
from .data import standardize as standardize_features
from .solver import TrainConfig, TrainTrace, train

__all__ = [
    "REPORT_FIELDS",
    "FoldComparison",
    "ComparisonReport",
    "accuracy",
    "fold_scores",
    "fold_means",
    "angle_theta",
    "dist_d",
    "cross_validate",
    "run_comparison",
]

@dataclass(frozen=True)
class FoldComparison:
    test_acc_std: float
    train_acc_std: float
    n_sv_std: int
    test_acc_min: float
    train_acc_min: float
    n_sv_min: int
    angle_theta_degrees: float
    dist_d: float


# Column order of the comparison table after its fold column, FoldComparison's
# fields: the standard (p = 1) solver first, then the sparse-slack solver, then
# the geometry between their weights.
REPORT_FIELDS = tuple(f.name for f in fields(FoldComparison))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Fold-level comparison records, in fold order, and their means.

    `traces` holds each fold's (p = 1, p < 1) training traces, in fold order.
    """

    folds: tuple[FoldComparison, ...]
    traces: tuple[tuple[TrainTrace, TrainTrace], ...]

    @property
    def means(self) -> dict[str, float]:
        """The `fold_means` of the folds: one entry per name in `REPORT_FIELDS`."""
        return fold_means([asdict(f) for f in self.folds])


def fold_means(rows: list[dict]) -> dict[str, float]:
    """The arithmetic mean over the folds of each score, from one row of
    scores per fold, in the first row's key order."""
    return {key: float(np.mean([row[key] for row in rows])) for key in rows[0]}


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


def _weight_pair(w1, w2) -> tuple[np.ndarray, np.ndarray]:
    """Two weight vectors as float arrays; ValueError unless they are 1-d, of
    one shape and finite."""
    w1, w2 = np.asarray(w1, dtype=np.float64), np.asarray(w2, dtype=np.float64)
    if w1.ndim != 1 or w1.shape != w2.shape:
        raise ValueError(f"weight vectors must be 1-d of one shape, got {w1.shape} and {w2.shape}")
    if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
        raise ValueError("weight vectors must be finite (found NaN or Inf)")
    return w1, w2


def angle_theta(w1: np.ndarray, w2: np.ndarray) -> float:
    """Angle in degrees between two weight vectors (bias excluded by the caller).

    Mathematically arccos of the normalized dot product (cosine clamped to
    [-1, 1]), evaluated as 2*atan2(||u - v||, ||u + v||) on unit vectors: the
    two agree everywhere, but the atan2 form cannot produce NaN and returns
    exactly 0 for identical inputs and exactly 180 for exact negations.
    """
    w1, w2 = _weight_pair(w1, w2)
    if not (w1.any() and w2.any()):
        raise ValueError("angle is undefined for a zero weight vector")
    # Scaled to a largest |entry| of 1, a finite nonzero vector has a finite nonzero norm.
    u, v = w1 / np.abs(w1).max(), w2 / np.abs(w2).max()
    u, v = u / norm(u), v / norm(v)
    return math.degrees(2.0 * math.atan2(norm(u - v), norm(u + v)))


def dist_d(w1: np.ndarray, w2: np.ndarray) -> float:
    """Euclidean distance between weight vectors, normalized by ||w1||; inf
    where ||w1|| is too small beside w2 for the ratio to be a double."""
    w1, w2 = _weight_pair(w1, w2)
    if not w1.any():
        raise ValueError("distance is undefined for a zero reference vector")
    # One common scale leaves the ratio as it is, and w1 - w2 cannot overflow.
    scale = max(np.abs(w1).max(), np.abs(w2).max())
    w1, w2 = w1 / scale, w2 / scale
    n1 = norm(w1)
    return norm(w1 - w2) / n1 if n1 else math.inf


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
    folds = kfold(dataset, k, seed)
    results = []
    for fold in range(k):
        train_ds = dataset.subset(np.flatnonzero(folds != fold))
        test_ds = dataset.subset(np.flatnonzero(folds == fold))
        if standardize:
            train_ds, test_ds = standardize_features(train_ds, test_ds)
        results.append((train_ds, test_ds, [train(train_ds, cfg) for cfg in configs]))
    return results


def run_comparison(dataset: LabeledDataset, cfg_std: TrainConfig, cfg_min: TrainConfig,
                   k: int, seed: int = 0,
                   sv_threshold: float = DEFAULT_SV_THRESHOLD,
                   standardize: bool = False) -> ComparisonReport:
    """Stratified k-fold comparison of the two solver configurations.

    Per fold (from `cross_validate`), support vectors are counted on the
    training split, and the angle/distance are computed between the two
    weight vectors (bias excluded).  Where a fit has w = 0 they are
    undefined and read NaN: the angle when either fit has it, the distance
    when the p = 1 fit does.  Each fold's two traces are kept in the report.
    """
    folds = []
    traces = []
    for train_ds, test_ds, fits in cross_validate(dataset, [cfg_std, cfg_min], k, seed,
                                                  standardize):
        (model_std, trace_std), (model_min, trace_min) = fits
        traces.append((trace_std, trace_min))
        scores = {f"{key}_{tag}": value
                  for tag, model in (("std", model_std), ("min", model_min))
                  for key, value in fold_scores(model, train_ds, test_ds, sv_threshold).items()}
        w_std, w_min = model_std.w, model_min.w
        folds.append(FoldComparison(
            **scores,
            angle_theta_degrees=(angle_theta(w_std, w_min) if w_std.any() and w_min.any()
                                 else math.nan),
            dist_d=dist_d(w_std, w_min) if w_std.any() else math.nan,
        ))
    return ComparisonReport(folds=tuple(folds), traces=tuple(traces))

