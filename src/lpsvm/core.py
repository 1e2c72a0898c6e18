"""Domain types and model-level operations for linear two-class classifiers.

Everything here is a pure function over immutable inputs: datasets and models
freeze their arrays on construction, so they can be shared across threads and
reused between runs without defensive copies.  A dataset keeps an array that
is already read-only and owns its data as it is, and copies anything else.
Freezing guards against accidental writes only: numpy lets the owner of an
array turn writing back on, so whoever holds a kept array, or a dataset's
own, can still change the dataset.
`predict` is the one place the decision rule sign(w.x + b), ties to +1, is
applied, and `number` the one place a scalar from outside the package is
checked (`nonnegative` adds >= 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import TrainConfig

__all__ = [
    "LabeledDataset",
    "AugmentedView",
    "SvmModel",
    "SlackReport",
    "augment",
    "signed_design",
    "reg_diag",
    "decision_values",
    "predict",
    "slack",
    "margin_width",
    "norm",
    "number",
    "nonnegative",
    "DEFAULT_SV_THRESHOLD",
]

# Absolute slack threshold above which a sample counts as a support vector.
DEFAULT_SV_THRESHOLD = 1e-6

# The runtime types each builtin kind accepts.  numpy scalars pass; a bool,
# which isinstance counts as an int, passes only where a bool is declared.
_ACCEPTS = {float: (float, int, np.floating, np.integer), int: (int, np.integer),
            bool: (bool, np.bool_)}


def number(name: str, value, kind: type = float, positive: bool = False):
    """`value`, of a type in `_ACCEPTS[kind]`, as the builtin `kind`: finite
    if a float, and > 0 with `positive`.  Raises ValueError naming `name`
    for anything else, an int beyond the range of a double included."""
    if not isinstance(value, _ACCEPTS[kind]) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError as exc:  # an int beyond the range of a double
        raise ValueError(f"{name}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def nonnegative(name: str, value, kind: type = float):
    """`number(name, value, kind)` that must also be >= 0."""
    if (value := number(name, value, kind)) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """`values` as a read-only array of `dtype`: `values` itself if it is
    already one that owns its memory (an exact ndarray with no base), else a
    frozen copy, which no later write to `values` reaches."""
    if (type(values) is np.ndarray and values.dtype == dtype and values.base is None
            and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """n samples in R^k with labels in {-1, +1}.

    Arrays are validated and made read-only on construction; `X` has shape
    (n, k) and `y` has shape (n,) with entries exactly -1.0 or +1.0.  Both
    hold ints or floats: numpy would convert strings and bools, but not here.
    A read-only float64 ndarray that owns its data is kept as it is, so its
    owner can turn writing back on and change the dataset; any other input
    (writeable, a view, another dtype or an ndarray subclass) is copied.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X, y = np.asarray(self.X), np.asarray(self.y)
        for name, arr in (("X", X), ("y", y)):
            if not issubclass(arr.dtype.type, _ACCEPTS[float]):
                raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
        if X.ndim != 2:
            raise ValueError(f"samples must form a 2-d array, got shape {X.shape}")
        n, k = X.shape
        if n < 1 or k < 1:
            raise ValueError(f"need at least one sample and one feature, got shape {X.shape}")
        if y.shape != (n,):
            raise ValueError(f"labels have shape {y.shape}, expected ({n},)")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature values must be finite (found NaN or Inf)")
        if not np.all((y == 1.0) | (y == -1.0)):
            bad = y[(y != 1.0) & (y != -1.0)][0]
            raise ValueError(f"labels must be -1 or +1, found {float(bad)}")
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "y", _frozen_array(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def has_both_classes(self) -> bool:
        return bool(np.any(self.y == 1.0) and np.any(self.y == -1.0))

    def subset(self, indices) -> "LabeledDataset":
        """Dataset restricted to the given sample indices (in the given order)."""
        idx = np.asarray(indices)
        X, y = self.X[idx], self.y[idx]
        for arr in (X, y):
            arr.setflags(write=False)  # fresh from fancy indexing: kept without a copy
        return LabeledDataset(X, y)


@dataclass(frozen=True, eq=False)
class AugmentedView:
    """Samples with a trailing constant-1 column, so the bias rides inside the weights."""

    matrix: np.ndarray  # (n, k+1); last column identically 1


def augment(dataset: LabeledDataset) -> AugmentedView:
    """Append the constant-1 coordinate to every sample: x -> [x, 1].

    The matrix is one (n, k+1) allocation, filled and frozen in place, so
    the peak memory holds one copy of it, not two.
    """
    aug = np.empty((dataset.n, dataset.k + 1))
    aug[:, :-1] = dataset.X
    aug[:, -1] = 1.0
    aug.setflags(write=False)
    return AugmentedView(matrix=aug)


def signed_design(dataset: LabeledDataset) -> np.ndarray:
    """The (n, k+1) training rows y_i [x_i, 1], exact since y = +-1; a
    ValueError unless the dataset has samples from both classes."""
    if not dataset.has_both_classes:
        raise ValueError("training requires samples from both classes")
    yX = np.empty((dataset.n, dataset.k + 1))
    np.multiply(dataset.X, dataset.y[:, None], out=yX[:, :-1])
    yX[:, -1] = dataset.y
    return yX


def reg_diag(dim: int, regularize_bias: bool) -> np.ndarray:
    """D in 1/2 w'^T D w' as a vector: ones, the bias entry 0 unless `regularize_bias`."""
    d = np.ones(dim)
    d[-1] = 1.0 if regularize_bias else 0.0
    return d


@dataclass(frozen=True, eq=False)
class SvmModel:
    """A linear decision rule x -> sign(w.x + b)."""

    w: np.ndarray
    b: float
    meta: "TrainConfig | None" = None

    def __post_init__(self):
        # An object array keeps each entry as given, for `number` to check.
        w = np.asarray(self.w, dtype=object)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"w must be 1-d and non-empty, got shape {w.shape}")
        object.__setattr__(self, "w", _frozen_array([number("w", v) for v in w]))
        object.__setattr__(self, "b", number("b", self.b))

    @property
    def k(self) -> int:
        return self.w.shape[0]

    @property
    def w_aug(self) -> np.ndarray:
        """The stacked [w, b] vector matching augmented samples."""
        return np.append(self.w, self.b)


@dataclass(frozen=True, eq=False)
class SlackReport:
    """Per-sample margin violations and the resulting support-vector set.

    `sv_indices` are exactly the indices whose `xi` exceeds the threshold
    given to `slack`.
    """

    xi: np.ndarray
    sv_indices: np.ndarray

    @property
    def n_sv(self) -> int:
        """The support-vector count, `sv_indices.size`."""
        return int(self.sv_indices.size)


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Raw scores for a matrix of samples, one per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d sample matrix, got shape {X.shape}")
    if model.k != X.shape[1]:
        raise ValueError(f"dimension mismatch: model has k={model.k}, input has k={X.shape[1]}")
    # A score beyond double range is +-inf, and NaN where such terms cancel.
    with np.errstate(over="ignore", invalid="ignore"):
        return X @ model.w + model.b


def predict(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Class labels in {-1, +1}, one per row; a score of exactly 0 breaks ties to +1."""
    return np.where(decision_values(model, X) >= 0.0, 1.0, -1.0)


def slack(model: SvmModel, dataset: LabeledDataset,
          threshold: float = DEFAULT_SV_THRESHOLD) -> SlackReport:
    """Hinge slacks xi_i = max(0, 1 - y_i (w.x_i + b)) and the support-vector
    set; `threshold` is a finite float >= 0."""
    threshold = nonnegative("threshold", threshold)
    scores = decision_values(model, dataset.X)
    xi = np.maximum(0.0, 1.0 - dataset.y * scores)
    xi.setflags(write=False)  # fresh and owning: `_frozen_array` keeps it
    return SlackReport(
        xi=_frozen_array(xi),
        sv_indices=_frozen_array(np.flatnonzero(xi > threshold), dtype=np.intp),
    )


def margin_width(model: SvmModel) -> float:
    """The gap 2/||w|| between the two unit-margin loci (bias excluded); inf
    where ||w|| is below 2/max-double, as for a subnormal or zero w."""
    norm_w = norm(model.w)
    return 2.0 / norm_w if norm_w else math.inf


def norm(v: np.ndarray) -> float:
    """||v|| of a 1-d array from `math.hypot`, which scales its arguments: finite
    for a finite v whose norm is within double range, else inf or NaN."""
    return math.hypot(*v.tolist())
