"""Seeded toy-data generation, CSV ingestion, standardization and stratified folds.

The CSV format, shared by the loader and writer: UTF-8 with an optional
leading BOM (the writer writes none), comma-separated, LF newlines (the
loader also reads CRLF and CR), blank lines and lines starting with '#'
ignored, optional single header row; the first data column is the
label (+1/-1, a bare 1 also accepted), remaining columns are finite floats
in Python `float` syntax, with whitespace around any field allowed.  The
loader reads a file once, in order, a block of lines at a time, checks
every line (valid UTF-8, label, column count, well-formed and finite
values), and stops at the first bad line: numpy's C reader takes a block of
clean data rows, and a plain per-line loop reads every block numpy does
not take and words every error.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, nonnegative, number

__all__ = [
    "ToySpec",
    "gen_toy",
    "load_csv",
    "save_csv",
    "kfold",
    "standardize",
]

_LABELS = {"+1": 1.0, "1": 1.0, "-1": -1.0, "−1": -1.0}

# Text read per block, in bytes: a hint to `readlines`, which ends a block
# at the first line end past it.
_BLOCK = 1 << 20


@dataclass(frozen=True)
class ToySpec:
    """Two overlapping Gaussian blobs in the plane.

    Defaults give non-separable classes: means two standard deviations
    apart with unit isotropic spread, 50 points per class.
    """

    seed: int = 0
    n_per_class: int = 50
    mean_pos: tuple[float, float] = (2.0, 2.0)
    mean_neg: tuple[float, float] = (0.0, 0.0)
    cov_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "seed", nonnegative("seed", self.seed, int))
        object.__setattr__(self, "n_per_class",
                           number("n_per_class", self.n_per_class, int, positive=True))
        object.__setattr__(self, "cov_scale", number("cov_scale", self.cov_scale, positive=True))
        for name in ("mean_pos", "mean_neg"):
            object.__setattr__(self, name, _point(name, getattr(self, name)))


def _point(name: str, value) -> tuple[float, float]:
    """A class mean from outside: a pair of finite floats, each checked by `number`."""
    try:
        x, y = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}") from None
    return number(name, x), number(name, y)


def gen_toy(spec: ToySpec) -> LabeledDataset:
    """Deterministic toy dataset for the given spec.

    Uses PCG64 with numpy's ziggurat Gaussian transform, so a fixed seed
    reproduces the same bytes on every platform.  The positive class is
    drawn first.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    pos = rng.normal(loc=spec.mean_pos, scale=spec.cov_scale, size=(spec.n_per_class, 2))
    neg = rng.normal(loc=spec.mean_neg, scale=spec.cov_scale, size=(spec.n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(spec.n_per_class), -np.ones(spec.n_per_class)])
    for arr in (X, y):
        arr.setflags(write=False)  # fresh: the dataset keeps them without a copy
    return LabeledDataset(X, y)


def _label(field: str) -> float:
    return _LABELS[field.strip()]


def _read_block(lines: list[str], width: int | None) -> np.ndarray | None:
    """The block's rows, label first, parsed by numpy's C reader; None when
    the per-line loop must read the block instead.

    numpy strips a field's whitespace and hands the ASCII rest to
    `PyOS_string_to_double`, as `float` does, so every value it accepts has
    `float`'s bits; what only `float` takes (`1_0`, non-ASCII digits) it
    rejects.  The label converter rejects comment, header, whitespace-only
    and undecodable lines.  The rows are taken only with a feature column,
    the width set so far and finite values.
    """
    if not any(map(str.strip, lines)):
        return None  # only blank lines: the reader would warn of no data
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, encoding=None,
                           converters={0: _label})
    except ValueError:
        return None
    if block.shape[1] >= 2 and width in (None, block.shape[1]) and np.isfinite(block).all():
        return block
    return None


def _append(X, y, n: int, block: np.ndarray,
            scale: float) -> tuple[np.ndarray, np.ndarray, int]:
    """X and y with `block`'s rows, label first, written after their first n
    rows, and their new row count.

    They are made at the first block and grown in place.  A growth doubles
    the rows, but reserves no more than `scale` times the rows read so far,
    with `scale` the file's size over the part read: about the rows the file
    holds, so the reserved and zero-filled tail stays small.
    """
    end = n + len(block)
    if X is None:
        X, y = np.empty((end, block.shape[1] - 1)), np.empty(end)
    elif end > len(y):
        capacity = max(end, int(min(2 * len(y), end * scale)))
        X.resize((capacity, X.shape[1]), refcheck=False)
        y.resize(capacity, refcheck=False)
    X[n:end] = block[:, 1:]
    y[n:end] = block[:, 0]
    return X, y, end


def load_csv(path, has_header: bool = False) -> LabeledDataset:
    """Parse a labeled dataset from `path`; errors name the offending line.

    Feature fields take Python `float` syntax, with whitespace around them
    allowed; a non-finite value is an error, and so is a line that is not
    valid UTF-8.  The file is opened and read once, in blocks of lines; an
    optional leading BOM is dropped (`utf-8-sig`), so a BOM anywhere else is
    an error of its line, and undecodable bytes arrive as lone surrogates
    (`surrogateescape`) for the parse to reject.  numpy's C reader parses a
    block of clean data rows in one call (`_read_block`).  Every block numpy
    does not take, and one read while the header is pending, goes through the
    plain per-line loop below, which checks each line in full as soon as it
    is read: it alone words an error and names the first bad line, counted
    across blocks.
    Each block's rows go straight into the dataset's own X and y, which grow
    in place (`_append`) and are trimmed to the rows read at the end, and
    the dataset keeps them without a copy: the data is held once.
    """
    X = y = None
    n = 0
    width: int | None = None
    header_pending = has_header
    lineno = 0
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        size = os.fstat(fh.fileno()).st_size  # bytes; 0 for a pipe
        read = 0  # characters
        while lines := fh.readlines(_BLOCK):
            read += sum(map(len, lines))
            scale = size / read if size else math.inf
            block = None if header_pending else _read_block(lines, width)
            if block is not None:
                width = block.shape[1]
                X, y, n = _append(X, y, n, block, scale)
                lineno += len(lines)
                continue
            rows = array("d")  # the block's clean rows, label first
            for lineno, line in enumerate(lines, start=lineno + 1):
                try:
                    line.encode("utf-8")  # fails on an escaped undecodable byte
                except UnicodeEncodeError:
                    raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None
                line = line.strip()
                if not line or line[0] == "#":
                    continue
                if header_pending:
                    header_pending = False
                    continue
                fields = line.split(",")
                head = fields[0].strip()
                label = _LABELS.get(head)
                if label is None:
                    raise ValueError(f"{path}: line {lineno}: label must be +1 or -1, got {head!r}")
                if width is None:
                    width = len(fields)
                    if width < 2:
                        raise ValueError(
                            f"{path}: line {lineno}: expected at least one feature column")
                elif len(fields) != width:
                    raise ValueError(
                        f"{path}: line {lineno}: expected {width} columns, got {len(fields)}")
                try:
                    row = list(map(float, fields[1:]))  # float strips whitespace
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: malformed feature value") from None
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"{path}: line {lineno}: non-finite feature value")
                rows.append(label)
                rows.extend(row)
            if rows:
                X, y, n = _append(X, y, n, np.frombuffer(rows).reshape(-1, width), scale)
    if not n:
        raise ValueError(f"{path}: no data rows")
    X.resize((n, X.shape[1]), refcheck=False)
    y.resize(n, refcheck=False)
    for arr in (X, y):
        arr.setflags(write=False)  # owned and frozen: the dataset keeps them without a copy
    return LabeledDataset(X, y)


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset in the loader's format; floats use shortest round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # Row by row: a whole-matrix tolist() would hold every value as a
        # Python float at once, several times the matrix's own size.
        for label, row in zip(dataset.y.tolist(), dataset.X):
            fh.write(f"{'+1' if label > 0 else '-1'},{','.join(map(repr, row.tolist()))}\n")


def kfold(dataset: LabeledDataset, k: int, seed: int = 0) -> np.ndarray:
    """Stratified k-fold assignment, deterministic per seed: a read-only intp
    array whose entry i is sample i's fold index.

    Within each class the samples are shuffled (PCG64) and dealt round-robin
    onto folds, so per-class fold sizes differ by at most one.
    """
    if (k := number("k", k, int)) < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    seed = nonnegative("seed", seed, int)
    rng = np.random.Generator(np.random.PCG64(seed))
    folds = np.full(dataset.n, -1, dtype=np.intp)
    for label in (-1.0, 1.0):
        idx = np.flatnonzero(dataset.y == label)
        if idx.size < k:
            raise ValueError(
                f"class {int(label):+d} has {idx.size} samples, fewer than k={k} folds")
        shuffled = idx[rng.permutation(idx.size)]
        folds[shuffled] = np.arange(shuffled.size) % k
    folds.setflags(write=False)
    return folds


def standardize(fit: LabeledDataset, *apply: LabeledDataset) -> tuple[LabeledDataset, ...]:
    """Zero-mean unit-variance transform fitted on `fit`, applied to all inputs.

    A constant feature (max = min on `fit`) is centered on its value, so it
    is exactly 0 on `fit`, and left unscaled.  Every other feature is first
    scaled by 2^-e, with e the binary exponent of its largest |x| on `fit`,
    which brings it into (-1, 1), so no square in its std overflows.  The
    scaling is exact, so wherever numpy's unscaled `mean` and `std` neither
    overflow nor underflow, the result has the bits of (x - mean) / std.
    Returns the transformed `fit` followed by the transformed `apply`
    datasets.  Each matrix is built in place and frozen, so its dataset keeps
    it without a copy (a dataset keeps a read-only array that owns its data,
    and copies anything else), and shares its input's frozen `y`.  A
    standardized value beyond double range, which only an `apply` set can
    reach, is a ValueError naming its feature.
    """
    hi, lo = fit.X.max(axis=0), fit.X.min(axis=0)
    constant = hi == lo
    e = np.where(constant, 0, np.frexp(np.maximum(hi, -lo))[1])
    dev = np.ldexp(fit.X, -e)  # the one full-size temporary, squared in place
    mean = dev.mean(axis=0)
    dev -= mean
    dev *= dev
    std = np.sqrt(dev.mean(axis=0))
    del dev
    mean[constant], std[constant] = lo[constant], 1.0
    out = []
    for ds in (fit, *apply):
        if ds.k != fit.k:
            raise ValueError(f"dimension mismatch: expected k={fit.k}, got k={ds.k}")
        with np.errstate(over="ignore"):  # reported below, by feature
            Z = np.ldexp(ds.X, -e)
            Z -= mean
            Z /= std
        finite = np.isfinite(Z).all(axis=0)
        if not finite.all():
            raise ValueError(f"standardized value of feature {int(finite.argmin())} "
                             "leaves double range")
        Z.setflags(write=False)
        out.append(LabeledDataset(Z, ds.y))
    return tuple(out)
