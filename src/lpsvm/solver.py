"""Smoothed hinge objective with an Lp slack penalty and its solver: damped
Newton at p = 1, momentum descent at p < 1.

The trained objective, over the augmented weight vector w' = [w, b], is

    J(w') = 1/2 w'^T D w' + C * sum_i softplus_s(1 - y_i w'.x'_i)^p

where softplus_s(x) = (1/s) log(1 + exp(s x)) is a sharp differentiable upper
bound on max(0, x), p in (0, 1] is the slack exponent (p = 1 recovers the
standard hinge penalty), and D is the identity with the bias entry zeroed
unless `regularize_bias` is set.

All floating-point paths are overflow-free: the per-sample gradient
coefficient sigma(s z) * softplus_s(z)^(p-1) is assembled in the log domain,
so margins anywhere in double range produce finite objective and gradient
values, with exact zeros where the true coefficient underflows.  Every path
(`objective`, `gradient`, `smoothed_plus` and the solver's fused kernel)
takes softplus(t) and softplus(-t) = -log sigma(t) from one shared pair,
max(t, 0) + l and l - min(t, 0) with l = log1p(exp(-|t|)) (the split
Maechler 2012 recommends), so they all round alike; `objective` and
`gradient` are the reference the solver's iterates are tested against.

`train` never lets the objective rise.  At p = 1, where J is convex, every
point, w' = 0 included, takes damped Newton trials (Keerthi & DeCoste, JMLR
2005) along -(H + ||g|| I)^-1 g, with H from the point's margin state, and a
rejected trial's J places the next step by quadratic interpolation.  At
p < 1, and where no Newton direction is finite, it runs momentum descent: a
rejected trial restarts the momentum and halves the step, an accepted one
grows it by 5 %.  Each trial costs one margin pass over the signed design
matrix y_i x'_i built once per fit, and only an accepted trial's gradient
is finished from it; `objective` and `gradient` are the public single-point
forms of the same elementwise code and give bit-identical values.
"""

import math
import typing
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .core import LabeledDataset, SvmModel, norm, number

__all__ = [
    "TrainConfig",
    "TrainTrace",
    "field_kind",
    "DivergenceError",
    "smoothed_plus",
    "objective",
    "gradient",
    "train",
    "STOP_OBJECTIVE",
    "STOP_GRADIENT",
    "STOP_ITERATION_CAP",
]

STOP_OBJECTIVE = "objective-tolerance"
STOP_GRADIENT = "gradient-tolerance"
STOP_ITERATION_CAP = "iteration-cap"

# Step factors of the safeguard: an accepted trial grows the step, a rejected
# one (the objective would rise) shrinks it and restarts the momentum.
_STEP_GROW = 1.05
_STEP_SHRINK = 0.5

# At p = 1 a Newton trial is accepted when J falls by at least _ARMIJO of
# the decrease the slope g.d predicts; otherwise its step a moves to the
# minimiser of the quadratic through J(0), J'(0) and J(a), kept within
# [_BACKTRACK_FLOOR a, _STEP_SHRINK a].
_ARMIJO = 1e-4
_BACKTRACK_FLOOR = 0.1
# H is summed over blocks of this many rows, so no n x (k+1) temporary is made.
_HESSIAN_ROWS = 1024

# Below this, log(softplus(t)) equals t to double precision.
_LOG_SOFTPLUS_CUT = -33.0

# Overflow/NaN in the objective or gradient is the divergence signal, which
# is reported rather than warned about; log(0) below the cut is discarded.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


class DivergenceError(RuntimeError):
    """An iterate produced a non-finite objective or gradient."""


def _knob(default, help: str, positive: bool = False):
    return field(default=default, metadata={"help": help, "positive": positive})


def field_kind(f: Field) -> type:
    """The builtin type a `TrainConfig` field stores: float for `float | None`."""
    return next(iter(typing.get_args(f.type)), f.type)


@dataclass(frozen=True)
class TrainConfig:
    """All solver knobs; each field's `metadata["help"]` describes it.

    The CLI derives one flag per field (`tol_obj` -> `--tol-obj`) with the
    field's default and help.  `__post_init__` passes each value through
    `core.number` with the field's declared type, and `metadata["positive"]`
    as its sign rule, and stores the builtin value it returns (so numpy
    scalars write out as JSON); then it checks the remaining ranges.
    """

    C: float = _knob(1.0, "slack penalty weight (> 0)", positive=True)
    p: float = _knob(0.5, "slack exponent in (0, 1]; 1 gives the standard hinge")
    s: float = _knob(100.0, "softplus sharpness (> 0); the smoothing gap is log(2)/s",
                     positive=True)
    # At p < 1 the initial step can decide which local minimum a fit reaches,
    # and a step that shrinks with C finds the lower one on the toy data at
    # C = 50 and 100.
    eta: float | None = _knob(None, "initial momentum step, used at p < 1 and where a p = 1 "
                                    "point has no Newton direction (> 0; default: "
                                    "1e-2 / max(1, C/2))", positive=True)
    eps: float = _knob(0.9, "momentum coefficient in [0, 1), used where eta is")
    tol_obj: float = _knob(1e-8, "stop when an accepted step lowers the objective J by "
                                 "less than this times max(1, |J|)", positive=True)
    tol_grad: float = _knob(1e-5, "stop, before the next step, at a point whose gradient norm "
                                  "is below this; that point is returned", positive=True)
    max_iter: int = _knob(5000, "iteration cap; rejected trial steps count too", positive=True)
    regularize_bias: bool = _knob(False, "include the bias in the quadratic term, as the "
                                         "dual oracle does")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or type(None) not in typing.get_args(f.type):
                object.__setattr__(self, f.name, number(f.name, value, field_kind(f),
                                                        f.metadata.get("positive", False)))
        if self.eta is None:
            object.__setattr__(self, "eta", 1e-2 / max(1.0, self.C / 2.0))
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not (0.0 <= self.eps < 1.0):
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """Per-iteration history of a training run.

    `objective_history` has iterations + 1 entries: the objective at the
    start point, then the objective at the current (accepted) point after
    each iteration.  It never increases, and its last entry is the returned
    model's objective.  `grad_norm_history` has one entry per iteration, the
    gradient norm (at least `tol_grad`) at the point the trial stepped from;
    momentum and Newton trials alike.  `initial_grad_norm` is ||grad J(0)||.
    `final_grad_norm` is the last norm the loop's stop test computed: at
    the returned model, below `tol_grad` after a gradient stop, and never of
    a non-finite gradient, which raises; `restarts` counts rejected trials.
    """

    objective_history: np.ndarray
    grad_norm_history: np.ndarray
    stop_reason: str
    final_grad_norm: float
    restarts: int

    @property
    def iterations(self) -> int:
        return len(self.grad_norm_history)

    @property
    def initial_grad_norm(self) -> float:
        return float(self.grad_norm_history[0]) if self.iterations else self.final_grad_norm

    @property
    def relative_grad_norm(self) -> float:
        """final_grad_norm / initial_grad_norm, free of the data's scale; 0
        for a fit that starts, and so ends, at a stationary point."""
        return self.final_grad_norm / self.initial_grad_norm if self.initial_grad_norm else 0.0

    @property
    def converged(self) -> bool:
        """True unless the fit stopped at the iteration cap."""
        return self.stop_reason != STOP_ITERATION_CAP

    def summary(self) -> dict:
        """How the fit ended, JSON-ready: the model file's `trace` block and
        each fit's entry in the compare JSON."""
        return {
            "iterations": self.iterations,
            "final_objective": float(self.objective_history[-1]),
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "final_grad_norm": self.final_grad_norm,
            "relative_grad_norm": self.relative_grad_norm,
            "restarts": self.restarts,
        }


def _softplus_pair(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(t) = log(1 + e^t) and softplus(-t), elementwise, for an array
    t of one or more dimensions.

    Both come from one l = log1p(exp(-|t|)), which never overflows:
    softplus(t) = max(t, 0) + l and softplus(-t) = l - min(t, 0).  Both are
    exact at t = +-inf, and NaN stays NaN.
    """
    sp_neg = np.copysign(t, -1.0)
    np.exp(sp_neg, out=sp_neg)
    np.log1p(sp_neg, out=sp_neg)  # l
    sp = np.maximum(t, 0.0)
    sp += sp_neg
    sp_neg -= np.minimum(t, 0.0)
    return sp, sp_neg


def smoothed_plus(x, s: float):
    """Sharp softplus (1/s) log(1 + exp(s x)), elementwise.

    Upper-bounds max(0, x) within log(2)/s and is computed overflow-free for
    any double-range input, as (1/s) (max(s x, 0) + log1p(exp(-|s x|))):
    the same rounding as the solver's objective.
    """
    s = number("s", s, positive=True)
    arr = np.asarray(x, dtype=np.float64)
    # s*x may overflow for x near the top of double range; there the result
    # is x itself to double precision.
    with np.errstate(over="ignore"):
        t = s * np.atleast_1d(arr)
        result = np.where(np.isposinf(t), arr, _softplus_pair(t)[0] / s)
    if arr.ndim == 0:
        return float(result[0])
    return result


def _reg_diag(dim: int, regularize_bias: bool) -> np.ndarray:
    d = np.ones(dim)
    if not regularize_bias:
        d[-1] = 0.0
    return d


def _signed_design(dataset: LabeledDataset) -> np.ndarray:
    """The (n, k+1) matrix y_i [x_i, 1]; with y = +-1 every entry is exact."""
    yX = np.empty((dataset.n, dataset.k + 1))
    np.multiply(dataset.X, dataset.y[:, None], out=yX[:, :-1])
    yX[:, -1] = dataset.y
    return yX


# The elementwise terms below take the scaled margins t = s (1 - y w'.x') and
# the pair sp = softplus(t), sp_neg = softplus(-t), so one margin pass and one
# exp/log1p pass serve both the value and the gradient.

def _value(w_aug: np.ndarray, dw: np.ndarray, sp: np.ndarray, cfg: TrainConfig) -> float:
    # dw = D w'; softplus_s(z) = n = sp / s, and p = 1 skips n ** 1.0, which is n
    n = sp / cfg.s
    return 0.5 * float(w_aug.dot(dw)) + cfg.C * float((n if cfg.p == 1.0 else n ** cfg.p).sum())


def _coeff(t: np.ndarray, sp: np.ndarray, sp_neg: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    # sigma(t) * n^(p-1) with n = sp / s, as exp(log sigma(t) + (p-1) log n),
    # where log sigma(t) = -sp_neg.  Below the cut sp underflows but equals
    # e^t to double precision, so log(sp) is just t there.
    log_n = np.log(sp)
    np.putmask(log_n, t < _LOG_SOFTPLUS_CUT, t)
    log_n -= math.log(cfg.s)
    return np.exp((cfg.p - 1.0) * log_n - sp_neg)


def _value_pass(w_aug: np.ndarray, yX: np.ndarray, d: np.ndarray,
                cfg: TrainConfig) -> tuple[float, tuple]:
    """J(w') over the signed design matrix yX = y [X, 1], and the margin state
    (t, sp, sp_neg, D w') from which `_grad_pass` finishes grad J(w').

    Bit-identical to `objective` and `gradient`: y = +-1 makes every product
    with y exact.  Non-finite results are returned as they are, for `train`
    to report.
    """
    t = yX.dot(w_aug)
    np.subtract(1.0, t, out=t)
    t *= cfg.s
    sp, sp_neg = _softplus_pair(t)
    dw = d * w_aug
    return _value(w_aug, dw, sp, cfg), (t, sp, sp_neg, dw)


def _grad_pass(state: tuple, yX: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """grad J(w') from `_value_pass`'s margin state, which it overwrites."""
    t, sp, sp_neg, dw = state
    if cfg.p == 1.0:  # 0 t has the bits of _coeff's (p - 1) log n: +-0, or NaN at t = +-inf
        coeff = np.exp(np.subtract(np.multiply(t, 0.0, out=t), sp_neg, out=t), out=t)
    else:
        coeff = _coeff(t, sp, sp_neg, cfg)
    return dw - cfg.p * cfg.C * yX.T.dot(coeff)


def _hessian(state: tuple, yX: np.ndarray, d: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """The p = 1 Hessian D + C s yX^T diag(sigma(t) sigma(-t)) yX, from
    `_value_pass`'s margin state; it reads only sp and sp_neg, so it may run
    after `_grad_pass`, which at p = 1 overwrites only t.

    sigma(t) sigma(-t) = exp(-softplus(t) - softplus(-t)) takes one exp
    and no log, and is made one block of rows at a time.
    """
    _, sp, sp_neg, _ = state
    gram = 0.0
    for lo in range(0, len(sp), _HESSIAN_ROWS):
        rows = slice(lo, lo + _HESSIAN_ROWS)
        gram = gram + (yX[rows].T * np.exp(-(sp[rows] + sp_neg[rows]))) @ yX[rows]
    return (cfg.C * cfg.s) * gram + np.diag(d)


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """The damped Newton direction d = -(H + ||g|| I)^-1 g (Li, Fukushima, Qi &
    Yamashita, Comput. Optim. Appl. 2004), or None unless H + ||g|| I and d
    are finite and -inf < g.d < 0, as wherever H is PSD, g != 0 and g.d is finite."""
    H = H + norm(g) * np.eye(len(g))
    if not np.isfinite(H).all():
        return None
    try:
        direction = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:  # H is singular
        return None
    return direction if np.isfinite(direction).all() and -math.inf < g @ direction < 0.0 else None


def _backtrack(a: float, slope: float, value: float, value_trial: float) -> float:
    """The next Newton step after a trial at step a is rejected: the
    minimiser -slope a^2 / (2 (J(a) - J(0) - a slope)) of the quadratic
    through J(0) = value, J'(0) = slope and J(a) = value_trial, clipped to
    [_BACKTRACK_FLOOR a, _STEP_SHRINK a] (Nocedal & Wright, section 3.5).

    A rejected Armijo trial has J(a) > J(0) + _ARMIJO a slope with slope < 0,
    so the denominator is positive.  An overflowed J(a) = inf gives the
    minimiser 0, and a NaN one a NaN minimiser; both take the floor.
    """
    minimiser = -slope * a * a / (2.0 * (value_trial - value - a * slope))
    return min(_STEP_SHRINK * a, max(_BACKTRACK_FLOOR * a, minimiser))


def objective(w_aug: np.ndarray, X_aug: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> float:
    """Smoothed penalized objective at the augmented weight vector, over the
    (n, k+1) augmented sample matrix X_aug = [X, 1].

    Raises DivergenceError if the value is not finite.
    """
    X_aug = np.asarray(X_aug, dtype=np.float64)
    w_aug = np.asarray(w_aug, dtype=np.float64)
    d = _reg_diag(w_aug.shape[0], cfg.regularize_bias)
    with np.errstate(**_QUIET):
        t = cfg.s * (1.0 - y * (X_aug @ w_aug))
        value = _value(w_aug, d * w_aug, _softplus_pair(t)[0], cfg)
    if not np.isfinite(value):
        raise DivergenceError("objective is not finite")
    return value


def gradient(w_aug: np.ndarray, X_aug: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Analytic gradient of `objective` with respect to w_aug.

    The per-sample coefficient sigma(s z_i) * n_i^(p-1), with
    n_i = softplus_s(z_i), is evaluated as exp(log sigma + (p-1) log n): both
    logs come from stable softplus forms, so the coefficient is exact where
    representable and exactly 0 where it underflows (never 0 * inf).
    """
    X_aug = np.asarray(X_aug, dtype=np.float64)
    w_aug = np.asarray(w_aug, dtype=np.float64)
    d = _reg_diag(w_aug.shape[0], cfg.regularize_bias)
    with np.errstate(**_QUIET):
        t = cfg.s * (1.0 - y * (X_aug @ w_aug))
        coeff = _coeff(t, *_softplus_pair(t), cfg)
        grad = d * w_aug - cfg.p * cfg.C * (X_aug.T @ (coeff * y))
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("gradient is not finite")
    return grad


def train(dataset: LabeledDataset, cfg: TrainConfig) -> tuple[SvmModel, TrainTrace]:
    """Minimize the smoothed objective from w' = 0, never letting it rise.

    At p = 1 every point the fit reaches, w' = 0 and each accepted trial,
    gets one damped Newton direction d, (H + ||g|| I) d = -g with
    g = grad J(w') (`_newton_direction`).  Its trials are w' + a d, from
    a = 1, each accepted if J falls by at least `_ARMIJO` a g.d; otherwise,
    also when the trial's J is not finite, a moves to the minimiser of the
    quadratic through J(w'), the slope g.d and the trial's J, kept within
    [`_BACKTRACK_FLOOR` a, a / 2] (`_backtrack`).

    At p < 1, and at a p = 1 point where H or d is not finite or d is not a
    descent direction with a finite slope, the trials are momentum trials,
    from v = 0 and step = eta at w' = 0:

        v' = eps * v - step * grad J(w'),    w'' = w' + v'

    accepted if J(w'') <= J(w'), growing the step by 5 %; a rejected one
    restarts v from zero and halves the step.  So `eta` and `eps` act on a
    p = 1 fit only at such points.  Every trial is an iteration, against
    `max_iter`, and counts in `restarts` when rejected.

    The fit stops when an accepted step lowers J by a relative amount below
    `tol_obj`, when the gradient norm at the current point is below
    `tol_grad` (tested before the trial, so the tested point is returned),
    or at the iteration cap.  Each trial's J comes from one margin pass over
    the signed design matrix y [X, 1]; only an accepted trial's gradient,
    and at p = 1 its Hessian, is finished from it.
    Deterministic: identical inputs give bit-identical results.

    Raises DivergenceError (naming the iteration, 0 for the start point) if
    the start point's objective, a momentum trial's objective or an accepted
    gradient is non-finite, and ValueError if the dataset has only one class.
    """
    if not dataset.has_both_classes:
        raise ValueError("training requires samples from both classes")
    yX = _signed_design(dataset)
    d = _reg_diag(dataset.k + 1, cfg.regularize_bias)

    w = np.zeros(dataset.k + 1)
    v = np.zeros(dataset.k + 1)
    step = cfg.eta
    restarts = 0
    with np.errstate(**_QUIET):
        value, state = _value_pass(w, yX, d, cfg)
        if not math.isfinite(value):
            raise DivergenceError("objective diverged at iteration 0")
        g = _grad_pass(state, yX, cfg)
        obj_hist = [value]
        grad_hist: list[float] = []
        stop_reason = STOP_ITERATION_CAP

        # Each round first tests the current point, which is returned if the
        # fit stops there: the start point, each accepted trial, and, in
        # round max_iter + 1, the point the cap leaves.
        for it in range(1, cfg.max_iter + 2):
            grad_norm = norm(g)
            if not math.isfinite(grad_norm) and not np.isfinite(g).all():
                raise DivergenceError(f"gradient diverged at iteration {it}")
            if grad_norm < cfg.tol_grad and stop_reason == STOP_ITERATION_CAP:
                stop_reason = STOP_GRADIENT
            if stop_reason != STOP_ITERATION_CAP or it > cfg.max_iter:
                break
            if state is not None:  # a new point: at p = 1, its damped Newton direction
                direction = (_newton_direction(_hessian(state, yX, d, cfg), g) if cfg.p == 1.0
                             else None)
                if direction is not None:
                    a, slope = 1.0, float(g @ direction)
                state = None
            if direction is None:
                v_trial = cfg.eps * v - step * g
                w_trial = w + v_trial
                bound = value
            else:
                w_trial = w + a * direction
                bound = value + _ARMIJO * a * slope
            value_trial, trial = _value_pass(w_trial, yX, d, cfg)
            # A Newton trial's non-finite J is a step too long, rejected below.
            if not math.isfinite(value_trial) and direction is None:
                raise DivergenceError(f"objective diverged at iteration {it}")
            grad_hist.append(grad_norm)
            if value_trial <= bound:
                decrease = (value - value_trial) / max(1.0, abs(value))
                if direction is None:
                    v, step = v_trial, step * _STEP_GROW
                else:
                    v = np.zeros_like(v)  # a momentum fallback starts at rest
                w, value, g, state = w_trial, value_trial, _grad_pass(trial, yX, cfg), trial
                obj_hist.append(value)
                if decrease < cfg.tol_obj:
                    stop_reason = STOP_OBJECTIVE  # the next round tests the point, then stops
            else:
                if direction is None:
                    v = np.zeros_like(v)
                    step *= _STEP_SHRINK
                else:
                    a = _backtrack(a, slope, value, value_trial)
                restarts += 1
                obj_hist.append(value)

    model = SvmModel(w=w[:-1].copy(), b=float(w[-1]), meta=cfg)
    trace = TrainTrace(
        objective_history=np.array(obj_hist),
        grad_norm_history=np.array(grad_hist),
        stop_reason=stop_reason,
        final_grad_norm=grad_norm,
        restarts=restarts,
    )
    return model, trace
