"""Smoothed hinge objective with an Lp slack penalty and its momentum descent solver,
with a damped Newton finish at p = 1.

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

`train` runs momentum descent with a monotone safeguard: a trial step that
would raise the objective is rejected, the momentum restarts and the step
halves; an accepted step grows the step by 5 %.  Each trial costs one margin
pass over the signed design matrix y_i x'_i built once per fit, and only an
accepted trial's gradient is finished from it; `objective` and `gradient` are
the public single-point forms of the same elementwise code and give
bit-identical values.  At p = 1, where J is convex, the fit hands off to
damped Newton trials (Keerthi & DeCoste, JMLR 2005) once momentum slows:
the Hessian D + C s yX^T diag(sigma(t) sigma(-t)) yX comes from the same
margin state as the gradient, each trial is still one margin pass, and a
rejected trial's J places the next step by quadratic interpolation.
"""

import math
import typing
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .core import LabeledDataset, SvmModel, number

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

# At p = 1, where J is convex, the fit hands off from momentum to damped
# Newton trials once an accepted momentum step lowers J by less than this,
# relatively.  A Newton trial is accepted when J falls by at least _ARMIJO
# of the decrease the slope g.d predicts; otherwise its step a moves to the
# minimiser of the quadratic through J(0), J'(0) and J(a), kept within
# [_BACKTRACK_FLOOR a, _STEP_SHRINK a].
_NEWTON_HANDOFF = 2e-2
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
    eta: float | None = _knob(None, "initial step of the momentum phase (> 0; default: "
                                    "1e-2 / max(1, C/2))", positive=True)
    eps: float = _knob(0.9, "momentum coefficient in [0, 1)")
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
    initial_grad_norm: float
    final_grad_norm: float
    restarts: int

    @property
    def iterations(self) -> int:
        return len(self.grad_norm_history)

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
    # dw = D w'; softplus_s(z) = sp / s
    return 0.5 * float(w_aug.dot(dw)) + cfg.C * float(((sp / cfg.s) ** cfg.p).sum())


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
    with y exact, and x ** 1.0 == x.  Non-finite results are returned as they
    are, for `train` to report.
    """
    t = yX.dot(w_aug)
    np.subtract(1.0, t, out=t)
    t *= cfg.s
    sp, sp_neg = _softplus_pair(t)
    dw = d * w_aug
    value = (0.5 * float(w_aug.dot(dw)) + cfg.C * float((sp / cfg.s).sum()) if cfg.p == 1.0
             else _value(w_aug, dw, sp, cfg))
    return value, (t, sp, sp_neg, dw)


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
    `_value_pass`'s margin state, before `_grad_pass` has used it.

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
    """The solution d of H d = -g, or None unless H and d are finite and d
    is a descent direction with a finite slope (-inf < g.d < 0), as it is
    wherever H is positive definite and g.d does not overflow."""
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


def _norm(g: np.ndarray) -> float:
    """||g||, computed as np.linalg.norm does, sqrt(g.g); where g.g overflows
    for a finite g, from `math.hypot`, which scales and stays finite.  A
    non-finite g gives a non-finite norm."""
    norm = math.sqrt(g.dot(g))
    if not math.isfinite(norm) and np.isfinite(g).all():
        norm = math.hypot(*g)
    return norm


def train(dataset: LabeledDataset, cfg: TrainConfig) -> tuple[SvmModel, TrainTrace]:
    """Minimize the smoothed objective by safeguarded momentum descent,
    finished at p = 1 by damped Newton steps.

    Starts from w' = 0, v = 0, step = eta.  Each iteration evaluates one
    trial point

        v' = eps * v - step * grad J(w'),    w'' = w' + v'

    and accepts it if J(w'') <= J(w'), growing the step by 5 %.  A trial
    that would raise the objective is discarded: the velocity restarts from
    zero and the step halves, and the current point and its gradient are
    kept.  The objective therefore never increases.

    At p = 1 only, once an accepted momentum step lowers J by less than
    `_NEWTON_HANDOFF` relatively, every later trial is a damped Newton one,
    w'' = w' + a d with H d = -grad J(w'): a starts at 1 at each accepted
    point, and the trial is accepted if J(w'') <= J(w') + `_ARMIJO` a g.d.
    Otherwise, also when J(w'') is not finite, a moves to the minimiser of
    the quadratic through J(w'), the slope g.d and J(w''), kept within
    [`_BACKTRACK_FLOOR` a, a / 2] (`_backtrack`).  A Newton trial counts as
    an iteration, against `max_iter`, and in `restarts` when rejected, as a
    momentum trial does; `eta` and `eps` act on the momentum trials only.
    Where H or d is not finite, or d is not a descent direction with a
    finite slope, that point's trials stay on momentum.  At p < 1 every
    trial is a momentum trial.

    The fit stops when an accepted step lowers J by a relative amount below
    `tol_obj`, when the gradient norm at the current point is below
    `tol_grad` (tested before the trial, so the tested point is returned),
    or at the iteration cap.  Each trial's J comes from one margin pass over
    the signed design matrix y [X, 1]; only an accepted trial's gradient,
    and in the Newton phase its Hessian, is finished from it.
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
    newton = False  # set at the hand-off, at p = 1 only
    direction = None  # the Newton direction at w, while one is finite
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
            grad_norm = _norm(g)
            if not math.isfinite(grad_norm) and not np.isfinite(g).all():
                raise DivergenceError(f"gradient diverged at iteration {it}")
            if grad_norm < cfg.tol_grad and stop_reason == STOP_ITERATION_CAP:
                stop_reason = STOP_GRADIENT
            if stop_reason != STOP_ITERATION_CAP or it > cfg.max_iter:
                break
            if direction is None:
                v_trial = cfg.eps * v - step * g
                w_trial = w + v_trial
                bound = value
            else:
                w_trial = w + a * direction
                bound = value + _ARMIJO * a * slope
            value_trial, state = _value_pass(w_trial, yX, d, cfg)
            # A Newton trial whose J is not finite is only a step too long:
            # it is rejected below, and the next step takes the floor.
            if not math.isfinite(value_trial) and direction is None:
                raise DivergenceError(f"objective diverged at iteration {it}")
            grad_hist.append(grad_norm)
            if value_trial <= bound:
                decrease = (value - value_trial) / max(1.0, abs(value))
                if direction is None:
                    v, step = v_trial, step * _STEP_GROW
                else:
                    v = np.zeros_like(v)  # a momentum fallback starts at rest
                newton = newton or (cfg.p == 1.0 and decrease < _NEWTON_HANDOFF)
                H = _hessian(state, yX, d, cfg) if newton and decrease >= cfg.tol_obj else None
                w, value, g = w_trial, value_trial, _grad_pass(state, yX, cfg)
                direction = None if H is None else _newton_direction(H, g)
                if direction is not None:
                    a, slope = 1.0, float(g @ direction)
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
        initial_grad_norm=grad_hist[0] if grad_hist else grad_norm,
        final_grad_norm=grad_norm,
        restarts=restarts,
    )
    return model, trace
