"""Smoothed hinge objective with an Lp slack penalty and its solver: damped
Newton at p = 1 and along a p < 1 smoothing path, momentum descent otherwise.

The trained objective, over the augmented weight vector w' = [w, b], is

    J(w') = 1/2 w'^T D w' + C * sum_i softplus_s(1 - y_i w'.x'_i)^p

where softplus_s(x) = (1/s) log(1 + exp(s x)) is a sharp differentiable upper
bound on max(0, x), p in (0, 1] is the slack exponent (p = 1 recovers the
standard hinge penalty), and D is the identity with the bias entry zeroed
unless `regularize_bias` is set.

All floating-point paths are overflow-free: the per-sample gradient
coefficient sigma(s z) * softplus_s(z)^(p-1) is assembled in the log domain,
so margins anywhere in double range produce finite objective and gradient
values, with exact zeros where the true coefficient underflows; a slack term
whose softplus underflows enters the objective as exp(p (t - log s)), so
the objective keeps every term the gradient has a slope for.  Every path
(`objective`, `gradient`, `smoothed_plus` and the solver's fused kernel)
takes softplus(t) and softplus(-t) = -log sigma(t) from one shared pair,
max(t, 0) + l and l - min(t, 0) with l = log1p(exp(-|t|)) (the split
Maechler 2012 recommends), so they all round alike; `objective` and
`gradient` are the reference the solver's iterates are tested against.

`train` never lets the objective rise.  At p = 1, where J is convex, every
point, w' = 0 included, takes damped Newton trials (Keerthi & DeCoste, JMLR
2005) along -(H + ||g|| I)^-1 g, with H from the point's margin state, and a
rejected trial's J places the next step by quadratic interpolation.  A p < 1
fit with `s_start` below `s`, as by default, follows a smoothing path (graduated
non-convexity, Blake & Zisserman 1987; Chapelle, Sindhwani & Keerthi, JMLR
2008): it fits at s = s_start from w' = 0, then warm-starts at sharper s up
to `s`, and takes the same Newton trials at every stage; where J bends down
and H + ||g|| I gives no descent direction, the damping moves past H's
least eigenvalue.  Any other p < 1 fit, from w' = 0 at s alone, runs
momentum descent, as does a Newton fit at a point where H or the gradient
is not finite or neither damped system gives a descent direction: a
rejected trial restarts the momentum and halves the step, an accepted one
grows it by 5 %.  Each trial costs one margin pass over the signed design
matrix y_i x'_i built once per fit, and only an accepted trial's gradient
is finished from it; `objective` and `gradient` are the public
single-point forms of the same elementwise code and give bit-identical
values.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import LabeledDataset, SvmModel, norm, number, reg_diag, signed_design

__all__ = [
    "TrainConfig",
    "TrainTrace",
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
# A smoothing path fits at this many sharpness values, geometrically spaced
# from s_start to s.  Measured from s_start = 1 at 3 to 8 stages (CHANGES.md):
# 5 is the fewest at which the README fit reaches the objective more stages
# reach, and the 30-fit toy grid keeps acceptance criterion 4's trends on
# every seed; 4 takes 14 % fewer trials on that grid but ends the README fit
# higher and keeps the trends on 4 of 5 seeds.
_STAGES = 5

# Below this, log(softplus(t)) equals t to double precision.
_LOG_SOFTPLUS_CUT = -33.0
_MAX_DOUBLE = float(np.finfo(np.float64).max)
# The smallest normal double: a softplus below it has lost digits or is 0.
_TINY = float(np.finfo(np.float64).tiny)

# Overflow/NaN in the objective or gradient is the divergence signal, which
# is reported rather than warned about; log(0) below the cut is discarded.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


class DivergenceError(RuntimeError):
    """An iterate produced a non-finite objective or gradient."""


def _knob(default, help: str, positive: bool = False):
    """A `TrainConfig` field: its default, its help and its sign rule."""
    return field(default=default, metadata={"help": help, "positive": positive})


@dataclass(frozen=True)
class TrainConfig:
    """All solver knobs; each field's `metadata["help"]` describes it.

    The CLI derives one flag per field (`tol_obj` -> `--tol-obj`) with the
    field's help and default, so the library and the CLI fit alike: at
    p < 1, along the smoothing path from s_start = 1.  `__post_init__`
    passes each value through `core.number` with the field's type, and
    `metadata["positive"]` as its sign rule, and stores the builtin value it
    returns (so numpy scalars write out as JSON); then it checks the
    remaining ranges.
    """

    C: float = _knob(1.0, "slack penalty weight (> 0)", positive=True)
    p: float = _knob(0.5, "slack exponent in (0, 1]; 1 gives the standard hinge")
    s: float = _knob(100.0, "softplus sharpness (> 0); the smoothing gap is log(2)/s",
                     positive=True)
    s_start: float = _knob(1.0, "at p < 1, the sharpness (> 0) a smoothing path starts at: a "
                                "fit there from w' = 0, then Newton stages warm-started up "
                                "to s (at least s: one fit from w' = 0 at s); ignored at p = 1",
                           positive=True)
    eta: float = _knob(1e-2, "initial momentum step, used at p < 1 off the path, and in a "
                             "Newton fit only at a point where the Hessian or gradient is not "
                             "finite or neither damped system gives a descent direction (> 0)",
                       positive=True)
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
            object.__setattr__(self, f.name, number(f.name, getattr(self, f.name), f.type,
                                                    f.metadata.get("positive", False)))
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not (0.0 <= self.eps < 1.0):
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """Per-iteration history of a training run.

    `objective_history` has iterations + 1 entries: J(0) at the fit's own s,
    then the objective at the current (accepted) point after each
    iteration.  `grad_norm_history` has one entry per iteration, the
    gradient norm (at least `tol_grad`) at the point the trial stepped from;
    momentum and Newton trials alike.  Both are taken at the sharpness of
    the stage the next trial belongs to, entry 0 aside: on a smoothing path
    the first stage's entries follow entry 0 at that stage's s, and the
    entry before each later stage's first trial is its start point's
    objective at the stage's s.  So the objective never increases within a
    stage after entry 0, and its last entry is the returned model's
    objective at the fit's own s.
    `stage_iterations` counts each stage's trials, in order, 0 for a stage
    that starts at the iteration cap; a path fit has `_STAGES` stages, a
    fit from w' = 0 at s alone one.  `initial_grad_norm` is ||grad J(0)||
    at the fit's own s.  `final_grad_norm` is the norm the last stop test
    computed: at the returned model and the fit's own s, below `tol_grad`
    after a gradient stop, and never of a non-finite gradient, which
    raises; `restarts` counts rejected trials.
    """

    objective_history: np.ndarray
    grad_norm_history: np.ndarray
    stop_reason: str
    initial_grad_norm: float
    final_grad_norm: float
    restarts: int
    stage_iterations: tuple[int, ...]

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
        each fit's entry in the cv and compare JSON."""
        return {
            "iterations": self.iterations,
            "final_objective": float(self.objective_history[-1]),
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "final_grad_norm": self.final_grad_norm,
            "relative_grad_norm": self.relative_grad_norm,
            "restarts": self.restarts,
            "stage_iterations": list(self.stage_iterations),
        }


def _softplus_pair(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(t) = log(1 + e^t) and softplus(-t), elementwise, for an array
    t of one or more dimensions.

    Both come from one l = log1p(exp(-|t|)), which never overflows:
    softplus(t) = max(t, 0) + l and softplus(-t) = l - min(t, 0).  Both are
    exact at t = +-inf, and NaN stays NaN.  log1p(x) is x, bit for bit, for
    0 <= x <= 2^-53 (|t| >= 36.74), so it runs only above that: numpy's
    log1p is several times slower on such tiny x, and most margins of a
    large fit give them.
    """
    sp_neg = np.copysign(t, -1.0)
    np.exp(sp_neg, out=sp_neg)
    np.log1p(sp_neg, out=sp_neg, where=sp_neg > 2.0 ** -53)  # l
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


# The elementwise terms below take the scaled margins t = s (1 - y w'.x') and
# the pair sp = softplus(t), sp_neg = softplus(-t), so one margin pass and one
# exp/log1p pass serve both the value and the gradient.

def _value(w_aug: np.ndarray, dw: np.ndarray, t: np.ndarray, sp: np.ndarray,
           cfg: TrainConfig) -> float:
    # dw = D w' and softplus_s(z) = sp / s.  Where sp is below the normal
    # range it has lost digits or underflowed to 0, yet it equals e^t, so
    # n^p = exp(p (t - log s)), the log n `_coeff` takes below its cut.  Each
    # such term is below (tiny/s)^p, and terms summing to less than 2^-54 J
    # cannot move J by half an ulp, so the pass runs only where C n (tiny/s)^p
    # reaches 2^-54 J: in practice only at small p.
    quad = 0.5 * float(w_aug.dot(dw))
    terms = (sp / cfg.s) ** cfg.p
    value = quad + cfg.C * float(terms.sum())
    if cfg.p != 1.0 and cfg.C * sp.size * (_TINY / cfg.s) ** cfg.p >= 2.0 ** -54 * value:
        deep = sp < _TINY
        terms[deep] = np.exp(cfg.p * (t[deep] - math.log(cfg.s)))
        value = quad + cfg.C * float(terms.sum())
    return value


def _coeff(t: np.ndarray, sp: np.ndarray, sp_neg: np.ndarray, cfg: TrainConfig) -> tuple:
    # sigma(t) * n^(p-1) with n = sp / s, and log n (None at p = 1): sigma(t)
    # = exp(-sp_neg) at p = 1, and exp(log sigma(t) + (p-1) log n) at p < 1,
    # where log sigma(t) = -sp_neg.  Below the cut sp underflows but equals
    # e^t to double precision, so log(sp) is just t there.  log_n is -inf
    # only at t = -inf, where sp_neg = inf; clipped to -max, (p-1) log_n is
    # finite, so the coefficient is exp(-inf) = 0, not exp(inf - inf) = NaN.
    # At t = +inf log_n is +inf and sp_neg = 0, so the coefficient is 0.
    if cfg.p == 1.0:
        return np.exp(-sp_neg), None
    log_n = np.log(sp)
    np.putmask(log_n, t < _LOG_SOFTPLUS_CUT, t)
    log_n -= math.log(cfg.s)
    np.maximum(log_n, -_MAX_DOUBLE, out=log_n)
    return np.exp((cfg.p - 1.0) * log_n - sp_neg), log_n


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
    return _value(w_aug, dw, t, sp, cfg), (t, sp, sp_neg, dw)


def _grad_pass(state: tuple, yX: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, tuple]:
    """grad J(w') from `_value_pass`'s margin state, and that state extended
    by the coefficient c and the log n `_coeff` made for it, for `_hessian`."""
    t, sp, sp_neg, dw = state
    c, log_n = _coeff(t, sp, sp_neg, cfg)
    return dw - cfg.p * cfg.C * yX.T.dot(c), (*state, c, log_n)


def _hessian(state: tuple, yX: np.ndarray, d: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """The Hessian D + yX^T diag(h) yX, from the state `_grad_pass` returns.

    At p = 1, h = C s sigma(t) sigma(-t), and sigma(t) sigma(-t) =
    exp(-softplus(t) - softplus(-t)) takes one exp and no log.  At p < 1,
    with n = softplus(t) / s and c = sigma(t) n^(p-1) the gradient
    coefficient, h = C p c ((p - 1) sigma(t) / n + s sigma(-t)), which is
    negative where n^p bends down.  c and log n are the gradient's, and
    sigma(t) / n = exp(-softplus(-t) - log n) and sigma(-t) = exp(-softplus(t))
    come from the log domain too, so none overflows: sigma(t) / n <= s, and c
    and h are 0 at t = +-inf.  The sum runs over blocks of rows, first to
    last, and the returned H is a new array, which `_newton_direction` may
    write to.  The weights take one n-length array, and one more at p < 1.
    """
    _, sp, sp_neg, _, c, log_n = state
    curv = np.add(sp_neg, sp if cfg.p == 1.0 else log_n)
    np.negative(curv, out=curv)
    np.exp(curv, out=curv)
    scale = cfg.C * cfg.s
    if cfg.p != 1.0:
        bend = np.negative(sp)
        np.exp(bend, out=bend)
        bend *= cfg.s
        curv *= cfg.p - 1.0
        curv += bend
        curv *= c
        scale = cfg.C * cfg.p
    H = (yX[:_HESSIAN_ROWS].T * curv[:_HESSIAN_ROWS]) @ yX[:_HESSIAN_ROWS]
    for lo in range(_HESSIAN_ROWS, len(sp), _HESSIAN_ROWS):
        rows = slice(lo, lo + _HESSIAN_ROWS)
        H += (yX[rows].T * curv[rows]) @ yX[rows]
    H *= scale
    H.flat[::len(d) + 1] += d
    return H


def _descent(A: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """The solution d of A d = -g, or None unless A and d are finite and
    -inf < g.d < 0."""
    if not np.isfinite(A).all():
        return None
    try:
        direction = np.linalg.solve(A, -g)
    except np.linalg.LinAlgError:  # A is singular
        return None
    return direction if np.isfinite(direction).all() and -math.inf < g @ direction < 0.0 else None


def _newton_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """The damped Newton direction d = -(H + ||g|| I)^-1 g (Li, Fukushima, Qi &
    Yamashita, Comput. Optim. Appl. 2004), as `_descent` finds it.  Where that
    gives none but H and g are finite and H's least eigenvalue l is negative,
    as it can be at p < 1, the damping moves past it: d = -(H + (||g|| - l)
    I)^-1 g, whose matrix has every eigenvalue at least ||g|| (Nocedal &
    Wright, section 3.4).  None where that gives no descent direction either,
    or where l >= 0, as wherever H is PSD.

    Overwrites H's diagonal."""
    undamped = H.diagonal().copy()
    damping = norm(g)
    H.flat[::len(g) + 1] += damping
    direction = _descent(H, g)
    if direction is None and np.isfinite(H).all():
        H.flat[::len(g) + 1] = undamped
        try:
            least = float(np.linalg.eigvalsh(H)[0])
        except np.linalg.LinAlgError:  # the eigenvalues did not converge
            return None
        if least < 0.0:
            H.flat[::len(g) + 1] = undamped + (damping - least)
            direction = _descent(H, g)
    return direction


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
    d = reg_diag(w_aug.shape[0], cfg.regularize_bias)
    with np.errstate(**_QUIET):
        t = cfg.s * (1.0 - y * (X_aug @ w_aug))
        value = _value(w_aug, d * w_aug, t, _softplus_pair(t)[0], cfg)
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
    d = reg_diag(w_aug.shape[0], cfg.regularize_bias)
    with np.errstate(**_QUIET):
        t = cfg.s * (1.0 - y * (X_aug @ w_aug))
        coeff, _ = _coeff(t, *_softplus_pair(t), cfg)
        grad = d * w_aug - cfg.p * cfg.C * (X_aug.T @ (coeff * y))
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("gradient is not finite")
    return grad


def train(dataset: LabeledDataset, cfg: TrainConfig) -> tuple[SvmModel, TrainTrace]:
    """Minimize the smoothed objective from w' = 0, never letting it rise
    within a stage.

    A fit at p = 1, or with `s_start` at least s, is one stage at s.  At
    p < 1 with `s_start` below s, as by default, it is `_STAGES` stages
    along a smoothing path, at s_j = geomspace(s_start, s, _STAGES)[j]: the
    first from w' = 0, each later one from the point the one before
    returned.  Every stage starts with its momentum at rest and its step at
    `eta`, and its own stop tests.  One pass at w' = 0 and the fit's own s
    before the stages gives the trace's first objective entry and its
    `initial_grad_norm`.

    At p = 1, and on a smoothing path, every point the fit reaches, w' = 0
    and each accepted trial, gets one damped Newton direction d,
    (H + ||g|| I) d = -g with g = grad J(w'), or, where that d does not
    descend and H's least eigenvalue l is negative (a p = 1 H is PSD),
    (H + (||g|| - l) I) d = -g (`_newton_direction`).  Its
    trials are w' + a d, from a = 1, each accepted if J falls by at least
    `_ARMIJO` a g.d; otherwise, also when the trial's J is not finite, a
    moves to the minimiser of the quadratic through J(w'), the slope g.d and
    the trial's J, kept within [`_BACKTRACK_FLOOR` a, a / 2] (`_backtrack`).

    In a p < 1 fit from w' = 0 at s, and at a point where H or g is not
    finite or neither system gives a descent direction with a finite slope,
    the trials are momentum trials, from v = 0 and step = eta at the
    stage's start:

        v' = eps * v - step * grad J(w'),    w'' = w' + v'

    accepted if J(w'') <= J(w'), growing the step by 5 %; a rejected one
    restarts v from zero and halves the step.  So `eta` and `eps` act on a
    Newton fit only at such points.  Every trial is an iteration, against
    `max_iter` over all stages, and counts in `restarts` when rejected.

    Each round first tests the point it would step from, which is returned
    if the fit stops there.  The first test that holds, in this order, names
    the stage's stop: the accepted step that reached the point lowered J by
    a relative amount below `tol_obj`; the point's gradient norm is below
    `tol_grad`; `max_iter` trials are made.  A stage that starts at the cap
    makes no trial, only its start point's pass and test at its own s, so a
    path fit runs every stage, and the last stage's stop, at the fit's own
    s, is the fit's.  Each trial's J comes from one margin pass over the
    signed design matrix y [X, 1]; only an accepted trial's gradient, and
    where Newton trials are taken its Hessian, is finished from it.
    Deterministic: identical inputs give bit-identical results.

    Raises DivergenceError (naming the iteration, 0 for the start point) if
    the start point's objective, a stage's start objective, a momentum
    trial's objective or an accepted gradient is non-finite, and ValueError
    if the dataset has only one class.
    """
    yX = signed_design(dataset)
    d = reg_diag(dataset.k + 1, cfg.regularize_bias)
    path = cfg.p < 1.0 and cfg.s_start < cfg.s
    stages = ([replace(cfg, s=float(s)) for s in np.geomspace(cfg.s_start, cfg.s, _STAGES)[:-1]]
              + [cfg] if path else [cfg])
    newton = cfg.p == 1.0 or path

    w = np.zeros(dataset.k + 1)
    grad_hist: list[float] = []
    stage_iterations = []
    restarts = 0
    with np.errstate(**_QUIET):
        # Entry 0 and initial_grad_norm: J(0) and its gradient at the fit's own s.
        value, state = _value_pass(w, yX, d, cfg)
        obj_hist = [value]
        initial_grad_norm = norm(_grad_pass(state, yX, cfg)[0])
        for stage in stages:
            # The last objective entry, the point the stage before returned,
            # becomes J at this stage's s; entry 0 stays J(0) at the fit's s.
            # v is rebound, never written to, so one zero vector serves every
            # restart.  The finished point's margin state is let go before
            # this stage's start pass makes its own.
            v = rest = np.zeros_like(w)
            step = stage.eta
            done = len(grad_hist)
            state = trial = None
            value, state = _value_pass(w, yX, d, stage)
            if not math.isfinite(value):
                raise DivergenceError(f"objective diverged at iteration {done}")
            g, state = _grad_pass(state, yX, stage)
            if done:
                obj_hist[-1] = value
            decrease = math.inf  # the relative fall in J of the step that reached the point

            # Each round first tests the current point, which is returned if
            # the stage stops there: its start point, each accepted trial,
            # and, in round max_iter + 1, the point the cap leaves.
            for it in range(done + 1, cfg.max_iter + 2):
                grad_norm = norm(g)
                if not math.isfinite(grad_norm) and not np.isfinite(g).all():
                    raise DivergenceError(f"gradient diverged at iteration {it}")
                stop_reason = (STOP_OBJECTIVE if decrease < stage.tol_obj
                               else STOP_GRADIENT if grad_norm < stage.tol_grad
                               else STOP_ITERATION_CAP if it > cfg.max_iter else None)
                if stop_reason:
                    break
                if state is not None:  # a new point: its damped Newton direction, if any
                    direction = (_newton_direction(_hessian(state, yX, d, stage), g) if newton
                                 else None)
                    if direction is not None:
                        a, slope = 1.0, float(g @ direction)
                    state = None
                if direction is None:
                    v_trial = stage.eps * v - step * g
                    w_trial, bound = w + v_trial, value
                else:
                    w_trial, bound = w + a * direction, value + _ARMIJO * a * slope
                value_trial, trial = _value_pass(w_trial, yX, d, stage)
                # A Newton trial's non-finite J is a step too long, rejected below.
                if not math.isfinite(value_trial) and direction is None:
                    raise DivergenceError(f"objective diverged at iteration {it}")
                grad_hist.append(grad_norm)
                # Momentum grows its step, or halves it and restarts at rest; a
                # Newton trial leaves v at rest for a momentum fallback, or
                # backtracks.
                if direction is None and value_trial <= bound:
                    v, step = v_trial, step * _STEP_GROW
                elif direction is None:
                    v, step = rest, step * _STEP_SHRINK
                elif value_trial <= bound:
                    v = rest
                else:
                    a = _backtrack(a, slope, value, value_trial)
                if value_trial <= bound:
                    decrease = (value - value_trial) / max(1.0, abs(value))
                    w, value, (g, state) = w_trial, value_trial, _grad_pass(trial, yX, stage)
                else:
                    restarts += 1
                obj_hist.append(value)
            stage_iterations.append(len(grad_hist) - done)

    model = SvmModel(w=w[:-1], b=float(w[-1]), meta=cfg)
    trace = TrainTrace(
        objective_history=np.array(obj_hist),
        grad_norm_history=np.array(grad_hist),
        stop_reason=stop_reason,
        initial_grad_norm=initial_grad_norm,
        final_grad_norm=grad_norm,
        restarts=restarts,
        stage_iterations=tuple(stage_iterations),
    )
    return model, trace

