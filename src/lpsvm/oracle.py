"""Independent verification machinery.

Three routes that never share code with the solver they check: central
finite differences for the analytic gradient, a dual coordinate-descent
reference solver for the p = 1 hinge objective (one vectorised step test per
pass that picks the coordinates to visit and certifies the result, and a
subspace step on the free coordinates after each pass, as in active-set
methods for bound-constrained QPs), and a residual checker
for the optimality (KKT) conditions of that problem.

The dual solver works on augmented features with the bias *regularized*
(folded into the weight vector), because plain coordinate descent cannot
maintain the zero-sum constraint that an unregularized bias induces.  When
comparing against the momentum solver, run it with `regularize_bias=True`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .core import LabeledDataset, SvmModel, decision_values, norm, number, reg_diag, signed_design
from .solver import TrainConfig, objective

__all__ = [
    "DualSolution",
    "KktReport",
    "fd_gradient",
    "hinge_objective",
    "dual_cd_train",
    "kkt_check",
]


# `dual_cd_train`'s step-test threshold, duality-gap bound (see its docstring)
# and permutation seed.
_DUAL_TOL, _GAP_TOL, _DUAL_SEED = 1e-15, 1e-9, 0
# Eigenvalues of G below this fraction of its largest count as zero in G^+.
_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Box-constrained dual variables and the primal model they induce.

    The model is recovered as w' = sum_i alpha_i y_i x'_i over augmented
    features, recomputed from alpha (no accumulation drift); `gap` is their
    relative duality gap (see `dual_cd_train`).  `dual_objective_history`
    holds the dual objective after each pass and its subspace step, one
    entry per pass; it is nondecreasing up to rounding, about one ulp of the
    value.
    """

    alpha: np.ndarray
    model: SvmModel
    converged: bool
    gap: float
    dual_objective_history: np.ndarray

    @property
    def n_sweeps(self) -> int:
        """The passes made, one per `dual_objective_history` entry."""
        return len(self.dual_objective_history)


@dataclass(frozen=True)
class KktReport:
    """Residuals of the p = 1 optimality conditions; all are >= 0 and vanish
    at an exact optimum (dual_balance only when the bias is unregularized)."""

    stationarity_residual: float
    dual_balance_residual: float
    complementarity_residual: float
    feasibility_violation: float
    box_violation: float


def fd_gradient(w_aug: np.ndarray, X_aug: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                step: float = 1e-6) -> np.ndarray:
    """Central-difference approximation of the smoothed objective's gradient."""
    step = number("step", step, positive=True)
    w_aug = np.asarray(w_aug, dtype=np.float64)
    grad = np.empty_like(w_aug)
    for j in range(w_aug.shape[0]):
        shift = np.zeros_like(w_aug)
        shift[j] = step
        grad[j] = (objective(w_aug + shift, X_aug, y, cfg)
                   - objective(w_aug - shift, X_aug, y, cfg)) / (2.0 * step)
    return grad


def hinge_objective(w_aug: np.ndarray, X_aug: np.ndarray, y: np.ndarray, C: float,
                    regularize_bias: bool = True) -> float:
    """True (unsmoothed) hinge objective 1/2 w'^T D w' + C sum_i max(0, 1 - y_i w'.x'_i)."""
    X_aug = np.asarray(X_aug, dtype=np.float64)
    w_aug = np.asarray(w_aug, dtype=np.float64)
    d = reg_diag(w_aug.shape[0], regularize_bias)
    z = 1.0 - y * (X_aug @ w_aug)
    return 0.5 * float(w_aug @ (d * w_aug)) + C * float(np.sum(np.maximum(z, 0.0)))


def dual_cd_train(dataset: LabeledDataset, C: float, *,
                  max_sweeps: int = 50000) -> DualSolution:
    """Reference solver for the p = 1 problem via exact coordinate minimization.

    Minimizes the dual 1/2 ||sum_i alpha_i y_i x'_i||^2 - sum_i alpha_i over
    the box [0, C]^n.  Each update is the exact 1-d minimizer clipped to the
    box.

    Step test: each pass starts from w = sum_i alpha_i y_i x'_i recomputed
    exactly and takes every coordinate's clipped step delta_i, with the dual
    gain -(g_i delta_i + 1/2 q_i delta_i^2) it would bring (g the dual
    gradient, q_i = ||x'_i||^2).  A coordinate is *movable* when that gain is
    at least `_DUAL_TOL`.  When none is, the loop stops.  Otherwise the pass
    visits, in a freshly seeded permutation and each with its exact step on
    the running w, the active coordinates still movable; once none are left,
    all movable ones become active again.  Carrying the active set matters:
    without it toy seed 0 with features x1e4 did not converge in 5000 passes.

    Subspace step (Moré & Toraldo 1991, SIAM J. Optim. 1:93-113): every pass
    ends with one step over the free coordinates 0 < alpha_i < C, the others
    held fixed (`_subspace_step`).  Coordinate descent alone moves free
    coordinates along a flat face one at a time, which took thousands of
    passes at C = 50 and 100 and still certified with KKT residuals up to
    7e-6; the step solves the face in (k + 1)-square systems.

    Certificate: `gap` is the relative duality gap (P - D)/P at the last
    step test's w, P the hinge objective and D the dual, and `converged` is True when that test found no movable
    coordinate and `gap` <= `_GAP_TOL`.  The gap is scale-free where the
    absolute `_DUAL_TOL` is not: with features x1e4, q_i is about 1e8 and
    a |g_i| of 4e-4 gains less than 1e-15 in one step.

    `max_sweeps` caps the passes; the step test still runs after the last,
    and converged=False if it finds a movable coordinate.  `n_sweeps` counts
    the passes made; the final step test visits none and is not one.
    """
    C = number("C", C, positive=True)
    max_sweeps = number("max_sweeps", max_sweeps, int, positive=True)
    n = dataset.n
    yx = signed_design(dataset)
    # Squared row norms; >= 1 because of the constant-1 coordinate.
    q = np.einsum("ij,ij->i", yx, yx)
    # The visits run on Python floats: per visit, list arithmetic over a short
    # row is cheaper than the numpy calls it replaces.
    rows, q_list = yx.tolist(), q.tolist()
    dims = range(yx.shape[1])

    alpha = np.zeros(n)
    rng = np.random.Generator(np.random.PCG64(_DUAL_SEED))
    history: list[float] = []
    active = np.ones(n, dtype=bool)

    for passes in range(max_sweeps + 1):
        # The step test, at the exact w: every coordinate's clipped step and its gain.
        w = yx.T @ alpha
        g = yx @ w - 1.0
        step = np.clip(alpha - g / q, 0.0, C) - alpha
        movable = -(g * step + 0.5 * q * step * step) >= _DUAL_TOL
        if not movable.any() or passes == max_sweeps:
            break
        active &= movable
        if not active.any():
            active = movable
        a, w = alpha.tolist(), w.tolist()
        for i in rng.permutation(np.flatnonzero(active)).tolist():
            row = rows[i]
            g_i = sum(map(mul, row, w)) - 1.0
            a_old = a[i]
            a_new = min(max(a_old - g_i / q_list[i], 0.0), C)
            delta = a_new - a_old
            if delta != 0.0:
                for t in dims:
                    w[t] += delta * row[t]
                a[i] = a_new
        alpha, dual = _subspace_step(yx, np.array(a), C)
        history.append(dual)

    # P and D at the last step test's w, where 1 - y_i w'.x'_i = -g_i.
    half_ww = 0.5 * float(w @ w)
    primal = half_ww + C * float(np.maximum(-g, 0.0).sum())
    gap = (primal - (float(alpha.sum()) - half_ww)) / primal
    model = SvmModel(w=w[:-1], b=float(w[-1]))
    alpha.setflags(write=False)
    return DualSolution(
        alpha=alpha,
        model=model,
        converged=not movable.any() and gap <= _GAP_TOL,
        gap=gap,
        dual_objective_history=np.array(history),
    )


def _subspace_step(yx: np.ndarray, a: np.ndarray, C: float) -> tuple[np.ndarray, float]:
    """One subspace step on the face of the free coordinates F (0 < alpha_i < C).

    With R = yx[F] and G = R^T R, the dual restricted to the face is a
    concave quadratic in alpha_F whose Hessian -R R^T has rank <= k + 1.
    First the min-norm Newton step: w moves to the face's maximizer (G w =
    R^T 1, reached within range(G)) through the least alpha_F change,
    R G^+ G^+ (R^T 1 - G w).  Then the flat direction u = (I - R G^+ R^T) 1,
    along which w stays put and the dual rises by ||u||^2 per unit.  Each
    move stops at the first box bound, which it sets exactly, and is taken
    only if the dual rises.  Only (k + 1)-square systems are solved.
    Returns the new alpha, or `a` itself if no move helps, with its dual.
    """
    w_now = yx.T @ a
    best = a.sum() - 0.5 * (w_now @ w_now)
    free = np.flatnonzero((a > 0.0) & (a < C))
    if free.size == 0:
        return a, best
    R = yx[free]
    G = R.T @ R
    lam, V = np.linalg.eigh(G)
    keep = lam > _RANK_TOL * lam[-1]
    V, lam = V[:, keep], lam[keep]

    def g_pinv(v):  # G^+ v
        return V @ ((V.T @ v) / lam)

    s = R.sum(axis=0)
    moves = [(R @ g_pinv(g_pinv(s - G @ w_now)), 1.0)]
    if lam.size < free.size:  # rank(R) < |F|: R^T has a null space, the face a flat direction
        moves.append((1.0 - R @ g_pinv(s), math.inf))
    for d, cap in moves:
        a_free = a[free]
        t = np.full(d.shape, math.inf)
        up, down = d > 0.0, d < 0.0
        t[up] = (C - a_free[up]) / d[up]
        t[down] = -a_free[down] / d[down]
        j = int(t.argmin())
        step = min(t[j], cap)
        if not 0.0 < step < math.inf:
            continue
        trial = a.copy()
        trial[free] = np.clip(a_free + step * d, 0.0, C)
        if step == t[j]:
            trial[free[j]] = C if d[j] > 0.0 else 0.0
        w_trial = yx.T @ trial
        dual = trial.sum() - 0.5 * (w_trial @ w_trial)
        if dual > best:
            a, best = trial, dual
    return a, best


def kkt_check(model: SvmModel, alpha: np.ndarray, dataset: LabeledDataset,
              C: float) -> KktReport:
    """Residuals of the stationarity, feasibility, complementarity and box
    conditions at (model, alpha).

    Slacks are reconstructed the way the optimality conditions dictate:
    xi_i = max(0, 1 - y_i(w.x_i + b)) where alpha_i > 0, and xi_i = 0 where
    alpha_i = 0 (a vanishing multiplier forces a vanishing slack).  The
    feasibility residual therefore flags points an alpha = 0 multiplier
    wrongly claims are satisfied.
    """
    C = number("C", C, positive=True)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (dataset.n,):
        raise ValueError(f"alpha has shape {alpha.shape}, expected ({dataset.n},)")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha must be finite")

    margins = dataset.y * decision_values(model, dataset.X)
    xi = np.where(alpha > 0.0, np.maximum(1.0 - margins, 0.0), 0.0)

    stationarity = norm(model.w - dataset.X.T @ (alpha * dataset.y))
    dual_balance = float(abs(np.sum(alpha * dataset.y)))
    complementarity = float(np.max(np.abs(alpha * (margins - 1.0 + xi))))
    feasibility = float(np.max(np.maximum(1.0 - xi - margins, 0.0)))
    # 0.0 first: max keeps the first of equal values, and -alpha reads -0.0 at alpha = 0.
    box = float(max(0.0, np.max(-alpha), np.max(alpha - C)))
    return KktReport(
        stationarity_residual=stationarity,
        dual_balance_residual=dual_balance,
        complementarity_residual=complementarity,
        feasibility_violation=feasibility,
        box_violation=box,
    )
