import math

import numpy as np
import pytest

from lpsvm.core import LabeledDataset, SvmModel, augment
from lpsvm.data import ToySpec, gen_toy
from lpsvm.oracle import dual_cd_train, fd_gradient, hinge_objective, kkt_check
from lpsvm.solver import TrainConfig, gradient, objective, train


def two_point_dataset():
    return LabeledDataset([[1.0], [-1.0]], [1.0, -1.0])


# ------------------------------------------------------------- fd_gradient

def test_fd_gradient_quadratic_only_region():
    # both samples deep in the satisfied region: only 0.5*||w||^2 is active
    ds = LabeledDataset([[100.0], [-100.0]], [1.0, -1.0])
    X_aug, y = augment(ds).matrix, ds.y
    cfg = TrainConfig(C=1.0, p=0.5, s=100.0, regularize_bias=False)
    fd = fd_gradient(np.array([1.0, 0.0]), X_aug, y, cfg)
    assert np.allclose(fd, [1.0, 0.0], atol=1e-9)


def test_fd_gradient_two_step_sizes_agree_with_analytic():
    rng = np.random.Generator(np.random.PCG64(17))
    ds = LabeledDataset(rng.normal(size=(20, 3)),
                        rng.permutation([1.0] * 10 + [-1.0] * 10))
    X_aug, y = augment(ds).matrix, ds.y
    cfg = TrainConfig(C=2.0, p=0.5, s=100.0)
    w = rng.uniform(-2.0, 2.0, size=4)
    g = gradient(w, X_aug, y, cfg)
    for step in (1e-5, 1e-6):
        fd = fd_gradient(w, X_aug, y, cfg, step=step)
        mask = np.abs(g) >= 1e-8
        assert np.all(np.abs(fd[mask] - g[mask]) <= 1e-4 * np.abs(g[mask]))


def test_fd_gradient_step_halving_is_second_order():
    # single soft point (s=20) so truncation error dominates roundoff
    X_aug = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    cfg = TrainConfig(C=1.0, p=1.0, s=20.0)
    w = np.array([0.95, 0.0])
    g = gradient(w, X_aug, y, cfg)
    err = {h: np.max(np.abs(fd_gradient(w, X_aug, y, cfg, step=h) - g))
           for h in (1e-3, 5e-4)}
    assert err[5e-4] <= 0.35 * err[1e-3]


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_gradient(np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
                    TrainConfig(), step=0.0)


# ----------------------------------------------------------- hinge primal

def test_hinge_objective_hand_case():
    # w=1, b=0 on the two-point data: both margins exactly 1, no slack
    X_aug = augment(two_point_dataset()).matrix
    y = two_point_dataset().y
    assert hinge_objective(np.array([1.0, 0.0]), X_aug, y, C=10.0) == 0.5
    # w=0: slack 1 on both points
    assert hinge_objective(np.zeros(2), X_aug, y, C=10.0) == 20.0
    # bias regularization toggles the b^2/2 term
    w_aug = np.array([1.0, 2.0])
    with_bias = hinge_objective(w_aug, X_aug, y, C=1.0, regularize_bias=True)
    without = hinge_objective(w_aug, X_aug, y, C=1.0, regularize_bias=False)
    assert with_bias - without == pytest.approx(2.0)


# ------------------------------------------------------------ dual solver

def test_dual_cd_two_point_symmetric():
    sol = dual_cd_train(two_point_dataset(), C=10.0)
    assert sol.converged
    # decoupled coordinates: exact optimum alpha = (1/2, 1/2), w' = (1, 0)
    assert sol.alpha.tolist() == [0.5, 0.5]
    assert sol.model.w.tolist() == [1.0]
    assert sol.model.b == 0.0


def test_dual_cd_box_constraint_at_every_stage():
    ds = gen_toy(ToySpec(seed=8, n_per_class=20))
    for cap in (1, 2, 5, 50000):
        sol = dual_cd_train(ds, C=1.5, max_sweeps=cap)
        assert np.all(sol.alpha >= 0.0)
        assert np.all(sol.alpha <= 1.5)


def test_dual_cd_objective_is_nondecreasing():
    ds = gen_toy(ToySpec(seed=9, n_per_class=20))
    sol = dual_cd_train(ds, C=2.0)
    hist = sol.dual_objective_history
    assert np.all(np.diff(hist) >= -1e-12)


def test_dual_cd_objective_drops_only_by_rounding_at_large_C():
    # the per-pass dual sum rounds, so the history may drop by an ulp or two
    for seed in range(10):
        hist = dual_cd_train(gen_toy(ToySpec(seed=seed)), C=1000.0).dual_objective_history
        assert np.all(np.diff(hist) >= -4 * np.spacing(np.abs(hist[1:]))), seed


def test_dual_cd_flags_non_convergence():
    ds = gen_toy(ToySpec(seed=10, n_per_class=25))
    sol = dual_cd_train(ds, C=5.0, max_sweeps=1)
    assert not sol.converged
    assert sol.n_sweeps == 1


def test_dual_cd_recovered_model_matches_alpha():
    ds = gen_toy(ToySpec(seed=11, n_per_class=20))
    sol = dual_cd_train(ds, C=1.0)
    X_aug = augment(ds).matrix
    w_aug = X_aug.T @ (sol.alpha * ds.y)
    assert np.linalg.norm(w_aug[:-1] - sol.model.w) <= 1e-10
    assert abs(w_aug[-1] - sol.model.b) <= 1e-10


def test_dual_cd_is_deterministic():
    ds = gen_toy(ToySpec(seed=12, n_per_class=15))
    s1 = dual_cd_train(ds, C=1.0)
    s2 = dual_cd_train(ds, C=1.0)
    assert np.array_equal(s1.alpha, s2.alpha)
    assert s1.n_sweeps == s2.n_sweeps


def test_dual_cd_beats_random_search():
    ds = gen_toy(ToySpec(seed=13, n_per_class=20))
    C = 1.0
    sol = dual_cd_train(ds, C)
    X_aug, y = augment(ds).matrix, ds.y
    dual_obj = hinge_objective(np.append(sol.model.w, sol.model.b), X_aug, y, C)

    rng = np.random.Generator(np.random.PCG64(999))
    best = np.inf
    scales = np.array([0.1, 0.3, 1.0, 3.0, 10.0])
    for _ in range(10):  # 10 chunks of 100k candidates
        W = rng.normal(size=(100_000, 3)) * rng.choice(scales, size=(100_000, 1))
        z = 1.0 - y * (W @ X_aug.T)
        objs = 0.5 * np.sum(W * W, axis=1) + C * np.sum(np.maximum(z, 0.0), axis=1)
        best = min(best, float(objs.min()))
    assert dual_obj <= best


def test_dual_cd_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        dual_cd_train(two_point_dataset(), C=0.0)
    with pytest.raises(ValueError, match="both classes"):
        dual_cd_train(LabeledDataset([[1.0], [2.0]], [1.0, 1.0]), C=1.0)


def reference_dual_cd(dataset, C):
    """The full-sweep loop `dual_cd_train` ran before shrinking: every sweep
    visits all n coordinates through numpy row operations.  Returns alpha,
    the recovered augmented model and the converged flag."""
    yx = dataset.y[:, None] * augment(dataset).matrix
    q = np.einsum("ij,ij->i", yx, yx)
    alpha = np.zeros(dataset.n)
    w = np.zeros(yx.shape[1])
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50000):
        max_improve = 0.0
        for i in rng.permutation(dataset.n):
            g = float(yx[i] @ w) - 1.0
            a_new = min(max(alpha[i] - g / q[i], 0.0), C)
            delta = a_new - alpha[i]
            if delta != 0.0:
                max_improve = max(max_improve, -(g * delta + 0.5 * q[i] * delta * delta))
                w += delta * yx[i]
                alpha[i] = a_new
        if max_improve < 1e-15:
            return alpha, yx.T @ alpha, True
    return alpha, yx.T @ alpha, False


def kkt_max(sol, dataset, C):
    """The largest p = 1 optimality residual at a dual solution.  The dual
    balance is left out: with the bias regularized it is no condition."""
    report = kkt_check(sol.model, sol.alpha, dataset, C)
    return max(report.stationarity_residual, report.complementarity_residual,
               report.feasibility_violation, report.box_violation)


def best_coordinate_improvement(sol, dataset, C):
    """The dual improvement of the best exact single-coordinate step at the
    returned alpha.  The certificate tests all n coordinates there, so none
    may have a step left worth 1e-15 or more."""
    yx = dataset.y[:, None] * augment(dataset).matrix
    q = np.einsum("ij,ij->i", yx, yx)
    g = yx @ sol.model.w_aug - 1.0
    delta = np.clip(sol.alpha - g / q, 0.0, C) - sol.alpha
    return float(np.max(-(g * delta + 0.5 * q * delta * delta)))


# Toy seed 2 at C = 10 once stalled the sign rule (drop a coordinate whose
# clipped step is 0 at a bound): before the subspace step, four free
# coordinates in three dimensions slid along a flat direction and the solver
# stopped at the pass cap with a wrong model.  The subspace step solves that
# face, so the solver must converge there.
@pytest.mark.parametrize("seed, C", [
    *[(seed, C) for seed in (0, 1, 3, 4) for C in (1.0, 10.0)],
    (2, 1.0),
    pytest.param(2, 10.0, id="naive-shrink-stall-seed2-C10"),
])
def test_dual_cd_matches_full_sweep_reference(seed, C):
    ds = gen_toy(ToySpec(seed=seed))
    X_aug, y = augment(ds).matrix, ds.y
    sol = dual_cd_train(ds, C)
    ref_alpha, ref_w, ref_converged = reference_dual_cd(ds, C)
    assert sol.converged and ref_converged
    j_new = hinge_objective(sol.model.w_aug, X_aug, y, C)
    j_ref = hinge_objective(ref_w, X_aug, y, C)
    assert abs(j_new - j_ref) <= 1e-7 * abs(j_ref)
    assert np.array_equal(sol.alpha > 0.0, ref_alpha > 0.0)
    assert kkt_max(sol, ds, C) <= 1e-5
    assert best_coordinate_improvement(sol, ds, C) < 1e-14


# At C = 50 and 100 plain coordinate descent met its certificate with KKT
# residuals up to 6.7e-6 (3.6e-6 on toy seed 1 at C = 50): free coordinates
# crept along flat faces one at a time.  The subspace step solves the face.
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("C", [50.0, 100.0])
def test_dual_cd_is_precise_at_large_C(seed, C):
    ds = gen_toy(ToySpec(seed=seed))
    sol = dual_cd_train(ds, C)
    assert sol.converged
    assert kkt_max(sol, ds, C) <= 1e-9
    assert best_coordinate_improvement(sol, ds, C) < 1e-14


# Pass counts are deterministic, so they guard the speed without timing it.
# Before the subspace step these took 26 691 and 6 311 passes.
def test_dual_cd_pass_count_toy_seed3_C100():
    sol = dual_cd_train(gen_toy(ToySpec(seed=3)), C=100.0)
    assert sol.converged
    assert sol.n_sweeps <= 1000


def test_dual_cd_pass_count_heavy_overlap_k16():
    # n = 300, k = 16: class means +-0.1 per feature, unit spread.
    rng = np.random.Generator(np.random.PCG64(0))
    y = np.repeat([1.0, -1.0], 150)
    ds = LabeledDataset(rng.normal(size=(300, 16)) + 0.1 * y[:, None], y)
    sol = dual_cd_train(ds, C=1.0)
    assert sol.converged
    assert sol.n_sweeps <= 500
    assert kkt_max(sol, ds, 1.0) <= 1e-9


def test_dual_cd_pass_count_toy_seed3_scaled_by_100():
    # Features x100 at C = 1: 414 passes with the projected-gradient
    # thresholds the sign rule replaced.
    ds = gen_toy(ToySpec(seed=3))
    ds = LabeledDataset(100.0 * ds.X, ds.y)
    sol = dual_cd_train(ds, C=1.0)
    assert sol.converged
    assert sol.n_sweeps <= 200
    assert kkt_max(sol, ds, 1.0) <= 1e-9


# The step test at the start of each pass picks the coordinates and certifies
# the returned alpha.  The sign-rule shrinking it replaced took 43-74 passes here.
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("C", [50.0, 100.0])
def test_dual_cd_pass_count_toy_at_large_C(seed, C):
    ds = gen_toy(ToySpec(seed=seed))
    sol = dual_cd_train(ds, C)
    assert sol.converged
    assert sol.n_sweeps <= 60
    assert best_coordinate_improvement(sol, ds, C) < 1e-15


# At so small a C one pass takes every alpha to C, so the subspace step meets
# an empty face: no coordinate is free.
@pytest.mark.parametrize("C", [1e-4, 1e-3])
def test_dual_cd_where_one_pass_leaves_no_free_coordinate(C):
    ds = gen_toy(ToySpec(seed=0))
    sol = dual_cd_train(ds, C)
    assert sol.converged and sol.n_sweeps == 1
    assert np.all(sol.alpha == C)
    assert kkt_max(sol, ds, C) < 1e-15  # the rounding of 1 - xi - margin



# The certificate is the relative duality gap, which does not change with the
# feature scale.  The absolute 1e-15 step test alone certified every x1e4 copy,
# with gaps up to 7.4e-5; toy seed 3 at C = 100 had a gap of 2.4e-6 and a
# complementarity residual of 6.3e-3.
@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("C", [1.0, 100.0])
@pytest.mark.parametrize("seed", range(5))
def test_dual_cd_converged_is_a_small_duality_gap(seed, C, scale):
    toy = gen_toy(ToySpec(seed=seed))
    ds = LabeledDataset(scale * toy.X, toy.y)
    sol = dual_cd_train(ds, C)
    assert sol.converged == (sol.gap <= 1e-9)
    w_aug = sol.model.w_aug
    primal = hinge_objective(w_aug, augment(ds).matrix, ds.y, C)
    dual = sol.alpha.sum() - 0.5 * (w_aug @ w_aug)
    assert abs(sol.gap - (primal - dual) / primal) <= 1e-13
    if scale < 1e4:
        assert sol.converged
    if (seed, C, scale) == (3, 100.0, 1e4):
        assert not sol.converged

# -------------------------------------------------------------- kkt_check

def test_kkt_exact_two_point_optimum():
    ds = two_point_dataset()
    sol = dual_cd_train(ds, C=10.0)
    report = kkt_check(sol.model, sol.alpha, ds, C=10.0)
    assert report.stationarity_residual <= 1e-10
    assert report.dual_balance_residual <= 1e-10
    assert report.complementarity_residual <= 1e-10
    assert report.feasibility_violation <= 1e-10
    assert report.box_violation <= 1e-10


def test_kkt_flags_infeasible_zero_point():
    # alpha = 0 forces xi = 0, so a zero model on violated data is infeasible
    from lpsvm.core import SvmModel
    ds = gen_toy(ToySpec(seed=14, n_per_class=10))
    report = kkt_check(SvmModel(np.zeros(2), 0.0), np.zeros(ds.n), ds, C=1.0)
    assert report.feasibility_violation == 1.0
    assert report.box_violation == 0.0


def test_kkt_residuals_of_converged_dual_solutions():
    for seed in (15, 16, 17):
        ds = gen_toy(ToySpec(seed=seed, n_per_class=20))
        for C in (1.0, 10.0):
            sol = dual_cd_train(ds, C)
            assert sol.converged
            report = kkt_check(sol.model, sol.alpha, ds, C)
            assert report.stationarity_residual <= 1e-6
            assert report.complementarity_residual <= 1e-6
            assert report.feasibility_violation <= 1e-6
            assert report.box_violation <= 1e-6


def test_kkt_box_violation_is_plus_zero_at_a_feasible_alpha():
    ds = gen_toy(ToySpec(seed=0))
    sol = dual_cd_train(ds, C=1.0)
    box = kkt_check(sol.model, sol.alpha, ds, C=1.0).box_violation
    assert box == 0.0 and math.copysign(1.0, box) == 1.0


def test_kkt_stationarity_is_finite_where_its_square_overflows():
    # features x 1e-200 and w x 1e200 keep every margin, so the residual
    # w - X^T (alpha y) is about 1e200 w, whose squared norm overflows
    ds = gen_toy(ToySpec(seed=0))
    sol = dual_cd_train(ds, C=1.0)
    tiny = LabeledDataset(ds.X * 1e-200, ds.y)
    report = kkt_check(SvmModel(sol.model.w * 1e200, sol.model.b), sol.alpha, tiny, C=1.0)
    assert report.stationarity_residual == pytest.approx(1e200 * math.hypot(*sol.model.w),
                                                         rel=1e-12)
    plain = kkt_check(sol.model, sol.alpha, ds, C=1.0)
    assert report.complementarity_residual == pytest.approx(plain.complementarity_residual,
                                                            abs=1e-12)


def test_kkt_rejects_non_finite_alpha():
    ds = two_point_dataset()
    sol = dual_cd_train(ds, C=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^alpha"):
            kkt_check(sol.model, np.array([0.5, bad]), ds, C=1.0)


def test_kkt_rejects_size_mismatch():
    ds = two_point_dataset()
    sol = dual_cd_train(ds, C=1.0)
    with pytest.raises(ValueError, match="shape"):
        kkt_check(sol.model, np.zeros(5), ds, C=1.0)


def test_kkt_rejects_dimension_mismatch():
    # the one message core.decision_values gives for every model/data mismatch
    ds = gen_toy(ToySpec(seed=14, n_per_class=10))
    model = dual_cd_train(ds, C=1.0).model
    wide = LabeledDataset(np.hstack([ds.X, ds.X]), ds.y)
    with pytest.raises(ValueError, match="dimension mismatch: model has k=2, input has k=4"):
        kkt_check(model, np.zeros(ds.n), wide, C=1.0)


# ------------------------------------------------- p < 1 local optimality

@pytest.mark.parametrize("seed", range(5))
def test_p_half_fits_are_local_minima_for_lbfgsb(seed):
    # J is nonconvex for p < 1, so the reference is warm-started at the
    # momentum solution: L-BFGS-B (Liu & Nocedal 1989) over the same public
    # objective and gradient must find no meaningful descent from there.
    # A cold start from w = 0 may land on a different local minimum.
    optimize = pytest.importorskip("scipy.optimize")
    ds = gen_toy(ToySpec(seed=seed))
    X_aug, y = augment(ds).matrix, ds.y
    for C in (1.0, 50.0, 100.0):
        cfg = TrainConfig(C=C, p=0.5, s=100.0, eps=0.9, max_iter=8000,
                          tol_obj=1e-10, tol_grad=1e-6)
        model, trace = train(ds, cfg)
        value = objective(model.w_aug, X_aug, y, cfg)
        ref = optimize.minimize(objective, model.w_aug, args=(X_aug, y, cfg), jac=gradient,
                                method="L-BFGS-B",
                                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000})
        assert (value - ref.fun) / abs(value) <= 1e-6, f"C={C}: L-BFGS-B lowered J to {ref.fun}"
        scale = np.linalg.norm(gradient(np.zeros(ds.k + 1), X_aug, y, cfg))
        assert trace.final_grad_norm / scale <= 1e-4, f"C={C}: not stationary"


def test_p_03_seed1_fit_is_a_strict_local_minimum():
    # L-BFGS-B warm-started at this fit lowers J by 8.3 %, but by crossing a
    # barrier into another basin: the fit itself is a strict local minimum,
    # not a saddle or plateau stop.  The Hessian is the central-difference
    # Jacobian of the analytic gradient (eigenvalues about 10.6, 727, 8725).
    ds = gen_toy(ToySpec(seed=1))
    X_aug, y = augment(ds).matrix, ds.y
    cfg = TrainConfig(C=100.0, p=0.3, s=100.0, eta=2e-4, eps=0.9, max_iter=8000,
                      tol_obj=1e-10, tol_grad=1e-6)
    model, trace = train(ds, cfg)
    assert trace.converged
    w, h = model.w_aug, 1e-6
    H = np.column_stack([(gradient(w + h * e, X_aug, y, cfg) - gradient(w - h * e, X_aug, y, cfg))
                         / (2.0 * h) for e in np.eye(w.size)])
    eigenvalues = np.linalg.eigvalsh(0.5 * (H + H.T))
    assert np.all(eigenvalues > 0.0), f"Hessian eigenvalues {eigenvalues}"


def test_p_03_seed1_path_fit_ends_below_the_lbfgsb_basin():
    # The cold fit above ends at J = 1014.18, and L-BFGS-B from it crosses
    # into a basin at J = 929.6.  The smoothing path, from s = 1, ends below
    # that basin (923.65), and warm-started L-BFGS-B finds no descent there.
    optimize = pytest.importorskip("scipy.optimize")
    ds = gen_toy(ToySpec(seed=1))
    X_aug, y = augment(ds).matrix, ds.y
    cfg = TrainConfig(C=100.0, p=0.3, s=100.0, s_start=1.0, eta=2e-4, eps=0.9, max_iter=8000,
                      tol_obj=1e-10, tol_grad=1e-6)
    model, trace = train(ds, cfg)
    assert trace.converged
    value = objective(model.w_aug, X_aug, y, cfg)
    assert value < 929.6
    ref = optimize.minimize(objective, model.w_aug, args=(X_aug, y, cfg), jac=gradient,
                            method="L-BFGS-B",
                            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 2000})
    assert (value - ref.fun) / abs(value) < 1e-6, f"L-BFGS-B lowered J to {ref.fun}"
