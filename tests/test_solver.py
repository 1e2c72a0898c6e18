import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpsvm import solver
from lpsvm.core import LabeledDataset, augment, reg_diag, signed_design
from lpsvm.data import ToySpec, gen_toy
from lpsvm.oracle import fd_gradient
from lpsvm.solver import (
    _ARMIJO,
    _BACKTRACK_FLOOR,
    STOP_GRADIENT,
    STOP_ITERATION_CAP,
    STOP_OBJECTIVE,
    DivergenceError,
    TrainConfig,
    gradient,
    objective,
    _backtrack,
    _coeff,
    _grad_pass,
    _hessian,
    _newton_direction,
    _softplus_pair,
    _value_pass,
    smoothed_plus,
    train,
)

# Pre-computed with a 50-digit evaluator: log(1 + e^-100) / 100.
SP_MINUS_ONE_S100 = 3.720075976020836e-46

# Exact minimizer of the smoothed two-point objective (C=10, s=200, p=1):
# the root of w = 2 C sigma(s (1 - w)), found independently by bisection to
# 50 digits.  The unsmoothed QP optimum is w=1; smoothing shifts it by
# ~ln(2C-1)/s = 0.0147.
TWO_POINT_SMOOTHED_OPT = 1.0146456421408278

# Seeded 10-point instance captured from the toy generator (seed=123, 5 per
# class) so the frozen oracle value below is self-contained.
TEN_POINT_X = np.array([
    [1.0108786496521491, 1.6322133485321169],
    [3.2879252612892484, 2.1939744191326134],
    [2.920230899639857, 2.5771037912572514],
    [1.3635363536290195, 2.5419522204102933],
    [1.6834045488341838, 1.67761088384104],
    [0.09716731867045719, -1.5259304065189514],
    [1.1921661041016585, -0.6710896751741096],
    [1.0002694196594604, 0.1363211238531175],
    [1.5320330796287964, -0.6599694137918207],
    [-0.31179485646991756, 0.337769126558826],
])
TEN_POINT_Y = np.array([1.0] * 5 + [-1.0] * 5)
TEN_POINT_W = np.array([0.7, -1.2, 0.3])
# objective(TEN_POINT_W; C=2.5, p=0.5, s=100, bias unregularized) to 50 digits
# is 36.2280410001288083086903833515574..., rounded to double:
TEN_POINT_OBJECTIVE = 36.22804100012881


def objective_decimal(w_aug, X_aug, y, C, p, s, regularize_bias, prec=50):
    """Independent high-precision re-evaluation of the smoothed objective
    using stdlib decimal arithmetic (exact conversion of every double)."""
    with localcontext() as ctx:
        ctx.prec = prec
        dC, dp, ds = Decimal(C), Decimal(p), Decimal(s)
        w = [Decimal(float(v)) for v in w_aug]
        reg = w if regularize_bias else w[:-1]
        quad = sum(wi * wi for wi in reg) / 2
        total = Decimal(0)
        for row, label in zip(X_aug, y):
            dot = sum(Decimal(float(a)) * wi for a, wi in zip(row, w))
            t = ds * (1 - Decimal(float(label)) * dot)
            e_t = t.exp()
            # ln(1 + e^t) = e^t (1 - e^t/2 + ...), so below 10^-prec it is e^t
            # to a relative error below 10^-prec; above, 1 + e^t is taken with
            # enough digits to keep prec digits of e^t.
            if e_t < Decimal(10) ** -prec:
                n_i = e_t / ds
            else:
                with localcontext() as wide:
                    wide.prec = prec + max(0, -e_t.adjusted())
                    n_i = (1 + e_t).ln() / ds
            total += (dp * n_i.ln()).exp()
        return quad + dC * total


# ----------------------------------------------------------- smoothed_plus

def test_smoothed_plus_at_zero():
    assert smoothed_plus(0.0, 100.0) == pytest.approx(math.log(2.0) / 100.0, rel=1e-15)


def test_smoothed_plus_saturates_at_one():
    assert smoothed_plus(1.0, 100.0) == 1.0


def test_smoothed_plus_deep_negative_frozen_value():
    assert smoothed_plus(-1.0, 100.0) == pytest.approx(SP_MINUS_ONE_S100, rel=1e-12)


def test_smoothed_plus_extreme_range_is_finite():
    for x in (-1e6, -1e3, 1e3, 1e6):
        value = smoothed_plus(x, 100.0)
        assert np.isfinite(value)
    assert smoothed_plus(1e6, 100.0) == 1e6
    assert smoothed_plus(-1e6, 100.0) == 0.0
    # even where s*x itself would overflow
    assert smoothed_plus(1.7e308, 100.0) == 1.7e308
    assert smoothed_plus(-1.7e308, 100.0) == 0.0


def test_smoothed_plus_vectorized():
    out = smoothed_plus(np.array([-1.0, 0.0, 1.0]), 100.0)
    assert out.shape == (3,)
    assert out[2] == 1.0


def test_smoothed_plus_rejects_bad_sharpness():
    with pytest.raises(ValueError):
        smoothed_plus(0.0, 0.0)


@given(st.floats(-700, 700), st.sampled_from([20.0, 100.0, 200.0]))
def test_smoothing_bound(x, s):
    gap = smoothed_plus(x, s) - max(0.0, x)
    fp_slack = 1e-15 * max(1.0, abs(x))  # rounding of (s*x)/s at large |x|
    assert -fp_slack <= gap <= math.log(2.0) / s + fp_slack


@given(st.floats(-700, 700), st.floats(-700, 700), st.sampled_from([20.0, 100.0]))
def test_smoothed_plus_monotone(x1, x2, s):
    lo, hi = min(x1, x2), max(x1, x2)
    assert smoothed_plus(lo, s) <= smoothed_plus(hi, s)


# ------------------------------------------------------------ softplus pair

def test_softplus_pair_matches_logaddexp_within_2_ulp():
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, 33.0, -33.0, 745.0, -745.0, 1e300, -1e300, math.inf, -math.inf]
    t = np.concatenate([
        edges,
        rng.normal(0.0, 40.0, 4000),
        rng.uniform(-750.0, 750.0, 4000),
        rng.normal(0.0, 1e-3, 1000),
        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-300.0, 300.0, 1000),
    ])
    sp, sp_neg = _softplus_pair(t)
    for got, want in ((sp, np.logaddexp(0.0, t)), (sp_neg, np.logaddexp(0.0, -t))):
        inf = np.isinf(want)
        assert np.array_equal(got[inf], want[inf])
        assert np.all(np.abs(got[~inf] - want[~inf]) <= 2.0 * np.spacing(want[~inf]))
    assert np.isnan(_softplus_pair(np.array([np.nan]))).all()


def test_softplus_pair_is_the_unmasked_form_bit_for_bit():
    # log1p runs only where exp(-|t|) > 2^-53, since log1p(x) is x, bit for
    # bit, at and below that; skipping it there must change no output bit.
    rng = np.random.default_rng(29)
    cut = 53.0 * math.log(2.0)  # 36.74: exp(-|t|) = 2^-53
    both = np.array([[1.0], [-1.0]])
    t = np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, math.nan],
        (both * (cut + rng.uniform(-0.5, 0.5, 2000))).ravel(),  # either side of +-36.7
        (both * rng.uniform(708.0, 746.0, 2000)).ravel(),  # subnormal and underflowing exp
        rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-300.0, 308.0, 4000),
    ])
    l = np.log1p(np.exp(np.copysign(t, -1.0)))
    wants = (np.maximum(t, 0.0) + l, l - np.minimum(t, 0.0))
    for got, want in zip(_softplus_pair(t), wants):
        nan = np.isnan(want)
        assert nan.sum() == 1 and np.isnan(got[nan]).all()  # NaN in, NaN out
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    skipped = np.exp(-np.abs(t)) <= 2.0 ** -53
    assert 2000 < skipped.sum() < len(t) - 2000  # the grid covers both sides of the mask


# ---------------------------------------------------------------- objective

def test_objective_zero_weights_is_C_times_n():
    ds = gen_toy(ToySpec(seed=0, n_per_class=10))
    X_aug, y = augment(ds).matrix, ds.y
    for p in (0.3, 0.7, 1.0):
        cfg = TrainConfig(C=3.0, p=p, s=100.0)
        assert objective(np.zeros(3), X_aug, y, cfg) == 3.0 * ds.n


def test_objective_satisfied_margin_leaves_quadratic_term():
    # one point x=1, y=+1, w=2, b=0: hinge term underflows, 0.5*4 remains
    X_aug = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    cfg = TrainConfig(C=1.0, p=0.5, s=100.0)
    assert objective(np.array([2.0, 0.0]), X_aug, y, cfg) == 2.0


def test_objective_matches_high_precision_oracle():
    X_aug = np.hstack([TEN_POINT_X, np.ones((10, 1))])
    cfg = TrainConfig(C=2.5, p=0.5, s=100.0, regularize_bias=False)
    got = objective(TEN_POINT_W, X_aug, TEN_POINT_Y, cfg)
    assert got == pytest.approx(TEN_POINT_OBJECTIVE, rel=1e-13)
    recomputed = float(objective_decimal(TEN_POINT_W, X_aug, TEN_POINT_Y,
                                         2.5, 0.5, 100.0, False))
    assert recomputed == pytest.approx(TEN_POINT_OBJECTIVE, rel=1e-15)


# Rows whose scaled margins t = 100 (1 - y w'.x') at w' = (1, 0) are -900,
# 150 and -3900: two softplus values underflow to 0.
DEEP_X_AUG = np.array([[10.0, 1.0], [0.5, 1.0], [40.0, 1.0]])
DEEP_Y = np.array([1.0, -1.0, 1.0])


@pytest.mark.parametrize("p", [0.01, 0.1, 0.3, 0.5])
def test_objective_matches_high_precision_oracle_at_deep_margins(p):
    w = np.array([1.0, 0.0])
    got = objective(w, DEEP_X_AUG, DEEP_Y, TrainConfig(C=1.0, p=p, s=100.0))
    expected = float(objective_decimal(w, DEEP_X_AUG, DEEP_Y, 1.0, p, 100.0, False))
    assert got == pytest.approx(expected, rel=1e-15)


def test_objective_matches_high_precision_oracle_at_small_p():
    # Random small-p cases, many with a softplus that underflows (t < -708).
    rng = np.random.default_rng(7)
    deep = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        X_aug = np.hstack([rng.normal(0.0, 5.0, (n, 1)), np.ones((n, 1))])
        y, w = rng.choice([-1.0, 1.0], n), rng.normal(0.0, 3.0, 2)
        C, s = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(1, 3)
        p = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        deep += bool((s * (1.0 - y * (X_aug @ w)) < -708.0).any())
        got = objective(w, X_aug, y, TrainConfig(C=C, p=p, s=s))
        expected = float(objective_decimal(w, X_aug, y, C, p, s, False))
        assert got == pytest.approx(expected, rel=1e-14)
    assert deep >= 20


# One sample at margin 10 (t = -900) at p = 0.01: softplus(t) underflows to
# 0, but its term (e^t / s)^p = exp(p (t - log s)) is 1.1786e-4.
UNDERFLOW_X_AUG, UNDERFLOW_Y = np.array([[10.0, 1.0]]), np.array([1.0])
UNDERFLOW_CFG = TrainConfig(C=1.0, p=0.01, s=100.0)


def test_objective_keeps_a_term_whose_softplus_underflows():
    # 0.5 + exp(0.01 (-900 - ln 100)), evaluated to 50 digits and rounded to double.
    got = objective(np.array([1.0, 0.0]), UNDERFLOW_X_AUG, UNDERFLOW_Y, UNDERFLOW_CFG)
    assert got == pytest.approx(0.5001178554479452, rel=1e-15)


def test_fd_gradient_sees_the_slope_of_a_term_whose_softplus_underflows():
    w = np.array([1.0, 0.0])
    g = gradient(w, UNDERFLOW_X_AUG, UNDERFLOW_Y, UNDERFLOW_CFG)
    fd = fd_gradient(w, UNDERFLOW_X_AUG, UNDERFLOW_Y, UNDERFLOW_CFG)
    assert np.all(np.abs(fd - g) <= 1e-6 * np.abs(g))


def test_objective_rejects_nonfinite_iterate():
    X_aug = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    with pytest.raises(DivergenceError):
        objective(np.array([np.nan, 0.0]), X_aug, y, TrainConfig())


# ----------------------------------------------------------------- gradient

def test_gradient_p1_is_smoothed_hinge():
    ds = gen_toy(ToySpec(seed=2, n_per_class=8))
    X_aug, y = augment(ds).matrix, ds.y
    cfg = TrainConfig(C=2.0, p=1.0, s=100.0)
    w = np.array([0.4, -0.2, 0.1])
    z = 1.0 - y * (X_aug @ w)
    sigma = 1.0 / (1.0 + np.exp(-cfg.s * z))
    d = np.array([1.0, 1.0, 0.0])
    expected = d * w - cfg.C * (X_aug.T @ (sigma * y))
    assert np.allclose(gradient(w, X_aug, y, cfg), expected, rtol=1e-12, atol=1e-12)


def test_gradient_deep_satisfied_is_exactly_regularizer():
    X_aug = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    w = np.array([50.0, 0.0])  # z = -49: coefficient underflows to exact 0
    for p in (0.3, 0.5, 1.0):
        cfg = TrainConfig(C=5.0, p=p, s=100.0)
        assert np.array_equal(gradient(w, X_aug, y, cfg), np.array([50.0, 0.0]))


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("s", [20.0, 100.0])
def test_gradient_matches_finite_differences(p, s):
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(5):
        n, k = int(rng.integers(3, 30)), int(rng.integers(1, 8))
        y = rng.choice([-1.0, 1.0], size=n)
        if not (np.any(y == 1.0) and np.any(y == -1.0)):
            continue
        X_aug = np.hstack([rng.normal(size=(n, k)), np.ones((n, 1))])
        w = rng.uniform(-2.0, 2.0, size=k + 1)
        cfg = TrainConfig(C=float(rng.uniform(0.5, 5.0)), p=p, s=s)
        g = gradient(w, X_aug, y, cfg)
        fd = fd_gradient(w, X_aug, y, cfg, step=1e-6)
        mask = np.abs(g) >= 1e-8
        assert np.all(np.abs(fd[mask] - g[mask]) <= 1e-4 * np.abs(g[mask]))


def test_gradient_finite_over_extreme_margins():
    X_aug = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    for p in (0.3, 0.5, 1.0):
        cfg = TrainConfig(C=1.0, p=p, s=100.0)
        for z in (-1e6, -10.0, 0.0, 10.0, 1e6):
            w = np.array([1.0 - z, 0.0])
            assert np.all(np.isfinite(gradient(w, X_aug, y, cfg)))


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_coeff_is_finite_at_infinite_margins(p):
    # sigma(t) n^(p-1) is sigma(t) at p = 1, and 0 at t = -inf for any p and
    # at t = +inf for p < 1; unclipped, log n = +-inf made it NaN at p = 1.
    t = np.array([-math.inf, math.inf])
    with np.errstate(divide="ignore"):  # log(0) at t = -inf, below the cut
        coeff, _ = _coeff(t, *_softplus_pair(t), TrainConfig(p=p))
    assert np.array_equal(coeff, [0.0, 1.0 if p == 1.0 else 0.0])
    # a margin that overflows to -inf adds nothing to the gradient
    w = np.array([1e306, 0.0])
    g = gradient(w, np.array([[1e306, 1.0]]), np.array([1.0]), TrainConfig(p=p))
    assert np.array_equal(g, w)


def log_domain_coeff(t, p, s):
    """sigma(t) n^(p-1), n = softplus(t) / s, in the log domain at any p:
    log n = log(softplus(t)) - log s, with log(softplus(t)) = t below the
    -33 cut, clipped to +-max-double; then exp((p-1) log n + log sigma(t))."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sp, sp_neg = _softplus_pair(t)
        log_n = np.where(t < -33.0, t, np.log(sp)) - math.log(s)
        log_n = np.clip(log_n, -np.finfo(np.float64).max, np.finfo(np.float64).max)
        return np.exp((p - 1.0) * log_n - sp_neg)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("s", [1.0, 100.0, 1e300])
def test_coeff_is_the_log_domain_form_bit_for_bit(p, s):
    # At p = 1 `_coeff` takes exp(-softplus(-t)) without the log form, which
    # must give the same bits; at every p the bitwise locks against
    # `reference_train` cannot see a rounding change here, since `gradient`
    # shares `_coeff` with the solver.
    rng = np.random.default_rng(17)
    sign, big = rng.choice([-1.0, 1.0], 2000), np.finfo(np.float64).max
    t = np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, big, -big, 745.0, -745.0,
         -33.0, np.nextafter(-33.0, 0.0), np.nextafter(-33.0, -math.inf)],
        sign * 10.0 ** rng.uniform(-300.0, 308.0, 2000),  # across +-1e308
        745.0 + rng.uniform(-3.0, 3.0, 1000), -745.0 + rng.uniform(-3.0, 3.0, 1000),
        -33.0 + rng.uniform(-1.0, 1.0, 1000),  # around the cut
        rng.uniform(-40.0, 40.0, 2000),
    ])
    with np.errstate(divide="ignore"):  # log(0) below the cut, at p < 1
        got, _ = _coeff(t, *_softplus_pair(t), TrainConfig(p=p, s=s))
    want = log_domain_coeff(t, p, s)
    nan = np.isnan(want)
    assert nan.sum() == 1 and np.isnan(got[nan]).all()  # NaN in, NaN out
    # exp never returns -0, so equal values here are equal bits
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    if p == 1.0:  # the margins tell the forms of sigma(t) apart: 1 / (1 + e^-t) differs
        with np.errstate(over="ignore"):
            assert (1.0 / (1.0 + np.exp(-t[~nan])) != want[~nan]).sum() > 100


# ------------------------------------------------------------------ hessian

def _fd_hessian(w_aug, X_aug, y, cfg, step):
    """Central differences of `gradient`, one column per coordinate."""
    cols = []
    for j in range(len(w_aug)):
        shift = np.zeros_like(w_aug)
        shift[j] = step
        cols.append((gradient(w_aug + shift, X_aug, y, cfg)
                     - gradient(w_aug - shift, X_aug, y, cfg)) / (2.0 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize("regularize_bias", [False, True])
@pytest.mark.parametrize("scale, s", [(1.0, 100.0), (1e4, 1000.0)])
def test_hessian_matches_central_differences_and_is_psd(scale, s, regularize_bias,
                                                         monkeypatch):
    # At the returned point of a p = 1 fit many margins sit where the
    # curvature peaks.  With features x 1e4 at s = 1000 (extreme margins)
    # some scaled margins also lie below the log-softplus cut and some above
    # 745, where the curvature underflows to 0.
    toy = gen_toy(ToySpec(seed=0, n_per_class=20))
    ds = LabeledDataset(toy.X * scale, toy.y)
    cfg = TrainConfig(C=1.0, p=1.0, s=s, max_iter=1500, tol_obj=1e-10, tol_grad=1e-6,
                      regularize_bias=regularize_bias)
    model, _ = train(ds, cfg)
    X_aug, yX = augment(ds).matrix, signed_design(ds)
    d = reg_diag(ds.k + 1, regularize_bias)
    rng = np.random.default_rng(3)
    for w in (model.w_aug, model.w_aug * (1.0 + rng.normal(0.0, 1e-3, ds.k + 1))):
        _, state = _grad_pass(_value_pass(w, yX, d, cfg)[1], yX, cfg)
        t = state[0]
        if scale > 1.0:
            assert (t < -33.0).any() and (t > 745.0).any()
        H = _hessian(state, yX, d, cfg)
        # the curvature width in w is 1 / (s max|x'|); step well inside it
        fd = _fd_hessian(w, X_aug, ds.y, cfg, step=1e-3 / (s * np.abs(X_aug).max()))
        scale_ij = np.sqrt(np.outer(np.diag(H), np.diag(H)))
        assert np.all(np.abs(fd - H) <= 1e-5 * scale_ij + 1e-9 * np.abs(H).max())
        lam = np.linalg.eigvalsh(H)
        assert lam[0] >= -1e-12 * lam[-1]
        # summed over blocks of rows, H agrees with the one-block sum
        monkeypatch.setattr(solver, "_HESSIAN_ROWS", 7)
        blocked = _hessian(state, yX, d, cfg)
        monkeypatch.undo()
        assert np.allclose(blocked, H, rtol=1e-12, atol=1e-12 * np.abs(H).max())
        # and each is, bit for bit, the in-order sum of its blocks' products
        assert np.array_equal(blocked, reference_blocked_hessian(w, X_aug, ds.y, cfg, 7))
        assert np.array_equal(H, reference_blocked_hessian(w, X_aug, ds.y, cfg,
                                                           solver._HESSIAN_ROWS))


@pytest.mark.parametrize("scale", [1.0, 1e2])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_p_below_1_hessian_matches_central_differences(p, scale, monkeypatch):
    # At p < 1, h = C p c ((p - 1) sigma(t) / n + s sigma(-t)) is negative
    # where n^p bends down, so H may be indefinite.  It is checked at the
    # returned point of a smoothing-path fit, where margins sit on both sides
    # of the bend, and next to it; with features x 1e2 most scaled margins
    # are far outside [-33, 745].  Central differences cannot see a change
    # in H's rounding, so H is also the log-domain reference bit for bit.
    toy = gen_toy(ToySpec(seed=0, n_per_class=20))
    ds = LabeledDataset(toy.X * scale, toy.y)
    cfg = TrainConfig(C=10.0, p=p, s=100.0, s_start=1.0, max_iter=1500, tol_obj=1e-10,
                      tol_grad=1e-6)
    model, _ = train(ds, cfg)
    X_aug, yX = augment(ds).matrix, signed_design(ds)
    d = reg_diag(ds.k + 1, False)
    rng = np.random.default_rng(5)
    for w in (model.w_aug, model.w_aug * (1.0 + rng.normal(0.0, 1e-3, ds.k + 1))):
        with np.errstate(divide="ignore"):  # log(0) in `_coeff` below the cut
            _, state = _grad_pass(_value_pass(w, yX, d, cfg)[1], yX, cfg)
        H = _hessian(state, yX, d, cfg)
        fd = _fd_hessian(w, X_aug, ds.y, cfg, step=1e-3 / (cfg.s * np.abs(X_aug).max()))
        diag = np.abs(np.diag(H))
        assert np.all(np.abs(fd - H) <= 1e-5 * np.sqrt(np.outer(diag, diag))
                      + 1e-9 * np.abs(H).max())
        assert np.array_equal(H, reference_hessian(w, X_aug, ds.y, cfg))
        monkeypatch.setattr(solver, "_HESSIAN_ROWS", 7)
        blocked = _hessian(state, yX, d, cfg)
        monkeypatch.undo()
        assert np.array_equal(blocked, reference_blocked_hessian(w, X_aug, ds.y, cfg, 7))


def _curvature_state(t, cfg):
    """The state `_grad_pass` hands `_hessian` at scaled margins t, without D w'."""
    sp, sp_neg = _softplus_pair(t)
    with np.errstate(divide="ignore"):  # log(0) in `_coeff` at t = -inf
        return (t, sp, sp_neg, None, *_coeff(t, sp, sp_neg, cfg))


def test_p_below_1_hessian_is_finite_at_infinite_margins():
    # c and h are 0 at t = +-inf: log n = +-inf (clipped below at -max)
    # makes every exponent -inf, never inf - inf.  So the infinite margins
    # add nothing, and no floating-point warning is raised.
    yX, d, cfg = np.ones((3, 2)), reg_diag(2, False), TrainConfig(p=0.01)
    t = np.array([-math.inf, math.inf, 0.0])
    state = _curvature_state(t, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = _hessian(state, yX, d, cfg)
    assert np.isfinite(H).all()
    t0 = np.array([0.0])
    assert np.array_equal(H, _hessian(_curvature_state(t0, cfg), yX[:1], d, cfg))


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_p_below_1_hessian_is_the_reference_at_infinite_margins(p):
    # The first two margins overflow, to t = -inf and t = +inf; the last two
    # give t = -20 and t = -80, the latter below the log-softplus cut.
    ds = LabeledDataset([[1e306], [1e306], [1e-3], [-2e-3]], [1.0, -1.0, 1.0, -1.0])
    X_aug, yX, d = augment(ds).matrix, signed_design(ds), reg_diag(2, False)
    w, cfg = np.array([1e3, 0.2]), TrainConfig(C=3.0, p=p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, state = _grad_pass(_value_pass(w, yX, d, cfg)[1], yX, cfg)
    t = state[0]
    assert np.array_equal(t[:2], [-math.inf, math.inf]) and np.allclose(t[2:], [-20.0, -80.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = _hessian(state, yX, d, cfg)
    assert np.isfinite(H).all() and H[1, 1] > 0.0
    assert np.array_equal(H, reference_hessian(w, X_aug, ds.y, cfg))


def test_newton_direction_solves_or_declines():
    # `_newton_direction` damps its H in place, so each call gets a fresh one.
    def H():
        return np.array([[2.0, 1.0], [1.0, 3.0]])

    g = np.array([1.0, -2.0])
    direction = _newton_direction(H(), g)
    damped = H() + math.sqrt(5.0) * np.eye(2)  # H + ||g|| I
    assert np.allclose(damped @ direction, -g) and g @ direction < 0.0
    # where H is singular, the damping still gives a step, of length 1 at H = 0
    assert np.allclose(_newton_direction(np.zeros((2, 2)), g), -g / math.sqrt(5.0))
    # H not finite, H + ||g|| I singular (H = 0, g = 0), and a direction that
    # does not descend
    assert _newton_direction(np.array([[np.inf, 0.0], [0.0, 1.0]]), g) is None
    assert _newton_direction(np.zeros((2, 2)), np.zeros(2)) is None
    assert _newton_direction(-3.0 * H(), g) is None
    # ||g|| = 1e308 and H + ||g|| I = 5e307 I: d = -2 g is finite, but g.d
    # overflows to -inf
    with np.errstate(over="ignore"):
        assert _newton_direction(-5e307 * np.eye(2), np.array([1e308, 0.0])) is None


@pytest.mark.parametrize("value_trial, want", [
    (1.5, 0.5 / 1.5),  # the minimiser 1/3 lies inside [0.1, 0.5]
    (0.99995, 0.5),  # the minimiser 1 / 1.9999 lies above it
    (21.0, 0.1),  # the minimiser 0.025 lies below it
    (math.inf, 0.1),  # a trial whose J overflowed
    (math.nan, 0.1),
])
def test_backtrack_takes_the_quadratic_minimiser_within_its_bounds(value_trial, want):
    # J(0) = 1 and J'(0) = -1, so a rejected trial at a = 1 gives the
    # quadratic 1 - x + J(1) x^2, minimised at 1 / (2 J(1)).
    assert _backtrack(1.0, -1.0, 1.0, value_trial) == pytest.approx(want, rel=1e-15)
    # the rule scales with a: a trial at a = 4 with the same quadratic in x / 4
    assert _backtrack(4.0, -0.25, 1.0, value_trial) == pytest.approx(4.0 * want, rel=1e-15)
    assert _backtrack(1.0, -math.inf, 1.0, value_trial) == _BACKTRACK_FLOOR


# -------------------------------------------------------------------- train

def two_point_dataset():
    return LabeledDataset([[1.0], [-1.0]], [1.0, -1.0])


def test_train_two_point_symmetric_instance():
    cfg = TrainConfig(C=10.0, p=1.0, s=200.0, eta=1e-3, eps=0.9, max_iter=20000,
                      tol_obj=1e-14, tol_grad=1e-10, regularize_bias=False)
    model, trace = train(two_point_dataset(), cfg)
    # the update keeps the bias at exactly 0 by symmetry
    assert model.b == 0.0
    # converges to the smoothed optimum, which sits ~0.0146 above the QP
    # solution w=1 (the smoothing bias at s=200, C=10)
    assert model.w[0] == pytest.approx(TWO_POINT_SMOOTHED_OPT, abs=1e-5)
    assert abs(model.w[0] - 1.0) <= 2e-2
    assert trace.converged


def test_train_label_negation_is_exact():
    # at p = 1 the Newton trials mirror too: H is unchanged and d negates
    ds = gen_toy(ToySpec(seed=3, n_per_class=15))
    flipped = LabeledDataset(ds.X, -ds.y)
    for p in (0.5, 1.0):
        cfg = TrainConfig(C=2.0, p=p, s=100.0, eta=1e-3, max_iter=2000)
        m1, t1 = train(ds, cfg)
        m2, t2 = train(flipped, cfg)
        assert np.array_equal(m1.w, -m2.w)
        assert m1.b == -m2.b
        assert np.array_equal(t1.objective_history, t2.objective_history)


def test_train_is_deterministic():
    ds = gen_toy(ToySpec(seed=4, n_per_class=12))
    cfg = TrainConfig(C=1.0, p=0.5, eta=1e-3, max_iter=1500)
    m1, t1 = train(ds, cfg)
    m2, t2 = train(ds, cfg)
    assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
    assert np.array_equal(t1.objective_history, t2.objective_history)
    assert np.array_equal(t1.grad_norm_history, t2.grad_norm_history)


def test_train_trace_shapes_and_improvement():
    ds = gen_toy(ToySpec(seed=5, n_per_class=20))
    cfg = TrainConfig(C=1.0, p=0.5, eta=1e-3, max_iter=3000)
    model, trace = train(ds, cfg)
    assert trace.objective_history.shape == (trace.iterations + 1,)
    assert trace.grad_norm_history.shape == (trace.iterations,)
    assert trace.objective_history[-1] <= trace.objective_history[0]
    assert trace.objective_history[0] == cfg.C * ds.n
    assert trace.initial_grad_norm == trace.grad_norm_history[0] > 0.0
    assert trace.relative_grad_norm == trace.final_grad_norm / trace.initial_grad_norm
    assert model.meta == cfg
    if trace.converged:
        assert trace.stop_reason != STOP_ITERATION_CAP


def test_train_stop_reasons():
    ds = gen_toy(ToySpec(seed=6, n_per_class=10))
    _, trace = train(ds, TrainConfig(eta=1e-3, max_iter=3))
    assert trace.stop_reason == STOP_ITERATION_CAP and not trace.converged
    _, trace = train(ds, TrainConfig(eta=1e-3, max_iter=5000, tol_obj=1e-6))
    assert trace.stop_reason == STOP_OBJECTIVE and trace.converged
    _, trace = train(ds, TrainConfig(eta=1e-3, max_iter=20000, tol_obj=1e-300,
                                     tol_grad=1e-2))
    assert trace.stop_reason == STOP_GRADIENT and trace.converged


def test_p1_newton_finish_ends_at_or_below_momentum(monkeypatch):
    # The paper's grid at the criterion-4 settings, on toy seeds 0-9: each
    # p = 1 fit ends with J no higher than the momentum-only loop's (where no
    # point has a Newton direction), and with ||grad J|| below a bound fixed
    # before the run, ten times the worst (1.1e-5) seen on this grid while the
    # Newton finish was first tuned.
    fits = {}
    for variant in (lambda H, g: None, solver._newton_direction):
        monkeypatch.setattr(solver, "_newton_direction", variant)
        fits[variant] = [train(gen_toy(ToySpec(seed=seed)),
                               dataclasses.replace(_grid_cfg(C, 1.0, rb), max_iter=8000))[1]
                         for seed in range(10) for C in (1.0, 50.0, 100.0) for rb in (False, True)]
    momentum, newton = fits.values()
    assert sum(t.iterations for t in newton) < sum(t.iterations for t in momentum) / 2
    for plain, finished in zip(momentum, newton):
        assert finished.objective_history[-1] <= plain.objective_history[-1]
        assert finished.converged and finished.final_grad_norm < 1e-4


def _sweep_draw(index):
    """Draw `index` of a seeded sweep of random p = 1 fits at ordinary scale:
    n samples and k Gaussian features times 10^e, labels with both classes,
    log-uniform C and s, an eta scaled to the features, a random bias
    setting, and the default stops."""
    rng = np.random.default_rng(12345)
    for _ in range(index + 1):
        n, k, e = int(rng.integers(2, 30)), int(rng.integers(1, 5)), int(rng.integers(0, 4))
        X = rng.normal(size=(n, k)) * 10.0**e
        y = rng.choice([-1.0, 1.0], n)
        y[0], y[1] = 1.0, -1.0
        C, s = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(0, 3)
        eta = 10.0 ** rng.uniform(-8, 0) * 10.0 ** (-2 * e)
        regularize_bias = bool(rng.integers(0, 2))
    return LabeledDataset(X, y), TrainConfig(C=C, p=1.0, s=s, eta=eta,
                                             regularize_bias=regularize_bias)


def _near_singular_start():
    # After its first step the fit sits next to w' = 0, where H is nearly
    # singular along the unregularized bias; undamped Newton trials
    # backtracked there for hundreds of trials and stopped on the objective
    # tolerance at J = 0.4235, against 0.1055 for momentum alone.
    X = [[0.0709], [0.4337], [0.2775], [0.5303], [0.5367], [0.6184], [-0.7950], [0.3000],
         [-1.6027], [0.2668]]
    return (LabeledDataset(X, [1.0] * 9 + [-1.0]),
            TrainConfig(C=0.05254, p=1.0, s=385.9, eta=1.77e-7))


@pytest.mark.parametrize("case, max_trials", [
    (_near_singular_start, 10),
    (lambda: _sweep_draw(159), 5000),  # undamped: J = 1.86 against momentum's 7.0e-6
    (lambda: _sweep_draw(401), 5000),  # undamped: J = 39.47 against momentum's 7.80
    # eta = 1.2e-14: a first momentum step stopped on the objective tolerance
    # after 1 iteration, at J = 5.85608092 and relative ||grad J|| 1
    (lambda: _sweep_draw(2), 50),
], ids=["near-singular-start", "sweep-draw-159", "sweep-draw-401", "sweep-draw-2"])
def test_p1_fit_ends_stationary_at_or_below_momentum(case, max_trials, monkeypatch):
    ds, cfg = case()
    _, trace = train(ds, cfg)
    monkeypatch.setattr(solver, "_newton_direction", lambda H, g: None)
    _, momentum = train(ds, cfg)
    assert trace.objective_history[-1] <= momentum.objective_history[-1]
    assert trace.relative_grad_norm < 1e-6 and trace.iterations <= max_trials


@pytest.mark.parametrize("regularize_bias", [False, True])
def test_p1_fit_does_not_depend_on_eta_or_eps(regularize_bias):
    # Every point of a p = 1 fit, w' = 0 included, takes a damped Newton
    # trial wherever the direction is finite, as it is throughout this fit:
    # the momentum knobs never act, and the fit is the same bit for bit.
    ds = gen_toy(ToySpec(seed=0))
    fits = [train(ds, TrainConfig(C=50.0, p=1.0, eta=eta, eps=eps,
                                  regularize_bias=regularize_bias))
            for eta in (1e-14, 1e-2, 1e6) for eps in (0.0, 0.9)]
    (model, trace), *others = fits
    assert trace.stop_reason != STOP_ITERATION_CAP
    for other_model, other in others:
        assert np.array_equal(other_model.w, model.w) and other_model.b == model.b
        assert np.array_equal(other.objective_history, trace.objective_history)
        assert np.array_equal(other.grad_norm_history, trace.grad_norm_history)
        assert other.restarts == trace.restarts


def test_train_rejects_single_class():
    ds = LabeledDataset([[1.0], [2.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="both classes"):
        train(ds, TrainConfig())


def test_train_divergence_names_iteration():
    ds = gen_toy(ToySpec(seed=7, n_per_class=10))
    # the first trial lands near 1e300, where J overflows
    with pytest.raises(DivergenceError, match="objective diverged at iteration 1$"):
        train(ds, TrainConfig(C=1.0, p=0.5, eta=1e300, max_iter=5000))


def test_train_recovers_from_oversized_step():
    ds = gen_toy(ToySpec(seed=7, n_per_class=10))
    model, trace = train(ds, TrainConfig(C=1.0, p=0.5, eta=1e6, max_iter=5000))
    assert trace.stop_reason != STOP_ITERATION_CAP and trace.converged
    assert trace.restarts > 0
    assert np.all(np.isfinite(model.w)) and math.isfinite(model.b)


def test_train_accepts_a_trial_that_ties():
    # the first step, 5e-324 * grad J(0), rounds to 0, so the first trial is
    # the start point itself; a tie counts as accepted, and an accepted step
    # that lowers J by nothing stops on the objective tolerance
    ds = LabeledDataset([[1.0], [0.5]], [1.0, -1.0])
    cfg = TrainConfig(C=0.5, eta=5e-324, tol_obj=1e-300)
    model, trace = train(ds, cfg)
    assert trace.stop_reason == STOP_OBJECTIVE
    assert trace.iterations == 1 and trace.restarts == 0
    assert trace.final_grad_norm == trace.grad_norm_history[0] > cfg.tol_grad
    assert np.array_equal(trace.objective_history, [1.0, 1.0])
    assert np.array_equal(model.w, [0.0]) and model.b == 0.0


def test_train_stops_at_a_stationary_start_before_any_trial():
    # identical samples with opposite labels: grad J(0) = 0 passes any
    # gradient tolerance, so the start point is returned after no iteration
    ds = LabeledDataset([[1.0], [1.0]], [1.0, -1.0])
    model, trace = train(ds, TrainConfig(tol_obj=1e-300, tol_grad=1e-300))
    assert trace.stop_reason == STOP_GRADIENT
    assert trace.iterations == 0 and trace.restarts == 0 and trace.final_grad_norm == 0.0
    assert trace.initial_grad_norm == 0.0 and trace.relative_grad_norm == 0.0
    assert np.array_equal(trace.objective_history, [2.0])
    assert np.array_equal(model.w, [0.0]) and model.b == 0.0


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_train_gradient_stop_returns_the_point_it_tested(p):
    # the gradient tolerance is tested at the point the fit would step from,
    # so a fit that stops on it returns a point below it
    for seed in range(10):
        ds = gen_toy(ToySpec(seed=seed))
        for tol_grad in (1e-1, 3e-2, 1e-2, 1e-3):
            for C in (1.0, 10.0):
                _, trace = train(ds, TrainConfig(C=C, p=p, tol_obj=1e-300, tol_grad=tol_grad))
                assert trace.stop_reason == STOP_GRADIENT
                assert trace.final_grad_norm < tol_grad
                assert np.all(trace.grad_norm_history >= tol_grad)


def test_train_tests_the_gradient_at_the_point_the_cap_leaves():
    # Uncapped, this fit stops on the gradient at the top of iteration 20,
    # before any trial, after a Newton step; capped at 19 it returns the same
    # point, which passes the same test, while at 18 the point it returns
    # does not.
    ds = gen_toy(ToySpec(seed=0))
    cfg = TrainConfig(C=1.0, p=1.0, tol_obj=1e-300, tol_grad=1e-2)
    free_model, free = train(ds, cfg)
    assert free.stop_reason == STOP_GRADIENT and free.iterations == 19
    model, trace = _assert_matches_reference(ds, dataclasses.replace(cfg, max_iter=19))
    assert trace.stop_reason == STOP_GRADIENT and trace.converged
    assert trace.iterations == 19 and trace.final_grad_norm == free.final_grad_norm < 1e-2
    assert np.array_equal(model.w, free_model.w) and model.b == free_model.b
    _, trace = _assert_matches_reference(ds, dataclasses.replace(cfg, max_iter=18))
    assert trace.stop_reason == STOP_ITERATION_CAP and trace.final_grad_norm >= 1e-2


@pytest.mark.parametrize("seed", range(5))
def test_train_objective_stop_takes_precedence_over_the_gradient_stop(seed):
    # With tol_grad between the returned point's gradient norm and that of
    # every point before it, only the returned point passes both tolerances;
    # the fit stops there, and names the objective tolerance.
    ds = gen_toy(ToySpec(seed=seed))
    cfg = TrainConfig(C=1.0, p=1.0, tol_obj=1e-10, tol_grad=1e-300)
    model, trace = train(ds, cfg)
    low, high = trace.final_grad_norm, trace.grad_norm_history[-1]
    assert trace.stop_reason == STOP_OBJECTIVE and high == trace.grad_norm_history.min() > low
    both_model, both = train(ds, dataclasses.replace(cfg, tol_grad=math.sqrt(low * high)))
    assert both.stop_reason == STOP_OBJECTIVE
    assert both.final_grad_norm == low < both_model.meta.tol_grad
    assert np.array_equal(both.objective_history, trace.objective_history)
    assert np.array_equal(both_model.w, model.w) and both_model.b == model.b


def test_p1_fit_makes_one_hessian_per_point_that_takes_a_trial(monkeypatch):
    # The start point and each accepted point take trials, except the one
    # returned, so a fit that stops on a tolerance makes one Hessian per
    # accepted trial: iterations - restarts.
    calls = []

    def counting_hessian(*args):
        calls.append(None)
        return _hessian(*args)

    monkeypatch.setattr(solver, "_hessian", counting_hessian)
    for seed in range(10):
        ds = gen_toy(ToySpec(seed=seed))
        for C in (1.0, 50.0, 100.0):
            for rb in (False, True):
                for tol_obj, tol_grad in ((1e-10, 1e-6), (1e-300, 1e-2)):
                    calls.clear()
                    _, trace = train(ds, TrainConfig(C=C, p=1.0, tol_obj=tol_obj,
                                                     tol_grad=tol_grad, regularize_bias=rb))
                    assert trace.converged
                    assert len(calls) == trace.iterations - trace.restarts


def test_train_gradient_norm_is_finite_where_g_dot_g_overflows():
    # grad J(0) is about 7e200, so g.g overflows; the norm comes from hypot,
    # and a gradient tolerance above it can fire.
    ds = LabeledDataset([[1e200], [2e200], [-1e200], [-3e200]], [1.0, 1.0, -1.0, -1.0])
    cfg = TrainConfig(C=1.0, p=1.0, eta=1e-92, max_iter=50)
    g0 = gradient(np.zeros(2), augment(ds).matrix, ds.y, cfg)
    with np.errstate(over="ignore"):
        assert np.isfinite(g0).all() and math.isinf(np.linalg.norm(g0))
    _, trace = train(ds, cfg)
    assert trace.grad_norm_history[0] == math.hypot(*g0)
    assert np.isfinite(trace.grad_norm_history).all() and math.isfinite(trace.final_grad_norm)
    _, trace = train(ds, dataclasses.replace(cfg, tol_grad=1e201))
    assert trace.stop_reason == STOP_GRADIENT and trace.iterations == 0
    assert trace.final_grad_norm == math.hypot(*g0)


def test_train_divergence_at_start_names_iteration_0():
    ds = gen_toy(ToySpec(seed=7, n_per_class=10))
    # J(0) = C * n overflows
    with pytest.raises(DivergenceError, match="objective diverged at iteration 0$"):
        train(ds, TrainConfig(C=1e308))


def reference_norm(g):
    """||g|| from math.hypot, which scales, so it is finite where g.g overflows."""
    return math.hypot(*g)


def reference_curvature(w_aug, X_aug, y, cfg):
    """The Hessian's sample weights h / scale and its scale, at the scaled
    margins t = s (1 - y w'.x'), from `_softplus_pair`'s softplus(+-t).

    At p = 1, sigma(t) sigma(-t) = exp(-softplus(t) - softplus(-t)) and C s.
    At p < 1, c ((p - 1) sigma(t) / n + s sigma(-t)) and C p, with n =
    softplus(t) / s in the log domain: log n = log(softplus(t)) - log s,
    with log(softplus(t)) = t below the -33 cut, clipped below at -max;
    c = exp((p - 1) log n - softplus(-t)), sigma(t) / n = exp(-softplus(-t)
    - log n) and sigma(-t) = exp(-softplus(t))."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = cfg.s * (1.0 - y * (X_aug @ w_aug))
        sp, sp_neg = _softplus_pair(t)
        if cfg.p == 1.0:
            return np.exp(-(sp + sp_neg)), cfg.C * cfg.s
        log_n = np.maximum(np.where(t < -33.0, t, np.log(sp)) - math.log(cfg.s),
                           -np.finfo(np.float64).max)
        c = np.exp((cfg.p - 1.0) * log_n - sp_neg)
        return ((cfg.p - 1.0) * np.exp(-sp_neg - log_n) + cfg.s * np.exp(-sp)) * c, cfg.C * cfg.p


def reference_hessian(w_aug, X_aug, y, cfg):
    """The Hessian of `objective`: D + scale X'^T diag(curv) X' over the
    augmented samples X' = [X, 1], with `reference_curvature`'s weights and
    scale; y = +-1 drops out of each outer product.  Overflow gives a
    non-finite H."""
    curv, scale = reference_curvature(w_aug, X_aug, y, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        return scale * ((X_aug.T * curv) @ X_aug) + np.diag(
            reg_diag(len(w_aug), cfg.regularize_bias))


def reference_blocked_hessian(w_aug, X_aug, y, cfg, rows):
    """`reference_hessian` summed over blocks of `rows` samples: each block's
    X'^T diag(curv) X' added to the sum of those before it, in order, then
    scale times the sum plus D."""
    curv, scale = reference_curvature(w_aug, X_aug, y, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [(X_aug[lo:lo + rows].T * curv[lo:lo + rows]) @ X_aug[lo:lo + rows]
                  for lo in range(0, len(y), rows)]
        gram = blocks[0]
        for block in blocks[1:]:
            gram = gram + block
        return scale * gram + np.diag(reg_diag(len(w_aug), cfg.regularize_bias))


def reference_newton_direction(w_aug, g, X_aug, y, cfg):
    """The solution d of (H + ||g|| I) d = -g, or None unless H + ||g|| I and d
    are finite and -inf < g.d < 0."""
    H = reference_hessian(w_aug, X_aug, y, cfg) + reference_norm(g) * np.eye(len(g))
    if not np.isfinite(H).all():
        return None
    try:
        direction = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return None
    return direction if np.isfinite(direction).all() and -math.inf < g @ direction < 0.0 else None


def reference_train(dataset, cfg, w0=None):
    """The loop of `train`, written against the public objective and gradient
    and the Hessian above: safeguarded momentum at p < 1, and at p = 1, from
    the start point on, damped Newton trials (each a momentum trial where the
    direction is not finite), whose step backtracks by quadratic
    interpolation and whose non-finite J is a rejection.  The fused kernel
    must reproduce it bit for bit.  Also returns the number of objective
    evaluations after the start point and the number of rejected trials.
    It starts at w0, w' = 0 unless given, with the momentum at rest."""
    X_aug, y = augment(dataset).matrix, dataset.y
    w = v = np.zeros(dataset.k + 1)
    if w0 is not None:
        w = w0
    step = cfg.eta
    value, g = objective(w, X_aug, y, cfg), gradient(w, X_aug, y, cfg)
    obj_hist, grad_hist = [value], []
    evaluations = rejected = 0
    stop_reason = STOP_ITERATION_CAP
    direction = reference_newton_direction(w, g, X_aug, y, cfg) if cfg.p == 1.0 else None
    a = 1.0
    for _ in range(cfg.max_iter):
        grad_norm = reference_norm(g)
        if grad_norm < cfg.tol_grad:
            stop_reason = STOP_GRADIENT
            break
        grad_hist.append(grad_norm)
        if direction is None:
            v_trial = cfg.eps * v - step * g
            w_trial = w + v_trial
            bound = value
        else:
            w_trial = w + a * direction
            bound = value + _ARMIJO * a * float(g @ direction)
        try:
            trial = objective(w_trial, X_aug, y, cfg)
        except DivergenceError:
            if direction is None:
                raise
            trial = math.inf
        evaluations += 1
        if trial <= bound:
            decrease = (value - trial) / max(1.0, abs(value))
            if direction is None:
                v, step = v_trial, step * 1.05
            else:
                v = np.zeros_like(w)
            w, value = w_trial, trial
            g = gradient(w, X_aug, y, cfg)
            direction = reference_newton_direction(w, g, X_aug, y, cfg) if cfg.p == 1.0 else None
            a = 1.0
            obj_hist.append(value)
            if decrease < cfg.tol_obj:
                stop_reason = STOP_OBJECTIVE
                break
        else:
            if direction is None:
                v = np.zeros_like(w)
                step *= 0.5
            else:  # the minimiser of the quadratic through J(0), J'(0) and J(a)
                slope = float(g @ direction)
                minimiser = -slope * a * a / (2.0 * (trial - value - a * slope))
                a = min(0.5 * a, max(0.1 * a, minimiser))
            rejected += 1
            obj_hist.append(value)
    else:  # the cap: the point the last iteration leaves gets the gradient test too
        if reference_norm(g) < cfg.tol_grad:
            stop_reason = STOP_GRADIENT
    return w, np.array(obj_hist), np.array(grad_hist), stop_reason, evaluations, rejected


def _grid_cfg(C, p, regularize_bias):
    return TrainConfig(C=C, p=p, s=100.0, eps=0.9, max_iter=1500, tol_obj=1e-10, tol_grad=1e-6,
                       regularize_bias=regularize_bias)


def _assert_matches_reference(ds, cfg):
    """Train on ds and check every output against `reference_train`, bit for bit."""
    model, trace = train(ds, cfg)
    w, obj_hist, grad_hist, stop_reason, evaluations, rejected = reference_train(ds, cfg)
    assert trace.stop_reason == stop_reason
    assert np.array_equal(model.w, w[:-1]) and model.b == w[-1]
    assert np.array_equal(trace.objective_history, obj_hist)
    assert np.array_equal(trace.grad_norm_history, grad_hist)
    assert trace.iterations == len(grad_hist) == evaluations
    assert trace.restarts == rejected
    # the safeguard's invariants
    X_aug = augment(ds).matrix
    assert np.all(np.diff(trace.objective_history) <= 0.0)
    assert trace.objective_history[-1] == objective(model.w_aug, X_aug, ds.y, cfg)
    assert trace.final_grad_norm == reference_norm(gradient(model.w_aug, X_aug, ds.y, cfg))
    return model, trace


@pytest.mark.parametrize("cfg, negate, stop", [
    (_grid_cfg(1.0, 1.0, False), False, STOP_OBJECTIVE),
    (_grid_cfg(1.0, 1.0, True), False, STOP_OBJECTIVE),
    (_grid_cfg(1.0, 0.5, False), False, STOP_OBJECTIVE),
    (_grid_cfg(1.0, 0.5, True), False, STOP_OBJECTIVE),
    (_grid_cfg(50.0, 0.5, False), False, STOP_OBJECTIVE),
    (_grid_cfg(50.0, 0.5, False), True, STOP_OBJECTIVE),
    (_grid_cfg(50.0, 1.0, True), False, STOP_OBJECTIVE),
    (TrainConfig(C=1.0, p=1.0, eta=5e-3, tol_obj=1e-300, tol_grad=1e-2), False, STOP_GRADIENT),
    (_grid_cfg(1.0, 0.3, False), False, STOP_OBJECTIVE),
    (_grid_cfg(50.0, 0.3, True), False, STOP_OBJECTIVE),
])
def test_train_matches_reference_loop_bitwise(cfg, negate, stop):
    ds = gen_toy(ToySpec(seed=0, n_per_class=20))
    if negate:
        ds = LabeledDataset(ds.X, -ds.y)
    _, trace = _assert_matches_reference(ds, cfg)
    assert trace.stop_reason == stop


@pytest.mark.parametrize("p", [1.0, 0.3])
def test_train_matches_reference_loop_with_rejected_trials(p):
    ds = gen_toy(ToySpec(seed=0, n_per_class=20))
    _, trace = _assert_matches_reference(ds, TrainConfig(C=1.0, p=p, eta=1e6, max_iter=2000))
    assert trace.restarts > 0 and trace.converged


@pytest.mark.parametrize("p", [1.0, 0.3])
def test_train_matches_reference_loop_at_extreme_margins(p):
    # Features x 1e4 at s = 1000: at the returned point some scaled margins
    # t = s (1 - y w'.x') lie below the log-softplus cut, where the
    # coefficient takes log(sp) = t, and some above 745, where
    # softplus(-t) underflows to 0.
    toy = gen_toy(ToySpec(seed=0, n_per_class=20))
    ds = LabeledDataset(toy.X * 1e4, toy.y)
    cfg = TrainConfig(C=1.0, p=p, s=1000.0, max_iter=1500, tol_obj=1e-10, tol_grad=1e-6)
    model, trace = _assert_matches_reference(ds, cfg)
    t = cfg.s * (1.0 - ds.y * (ds.X @ model.w + model.b))
    assert (t < -33.0).any() and (t > 745.0).any()
    assert trace.restarts > 0 and trace.converged


def test_train_matches_reference_loop_where_the_hessian_overflows():
    # Features x 1e154: x'^2 overflows, so H is not finite at most points of
    # the fit, and their trials fall back to momentum.
    toy = gen_toy(ToySpec(seed=0, n_per_class=20))
    ds = LabeledDataset(toy.X * 1e154, toy.y)
    cfg = TrainConfig(C=1.0, p=1.0, eta=1e-3 / 1e154 / 1e154, max_iter=5000)
    model, trace = _assert_matches_reference(ds, cfg)
    assert trace.converged
    X_aug = augment(ds).matrix
    assert not np.isfinite(reference_hessian(model.w_aug, X_aug, ds.y, cfg)).all()


# ------------------------------------------------------------ smoothing path

def _path_cfg(**kw):
    return TrainConfig(**{"C": 1.0, "p": 0.5, "s": 100.0, "s_start": 1.0, **kw})


def _stage_cfgs(cfg):
    """The stage configs of a path fit: one per s of geomspace(s_start, s, _STAGES)."""
    return [dataclasses.replace(cfg, s=float(s), s_start=None)
            for s in np.geomspace(cfg.s_start, cfg.s, solver._STAGES)]


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_path_stages_match_chained_reference_loops_bitwise(p, monkeypatch):
    # With Newton declined everywhere, each stage is `reference_train` at
    # its s from the point the stage before returned, its momentum at rest
    # and its step at eta.  The fit's histories are the stages' joined: a
    # stage's first entry, its start point's J at its own s, replaces the
    # last entry of the stage before.
    monkeypatch.setattr(solver, "_newton_direction", lambda H, g: None)
    ds = gen_toy(ToySpec(seed=0, n_per_class=20))
    cfg = _path_cfg(p=p, C=50.0, max_iter=8000, tol_obj=1e-10, tol_grad=1e-6)
    model, trace = train(ds, cfg)
    w, obj, grads, rejected, counts = None, [], [], 0, []
    for stage in _stage_cfgs(cfg):
        w, obj_hist, grad_hist, stop_reason, evaluations, stage_rejected = reference_train(
            ds, stage, w)
        obj[-1:] = list(obj_hist)
        grads += list(grad_hist)
        rejected += stage_rejected
        counts.append(evaluations)
    assert np.array_equal(model.w_aug, w)
    assert np.array_equal(trace.objective_history, obj)
    assert np.array_equal(trace.grad_norm_history, grads)
    assert trace.stage_iterations == tuple(counts) and trace.iterations == sum(counts)
    assert trace.restarts == rejected and trace.stop_reason == stop_reason


def test_path_trace_is_monotone_within_stages_and_ends_at_the_model():
    ds = gen_toy(ToySpec(seed=42, n_per_class=50))
    cfg = _path_cfg()
    model, trace = train(ds, cfg)
    assert len(trace.stage_iterations) == solver._STAGES
    assert sum(trace.stage_iterations) == trace.iterations
    assert trace.objective_history.shape == (trace.iterations + 1,)
    ends = np.cumsum(trace.stage_iterations)
    for lo, hi in zip([0, *ends[:-1]], ends):
        assert np.all(np.diff(trace.objective_history[lo:hi + 1]) <= 0.0)
    # J falls as s grows, so the history never rises across stages either
    assert np.all(np.diff(trace.objective_history) <= 0.0)
    X_aug = augment(ds).matrix
    assert trace.objective_history[-1] == objective(model.w_aug, X_aug, ds.y, cfg)
    assert trace.final_grad_norm == math.hypot(*gradient(model.w_aug, X_aug, ds.y, cfg))
    # relative to ||grad J(0)|| at the fit's own s, as for a fit from w' = 0
    g0 = gradient(np.zeros(ds.k + 1), X_aug, ds.y, cfg)
    assert trace.initial_grad_norm == math.hypot(*g0)
    assert trace.relative_grad_norm <= 1e-8


def test_path_counts_every_trial_against_max_iter():
    ds = gen_toy(ToySpec(seed=42, n_per_class=50))
    _, full = train(ds, _path_cfg())
    first = full.stage_iterations[0]
    # a cap inside the second stage ends the path there
    _, trace = train(ds, _path_cfg(max_iter=first + 3))
    assert trace.stop_reason == STOP_ITERATION_CAP
    assert trace.stage_iterations == (first, 3) and trace.iterations == first + 3
    # a cap at the end of the first stage stops at the second's start point,
    # whose history entry is J there at the second stage's s
    model, trace = train(ds, _path_cfg(max_iter=first))
    assert trace.stop_reason == STOP_ITERATION_CAP and trace.stage_iterations == (first, 0)
    second = _stage_cfgs(_path_cfg())[1]
    assert trace.objective_history[-1] == objective(model.w_aug, augment(ds).matrix, ds.y,
                                                    second)


def test_path_ends_below_the_cold_fit_on_the_readme_data():
    ds = gen_toy(ToySpec(seed=42, n_per_class=50))
    _, cold = train(ds, TrainConfig(C=1.0, p=0.5))
    _, path = train(ds, _path_cfg())
    assert path.iterations < cold.iterations
    assert path.objective_history[-1] < cold.objective_history[-1]


@pytest.mark.parametrize("regularize_bias", [False, True])
def test_s_start_is_ignored_at_p1(regularize_bias):
    ds = gen_toy(ToySpec(seed=3, n_per_class=20))
    cold_model, cold = train(ds, TrainConfig(p=1.0, regularize_bias=regularize_bias))
    model, trace = train(ds, TrainConfig(p=1.0, s_start=1.0, regularize_bias=regularize_bias))
    assert np.array_equal(model.w_aug, cold_model.w_aug)
    assert np.array_equal(trace.objective_history, cold.objective_history)
    assert trace.stage_iterations == cold.stage_iterations == (cold.iterations,)


@pytest.mark.parametrize("p", [0.5, 0.3, 1.0])
@pytest.mark.parametrize("s, s_start", [(100.0, 100.0), (100.0, 200.0), (1.0, 1.0)])
def test_s_start_at_or_above_s_is_the_one_stage_fit(p, s, s_start):
    ds = gen_toy(ToySpec(seed=3, n_per_class=20))
    cold_model, cold = train(ds, TrainConfig(C=50.0, p=p, s=s))
    model, trace = train(ds, TrainConfig(C=50.0, p=p, s=s, s_start=s_start))
    assert np.array_equal(model.w_aug, cold_model.w_aug)
    assert np.array_equal(trace.objective_history, cold.objective_history)
    assert np.array_equal(trace.grad_norm_history, cold.grad_norm_history)
    assert trace.summary() == cold.summary()
    assert trace.initial_grad_norm == cold.initial_grad_norm
    assert trace.stage_iterations == (trace.iterations,)


def test_train_rejects_a_newton_trial_whose_objective_overflows(monkeypatch):
    # The damping keeps a Newton direction no longer than 1, so a trial's J
    # overflows only where s x' is near the top of double range: here
    # features x 1e14 at s = 1e301, where a step of length 1 takes scaled
    # margins t = s (1 - y w'.x') past it.  That trial is rejected and the
    # step backtracks, and the fit reaches a stationary point.
    ds = LabeledDataset(np.array([[6.0, 3.0], [0.0, 2.0], [8.0, -5.0], [2.0, 3.0]]) * 1e14,
                        [1.0, -1.0, 1.0, -1.0])
    cfg = TrainConfig(C=10.0, p=1.0, s=1e301, eta=1e-29)
    values = []
    real_value_pass = solver._value_pass

    def recording_value_pass(*args):
        value, state = real_value_pass(*args)
        values.append(value)
        return value, state

    monkeypatch.setattr(solver, "_value_pass", recording_value_pass)
    _, trace = train(ds, cfg)
    monkeypatch.undo()
    assert not np.isfinite(values).all()
    assert trace.converged and trace.relative_grad_norm < 1e-6
    _assert_matches_reference(ds, cfg)


# At p = 1 a trial whose objective overflows is a Newton trial, which is
# rejected (test_train_rejects_a_newton_trial_whose_objective_overflows);
# test_train_divergence_names_iteration covers a momentum trial's, at p = 0.5.
@pytest.mark.parametrize("scale, C, eta, message", [
    (1e300, 1e10, 1.0, "gradient diverged at iteration 1$"),
    (1.0, 1e308, None, "objective diverged at iteration 0$"),
])
def test_train_overflow_at_p1_names_the_iteration(scale, C, eta, message):
    toy = gen_toy(ToySpec(seed=7, n_per_class=10))
    ds = LabeledDataset(toy.X * scale, toy.y)
    with pytest.raises(DivergenceError, match=message):
        train(ds, TrainConfig(C=C, p=1.0, eta=eta, max_iter=5000))


# At the first trial the scaled margins t = s (1 - y w'.x') overflow to -inf.
# J stays finite there and the trial is accepted; the p = 1 coefficient is
# sigma(-inf) = 0, so the gradient at the point returned is finite too.
_FAR_PAIR = [[1e306], [-1e306]], [1.0, -1.0], dict(C=1.0, p=1.0, eta=1e-306)
_FAR_FOUR = ([[4.7212316105270436e306], [-2.567109112680582e306],
              [1.2830803694248833e306], [-4.587196161864749e306]], [1.0, -1.0, 1.0, -1.0],
             dict(C=1.0, p=1.0, s=305.1225723255686, eta=4.609655319991794e-308))


@pytest.mark.parametrize("case, max_iter, stop", [
    (_FAR_PAIR, 1, STOP_OBJECTIVE),  # the trial ties J(0) = 2
    (_FAR_PAIR, 5000, STOP_OBJECTIVE),
    (_FAR_FOUR, 1, STOP_ITERATION_CAP),  # the trial lowers J from 4 to 0.18
])
def test_train_returns_a_finite_gradient_where_margins_overflow_to_minus_inf(case, max_iter,
                                                                              stop):
    X, y, kwargs = case
    ds, cfg = LabeledDataset(X, y), TrainConfig(max_iter=max_iter, **kwargs)
    _, trace = _assert_matches_reference(ds, cfg)
    assert trace.stop_reason == stop and trace.iterations == 1
    assert 0.0 < trace.final_grad_norm < math.inf


# Three copies of one point, labelled +1, -1, +1, put the terms +a, -a, +a
# (a = 1e308) in the first feature's gradient sum, so grad J(0) is finite.
# H(0) overflows, so the first trial is a momentum step; the two points on the
# second axis turn it to raise the -1 copy's margin and lower the +1 copies'.
# J falls, and with the -1 copy's coefficient near 0 (1.4e-11 at p = 1) the
# sum overflows to a + a.
_SUM_OVERFLOW = ([[1e308, -1.5e308], [1e308, -1.5e308], [1e308, -1.5e308],
                  [0.0, 1.5e308], [0.0, -1.5e308]], [1.0, -1.0, 1.0, 1.0, -1.0],
                 dict(C=1e-308, p=1.0, eta=1e-308))
_SUM_OVERFLOW_P05 = (*_SUM_OVERFLOW[:2], {**_SUM_OVERFLOW[2], "p": 0.5})


@pytest.mark.parametrize("case, max_iter", [
    (_SUM_OVERFLOW, 1),  # the cap leaves the accepted trial
    (_SUM_OVERFLOW, 5000),  # well before the cap
    (_SUM_OVERFLOW_P05, 1),  # at p = 0.5 the second feature's sum overflows
])
def test_train_raises_on_a_non_finite_gradient_at_the_returned_point(case, max_iter):
    X, y, kwargs = case
    ds, cfg = LabeledDataset(X, y), TrainConfig(max_iter=max_iter, **kwargs)
    with pytest.raises(DivergenceError, match="gradient diverged at iteration 2$"):
        train(ds, cfg)
    with pytest.raises(DivergenceError, match="gradient is not finite"):
        reference_train(ds, cfg)


@pytest.mark.parametrize("p", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("regularize_bias", [False, True])
def test_kernel_passes_match_objective_and_gradient_bitwise(p, regularize_bias):
    # Margins in every regime, up to products that overflow to +-inf or NaN:
    # where `objective` or `gradient` raises, the passes return a non-finite
    # value or gradient for `train` to report.
    ds = gen_toy(ToySpec(seed=1, n_per_class=10))
    X_aug, y = augment(ds).matrix, ds.y
    cfg = TrainConfig(C=2.0, p=p, s=100.0, regularize_bias=regularize_bias)
    yX, d = signed_design(ds), reg_diag(ds.k + 1, regularize_bias)
    rng = np.random.default_rng(5)
    points = [np.zeros(ds.k + 1)] + [rng.normal(0.0, 10.0 ** e, ds.k + 1)
                                     for e in (-3, -1, 0, 1, 2, 4, 150, 307, 308) for _ in range(3)]
    infinite = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for w in points:
            value, state = _value_pass(w, yX, d, cfg)
            g, _ = _grad_pass(state, yX, cfg)
            infinite += not np.isfinite(state[0]).all()
            try:
                assert value == objective(w, X_aug, y, cfg)
            except DivergenceError:
                assert not math.isfinite(value)
            try:
                assert np.array_equal(g, gradient(w, X_aug, y, cfg))
            except DivergenceError:
                assert not np.isfinite(g).all()
    assert infinite > 0


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_grad_pass_leaves_the_margin_state_unchanged(p):
    # `_hessian` and `train` read the state after `_grad_pass` has run on it.
    ds = gen_toy(ToySpec(seed=1, n_per_class=10))
    cfg = TrainConfig(C=2.0, p=p, s=100.0)
    yX, d = signed_design(ds), reg_diag(ds.k + 1, False)
    w = np.random.default_rng(5).normal(0.0, 0.1, ds.k + 1)
    _, state = _value_pass(w, yX, d, cfg)
    before = [a.copy() for a in state]
    _grad_pass(state, yX, cfg)
    for a, b in zip(state, before):
        assert np.array_equal(a, b)


def test_sv_count_shrinks_with_C_at_small_p():
    from lpsvm.core import slack
    ds = gen_toy(ToySpec(seed=0))
    counts = {}
    for C in (1.0, 100.0):
        cfg = TrainConfig(C=C, p=0.5, s=100.0, eps=0.9, max_iter=8000,
                          tol_obj=1e-10, tol_grad=1e-6)
        model, _ = train(ds, cfg)
        counts[C] = slack(model, ds).n_sv
    assert counts[100.0] < counts[1.0]


# ------------------------------------------------------------------- config

@pytest.mark.parametrize("kwargs", [
    {"C": 0.0}, {"C": -1.0}, {"p": 0.0}, {"p": 1.5}, {"p": -0.5},
    {"s": 0.0}, {"eta": 0.0}, {"eps": 1.0}, {"eps": -0.1},
    {"tol_obj": 0.0}, {"tol_grad": 0.0}, {"max_iter": 0},
    {"s_start": 0.0}, {"s_start": -1.0}, {"s_start": -math.inf}, {"s": -1.0},
    {"s": math.inf}, {"s_start": math.nan}, {"s_start": math.inf},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"s_start": 100.0}, {"s_start": 200.0},
                                    {"s": 1.0, "s_start": 1.0}])
def test_config_accepts_s_start_at_or_above_s(kwargs):
    # `train` decides where the path runs: from s_start >= s it fits one stage
    cfg = TrainConfig(**kwargs)
    assert (cfg.s, cfg.s_start) == (kwargs.get("s", 100.0), kwargs["s_start"])


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 2.5}, {"max_iter": 5.0}, {"max_iter": True}, {"max_iter": "5"},
    {"regularize_bias": "no"}, {"regularize_bias": 1}, {"regularize_bias": None},
    {"C": True}, {"eps": False}, {"C": "5"}, {"p": None}, {"s_start": "1"}, {"s_start": True},
    pytest.param({"C": 10**400}, id="C-int-beyond-float"),
    pytest.param({"eta": 10**400}, id="eta-int-beyond-float"),
])
def test_config_rejects_mistyped_fields(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("C, eta", [
    (0.1, 1e-2), (1.0, 1e-2), (2.0, 1e-2), (3.0, 1e-2 / 1.5), (50.0, 1e-2 / 25), (100.0, 1e-2 / 50),
])
def test_config_default_eta_follows_C(C, eta):
    # the initial step defaults to 1e-2 / max(1, C/2); an explicit one is kept
    assert TrainConfig(C=C).eta == eta
    assert TrainConfig(C=C, eta=None) == TrainConfig(C=C)
    assert TrainConfig(C=C, eta=3e-5).eta == 3e-5


def test_config_accepts_numpy_integers_and_bools():
    cfg = TrainConfig(C=np.float32(2.0), max_iter=np.int64(3), regularize_bias=np.True_)
    # stored as builtins, which JSON can write
    assert type(cfg.C) is float and type(cfg.max_iter) is int and cfg.regularize_bias is True
    assert all(type(getattr(cfg, name)) is float
               for name in ("p", "s", "eta", "eps", "tol_obj", "tol_grad"))
    _, trace = train(gen_toy(ToySpec(seed=0, n_per_class=5)), cfg)
    assert trace.iterations == 3
