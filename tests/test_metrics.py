import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpsvm import cli
from lpsvm.core import LabeledDataset, SvmModel
from lpsvm.data import ToySpec, gen_toy, kfold, save_csv, standardize
from lpsvm.metrics import (
    REPORT_FIELDS,
    accuracy,
    angle_theta,
    cross_validate,
    dist_d,
    fold_means,
    run_comparison,
)
from lpsvm.solver import STOP_ITERATION_CAP, TrainConfig, train

nonzero_w = arrays(np.float64, (3,), elements=st.floats(-100, 100)).filter(
    lambda w: np.linalg.norm(w) > 1e-6)

FAST = dict(s=100.0, eta=1e-3, eps=0.9, max_iter=400, tol_obj=1e-9, tol_grad=1e-6)


# --------------------------------------------------------------- accuracy

def test_accuracy_all_correct():
    ds = LabeledDataset([[2.0], [-3.0]], [1.0, -1.0])
    assert accuracy(SvmModel([1.0], 0.0), ds) == 1.0


def test_accuracy_constant_predictor():
    # zero weights with b > 0 always predicts +1
    ds = LabeledDataset([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 1.0, -1.0])
    assert accuracy(SvmModel([0.0], 0.5), ds) == 0.75


def test_accuracy_dimension_mismatch():
    ds = LabeledDataset([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError, match="mismatch"):
        accuracy(SvmModel([1.0], 0.0), ds)


# ------------------------------------------------------------------ angle

def test_angle_identities():
    w = np.array([0.3, -1.2, 0.5])
    assert angle_theta(w, w) == 0.0
    assert angle_theta(w, -w) == 180.0
    assert angle_theta([1.0, 0.0], [0.0, 1.0]) == pytest.approx(90.0)


def test_angle_clamps_instead_of_nan():
    w = np.array([1.0, 1e-8])
    v = w * (1.0 + 1e-15)  # cosine may round above 1
    theta = angle_theta(w, v)
    assert np.isfinite(theta) and theta >= 0.0


@given(nonzero_w, nonzero_w, st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
def test_angle_symmetric_and_scale_invariant(w1, w2, a, b):
    t1 = angle_theta(w1, w2)
    assert t1 == angle_theta(w2, w1)
    # arccos amplifies cosine rounding near 0/180 degrees by ~sqrt(eps)
    assert angle_theta(a * w1, b * w2) == pytest.approx(t1, abs=1e-4)
    assert 0.0 <= t1 <= 180.0


def test_angle_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        angle_theta([0.0, 0.0], [1.0, 0.0])


def test_angle_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        angle_theta([1.0, 0.0], [1.0, 0.0, 0.0])


# --------------------------------------------------------------- distance

def test_dist_identities():
    w = np.array([2.0, -1.0])
    assert dist_d(w, w) == 0.0
    assert dist_d(w, np.zeros(2)) == 1.0


@given(nonzero_w, st.floats(1e-6, 0.5))
def test_dist_relative_perturbation(w, eps):
    assert dist_d(w, w * (1.0 + eps)) == pytest.approx(eps, rel=1e-9)


@given(nonzero_w, nonzero_w, st.floats(1e-3, 1e3))
def test_dist_simultaneous_scaling_invariance(w1, w2, c):
    assert dist_d(c * w1, c * w2) == pytest.approx(dist_d(w1, w2), rel=1e-9)


def test_dist_rejects_zero_reference():
    with pytest.raises(ValueError, match="zero"):
        dist_d([0.0, 0.0], [1.0, 0.0])


# ----------------------------------------------------- angle and distance

@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_angle_and_dist_where_the_squared_norms_leave_double_range(scale):
    # w.w overflows at 1e200 and underflows to 0 at 1e-200
    w1, w2 = [scale, 0.0], [0.0, scale]
    assert angle_theta(w1, w2) == pytest.approx(90.0)
    assert dist_d(w1, w2) == pytest.approx(2.0 ** 0.5)


@pytest.mark.parametrize("metric, w1, w2, expected", [
    (angle_theta, [1.7e308, 1.7e308], [1.0, 0.0], 45.0),  # ||w1|| overflows
    (dist_d, [1e308], [-1e308], 2.0),  # w1 - w2 overflows
    (dist_d, [1e-300], [1e300], math.inf),  # ||w1 - w2|| / ||w1|| is past double range
])
def test_angle_and_dist_where_a_norm_or_the_difference_overflows(metric, w1, w2, expected):
    assert metric(w1, w2) == pytest.approx(expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [angle_theta, dist_d])
def test_angle_and_dist_reject_a_non_finite_entry(metric, bad):
    for w1, w2 in (([bad, 1.0], [1.0, 0.0]), ([1.0, 0.0], [1.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            metric(w1, w2)


@pytest.mark.parametrize("metric", [angle_theta, dist_d])
def test_angle_and_dist_reject_arrays_that_are_not_1d(metric):
    with pytest.raises(ValueError, match="1-d"):
        metric([[1.0, 0.0]], [[0.0, 1.0]])


# ----------------------------------------------------------- cross_validate

# The first config stops at its iteration cap and the second on tolerance, so
# the two fits of a fold differ in stop reason as well as in C and p.
CV_CONFIGS = [TrainConfig(C=1.0, p=1.0, **{**FAST, "max_iter": 3}),
              TrainConfig(C=2.0, p=0.5, **FAST)]


def hand_folds(ds, k, seed, scale=False):
    """(train, test) per fold, written out with kfold + subset + standardize."""
    assignments = kfold(ds, k, seed)
    folds = []
    for fold in range(k):
        train_ds = ds.subset(np.flatnonzero(assignments != fold))
        test_ds = ds.subset(np.flatnonzero(assignments == fold))
        if scale:
            train_ds, test_ds = standardize(train_ds, test_ds)
        folds.append((train_ds, test_ds))
    return folds


def assert_same_fit(got, want):
    (model, trace), (want_model, want_trace) = got, want
    assert np.array_equal(model.w, want_model.w) and model.b == want_model.b
    assert np.array_equal(trace.objective_history, want_trace.objective_history)
    assert np.array_equal(trace.grad_norm_history, want_trace.grad_norm_history)
    for name in ("iterations", "converged", "stop_reason", "final_grad_norm", "restarts"):
        assert getattr(trace, name) == getattr(want_trace, name)


@pytest.mark.parametrize("scale", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_cross_validate_matches_hand_written_fold_loop(k, scale):
    ds = gen_toy(ToySpec(seed=25, n_per_class=10))
    results = cross_validate(ds, CV_CONFIGS, k, seed=6, standardize=scale)
    assert len(results) == k
    for (train_ds, test_ds, fits), (want_train, want_test) in zip(
            results, hand_folds(ds, k, 6, scale)):
        for got, want in ((train_ds, want_train), (test_ds, want_test)):
            assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)
        assert len(fits) == len(CV_CONFIGS)
        for fit, cfg in zip(fits, CV_CONFIGS):
            assert_same_fit(fit, train(want_train, cfg))


def test_run_comparison_keeps_every_fits_trace():
    ds = gen_toy(ToySpec(seed=25, n_per_class=10))
    report = run_comparison(ds, *CV_CONFIGS, k=3, seed=6)
    assert len(report.traces) == 3
    for (trace_std, trace_min), (train_ds, _) in zip(report.traces, hand_folds(ds, 3, 6)):
        _, want_std = train(train_ds, CV_CONFIGS[0])
        _, want_min = train(train_ds, CV_CONFIGS[1])
        assert trace_std.stop_reason == want_std.stop_reason == STOP_ITERATION_CAP
        assert trace_min.stop_reason == want_min.stop_reason != STOP_ITERATION_CAP


# ----------------------------------------------------------- run_comparison

def test_run_comparison_shape_and_means():
    ds = gen_toy(ToySpec(seed=20, n_per_class=15))
    cfg_std = TrainConfig(C=1.0, p=1.0, **FAST)
    cfg_min = TrainConfig(C=1.0, p=0.5, **FAST)
    report = run_comparison(ds, cfg_std, cfg_min, k=5, seed=2)
    assert len(report.folds) == 5
    assert set(report.means) == set(REPORT_FIELDS)
    for field in REPORT_FIELDS:
        values = [getattr(f, field) for f in report.folds]
        assert report.means[field] == pytest.approx(np.mean(values), abs=1e-12)
    for f in report.folds:
        assert 0.0 <= f.test_acc_std <= 1.0 and 0.0 <= f.test_acc_min <= 1.0
        assert 0 <= f.n_sv_std <= 24 and 0 <= f.n_sv_min <= 24
        assert 0.0 <= f.angle_theta_degrees <= 180.0
        assert f.dist_d >= 0.0


def test_fold_means_keep_the_first_rows_key_order_as_python_floats():
    # The one fold-mean rule: `ComparisonReport.means` and the CLI's cv and
    # compare blocks all take it.
    means = fold_means([{"n_sv": 3, "acc": 0.5}, {"n_sv": 4, "acc": 1.0}])
    assert list(means.items()) == [("n_sv", 3.5), ("acc", 0.75)]
    assert all(type(v) is float for v in means.values())


def test_run_comparison_identical_configs_give_zero_geometry():
    ds = gen_toy(ToySpec(seed=21, n_per_class=10))
    cfg = TrainConfig(C=1.0, p=1.0, **FAST)
    report = run_comparison(ds, cfg, cfg, k=3, seed=0)
    for f in report.folds:
        assert f.angle_theta_degrees == 0.0
        assert f.dist_d == 0.0
        assert f.n_sv_std == f.n_sv_min


def test_run_comparison_deterministic():
    ds = gen_toy(ToySpec(seed=22, n_per_class=10))
    cfg_std = TrainConfig(C=1.0, p=1.0, **FAST)
    cfg_min = TrainConfig(C=1.0, p=0.5, **FAST)
    r1 = run_comparison(ds, cfg_std, cfg_min, k=3, seed=5)
    r2 = run_comparison(ds, cfg_std, cfg_min, k=3, seed=5)
    assert r1.folds == r2.folds
    assert r1.means == r2.means


def test_run_comparison_standardize_uses_fold_statistics():
    ds = gen_toy(ToySpec(seed=24, n_per_class=10))
    cfg_std = TrainConfig(C=1.0, p=1.0, **FAST)
    cfg_min = TrainConfig(C=1.0, p=0.5, **FAST)
    plain = run_comparison(ds, cfg_std, cfg_min, k=3, seed=4)
    scaled = run_comparison(ds, cfg_std, cfg_min, k=3, seed=4, standardize=True)
    assert len(scaled.folds) == 3
    # rescaling changes the learned geometry but not report validity
    for f in scaled.folds:
        assert 0.0 <= f.test_acc_min <= 1.0
        assert np.isfinite(f.angle_theta_degrees)
    assert scaled.folds != plain.folds


def test_comparison_to_dict_round_trips_fields(tmp_path):
    # compare's JSON block for one C holds run_comparison's report field for field
    ds = gen_toy(ToySpec(seed=23, n_per_class=8))
    data, out = tmp_path / "toy.csv", tmp_path / "cmp.json"
    save_csv(ds, data)
    cfg = TrainConfig(C=1.0, p=1.0, **FAST)
    report = run_comparison(ds, cfg, cfg, k=2, seed=1)
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in FAST.items()]
    assert cli.main(["compare", "--data", str(data), "--c-list", "1", "--p", "1",
                     "--k", "2", "--seed", "1", *flags, "--out-json", str(out)]) == 0
    (block,) = json.loads(out.read_text())["configs"]
    assert set(block) >= {"folds", "means", "traces"}
    assert len(block["folds"]) == 2
    assert all(set(row) == {"fold", *REPORT_FIELDS} for row in block["folds"])
    assert set(block["means"]) == set(REPORT_FIELDS)
    assert len(block["traces"]) == 2 and set(block["traces"][0]) == {"fold", "std", "min"}
    expected = {
        "folds": [{"fold": fold, **dataclasses.asdict(f)} for fold, f in enumerate(report.folds)],
        "means": report.means,
        "traces": [{"fold": fold, "std": std.summary(), "min": mn.summary()}
                   for fold, (std, mn) in enumerate(report.traces)],
    }
    assert {key: block[key] for key in expected} == json.loads(
        json.dumps(cli._finite_or_null(expected)))

