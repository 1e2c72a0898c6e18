import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpsvm.core import (
    LabeledDataset,
    SvmModel,
    augment,
    decision_values,
    margin_width,
    predict,
    reg_diag,
    signed_design,
    slack,
)
from lpsvm.cli import figure_data
from lpsvm.data import ToySpec, gen_toy, kfold
from lpsvm.metrics import REPORT_FIELDS, FoldComparison, fold_scores, run_comparison
from lpsvm.oracle import dual_cd_train, fd_gradient, kkt_check
from lpsvm.solver import TrainConfig, smoothed_plus

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def small_dataset(min_n=1, max_n=12, min_k=1, max_k=5):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(min_k, max_k).flatmap(
            lambda k: st.tuples(
                arrays(np.float64, (n, k), elements=finite_floats),
                arrays(np.float64, (n,), elements=st.sampled_from([-1.0, 1.0])),
            )
        )
    ).map(lambda t: LabeledDataset(*t))


def model_for(k):
    return st.tuples(
        arrays(np.float64, (k,), elements=st.floats(-100, 100)),
        st.floats(-100, 100),
    ).map(lambda t: SvmModel(w=t[0], b=t[1]))


# ---------------------------------------------------------------- datasets

def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="-1 or [+]1"):
        LabeledDataset([[1.0], [2.0]], [1.0, 2.0])


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset([[np.nan], [1.0]], [1.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset([[np.inf], [1.0]], [1.0, -1.0])


@pytest.mark.parametrize("X", [[1.0, 2.0], np.ones((2, 1, 1))], ids=["1-d", "3-d"])
def test_dataset_rejects_samples_that_are_not_2d(X):
    with pytest.raises(ValueError, match="samples must form a 2-d array"):
        LabeledDataset(X, [1.0, -1.0])


def test_dataset_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        LabeledDataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        LabeledDataset([[1.0, 2.0]], [1.0, -1.0])


@pytest.mark.parametrize("X, y, name", [
    ([["1.5"], ["2"]], [1, -1], "X"),
    ([[True], [False]], [1, -1], "X"),
    ([[1.0], [2.0]], ["1", "-1"], "y"),
    ([[1.0], [2.0]], [True, False], "y"),
    ([[1.0], [2.0]], [1, None], "y"),
    ([[2**70], [1]], [1, -1], "X"),
])
def test_dataset_rejects_values_that_are_not_real_numbers(X, y, name):
    # numpy would convert strings and bools; the dtype must be integer or float
    with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
        LabeledDataset(X, y)


def test_dataset_accepts_integers_as_floats():
    ds = LabeledDataset(np.array([[1], [2]], dtype=np.int32), [1, -1])
    assert ds.X.dtype == ds.y.dtype == np.float64
    assert ds.X.tolist() == [[1.0], [2.0]] and ds.y.tolist() == [1.0, -1.0]


def test_dataset_arrays_are_readonly():
    ds = LabeledDataset([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        ds.X[0, 0] = 3.0


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def test_dataset_keeps_a_readonly_float64_array_that_owns_its_data():
    X, y = _frozen(np.array([[1.0, 2.0], [3.0, 4.0]])), _frozen(np.array([1.0, -1.0]))
    ds = LabeledDataset(X, y)
    assert ds.X is X and ds.y is y


class _Subclass(np.ndarray):
    pass


@pytest.mark.parametrize("make", [
    lambda X: X,  # writeable
    lambda X: _frozen(X[:, :]),  # a read-only view of a writeable array
    lambda X: _frozen(X.astype(np.float32)),  # another dtype
    lambda X: _frozen(X.view(_Subclass).copy()),  # an ndarray subclass that owns its data
], ids=["writeable", "view", "float32", "subclass"])
def test_dataset_copies_any_other_array(make):
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    X = make(source)
    ds = LabeledDataset(X, [1.0, -1.0])
    assert type(ds.X) is np.ndarray and ds.X.dtype == np.float64
    assert ds.X.base is None and not ds.X.flags.writeable
    assert not np.shares_memory(ds.X, X) and not np.shares_memory(ds.X, source)
    source[0, 0] = 9.0  # a write to the source does not reach the dataset
    assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_subset_holds_its_arrays_once():
    # fancy indexing makes fresh arrays, which the subset keeps without a
    # copy; the rest of the peak is LabeledDataset's isfinite mask
    rng = np.random.default_rng(0)
    ds = LabeledDataset(rng.normal(size=(20_000, 16)),
                        np.where(rng.random(20_000) < 0.5, 1.0, -1.0))
    idx = np.arange(0, ds.n, 2)
    tracemalloc.start()
    try:
        half = ds.subset(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(half.X, ds.X[idx]) and np.array_equal(half.y, ds.y[idx])
    assert peak <= 1.25 * (half.X.nbytes + half.y.nbytes)


# ------------------------------------------------------------ augmentation

def test_augment_appends_one():
    ds = LabeledDataset([[3.0, -2.0]], [1.0])
    assert augment(ds).matrix.tolist() == [[3.0, -2.0, 1.0]]


def test_augment_zero_vector():
    ds = LabeledDataset([[0.0]], [-1.0])
    assert augment(ds).matrix.tolist() == [[0.0, 1.0]]


def test_augment_shapes():
    ds = LabeledDataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, -1.0])
    aug = augment(ds).matrix
    assert aug.shape == (2, 4)
    assert np.all(aug[:, -1] == 1.0)
    # read-only, and a copy: the dataset's X is not shared
    assert not aug.flags.writeable and not np.shares_memory(aug, ds.X)


@given(small_dataset())
def test_augment_project_identity(ds):
    aug = augment(ds).matrix
    assert np.array_equal(aug[:, :-1], ds.X)
    assert np.all(aug[:, -1] == 1.0)


@given(small_dataset())
def test_signed_design_is_the_labels_times_the_augmented_rows(ds):
    if not ds.has_both_classes:
        with pytest.raises(ValueError, match="training requires samples from both classes"):
            signed_design(ds)
        return
    yX = signed_design(ds)
    assert np.array_equal(yX, ds.y[:, None] * augment(ds).matrix)
    assert yX.flags.c_contiguous and not np.shares_memory(yX, ds.X)


def test_reg_diag_zeroes_the_bias_entry_unless_it_is_regularized():
    assert reg_diag(3, False).tolist() == [1.0, 1.0, 0.0]
    assert reg_diag(3, True).tolist() == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------- scoring

def test_decision_value_examples():
    assert decision_values(SvmModel([1.0, 0.0], 0.0), [[2.0, 5.0]]).tolist() == [2.0]
    assert decision_values(SvmModel([0.0, 0.0], -1.0), [[7.0, -3.0]]).tolist() == [-1.0]
    assert decision_values(SvmModel([1.0, 1.0], 0.5), [[1.0, -1.0], [2.0, 5.0]]).tolist() == [
        0.5, 7.5]


def test_decision_value_dimension_mismatch():
    with pytest.raises(ValueError, match="k=2.*k=3"):
        decision_values(SvmModel([1.0, 0.0], 0.0), [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="k=2.*k=1"):
        decision_values(SvmModel([1.0, 0.0], 0.0), np.ones((4, 1)))
    with pytest.raises(ValueError, match="2-d"):
        decision_values(SvmModel([1.0, 0.0], 0.0), [1.0, 2.0])


def test_predict_sign_and_tiebreak():
    # one label per row; a score of exactly 0 (last row) goes to +1
    assert predict(SvmModel([1.0], -1.0), [[1.3], [-6.0], [1.0]]).tolist() == [1.0, -1.0, 1.0]


@given(small_dataset(min_k=2, max_k=2), st.floats(1e-3, 1e3))
def test_predict_scale_invariance(ds, c):
    model = SvmModel([0.8, -1.3], 0.4)
    scaled = SvmModel(model.w * c, model.b * c)
    clear = np.abs(decision_values(model, ds.X)) > 1e-6
    assert np.array_equal(predict(model, ds.X)[clear], predict(scaled, ds.X)[clear])


@given(small_dataset(min_k=3, max_k=3))
def test_predict_negation_antisymmetry(ds):
    model = SvmModel([0.5, -2.0, 1.1], -0.7)
    flipped = SvmModel(-model.w, -model.b)
    nonzero = decision_values(model, ds.X) != 0.0
    assert np.array_equal(predict(model, ds.X)[nonzero], -predict(flipped, ds.X)[nonzero])


# ------------------------------------------------------------------ slack

def test_slack_examples():
    ds = LabeledDataset([[2.0]], [1.0])
    assert slack(SvmModel([1.0], 0.0), ds).xi.tolist() == [0.0]
    ds = LabeledDataset([[0.3]], [1.0])
    assert slack(SvmModel([1.0], 0.0), ds).xi.tolist() == [pytest.approx(0.7)]
    ds = LabeledDataset([[1.0]], [-1.0])
    assert slack(SvmModel([1.0], 0.0), ds).xi.tolist() == [2.0]


def test_slack_support_vector_set():
    ds = LabeledDataset([[2.0], [0.5], [-1.0]], [1.0, 1.0, -1.0])
    report = slack(SvmModel([1.0], 0.0), ds)
    # margins: 2 (xi=0), 0.5 (xi=0.5), 1 (xi=0)
    assert report.xi.tolist() == [0.0, 0.5, 0.0]
    assert report.sv_indices.tolist() == [1]
    assert report.n_sv == 1
    # the default threshold is 1e-6: a slack of 2e-6 counts, one of 5e-7 does not
    ds = LabeledDataset([[1.0 - 2e-6], [1.0 - 5e-7]], [1.0, 1.0])
    assert slack(SvmModel([1.0], 0.0), ds).sv_indices.tolist() == [0]


def test_slack_threshold_is_respected():
    ds = LabeledDataset([[0.9999], [0.5]], [1.0, 1.0])
    report = slack(SvmModel([1.0], 0.0), ds, threshold=0.1)
    assert report.sv_indices.tolist() == [1]


@given(small_dataset(max_n=8, max_k=3))
def test_slack_nonnegative_and_zero_set(ds):
    model = SvmModel(np.arange(1.0, ds.k + 1.0), -0.5)
    report = slack(model, ds)
    assert np.all(report.xi >= 0.0)
    scores = decision_values(model, ds.X)
    satisfied = ds.y * scores >= 1.0
    assert np.array_equal(report.xi == 0.0, satisfied)


def test_counts_and_means_are_derived_from_what_they_count():
    # n_sv, n_sweeps and means are read-only properties, not fields that
    # could disagree with the values they restate; a fold is its position
    ds = gen_toy(ToySpec(seed=3, n_per_class=10))
    report = slack(SvmModel([1.0, -0.5], 0.2), ds)
    assert report.n_sv == report.sv_indices.size > 0
    sol = dual_cd_train(ds, 1.0)
    assert sol.n_sweeps == len(sol.dual_objective_history) > 0
    cfg = dict(C=1.0, eta=1e-3, max_iter=300)
    cmp = run_comparison(ds, TrainConfig(p=1.0, **cfg), TrainConfig(p=0.5, **cfg), k=2)
    assert cmp.means == {name: float(np.mean([getattr(f, name) for f in cmp.folds]))
                         for name in REPORT_FIELDS}
    for obj, name in ((report, "n_sv"), (sol, "n_sweeps"), (cmp, "means")):
        assert name not in {f.name for f in dataclasses.fields(obj)}
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    assert REPORT_FIELDS == tuple(f.name for f in dataclasses.fields(FoldComparison))
    assert "fold" not in REPORT_FIELDS


def test_slack_dimension_mismatch():
    ds = LabeledDataset([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError, match="mismatch"):
        slack(SvmModel([1.0], 0.0), ds)


# ----------------------------------------------------------------- margin

def test_margin_width_examples():
    assert margin_width(SvmModel([2.0, 0.0], 5.0)) == 1.0
    assert margin_width(SvmModel([1.0, 1.0], 0.0)) == pytest.approx(np.sqrt(2.0))


def test_margin_width_of_a_zero_w_is_inf():
    # a fit can stop at w = 0; its margin width is inf, as for a subnormal w
    assert margin_width(SvmModel([0.0, 0.0], 1.0)) == math.inf
    assert margin_width(SvmModel([-0.0], 0.0)) == math.inf


def test_margin_width_of_a_subnormal_w_is_inf():
    # w.w underflows to 0, yet ||w|| = 5e-324 is not 0
    assert margin_width(SvmModel([5e-324, 0.0], 0.0)) == 2.0 / 5e-324 == math.inf


def test_model_ops_at_the_top_of_double_range_do_not_warn():
    # w.w and the scores overflow; the suite turns a RuntimeWarning into an
    # error, so each result here comes without one
    model = SvmModel([0.0, 1.3407807929942597e154], 1e308)
    assert margin_width(model) == 2.0 / 1.3407807929942597e154
    ds = LabeledDataset([[1.0, 1e155], [1.0, -1e155], [-1.0, 2e154]], [1.0, 1.0, -1.0])
    assert decision_values(model, ds.X).tolist() == [math.inf, -math.inf, math.inf]
    assert slack(model, ds).sv_indices.tolist() == [1, 2]


# ------------------------------------------------ values from outside

_DS = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
_DS_2D = gen_toy(ToySpec(n_per_class=2))

# (parameter, a call that passes the value there, its kind): every entry
# point checks a value from outside through `core.number`.
ENTRY_POINTS = [
    ("C", lambda v: TrainConfig(C=v), float),
    ("s", lambda v: TrainConfig(s=v), float),
    ("eta", lambda v: TrainConfig(eta=v), float | None),
    ("tol_obj", lambda v: TrainConfig(tol_obj=v), float),
    ("tol_grad", lambda v: TrainConfig(tol_grad=v), float),
    ("w", lambda v: SvmModel(w=[1.0, v], b=0.0), "real"),
    ("b", lambda v: SvmModel(w=[1.0], b=v), "real"),
    ("n_per_class", lambda v: ToySpec(n_per_class=v), int),
    ("cov_scale", lambda v: ToySpec(cov_scale=v), float),
    ("k", lambda v: kfold(_DS, v), int),
    ("C", lambda v: dual_cd_train(_DS, v), float),
    ("C", lambda v: kkt_check(SvmModel([1.0], 0.0), np.zeros(4), _DS, v), float),
    ("s", lambda v: smoothed_plus(0.5, v), float),
    ("step", lambda v: fd_gradient(np.zeros(2), augment(_DS).matrix, _DS.y, TrainConfig(),
                                   step=v), float),
    ("threshold", lambda v: slack(SvmModel([1.0], 0.0), _DS, v), ">= 0"),
    ("threshold", lambda v: fold_scores(SvmModel([1.0], 0.0), _DS, _DS, v), ">= 0"),
    ("threshold", lambda v: run_comparison(_DS, TrainConfig(max_iter=5), TrainConfig(max_iter=5),
                                           2, sv_threshold=v), ">= 0"),
    ("threshold", lambda v: figure_data(SvmModel([1.0, 1.0], 0.0), _DS_2D, v), ">= 0"),
    ("max_sweeps", lambda v: dual_cd_train(_DS, 1.0, max_sweeps=v), int),
]
_BAD = [("True", True), ("str", "1"), ("None", None), ("nan", float("nan")),
        ("inf", float("inf")), ("zero", 0), ("int-beyond-float", 10**400), ("half", 2.5),
        ("negative", -1.0)]
# 0 is a fine weight, bias or threshold, 10**400 a fine (if useless) int, 2.5 a fine
# float, and None asks for eta's default.
_APPLIES = {float: {"True", "str", "None", "nan", "inf", "zero", "int-beyond-float"},
            float | None: {"True", "str", "nan", "inf", "zero", "int-beyond-float"},
            "real": {"True", "str", "None", "nan", "inf", "int-beyond-float"},
            int: {"True", "str", "None", "nan", "inf", "zero", "half"},
            ">= 0": {"True", "str", "None", "nan", "inf", "int-beyond-float", "negative"}}


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{i}-{name}-{label}")
    for i, (name, call, kind) in enumerate(ENTRY_POINTS)
    for label, value in _BAD if label in _APPLIES[kind]
])
def test_entry_points_reject_bad_numbers_naming_the_parameter(name, call, value):
    with pytest.raises(ValueError, match=f"^{name}[: ]"):
        call(value)


def test_slack_threshold_takes_a_numpy_int_0():
    report = slack(SvmModel([1.0], 0.0), _DS, np.int64(0))
    assert report.sv_indices.tolist() == [0, 1]
    # at 0 any positive slack counts, one below the default threshold too
    tiny = LabeledDataset([[1.0], [1.0 - 5e-7]], [1.0, 1.0])
    assert slack(SvmModel([1.0], 0.0), tiny, np.int64(0)).sv_indices.tolist() == [1]


def test_int_beyond_int64_loads_in_w_and_b():
    model = SvmModel(w=[2**70], b=2**70)
    assert model.w.tolist() == [1.1805916207174113e+21] and model.b == 1.1805916207174113e+21


def test_entry_points_store_builtin_numbers():
    assert type(SvmModel(w=np.array([1, 2], dtype=np.int8), b=np.float32(0.5)).b) is float
    spec = ToySpec(n_per_class=np.int64(3), cov_scale=2)
    assert type(spec.n_per_class) is int and type(spec.cov_scale) is float
