import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpsvm import cli
from lpsvm.cli import figure_data, load_model, main, save_model
from lpsvm.core import SvmModel, augment, margin_width
from lpsvm.data import ToySpec, gen_toy, load_csv, save_csv
from lpsvm.metrics import REPORT_FIELDS, cross_validate, run_comparison
from lpsvm.solver import TrainConfig, TrainTrace, objective, train

FAST_FLAGS = ["--eta", "1e-3", "--max-iter", "600"]


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    save_csv(gen_toy(ToySpec(seed=7, n_per_class=15)), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------- gen-toy

def test_gen_toy_writes_expected_rows(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert run("gen-toy", "--seed", 42, "--n-per-class", 50, "--out", out) == 0
    rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 100
    assert "wrote 100 samples" in capsys.readouterr().out


def test_gen_toy_same_flags_identical_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("gen-toy", "--seed", 1, "--out", a) == 0
    assert run("gen-toy", "--seed", 1, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_toy_defaults_are_toy_specs(tmp_path):
    out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
    assert run("gen-toy", "--out", out) == 0
    save_csv(gen_toy(ToySpec()), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_gen_toy_parser_holds_no_toy_spec_field():
    # A flag that is not given is left to ToySpec, which owns every default.
    args = cli._build_parser().parse_args(["gen-toy", "--out", "x"])
    assert not {f.name for f in dataclasses.fields(ToySpec)} & set(vars(args))


def test_gen_toy_takes_a_negative_first_coordinate_in_the_equals_form(tmp_path):
    out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
    assert run("gen-toy", "--mean-neg=-1,0.5", "--out", out) == 0
    save_csv(gen_toy(ToySpec(mean_neg=(-1.0, 0.5))), ref)
    assert out.read_bytes() == ref.read_bytes()
    # argparse reads "-1,0.5" after a space as a flag; the help says so
    assert "--mean-neg=-1,0" in _subparsers()["gen-toy"].format_help()


def test_gen_toy_rejects_zero_per_class(tmp_path, capsys):
    assert run("gen-toy", "--n-per-class", 0, "--out", tmp_path / "x.csv") == 2
    assert "n_per_class" in capsys.readouterr().err


def test_gen_toy_unwritable_path_is_runtime_error(capsys):
    assert run("gen-toy", "--out", "/nonexistent/dir/toy.csv") == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------ train

def test_train_writes_model_and_trace(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.csv"
    assert run("train", "--data", toy_csv, "--C", 1, "--p", 0.5,
               "--out", model_path, "--trace", trace_path, *FAST_FLAGS) == 0
    doc = json.loads(model_path.read_text())
    assert set(doc) == {"format_version", "w", "b", "config", "trace"}
    assert set(doc["config"]) == {"C", "p", "s", "s_start", "eta", "eps", "tol_obj",
                                  "tol_grad", "max_iter", "regularize_bias"}
    assert set(doc["trace"]) == {"iterations", "final_objective", "converged",
                                 "stop_reason", "final_grad_norm", "relative_grad_norm",
                                 "restarts", "stage_iterations"}
    # the CLI fits along the smoothing path: one entry per stage's trials
    assert doc["config"]["s_start"] == 1.0
    assert len(doc["trace"]["stage_iterations"]) == 5
    assert sum(doc["trace"]["stage_iterations"]) == doc["trace"]["iterations"]
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iter,objective,grad_norm"
    assert len(lines) - 1 == doc["trace"]["iterations"] + 1
    objectives = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert objectives[-1] <= objectives[0]
    # every performed iteration logs the gradient norm it stepped from
    assert all(ln.split(",")[2] for ln in lines[1:-1])


def test_train_model_trace_records_stationarity(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    assert run("train", "--data", toy_csv, "--out", model_path) == 0
    out, err = capsys.readouterr()
    assert err == ""
    trace = json.loads(model_path.read_text())["trace"]
    _, expected = train(load_csv(toy_csv), TrainConfig(s_start=1.0))  # the CLI's default
    assert trace["final_grad_norm"] == expected.final_grad_norm
    relative = expected.final_grad_norm / expected.initial_grad_norm
    assert trace["relative_grad_norm"] == relative
    assert out.rstrip().endswith(f" relative_grad_norm={relative:.3g}")
    assert trace["restarts"] == expected.restarts
    assert trace["converged"]


def test_readme_train_ends_stationary(tmp_path, capsys):
    # The README's `train`, word for word, fits along the smoothing path and
    # ends with ||grad J|| at most 1e-8 of ||grad J(0)||; a fit from w = 0
    # at s alone stops on tol_obj at 1.3e-4.
    data, model_path = tmp_path / "toy.csv", tmp_path / "model.json"
    assert run("gen-toy", "--seed", 42, "--n-per-class", 50, "--out", data) == 0
    assert run("train", "--data", data, "--C", 1, "--p", 0.5, "--out", model_path,
               "--trace", tmp_path / "trace.csv") == 0
    trace = json.loads(model_path.read_text())["trace"]
    assert trace["converged"] and trace["relative_grad_norm"] <= 1e-8


def test_readme_train_capped_on_the_path_reports_its_end_at_its_own_s(tmp_path, capsys):
    # The README's `train` with --max-iter 20 stops in the path's second stage;
    # the three after it start, make no trial, and end the trace at --s.
    data, model_path = tmp_path / "toy.csv", tmp_path / "model.json"
    assert run("gen-toy", "--seed", 42, "--n-per-class", 50, "--out", data) == 0
    capsys.readouterr()
    assert run("train", "--data", data, "--C", 1, "--p", 0.5, "--max-iter", 20,
               "--out", model_path) == 0
    assert capsys.readouterr().err == "warning: 1 of 1 fits stopped at the iteration cap (20)\n"
    model, doc = load_model(model_path)
    ds = load_csv(data)
    assert doc["trace"]["final_objective"] == objective(model.w_aug, augment(ds).matrix, ds.y,
                                                        model.meta)
    assert len(doc["trace"]["stage_iterations"]) == 5


def test_train_s_start_none_fits_from_zero_at_s(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    assert run("train", "--data", toy_csv, "--s-start", "none", "--out", model_path) == 0
    doc = json.loads(model_path.read_text())
    assert doc["config"]["s_start"] is None
    _, expected = train(load_csv(toy_csv), TrainConfig())
    assert doc["trace"] == json.loads(json.dumps(expected.summary()))
    assert doc["trace"]["stage_iterations"] == [expected.iterations]


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_train_s_at_or_below_the_default_s_start_fits_one_stage(tmp_path, toy_csv, capsys, p):
    # Under the default --s-start 1, --s 1 is no path: the fit is --s-start none's
    default, cold = tmp_path / "default.json", tmp_path / "none.json"
    assert run("train", "--data", toy_csv, "--p", p, "--s", 1, "--out", default) == 0
    assert run("train", "--data", toy_csv, "--p", p, "--s", 1, "--s-start", "none",
               "--out", cold) == 0
    doc, expected = json.loads(default.read_text()), json.loads(cold.read_text())
    assert doc["config"]["s_start"] == 1.0 and expected["config"]["s_start"] is None
    assert (doc["w"], doc["b"], doc["trace"]) == (expected["w"], expected["b"], expected["trace"])
    assert len(doc["trace"]["stage_iterations"]) == 1


def test_train_warns_at_iteration_cap(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    assert run("train", "--data", toy_csv, "--max-iter", 3, "--out", model_path) == 0
    err = capsys.readouterr().err
    assert err == "warning: 1 of 1 fits stopped at the iteration cap (3)\n"
    assert json.loads(model_path.read_text())["trace"]["stop_reason"] == "iteration-cap"


def test_train_default_eta_follows_C(tmp_path, toy_csv):
    path = tmp_path / "m.json"
    assert run("train", "--data", toy_csv, "--C", 50, "--max-iter", 50, "--out", path) == 0
    assert json.loads(path.read_text())["config"]["eta"] == 1e-2 / 25


def test_train_rejects_p_zero(tmp_path, toy_csv, capsys):
    assert run("train", "--data", toy_csv, "--p", 0,
               "--out", tmp_path / "m.json") == 2
    assert "p must lie" in capsys.readouterr().err


def test_train_p1_is_standard_configuration(tmp_path, toy_csv):
    model_path = tmp_path / "m.json"
    assert run("train", "--data", toy_csv, "--p", 1, "--out", model_path,
               *FAST_FLAGS) == 0
    assert json.loads(model_path.read_text())["config"]["p"] == 1.0


def test_train_divergence_exits_1(tmp_path, toy_csv, capsys):
    # a momentum fit: the smoothing path's Newton trials do not use eta
    assert run("train", "--data", toy_csv, "--p", 0.5, "--eta", 1e300, "--s-start", "none",
               "--out", tmp_path / "m.json") == 1
    assert "objective diverged at iteration 1" in capsys.readouterr().err


def test_train_overflowing_gradient_at_the_returned_point_exits_1(tmp_path, capsys):
    # the first trial is accepted at a point where the gradient's sum over
    # samples overflows (test_solver's _SUM_OVERFLOW): no model is written
    data, out = tmp_path / "ovf.csv", tmp_path / "m.json"
    data.write_text("+1,1e308,-1.5e308\n-1,1e308,-1.5e308\n+1,1e308,-1.5e308\n"
                    "+1,0,1.5e308\n-1,0,-1.5e308\n")
    assert run("train", "--data", data, "--p", 1, "--C", 1e-308, "--eta", 1e-308,
               "--out", out) == 1
    assert "gradient diverged at iteration 2" in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_data_exits_1(tmp_path, capsys):
    assert run("train", "--data", tmp_path / "absent.csv",
               "--out", tmp_path / "m.json") == 1


# ------------------------------------------------------- model round trip

def test_model_round_trip_bit_exact(tmp_path, toy_csv):
    ds = load_csv(toy_csv)
    model, trace = train(ds, TrainConfig(C=1.0, p=0.5, eta=1e-3, max_iter=600))
    path = tmp_path / "m.json"
    save_model(model, trace, path)
    back, doc = load_model(path)
    assert np.array_equal(back.w, model.w)
    assert back.b == model.b
    assert back.meta == model.meta
    assert doc["trace"]["stop_reason"] == trace.stop_reason


@pytest.mark.parametrize("kwargs", [
    {"max_iter": np.int64(3)}, {"regularize_bias": np.True_}, {"C": np.float32(2.0)},
])
def test_model_round_trip_numpy_scalar_config(tmp_path, toy_csv, kwargs):
    cfg = TrainConfig(**{"max_iter": 50, **kwargs})
    model, trace = train(load_csv(toy_csv), cfg)
    path = tmp_path / "m.json"
    save_model(model, trace, path)
    back, _ = load_model(path)
    assert back.meta == cfg
    assert np.array_equal(back.w, model.w) and back.b == model.b


def test_save_model_without_config_raises(tmp_path, toy_csv):
    # the file would otherwise record a config the model was never trained with
    model, trace = train(load_csv(toy_csv), TrainConfig(max_iter=5))
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="meta is None"):
        save_model(SvmModel(w=model.w, b=model.b), trace, path)
    assert not path.exists()


def test_load_model_null_eta_is_the_C_default(tmp_path, toy_csv):
    path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--C", 50, "--out", path, *FAST_FLAGS)
    doc = json.loads(path.read_text())
    doc["config"]["eta"] = None
    path.write_text(json.dumps(doc))
    back, _ = load_model(path)
    assert back.meta.eta == 1e-2 / 25


def test_load_model_accepts_integer_parameters(tmp_path, toy_csv):
    path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", path, *FAST_FLAGS)
    doc = json.loads(path.read_text())
    doc["w"], doc["b"] = [1, -2], 3
    path.write_text(json.dumps(doc))
    back, _ = load_model(path)
    assert back.w.dtype == np.float64 and back.w.tolist() == [1.0, -2.0]
    assert type(back.b) is float and back.b == 3.0
    assert run("eval", "--model", path, "--data", toy_csv) == 0


def test_load_model_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": 99, "w": [1.0], "b": 0.0}))
    with pytest.raises(ValueError, match="format_version"):
        load_model(path)


@pytest.mark.parametrize("drop", ["config", "w", "b"])
def test_load_model_missing_key_names_file(tmp_path, toy_csv, capsys, drop):
    path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", path, *FAST_FLAGS)
    doc = json.loads(path.read_text())
    del doc[drop]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"m.json: model file lacks {drop}"):
        load_model(path)
    capsys.readouterr()
    assert run("eval", "--model", path, "--data", toy_csv) == 2
    assert "m.json" in capsys.readouterr().err


def test_load_model_unknown_config_key_names_file(tmp_path, toy_csv, capsys):
    path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", path, *FAST_FLAGS)
    doc = json.loads(path.read_text())
    doc["config"]["momentum"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="m.json: unknown config key.*momentum"):
        load_model(path)
    capsys.readouterr()
    assert run("figure", "--model", path, "--data", toy_csv,
               "--out", tmp_path / "f.json") == 2
    assert "m.json" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [b'{"b": 0.0, "w": [\xff]}', b"{b: 0.0}", b"[" * 100_000,
                                     b"[1.0]"],
                         ids=["not-utf8", "not-json", "nested-too-deep", "json-array"])
def test_load_model_unreadable_file_names_file(tmp_path, toy_csv, capsys, payload):
    path = tmp_path / "m.json"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match="m.json: "):
        load_model(path)
    capsys.readouterr()
    assert run("eval", "--model", path, "--data", toy_csv) == 2
    assert "m.json" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("b", None),
    ("config.C", "abc"),
    ("config.C", "5"),
    ("config.C", True),
    ("config.max_iter", "5"),
    ("config.p", None),
    pytest.param("b", 10**400, id="b-int-beyond-float"),
    ("config.max_iter", 2.5),
    ("config.max_iter", True),
    ("config.regularize_bias", "no"),
    ("b", True),
    ("b", "2"),
    pytest.param("w", ["1.5", "2"], id="w-strings"),
    pytest.param("w", [True, False], id="w-bools"),
    pytest.param("w", [1, True], id="w-int-and-bool"),
    ("format_version", True),
    ("format_version", 1.0),
])
def test_load_model_mistyped_value_names_file(tmp_path, toy_csv, capsys, key, value):
    path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", path, *FAST_FLAGS)
    doc = json.loads(path.read_text())
    *parents, last = key.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="m.json: "):
        load_model(path)
    capsys.readouterr()
    assert run("eval", "--model", path, "--data", toy_csv) == 2
    assert "m.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """A toy CSV and the model document `lpsvm train` writes for it."""
    tmp = tmp_path_factory.mktemp("model")
    data = tmp / "toy.csv"
    save_csv(gen_toy(ToySpec(seed=7, n_per_class=15)), data)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("train", "--data", data, "--out", tmp / "m.json", *FAST_FLAGS) == 0
    return data, json.loads((tmp / "m.json").read_text())


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)


@given(data=st.data())
def test_eval_with_one_model_value_replaced_exits_0_or_2(trained_model, data):
    csv_path, doc = trained_model
    doc = copy.deepcopy(doc)
    paths = [(key,) for key in doc] + [
        (section, key) for section in ("config", "trace") for key in doc[section]]
    *parents, last = data.draw(st.sampled_from(paths))
    target = doc
    for name in parents:
        target = target[name]
    target[last] = data.draw(JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3))
    path = csv_path.parent / "fuzzed.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run("eval", "--model", path, "--data", csv_path)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")


def test_model_file_without_s_start_loads_for_eval_and_figure(tmp_path, toy_csv, capsys):
    # A model file written before `s_start` existed has no such config key
    # and no `stage_iterations` in its trace; it loads with s_start = None.
    path = tmp_path / "old.json"
    assert run("train", "--data", toy_csv, "--out", path) == 0
    doc = json.loads(path.read_text())
    del doc["config"]["s_start"], doc["trace"]["stage_iterations"]
    path.write_text(json.dumps(doc))
    model, _ = load_model(path)
    assert model.meta.s_start is None and np.array_equal(model.w, doc["w"])
    capsys.readouterr()
    assert run("eval", "--model", path, "--data", toy_csv) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"accuracy {cli.accuracy(model, load_csv(toy_csv)):.6f}")
    figure = tmp_path / "fig.json"
    assert run("figure", "--model", path, "--data", toy_csv, "--out", figure) == 0
    assert json.loads(figure.read_text())["lines"][1]["w"] == doc["w"]


def test_model_config_keys_follow_train_config(tmp_path, toy_csv):
    path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", path, *FAST_FLAGS)
    assert list(json.loads(path.read_text())["config"]) == [
        "C", "p", "s", "s_start", "eta", "eps", "tol_obj", "tol_grad", "max_iter",
        "regularize_bias"]


# ------------------------------------------------------------------- eval

def test_eval_prints_metrics(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", model_path, *FAST_FLAGS)
    capsys.readouterr()
    assert run("eval", "--model", model_path, "--data", toy_csv) == 0
    out = capsys.readouterr().out
    acc = float(out.split("accuracy")[1].split()[0])
    assert 0.0 <= acc <= 1.0
    assert "n_sv" in out and "margin_width" in out


def test_eval_dimension_mismatch_names_both(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    run("train", "--data", toy_csv, "--out", model_path, *FAST_FLAGS)
    other = tmp_path / "d3.csv"
    other.write_text("+1,1.0,2.0,3.0\n-1,0.0,0.0,0.0\n")
    capsys.readouterr()
    assert run("eval", "--model", model_path, "--data", other) == 2
    err = capsys.readouterr().err
    assert "k=2" in err and "k=3" in err


def test_eval_separable_data_perfect_accuracy(tmp_path, capsys):
    data = tmp_path / "sep.csv"
    run("gen-toy", "--seed", 5, "--mean-pos", "10,10", "--cov-scale", 1.0,
        "--out", data)
    model_path = tmp_path / "m.json"
    run("train", "--data", data, "--C", 10, "--p", 1, "--eta", "1e-3",
        "--max-iter", 8000, "--out", model_path)
    capsys.readouterr()
    assert run("eval", "--model", model_path, "--data", data) == 0
    out = capsys.readouterr().out
    assert "accuracy 1.000000" in out
    assert "n_sv 0" in out


def test_eval_reads_a_model_trained_to_w_zero(tmp_path, capsys):
    # identical samples with opposite labels: grad J(0) = 0, so the fit
    # returns w = 0, whose margin width is inf
    data, model_path = tmp_path / "tie.csv", tmp_path / "m.json"
    data.write_text("+1,1\n-1,1\n")
    assert run("train", "--data", data, "--out", model_path) == 0
    assert json.loads(model_path.read_text())["w"] == [0.0]
    capsys.readouterr()
    assert run("eval", "--model", model_path, "--data", data) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "margin_width inf"


# --------------------------------------------------------------------- cv

def test_cv_standardize_flag(tmp_path, toy_csv, capsys):
    assert run("cv", "--data", toy_csv, "--k", 3, "--standardize", *FAST_FLAGS) == 0
    assert capsys.readouterr().out.startswith("fold")


def test_cv_prints_folds_and_means(tmp_path, toy_csv, capsys):
    out_json = tmp_path / "cv.json"
    assert run("cv", "--data", toy_csv, "--k", 3, "--seed", 2,
               "--out-json", out_json, *FAST_FLAGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["fold", "train_acc", "test_acc", "n_sv"]
    assert len(lines) == 1 + 3 + 1 and lines[-1].startswith("mean")
    doc = json.loads(out_json.read_text())
    assert len(doc["folds"]) == 3
    assert set(doc["means"]) == {"train_acc", "test_acc", "n_sv"}
    assert doc["config"]["p"] == 0.5


def test_cv_json_lists_each_folds_trace(tmp_path, toy_csv):
    out_json = tmp_path / "cv.json"
    assert run("cv", "--data", toy_csv, "--k", 3, "--seed", 2,
               "--out-json", out_json, *FAST_FLAGS) == 0
    doc = json.loads(out_json.read_text())
    fits = [fit for _, _, [fit] in
            cross_validate(load_csv(toy_csv), [TrainConfig(**doc["config"])], 3, seed=2)]
    assert len(doc["traces"]) == 3
    for entry, (_, trace) in zip(doc["traces"], fits):
        assert entry == trace.summary()
        assert (entry["iterations"], entry["stop_reason"]) == (trace.iterations,
                                                                trace.stop_reason)


def test_cv_warns_when_folds_stop_at_iteration_cap(tmp_path, toy_csv, capsys):
    out_json = tmp_path / "cv.json"
    assert run("cv", "--data", toy_csv, "--k", 3, "--max-iter", 3, "--out-json", out_json) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 3 of 3 fits stopped at the iteration cap (3)\n"
    assert captured.out.splitlines()[0].split() == ["fold", "train_acc", "test_acc", "n_sv"]
    assert set(json.loads(out_json.read_text())) == {"k", "seed", "sv_threshold", "config",
                                                     "folds", "means", "traces"}
    # folds that stop on tolerance print no warning
    assert run("cv", "--data", toy_csv, "--k", 3) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- compare

def test_compare_blocks_and_tsv_shape(tmp_path, toy_csv, capsys):
    out_json = tmp_path / "cmp.json"
    out_tsv = tmp_path / "cmp.tsv"
    assert run("compare", "--data", toy_csv, "--c-list", "1,2,5", "--p", 0.5,
               "--k", 2, "--seed", 7, "--out-json", out_json,
               "--out-tsv", out_tsv, *FAST_FLAGS) == 0
    doc = json.loads(out_json.read_text())
    # the run's own settings are written once, at the top, not once per C
    assert set(doc) == {"data", "k", "seed", "sv_threshold", "configs"}
    assert (doc["k"], doc["seed"], doc["sv_threshold"]) == (2, 7, 1e-6)
    assert len(doc["configs"]) == 3
    for block in doc["configs"]:
        assert set(block) == {"C", "config_std", "config_min", "folds", "means", "traces"}
        assert set(block["means"]) == {
            "test_acc_std", "train_acc_std", "n_sv_std",
            "test_acc_min", "train_acc_min", "n_sv_min",
            "angle_theta_degrees", "dist_d",
        }
        assert len(block["folds"]) == 2
        assert [row["fold"] for row in block["folds"]] == [0, 1]
        assert all(set(row) == {"fold", *REPORT_FIELDS} for row in block["folds"])
        assert block["config_std"]["p"] == 1.0
        assert block["config_min"]["p"] == 0.5
        # each fold's two fits say how they ended, as the model file's trace block does
        assert [entry["fold"] for entry in block["traces"]] == [0, 1]
        for entry in block["traces"]:
            assert set(entry) == {"fold", "std", "min"}
            for fit in (entry["std"], entry["min"]):
                assert {"iterations", "restarts", "stop_reason",
                        "relative_grad_norm"} <= set(fit)
                assert fit["iterations"] >= fit["restarts"] >= 0
        report = run_comparison(load_csv(toy_csv), TrainConfig(**block["config_std"]),
                                TrainConfig(**block["config_min"]), k=2, seed=7)
        assert block["traces"] == [
            {"fold": fold, "std": trace_std.summary(), "min": trace_min.summary()}
            for fold, (trace_std, trace_min) in enumerate(report.traces)]
    rows = out_tsv.read_text().splitlines()
    # header + per config: k fold rows and one mean row
    assert len(rows) == 1 + 3 * (2 + 1)
    assert rows[0].startswith("C\tfold\t")
    assert sum(1 for r in rows if "\tmean\t" in r) == 3


def test_compare_checks_every_C_before_it_reads_the_data(tmp_path, toy_csv, monkeypatch,
                                                          capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_comparison(*args, **kwargs)

    monkeypatch.setattr(cli, "run_comparison", counted)
    assert run("compare", "--data", toy_csv, "--c-list", "1,0", *FAST_FLAGS) == 2
    assert calls == []
    assert capsys.readouterr().err == "error: C must be positive, got 0.0\n"
    # a bad C is a usage error even where the data file cannot be read
    assert run("compare", "--data", tmp_path / "missing.csv", "--c-list", "0") == 2


def test_compare_warns_when_fits_stop_at_iteration_cap(tmp_path, toy_csv, capsys):
    flags = ["compare", "--data", toy_csv, "--c-list", "1,2", "--k", 3, "--seed", 7]
    assert run(*flags, "--max-iter", 3) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 12 of 12 fits stopped at the iteration cap (3)\n"
    assert captured.out.startswith("C\tfold\t")
    # fits that stop on tolerance print no warning
    assert run(*flags) == 0
    assert capsys.readouterr().err == ""


def test_compare_sv_trend_on_seeded_toy(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    run("gen-toy", "--seed", 42, "--out", data)
    out_json = tmp_path / "cmp.json"
    capsys.readouterr()
    assert run("compare", "--data", data, "--c-list", "1,100", "--p", 0.5,
               "--k", 3, "--seed", 0, "--eta", "2e-4", "--max-iter", 8000,
               "--tol-obj", "1e-10", "--tol-grad", "1e-6",
               "--out-json", out_json) == 0
    doc = json.loads(out_json.read_text())
    n_sv = {block["C"]: block["means"]["n_sv_min"] for block in doc["configs"]}
    assert n_sv[100.0] < n_sv[1.0]


def test_compare_default_eta_is_set_per_C(tmp_path, capsys):
    # Without --eta each C gets its own initial step, 1e-2 / max(1, C/2):
    # the same means as run_comparison with those steps written out.
    data = tmp_path / "toy.csv"
    run("gen-toy", "--seed", 11, "--out", data)
    out_json = tmp_path / "cmp.json"
    assert run("compare", "--data", data, "--c-list", "1,50,100", "--p", 0.5,
               "--k", 5, "--seed", 3, "--s", 100, "--max-iter", 8000,
               "--tol-obj", "1e-10", "--tol-grad", "1e-6", "--out-json", out_json) == 0
    doc = json.loads(out_json.read_text())
    ds = load_csv(data)
    base = dict(s=100.0, s_start=1.0, eps=0.9, max_iter=8000, tol_obj=1e-10, tol_grad=1e-6)
    etas = {1.0: 1e-2, 50.0: 1e-2 / 25, 100.0: 1e-2 / 50}
    assert [block["C"] for block in doc["configs"]] == list(etas)
    for block in doc["configs"]:
        C, eta = block["C"], etas[block["C"]]
        report = run_comparison(ds, TrainConfig(C=C, p=1.0, eta=eta, **base),
                                TrainConfig(C=C, p=0.5, eta=eta, **base), k=5, seed=3)
        assert block["config_min"]["eta"] == eta
        assert block["means"] == report.means


def test_compare_takes_no_C_flag(toy_csv, capsys):
    # --c-list sets every C, so a --C would be ignored: argparse rejects it
    assert "--C" not in _subparsers()["compare"].format_help()
    with pytest.raises(SystemExit) as exc:
        run("compare", "--data", toy_csv, "--C", 1, "--c-list", 1)
    assert exc.value.code == 2
    assert "unrecognized arguments: --C 1" in capsys.readouterr().err


def test_compare_reports_nan_geometry_for_fits_with_w_zero(tmp_path, capsys):
    # each training split holds one +1 and one -1 sample at x = 1: both fits
    # return w = 0, where the angle and the distance are undefined
    data, out_tsv = tmp_path / "tie.csv", tmp_path / "cmp.tsv"
    data.write_text("+1,1\n+1,1\n-1,1\n-1,1\n")
    assert run("compare", "--data", data, "--c-list", 1, "--k", 2, "--out-tsv", out_tsv) == 0
    header, *rows = out_tsv.read_text().splitlines()
    cols = header.split("\t")
    assert [row.split("\t")[1] for row in rows] == ["0", "1", "mean"]
    cells = [dict(zip(cols, row.split("\t"))) for row in rows]
    assert [c["n_sv_std"] for c in cells] == ["2", "2", "2.000000"]  # w = 0: both samples
    assert all(c["angle_theta_degrees"] == c["dist_d"] == "nan" for c in cells)
    assert capsys.readouterr().out.splitlines()[-1] == rows[-1]



# stdout, the TSV and the JSON all come from one block per C: a TSV row is C
# and the cells of a JSON `folds` row, a mean row is C, `mean` and the cells of
# the block's `means`, and stdout is the header and the mean rows.
@pytest.mark.parametrize("tie", [False, True], ids=["toy", "tie"])
def test_compare_tsv_and_stdout_are_the_json_blocks(tmp_path, toy_csv, capsys, tie):
    data, flags = toy_csv, ["--c-list", "1,2", *FAST_FLAGS]
    if tie:  # every fit has w = 0: the geometry is null in the JSON and nan in the TSV
        data, flags = tmp_path / "tie.csv", ["--c-list", 1, "--k", 2]
        data.write_text("+1,1\n+1,1\n-1,1\n-1,1\n")
    out_json, out_tsv = tmp_path / "cmp.json", tmp_path / "cmp.tsv"
    assert run("compare", "--data", data, *flags, "--out-json", out_json,
               "--out-tsv", out_tsv) == 0

    def cells(values):
        return [cli._cell(math.nan if value is None else value) for value in values]

    header = "\t".join(["C", "fold", *REPORT_FIELDS])
    tsv, mean_rows = [header], []
    for block in json.loads(out_json.read_text())["configs"]:
        C = f"{block['C']:g}"
        tsv += ["\t".join([C, *cells(row.values())]) for row in block["folds"]]
        mean_rows.append("\t".join([C, "mean", *cells(block["means"].values())]))
        tsv.append(mean_rows[-1])
    assert out_tsv.read_text().splitlines() == tsv
    assert capsys.readouterr().out.splitlines() == [header, *mean_rows]

def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def test_every_json_file_is_strict_where_w_is_zero(tmp_path):
    # w = 0 gives an infinite margin width and an undefined angle and
    # distance: each is written as null, and every file parses as strict JSON
    data = tmp_path / "tie.csv"
    data.write_text("+1,1,1\n+1,1,1\n-1,1,1\n-1,1,1\n")
    paths = {name: tmp_path / f"{name}.json" for name in ("model", "cv", "compare", "figure")}
    assert run("train", "--data", data, "--out", paths["model"]) == 0
    assert run("figure", "--model", paths["model"], "--data", data, "--out", paths["figure"]) == 0
    assert run("cv", "--data", data, "--k", 2, "--out-json", paths["cv"]) == 0
    assert run("compare", "--data", data, "--c-list", "1,2", "--k", 2,
               "--out-json", paths["compare"]) == 0
    docs = {name: _strict_json(path) for name, path in paths.items()}
    assert docs["model"]["w"] == [0.0, 0.0]
    assert docs["figure"]["margin_width"] is None
    for block in docs["compare"]["configs"]:
        for record in (*block["folds"], block["means"]):
            assert record["angle_theta_degrees"] is None and record["dist_d"] is None


# ----------------------------------------------------------------- figure

def test_figure_export(tmp_path, toy_csv, capsys):
    model_path = tmp_path / "m.json"
    fig_path = tmp_path / "fig.json"
    run("train", "--data", toy_csv, "--out", model_path, *FAST_FLAGS)
    capsys.readouterr()
    assert run("figure", "--model", model_path, "--data", toy_csv,
               "--out", fig_path) == 0
    doc = json.loads(fig_path.read_text())
    assert set(doc) == {"points", "lines", "margin_width", "n_sv", "sv_threshold"}
    assert len(doc["points"]) == 30
    assert [ln["level"] for ln in doc["lines"]] == [-1, 0, 1]
    model, _ = load_model(model_path)
    for ln in doc["lines"]:
        assert ln["w"] == [float(v) for v in model.w]
        assert ln["b"] == model.b - ln["level"]
    assert doc["margin_width"] == margin_width(model)
    assert doc["n_sv"] == sum(p["is_sv"] for p in doc["points"])

    # n_sv agrees with eval on the same inputs
    assert run("eval", "--model", model_path, "--data", toy_csv) == 0
    out = capsys.readouterr().out
    assert f"n_sv {doc['n_sv']}" in out


def test_figure_rejects_non_2d(tmp_path, capsys):
    data = tmp_path / "d3.csv"
    data.write_text("+1,1.0,2.0,3.0\n-1,0.0,0.0,1.0\n+1,2.0,1.0,0.0\n-1,-1.0,0.0,0.0\n")
    model_path = tmp_path / "m.json"
    run("train", "--data", data, "--out", model_path, *FAST_FLAGS)
    capsys.readouterr()
    assert run("figure", "--model", model_path, "--data", data,
               "--out", tmp_path / "f.json") == 2
    assert "2-d" in capsys.readouterr().err


def test_figure_data_validates_model_dim(toy_csv):
    ds = load_csv(toy_csv)
    with pytest.raises(ValueError, match="mismatch"):
        figure_data(SvmModel([1.0, 2.0, 3.0], 0.0), ds)


# ----------------------------------------------------------- config flags

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _subparsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_actions(parser, config_cls=TrainConfig):
    names = {f.name for f in dataclasses.fields(config_cls)}
    return [a for a in parser._actions if a.dest in names]


# The config fields a subcommand sets itself, which get no flag: compare's
# --c-list gives every C.
SET_BY_COMMAND = {"train": (), "cv": (), "compare": ("C",)}


@pytest.mark.parametrize("command", ["train", "cv", "compare"])
def test_config_flags_follow_train_config_fields(command):
    parser = _subparsers()[command]
    actions = _config_actions(parser)
    fields = [f for f in dataclasses.fields(TrainConfig) if f.name not in SET_BY_COMMAND[command]]
    assert [a.option_strings for a in actions] == [
        ["--" + f.name.replace("_", "-")] for f in fields]
    # a field's cli_default, where it has one, stands in for its default
    assert [a.default for a in actions] == [f.metadata.get("cli_default", f.default)
                                            for f in fields]
    assert [a.help for a in actions] == [f.metadata["help"] for f in fields]
    assert "--tol-obj" in parser.format_help()  # argparse %-formats every help text


def test_config_flags_round_trip_a_config():
    cfg = TrainConfig(C=3.0, p=0.25, s=50.0, eta=1e-3, eps=0.5, tol_obj=1e-9,
                      tol_grad=1e-7, max_iter=77, regularize_bias=True)
    argv = ["train", "--data", "x.csv", "--out", "m.json"]
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        flag = "--" + f.name.replace("_", "-")
        argv += [flag] if value is True else [flag, repr(value)]
    assert cli._config_from_args(cli._build_parser().parse_args(argv)) == cfg


def test_new_config_field_gets_a_flag(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Extended(TrainConfig):
        new_knob: int = dataclasses.field(default=3, metadata={"help": "a new knob"})

    monkeypatch.setattr(cli, "TrainConfig", Extended)
    parser = _subparsers()["cv"]
    assert [a.option_strings for a in _config_actions(parser, Extended)][-1] == ["--new-knob"]
    parse = cli._build_parser().parse_args
    cfg = cli._config_from_args(parse(["cv", "--data", "x.csv", "--new-knob", "7", "--C", "2"]))
    assert isinstance(cfg, Extended) and cfg.new_knob == 7 and cfg.C == 2.0
    assert cli._config_from_args(parse(["cv", "--data", "x.csv"])).new_knob == 3


def test_readme_knob_table_matches_config_flags():
    section = README.read_text(encoding="utf-8").split("## Solver knobs and defaults")[1]
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in section.split("\n## ")[0].splitlines() if line.startswith("| `--")]
    actions = _config_actions(_subparsers()["train"])
    assert [row[0] for row in rows] == [a.option_strings[0] for a in actions]
    for (_, default, *_), action in zip(rows, actions):
        if action.default is None:  # a rule, written as in the flag's help
            assert f"default: {default}" in action.help
        elif isinstance(action.default, bool):
            assert default == ("on" if action.default else "off")
        else:
            assert float(default) == action.default


# ------------------------------------------------------------------ usage

def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["eval", "--model", "m.json", "--data", "x.csv"],
    ["cv", "--data", "x.csv"],
    ["compare", "--data", "x.csv", "--c-list", "1"],
    ["figure", "--model", "m.json", "--data", "x.csv", "--out", "f.json"],
])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1", "x"])
def test_bad_sv_threshold_exits_2(command, threshold, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--sv-threshold={threshold}"])
    assert exc.value.code == 2
    assert "--sv-threshold" in capsys.readouterr().err


def test_train_divergence_at_start_exits_1(tmp_path, toy_csv, capsys):
    assert run("train", "--data", toy_csv, "--C", 1e308, "--out", tmp_path / "m.json") == 1
    assert "objective diverged at iteration 0" in capsys.readouterr().err


# The ids keep the case names from when the CLI checked the pair itself.
@pytest.mark.parametrize("mean, message, rejected_by_parser", [
    # three floats parse, and ToySpec rejects them as it does in the Python API
    pytest.param("1,2,3", "mean_pos must be a pair of numbers", False,
                 id="1,2,3-expected 'a,b'"),
    pytest.param("a,b", "expected comma-separated floats", True,
                 id="a,b-expected two floats"),
])
def test_bad_mean_pos_exits_2(mean, message, rejected_by_parser, capsys):
    argv = ["gen-toy", "--mean-pos", mean, "--out", "x.csv"]
    if rejected_by_parser:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("c_list", ["a,b", "1,,2", "1,2,"])
def test_bad_c_list_exits_2(c_list):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", "x.csv", "--c-list", c_list])
    assert exc.value.code == 2
