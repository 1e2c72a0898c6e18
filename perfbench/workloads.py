"""The three benchmark workloads and the correctness checks they run.

Each workload is a job that one caller repeats, one operation at a time (a
closed loop with a single client).  A job records what it observed in an
`Obs`: the time of each of its steps (the program calls a user waits for),
every check attempted and the ones that failed, each fit's time, iteration
count and stop reason, and the quality figures the checks produce.  Steps
are timed in seconds and in reference units (see refclock.py).  The program
is called only through the public functions of its modules, looked up at
call time so that the tracer's wrappers are used when installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from lpsvm import cli, core, data, metrics, oracle, solver

import inputs
from refclock import StepClock

C_GRID = (1.0, 50.0, 100.0)

# Analytic and central-difference gradients agree when every component
# differs by at most FD_REL of itself plus FD_ABS of ||grad J(0)||.  The
# absolute part covers the truncation error of differencing near a
# stationary point, where components are small.
FD_REL = 1e-4
FD_ABS = 1e-8


class Obs:
    """What one job observed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.steps: dict[str, float] = {}  # step label -> seconds
        self.step_refs: dict[str, float] = {}  # step label -> reference units
        self.ref_samples: list[float] = []  # every reference time taken
        self.fits: list[tuple[float, int, str]] = []  # seconds, iterations, stop reason
        self.stationarity: list[float] = []
        self.gaps: list[float] = []
        self.kkt: list[float] = []
        self.dual_sweeps = 0
        self.nonzero_exits = 0
        # Context for checks whose calls into lpsvm are the benchmark's own
        # work; the runner points it at Tracer.paused in a traced job.
        self.untraced = contextlib.nullcontext

    @contextlib.contextmanager
    def step(self, label: str):
        """Time the block as the job's step `label`; the block gets its
        StepClock."""
        clock = StepClock()
        try:
            with clock:
                yield clock
        finally:
            self.steps[label] = clock.seconds
            self.step_refs[label] = clock.refs
            self.ref_samples.extend(clock.samples)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _grid_config(C: float, p: float, regularize_bias: bool = False) -> solver.TrainConfig:
    # The paper's grid settings, as acceptance criterion 4 runs them.
    return solver.TrainConfig(C=C, p=p, s=100.0, eta=1e-2 / max(1.0, C / 2.0), eps=0.9,
                              max_iter=8000, tol_obj=1e-10, tol_grad=1e-6,
                              regularize_bias=regularize_bias)


def _check_gradient(obs: Obs, w_aug, dataset, cfg, label: str) -> None:
    """Compare the analytic gradient at w_aug with finite differences, and
    record ||grad J(w_aug)|| / ||grad J(0)||."""
    X_aug = core.augment(dataset).matrix
    g = solver.gradient(w_aug, X_aug, dataset.y, cfg)
    scale = float(np.linalg.norm(solver.gradient(np.zeros_like(w_aug), X_aug, dataset.y, cfg)))
    fd = oracle.fd_gradient(w_aug, X_aug, dataset.y, cfg)
    obs.check(bool(np.all(np.abs(fd - g) <= FD_REL * np.abs(g) + FD_ABS * scale)),
              f"{label}: analytic gradient disagrees with finite differences")
    obs.stationarity.append(float(np.linalg.norm(g)) / scale)


def _fit(obs: Obs, dataset, cfg, label: str):
    """Train as the step `label`, then check the final gradient."""
    model, error = None, ""
    try:
        with obs.step(label):
            model, trace = solver.train(dataset, cfg)
    except Exception as exc:  # a failing fit is a result to report, not a crash
        error = f"{type(exc).__name__}: {exc}"
    if not obs.check(model is not None, f"{label}: {error}"):
        return None
    obs.fits.append((obs.steps[label], trace.iterations, trace.stop_reason))
    _check_gradient(obs, model.w_aug, dataset, cfg, label)
    return model


# --------------------------------------------------------------------------
# paper_grid: the paper's experiments on toy data, in process.

def paper_grid_inputs(seed: int, workdir: str):
    return inputs.toy_permutations(seed, 2 * data.ToySpec().n_per_class)


def paper_grid(obs: Obs, perms) -> None:
    for toy_seed, perm in zip(inputs.TOY_SEEDS, perms):
        ds = data.gen_toy(data.ToySpec(seed=toy_seed)).subset(perm)
        tag = f"toy {toy_seed}"
        # Support-vector count against C at p = 1 and p = 0.5.
        for p in (1.0, 0.5):
            for C in C_GRID:
                label = f"{tag} p={p:g} C={C:g}"
                model = _fit(obs, ds, _grid_config(C, p), label)
                if model is not None:
                    with obs.step(f"{label} slack"):
                        core.slack(model, ds)
        # p = 1 against the dual optimum, the way acceptance criterion 2 checks it.
        X_aug = core.augment(ds).matrix
        for C in C_GRID:
            label = f"{tag} p=1 C={C:g} regularized bias"
            cfg = _grid_config(C, 1.0, regularize_bias=True)
            model = _fit(obs, ds, cfg, label)
            try:
                with obs.step(f"{label} dual"):
                    dual = oracle.dual_cd_train(ds, C)
            except Exception as exc:
                obs.check(False, f"{label}: dual oracle: {type(exc).__name__}: {exc}")
                continue
            obs.dual_sweeps += dual.n_sweeps
            obs.check(dual.converged, f"{label}: dual oracle did not converge")
            with obs.step(f"{label} kkt"):
                report = oracle.kkt_check(dual.model, dual.alpha, ds, C)
            obs.kkt.append(max(report.stationarity_residual, report.complementarity_residual,
                               report.feasibility_violation, report.box_violation))
            if model is None:
                continue
            j_star = oracle.hinge_objective(dual.model.w_aug, X_aug, ds.y, C)
            j_hat = oracle.hinge_objective(model.w_aug, X_aug, ds.y, C)
            bound = C * ds.n * math.log(2.0) / cfg.s + 1e-3 * (1.0 + j_star)
            gap = j_hat - j_star
            obs.gaps.append(gap / bound)
            obs.check(-1e-9 <= gap <= bound, f"{label}: objective gap {gap:.4g} outside [0, {bound:.4g}]")


# --------------------------------------------------------------------------
# large_csv: train on a user's CSV file, in process.

def large_csv_inputs(seed: int, workdir: str):
    X, y = inputs.large_arrays(seed)
    return os.path.join(workdir, inputs.LARGE_CSV), X, y


def large_csv(obs: Obs, args) -> None:
    path, X, y = args
    try:
        with obs.step("load_csv"):
            ds = data.load_csv(path)
    except Exception as exc:
        obs.check(False, f"load_csv: {type(exc).__name__}: {exc}")
        return
    if not obs.check(np.array_equal(ds.X, X) and np.array_equal(ds.y, y),
                     "load_csv does not return the matrix save_csv wrote"):
        return
    with obs.step("standardize"):
        (ds,) = data.standardize(ds)
    for p in (1.0, 0.5):
        label = f"large p={p:g}"
        model = _fit(obs, ds, solver.TrainConfig(C=1.0, p=p, eta=1e-5), label)
        if model is None:
            continue
        # The classes overlap with Bayes accuracy Phi(1) ~ 0.84.
        with obs.step(f"{label} accuracy"):
            acc = metrics.accuracy(model, ds)
        obs.check(acc >= 0.8, f"{label}: training accuracy {acc:.4f} below 0.8")
        with obs.step(f"{label} slack"):
            core.slack(model, ds)


# --------------------------------------------------------------------------
# readme_cli: the README's command sequence, word for word.

README = [
    ("gen_toy", "gen-toy --seed 42 --n-per-class 50 --out toy.csv"),
    ("train", "train --data toy.csv --C 1 --p 0.5 --out model.json --trace trace.csv"),
    ("eval", "eval --model model.json --data toy.csv"),
    ("cv", "cv --data toy.csv --k 5 --seed 0 --C 1 --p 0.5"),
    ("compare", "compare --data toy.csv --c-list 1,50,100 --p 0.5 --k 5 --seed 7 "
                "--eta 2e-4 --max-iter 8000 --out-json cmp.json --out-tsv cmp.tsv"),
    ("figure", "figure --model model.json --data toy.csv --out figure.json"),
]
README_OUTPUTS = ("toy.csv", "model.json", "trace.csv", "cmp.json", "cmp.tsv", "figure.json")


def readme_cli_inputs(seed: int, workdir: str):
    return workdir


def _run_subprocess(workdir: str, argv: list[str], clock: StepClock) -> tuple[int, str]:
    with open(os.path.join(workdir, "stdout.txt"), "w+", encoding="utf-8") as out:
        proc = subprocess.Popen([sys.executable, "-m", "lpsvm.cli", *argv], cwd=workdir,
                                stdout=out, stderr=subprocess.DEVNULL)
        clock.process = proc
        try:
            code = proc.wait(timeout=150)
        finally:
            clock.process = None
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        return code, out.read()


def _run_in_process(workdir: str, argv: list[str], _clock: StepClock) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # what the interpreter would report as exit status 1
        code = 1
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def readme_cli(obs: Obs, workdir: str, in_process: bool = False) -> None:
    """Run every README command, as subprocesses unless `in_process`."""
    run = _run_in_process if in_process else _run_subprocess
    for name in README_OUTPUTS:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    stdout = {}
    for name, command in README:
        with obs.step(name) as clock:
            code, stdout[name] = run(workdir, command.split(), clock)
        if name == "train":
            obs.fits.append((obs.steps[name], 0, ""))
        if code != 0:
            obs.nonzero_exits += 1
        obs.check(code == 0, f"lpsvm {name} exited with {code}")
    try:
        with obs.untraced():
            _check_readme_outputs(obs, workdir, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        obs.check(False, f"README outputs missing or malformed: {type(exc).__name__}: {exc}")


def _check_readme_outputs(obs: Obs, workdir: str, stdout: dict[str, str]) -> None:
    def path(name: str) -> str:
        return os.path.join(workdir, name)

    toy = data.load_csv(path("toy.csv"))
    expected = data.gen_toy(data.ToySpec(seed=42, n_per_class=50))
    obs.check(np.array_equal(toy.X, expected.X) and np.array_equal(toy.y, expected.y),
              "gen-toy output differs from gen_toy")

    model, doc = cli.load_model(path("model.json"))
    iterations = doc["trace"]["iterations"]
    seconds = obs.fits[-1][0]
    obs.fits[-1] = (seconds, iterations, doc["trace"]["stop_reason"])
    _check_gradient(obs, model.w_aug, toy, model.meta, "lpsvm train")
    with open(path("trace.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    obs.check(rows[0] == "iter,objective,grad_norm" and len(rows) == iterations + 2
              and rows[-1].endswith(","), "trace.csv does not match the model's iterations")

    lines = dict(line.split(" ", 1) for line in stdout["eval"].splitlines())
    obs.check(abs(float(lines["accuracy"]) - metrics.accuracy(model, toy)) <= 1e-6
              and int(lines["n_sv"]) == core.slack(model, toy).n_sv,
              "eval output differs from accuracy/slack of the model")

    cv_rows = stdout["cv"].splitlines()
    obs.check(len(cv_rows) == 7 and cv_rows[-1].split()[0] == "mean"
              and all(math.isfinite(float(v)) for v in cv_rows[-1].split()[1:]),
              "cv table malformed")

    with open(path("cmp.json"), encoding="utf-8") as fh:
        cmp_doc = json.load(fh)
    with open(path("cmp.tsv"), encoding="utf-8") as fh:
        tsv = fh.read().splitlines()
    obs.check([c["C"] for c in cmp_doc["configs"]] == list(C_GRID)
              and all(len(c["folds"]) == 5 for c in cmp_doc["configs"])
              and len(tsv) == 1 + len(C_GRID) * 6,
              "compare JSON/TSV malformed")

    with open(path("figure.json"), encoding="utf-8") as fh:
        fig = json.load(fh)
    obs.check(len(fig["points"]) == toy.n and len(fig["lines"]) == 3
              and fig["n_sv"] == sum(p["is_sv"] for p in fig["points"]),
              "figure JSON malformed")


WORKLOADS = {
    "paper_grid": (paper_grid_inputs, paper_grid),
    "large_csv": (large_csv_inputs, large_csv),
    "readme_cli": (readme_cli_inputs, readme_cli),
}
