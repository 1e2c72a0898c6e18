"""lpsvm benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The run pins itself and its children to one CPU, sets up
(a fresh interpreter imports lpsvm and makes the inputs), then repeats the
workload's job until the measuring time is spent, setting up again after
each of the first jobs; it reports the median set-up.  With
`--trace 0` it reports the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` it alternates plain and traced jobs in one process and reports
the per-layer metrics, each layer's self time and the tracing overhead.

The last line of standard output is the result object; the line before it
carries the environment stamp and every metric, including those only some
workloads can observe.  Both, and the traced spans, are also written under
perfbench/.work/results/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads; children inherit the setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
# Set-ups per run, and how many run after each job.  The first makes the
# inputs; the others run between jobs, into a scratch directory, so that they
# meet the host at several moments.  large_csv's set-up writes a 32 MB file
# and takes seconds, so it runs fewer.
SETUP_REPEATS = {"large_csv": (5, 1)}
SETUP_REPEATS_DEFAULT = (9, 2)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "lpsvm", "__init__.py")):
    _fail(f"no lpsvm sources under {SRC}; run from the root of an lpsvm checkout")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = SRC

import numpy as np  # noqa: E402

import lpsvm  # noqa: E402
import workloads  # noqa: E402
from refclock import StepClock  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(lpsvm.__file__))) != SRC:
    _fail(f"lpsvm was imported from {lpsvm.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# Environment and set-up.

def environment() -> dict:
    # A checkout without .git has no commit to name; the source digest below
    # identifies the code either way.
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            sha = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lpsvm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def set_up(workload: str, seed: int, out: str) -> tuple[StepClock, float]:
    """Time one fresh set-up process making the inputs under `out`; returns
    its clock and the seconds it spent in save_csv."""
    os.makedirs(out, exist_ok=True)
    with StepClock() as clock:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        clock.process = proc
        try:
            stdout, stderr = proc.communicate(timeout=170)
        finally:
            clock.process = None
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        _fail(f"set-up exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    return clock, json.loads(stdout.splitlines()[-1])["save_csv_s"]


# --------------------------------------------------------------------------
# Statistics.

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that
    percentile; with ten samples or fewer, the maximum (percentile 100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_job(total: float, jobs: int) -> float:
    return total / jobs if jobs else 0.0


# --------------------------------------------------------------------------
# Metrics.

def step_medians(jobs: list[tuple[float, workloads.Obs]], field: str) -> dict[str, float]:
    """Each step's median over the repeats of the job, of `Obs.steps` or
    `Obs.step_refs`."""
    samples: dict[str, list[float]] = {}
    for _, obs in jobs:
        for label, value in getattr(obs, field).items():
            samples.setdefault(label, []).append(value)
    return {label: statistics.median(values) for label, values in samples.items()}


def end_to_end(workload: str, jobs: list[tuple[float, workloads.Obs]],
               setups: list[tuple[StepClock, float]], samples: list[float]) -> dict:
    walls = [wall for wall, _ in jobs]
    step_s = step_medians(jobs, "steps")
    step_refs = step_medians(jobs, "step_refs")
    rusage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        # The median set-up in reference units, times the fastest reference
        # time of the run: set-up seconds at the CPU's best speed in the run.
        "setup_s": (statistics.median(clock.refs for clock, _ in setups) * min(samples), "s"),
        "setup_wall_s": (statistics.median(clock.seconds for clock, _ in setups), "s"),
        "ref_min_s": (min(samples), "s"),
        "ref_p50_s": (statistics.median(samples), "s"),
        # A job's steps in reference units, each the median over the jobs.
        "wall_ref": (sum(step_refs.values()), "ref"),
        "wall_s": (statistics.median(walls), "s"),
        "iters_total": (statistics.median(sum(f[1] for f in obs.fits) for _, obs in jobs),
                        "count"),
        "stationarity_max": (statistics.median(max(obs.stationarity, default=math.nan)
                                               for _, obs in jobs), "ratio"),
        "peak_rss_mb": (rusage / 1024.0, "MB"),
    }
    fits = [seconds for _, obs in jobs for seconds, _, _ in obs.fits]
    if workload != "readme_cli" and fits:
        # Fits run in process; readme_cli's run inside its commands.
        fit_tail, tail_pct = tail(fits)
        out["fit_s_p50"] = (statistics.median(fits), "s")
        out["fit_s_tail"], out["fit_s_tail_pct"] = (fit_tail, "s"), (tail_pct, "%")
        out["fit_samples"] = (len(fits), "count")
    if workload == "paper_grid":
        out["p1_gap_max"] = (max((g for _, obs in jobs for g in obs.gaps), default=math.nan),
                             "ratio")
    if workload == "readme_cli":
        out["compare_s"] = (step_s["compare"], "s")
        out["compare_ref"] = (step_refs["compare"], "ref")
    return out


def per_layer(workload: str, tracer: Tracer, plain: list[tuple[float, workloads.Obs]],
              traced: list[tuple[float, workloads.Obs]], setup: list[float],
              save_csv: list[float]) -> dict:
    jobs = len(traced)
    spans = tracer.summary()

    def span(name: str, key: str = "total_s") -> float:
        return per_job(spans.get(name, {}).get(key, 0.0), jobs)

    def call_us(name: str) -> float:
        calls = spans.get(name, {}).get("calls", 0)
        return 1e6 * spans[name]["total_s"] / calls if calls else 0.0

    iters = sum(f[2] for f in tracer.fits)
    # Computed, not measured: one iteration runs the objective (X @ w) and the
    # gradient (X @ w and X.T @ c), three passes over the n x (k+1) float64
    # matrix.  The elementwise passes over n-vectors are not counted.
    kernel_bytes = sum(f[2] * 3 * f[0] * (f[1] + 1) * 8 for f in tracer.fits)
    kernel_flops = sum(f[2] * 3 * 2 * f[0] * (f[1] + 1) for f in tracer.fits)
    train_s = span("solver.train")
    dual_s = span("oracle.dual_cd_train")
    sweeps = per_job(sum(obs.dual_sweeps for _, obs in traced), jobs)
    load_s = span("data.load_csv")
    out = {
        "core.augment_s": (span("core.augment"), "s"),
        "core.slack_s": (span("core.slack"), "s"),
        "solver.train_calls": (span("solver.train", "calls"), "count"),
        "solver.train_s": (train_s, "s"),
        "solver.train_self_s": (span("solver.train", "self_s"), "s"),
        "solver.iters": (per_job(iters, jobs), "count"),
        "solver.iter_us": (1e6 * train_s / per_job(iters, jobs) if iters else 0.0, "us"),
        "solver.objective_calls": (span("solver.objective", "calls"), "count"),
        "solver.objective_us": (call_us("solver.objective"), "us"),
        "solver.gradient_calls": (span("solver.gradient", "calls"), "count"),
        "solver.gradient_us": (call_us("solver.gradient"), "us"),
        "solver.capped_fits": (per_job(sum(f[3] == lpsvm.solver.STOP_ITERATION_CAP
                                           for f in tracer.fits), jobs), "count"),
        "solver.kernel_bytes_per_iter": (kernel_bytes / iters if iters else 0.0, "B"),
        "solver.kernel_flops_per_iter": (kernel_flops / iters if iters else 0.0, "flop"),
        "solver.kernel_gbps": (per_job(kernel_bytes, jobs) / train_s / 1e9 if train_s else 0.0,
                               "GB/s"),
        "oracle.dual_cd_s": (dual_s, "s"),
        "oracle.dual_sweeps": (sweeps, "count"),
        "oracle.sweep_us": (1e6 * dual_s / sweeps if sweeps else 0.0, "us"),
        "oracle.kkt_s": (span("oracle.kkt_check"), "s"),
        "oracle.kkt_residual_max": (max((r for _, obs in plain + traced for r in obs.kkt),
                                        default=0.0), "1"),
        "oracle.fd_gradient_s": (span("oracle.fd_gradient"), "s"),
        "data.gen_toy_s": (span("data.gen_toy"), "s"),
        "data.save_csv_s": (span("data.save_csv") if workload != "large_csv"
                            else statistics.median(save_csv), "s"),
        "data.load_csv_s": (load_s, "s"),
        "data.load_csv_mb_per_s": (per_job(tracer.loaded_bytes, jobs) / 1e6 / load_s
                                   if load_s else 0.0, "MB/s"),
        "data.standardize_s": (span("data.standardize"), "s"),
        "data.kfold_s": (span("data.kfold"), "s"),
        "metrics.run_comparison_s": (span("metrics.run_comparison"), "s"),
        "metrics.run_comparison_self_s": (span("metrics.run_comparison", "self_s"), "s"),
        "metrics.accuracy_s": (span("metrics.accuracy"), "s"),
        "cli.startup_s": (statistics.median(setup) if workload == "readme_cli" else 0.0, "s"),
        "cli.main_self_s": (span("cli.main", "self_s"), "s"),
        "cli.nonzero_exits": (per_job(sum(obs.nonzero_exits for _, obs in traced), jobs),
                              "count"),
    }
    for command, _ in workloads.README:
        out[f"cli.{command}_s"] = (span(f"cli.cmd_{command}"), "s")
    for layer, funcs in TRACED.items():
        out[f"{layer}.self_s"] = (sum(span(f"{layer}.{f}", "self_s") for f in funcs), "s")
    plain_wall = statistics.median(wall for wall, _ in plain)
    traced_wall = statistics.median(wall for wall, _ in traced)
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    # In reference units, which the host's changing speed moves less.
    plain_ref = statistics.median(sum(obs.step_refs.values()) for _, obs in plain)
    traced_ref = statistics.median(sum(obs.step_refs.values()) for _, obs in traced)
    out["trace.overhead_frac"] = ((traced_ref - plain_ref) / plain_ref, "1")
    out["trace.spans"] = (per_job(len(tracer.start), jobs), "count")
    return out


# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="lpsvm benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One CPU for the run and every process it starts, so that each step and
    # the reference computation timed around it run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-pid{os.getpid()}")
    results = os.path.join(WORK, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        setups = [set_up(args.workload, args.seed, workdir)]
        spare = os.path.join(workdir, "spare-setup")
        setup_repeats, setups_per_job = SETUP_REPEATS.get(args.workload, SETUP_REPEATS_DEFAULT)

        def set_up_spare(count: int) -> None:
            for _ in range(min(count, setup_repeats - len(setups))):
                setups.append(set_up(args.workload, args.seed, spare))
                shutil.rmtree(spare)

        make_inputs, job = workloads.WORKLOADS[args.workload]
        job_input = make_inputs(args.seed, workdir)
        tracer = Tracer() if args.trace else None
        # The traced run executes readme_cli in process through cli.main, so
        # its plain jobs do too: the overhead compares like with like.
        options = {"in_process": True} if args.trace and args.workload == "readme_cli" else {}

        plain: list[tuple[float, workloads.Obs]] = []
        traced: list[tuple[float, workloads.Obs]] = []
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while True:
            round_start = time.perf_counter()
            use_tracer = tracer is not None and len(traced) < len(plain)
            obs = workloads.Obs()
            if use_tracer:
                obs.untraced = tracer.paused
                tracer.install()
            start = time.perf_counter()
            try:
                job(obs, job_input, **options)
            finally:
                wall = time.perf_counter() - start
                if use_tracer:
                    tracer.uninstall()
            (traced if use_tracer else plain).append((wall, obs))
            set_up_spare(setups_per_job)
            longest = max(longest, time.perf_counter() - round_start)
            if time.perf_counter() + longest > deadline and (tracer is None or traced):
                break
        set_up_spare(setup_repeats)

        jobs = plain + traced
        # The same inputs must give the same fits in every repeat.
        reference = [f[1:] for f in plain[0][1].fits]
        for _, obs in jobs[1:]:
            obs.check([f[1:] for f in obs.fits] == reference,
                      "fits differ between repeats of the same job")
        attempted = sum(obs.attempted for _, obs in jobs)
        failures = [what for _, obs in jobs for what in obs.failures]
        correct = not failures

        setup = [clock.seconds for clock, _ in setups]
        save_csv = [seconds for _, seconds in setups]
        samples = [r for clock, _ in setups for r in clock.samples]
        samples += [r for _, obs in jobs for r in obs.ref_samples]
        metrics = end_to_end(args.workload, plain, setups, samples)
        step_refs = step_medians(plain, "step_refs")
        if tracer is not None:
            metrics.update(per_layer(args.workload, tracer, plain, traced, setup, save_csv))
            tracer.write(os.path.join(results, f"{tag}-spans.npz"))
        metrics["failed_frac"] = (len(failures) / attempted, "1")
        # A fit stopped at the iteration cap returns a usable model, so it is
        # counted here rather than as a failed operation.
        fits = [f for _, obs in jobs for f in obs.fits]
        metrics["capped_frac"] = (sum(f[2] == lpsvm.solver.STOP_ITERATION_CAP for f in fits)
                                  / max(len(fits), 1), "1")
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            _fail(f"no value for {missing}")

        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(),
            "jobs": {"plain": len(plain), "traced": len(traced)},
            "setup_runs_s": setup,
            "job_walls_s": {"plain": [w for w, _ in plain], "traced": [w for w, _ in traced]},
            "failures": sorted(set(failures)),
            "step_medians": {label: {"s": value, "ref": step_refs[label]}
                             for label, value in step_medians(plain, "steps").items()},
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        if tracer is not None:
            detail["computed_from_n_and_k"] = ["solver.kernel_bytes_per_iter",
                                               "solver.kernel_flops_per_iter",
                                               "solver.kernel_gbps (computed bytes / measured time)"]
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in wanted},
        }
        with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "result": result}, fh, indent=2)
        print(json.dumps(detail))
        if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
            _fail("a metric has no finite value; see the failures above")
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
