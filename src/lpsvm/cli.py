"""Command-line surface tying the toolkit together.

Subcommands: gen-toy, train, eval, cv, compare, figure; the flags several of
them share are declared once, as parent parsers.  Exit codes: 0 on success, 1
on runtime failure (divergence, I/O), 2 on usage or validation errors.  Models,
figure data and the cv and compare reports are JSON, each laid out here;
anything tabular is CSV/TSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .core import (DEFAULT_SV_THRESHOLD, LabeledDataset, SvmModel, margin_width, nonnegative,
                   slack)
from .data import ToySpec, gen_toy, load_csv, save_csv
from .metrics import (REPORT_FIELDS, accuracy, cross_validate, fold_means, fold_scores,
                      run_comparison)
from .solver import DivergenceError, TrainConfig, TrainTrace, train

__all__ = ["main", "save_model", "load_model", "figure_data", "write_trace_csv"]

MODEL_FORMAT_VERSION = 1


def save_model(model: SvmModel, trace: TrainTrace, path) -> None:
    """Write the model-file JSON; floats keep shortest round-trip precision.
    A model without the `TrainConfig` it was trained with is a ValueError."""
    if model.meta is None:
        raise ValueError("cannot save a model without its training config (meta is None)")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "w": [float(v) for v in model.w],
        "b": float(model.b),
        "config": dataclasses.asdict(model.meta),
        "trace": trace.summary(),
    }
    _write_json(doc, path)


def _write_json(doc: dict, path) -> None:
    """Write `doc` as indented strict JSON with a trailing newline; a
    non-finite float (an undefined angle, an infinite margin width) is null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    """`value` with every NaN or +-inf float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def load_model(path) -> tuple[SvmModel, dict]:
    """Read a model file back; returns the model and the raw document.

    Raises ValueError naming the file if the document is not a model file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file must hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format_version {version!r}")
    missing = [key for key in ("config", "w", "b") if key not in doc]
    if missing:
        raise ValueError(f"{path}: model file lacks {', '.join(missing)}")
    if not isinstance(doc["config"], dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc["config"]) - {f.name for f in dataclasses.fields(TrainConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    try:
        cfg = TrainConfig(**doc["config"])
        model = SvmModel(w=doc["w"], b=doc["b"], meta=cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, doc


def figure_data(model: SvmModel, dataset: LabeledDataset,
                sv_threshold: float = DEFAULT_SV_THRESHOLD) -> dict:
    """Plot-ready export for 2-d data: points with support-vector flags, the
    three loci w.x + b in {-1, 0, +1} as (w, b') line coefficients, margin
    width and the support-vector count."""
    if dataset.k != 2:
        raise ValueError(f"figure export requires 2-d data, got k={dataset.k}")
    report = slack(model, dataset, sv_threshold)
    is_sv = np.zeros(dataset.n, dtype=bool)
    is_sv[report.sv_indices] = True
    points = [
        {"x": float(x[0]), "y": float(x[1]), "label": int(label), "is_sv": bool(flag)}
        for x, label, flag in zip(dataset.X, dataset.y, is_sv)
    ]
    w_list = [float(v) for v in model.w]
    lines = [
        {"level": level, "w": w_list, "b": float(model.b - level)}
        for level in (-1, 0, 1)
    ]
    return {
        "points": points,
        "lines": lines,
        "margin_width": margin_width(model),
        "n_sv": report.n_sv,
        "sv_threshold": float(sv_threshold),
    }


def _sv_threshold(text: str) -> float:
    try:
        return nonnegative("threshold", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from None


def _add_config_flags(p: argparse.ArgumentParser, set_by_command: tuple[str, ...] = ()) -> None:
    """One flag per `TrainConfig` field, `tol_obj` as `--tol-obj`, with the
    field's help and default; a bool field is a switch.  The fields in
    `set_by_command`, which the subcommand sets itself, get none."""
    for f in dataclasses.fields(TrainConfig):
        if f.name in set_by_command:
            continue
        p.add_argument("--" + f.name.replace("_", "-"), default=f.default, help=f.metadata["help"],
                       **({"action": "store_true"} if f.type is bool else {"type": f.type}))


def _config_from_args(args, **overrides) -> TrainConfig:
    """The `TrainConfig` of the parsed flags, with `overrides` for the fields
    the subcommand sets itself."""
    kw = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
          if f.name not in overrides}
    return TrainConfig(**kw, **overrides)


def cmd_gen_toy(args) -> int:
    given = vars(args)  # only the flags given: ToySpec has the defaults and the checks
    spec = ToySpec(**{f.name: given[f.name] for f in dataclasses.fields(ToySpec)
                      if f.name in given})
    dataset = gen_toy(spec)
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n} samples ({spec.n_per_class} per class) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    dataset = load_csv(args.data, has_header=args.has_header)
    model, trace = train(dataset, cfg)
    save_model(model, trace, args.out)
    if args.trace:
        write_trace_csv(trace, args.trace)
    print(f"trained on {dataset.n} samples: iterations={trace.iterations} "
          f"converged={trace.converged} stop_reason={trace.stop_reason} "
          f"final_objective={trace.objective_history[-1]:.6g} "
          f"final_grad_norm={trace.final_grad_norm:.3g} "
          f"relative_grad_norm={trace.relative_grad_norm:.3g}")
    _warn_if_capped([trace], cfg.max_iter)
    return 0


def write_trace_csv(trace: TrainTrace, path) -> None:
    """Write a fit's trace as CSV: `iter,objective,grad_norm`, one row per
    objective entry.  No step is taken from the final point, so its row has
    no gradient entry (the model file records its norm)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,objective,grad_norm\n")
        for it, value in enumerate(trace.objective_history):
            grad = repr(float(trace.grad_norm_history[it])) if it < trace.iterations else ""
            fh.write(f"{it},{float(value)!r},{grad}\n")


def cmd_eval(args) -> int:
    model, _ = load_model(args.model)
    dataset = load_csv(args.data, has_header=args.has_header)
    report = slack(model, dataset, args.sv_threshold)
    print(f"accuracy {accuracy(model, dataset):.6f}")
    print(f"n_sv {report.n_sv}")
    print(f"margin_width {margin_width(model):.6f}")
    return 0


def cmd_cv(args) -> int:
    cfg = _config_from_args(args)
    dataset = load_csv(args.data, has_header=args.has_header)
    results = cross_validate(dataset, [cfg], args.k, args.seed, args.standardize)
    traces = [trace for _, _, [(_, trace)] in results]
    blocks = _fold_blocks([fold_scores(model, train_ds, test_ds, args.sv_threshold)
                           for train_ds, test_ds, [(model, _)] in results],
                          [trace.summary() for trace in traces])
    print("fold  train_acc  test_acc  n_sv")
    for f in blocks["folds"]:
        print(f"{f['fold']:>4}  {f['train_acc']:>9.4f}  {f['test_acc']:>8.4f}  {f['n_sv']:>4}")
    means = blocks["means"]
    print(f"mean  {means['train_acc']:>9.4f}  {means['test_acc']:>8.4f}  {means['n_sv']:>6.1f}")
    _warn_if_capped(traces, cfg.max_iter)
    if args.out_json:
        doc = {"k": args.k, "seed": args.seed, "sv_threshold": args.sv_threshold,
               "config": dataclasses.asdict(cfg), **blocks}
        _write_json(doc, args.out_json)
    return 0


def _fold_blocks(rows: list[dict], traces: list) -> dict:
    """The `folds`, `means` and `traces` blocks of the cv and compare JSON,
    from one row of scores and one trace entry per fold, in fold order: each
    row led by its fold index, and each score's `fold_means`."""
    return {"folds": [{"fold": fold, **row} for fold, row in enumerate(rows)],
            "means": fold_means(rows),
            "traces": traces}


def cmd_compare(args) -> int:
    configs = [(C, _config_from_args(args, C=C, p=1.0), _config_from_args(args, C=C, p=args.p))
               for C in args.c_list]
    dataset = load_csv(args.data, has_header=args.has_header)
    blocks, traces = [], []  # one JSON block per C; every fit's trace
    for C, cfg_std, cfg_min in configs:
        report = run_comparison(dataset, cfg_std, cfg_min, args.k, args.seed,
                                args.sv_threshold, standardize=args.standardize)
        traces += [trace for pair in report.traces for trace in pair]
        blocks.append({"C": C, "config_std": dataclasses.asdict(cfg_std),
                       "config_min": dataclasses.asdict(cfg_min),
                       **_fold_blocks([dataclasses.asdict(f) for f in report.folds],
                                      [{"fold": fold, "std": std.summary(), "min": mn.summary()}
                                       for fold, (std, mn) in enumerate(report.traces)])})

    tsv_lines = ["\t".join(["C", "fold", *REPORT_FIELDS])]
    mean_lines = []
    for block in blocks:
        C = f"{block['C']:g}"
        tsv_lines += ["\t".join([C, *map(_cell, row.values())]) for row in block["folds"]]
        mean_lines.append("\t".join([C, "mean", *map(_cell, block["means"].values())]))
        tsv_lines.append(mean_lines[-1])
    print("\n".join([tsv_lines[0], *mean_lines]))
    _warn_if_capped(traces, args.max_iter)

    if args.out_tsv:
        with open(args.out_tsv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(tsv_lines) + "\n")
    if args.out_json:
        doc = {"data": str(args.data), "k": args.k, "seed": args.seed,
               "sv_threshold": args.sv_threshold, "configs": blocks}
        _write_json(doc, args.out_json)
    return 0


def _warn_if_capped(traces, max_iter: int) -> None:
    """One stderr line when any of the fits stopped at the iteration cap; `train`,
    `cv` and `compare` all warn through it."""
    capped = sum(not trace.converged for trace in traces)
    if capped:
        print(f"warning: {capped} of {len(traces)} fits stopped at the iteration cap "
              f"({max_iter})", file=sys.stderr)


def _cell(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6f}"


def cmd_figure(args) -> int:
    model, _ = load_model(args.model)
    dataset = load_csv(args.data, has_header=args.has_header)
    doc = figure_data(model, dataset, args.sv_threshold)
    _write_json(doc, args.out)
    print(f"wrote figure data for {dataset.n} points (n_sv={doc['n_sv']}) to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpsvm",
        description="Linear SVM training with an Lp-norm slack penalty.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    # Flag groups shared by several subcommands, each declared once.
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True)
    data.add_argument("--has-header", action="store_true")
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--sv-threshold", type=_sv_threshold, default=DEFAULT_SV_THRESHOLD)
    folds = argparse.ArgumentParser(add_help=False)
    folds.add_argument("--k", type=int, default=5)
    folds.add_argument("--seed", type=int, default=0)
    folds.add_argument("--standardize", action="store_true",
                       help="rescale features per fold using training-split statistics")
    folds.add_argument("--out-json")

    # Flags that are not given stay off the namespace; ToySpec supplies them.
    p = sub.add_parser("gen-toy", help="generate a seeded 2-d Gaussian toy dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-per-class", type=int)
    for flag in ("--mean-pos", "--mean-neg"):
        p.add_argument(flag, type=_float_list, metavar="X,Y",
                       help=f"a negative X needs the = form: {flag}=-1,0")
    p.add_argument("--cov-scale", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("train", parents=[data], help="train a model and write it as JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write per-iteration objective/gradient-norm CSV")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[data, scoring],
                       help="evaluate a model file on a dataset")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", parents=[data, folds, scoring],
                       help="stratified k-fold cross-validation of one configuration")
    _add_config_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("compare", parents=[data, folds, scoring],
                       help="cross-validated comparison of p=1 vs p<1 at each C")
    p.add_argument("--c-list", type=_float_list, required=True, metavar="C1,C2,...")
    p.add_argument("--out-tsv")
    _add_config_flags(p, set_by_command=("C",))  # --c-list gives every C
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure", parents=[data, scoring],
                       help="export plot-ready JSON for a 2-d dataset and model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
