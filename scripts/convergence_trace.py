#!/usr/bin/env python3
"""Objective and gradient-norm trace of a single training run, written as
CSV for plotting convergence curves."""

import argparse

from lpsvm.cli import write_trace_csv
from lpsvm.data import ToySpec, gen_toy
from lpsvm.solver import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--C", type=float, default=1.0)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--eta", type=float, default=1e-2)
    ap.add_argument("--out", default="trace.csv")
    args = ap.parse_args()

    ds = gen_toy(ToySpec(seed=args.seed))
    cfg = TrainConfig(C=args.C, p=args.p, eta=args.eta)
    model, trace = train(ds, cfg)
    write_trace_csv(trace, args.out)
    print(f"{trace.iterations} iterations, stop={trace.stop_reason}, "
          f"objective {trace.objective_history[0]:.2f} -> "
          f"{trace.objective_history[-1]:.4f}; wrote {args.out}")


if __name__ == "__main__":
    main()
