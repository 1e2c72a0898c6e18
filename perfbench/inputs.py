"""Seeded benchmark inputs, and the set-up process that makes them.

Run as a script, this is one set-up: a fresh interpreter imports lpsvm and
makes the inputs of one workload.  The benchmark times several such
processes and reports their median as `setup_s`.

    python3 perfbench/inputs.py --workload large_csv --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

# paper_grid: the first two toy seeds of the paper's support-vector study.
# The workload seed permutes their rows rather than choosing other seeds:
# fits on different toy seeds differ by up to 3x in time, and a run has room
# for only two of them.
TOY_SEEDS = (0, 1)

# large_csv: n samples in k dimensions, class means +-0.25 per coordinate
# (2 standard deviations apart along the diagonal), unit spread.
LARGE_N = 100_000
LARGE_K = 16
LARGE_MEAN = 0.25
LARGE_CSV = "large.csv"


def toy_permutations(seed: int, n: int) -> list[np.ndarray]:
    """Row order of each toy dataset, drawn from the workload seed."""
    return [np.random.Generator(np.random.PCG64([seed, t])).permutation(n) for t in TOY_SEEDS]


def large_arrays(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-class Gaussian samples and +-1 labels, drawn with PCG64 from the seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    half = LARGE_N // 2
    X = np.vstack([rng.normal(LARGE_MEAN, 1.0, (half, LARGE_K)),
                   rng.normal(-LARGE_MEAN, 1.0, (LARGE_N - half, LARGE_K))])
    y = np.concatenate([np.ones(half), -np.ones(LARGE_N - half)])
    return X, y


def make(workload: str, seed: int, out: str) -> dict[str, float]:
    """Import the program and make one workload's inputs under `out`.

    Returns the seconds spent in save_csv, the one program call set-up makes.
    """
    import lpsvm.cli  # noqa: F401  the CLI imports every lpsvm module
    from lpsvm.core import LabeledDataset
    from lpsvm.data import save_csv

    timings = {"save_csv_s": 0.0}
    if workload == "paper_grid":
        toy_permutations(seed, 2 * lpsvm.ToySpec().n_per_class)
    elif workload == "large_csv":
        dataset = LabeledDataset(*large_arrays(seed))
        start = time.perf_counter()
        save_csv(dataset, os.path.join(out, LARGE_CSV))
        timings["save_csv_s"] = time.perf_counter() - start
    # readme_cli: the README's own gen-toy command makes its data.
    return timings


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(make(args.workload, args.seed, args.out)))
