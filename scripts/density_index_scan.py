#!/usr/bin/env python3
"""Correlation scans across the density-index family.

For n = 1 the Monte Carlo correlation reproduces -cos(delta); as n
grows it migrates toward the classical sawtooth 2|delta|/pi - 1 of the
uniform linear model.  Emits one CSV row per (n, delta), with the exact
expectation at n (``exact``) next to the n = 1 curve and the sawtooth.
"""

import argparse
import sys

import numpy as np

from singlet_lhv.analytic import correlation, linear_model_correlation
from singlet_lhv.harness import RunConfig, estimate_correlation
from singlet_lhv.model import MeasurementSetting


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--indices", default="1,2,7,32")
    args = ap.parse_args()

    indices = [int(tok) for tok in args.indices.split(",")]
    grid = np.linspace(-np.pi, np.pi, args.points)
    writer = sys.stdout
    writer.write("n,delta_rad,estimate,std_error,exact,cos_model,sawtooth\n")
    for n in indices:
        worst = worst_exact = 0.0
        for i, delta in enumerate(grid):
            cfg = RunConfig(
                trials=args.trials,
                seed=args.seed + 1000 * n + i,
                streams=4,
                setting=MeasurementSetting.from_delta(delta, n=n),
            )
            est = estimate_correlation(cfg)
            exact, saw = float(correlation(delta, n)), float(linear_model_correlation(delta))
            worst = max(worst, abs(est.value - saw))
            worst_exact = max(worst_exact, abs(est.value - exact))
            writer.write(
                f"{n},{delta:.6f},{est.value:.6f},{est.std_error:.6f},"
                f"{exact:.6f},{float(correlation(delta)):.6f},{saw:.6f}\n"
            )
        print(f"# n={n}: max |estimate - sawtooth| = {worst:.4f}, "
              f"max |estimate - exact| = {worst_exact:.4f}", file=sys.stderr)


if __name__ == "__main__":
    main()
