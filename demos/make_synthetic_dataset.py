"""Regenerate the bundled synthetic survival-study dataset.

The packaged file ``ffep/data/synthetic306.csv`` mimics the shape of the
classic 306-patient survival table: integer age, two-digit study year,
a zero-inflated node count, and a binary status column where "1" marks the
majority (survived) class and "2" the minority class.  Labels are drawn from
a logistic model on the standardized features, so the logistic reference
solver has a well-defined target and all three losses see a realistic,
slightly imbalanced, non-separable problem.

Running this script rewrites the packaged CSV deterministically:

    python demos/make_synthetic_dataset.py
"""

import csv
from pathlib import Path

import numpy as np

N = 306
SEED = 20160306

# logistic ground truth on centered features; positive coefficients push
# toward the minority "2" class
COEF_AGE = 0.030
COEF_NODES = 0.18
COEF_YEAR = -0.04
INTERCEPT = -1.45


def generate(seed: int = SEED):
    rng = np.random.default_rng(seed)
    age = np.clip(np.rint(rng.normal(52.0, 10.5, size=N)), 30, 83).astype(int)
    year = rng.integers(58, 70, size=N)
    nodes = np.floor(rng.exponential(4.0, size=N)).astype(int)
    nodes *= rng.random(N) < 0.55  # slightly over half the patients have none

    logit = (
        INTERCEPT
        + COEF_AGE * (age - 52.0)
        + COEF_NODES * nodes
        + COEF_YEAR * (year - 63.0)
    )
    status = np.where(rng.random(N) < 1.0 / (1.0 + np.exp(-logit)), 2, 1)
    return age, year, nodes, status


def main():
    age, year, nodes, status = generate()
    target = Path(__file__).resolve().parent.parent / "src" / "ffep" / "data" / "synthetic306.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "year", "nodes", "status"])
        for row in zip(age, year, nodes, status):
            writer.writerow([int(v) for v in row])
    n_minority = int(np.sum(status == 2))
    print(f"wrote {target} ({N} rows, {n_minority} in class 2, "
          f"{100.0 * n_minority / N:.1f}%)")


if __name__ == "__main__":
    main()
