"""Seeded example tables for the benchmark workloads.

Features are independent standard normals. Labels come from a logistic
link on a random direction with a fixed intercept, then a share of them is
flipped at random. The flips keep the table far from separable, so the
offline logistic optimum has a cost per example well above zero and the
reference solution is meaningful.
"""

from __future__ import annotations

import numpy as np

from workloads import LABEL, feature_names

LABEL_NOISE = 0.1  # share of labels flipped at random
SIGNAL = 1.5  # norm of the true weight direction
INTERCEPT = 0.3


def write_table(path, n_examples: int, dim: int, seed: int) -> None:
    """Write ``n_examples`` rows with ``dim - 1`` features as CSV.

    ``dim`` counts the baseline column that preprocessing appends, so the
    dataset read back has exactly ``dim`` coordinates.
    """
    rng = np.random.default_rng(seed)
    n_features = dim - 1
    X = rng.standard_normal((n_examples, n_features))
    w = rng.standard_normal(n_features)
    w *= SIGNAL / np.linalg.norm(w)
    p = 1.0 / (1.0 + np.exp(-(X @ w + INTERCEPT)))
    y = (rng.random(n_examples) < p) ^ (rng.random(n_examples) < LABEL_NOISE)
    header = ",".join((LABEL,) + feature_names(n_features))
    fmt = ",".join(["%d"] + ["%.6f"] * n_features)
    np.savetxt(path, np.column_stack([y, X]), fmt=fmt, header=header, comments="")
