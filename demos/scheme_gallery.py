"""Compare the four per-factor fitting schemes on a single hinge example.

One observation with a hinge loss gives a log-factor that is flat on one
side of the kink and linear on the other, a shape none of the schemes can
represent exactly.  Each scheme turns the cavity-weighted factor into a
Gaussian message by a different route:

  la   the tilted mode, solved exactly as a box QP on a hinge factor,
       with the mode-consistent slope there
  qla  Taylor fit at the cavity mean, no inner optimization
  gq   precision-3 sigma-point moment matching, then divide out the cavity
  vq   Taylor fit at the cavity mean with central-difference derivatives
       over the same sigma points

A dense 1-D grid supplies ground-truth moments of cavity x factor so the
schemes can be judged by the posterior mean and variance they imply.

    python demos/scheme_gallery.py
"""

import numpy as np

from ffep.factors import BoundFactor
from ffep.gaussian import DiagGaussian, eval_log, multiply
from ffep.ingest import Dataset
from ffep.losses import hinge
from ffep.schemes import SchemeKind, approximate

CAVITY_MEAN = -1.0
CAVITY_VAR = 1.0
X = 2.0  # single feature value; label +1, so the margin is 2 * theta


def dense_truth(factor):
    ts = np.linspace(CAVITY_MEAN - 10.0, CAVITY_MEAN + 10.0, 400_001)
    log_c = -0.5 * (ts - CAVITY_MEAN) ** 2 / CAVITY_VAR \
        - 0.5 * np.log(2.0 * np.pi * CAVITY_VAR)
    w = np.exp(log_c + factor.log_value_many(ts[:, None]))
    mass = np.trapezoid(w, ts)
    mean = np.trapezoid(ts * w, ts) / mass
    var = np.trapezoid((ts - mean) ** 2 * w, ts) / mass
    return mean, var


def generalized_kl(cavity, factor, message):
    """Dense-grid generalized KL from cavity x message to cavity x factor."""
    sd = float(np.sqrt(cavity.variance[0]))
    ts = np.linspace(float(cavity.mean[0]) - 8.0 * sd,
                     float(cavity.mean[0]) + 8.0 * sd, 200_001)
    c = np.exp(eval_log(cavity, ts[:, None]))
    f = np.exp(factor.log_value_many(ts[:, None]))
    g = np.exp(eval_log(message, ts[:, None]))
    ratio = np.where(f > 0.0, f * np.log(np.where(f > 0.0, f, 1.0) / g), 0.0)
    return float(np.trapezoid(c * (ratio - f + g), ts))


def main():
    ds = Dataset(features=np.array([[X]]), labels=np.array([1.0]))
    factor = BoundFactor(ds, batch=[0], loss=hinge())
    cavity = DiagGaussian.from_mean_var([CAVITY_MEAN], [CAVITY_VAR])

    true_mean, true_var = dense_truth(factor)
    print(f"dense grid: posterior mean={true_mean:.5f} var={true_var:.5f}\n")
    print(f"{'scheme':<6} {'msg precision':>14} {'post mean':>10} "
          f"{'post var':>9} {'mean err':>9}")

    for name in ("la", "qla", "gq", "vq"):
        msg = approximate(SchemeKind(name), cavity, factor)
        post = multiply(cavity, msg)
        prec = float(msg.precision[0])
        mean = float(post.mean[0])
        var = float(post.variance[0])
        print(f"{name:<6} {prec:>14.5f} {mean:>10.5f} {var:>9.5f} "
              f"{abs(mean - true_mean):>9.5f}")

    print("\nThe Taylor fits (la, qla, and vq with its central differences) all")
    print("see a locally linear log-factor here, so their messages tilt the cavity")
    print("without adding precision and the variance stays put.  Only the")
    print("moment-matching scheme (gq) integrates across the kink and")
    print("contracts toward the dense-grid truth.")

    # vq optimizes a different target: fidelity to the factor under the
    # cavity weight, not one-shot moment recovery.  With a narrow cavity
    # deep in the penalized region the factor is steep, the sigma-point
    # moments pick up an exponential tilt bias, and the log-space fit wins
    # the divergence that EP actually cares about.
    narrow = DiagGaussian.from_mean_var([CAVITY_MEAN], [0.0625])
    print("\nnarrow cavity N(-1, 0.25^2), generalized KL of cavity x factor"
          "\nfrom cavity x message (dense grid):")
    for name in ("gq", "vq"):
        msg = approximate(SchemeKind(name), narrow, factor)
        print(f"  {name}: {generalized_kl(narrow, factor, msg):.6f}")


if __name__ == "__main__":
    main()
