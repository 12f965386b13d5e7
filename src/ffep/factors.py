"""Boltzmann factors over mini-batches, and the fixed Gaussian prior factor.

A mini-batch factor is f(theta) = exp(-beta * sum of per-example losses over
the batch).  Only log-values and derivatives are exposed here; exponentiation
happens inside the approximation schemes with max-shift stabilization, since
f itself underflows to zero at moderate beta * cost.

Derivatives chain through the margin a_k = y_k * theta.x_k:

    grad_i     = -beta * sum_k d1(a_k) * y_k * x_{k,i}
    hessdiag_i = -beta * sum_k d2(a_k) * x_{k,i}^2

which is all a fully factorized scheme ever needs (off-diagonal curvature is
never formed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import DiagGaussian, eval_log
from .losses import LossKind, loss_derivatives, loss_kinks, loss_value

__all__ = [
    "PriorFactor",
    "BoundFactor",
    "GaussianFactor",
    "prior_as_message",
]


@dataclass(frozen=True)
class PriorFactor:
    """Fixed zero-mean Gaussian prior on the classifier parameters."""

    variance: float = 25.0

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError("prior variance must be positive and finite")


def prior_as_message(prior: PriorFactor, d: int) -> DiagGaussian:
    """The prior as a proper unit-mass message of dimension d."""
    return DiagGaussian.from_mean_var(np.zeros(d), prior.variance)


class BoundFactor:
    """The mini-batch factor over rows ``batch`` of ``dataset``.

    Exposes the surface the schemes consume: ``log_value`` at one point,
    ``log_value_many`` at a stack of points, and ``log_grad_hessdiag`` for
    the Laplace-style schemes.  ``loss``, ``beta`` and ``Z`` (rows
    y_k * x_k) are its margin-space view: log f(theta) = -beta * sum of
    loss(Z @ theta), for schemes that solve in margin space.
    """

    def __init__(self, dataset, batch, loss: LossKind, beta: float = 1.0):
        if not 0 < beta < np.inf:
            raise ValueError("beta must be positive and finite")
        batch = np.asarray(batch, dtype=int).reshape(-1)  # example indices
        self.Z = dataset.labels[batch, None] * dataset.features[batch]
        self.loss = loss
        self.beta = beta
        self._kinked = loss_kinks(loss) is not None

    def log_value(self, theta) -> float:
        return -self.beta * float(loss_value(self.loss, self.Z @ theta).sum())

    def log_value_many(self, thetas) -> np.ndarray:
        return -self.beta * np.sum(loss_value(self.loss, thetas @ self.Z.T), axis=1)

    def log_grad_hessdiag(self, theta):
        d1, d2 = loss_derivatives(self.loss, self.Z @ theta)
        grad = -self.beta * (self.Z.T @ d1)
        if self._kinked:  # a piecewise-linear loss has no curvature
            return grad, np.zeros(grad.size)
        # Z * Z equals X * X, since every label is +1 or -1
        hessdiag = -self.beta * ((self.Z * self.Z).T @ d2)
        return grad, hessdiag


class GaussianFactor:
    """A diagonal Gaussian used directly as a factor (synthetic/conjugate runs)."""

    def __init__(self, g: DiagGaussian):
        self.g = g

    def log_value(self, theta) -> float:
        return eval_log(self.g, theta)

    def log_value_many(self, thetas) -> np.ndarray:
        return eval_log(self.g, np.atleast_2d(thetas))

    def log_grad_hessdiag(self, theta):
        theta = np.asarray(theta, dtype=float)
        grad = self.g.linear + 2.0 * self.g.neg_half_precision * theta
        return grad, 2.0 * self.g.neg_half_precision.copy()
