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

A bound factor keeps the margins of the point ``log_value`` last scored
(and, on the logistic loss, their exp(-|a|)).  ``log_grad_hessdiag`` and
``margins`` at that point, passed as the same array with every byte
unchanged, read them instead of forming Z @ theta again; any other point
is evaluated afresh.  Either way the result is the same, bit for bit.
``log_value_many`` and ``log_value_axes`` keep nothing.

``log_value_axes(center, offsets)`` gives log f at the center and at
center +/- offsets_i e_i on every axis, the 2d+1 values ``vq`` reads.  A
bound factor forms them in margin space: the margins of center + t e_i are
m + t * Z[:, i], m = Z @ center, so the (2d+1, s) margins cost O(s*d)
rather than the O(s*d^2) of multiplying a (2d+1, d) point stack by Z^T.  A
Gaussian factor gives them in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import DiagGaussian, eval_log
from .losses import LossKind, loss_derivatives, loss_kinks, loss_slope, loss_terms, loss_value

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
    ``log_value_many`` at a stack of points, ``log_value_axes`` at a center
    and its spokes, and ``log_grad_hessdiag`` for the Laplace-style schemes.
    ``loss``, ``beta``, ``Z`` (rows y_k * x_k) and ``margins`` are its
    margin-space view: log f(theta) = -beta * sum of loss(Z @ theta), for
    schemes that solve in margin space.  ``Z`` is read from the dataset's
    ``signed_rows``, the one table a dataset holds: a view of them when
    ``batch`` is a contiguous range, as ``partition`` makes it, and a copy
    otherwise.
    """

    def __init__(self, dataset, batch, loss: LossKind, beta: float = 1.0):
        if not 0 < beta < np.inf:
            raise ValueError("beta must be positive and finite")
        batch = np.asarray(batch, dtype=int).reshape(-1)  # example indices
        rows = dataset.signed_rows
        start = int(batch[0]) if batch.size else 0
        if 0 <= start and start + batch.size <= len(rows) and (
                batch == np.arange(start, start + batch.size)).all():
            self.Z = rows[start : start + batch.size]
        else:
            self.Z = rows[batch]
        self.loss = loss
        self.beta = beta
        self._kinked = loss_kinks(loss) is not None
        self._scored = None  # (theta, its bytes, margins, tail) of the last log_value

    def log_value(self, theta) -> float:
        a = self.Z @ theta
        values, tail = loss_terms(self.loss, a)
        if type(theta) is np.ndarray:
            self._scored = theta, theta.tobytes(), a, tail
        return -self.beta * float(values.sum())

    def log_value_many(self, thetas) -> np.ndarray:
        return -self.beta * np.sum(loss_value(self.loss, thetas @ self.Z.T), axis=1)

    def log_value_axes(self, center, offsets):
        """log f at ``center`` and at center +/- offsets_i e_i, in margin space.

        The margins of center + t e_i are m + t Z[:, i], m = Z @ center, so
        the 2d+1 points cost one (2d+1, s) margin array and no (2d+1, d) one.
        Returns (l_0, l_+, l_-), the last two of shape (d,).
        """
        m = self.Z @ center
        d = offsets.size
        a = np.empty((2 * d + 1, m.size))
        a[0] = m
        plus = a[1 : d + 1]
        np.multiply(self.Z.T, offsets[:, None], out=plus)  # row i: offsets_i * Z[:, i]
        np.subtract(m, plus, out=a[d + 1 :])
        plus += m
        logf = -self.beta * np.sum(loss_value(self.loss, a), axis=1)
        return logf[0], logf[1 : d + 1], logf[d + 1 :]

    def margins(self, theta) -> np.ndarray:
        """Z @ theta, read from what log_value kept when theta is the point it
        last scored, every byte unchanged."""
        return self._kept(theta)[0]

    def _kept(self, theta):
        scored = self._scored
        if scored is not None and scored[0] is theta and scored[1] == theta.tobytes():
            return scored[2], scored[3]
        return self.Z @ theta, None

    def log_grad_hessdiag(self, theta):
        a, tail = self._kept(theta)
        if self._kinked:  # a piecewise-linear loss has no curvature
            return -self.beta * (self.Z.T @ loss_slope(self.loss, a)), np.zeros(self.Z.shape[1])
        d1, d2 = loss_derivatives(self.loss, a, tail)
        grad = -self.beta * (self.Z.T @ d1)
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

    def log_value_axes(self, center, offsets):
        """log g at center +/- offsets_i e_i in closed form:
        l_0 +/- h_i (linear_i + 2 nhp_i mu_i) + nhp_i h_i^2."""
        l0 = eval_log(self.g, center)
        nhp = self.g.neg_half_precision
        slope = offsets * (self.g.linear + 2.0 * nhp * center)
        bend = l0 + nhp * offsets * offsets
        return l0, bend + slope, bend - slope

    def log_grad_hessdiag(self, theta):
        theta = np.asarray(theta, dtype=float)
        grad = self.g.linear + 2.0 * self.g.neg_half_precision * theta
        return grad, 2.0 * self.g.neg_half_precision.copy()
