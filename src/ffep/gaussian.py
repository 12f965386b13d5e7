"""Diagonal (fully factorized) unnormalized Gaussians in natural-parameter form.

A value ``g`` represents the function

    g(theta) = exp( log_scale + sum_i linear[i]*theta_i
                              + sum_i neg_half_precision[i]*theta_i**2 )

i.e. the log is a linear combination of the monomial basis
(1, theta_1, ..., theta_d, theta_1**2, ..., theta_d**2).  Natural parameters
are the canonical storage because products and quotients of such functions
are coordinate-wise additions and subtractions, which is what an EP sweep
spends all of its time doing.  Means and variances are derived views.

A *proper* Gaussian has every ``neg_half_precision`` entry strictly negative
(equal to -1/(2*sigma_i^2)).  Messages arising as quotients may have entries
of any sign; they are representable and flagged improper rather than
rejected, since only moment conversions require properness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiagGaussian",
    "ImproperGaussianError",
    "MomentMatchError",
    "multiply",
    "divide",
    "moments_to_natural",
    "natural_to_moments",
    "eval_log",
]


_FLOAT64 = np.dtype(np.float64)


class ImproperGaussianError(ValueError):
    """A moment view was requested from a non-integrable Gaussian form."""


class MomentMatchError(ValueError):
    """Moments do not correspond to any proper Gaussian.

    Carries the first offending coordinate in ``coordinate`` (or -1 when the
    zeroth moment itself is invalid).
    """

    def __init__(self, message, coordinate=-1):
        super().__init__(message)
        self.coordinate = int(coordinate)


@dataclass(frozen=True)
class DiagGaussian:
    """Unnormalized factorized Gaussian, stored in natural parameters."""

    log_scale: float
    linear: np.ndarray
    neg_half_precision: np.ndarray

    def __post_init__(self):
        lin, nhp = self.linear, self.neg_half_precision
        if (type(self.log_scale) is float and type(lin) is np.ndarray
                and type(nhp) is np.ndarray and lin.dtype is _FLOAT64
                and nhp.dtype is _FLOAT64 and lin.ndim == 1 and lin.shape == nhp.shape
                and lin.size):
            return  # already canonical, as the algebra below builds it
        lin = np.asarray(self.linear, dtype=float).reshape(-1)
        nhp = np.asarray(self.neg_half_precision, dtype=float).reshape(-1)
        if lin.size < 1:
            raise ValueError("dimension must be at least 1")
        if lin.shape != nhp.shape:
            raise ValueError(
                f"linear and neg_half_precision lengths differ: {lin.shape} vs {nhp.shape}"
            )
        object.__setattr__(self, "log_scale", float(self.log_scale))
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "neg_half_precision", nhp)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_mean_var(cls, mean, var, log_mass: float = 0.0) -> "DiagGaussian":
        """Proper Gaussian with the given per-coordinate mean/variance and total mass."""
        mean = np.asarray(mean, dtype=float).reshape(-1)
        var = np.broadcast_to(np.asarray(var, dtype=float), mean.shape).astype(float)
        if np.any(var <= 0):
            raise ValueError("variances must be strictly positive")
        return _from_checked_mean_var(mean, var, log_mass)

    # -- derived views ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.linear.size

    @property
    def is_proper(self) -> bool:
        return bool(self.neg_half_precision.max() < 0)

    @property
    def precision(self) -> np.ndarray:
        """Per-coordinate precision 1/sigma_i^2 (meaningful for proper values)."""
        return -2.0 * self.neg_half_precision

    @property
    def variance(self) -> np.ndarray:
        self._require_proper()
        return -0.5 / self.neg_half_precision

    @property
    def mean(self) -> np.ndarray:
        self._require_proper()
        return self.linear * (-0.5 / self.neg_half_precision)

    @property
    def log_mass(self) -> float:
        """Log of the total integral of g over R^d."""
        var = self.variance
        mean = self.linear * var  # the mean, without checking properness again
        return self.log_scale + 0.5 * float((np.log(2.0 * np.pi * var) + mean**2 / var).sum())

    def _require_proper(self):
        if not self.is_proper:
            bad = int(np.argmax(self.neg_half_precision >= 0))
            raise ImproperGaussianError(
                f"coordinate {bad} has nonnegative theta^2 coefficient "
                f"({self.neg_half_precision[bad]:g}); no Gaussian moments exist"
            )

    def is_finite(self) -> bool:
        return bool(
            math.isfinite(self.log_scale)
            and np.isfinite(self.linear).all()
            and np.isfinite(self.neg_half_precision).all()
        )


def _check_dims(a: DiagGaussian, b: DiagGaussian):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def multiply(a: DiagGaussian, b: DiagGaussian) -> DiagGaussian:
    """Pointwise product; coordinate-wise sum of natural parameters (exact)."""
    _check_dims(a, b)
    return DiagGaussian(
        a.log_scale + b.log_scale,
        a.linear + b.linear,
        a.neg_half_precision + b.neg_half_precision,
    )


def divide(a: DiagGaussian, b: DiagGaussian) -> DiagGaussian:
    """Pointwise quotient; the result may be improper (flagged, not an error)."""
    _check_dims(a, b)
    return DiagGaussian(
        a.log_scale - b.log_scale,
        a.linear - b.linear,
        a.neg_half_precision - b.neg_half_precision,
    )


def _from_checked_mean_var(mean, var, log_mass, log_shifts=()) -> DiagGaussian:
    """The Gaussian of from_mean_var, for 1-D float arrays with var > 0.

    Each of ``log_shifts`` is then added to the log scale, one at a time.
    A variance so small that its precision overflows gives a non-finite
    Gaussian, without a warning; the gate rejects it as a message.
    """
    with np.errstate(over="ignore"):
        log_scale = log_mass - 0.5 * float((np.log(2.0 * np.pi * var) + mean**2 / var).sum())
        for shift in log_shifts:
            log_scale += shift
        return DiagGaussian(log_scale, mean / var, -0.5 / var)


def moments_to_natural(m0, m1, m2, log_shifts=()) -> DiagGaussian:
    """The unique unnormalized factorized Gaussian with raw moments m0, m1, m2.

    ``m0`` is the total mass and ``m1``, ``m2`` the per-coordinate first and
    second raw moments.  Moments taken in units of exp(s1 + s2 + ...), as a
    max-shifted quadrature sum is, pass ``log_shifts=(s1, s2, ...)``: each
    is added to the log scale in turn.
    """
    m0 = float(m0)
    m1 = np.asarray(m1, dtype=float).reshape(-1)
    m2 = np.asarray(m2, dtype=float).reshape(-1)
    if m1.shape != m2.shape or m1.size < 1:
        raise ValueError("m1 and m2 must be equal-length nonempty vectors")
    if not (m0 > 0):
        raise MomentMatchError(f"zeroth moment must be positive, got {m0:g}")
    mean = m1 / m0
    var = m2 / m0 - mean**2
    if not ((var > 0.0).all() and np.isfinite(var).all()):
        finite = np.isfinite(var)
        if finite.all():
            bad, kind = int(np.argmin(var)), "nonpositive"
        else:
            bad, kind = int(np.argmax(~finite)), "non-finite"
        raise MomentMatchError(f"coordinate {bad} implies {kind} variance {var[bad]:g}",
                               coordinate=bad)
    return _from_checked_mean_var(mean, var, float(np.log(m0)), log_shifts)


def natural_to_moments(g: DiagGaussian) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact raw moments (m0, m1, m2) of a proper Gaussian; inverse of moments_to_natural."""
    m0 = float(np.exp(g.log_mass))
    mean = g.mean
    return m0, m0 * mean, m0 * (g.variance + mean**2)


def eval_log(g: DiagGaussian, theta) -> np.ndarray | float:
    """log g at one point (shape (d,)) or a batch of points (shape (m, d))."""
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    pts = np.atleast_2d(theta)
    if pts.shape[1] != g.dim:
        raise ValueError(f"theta has {pts.shape[1]} coordinates, expected {g.dim}")
    vals = g.log_scale + pts @ g.linear + (pts * pts) @ g.neg_half_precision
    return float(vals[0]) if single else vals
