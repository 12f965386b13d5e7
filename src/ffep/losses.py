"""Per-example classification losses as functions of the margin a = y * theta.x.

Three losses are provided, each with value, first and second derivative in
the margin:

* logistic       log(1 + exp(-a)), smooth
* hinge          max(0, 1 - a), kink at a = 1
* quasi 0-1      a continuous non-convex surrogate for the 0-1 loss,
                 piecewise linear with kinks at a = 0 and a = epsilon

At a kink the derivative is defined as the half sum of its left and right
limits, applied at exact floating-point equality with the kink location
(no tolerance band).  The quasi 0-1 loss with epsilon = 1 coincides with the
hinge loss.

All functions are vectorized: ``a`` may be a scalar or an ndarray and the
result has the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LossKind", "logistic", "hinge", "quasi01", "loss_from_name",
           "loss_kinks", "loss_value", "loss_derivatives"]

_VALID = ("logistic", "hinge", "quasi01")


@dataclass(frozen=True)
class LossKind:
    """Variant tag selecting one of the three losses."""

    name: str
    epsilon: float = 0.1

    def __post_init__(self):
        if self.name not in _VALID:
            raise ValueError(f"unknown loss {self.name!r}; expected one of {_VALID}")
        if self.name == "quasi01" and not self.epsilon > 0:
            raise ValueError("quasi01 epsilon must be positive")


def logistic() -> LossKind:
    return LossKind("logistic")


def hinge() -> LossKind:
    return LossKind("hinge")


def quasi01(epsilon: float = LossKind.epsilon) -> LossKind:
    return LossKind("quasi01", epsilon)


def loss_from_name(name: str, epsilon: float = LossKind.epsilon) -> LossKind:
    """Loss selection by name, as used in run configs and the CLI."""
    return LossKind(name, epsilon) if name == "quasi01" else LossKind(name)


def loss_kinks(kind: LossKind) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Shape of a piecewise-linear loss: (left slope, kink locations, jumps).

    Left of its first kink the loss has slope ``left_slope``; crossing
    ``kinks[j]`` from left to right adds ``jumps[j]`` to the slope.  None for
    the smooth logistic loss.
    """
    if kind.name == "hinge":
        return -1.0, np.array([1.0]), np.array([1.0])
    if kind.name == "quasi01":
        eps = kind.epsilon
        return -eps, np.array([0.0, eps]), np.array([eps - 1.0 / eps, 1.0 / eps])
    return None


def loss_value(kind: LossKind, a):
    """Loss at margin ``a``; elementwise over arrays."""
    a = np.asarray(a, dtype=float)
    if kind.name == "logistic":
        # log(1 + exp(-a)) = log1p(exp(-|a|)) - min(a, 0): exp cannot
        # overflow, and it is several times faster than np.logaddexp.  It
        # works in one buffer on a flat array (so a 0-d input stays an
        # array), plus the temporary min(a, 0).
        flat = a.reshape(-1)
        out = np.abs(flat)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out -= np.minimum(flat, 0.0)
        out = out.reshape(a.shape)
    elif kind.name == "hinge":
        out = np.maximum(0.0, 1.0 - a)
    else:
        eps = kind.epsilon
        out = np.where(a < 0, 1.0 - eps * a, np.where(a < eps, 1.0 - a / eps, 0.0))
    return out if out.ndim else float(out)


def loss_derivatives(kind: LossKind, a):
    """First and second derivative of the loss with respect to the margin.

    Piecewise-linear losses have identically zero second derivative; their
    first derivative at a kink is the half sum of the one-sided limits.
    """
    a = np.asarray(a, dtype=float)
    if kind.name == "logistic":
        # sigmoid(-a) and sigmoid(a) from one exp(-|a|), which cannot overflow
        t = np.exp(-np.abs(a))
        r = 1.0 / (1.0 + t)
        q = t * r
        d1 = np.where(a < 0, -r, -q)
        d2 = r * q
    elif kind.name == "hinge":
        d1 = np.where(a < 1, -1.0, np.where(a > 1, 0.0, -0.5))
        d2 = np.zeros_like(a)
    else:
        eps = kind.epsilon
        d1 = np.where(
            a < 0,
            -eps,
            np.where(
                a == 0,
                -(eps + 1.0 / eps) / 2.0,
                np.where(
                    a < eps,
                    -1.0 / eps,
                    np.where(a == eps, -1.0 / (2.0 * eps), 0.0),
                ),
            ),
        )
        d2 = np.zeros_like(a)
    if d1.ndim:
        return d1, d2
    return float(d1), float(d2)
