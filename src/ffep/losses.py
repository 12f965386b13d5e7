"""Per-example classification losses as functions of the margin a = y * theta.x.

Three losses are provided, each with value, first and second derivative in
the margin:

* logistic       log(1 + exp(-a)), smooth
* hinge          max(0, 1 - a), kink at a = 1
* quasi 0-1      a continuous non-convex surrogate for the 0-1 loss,
                 piecewise linear with kinks at a = 0 and a = epsilon

The two piecewise-linear losses are each described once, by the table
``loss_kinks`` returns: their kink locations and the slope of every segment
between them.  Their first derivative is looked up in that table; at a kink
it is defined as the half sum of its left and right limits, applied at exact
floating-point equality with the kink location (no tolerance band).  The
quasi 0-1 loss with epsilon = 1 coincides with the hinge loss.

All functions are vectorized: ``a`` may be a scalar or an ndarray and the
result has the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
        if self.name == "quasi01" and not 0 < self.epsilon < np.inf:
            raise ValueError("quasi01 epsilon must be positive and finite")


def logistic() -> LossKind:
    return LossKind("logistic")


def hinge() -> LossKind:
    return LossKind("hinge")


def quasi01(epsilon: float = LossKind.epsilon) -> LossKind:
    return LossKind("quasi01", epsilon)


def loss_from_name(name: str, epsilon: float = LossKind.epsilon) -> LossKind:
    """Loss selection by name, as used in run configs and the CLI."""
    return LossKind(name, epsilon) if name == "quasi01" else LossKind(name)


@cache
def loss_kinks(kind: LossKind) -> tuple[np.ndarray, np.ndarray] | None:
    """A piecewise-linear loss as its (kinks, slopes) table; None for logistic.

    ``kinks`` are the kink locations in increasing order and ``slopes`` the
    loss's slope on each segment: ``slopes[j]`` left of ``kinks[j]``,
    ``slopes[-1]`` past the last kink.  The slope at a margin a is
    ``slopes[kinks.searchsorted(a)]``, searching from the left or the right
    giving the two one-sided slopes, which differ only at a kink.  Each
    table is built once per LossKind, and its arrays are read-only.
    """
    if kind.name == "hinge":
        table = np.array([1.0]), np.array([-1.0, 0.0])
    elif kind.name == "quasi01":
        eps = kind.epsilon
        table = np.array([0.0, eps]), np.array([-eps, -1.0 / eps, 0.0])
    else:
        return None
    for array in table:
        array.flags.writeable = False
    return table


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
    first derivative is the half sum of the one-sided slopes of
    ``loss_kinks``' table, which is the segment's slope away from a kink.
    """
    a = np.asarray(a, dtype=float)
    table = loss_kinks(kind)
    if table is None:
        # sigmoid(-a) and sigmoid(a) from one exp(-|a|), which cannot overflow
        t = np.exp(-np.abs(a))
        r = 1.0 / (1.0 + t)
        q = t * r
        d1 = np.where(a < 0, -r, -q)
        d2 = r * q
    else:
        kinks, slopes = table
        d1 = 0.5 * (slopes[kinks.searchsorted(a, "left")] + slopes[kinks.searchsorted(a, "right")])
        d2 = np.zeros_like(a)
    if d1.ndim:
        return d1, d2
    return float(d1), float(d2)
