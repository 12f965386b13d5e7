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

__all__ = ["LossKind", "logistic", "hinge", "quasi01", "loss_from_name", "KinkTable",
           "loss_kinks", "loss_value", "loss_terms", "loss_slope", "loss_derivatives"]

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


class KinkTable(tuple):
    """A piecewise-linear loss's (kinks, slopes) pair, read-only.

    It also holds the constants a line search reads (``schemes._line_minimize``),
    derived once: ``left_slope`` = slopes[0], ``jumps``, the slope change at
    each kink, and their sum ``jump_sum``.
    """

    def __new__(cls, kinks: np.ndarray, slopes: np.ndarray):
        table = super().__new__(cls, (kinks, slopes))
        table.left_slope = slopes[0]
        table.jumps = slopes[1:] - slopes[:-1]
        table.jump_sum = table.jumps.sum()
        for array in (kinks, slopes, table.jumps):
            array.flags.writeable = False
        return table


@cache
def loss_kinks(kind: LossKind) -> KinkTable | None:
    """A piecewise-linear loss as its (kinks, slopes) table; None for logistic.

    ``kinks`` are the kink locations in increasing order and ``slopes`` the
    loss's slope on each segment: ``slopes[j]`` left of ``kinks[j]``,
    ``slopes[-1]`` past the last kink.  The slope at a margin a is
    ``slopes[kinks.searchsorted(a)]``, searching from the left or the right
    giving the two one-sided slopes, which differ only at a kink.  Each
    table is built once per LossKind, and its arrays are read-only.
    """
    if kind.name == "hinge":
        return KinkTable(np.array([1.0]), np.array([-1.0, 0.0]))
    if kind.name == "quasi01":
        eps = kind.epsilon
        return KinkTable(np.array([0.0, eps]), np.array([-eps, -1.0 / eps, 0.0]))
    return None


def _exp_neg_abs(a: np.ndarray) -> np.ndarray:
    """exp(-|a|) in one new buffer, for an array of at least one dimension.

    Both logistic formulas start from it, and it cannot overflow.
    """
    t = np.abs(a)
    np.negative(t, out=t)
    return np.exp(t, out=t)


def _logistic(a: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(1 + exp(-a)) = log1p(t) - min(a, 0) into ``out``, t being exp(-|a|).

    It is several times faster than np.logaddexp.
    """
    np.log1p(t, out=out)
    out -= np.minimum(a, 0.0)
    return out


def loss_value(kind: LossKind, a):
    """Loss at margin ``a``; elementwise over arrays."""
    a = np.asarray(a, dtype=float)
    if kind.name == "logistic":
        # one buffer on a flat array (so a 0-d input stays an array), plus
        # the temporary min(a, 0)
        flat = a.reshape(-1)
        t = _exp_neg_abs(flat)
        out = _logistic(flat, t, t).reshape(a.shape)
    elif kind.name == "hinge":
        out = np.maximum(0.0, 1.0 - a)
    else:
        eps = kind.epsilon
        out = np.where(a < 0, 1.0 - eps * a, np.where(a < eps, 1.0 - a / eps, 0.0))
    return out if out.ndim else float(out)


def loss_terms(kind: LossKind, a: np.ndarray):
    """The loss at a 1-D array of margins, and the tail ``loss_derivatives`` reuses.

    The tail is exp(-|a|) on the logistic loss, with which
    ``loss_derivatives(kind, a, tail)`` forms no exponential, and None on the
    piecewise-linear ones.  The values are ``loss_value``'s, bit for bit.
    """
    if kind.name != "logistic":
        return loss_value(kind, a), None
    t = _exp_neg_abs(a)
    return _logistic(a, t, np.empty_like(t)), t


def loss_slope(kind: LossKind, a):
    """A piecewise-linear loss's first derivative at margin ``a``.

    It is the half sum of the one-sided slopes of ``loss_kinks``' table,
    which is the segment's slope away from a kink.
    """
    kinks, slopes = loss_kinks(kind)
    return 0.5 * (slopes[kinks.searchsorted(a, "left")] + slopes[kinks.searchsorted(a, "right")])


def loss_derivatives(kind: LossKind, a, tail=None):
    """First and second derivative of the loss with respect to the margin.

    Piecewise-linear losses have identically zero second derivative, and
    their first is ``loss_slope``.  On the logistic loss ``tail``, when
    given, is exp(-|a|) of the same margins, from ``loss_terms``.
    """
    a = np.asarray(a, dtype=float)
    if kind.name == "logistic":
        # sigmoid(-a) and sigmoid(a) from one exp(-|a|)
        flat = a.reshape(-1)
        t = _exp_neg_abs(flat) if tail is None else tail
        r = 1.0 / (1.0 + t)
        q = t * r
        d1 = np.negative(np.where(flat < 0, r, q)).reshape(a.shape)
        d2 = (r * q).reshape(a.shape)
    else:
        d1 = loss_slope(kind, a)
        d2 = np.zeros_like(a)
    if d1.ndim:
        return d1, d2
    return float(d1), float(d2)
