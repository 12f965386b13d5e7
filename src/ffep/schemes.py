"""Factor-approximation back-ends: four ways to fit a Gaussian to one factor.

Each scheme answers the same question: given a proper diagonal-Gaussian
cavity c and a black-box factor f, produce a DiagGaussian message g
standing in for f.  A factor exposes ``log_value(theta)`` and
``log_value_many(thetas)`` (an (m, d) stack to m log-values); ``la`` and
``qla`` also call ``log_grad_hessdiag(theta)``, the gradient and Hessian
diagonal of log f.  A factor may add a margin-space view, ``loss``,
``beta`` and ``Z`` with log f(theta) = -beta * sum of loss(Z @ theta), as
``factors.BoundFactor`` does; ``la`` solves kinked batches through it.

* ``la``  - Laplace: find the maximizer of c*f, then fit the second-order
            Taylor expansion of log f there.  A hinge batch's maximizer
            solves a box QP exactly; other factors use damped diagonal
            Newton, whose line search is exact on the other piecewise-linear
            losses (quasi 0-1) and step halving on the rest.  A
            piecewise-linear loss takes its slope from the mode.
* ``qla`` - quick Laplace: the same Taylor fit taken at the cavity mean,
            skipping the inner optimization entirely (and therefore
            independent of the cavity variance).
* ``gq``  - Gaussian quadrature: estimate the order-0/1/2 moments of c*f
            with the deterministic precision-3 sigma-point rule, match a
            Gaussian to them, and divide the cavity back out.
* ``vq``  - variational quadrature: the Taylor fit of ``qla``, taken at the
            cavity mean, with the slope and curvature of log f read as
            central differences over the ``gq`` sigma points (step
            gamma*sigma_i on axis i) instead of exact derivatives.  That is
            the log-quadratic through the center and both spokes of every
            axis, and the stationary point of the quadrature-discretized
            generalized KL divergence D(c*f || c*g).  Exact whenever f itself
            is a factorized Gaussian; no cavity division is involved.

Messages may legitimately come out improper (nonnegative theta^2
coefficient) or even non-finite; admissibility is the EP engine's call, not
ours.  A scheme raises SchemeFailure only when it cannot build a message.
An improper cavity has no moments: each scheme reads its mean first, which
raises ImproperGaussianError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    DiagGaussian,
    MomentMatchError,
    divide,
    eval_log,
    moments_to_natural,
)
from .losses import LossKind, loss_kinks

__all__ = [
    "QuadratureRule",
    "SchemeKind",
    "SchemeFailure",
    "scheme_from_name",
    "build_rule",
    "default_gamma",
    "approx_laplace",
    "approx_quick_laplace",
    "approx_gauss_quadrature",
    "approx_variational_quadrature",
    "approximate",
]

_MAX_HALVINGS = 30
# step lengths tried after a rejected full Newton step: 2^-1, ..., 2^-(_MAX_HALVINGS-1)
_HALVINGS = 0.5 ** np.arange(1, _MAX_HALVINGS)
# The hinge QP's active-set iterations, per row of the batch: it starts with
# no row free, and random batches of up to 300 rows took at most 4.1 per row
# (5.1 when started at a = 0).
_QP_ITER_PER_ROW = 20
# A row joins the free set when the part of its Q column outside the span of
# the free rows (its Schur complement) exceeds this share of its Q_jj.
_QP_DEPENDENT = 1e-10
# A bound multiplier is optimal when its wrong-signed part is at most this
# share of the magnitude of the terms it sums.
_QP_KKT_RTOL = 1e-12


class SchemeFailure(RuntimeError):
    """A scheme could not produce a candidate message; the engine decides."""


def _require_integer(name: str, value):
    """Raise ValueError unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class SchemeKind:
    """Scheme selector plus the numeric knobs of the back-ends.

    ``newton_tol`` and ``newton_max_iter`` drive ``la``'s inner Newton
    search, which every factor but a hinge batch takes; the hinge batch's
    exact QP solve has its own iteration cap.  ``gamma`` sets the
    sigma-point spread of ``gq`` and ``vq``.
    """

    kind: str
    newton_tol: float = 1e-5
    newton_max_iter: int = 50
    gamma: float | None = None  # None: sqrt(d + 0.5), inducing uniform weights

    def __post_init__(self):
        if self.kind not in _DISPATCH:
            raise ValueError(f"unknown scheme {self.kind!r}")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        _require_integer("newton_max_iter", self.newton_max_iter)
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")


# selecting a scheme by name is constructing its SchemeKind, defaults and all
scheme_from_name = SchemeKind


@dataclass(frozen=True)
class QuadratureRule:
    """The 2d+1 sigma points and weights of the precision-3 rule."""

    points: np.ndarray  # (2d+1, d): center, then +gamma spokes, then -gamma spokes
    weights: np.ndarray  # (2d+1,)
    gamma: float
    offsets: np.ndarray  # (d,): gamma * sigma_i, how far the spokes on axis i reach


def default_gamma(d: int) -> float:
    """Spread making all 2d+1 weights equal (and hence none zero or negative)."""
    return float(np.sqrt(d + 0.5))


def build_rule(cavity: DiagGaussian, gamma: float | None = None) -> QuadratureRule:
    """Sigma points of the cavity: the center and one +/- spoke per axis.

    Weights are w_0 = 1 - d/gamma^2 at the center and 1/(2 gamma^2) on every
    spoke; they sum to one for any gamma, and the rule integrates polynomials
    of total degree <= 3 against the cavity exactly.
    """
    d = cavity.dim
    g = default_gamma(d) if gamma is None else float(gamma)
    mu = cavity.mean
    offs = g * np.sqrt(cavity.variance)
    pts = np.empty((2 * d + 1, d))
    pts[:] = mu
    # a block of d spokes, flattened, holds its moved coordinates every d+1 entries
    pts[1 : d + 1].reshape(-1)[:: d + 1] = mu + offs
    pts[d + 1 :].reshape(-1)[:: d + 1] = mu - offs
    w = np.full(2 * d + 1, 1.0 / (2.0 * g * g))
    w[0] = 1.0 - d / (g * g)
    return QuadratureRule(points=pts, weights=w, gamma=g, offsets=offs)


def _sigma_log_values(cavity: DiagGaussian, factor, gamma: float | None):
    """The cavity's sigma-point rule and the log-factor at its points."""
    rule = build_rule(cavity, gamma)
    logf = factor.log_value_many(rule.points)
    if not np.isfinite(np.max(logf)):
        raise SchemeFailure("factor vanishes (or is undefined) at every quadrature point")
    return rule, logf


# ---------------------------------------------------------------------------
# Laplace-style schemes
# ---------------------------------------------------------------------------


def _taylor_message(theta, value, grad, hessdiag) -> DiagGaussian:
    # log g(theta') = value + grad.(theta'-theta) + 1/2 (theta'-theta)^T H (theta'-theta)
    nhp = 0.5 * hessdiag
    linear = grad - hessdiag * theta
    log_scale = float(value) - float(grad @ theta) + 0.5 * float(hessdiag @ (theta * theta))
    return DiagGaussian(log_scale, linear, nhp)


def _newton_mode(cavity: DiagGaussian, factor, scheme: SchemeKind, kinks) -> np.ndarray:
    """Maximize log(c*f) by damped Newton on its diagonal curvature.

    The curvature is the cavity precision plus the factor's Hessian
    diagonal, and the search starts from the cavity mean.

    ``kinks`` is ``losses.loss_kinks`` of the factor's margin-view loss, or
    None.  With kinks the loss is piecewise linear, so the factor's
    curvature is zero and the Newton step is u = grad/L, L the cavity
    precision.  Minus log(c*f) along theta + t*u is then
    beta * sum loss(Z theta + t Z u) plus c1*t + c2*t^2, with
    c1 = sum L (theta - mu) u and c2 = 1/2 sum L u^2, and _line_minimize
    finds its exact minimizer.  When that point does not move, the search
    has converged.

    Without kinks each iteration tries the full Newton step first; if that lowers the
    objective, the halved steps 2^-1 ... 2^-(_MAX_HALVINGS-1) are scored and
    the longest one that does not lower it is taken, all of them scored in
    one ``log_value_many`` call.  When none qualifies, no ascent is left
    along the Newton direction and the search has converged.  A full step
    that lowers the objective by at most 4 ulps is a tie, and the search has
    converged too: which side of the tie it lands on is rounding, as are the
    halved steps' values.
    """
    tol = scheme.newton_tol
    theta = cavity.mean.copy()
    lam = cavity.precision  # fallback curvature where the factor is nonconcave
    obj = eval_log(cavity, theta) + factor.log_value(theta)
    if not np.isfinite(obj):
        raise SchemeFailure("objective not finite at the cavity mean")

    def neg_log_tilted(point):
        return -(eval_log(cavity, point) + factor.log_value(point))

    for _ in range(scheme.newton_max_iter):
        grad_f, hd_f = factor.log_grad_hessdiag(theta)
        grad_c = cavity.linear + 2.0 * cavity.neg_half_precision * theta
        grad = grad_c + grad_f
        hess = 2.0 * cavity.neg_half_precision + hd_f
        hess = np.where(hess < -1e-12, hess, -lam)
        step = -grad / hess
        if not np.all(np.isfinite(step)):
            raise SchemeFailure("non-finite Newton step in Laplace maximization")
        if kinks is not None:  # c1 = -grad_c . u, as grad_c = L (mu - theta)
            cand, neg = _line_minimize(neg_log_tilted, factor.Z, kinks, theta, step, -obj,
                                       -float(grad_c @ step), 0.5 * float(lam @ (step * step)),
                                       factor.beta)
            if cand is theta:
                return theta  # the exact minimizer along the Newton direction stays put
            step, val = cand - theta, -neg
        else:
            cand = theta + step
            val = eval_log(cavity, cand) + factor.log_value(cand)
            if not (np.isfinite(val) and val >= obj):
                if obj - val <= 4.0 * np.spacing(abs(obj)):
                    return theta  # the full step changes the objective by rounding only
                cands = theta + _HALVINGS[:, None] * step
                vals = eval_log(cavity, cands) + factor.log_value_many(cands)
                ok = np.flatnonzero(np.isfinite(vals) & (vals >= obj))
                if not ok.size:
                    return theta  # no ascent available along the Newton direction
                step, cand, val = _HALVINGS[ok[0]] * step, cands[ok[0]], vals[ok[0]]
        theta, obj = cand, val
        if np.all(np.abs(step) <= tol * np.maximum(1.0, np.abs(theta))):
            return theta
    raise SchemeFailure("Laplace maximization did not converge")


def _line_minimize(objective, Z, kinks, theta, direction, f0, c1, c2, beta):
    """Exact minimization of t -> objective(theta + t*direction); never moves uphill.

    Along the line ``objective`` is beta * sum of loss(Z (theta +
    t*direction)) plus c1*t + c2*t^2 and a constant, ``kinks`` being the
    loss's shape (``losses.loss_kinks``).  The margins along the line are
    a + t*b, with a = Z theta and b = Z direction, so the loss sum is
    piecewise linear in t: where margin k crosses a kink, at
    t = (kink - a_k) / b_k, its slope jumps by jump * |b_k|.  With c2 > 0 the
    minimum is the best of the segments' vertices, each clipped to its
    segment.  That point is kept only when ``objective`` there is below
    ``f0``.  A line with c2 = 0, as a zero direction has, is left alone.
    """
    if not c2 > 0.0:
        return theta, f0
    left_slope, kink_at, jumps = kinks
    a, b = Z @ theta, Z @ direction
    moving = b != 0
    a, b = a[moving], b[moving]
    breaks = ((kink_at[:, None] - a) / b).ravel()
    order = breaks.argsort()
    breaks = breaks[order]
    # slopes[j] is the slope of the loss sum plus c1*t between breaks[j-1] and
    # breaks[j].  Left of every breakpoint, margins with b > 0 lie left of
    # every kink and those with b < 0 right of every kink.
    far_left = beta * (left_slope * b.sum() + jumps.sum() * b[b < 0].sum())
    slopes = np.concatenate(
        ([c1 + far_left], (beta * jumps[:, None] * np.abs(b)).ravel()[order])).cumsum()
    # The linear part's change from t = 0 to each breakpoint, summed outward
    # from the segment holding 0 so that far breakpoints add no rounding near
    # it.  knots[j] is the end of segment j nearest to 0, or 0 itself.
    k0 = int(breaks.searchsorted(0.0))
    knots = np.concatenate((breaks[:k0], [0.0], breaks[k0:]))
    right = (slopes[k0:-1] * (knots[k0 + 1 :] - knots[k0:-1])).cumsum()
    left = (slopes[1 : k0 + 1] * (knots[:k0] - knots[1 : k0 + 1]))[::-1].cumsum()[::-1]
    edges = np.concatenate(([-np.inf], breaks, [np.inf]))
    t = np.minimum(np.maximum(-slopes / (2.0 * c2), edges[:-1]), edges[1:])
    change = np.concatenate((left, [0.0], right)) + slopes * (t - knots) + c2 * t * t
    best = int(change.argmin())
    if change[best] < 0.0:
        moved = theta + float(t[best]) * direction
        f = objective(moved)
        if f < f0:
            return moved, f
    return theta, f0


def _box_qp(Zw: np.ndarray, Z: np.ndarray, b: np.ndarray, hi: float,
            start: np.ndarray) -> np.ndarray:
    """argmin of 1/2 a.Q.a - a.b over the box [0, hi]^s, with Q = Zw Z^T PSD.

    Q is never formed: Q a is Zw (Z^T a), a block Q[r, c] is Zw[r] Z[c]^T,
    and the KKT check's scale |Q| a is bounded above by |Zw| (|Z|^T a), so
    an s-row problem in d dimensions keeps O(s d) memory.

    A primal-feasible active-set method, started at the vertex hi*start.
    Each row is free, at 0 or at hi.  A step is the Newton step
    -Q_FF^-1 g_F on the face that fixes the bound rows, g = Q a - b being
    the gradient; it stops at the first bound it meets, and that row leaves
    the free set.  After a full step the free rows are optimal by
    construction, so only the bound rows' multipliers are checked: the most
    wrong-signed one is freed, and when none is, a is the minimum.  Freeing
    row j takes one solve, Q_FF w = Q_Fj, which gives both the test below
    and the Newton step on the enlarged face: with g_F = 0 it runs along
    (-w, 1).  A step moves only the free rows and row j, so the ratio test
    reads only those.

    Q may be singular (more rows than dimensions, repeated or zero rows), so
    the free set is kept to rows with independent Q columns.  A freed row
    whose column lies in their span gets no Newton step: the direction n
    that moves it and offsets the free rows has Q n = 0, so the objective
    falls linearly along it and the step runs to the first bound.

    Once no multiplier is wrong-signed, the free rows are solved from their
    face once more, so that a row which travelled from hi to near 0 keeps
    no cancellation error.
    """
    s = b.size
    a = np.where(start, hi, 0.0)
    # each row's state: +1 at hi, -1 at 0, 0 when free.  It is also the sign
    # of the gradient entries that make a bound row's multiplier wrong.
    side = np.where(start, 1.0, -1.0)
    tol_zw, abs_z, tol_b = _QP_KKT_RTOL * np.abs(Zw), np.abs(Z), _QP_KKT_RTOL * np.abs(b)
    at_face_min = True  # no row is free: a vertex is its own face's minimum
    for _ in range(_QP_ITER_PER_ROW * (s + 1)):
        rows = (side == 0.0).nonzero()[0]
        zw_f, z_f = Zw.take(rows, axis=0), Z.take(rows, axis=0)
        u = a @ Z
        if at_face_min:
            g = Zw @ u - b
            excess = side * g - (tol_zw @ (a @ abs_z) + tol_b)
            j = excess.argmax()
            if not excess[j] > 0.0:
                if rows.size:  # re-solve the face once, free of the path's rounding
                    rhs = b[rows] - zw_f @ (np.where(side > 0.0, hi, 0.0) @ Z)
                    a[rows] = np.minimum(np.maximum(np.linalg.solve(zw_f @ z_f.T, rhs), 0.0), hi)
                return a
            q = w = zw_f @ Z[j]
            if rows.size:
                w = np.linalg.solve(zw_f @ z_f.T, q)
            side[j] = 0.0
            moving = np.concatenate((rows, [j]))
            step = np.concatenate((-w, [1.0]))
            q_jj = Zw[j] @ Z[j]
            schur = q_jj - q @ w
            if schur > _QP_DEPENDENT * q_jj:
                step *= -g[j] / schur  # the Newton step of the bordered system
                full = 1.0
            else:  # the null direction, oriented to move row j off its bound
                if a[j] != 0.0:
                    step = -step
                full = np.inf
        else:
            moving = rows
            step = np.linalg.solve(zw_f @ z_f.T, b.take(rows) - zw_f @ u)
            full = 1.0
        # how far each moving row can go before it meets the bound it heads for
        a_m, up = a.take(moving), step > 0.0
        room = np.full(step.size, np.inf)
        np.divide(np.where(up, hi - a_m, a_m), np.abs(step), out=room, where=step != 0.0)
        k = room.argmin()
        if room[k] >= full:
            a[moving] = np.minimum(np.maximum(a_m + step, 0.0), hi)
            at_face_min = True
            continue
        a_m = np.minimum(np.maximum(a_m + room[k] * step, 0.0), hi)
        a_m[k] = hi if up[k] else 0.0
        a[moving] = a_m
        side[moving[k]] = 1.0 if up[k] else -1.0
        # a null step that carried the freed row to its other bound left the
        # free rows, the mode and so every multiplier as they were
        at_face_min = (full == np.inf and moving[k] == j) or moving.size == 1
    raise SchemeFailure("hinge tilted-mode QP did not converge")


def _hinge_mode(cavity: DiagGaussian, Z: np.ndarray, beta: float):
    """The maximizer of log c(theta) - beta * sum max(0, 1 - Z theta), and its slope.

    This is the linear-SVM primal with the cavity as regularizer (Hsieh et
    al., ICML 2008, solve the same dual).  With L the cavity precision its
    dual is the box QP of _box_qp with Q = (Z L^-1) Z^T, passed in factored
    form, b = 1 - Z mu and hi = beta, started at beta*[b > 0]: every row
    whose margin at the cavity mean is below 1 at full weight, as qla's
    one-sided slope has it.  Where most rows end free that start costs more
    than a = 0 (s = 300 rows in d = 400: a median of 531 steps against 213),
    but no benchmark workload has batches that wide.  The mode is
    theta* = mu + L^-1 Z^T a*, unique even where a* is not, and
    Z^T a* = L (theta* - mu) is the slope at which cavity*message peaks at
    theta*.
    """
    lam, mu = cavity.precision, cavity.mean
    Zw = Z / lam
    b = 1.0 - Z @ mu
    if not (np.isfinite(Zw).all() and np.isfinite(b).all()):
        raise SchemeFailure("non-finite hinge QP")
    slope = _box_qp(Zw, Z, b, beta, b > 0.0) @ Z
    return mu + slope / lam, slope


def approx_laplace(cavity: DiagGaussian, factor, scheme: SchemeKind | None = None) -> DiagGaussian:
    """Fit the log-factor's Taylor expansion at the maximizer of cavity*factor.

    A smooth or black-box factor finds its maximizer theta* by the damped
    Newton search of _newton_mode, which ``newton_tol`` and
    ``newton_max_iter`` drive and which halves its steps; the message takes
    the factor's own gradient and Hessian diagonal at theta*.

    A factor with a margin-space view (``loss``, ``beta`` and ``Z``, as
    ``BoundFactor`` has) on a piecewise-linear loss is kinked.  A hinge
    batch has its maximizer solved exactly as a box QP (_hinge_mode); a
    quasi 0-1 batch takes _newton_mode, with each Newton direction searched
    exactly through the margin view.  The mode often sits on kinks, where
    the factor's one-sided slope is arbitrary and its curvature zero, so the
    message takes the mode-consistent slope L (theta* - mu), with L and mu
    the cavity's precision and mean, so that cavity*message peaks at
    theta*, and zero curvature.
    """
    scheme = scheme or SchemeKind("la")
    loss = getattr(factor, "loss", None)
    kinks = loss_kinks(loss) if isinstance(loss, LossKind) else None
    if kinks is None:
        theta = _newton_mode(cavity, factor, scheme, None)
        return _taylor_message(theta, factor.log_value(theta), *factor.log_grad_hessdiag(theta))
    if loss.name == "hinge":
        theta, grad_f = _hinge_mode(cavity, factor.Z, factor.beta)
    else:
        theta = _newton_mode(cavity, factor, scheme, kinks)
        grad_f = -(cavity.linear + 2.0 * cavity.neg_half_precision * theta)
    return _taylor_message(theta, factor.log_value(theta), grad_f, np.zeros_like(theta))


def approx_quick_laplace(cavity: DiagGaussian, factor,
                         scheme: SchemeKind | None = None) -> DiagGaussian:
    """Taylor fit of the log-factor at the cavity mean; no inner optimization."""
    mu = cavity.mean
    value = factor.log_value(mu)
    grad_f, hd_f = factor.log_grad_hessdiag(mu)
    return _taylor_message(mu, value, grad_f, hd_f)


# ---------------------------------------------------------------------------
# Gaussian quadrature
# ---------------------------------------------------------------------------


def approx_gauss_quadrature(cavity: DiagGaussian, factor,
                            scheme: SchemeKind | None = None) -> DiagGaussian:
    """Moment-match cavity*factor from sigma-point sums, then divide the cavity out.

    Factor values are exponentiated after subtracting their maximum over the
    rule's points; the shift (and the cavity mass) is restored into the
    matched Gaussian's log scale, so nothing overflows.  The division is done
    in natural parameters (exact) and may yield an improper message.
    """
    scheme = scheme or SchemeKind("gq")
    rule, logf = _sigma_log_values(cavity, factor, scheme.gamma)
    shift = float(np.max(logf))
    f = np.exp(logf - shift)
    wf = rule.weights * f
    m0 = float(np.sum(wf))
    m1 = wf @ rule.points
    m2 = wf @ (rule.points * rule.points)
    try:
        matched = moments_to_natural(m0, m1, m2, log_shifts=(shift, cavity.log_mass))
    except MomentMatchError as exc:
        raise SchemeFailure(f"quadrature moments not matchable: {exc}") from exc
    return divide(matched, cavity)


# ---------------------------------------------------------------------------
# Variational quadrature
# ---------------------------------------------------------------------------


def approx_variational_quadrature(cavity: DiagGaussian, factor,
                                  scheme: SchemeKind | None = None) -> DiagGaussian:
    """The Taylor message at the cavity mean, with central-difference derivatives.

    With l_0 the log-factor at the center mu and l_+i, l_-i its values at
    the spokes mu +/- h_i e_i, h_i = gamma*sigma_i, the slope and curvature
    of log f on axis i are taken as (l_+i - l_-i)/(2 h_i) and
    (l_+i + l_-i - 2 l_0)/h_i^2, and the message is _taylor_message at mu
    with them: the log-quadratic through the center and both spokes of
    every axis.  ``qla`` builds the same message from exact derivatives.

    It is also the variational answer.  The rule has 2d+1 points and the
    quadrature-discretized generalized KL surrogate 2d+1 monomials (the
    test oracle ``surrogate_value_grad_hess`` in ``tests/oracles.py``
    evaluates it), so the surrogate is stationary exactly where the message
    interpolates the factor values; with positive weights that point is its
    minimizer.  The message does not depend on the quadrature weights, so a
    gamma with gamma^2 = d (zero center weight) or gamma^2 < d (negative)
    needs no rejection.
    """
    scheme = scheme or SchemeKind("vq")
    rule, logf = _sigma_log_values(cavity, factor, scheme.gamma)
    h = rule.offsets
    d = h.size
    l0, lp, lm = logf[0], logf[1 : d + 1], logf[d + 1 :]
    # a dead spoke (log f = -inf) makes the message non-finite; the gate rejects it
    with np.errstate(all="ignore"):
        return _taylor_message(rule.points[0], l0, (lp - lm) / (2.0 * h),
                               (lp + lm - 2.0 * l0) / (h * h))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


_DISPATCH = {
    "la": approx_laplace,
    "qla": approx_quick_laplace,
    "gq": approx_gauss_quadrature,
    "vq": approx_variational_quadrature,
}


def approximate(scheme: SchemeKind, cavity: DiagGaussian, factor) -> DiagGaussian:
    """Run the selected scheme on one (cavity, factor) pair."""
    return _DISPATCH[scheme.kind](cavity, factor, scheme)
