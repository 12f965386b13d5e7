"""Factor-approximation back-ends: four ways to fit a Gaussian to one factor.

Each scheme answers the same question: given a proper diagonal-Gaussian
cavity c and a black-box factor f (exposing log-values, and for the
Laplace-style schemes also gradient/Hessian-diagonal), produce a
DiagGaussian message g standing in for f.

* ``la``  - Laplace: find the maximizer of c*f, then fit the second-order
            Taylor expansion of log f there.  A hinge batch's maximizer
            solves a box QP exactly; other factors use damped diagonal
            Newton.  A piecewise-linear loss takes its slope from the mode.
* ``qla`` - quick Laplace: the same Taylor fit taken at the cavity mean,
            skipping the inner optimization entirely (and therefore
            independent of the cavity variance).
* ``gq``  - Gaussian quadrature: estimate the order-0/1/2 moments of c*f
            with the deterministic precision-3 sigma-point rule, match a
            Gaussian to them, and divide the cavity back out.
* ``vq``  - variational quadrature: minimize a quadrature discretization of
            the generalized KL divergence D(c*f || c*g) over the natural
            parameters of g.  The minimizer is in closed form: log-space
            interpolation of f at the 2d+1 sigma points ``gq`` also uses.
            Exact whenever f itself is a factorized Gaussian, and it outputs
            the message directly with no cavity division.

Messages may legitimately come out improper (nonnegative theta^2
coefficient); admissibility is the EP engine's call, not ours.  Failures to
produce any message at all raise SchemeFailure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    DiagGaussian,
    ImproperGaussianError,
    MomentMatchError,
    MomentVector,
    divide,
    eval_log,
    moments_to_natural,
)
from .losses import LossKind, is_piecewise_linear

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
# no row free, and random batches of up to 300 rows took at most 4 per row.
_QP_ITER_PER_ROW = 20
# A row joins the free set when the part of its Q column outside the span of
# the free rows (its Schur complement) exceeds this share of its Q_jj.
_QP_DEPENDENT = 1e-10
# A bound multiplier is optimal when its wrong-signed part is at most this
# share of the magnitude of the terms it sums.
_QP_KKT_RTOL = 1e-12


class SchemeFailure(RuntimeError):
    """A scheme could not produce a candidate message; the engine decides."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


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
        if self.kind not in ("la", "qla", "gq", "vq"):
            raise ValueError(f"unknown scheme {self.kind!r}")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        if not isinstance(self.newton_max_iter, (int, np.integer)) or self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be an integer of at least 1")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")


def scheme_from_name(name: str, newton_tol: float = 1e-5,
                     newton_max_iter: int = 50, gamma: float | None = None) -> SchemeKind:
    return SchemeKind(name, newton_tol, newton_max_iter, gamma)


@dataclass(frozen=True)
class QuadratureRule:
    """The 2d+1 sigma points and weights of the precision-3 rule."""

    points: np.ndarray  # (2d+1, d): center, then +gamma spokes, then -gamma spokes
    weights: np.ndarray  # (2d+1,)
    gamma: float

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def default_gamma(d: int) -> float:
    """Spread making all 2d+1 weights equal (and hence none zero or negative)."""
    return float(np.sqrt(d + 0.5))


def build_rule(cavity: DiagGaussian, gamma: float | None = None) -> QuadratureRule:
    """Sigma points of the cavity: the center and one +/- spoke per axis.

    Weights are w_0 = 1 - d/gamma^2 at the center and 1/(2 gamma^2) on every
    spoke; they sum to one for any gamma, and the rule integrates polynomials
    of total degree <= 3 against the cavity exactly.
    """
    if not cavity.is_proper:
        raise ImproperGaussianError("quadrature rule needs a proper cavity")
    d = cavity.dim
    g = default_gamma(d) if gamma is None else float(gamma)
    mu = cavity.mean
    sigma = np.sqrt(cavity.variance)
    pts = np.tile(mu, (2 * d + 1, 1))
    offs = g * sigma
    pts[1 : d + 1] += np.diag(offs)
    pts[d + 1 :] -= np.diag(offs)
    w = np.full(2 * d + 1, 1.0 / (2.0 * g * g))
    w[0] = 1.0 - d / (g * g)
    return QuadratureRule(points=pts, weights=w, gamma=g)


def _log_values(factor, pts: np.ndarray) -> np.ndarray:
    fn = getattr(factor, "log_value_many", None)
    if fn is not None:
        return np.asarray(fn(pts), dtype=float)
    return np.array([factor.log_value(p) for p in pts], dtype=float)


# ---------------------------------------------------------------------------
# Laplace-style schemes
# ---------------------------------------------------------------------------


def _taylor_message(theta, value, grad, hessdiag) -> DiagGaussian:
    # log g(theta') = value + grad.(theta'-theta) + 1/2 (theta'-theta)^T H (theta'-theta)
    nhp = 0.5 * hessdiag
    linear = grad - hessdiag * theta
    log_scale = value - float(grad @ theta) + 0.5 * float(hessdiag @ (theta * theta))
    return DiagGaussian(log_scale, linear, nhp)


def _first_ascent(cavity_logs: np.ndarray, factor, cands: np.ndarray, obj: float):
    """(index, value) of the first candidate whose log(c*f) is finite and
    >= obj, else (None, None); ``cavity_logs`` holds their log c."""
    if getattr(factor, "log_value_many", None) is not None:
        vals = cavity_logs + _log_values(factor, cands)
        ok = np.flatnonzero(np.isfinite(vals) & (vals >= obj))
        return (ok[0], vals[ok[0]]) if ok.size else (None, None)
    for k, (c, p) in enumerate(zip(cavity_logs, cands)):
        val = c + factor.log_value(p)
        if np.isfinite(val) and val >= obj:
            return k, val
    return None, None


def _newton_mode(cavity: DiagGaussian, factor, scheme: SchemeKind) -> np.ndarray:
    """Maximize log(c*f) by damped Newton on its diagonal curvature.

    The curvature is the cavity precision plus the factor's Hessian
    diagonal, and the search starts from the cavity mean.  Each iteration
    tries the full Newton step first; if that lowers the objective, the
    halved steps 2^-1 ... 2^-(_MAX_HALVINGS-1) are scored and the longest
    one that does not lower it is taken.  They are scored in one batched
    call, or, for a factor without ``log_value_many``, one at a time from
    the longest, stopping at the first that qualifies.  When none
    qualifies, no ascent is left along the Newton direction and the search
    has converged.  A full step that lowers the objective by at most 4 ulps
    is a tie, and the search has converged too: which side of the tie it
    lands on is rounding, as are the halved steps' values.
    """
    tol = scheme.newton_tol
    theta = cavity.mean.copy()
    lam = cavity.precision  # fallback curvature where the factor is nonconcave
    obj = eval_log(cavity, theta) + factor.log_value(theta)
    if not np.isfinite(obj):
        raise SchemeFailure("objective not finite at the cavity mean")

    for _ in range(scheme.newton_max_iter):
        grad_f, hd_f = factor.log_grad_hessdiag(theta)
        grad = cavity.linear + 2.0 * cavity.neg_half_precision * theta + grad_f
        hess = 2.0 * cavity.neg_half_precision + hd_f
        hess = np.where(hess < -1e-12, hess, -lam)
        step = -grad / hess
        if not np.all(np.isfinite(step)):
            raise SchemeFailure("non-finite Newton step in Laplace maximization")
        t = 1.0
        cand = theta + step
        val = eval_log(cavity, cand) + factor.log_value(cand)
        if not (np.isfinite(val) and val >= obj):
            if obj - val <= 4.0 * np.spacing(abs(obj)):
                return theta  # the full step changes the objective by rounding only
            cands = theta + _HALVINGS[:, None] * step
            k, val = _first_ascent(eval_log(cavity, cands), factor, cands, obj)
            if k is None:
                return theta  # no ascent available along the Newton direction
            t, cand = _HALVINGS[k], cands[k]
        theta, obj = cand, val
        if np.all(np.abs(t * step) <= tol * np.maximum(1.0, np.abs(theta))):
            return theta
    raise SchemeFailure("Laplace maximization did not converge")


def _box_qp(Q: np.ndarray, b: np.ndarray, hi: float) -> np.ndarray:
    """argmin of 1/2 a.Q.a - a.b over the box [0, hi]^s, Q positive semidefinite.

    A primal-feasible active-set method, started at a = 0.  Each row is
    free, at 0 or at hi.  A step is the Newton step -Q_FF^-1 g_F on the face
    that fixes the bound rows, g = Q a - b being the gradient; it stops at
    the first bound it meets, and that row leaves the free set.  After a
    full step the free rows are optimal by construction, so only the bound
    rows' multipliers are checked: the most wrong-signed one is freed, and
    when none is, a is the minimum.  Freeing row j takes one solve,
    Q_FF w = Q_Fj, which gives both the test below and the Newton step on
    the enlarged face: with g_F = 0 it runs along (-w, 1).

    Q may be singular (more rows than dimensions, repeated or zero rows), so
    the free set is kept to rows with independent Q columns.  A freed row
    whose column lies in their span gets no Newton step: the direction n
    that moves it and offsets the free rows has Q n = 0, so the objective
    falls linearly along it and the step runs to the first bound.
    """
    s = b.size
    a = np.zeros(s)
    free = np.zeros(s, dtype=bool)
    abs_q, abs_b = np.abs(Q), np.abs(b)
    at_face_min = True  # no row is free, and a = 0 sits on its face
    for _ in range(_QP_ITER_PER_ROW * (s + 1)):
        rows = np.flatnonzero(free)
        g = Q @ a - b
        step = np.zeros(s)
        if at_face_min:
            excess = np.where(free, 0.0, np.where(a > 0.0, g, -g))
            excess -= _QP_KKT_RTOL * (abs_q @ a + abs_b)
            if not np.any(excess > 0.0):
                return a
            j = int(np.argmax(excess))
            q = w = Q[rows, j]
            if rows.size:
                w = np.linalg.solve(Q[rows[:, None], rows], q)
            free[j] = True
            step[rows], step[j] = -w, 1.0
            schur = Q[j, j] - q @ w
            if schur > _QP_DEPENDENT * Q[j, j]:
                step *= -g[j] / schur  # the Newton step of the bordered system
                full = 1.0
            else:  # the null direction, oriented to move row j off its bound
                step *= 1.0 if a[j] == 0.0 else -1.0
                full = np.inf
        else:
            step[rows] = -np.linalg.solve(Q[rows[:, None], rows], g[rows])
            full = 1.0
        # how far each row can go before it meets the bound it heads for
        room = np.divide(np.where(step > 0.0, hi, 0.0) - a, step,
                         out=np.full(s, np.inf), where=step != 0.0)
        k = int(np.argmin(room))
        if room[k] >= full:
            a += step
            np.clip(a, 0.0, hi, out=a)
            at_face_min = True
            continue
        a += room[k] * step
        np.clip(a, 0.0, hi, out=a)
        a[k] = hi if step[k] > 0.0 else 0.0
        free[k] = False
        # a null step that carried the freed row to its other bound left the
        # free rows, the mode and so every multiplier as they were
        at_face_min = (full == np.inf and k == j) or not free.any()
    raise SchemeFailure("hinge tilted-mode QP did not converge")


def _hinge_mode(cavity: DiagGaussian, Z: np.ndarray, beta: float):
    """The maximizer of log c(theta) - beta * sum max(0, 1 - Z theta), and its slope.

    This is the linear-SVM primal with the cavity as regularizer (Hsieh et
    al., ICML 2008, solve the same dual).  With L the cavity precision its
    dual is the box QP of _box_qp with Q = Z L^-1 Z^T, b = 1 - Z mu and
    hi = beta; the mode is theta* = mu + L^-1 Z^T a*, unique even where a*
    is not, and Z^T a* = L (theta* - mu) is the slope at which
    cavity*message peaks at theta*.
    """
    lam, mu = cavity.precision, cavity.mean
    Q = (Z / lam) @ Z.T
    b = 1.0 - Z @ mu
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(b))):
        raise SchemeFailure("non-finite hinge QP")
    slope = Z.T @ _box_qp(Q, b, beta)
    return mu + slope / lam, slope


def approx_laplace(cavity: DiagGaussian, factor, scheme: SchemeKind | None = None) -> DiagGaussian:
    """Fit the log-factor's Taylor expansion at the maximizer of cavity*factor.

    A factor with a margin-space view (``loss``, ``beta`` and ``Z``, as
    ``BoundFactor`` has) on the hinge loss has its maximizer solved exactly
    as a box QP (_hinge_mode).  Every other factor takes the damped Newton
    search of _newton_mode, which ``newton_tol`` and ``newton_max_iter``
    drive.

    On a piecewise-linear loss the mode often sits on kinks, where the
    factor's one-sided slope is arbitrary and its curvature zero.  The
    message then takes the mode-consistent slope L (theta* - mu), with L
    and mu the cavity's precision and mean, so that cavity*message peaks at
    theta*, and zero curvature.  Smooth and black-box factors take their own
    gradient and Hessian diagonal at theta*.
    """
    scheme = scheme or SchemeKind("la")
    if not cavity.is_proper:
        raise ImproperGaussianError("Laplace fitting needs a proper cavity")
    loss = getattr(factor, "loss", None)
    kinked = isinstance(loss, LossKind) and is_piecewise_linear(loss)
    if kinked and loss.name == "hinge":
        theta, grad_f = _hinge_mode(cavity, factor.Z, factor.beta)
    else:
        theta = _newton_mode(cavity, factor, scheme)
        if kinked:
            grad_f = -(cavity.linear + 2.0 * cavity.neg_half_precision * theta)
    value = factor.log_value(theta)
    if kinked:
        hd_f = np.zeros_like(theta)
    else:
        grad_f, hd_f = factor.log_grad_hessdiag(theta)
    msg = _taylor_message(theta, value, grad_f, hd_f)
    if not msg.is_finite():
        raise SchemeFailure("non-finite Laplace message")
    return msg


def approx_quick_laplace(cavity: DiagGaussian, factor,
                         scheme: SchemeKind | None = None) -> DiagGaussian:
    """Taylor fit of the log-factor at the cavity mean; no inner optimization."""
    if not cavity.is_proper:
        raise ImproperGaussianError("quick Laplace needs a proper cavity")
    mu = cavity.mean
    value = factor.log_value(mu)
    grad_f, hd_f = factor.log_grad_hessdiag(mu)
    if not (np.isfinite(value) and np.all(np.isfinite(grad_f)) and np.all(np.isfinite(hd_f))):
        raise SchemeFailure("non-finite factor derivatives at the cavity mean")
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
    rule = build_rule(cavity, scheme.gamma)
    logf = _log_values(factor, rule.points)
    shift = float(np.max(logf))
    if not np.isfinite(shift):
        raise SchemeFailure("factor vanishes (or is undefined) at every quadrature point")
    f = np.exp(logf - shift)
    wf = rule.weights * f
    m0 = float(np.sum(wf))
    m1 = wf @ rule.points
    m2 = wf @ (rule.points * rule.points)
    try:
        matched = moments_to_natural(MomentVector(m0, m1, m2))
    except MomentMatchError as exc:
        raise SchemeFailure(
            f"quadrature moments not matchable: {exc}",
            details={"m0": m0, "m1": m1, "m2": m2, "coordinate": exc.coordinate},
        ) from exc
    matched = DiagGaussian(
        matched.log_scale + shift + cavity.log_mass,
        matched.linear,
        matched.neg_half_precision,
    )
    return divide(matched, cavity)


# ---------------------------------------------------------------------------
# Variational quadrature
# ---------------------------------------------------------------------------


def approx_variational_quadrature(cavity: DiagGaussian, factor,
                                  scheme: SchemeKind | None = None) -> DiagGaussian:
    """Interpolate the log-factor in log space at the sigma points.

    The rule has 2d+1 points and the quadrature-discretized generalized KL
    surrogate 2d+1 monomials (the test oracle ``surrogate_value_grad_hess``
    in ``tests/oracles.py`` evaluates it), so the design matrix is square
    and invertible and the surrogate is stationary exactly where
    exp(Phi alpha) equals the factor values: the log-quadratic through the
    center and the two spokes of every axis.  With positive weights that
    point is the surrogate's minimizer.  In cavity-standardized coordinates
    z = (theta - mu)/sigma, with l the max-shifted log-factor values, that
    is c0 = l_0, b_i = (l_+i - l_-i)/(2 gamma) and
    a_i = (l_+i + l_-i - 2 l_0)/(2 gamma^2), mapped back to theta afterwards.

    The message does not depend on the quadrature weights, so a gamma with
    gamma^2 = d (zero center weight, where the stationary point is no
    longer unique) or gamma^2 < d (negative center weight) needs no
    rejection.  The result is the message itself; no cavity division is
    involved.
    """
    scheme = scheme or SchemeKind("vq")
    rule = build_rule(cavity, scheme.gamma)
    d, gamma = rule.dim, rule.gamma
    logf = _log_values(factor, rule.points)
    shift = float(np.max(logf))
    if not np.isfinite(shift):
        raise SchemeFailure("factor vanishes (or is undefined) at every quadrature point")
    shifted = logf - shift
    c0, lp, lm = shifted[0], shifted[1 : d + 1], shifted[d + 1 :]
    bz = (lp - lm) / (2.0 * gamma)
    az = (lp + lm - 2.0 * c0) / (2.0 * gamma * gamma)

    mu = cavity.mean
    sigma = np.sqrt(cavity.variance)
    # substitute z = (theta - mu)/sigma into log g = c0 + b.z + a.z^2
    nhp = az / sigma**2
    linear = bz / sigma - 2.0 * az * mu / sigma**2
    log_scale = shift + c0 - float(np.sum(bz * mu / sigma)) + float(np.sum(az * mu**2 / sigma**2))
    msg = DiagGaussian(log_scale, linear, nhp)
    if not msg.is_finite():
        raise SchemeFailure("non-finite variational-quadrature message")
    return msg


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
