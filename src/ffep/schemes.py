"""Factor-approximation back-ends: four ways to fit a Gaussian to one factor.

Each scheme answers the same question: given a proper diagonal-Gaussian
cavity c and a black-box factor f (exposing log-values, and for the
Laplace-style schemes also gradient/Hessian-diagonal), produce a
DiagGaussian message g standing in for f.

* ``la``  - Laplace: maximize c*f with damped diagonal Newton, then fit the
            second-order Taylor expansion of log f at the maximizer.
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
    "surrogate_value_grad_hess",
    "generalized_kl_diagnostic",
    "approximate",
]

_MAX_HALVINGS = 30
# step lengths tried after a rejected full Newton step: 2^-1, ..., 2^-(_MAX_HALVINGS-1)
_HALVINGS = 0.5 ** np.arange(1, _MAX_HALVINGS)


class SchemeFailure(RuntimeError):
    """A scheme could not produce a candidate message; the engine decides."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


@dataclass(frozen=True)
class SchemeKind:
    """Scheme selector plus the numeric knobs of the back-ends.

    ``newton_tol`` and ``newton_max_iter`` drive ``la``'s inner Newton
    search; ``gamma`` sets the sigma-point spread of ``gq`` and ``vq``.
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


def _monomials(pts: np.ndarray) -> np.ndarray:
    """Design matrix of (1, theta, theta^2) rows for a stack of points."""
    n = pts.shape[0]
    return np.hstack([np.ones((n, 1)), pts, pts * pts])


# ---------------------------------------------------------------------------
# Laplace-style schemes
# ---------------------------------------------------------------------------


def _taylor_message(theta, value, grad, hessdiag) -> DiagGaussian:
    # log g(theta') = value + grad.(theta'-theta) + 1/2 (theta'-theta)^T H (theta'-theta)
    nhp = 0.5 * hessdiag
    linear = grad - hessdiag * theta
    log_scale = value - float(grad @ theta) + 0.5 * float(hessdiag @ (theta * theta))
    return DiagGaussian(log_scale, linear, nhp)


def approx_laplace(cavity: DiagGaussian, factor, scheme: SchemeKind | None = None) -> DiagGaussian:
    """Fit the log-factor's Taylor expansion at the maximizer of cavity*factor.

    The inner maximization is damped Newton on the diagonal curvature of
    log(c*f) (the cavity precision plus the factor's Hessian diagonal),
    starting from the cavity mean.  Each iteration tries the full Newton
    step first; if that lowers the objective, the halved steps 2^-1 ...
    2^-(_MAX_HALVINGS-1) are scored in one batched call and the longest
    one that does not lower it is taken.  When none qualifies, no ascent
    is left along the Newton direction and the search has converged.
    """
    scheme = scheme or SchemeKind("la")
    if not cavity.is_proper:
        raise ImproperGaussianError("Laplace fitting needs a proper cavity")
    tol = scheme.newton_tol
    theta = cavity.mean.copy()
    lam = cavity.precision  # fallback curvature where the factor is nonconcave
    obj = eval_log(cavity, theta) + factor.log_value(theta)
    if not np.isfinite(obj):
        raise SchemeFailure("objective not finite at the cavity mean")

    converged = False
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
            cands = theta + _HALVINGS[:, None] * step
            vals = eval_log(cavity, cands) + _log_values(factor, cands)
            ok = np.flatnonzero(np.isfinite(vals) & (vals >= obj))
            if ok.size == 0:
                converged = True  # no ascent available along the Newton direction
                break
            k = ok[0]
            t, cand, val = _HALVINGS[k], cands[k], vals[k]
        theta, obj = cand, val
        if np.all(np.abs(t * step) <= tol * np.maximum(1.0, np.abs(theta))):
            converged = True
            break
    if not converged:
        raise SchemeFailure("Laplace maximization did not converge")

    value = factor.log_value(theta)
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


def surrogate_value_grad_hess(alpha: np.ndarray, rule: QuadratureRule, F: np.ndarray):
    """Value, gradient and Hessian of the quadrature-discretized KL surrogate.

    With Phi the (1, theta, theta^2) design matrix over the rule's points and
    F the (nonnegative, finite) factor values there:

        L(alpha)  = -alpha . Phi^T (w F) + sum_j w_j exp(Phi_j . alpha)
        grad      = Phi^T (w exp(Phi alpha)) - Phi^T (w F)
        hess      = Phi^T diag(w exp(Phi alpha)) Phi

    approx_variational_quadrature returns the stationary point in closed
    form; this function is the oracle that checks it.  Exponents beyond
    ~709 overflow to inf.
    """
    phi = _monomials(rule.points)
    alpha = np.asarray(alpha, dtype=float)
    b = phi.T @ (rule.weights * np.asarray(F, dtype=float))
    with np.errstate(over="ignore"):
        e = np.exp(phi @ alpha)
    we = rule.weights * e
    value = -float(alpha @ b) + float(np.sum(we))
    grad = phi.T @ we - b
    hess = phi.T @ (we[:, None] * phi)
    return value, grad, hess


def approx_variational_quadrature(cavity: DiagGaussian, factor,
                                  scheme: SchemeKind | None = None) -> DiagGaussian:
    """Interpolate the log-factor in log space at the sigma points.

    The rule has 2d+1 points and the quadrature-discretized generalized KL
    surrogate (surrogate_value_grad_hess) 2d+1 monomials, so the design
    matrix is square and invertible and the surrogate is stationary exactly
    where exp(Phi alpha) equals the factor values: the log-quadratic through
    the center and the two spokes of every axis.  With positive weights that
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
# Diagnostics and dispatch
# ---------------------------------------------------------------------------


def generalized_kl_diagnostic(cavity: DiagGaussian, factor, message: DiagGaussian,
                              rule: QuadratureRule | None = None) -> float:
    """Quadrature estimate of the generalized KL divergence D(c*f || c*g).

    Diagnostic only; never drives updates.  Non-finite results are returned
    as such.
    """
    rule = rule or build_rule(cavity)
    logf = _log_values(factor, rule.points)
    logg = eval_log(message, rule.points)
    shift = max(float(np.max(logf)), float(np.max(logg)))
    if not np.isfinite(shift):
        return 0.0
    f = np.exp(logf - shift)
    g = np.exp(logg - shift)
    ratio = np.where(f > 0, f * (logf - logg), 0.0)
    total = float(np.sum(rule.weights * (ratio - f + g)))
    with np.errstate(over="ignore"):
        return float(np.exp(shift + cavity.log_mass)) * total


_DISPATCH = {
    "la": approx_laplace,
    "qla": approx_quick_laplace,
    "gq": approx_gauss_quadrature,
    "vq": approx_variational_quadrature,
}


def approximate(scheme: SchemeKind, cavity: DiagGaussian, factor) -> DiagGaussian:
    """Run the selected scheme on one (cavity, factor) pair."""
    return _DISPATCH[scheme.kind](cavity, factor, scheme)
