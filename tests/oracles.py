"""Independent numerical cross-checks for the test suite.

Everything in this module is computed from first principles (dense
grids, Simpson integration, scalar root finding, enumeration of a box
QP's faces) without calling into ``ffep`` itself, so agreement between
the two implementations is meaningful evidence rather than a tautology.
"""

import itertools

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq, minimize_scalar

__all__ = [
    "log_gauss_1d",
    "dense_moments_1d",
    "dense_kl_1d",
    "maximize_1d",
    "solve_scalar",
    "grid_min_2d",
    "box_qp_by_enumeration",
    "concave_argmax",
    "surrogate_value_grad_hess",
]


def log_gauss_1d(theta, mean, var, log_mass=0.0):
    """Log of an unnormalized 1-D Gaussian whose total integral is exp(log_mass)."""
    theta = np.asarray(theta, dtype=float)
    return (
        log_mass
        - 0.5 * np.log(2.0 * np.pi * var)
        - (theta - mean) ** 2 / (2.0 * var)
    )


def dense_moments_1d(log_c, log_f, center, halfwidth, n=200_001):
    """Moments (m0, m1, m2) of exp(log_c + log_f) by Simpson integration.

    The grid spans center +- halfwidth.  A max-shift keeps the
    exponentials representable on the grid; the shift is restored in
    linear space, so this oracle assumes the true moments themselves fit
    in double precision.
    """
    x = np.linspace(center - halfwidth, center + halfwidth, n)
    log_w = log_c(x) + log_f(x)
    shift = float(np.max(log_w))
    w = np.exp(log_w - shift)
    scale = np.exp(shift)
    m0 = simpson(w, x=x) * scale
    m1 = simpson(w * x, x=x) * scale
    m2 = simpson(w * x * x, x=x) * scale
    return float(m0), float(m1), float(m2)


def dense_kl_1d(log_c, log_f, log_g, center, halfwidth, n=200_001):
    """Generalized KL divergence D(c·f || c·g) on a dense grid.

    Integrand c·(f·log(f/g) − f + g), with the f → 0 limit of
    f·log(f/g) taken as 0.
    """
    x = np.linspace(center - halfwidth, center + halfwidth, n)
    lc, lf, lg = log_c(x), log_f(x), log_g(x)
    cf = np.exp(lc + lf)
    cg = np.exp(lc + lg)
    ratio = np.where(cf > 0.0, cf * (lf - lg), 0.0)
    return float(simpson(ratio - cf + cg, x=x))


def maximize_1d(fun, lo, hi, n=20_001):
    """Argmax of a scalar function: dense grid, then bounded refinement."""
    x = np.linspace(lo, hi, n)
    i = int(np.argmax(fun(x)))
    a = x[max(i - 1, 0)]
    b = x[min(i + 1, n - 1)]
    res = minimize_scalar(
        lambda t: -fun(t), bounds=(a, b), method="bounded", options={"xatol": 1e-12}
    )
    return float(res.x)


def concave_argmax(fun, lo, hi, d, n=401):
    """Argmax of a concave function of one or two variables over [lo, hi]^d.

    ``fun`` maps a stack of points, shape (m, d), to m values.  In 1-D a
    grid point at least as high as both neighbours brackets the maximum
    of a concave function, so maximize_1d's grid plus bounded refinement
    finds it.  In 2-D the profile max over theta_2 of fun(theta_1, theta_2)
    is concave in theta_1 too, so two nested 1-D searches find it.
    """

    def along(points):  # a 1-D function of t from a map t -> points
        def f(t):
            values = fun(points(np.ravel(t)))
            return values if np.ndim(t) else float(values[0])
        return f

    if d == 1:
        return np.array([maximize_1d(along(lambda t: t[:, None]), lo, hi, n)])

    def inner(t1):
        return maximize_1d(
            along(lambda t: np.column_stack([np.full(t.size, t1), t])), lo, hi, n)

    def profile(t1):
        return fun(np.array([[t1, inner(t1)]]))[0]

    t1 = maximize_1d(lambda t: np.array([profile(x) for x in t]) if np.ndim(t) else profile(t),
                     lo, hi, n)
    return np.array([t1, inner(t1)])


def solve_scalar(fun, lo, hi):
    """Root of a scalar sign-changing function by Brent bracketing."""
    return float(brentq(fun, lo, hi, xtol=1e-14))


def grid_min_2d(cost, lo, hi, n=200):
    """Minimum of a 2-D cost over an n-by-n lattice on [lo, hi]^2."""
    grid = np.linspace(lo, hi, n)
    best = np.inf
    for a in grid:
        for b in grid:
            v = cost(np.array([a, b]))
            if v < best:
                best = v
    return float(best)


def box_qp_by_enumeration(Q, b, hi):
    """argmin of 1/2 a.Q.a - a.b over [0, hi]^s, Q PSD, by trying every face.

    Each of the 3^s assignments of the rows to {0, free, hi} fixes the bound
    rows and solves the free rows' stationarity equations
    Q_FF a_F = b_F - Q_FB a_B by least squares.  A point inside the box
    whose gradient g = Q a - b vanishes on the free rows, is >= 0 on the
    rows at 0 and <= 0 on the rows at hi (each to 1e-9 of the terms it
    sums) is a minimum of the convex problem.  Some face holds a minimum
    with independent free columns, where the least-squares solve is exact,
    so a singular Q is handled too.  The lowest-objective candidate is
    returned.  Meant for s <= 6 (729 faces).
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    s = b.size
    rtol = 1e-9
    best, best_value = None, np.inf
    for labels in itertools.product((0, 1, 2), repeat=s):  # 0, free, hi
        labels = np.array(labels)
        free = labels == 1
        a = np.where(labels == 2, hi, 0.0)
        if free.any():
            rhs = b[free] - Q[np.ix_(free, ~free)] @ a[~free]
            a[free] = np.linalg.lstsq(Q[np.ix_(free, free)], rhs, rcond=None)[0]
        slack = rtol * (hi + np.abs(a))
        if np.any(a < -slack) or np.any(a > hi + slack):
            continue
        a = np.clip(a, 0.0, hi)
        g = Q @ a - b
        tol = rtol * (np.abs(Q) @ a + np.abs(b))
        if (np.any(np.abs(g[free]) > tol[free]) or np.any(g[labels == 0] < -tol[labels == 0])
                or np.any(g[labels == 2] > tol[labels == 2])):
            continue
        value = 0.5 * a @ Q @ a - a @ b
        if value < best_value:
            best, best_value = a, value
    if best is None:
        raise ValueError("no face holds a KKT point")
    return best


def _monomials(pts):
    """Design matrix of (1, theta, theta^2) rows for a stack of points."""
    n = pts.shape[0]
    return np.hstack([np.ones((n, 1)), pts, pts * pts])


def surrogate_value_grad_hess(alpha, rule, F):
    """Value, gradient and Hessian of the quadrature-discretized KL surrogate.

    With Phi the (1, theta, theta^2) design matrix over the rule's points,
    w the rule's weights and F the (nonnegative, finite) factor values there:

        L(alpha)  = -alpha . Phi^T (w F) + sum_j w_j exp(Phi_j . alpha)
        grad      = Phi^T (w exp(Phi alpha)) - Phi^T (w F)
        hess      = Phi^T diag(w exp(Phi alpha)) Phi

    approx_variational_quadrature returns the stationary point in closed
    form; this is the oracle that checks it.  Exponents beyond ~709
    overflow to inf.
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
