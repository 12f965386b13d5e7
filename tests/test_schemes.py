"""Factor-approximation schemes: quadrature rule, LA, QLA, GQ, VQ."""

import hashlib
import itertools
from collections import namedtuple

import numpy as np
import pytest

from ffep import schemes
from ffep.engine import EpConfig, ep_run
from ffep.factors import BoundFactor, GaussianFactor
from ffep.gaussian import (
    DiagGaussian,
    ImproperGaussianError,
    MomentMatchError,
    divide,
    eval_log,
    moments_to_natural,
    multiply,
)
from ffep.ingest import Dataset
from ffep.losses import hinge, logistic, loss_kinks, quasi01
from ffep.schemes import (
    _MAX_HALVINGS,
    _taylor_message,
    QuadratureRule,
    SchemeFailure,
    SchemeKind,
    approx_gauss_quadrature,
    approx_laplace,
    approx_quick_laplace,
    approx_variational_quadrature,
    approximate,
    build_rule,
    default_gamma,
    scheme_from_name,
)

from oracles import (
    box_qp_by_enumeration,
    concave_argmax,
    dense_kl_1d,
    dense_moments_1d,
    log_gauss_1d,
    surrogate_value_grad_hess,
)

# Frozen from _box_qp when its one-row steps were array code: the sha256 of
# the outputs of test_one_row_steps_are_bit_for_bit's 160 problems.
QP_ONE_ROW_DIGEST = "7ec9ab8da233dc6f4c5d7cd04aa044f142c9a474f4a02c7727f6fd3ceaf7646b"

# Frozen from a 1-D root-finding oracle: theta* solving theta = 1/(1+e^theta),
# the maximizer of -theta^2/2 - log(1+e^-theta), and the curvature
# sigma(theta*)sigma(-theta*) of the logistic loss there.
LA_THETA_STAR = 0.4010581375415475
LA_MSG_PRECISION = 0.2402105078532525


def random_cavity(rng, d, log_var_range=(-1.5, 1.5), mean_scale=2.0):
    var = np.exp(rng.uniform(*log_var_range, size=d))
    mean = rng.uniform(-mean_scale, mean_scale, size=d)
    return DiagGaussian.from_mean_var(mean, var,
                                      log_mass=float(rng.uniform(-1.0, 1.0)))


def random_gaussian_factor(rng, cavity):
    """A proper Gaussian factor commensurate with the cavity.

    Offsets within one cavity standard deviation and variance ratios in
    e^(+/-0.5) keep the log-factor span across the sigma points below ~25.
    Spans past 60 are exercised on a data batch in TestVariationalQuadrature.
    """
    sd = np.sqrt(cavity.variance)
    mean = cavity.mean + rng.uniform(-1.0, 1.0, size=cavity.dim) * sd
    var = cavity.variance * np.exp(rng.uniform(-0.5, 0.5, size=cavity.dim))
    g = DiagGaussian.from_mean_var(mean, var, log_mass=float(rng.uniform(-1.0, 1.0)))
    return GaussianFactor(g)


def constant_factor(log_c, d):
    return GaussianFactor(DiagGaussian(log_scale=log_c, linear=np.zeros(d),
                                       neg_half_precision=np.zeros(d)))


def single_example_factor(loss, x, y=1.0):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ds = Dataset(features=x[None, :], labels=np.array([y]))
    return BoundFactor(ds, batch=[0], loss=loss)


Moments = namedtuple("Moments", "m0 m1 m2")  # raw moments of order 0, 1, 2


def quadrature_moments(cavity, factor):
    """Sigma-point estimate of the order-0/1/2 moments of cavity*factor.

    The estimate is the weighted point sum scaled by the cavity's total
    mass, so it approximates the raw (unnormalized) integrals.  Moments are
    materialized in linear space and overflow at extreme masses, which
    approx_gauss_quadrature avoids by keeping the scale in log form.
    """
    rule = build_rule(cavity)
    logf = factor.log_value_many(rule.points)
    wf = rule.weights * np.exp(logf) * float(np.exp(cavity.log_mass))
    return Moments(float(np.sum(wf)), wf @ rule.points, wf @ (rule.points * rule.points))


def gq_by_composition(cavity, factor):
    """approx_gauss_quadrature written out step by step, as the reference
    that pins its arithmetic bit for bit.

    The sigma points are the cavity mean tiled 2d+1 times, offset by
    +/- np.diag(gamma*sigma); the matched Gaussian comes from the moments'
    mean and variance and then takes the log scale shifted by
    shift + cavity.log_mass; then the cavity is divided out.  Unmatchable
    moments raise MomentMatchError with moments_to_natural's text.
    """
    d, nhp = cavity.dim, cavity.neg_half_precision
    assert (nhp < 0).all()
    cav_var, cav_mean = -0.5 / nhp, cavity.linear * (-0.5 / nhp)
    gamma = default_gamma(d)
    pts = np.tile(cav_mean, (2 * d + 1, 1))
    offs = gamma * np.sqrt(cav_var)
    pts[1 : d + 1] += np.diag(offs)
    pts[d + 1 :] -= np.diag(offs)
    w = np.full(2 * d + 1, 1.0 / (2.0 * gamma * gamma))
    w[0] = 1.0 - d / (gamma * gamma)
    logf = factor.log_value_many(pts)
    shift = float(np.max(logf))
    wf = w * np.exp(logf - shift)
    m0, m1, m2 = float(np.sum(wf)), wf @ pts, wf @ (pts * pts)
    mean = m1 / m0
    var = m2 / m0 - mean**2
    if np.any(var <= 0) or not np.all(np.isfinite(var)):
        if np.all(np.isfinite(var)):
            bad, kind = int(np.argmin(var)), "nonpositive"
        else:
            bad, kind = int(np.argmax(~np.isfinite(var))), "non-finite"
        raise MomentMatchError(f"coordinate {bad} implies {kind} variance {var[bad]:g}",
                               coordinate=bad)
    log_scale = float(np.log(m0)) - 0.5 * float(
        np.sum(np.log(2.0 * np.pi * var) + mean**2 / var))
    cavity_log_mass = cavity.log_scale + 0.5 * float(
        np.sum(np.log(2.0 * np.pi * cav_var) + cav_mean**2 / cav_var))
    matched = DiagGaussian(log_scale + shift + cavity_log_mass, mean / var, -0.5 / var)
    return divide(matched, cavity)


def generalized_kl_diagnostic(cavity, factor, message):
    """Sigma-point estimate of the generalized KL divergence D(c*f || c*g)."""
    rule = build_rule(cavity)
    logf = factor.log_value_many(rule.points)
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


def gauss_raw_moment(mu, var, p):
    """E[theta^p] for scalar Gaussian, p in {0, 1, 2, 3}."""
    return {0: 1.0, 1: mu, 2: mu * mu + var,
            3: mu ** 3 + 3.0 * mu * var}[p]


class TestQuadratureRule:
    def test_standard_cavity_worked_example(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        rule = build_rule(cavity, gamma=np.sqrt(1.5))
        np.testing.assert_allclose(rule.points.ravel(),
                                   [0.0, 1.224745, -1.224745], atol=5e-7)
        np.testing.assert_allclose(rule.weights, 1.0 / 3.0, rtol=1e-14)

    def test_central_weight_vanishes_at_gamma_sqrt_d(self):
        cavity = DiagGaussian.from_mean_var(np.zeros(3), np.ones(3))
        rule = build_rule(cavity, gamma=np.sqrt(3.0))
        assert rule.weights[0] == pytest.approx(0.0, abs=1e-15)

    def test_default_gamma_gives_uniform_weights(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 4, 9, 50, 200):
            rule = build_rule(random_cavity(rng, d))
            assert rule.gamma == pytest.approx(np.sqrt(d + 0.5), rel=1e-15)
            np.testing.assert_allclose(rule.weights, 1.0 / (2 * d + 1), atol=1e-12)

    def test_weights_sum_to_one_for_any_gamma(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            gamma = float(rng.uniform(0.8, 4.0))
            rule = build_rule(random_cavity(rng, d), gamma=gamma)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-12)

    def test_spokes_reflect_through_center(self):
        rng = np.random.default_rng(12)
        cavity = random_cavity(rng, 5)
        rule = build_rule(cavity)
        center = rule.points[0]
        for j in range(1, 6):
            np.testing.assert_allclose(rule.points[j] + rule.points[j + 5],
                                       2.0 * center, rtol=1e-12)

    def test_improper_cavity_rejected(self):
        improper = DiagGaussian(log_scale=0.0, linear=np.zeros(2),
                                neg_half_precision=np.array([-0.5, 0.1]))
        with pytest.raises(ImproperGaussianError):
            build_rule(improper)

    @pytest.mark.parametrize("d", [1, 100])
    def test_each_spoke_moves_only_its_own_axis(self, d):
        """Row 0 is the mean; spoke i is the mean with coordinate i moved by
        exactly +/- gamma*sigma_i, as adding np.diag(gamma*sigma) gives it.

        A -0.0 mean coordinate stays -0.0 off its own axis, where adding the
        diagonal's +0.0 made it +0.0; np.array_equal takes both.
        """
        rng = np.random.default_rng(14 + d)
        cavity = random_cavity(rng, d)
        mean = cavity.mean.copy()
        mean[0] = -0.0
        cavity = DiagGaussian.from_mean_var(mean, cavity.variance)
        for gamma in (None, 0.7):
            rule = build_rule(cavity, gamma=gamma)
            g = default_gamma(d) if gamma is None else gamma
            assert rule.points.shape == (2 * d + 1, d) and rule.gamma == g
            assert np.array_equal(rule.points[0], cavity.mean)
            spokes = np.diag(g * np.sqrt(cavity.variance))
            center = np.tile(cavity.mean, (d, 1))
            assert np.array_equal(rule.points[1 : d + 1], center + spokes)
            assert np.array_equal(rule.points[d + 1 :], center - spokes)
            expected = np.full(2 * d + 1, 1.0 / (2.0 * g * g))
            expected[0] = 1.0 - d / (g * g)
            assert np.array_equal(rule.weights, expected)
        improper = DiagGaussian(0.0, cavity.linear,
                                np.where(np.arange(d) == d - 1, 0.0, cavity.neg_half_precision))
        with pytest.raises(ImproperGaussianError):
            build_rule(improper)

    def test_integrates_low_degree_monomials_exactly(self):
        """Weighted point sums reproduce Gaussian monomial expectations
        (total degree <= 3) for any gamma, not just the default."""
        rng = np.random.default_rng(13)
        for d in range(1, 6):
            for _ in range(5):
                cavity = random_cavity(rng, d)
                gamma = float(rng.uniform(np.sqrt(d), 3.0))
                rule = build_rule(cavity, gamma=gamma)
                mu, var = cavity.mean, cavity.variance
                for powers in itertools.product(range(4), repeat=d):
                    if sum(powers) > 3:
                        continue
                    estimate = float(np.sum(
                        rule.weights * np.prod(rule.points ** powers, axis=1)))
                    exact = float(np.prod([
                        gauss_raw_moment(mu[i], var[i], p)
                        for i, p in enumerate(powers)]))
                    assert estimate == pytest.approx(exact, abs=1e-10 * max(1, abs(exact)))


class TestLaplace:
    def test_recovers_gaussian_factor(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            cavity = random_cavity(rng, d)
            factor = random_gaussian_factor(rng, cavity)
            msg = approx_laplace(cavity, factor)
            np.testing.assert_allclose(msg.linear, factor.g.linear, atol=1e-8)
            np.testing.assert_allclose(msg.neg_half_precision,
                                       factor.g.neg_half_precision, atol=1e-8)

    def test_constant_factor_gives_pure_scale(self):
        cavity = DiagGaussian.from_mean_var([0.3, -0.7], [1.0, 2.0])
        msg = approx_laplace(cavity, constant_factor(np.log(2.0), 2))
        np.testing.assert_allclose(msg.linear, 0.0, atol=1e-12)
        np.testing.assert_allclose(msg.neg_half_precision, 0.0, atol=1e-12)
        assert msg.log_scale == pytest.approx(np.log(2.0), rel=1e-12)

    def test_single_logistic_example_matches_frozen_oracle(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        factor = single_example_factor(logistic(), [1.0])
        msg = approx_laplace(cavity, factor)
        posterior = multiply(cavity, msg)
        assert posterior.mean[0] == pytest.approx(LA_THETA_STAR, abs=1e-6)
        assert -2.0 * msg.neg_half_precision[0] == pytest.approx(
            LA_MSG_PRECISION, abs=1e-6)

    def test_inner_maximizer_is_stationary_on_smooth_factors(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            ds = Dataset(features=rng.normal(size=(8, d)),
                         labels=np.where(rng.normal(size=8) < 0, -1.0, 1.0))
            factor = BoundFactor(ds, np.arange(8), logistic())
            cavity = random_cavity(rng, d)
            # Coordinate-wise Newton converges linearly on coupled factors,
            # so a tight tolerance needs more than the default iteration cap.
            tight = SchemeKind(kind="la", newton_tol=1e-8, newton_max_iter=300)
            msg = approx_laplace(cavity, factor, scheme=tight)
            theta_star = multiply(cavity, msg).mean
            grad_f, _ = factor.log_grad_hessdiag(theta_star)
            grad_c = cavity.linear + 2.0 * cavity.neg_half_precision * theta_star
            assert np.max(np.abs(grad_c + grad_f)) <= 1e-6

    def test_iteration_cap_raises_scheme_failure(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        factor = single_example_factor(logistic(), [1.0])
        strict = SchemeKind(kind="la", newton_tol=1e-12, newton_max_iter=1)
        with pytest.raises(SchemeFailure):
            approx_laplace(cavity, factor, scheme=strict)


def stepwise_laplace(cavity, factor, scheme=None):
    """approx_laplace with a point-by-point line search.

    The same Newton iteration, trying t = 1, 1/2, 1/4, ... with one factor
    call each and stopping at the first ascent, or converging when the full
    step ties the objective to 4 ulps: the reference the batched line search
    must match.  Batches on a piecewise-linear loss must be wrapped in
    BlackBoxFactor to reach the search at all, and then keep their own slope.
    """
    scheme = scheme or SchemeKind("la")
    tol = scheme.newton_tol
    theta = cavity.mean.copy()
    lam = cavity.precision
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
        moved = False
        for _ in range(_MAX_HALVINGS):
            cand = theta + t * step
            val = eval_log(cavity, cand) + factor.log_value(cand)
            if np.isfinite(val) and val >= obj:
                theta, obj, moved = cand, val, True
                break
            if t == 1.0 and obj - val <= 4.0 * np.spacing(abs(obj)):
                break  # a full step that ties the objective to rounding: converged
            t *= 0.5
        if not moved:
            converged = True
            break
        if np.all(np.abs(t * step) <= tol * np.maximum(1.0, np.abs(theta))):
            converged = True
            break
    if not converged:
        raise SchemeFailure("Laplace maximization did not converge")

    value = factor.log_value(theta)
    grad_f, hd_f = factor.log_grad_hessdiag(theta)
    return _taylor_message(theta, value, grad_f, hd_f)


class BlackBoxFactor:
    """A data batch without its margin-space view: approx_laplace takes the
    Newton search and the factor's own slope on it, whatever the loss."""

    def __init__(self, factor):
        self.factor = factor

    def log_value(self, theta):
        return self.factor.log_value(theta)

    def log_value_many(self, thetas):
        return self.factor.log_value_many(thetas)

    def log_grad_hessdiag(self, theta):
        return self.factor.log_grad_hessdiag(theta)


class TiedStepFactor:
    """A factor that puts every point but the start ``ulps`` ulps below it.

    The log-factor is 0 at the cavity mean, where the search starts, and
    elsewhere exactly what makes log(c*f) land that many ulps under the
    starting objective.  Its gradient of 1 and curvature of -1 ask for a
    nonzero Newton step.
    """

    def __init__(self, cavity, ulps):
        self.cavity, self.start = cavity, cavity.mean.copy()
        self.target = eval_log(cavity, self.start)
        for _ in range(ulps):
            self.target = np.nextafter(self.target, -np.inf)

    def log_value(self, theta):
        if np.array_equal(theta, self.start):
            return 0.0
        c = eval_log(self.cavity, theta)
        v = self.target - c
        while c + v > self.target:
            v = np.nextafter(v, -np.inf)
        while c + v < self.target:
            v = np.nextafter(v, np.inf)
        return float(v)

    def log_value_many(self, thetas):
        return np.array([self.log_value(t) for t in thetas])

    def log_grad_hessdiag(self, theta):
        return np.ones_like(theta), -np.ones_like(theta)


def assert_same_laplace_outcome(cavity, factor):
    """Both line searches raise SchemeFailure, or their messages agree."""
    try:
        expect = stepwise_laplace(cavity, factor)
    except SchemeFailure:
        with pytest.raises(SchemeFailure):
            approx_laplace(cavity, factor)
        return
    got = approx_laplace(cavity, factor)
    np.testing.assert_allclose(got.log_scale, expect.log_scale, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.linear, expect.linear, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.neg_half_precision, expect.neg_half_precision,
                               rtol=1e-12, atol=1e-12)


class TestLaplaceLineSearch:
    """The batched step-halving search against stepwise_laplace."""

    @pytest.fixture
    def batched_calls(self, monkeypatch):
        """Sizes of the point stacks approx_laplace scores in one call."""
        sizes = []
        for cls in (BoundFactor, TiedStepFactor):
            def counting(factor, pts, log_value_many=cls.log_value_many):
                sizes.append(len(pts))
                return log_value_many(factor, pts)

            monkeypatch.setattr(cls, "log_value_many", counting)
        return sizes

    @pytest.mark.parametrize("loss", [logistic(), hinge(), quasi01()],
                             ids=lambda l: l.name)
    def test_matches_stepwise_search_on_data_batches(self, synthetic_dataset, loss,
                                                     batched_calls):
        rng = np.random.default_rng(25)
        d = synthetic_dataset.dim
        for start in range(0, synthetic_dataset.n_examples, 10):
            batch = np.arange(start, min(start + 10, synthetic_dataset.n_examples))
            factor = BoundFactor(synthetic_dataset, batch, loss)
            if loss.name != "logistic":
                factor = BlackBoxFactor(factor)
            cavity = random_cavity(rng, d, log_var_range=(-1.5, 3.2), mean_scale=5.0)
            assert_same_laplace_outcome(cavity, factor)
        if loss.name != "logistic":
            assert set(batched_calls) == {_MAX_HALVINGS - 1}  # the halving branch ran

    @pytest.mark.parametrize("ulps, halvings_scored", [(1, []), (8, [_MAX_HALVINGS - 1])])
    def test_full_step_tying_the_objective_converges(self, ulps, halvings_scored,
                                                     batched_calls):
        cavity = DiagGaussian.from_mean_var([0.5, -1.0], [1.0, 2.0])
        factor = TiedStepFactor(cavity, ulps)
        msg = approx_laplace(cavity, factor)
        assert batched_calls == halvings_scored
        start = cavity.mean  # no halved step ascends either, so the search stays put
        expect = _taylor_message(start, 0.0, *factor.log_grad_hessdiag(start))
        assert msg.log_scale == expect.log_scale
        np.testing.assert_array_equal(msg.linear, expect.linear)
        np.testing.assert_array_equal(msg.neg_half_precision, expect.neg_half_precision)
        assert_same_laplace_outcome(cavity, factor)

    def test_matches_stepwise_search_on_gaussian_factors(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            cavity = random_cavity(rng, int(rng.integers(1, 6)))
            assert_same_laplace_outcome(cavity, random_gaussian_factor(rng, cavity))

    def test_looping_quasi01_run_matches_stepwise_search(self, synthetic_dataset,
                                                         monkeypatch):
        # without their margin view, quasi 0-1 batches take the halving search
        cfg = EpConfig(scheme=SchemeKind("la"), loss=quasi01(), batch_size=10)
        monkeypatch.setitem(schemes._DISPATCH, "la", lambda cavity, factor, scheme:
                            approx_laplace(cavity, BlackBoxFactor(factor), scheme))
        state, trace = ep_run(cfg, synthetic_dataset)
        monkeypatch.setitem(schemes._DISPATCH, "la", lambda cavity, factor, scheme:
                            stepwise_laplace(cavity, BlackBoxFactor(factor), scheme))
        ref_state, ref_trace = ep_run(cfg, synthetic_dataset)
        assert ([r.update_status for r in trace.records]
                == [r.update_status for r in ref_trace.records])
        g, ref = state.global_approx, ref_state.global_approx
        np.testing.assert_allclose(g.linear, ref.linear, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g.neg_half_precision, ref.neg_half_precision,
                                   rtol=1e-12, atol=1e-12)


def assert_line_minimum(cavity, factor, theta, direction, f0, moved, f):
    """One exact search of la's, checked against a dense grid on its line.

    On the line theta + t*u minus log(c*f) is c2*t^2 + c1*t plus beta times
    a loss sum whose slope is at most beta * max|loss'| * sum|Z u|, so every
    minimizer lies within |t| <= R = (|c1| + that bound) / (2 c2).  The grid
    spans [-R, R] and is refined around its own best point and around the
    search's; no grid point may be lower than the search's answer, beyond
    rounding on the scale of the terms the objective sums.
    """
    if moved is theta:
        assert f == f0
    else:
        assert f == -(eval_log(cavity, moved) + factor.log_value(moved)) < f0  # never uphill
    if not direction.any():
        return

    def neg_log(ts):
        points = theta + np.asarray(ts)[:, None] * direction
        return -(eval_log(cavity, points) + factor.log_value_many(points))

    lam, mu = cavity.precision, cavity.mean
    c1, c2 = float(lam * (theta - mu) @ direction), 0.5 * float(lam @ direction ** 2)
    max_slope = np.abs(loss_kinks(factor.loss)[1]).max()
    b_sum = np.abs(factor.Z @ direction).sum()
    reach = (abs(c1) + factor.beta * max_slope * b_sum) / (2 * c2)
    ts = np.linspace(-reach, reach, 20_001)
    h = ts[1] - ts[0]
    t_found = float((moved - theta) @ direction / (direction @ direction))
    np.testing.assert_allclose(moved, theta + t_found * direction, rtol=0, atol=1e-12)
    grids = [ts, [0.0]]
    for centre in (ts[np.argmin(neg_log(ts))], t_found):
        grids.append(np.linspace(centre - 2 * h, centre + 2 * h, 4_001))
    lowest = min(neg_log(g).min() for g in grids)
    # a kink's location carries rounding, which the loss sum turns into a
    # first-order error of beta * slope * |margin| * ulp
    scale = abs(lowest) + factor.beta * max_slope * (
        np.abs(factor.Z @ theta).sum() + abs(t_found) * b_sum)
    assert f <= lowest + 1e-13 * scale


class TestLaplaceExactLineSearch:
    """la on quasi 0-1 batches: the exact minimizer along each Newton direction."""

    @pytest.fixture
    def lines(self, monkeypatch):
        """(theta, direction, f0, moved, f) of every line la searches."""
        calls = []

        def recording(objective, Z, kinks, theta, a, direction, f0, c1, c2, beta,
                      real=schemes._line_minimize):
            moved, f = real(objective, Z, kinks, theta, a, direction, f0, c1, c2, beta)
            calls.append((theta, direction, f0, moved, f))
            return moved, f

        monkeypatch.setattr(schemes, "_line_minimize", recording)
        return calls

    @pytest.mark.parametrize("beta", [1.0, 50.0, 1000.0])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    @pytest.mark.parametrize("rows, columns", [
        (slice(0, 10), slice(None)),  # a full batch, s = 10 in d = 4
        (slice(300, 306), slice(None)),  # synthetic306's remainder batch
        (slice(7, 8), slice(None)),  # s = 1
        (slice(40, 50), slice(0, 1)),  # d = 1
        (None, None),  # random batches of 1-4 rows in d = 2 or 3
    ], ids=["full", "remainder", "s1", "d1", "random"])
    def test_every_line_matches_a_dense_grid(self, synthetic_dataset, rows, columns,
                                             epsilon, beta, lines):
        # On the synthetic306 batches the first line nearly always ends the
        # search; on small random batches a second line often moves, from a
        # theta away from the cavity mean, which checks c1 = sum L (theta - mu) u.
        rng = np.random.default_rng(70)
        for _ in range(3 if rows else 30):
            if rows:
                ds = Dataset(features=synthetic_dataset.features[rows, columns],
                             labels=synthetic_dataset.labels[rows])
                cavity = random_cavity(rng, ds.dim, log_var_range=(-1.5, 3.2), mean_scale=5.0)
            else:
                s, d = int(rng.integers(1, 5)), int(rng.integers(2, 4))
                ds = Dataset(features=rng.normal(size=(s, d)),
                             labels=rng.choice([-1.0, 1.0], size=s))
                cavity = random_cavity(rng, d)
            factor = BoundFactor(ds, np.arange(ds.n_examples), quasi01(epsilon), beta)
            lines.clear()
            approx_laplace(cavity, factor)
            assert lines
            for line in lines:
                assert_line_minimum(cavity, factor, *line)

    @pytest.mark.parametrize("beta", [1.0, 50.0, 1000.0])
    def test_one_dimension_reaches_the_global_mode(self, beta):
        # In d = 1 the first line is the whole axis, so its exact minimizer
        # is the global maximizer of log(c*f), however many kinks it has.
        rng = np.random.default_rng(71)
        for _ in range(10):
            rows = rng.normal(size=(int(rng.integers(1, 6)), 1))
            ds = Dataset(features=rows, labels=rng.choice([-1.0, 1.0], size=len(rows)))
            factor = BoundFactor(ds, np.arange(len(rows)), quasi01(0.1), beta)
            cavity = random_cavity(rng, 1)
            mode = tilted_mode(cavity, factor)
            grid = np.linspace(-15.0, 15.0, 300_001)[:, None]
            log_tilted = eval_log(cavity, grid) + factor.log_value_many(grid)
            best = eval_log(cavity, mode) + factor.log_value(mode)
            assert best >= log_tilted.max() - 1e-12 * abs(best)

    def test_zero_newton_step_returns_the_cavity_mean(self, lines):
        # Unit variances make the cavity's own gradient at its mean exactly
        # zero, and both margins there lie past epsilon, where quasi 0-1 is
        # flat: the Newton step is zero, so the search must not divide by it.
        cavity = DiagGaussian.from_mean_var([2.0, -1.0], [1.0, 1.0])
        ds = Dataset(features=np.array([[1.0, -1.0], [0.5, 0.0]]), labels=np.ones(2))
        factor = BoundFactor(ds, [0, 1], quasi01(0.5), 50.0)
        with np.errstate(all="raise"):
            msg = approx_laplace(cavity, factor)
        (theta, direction, _, moved, _), = lines
        assert not direction.any() and moved is theta
        np.testing.assert_array_equal(theta, cavity.mean)
        assert msg.log_scale == 0.0
        np.testing.assert_array_equal(msg.linear, 0.0)
        np.testing.assert_array_equal(msg.neg_half_precision, 0.0)


def hinge_batch(Z_rows, beta=1.0):
    """A hinge factor whose rows y_k x_k are ``Z_rows`` (labels all +1)."""
    Z_rows = np.atleast_2d(np.asarray(Z_rows, dtype=float))
    ds = Dataset(features=Z_rows, labels=np.ones(len(Z_rows)))
    return BoundFactor(ds, np.arange(len(Z_rows)), hinge(), beta)


def tilted_mode(cavity, factor):
    """The mode approx_laplace's message puts the tilted posterior at."""
    return multiply(cavity, approx_laplace(cavity, factor)).mean


def assert_box_qp_kkt(Q, b, alpha, beta):
    """alpha is in [0, beta]^s and meets the box QP's KKT conditions to 1e-11 of the terms."""
    assert np.all((alpha >= 0.0) & (alpha <= beta))
    g = Q @ alpha - b  # margin - 1 at the mode
    tol = 1e-11 * (np.abs(Q) @ alpha + np.abs(b))
    free = (alpha > 0.0) & (alpha < beta)
    assert np.all(np.abs(g[free]) <= tol[free])
    assert np.all(g[alpha == 0.0] >= -tol[alpha == 0.0])
    assert np.all(g[alpha == beta] <= tol[alpha == beta])


class TestHingeMode:
    """la on hinge batches: the tilted mode solved as a box QP."""

    @pytest.mark.parametrize("beta", [1.0, 50.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_mode_matches_dense_oracle(self, d, beta):
        rng = np.random.default_rng(60 + d)
        for _ in range(3):
            s = int(rng.integers(2, 6))
            rows = rng.normal(size=(s, d)) * np.where(rng.random((s, 1)) < 0.5, -1.0, 1.0)
            rows[-1] = rows[0]  # a repeated row makes Q singular
            factor = hinge_batch(rows, beta)
            cavity = random_cavity(rng, d)
            mode = tilted_mode(cavity, factor)

            def log_tilted(pts):
                return eval_log(cavity, pts) + factor.log_value_many(pts)

            oracle = concave_argmax(log_tilted, -12.0, 12.0, d)
            best = log_tilted(mode[None])[0]
            # no point the oracle finds is higher, beyond rounding ...
            assert log_tilted(oracle[None])[0] <= best + 1e-12 * abs(best)
            # ... and it lands where the mode is, to the nested search's precision
            np.testing.assert_allclose(oracle, mode, atol=1e-3)

    @pytest.mark.parametrize("beta", [1.0, 50.0, 1000.0])
    def test_kkt_conditions_on_every_synthetic306_batch(self, synthetic_dataset, beta):
        """s = 10 rows in d = 4 dimensions, so Q is singular on every full batch."""
        rng = np.random.default_rng(61)
        n, d = synthetic_dataset.n_examples, synthetic_dataset.dim
        sizes = []
        for start in range(0, n, 10):
            factor = BoundFactor(synthetic_dataset, np.arange(start, min(start + 10, n)),
                                 hinge(), beta)
            cavity = random_cavity(rng, d, log_var_range=(-1.5, 3.2), mean_scale=5.0)
            Z, lam, mu = factor.Z, cavity.precision, cavity.mean
            Q, b = (Z / lam) @ Z.T, 1.0 - Z @ mu
            alpha = schemes._box_qp(Z / lam, Z, b, beta, b > 0.0)
            sizes.append(len(b))

            assert_box_qp_kkt(Q, b, alpha, beta)
            # cavity * message peaks at theta* = mu + Z^T alpha / lambda
            np.testing.assert_allclose(tilted_mode(cavity, factor), mu + Z.T @ alpha / lam,
                                       rtol=1e-12, atol=1e-12)
        assert sizes == [10] * 30 + [6]  # the remainder batch is checked too
        assert np.linalg.matrix_rank(Q) < len(b)

    @pytest.mark.parametrize("beta", [1.0, 50.0, 1000.0])
    def test_kkt_conditions_on_stream_shaped_batches(self, beta):
        """s = 10 rows in d = 20 dimensions, so Q is nonsingular.

        Cavity variances run from e^-7, as concentrated as a long streaming
        pass makes them, to e^7, a prior far broader than the default.  At
        beta = 1000 the broad ones send rows from beta to near 0, which is
        where the path's cancellation error shows if the face is not
        solved afresh.
        """
        rng = np.random.default_rng(66)
        for _ in range(200):
            Z = rng.normal(size=(10, 20)) * np.where(rng.random((10, 1)) < 0.5, -1.0, 1.0)
            cavity = random_cavity(rng, 20, log_var_range=(-7.0, 7.0), mean_scale=1.0)
            lam, mu = cavity.precision, cavity.mean
            Q, b = (Z / lam) @ Z.T, 1.0 - Z @ mu
            assert np.linalg.matrix_rank(Q) == 10
            assert_box_qp_kkt(Q, b, schemes._box_qp(Z / lam, Z, b, beta, b > 0.0), beta)

    @pytest.mark.parametrize("beta", [0.01, 1.0, 50.0, 1000.0])
    def test_optimal_start_vertex_comes_back_unchanged(self, beta):
        """Rows orthogonal under the cavity covariance make Q diagonal, and
        margins far from 1 put each row's optimum on the bound it starts at:
        beta where the margin at the cavity mean is below 1, 0 where above."""
        rng = np.random.default_rng(67)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            s = int(rng.integers(1, d + 1))
            basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
            lam = np.exp(rng.uniform(-1.0, 1.0, size=d))
            Z = basis[:s] * np.sqrt(lam) * rng.uniform(0.5, 2.0, size=(s, 1))
            Q = (Z / lam) @ Z.T
            assert np.allclose(Q, np.diag(np.diag(Q)), rtol=0.0, atol=1e-12)
            below = rng.random(s) < 0.5
            # the margin Z mu: below 1 by more than beta * Q_jj, or well above it
            margins = np.where(below, 1.0 - beta * np.diag(Q) - rng.uniform(1.0, 10.0, size=s),
                               1.0 + rng.uniform(1.0, 10.0, size=s))
            mu = np.linalg.lstsq(Z, margins, rcond=None)[0]
            b = 1.0 - Z @ mu
            np.testing.assert_array_equal(schemes._box_qp(Z / lam, Z, b, beta, b > 0.0),
                                          np.where(below, beta, 0.0))

    def test_matches_the_enumeration_oracle(self):
        """About 200 small problems against every face of the box, with singular
        Q, zero, repeated and sign-flipped rows and beta from 0.01 to 1000."""
        rng = np.random.default_rng(68)
        singular = 0
        for i in range(200):
            beta = (0.01, 1.0, 50.0, 1000.0)[i % 4]
            s, d = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            Z = rng.normal(size=(s, d))
            kind = i // 4 % 4
            if kind == 1 and s > 1:
                Z[-1] = Z[0]  # a repeated row
            elif kind == 2 and s > 1:
                Z[-1] = -Z[0]  # a sign-flipped row
            elif kind == 3:
                Z[rng.integers(s)] = 0.0  # a zero row
            cavity = random_cavity(rng, d, log_var_range=(-1.5, 3.2))
            lam, mu = cavity.precision, cavity.mean
            Q, b = (Z / lam) @ Z.T, 1.0 - Z @ mu
            singular += np.linalg.matrix_rank(Q) < s

            alpha = schemes._box_qp(Z / lam, Z, b, beta, b > 0.0)
            oracle = box_qp_by_enumeration(Q, b, beta)
            values = [0.5 * a @ Q @ a - a @ b for a in (alpha, oracle)]
            scale = max(0.5 * a @ np.abs(Q) @ a + a @ np.abs(b) for a in (alpha, oracle))
            assert abs(values[0] - values[1]) <= 1e-12 * scale
            # the mode is unique even where alpha is not
            np.testing.assert_allclose(Z.T @ alpha / lam, Z.T @ oracle / lam,
                                       rtol=1e-10, atol=1e-10 * (1.0 + np.abs(mu).max()))
        assert singular >= 100

    @pytest.mark.parametrize("hi", [0.5, 50.0])
    def test_a_dependent_row_takes_the_null_step_to_its_other_bound(self, hi):
        """A zero row has a zero Q column.  With a wrong-signed multiplier it is
        freed alone along the null direction, and runs to its other bound."""
        Z = np.array([[0.0, 0.0], [1.0, 2.0]])
        # at 0 the zero row's gradient is -b = -1; at hi it is +1
        for b, start, expected in (([1.0, -3.0], [False, False], [hi, 0.0]),
                                   ([-1.0, 3.0], [True, False], [0.0, min(hi, 0.6)])):
            a = schemes._box_qp(Z, Z, np.array(b), hi, np.array(start))
            assert a.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("hi, start, expected", [
        (0.75, False, 0.75), (0.75, True, 0.75),
        (np.nextafter(0.75, 0.0), False, np.nextafter(0.75, 0.0)),
        (np.nextafter(0.75, 0.0), True, np.nextafter(0.75, 0.0)),
        (np.nextafter(0.75, 1.0), False, 0.75),
        # at hi the multiplier is wrong by 2^-51, inside the KKT tolerance
        (np.nextafter(0.75, 1.0), True, np.nextafter(0.75, 1.0)),
        (3.0, False, 0.75), (3.0, True, 0.75),
    ])
    def test_a_one_row_newton_step_meets_the_other_bound_exactly(self, hi, start, expected):
        """One row with Q = 4 and b = 3: the unconstrained minimum is 0.75.
        From 0 the Newton step reaches it, lands exactly on hi = 0.75 or
        passes hi; from hi it comes back to 0.75 or stays."""
        z = np.array([[2.0]])
        a = schemes._box_qp(z, z, np.array([3.0]), hi, np.array([start]))
        assert a.tobytes() == np.array([expected]).tobytes()
        # from hi a step of exactly -hi lands on 0, positive zero
        assert schemes._box_qp(z, z, np.array([0.0]), hi, np.array([True])).tobytes() == \
            np.zeros(1).tobytes()

    def test_one_row_steps_are_bit_for_bit(self):
        """160 problems, s > d and s <= d, each of which leaves its start
        vertex, so its first step frees one row alone.  Their outputs hash
        to what the array-code step gave, and each meets the KKT conditions."""
        rng = np.random.default_rng(69)
        digest = hashlib.sha256()
        for s, d in ((10, 4), (30, 5), (10, 20), (5, 30)):
            for i in range(40):
                Z = rng.normal(size=(s, d))
                if i % 4 == 1:
                    Z[rng.integers(s)] = 0.0  # a zero row
                elif i % 4 == 2:
                    Z[-1] = -Z[0]  # a sign-flipped row
                lam = np.exp(rng.uniform(-3.0, 3.0, size=d))
                mu = rng.uniform(-2.0, 2.0, size=d) / np.sqrt(d)
                b = 1.0 - Z @ mu
                beta = (0.01, 1.0, 50.0, 1000.0)[i % 4]
                start = b > 0.0 if i % 2 else np.zeros(s, dtype=bool)
                alpha = schemes._box_qp(Z / lam, Z, b, beta, start)
                assert not np.array_equal(alpha, np.where(start, beta, 0.0))
                assert_box_qp_kkt((Z / lam) @ Z.T, b, alpha, beta)
                digest.update(alpha.tobytes())
        assert digest.hexdigest() == QP_ONE_ROW_DIGEST

    def test_single_example_is_the_clipped_closed_form(self):
        rng = np.random.default_rng(62)
        for beta in (1.0, 50.0):
            for _ in range(10):
                d = int(rng.integers(1, 5))
                z = rng.normal(size=d)
                cavity = random_cavity(rng, d)
                # maximize over t: the cavity at mu + t z / lambda, minus beta * hinge
                v = z @ (z / cavity.precision)
                t = np.clip((1.0 - z @ cavity.mean) / v, 0.0, beta)
                np.testing.assert_allclose(tilted_mode(cavity, hinge_batch(z, beta)),
                                           cavity.mean + t * z / cavity.precision,
                                           rtol=1e-12, atol=1e-12)

    def test_zero_row_leaves_the_mode_and_costs_beta(self):
        rng = np.random.default_rng(63)
        cavity = random_cavity(rng, 3)
        rows = rng.normal(size=(4, 3))
        with_zero = np.vstack([rows[:2], np.zeros(3), rows[2:]])
        plain = approx_laplace(cavity, hinge_batch(rows, 50.0))
        zero = approx_laplace(cavity, hinge_batch(with_zero, 50.0))
        np.testing.assert_allclose(zero.linear, plain.linear, rtol=1e-12, atol=1e-12)
        assert zero.log_scale == pytest.approx(plain.log_scale - 50.0, rel=1e-12)
        np.testing.assert_array_equal(zero.neg_half_precision, 0.0)

    def test_repeated_rows_act_as_one_row_with_summed_beta(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            rows = rng.normal(size=(3, d))
            cavity = random_cavity(rng, d)
            twice = hinge_batch(np.vstack([rows, rows]), 1.0)
            np.testing.assert_allclose(tilted_mode(cavity, twice),
                                       tilted_mode(cavity, hinge_batch(rows, 2.0)),
                                       rtol=1e-12, atol=1e-12)

    def test_iteration_cap_raises_scheme_failure(self, monkeypatch):
        monkeypatch.setattr(schemes, "_QP_ITER_PER_ROW", 0)
        cavity = DiagGaussian.from_mean_var([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(SchemeFailure, match="did not converge"):
            approx_laplace(cavity, hinge_batch([[1.0, 0.5], [-0.3, 1.0]]))


# The looping la/logistic posterior on synthetic306 (batches of 10, five
# sweeps, the default prior), recorded bit for bit from the Newton path
# before hinge batches had their own solver: the logistic path must not move.
LA_LOGISTIC_POSTERIOR = (
    "-0x1.b320ee82e9f0ep+7",
    ("-0x1.6459293a38ef9p+0", "0x1.0bb18dc3acc03p-2", "-0x1.36acd18a50e33p+1",
     "0x1.d4189798486d5p+5"),
    ("-0x1.b54f8e3fa22e2p-4", "-0x1.af18813308fd6p-4", "-0x1.ca0c834d35c89p-4",
     "-0x1.a59e2945392acp+4"),
)


class TestLaplaceOnSynthetic306:
    def test_hinge_run_applies_every_visit_and_nears_the_reference(self, synthetic_dataset):
        from ffep.bench import reference_newton_logistic, reference_powell, total_cost
        from ffep.factors import PriorFactor

        prior = PriorFactor(variance=25.0)
        theta0 = reference_newton_logistic(synthetic_dataset, prior)
        reference = total_cost(
            reference_powell(synthetic_dataset, hinge(), theta0, prior).theta,
            synthetic_dataset, hinge())
        cfg = EpConfig(scheme=SchemeKind("la"), loss=hinge(), batch_size=10, prior=prior)
        _, trace = ep_run(cfg, synthetic_dataset)
        assert [r.update_status for r in trace.records].count("scheme_failed") == 0
        final = trace.records[-1].total_cost
        assert abs(final - reference) <= 0.05 * reference

    def test_quasi01_run_takes_at_most_two_newton_iterations_per_visit(self, synthetic_dataset,
                                                                       monkeypatch):
        calls = {"iterations": 0, "stacks": 0}
        grad, many = BoundFactor.log_grad_hessdiag, BoundFactor.log_value_many

        def counting_grad(factor, theta):
            calls["iterations"] += 1
            return grad(factor, theta)

        def counting_many(factor, thetas):
            calls["stacks"] += 1
            return many(factor, thetas)

        monkeypatch.setattr(BoundFactor, "log_grad_hessdiag", counting_grad)
        monkeypatch.setattr(BoundFactor, "log_value_many", counting_many)
        cfg = EpConfig(scheme=SchemeKind("la"), loss=quasi01(), batch_size=10)
        _, trace = ep_run(cfg, synthetic_dataset)
        assert [(s.applied, s.repeated) for s in trace.sweeps] == [(31, 0)] * 5
        assert calls["iterations"] <= 2.0 * 5 * 31
        assert calls["stacks"] == 0  # no halving stack is scored

    @pytest.mark.parametrize("loss, log_values, gradients", [
        (logistic(), 815, 815), (hinge(), 155, 0), (quasi01(), 371, 305),
    ], ids=lambda v: getattr(v, "name", v))
    def test_each_visit_evaluates_each_point_once(self, synthetic_dataset, monkeypatch,
                                                  margin_passes, loss, log_values, gradients):
        """The mode's value and derivatives come from the search that found it.

        On logistic the search scores its start and every iterate with
        log_value and takes log_grad_hessdiag at every iterate, the mode
        included, so the two counts agree: 815 each over the 155 visits.
        Each derivative is taken at the point log_value scored last, so it
        forms no margins: a visit forms Z @ theta once per point it scores.
        """
        visits = []

        def visit(cavity, factor, scheme, real=approx_laplace):
            visits.append({"log_value": [], "log_grad_hessdiag": []})
            passes = len(margin_passes)
            message = real(cavity, factor, scheme)
            assert margin_passes[passes:] == visits[-1]["log_value"]
            return message

        for name in ("log_value", "log_grad_hessdiag"):
            def counting(factor, theta, real=getattr(BoundFactor, name), name=name):
                visits[-1][name].append(theta.tobytes())
                return real(factor, theta)

            monkeypatch.setattr(BoundFactor, name, counting)
        monkeypatch.setitem(schemes._DISPATCH, "la", visit)
        cfg = EpConfig(scheme=SchemeKind("la"), loss=loss, batch_size=10)
        ep_run(cfg, synthetic_dataset)
        assert len(visits) == 5 * 31
        for points in visits:
            for evaluated in points.values():
                assert len(set(evaluated)) == len(evaluated)
        assert sum(len(v["log_value"]) for v in visits) == log_values
        assert sum(len(v["log_grad_hessdiag"]) for v in visits) == gradients
        assert len(margin_passes) == log_values  # 1,630 and 676 when derivatives re-formed them

    def test_quasi01_line_searches_read_the_kept_margins(self, synthetic_dataset, monkeypatch,
                                                        row_products):
        """Each of the 305 exact line searches starts from the point log_value
        scored last, so it forms Z @ direction alone: the run forms margins
        at 371 points, one pass per point scored, and 676 when each search
        formed Z @ theta again."""
        scored, searches = [], []
        log_value, line_minimize = BoundFactor.log_value, schemes._line_minimize

        def scoring(factor, theta):
            scored.append(theta.tobytes())
            return log_value(factor, theta)

        def searching(objective, Z, kinks, theta, a, direction, *rest):
            searches.append(direction.tobytes())
            return line_minimize(objective, Z, kinks, theta, a, direction, *rest)

        monkeypatch.setattr(BoundFactor, "log_value", scoring)
        monkeypatch.setattr(schemes, "_line_minimize", searching)
        cfg = EpConfig(scheme=SchemeKind("la"), loss=quasi01(), batch_size=10)
        ep_run(cfg, synthetic_dataset)
        assert len(searches) == 305
        points = set(scored)
        assert len([v for v in row_products if v in points]) == len(scored) == 371
        assert sorted(v for v in row_products if v not in points) == sorted(searches)

    def test_logistic_posterior_is_unchanged(self, synthetic_dataset):
        cfg = EpConfig(scheme=SchemeKind("la"), loss=logistic(), batch_size=10)
        state, _ = ep_run(cfg, synthetic_dataset)
        g = state.global_approx
        log_scale, linear, nhp = LA_LOGISTIC_POSTERIOR
        assert g.log_scale == float.fromhex(log_scale)
        np.testing.assert_array_equal(g.linear, [float.fromhex(x) for x in linear])
        np.testing.assert_array_equal(g.neg_half_precision, [float.fromhex(x) for x in nhp])


def generated_table(n, d, seed):
    """A seeded table shaped like the benchmark's generated ones: standard
    normal features, labels from a logistic link with a tenth of them
    flipped, columns scaled to unit norm and a baseline column last."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d - 1))
    w = rng.standard_normal(d - 1)
    p = 1.0 / (1.0 + np.exp(-(X @ (1.5 * w / np.linalg.norm(w)) + 0.3)))
    y = (rng.random(n) < p) ^ (rng.random(n) < 0.1)
    return Dataset(features=np.column_stack([X / np.linalg.norm(X, axis=0), np.ones(n)]),
                   labels=np.where(y, 1.0, -1.0))


class TestKeptMarginsEndToEnd:
    """Runs at the benchmark's wider shapes are bit for bit the same whether
    log_grad_hessdiag derives from log_value's margins or forms them again."""

    @pytest.mark.parametrize("scheme", ["la", "qla", "gq", "vq"])
    @pytest.mark.parametrize("shape", ["d20-s10-streaming", "d100-s100-looping"])
    def test_reusing_margins_moves_no_bit(self, monkeypatch, margin_passes, shape, scheme):
        if shape.startswith("d20"):
            ds, settings = generated_table(1000, 20, 70), dict(batch_size=10, mode="streaming")
        else:
            ds, settings = generated_table(1000, 100, 71), dict(batch_size=100, n_sweeps=1)

        def outcomes():
            runs = []
            for loss in (logistic(), hinge(), quasi01()):
                cfg = EpConfig(scheme=SchemeKind(scheme), loss=loss, **settings)
                state, trace = ep_run(cfg, ds)
                g = state.global_approx
                runs.append([np.array([g.log_scale]).tobytes(), g.linear.tobytes(),
                             g.neg_half_precision.tobytes(),
                             np.array([r.total_cost for r in trace.records]).tobytes(),
                             [r.update_status for r in trace.records]])
            return runs, len(margin_passes)

        reused, passes = outcomes()
        del margin_passes[:]
        real = BoundFactor.log_grad_hessdiag
        # another array with the same values: the kept margins are not served
        monkeypatch.setattr(BoundFactor, "log_grad_hessdiag",
                            lambda factor, theta: real(factor, theta.copy()))
        defeated, passes_defeated = outcomes()
        assert defeated == reused
        if scheme in ("la", "qla"):
            assert passes < passes_defeated
        else:  # gq and vq take no derivatives
            assert passes == passes_defeated == 0


class TestQuickLaplace:
    def test_recovers_gaussian_factor(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            cavity = random_cavity(rng, d)
            factor = random_gaussian_factor(rng, cavity)
            msg = approx_quick_laplace(cavity, factor)
            np.testing.assert_allclose(msg.linear, factor.g.linear, atol=1e-8)
            np.testing.assert_allclose(msg.neg_half_precision,
                                       factor.g.neg_half_precision, atol=1e-8)

    def test_independent_of_cavity_variance(self):
        rng = np.random.default_rng(31)
        factor = single_example_factor(logistic(), [1.0, -0.5])
        mean = np.array([0.4, -0.2])
        msgs = []
        for var in ([1.0, 1.0], [25.0, 0.04], [0.3, 9.0]):
            cavity = DiagGaussian.from_mean_var(mean, var)
            msgs.append(approx_quick_laplace(cavity, factor))
        for m in msgs[1:]:
            assert m.log_scale == msgs[0].log_scale
            np.testing.assert_array_equal(m.linear, msgs[0].linear)
            np.testing.assert_array_equal(m.neg_half_precision,
                                          msgs[0].neg_half_precision)

    def test_worked_logistic_expansion_at_origin(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        msg = approx_quick_laplace(cavity, single_example_factor(logistic(), [1.0]))
        assert msg.log_scale == pytest.approx(-np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(msg.linear, [0.5], rtol=1e-12)
        np.testing.assert_allclose(msg.neg_half_precision, [-0.125], rtol=1e-12)

    def test_hinge_away_from_kink_gives_pure_tilt(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        msg = approx_quick_laplace(cavity, single_example_factor(hinge(), [1.0]))
        np.testing.assert_array_equal(msg.neg_half_precision, [0.0])
        np.testing.assert_allclose(msg.linear, [1.0], rtol=1e-12)


class TestGaussQuadrature:
    def test_constant_factor_worked_example(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        m0, m1, m2 = quadrature_moments(cavity, constant_factor(np.log(2.0), 1))
        np.testing.assert_allclose((m0, m1[0], m2[0]), (2.0, 0.0, 2.0), atol=1e-12)
        msg = approx_gauss_quadrature(cavity, constant_factor(np.log(2.0), 1))
        assert msg.log_scale == pytest.approx(np.log(2.0), abs=1e-10)
        np.testing.assert_allclose(msg.linear, 0.0, atol=1e-10)
        np.testing.assert_allclose(msg.neg_half_precision, 0.0, atol=1e-10)

    def test_constant_factor_moments_match_dense_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            cavity = random_cavity(rng, 1)
            log_c_val = float(rng.uniform(-1.0, 1.0))
            m0, m1, m2 = quadrature_moments(cavity, constant_factor(log_c_val, 1))
            mean, sd = float(cavity.mean[0]), float(np.sqrt(cavity.variance[0]))
            oracle = dense_moments_1d(
                lambda x: log_gauss_1d(x, mean, sd * sd, cavity.log_mass),
                lambda x: np.full_like(x, log_c_val),
                center=mean, halfwidth=8.0 * sd)
            np.testing.assert_allclose(
                (m0, m1[0], m2[0]), oracle,
                rtol=1e-8, atol=1e-10)

    def test_curved_factor_moments_differ_from_dense_oracle(self):
        """The rule is exact only to degree 3, so a genuinely curved factor
        must show a visible moment discrepancy against dense integration."""
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        g = DiagGaussian.from_mean_var([1.0], [0.25])
        m0, _, _ = quadrature_moments(cavity, GaussianFactor(g))
        oracle = dense_moments_1d(
            lambda x: log_gauss_1d(x, 0.0, 1.0),
            lambda x: log_gauss_1d(x, 1.0, 0.25),
            center=0.0, halfwidth=8.0)
        assert abs(m0 - oracle[0]) > 1e-4

    def test_division_by_cavity_is_exact_in_natural_parameters(self):
        rng = np.random.default_rng(41)
        cavity = random_cavity(rng, 3)
        factor = random_gaussian_factor(rng, cavity)
        msg = approx_gauss_quadrature(cavity, factor)
        recombined = multiply(cavity, msg)
        matched = moments_to_natural(*quadrature_moments(cavity, factor))
        np.testing.assert_allclose(recombined.linear, matched.linear, rtol=1e-12)
        np.testing.assert_allclose(recombined.neg_half_precision,
                                   matched.neg_half_precision, rtol=1e-12)

    @pytest.mark.parametrize("rows", [1, 10])
    @pytest.mark.parametrize("d", [1, 4, 20])
    def test_matches_the_composed_moment_match_bit_for_bit(self, d, rows):
        """Every message, and every failure's text, equals gq_by_composition's.

        At beta = 50 most batches drive a variance estimate nonpositive, so
        both paths are exercised on every (d, rows).
        """
        rng = np.random.default_rng(1000 * d + rows)
        outcomes = set()
        for loss in (logistic(), hinge(), quasi01()):
            for beta in (1.0, 50.0):
                for _ in range(3):
                    labels = np.where(rng.normal(size=rows) < 0, -1.0, 1.0)
                    factor = BoundFactor(Dataset(rng.normal(size=(rows, d)), labels),
                                         np.arange(rows), loss, beta)
                    cavity = random_cavity(rng, d)
                    try:
                        expected = gq_by_composition(cavity, factor)
                    except MomentMatchError as exc:
                        assert str(exc).startswith((
                            f"coordinate {exc.coordinate} implies nonpositive variance ",
                            f"coordinate {exc.coordinate} implies non-finite variance "))
                        with pytest.raises(SchemeFailure) as err:
                            approx_gauss_quadrature(cavity, factor)
                        assert str(err.value) == f"quadrature moments not matchable: {exc}"
                        outcomes.add("failed")
                        continue
                    msg = approx_gauss_quadrature(cavity, factor)
                    assert msg.log_scale == expected.log_scale
                    np.testing.assert_array_equal(msg.linear, expected.linear)
                    np.testing.assert_array_equal(msg.neg_half_precision,
                                                  expected.neg_half_precision)
                    outcomes.add("matched")
        assert outcomes == {"matched", "failed"}

    def test_vanishing_factor_raises_scheme_failure(self):
        class ZeroFactor:
            def log_value(self, theta):
                return -np.inf

            def log_value_many(self, thetas):
                return np.full(len(thetas), -np.inf)

        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        with pytest.raises(SchemeFailure):
            approx_gauss_quadrature(cavity, ZeroFactor())

    def test_negative_estimated_variance_raises_scheme_failure(self):
        """A spiky factor can drive the degree-3 rule to inconsistent moment
        estimates; those must surface as SchemeFailure, not messages."""
        class SpikeFactor:
            # Large only at the center point; the spoke values underflow to
            # exactly zero after max-shifting, so the second moment vanishes.
            def log_value(self, theta):
                return 200.0 if abs(float(theta[0])) < 1e-9 else -1000.0

            def log_value_many(self, thetas):
                return np.array([self.log_value(t) for t in thetas])

        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        with pytest.raises(SchemeFailure):
            approx_gauss_quadrature(cavity, SpikeFactor())


class TestSurrogate:
    def test_gradient_vanishes_on_realizable_data(self):
        rng = np.random.default_rng(50)
        cavity = random_cavity(rng, 2)
        rule = build_rule(cavity)
        alpha0 = rng.normal(scale=0.3, size=5)
        phi = np.hstack([np.ones((5, 1)), rule.points, rule.points ** 2])
        F = np.exp(phi @ alpha0)
        _, grad, _ = surrogate_value_grad_hess(alpha0, rule, F)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            cavity = random_cavity(rng, d)
            rule = build_rule(cavity)
            n = 2 * d + 1
            F = np.exp(rng.uniform(-1.0, 1.0, size=n))
            alpha = rng.normal(scale=0.1, size=n)
            _, grad, _ = surrogate_value_grad_hess(alpha, rule, F)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                up, _, _ = surrogate_value_grad_hess(alpha + e, rule, F)
                dn, _, _ = surrogate_value_grad_hess(alpha - e, rule, F)
                assert grad[i] == pytest.approx((up - dn) / (2.0 * h), abs=1e-6)

    def test_hessian_is_symmetric_positive_definite(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            cavity = random_cavity(rng, d)
            rule = build_rule(cavity)
            n = 2 * d + 1
            alpha = rng.normal(scale=0.2, size=n)
            F = np.exp(rng.uniform(-1.0, 1.0, size=n))
            _, _, hess = surrogate_value_grad_hess(alpha, rule, F)
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12)
            np.linalg.cholesky(hess)


class TestVariationalQuadrature:
    def test_recovers_gaussian_factor(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            d = int(rng.integers(1, 8))
            cavity = random_cavity(rng, d)
            factor = random_gaussian_factor(rng, cavity)
            msg = approx_variational_quadrature(cavity, factor)
            np.testing.assert_allclose(msg.linear, factor.g.linear,
                                       rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(msg.neg_half_precision,
                                       factor.g.neg_half_precision,
                                       rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(msg.log_scale, factor.g.log_scale,
                                       rtol=1e-6, atol=1e-6)

    def test_constant_factor_solved_in_one_step(self):
        cavity = DiagGaussian.from_mean_var([0.5, -0.5], [2.0, 0.5])
        msg = approx_variational_quadrature(cavity, constant_factor(np.log(3.0), 2))
        assert msg.log_scale == pytest.approx(np.log(3.0), rel=1e-12)
        np.testing.assert_allclose(msg.linear, 0.0, atol=1e-12)
        np.testing.assert_allclose(msg.neg_half_precision, 0.0, atol=1e-12)

    def test_message_beats_gq_in_dense_kl_on_steep_hinge_factor(self):
        """With the cavity inside the hinge's penalized region the log-factor
        is steep but locally linear, so the log-space fit is near exact while
        the three-point moment estimates are biased by the exponential tilt.
        (With the cavity straddling the kink the ordering reverses: accurate
        moment matching is the dense-KL optimum among Gaussians.)"""
        cavity = DiagGaussian.from_mean_var([-1.0], [0.25])
        factor = single_example_factor(hinge(), [2.0])
        vq = approx_variational_quadrature(cavity, factor)
        gq = approx_gauss_quadrature(cavity, factor)
        log_c = lambda x: log_gauss_1d(x, -1.0, 0.25)
        log_f = lambda x: -np.maximum(0.0, 1.0 - 2.0 * x)
        kl = {
            "vq": dense_kl_1d(log_c, log_f, lambda x: eval_log(vq, x[:, None]),
                              center=-1.0, halfwidth=4.0),
            "gq": dense_kl_1d(log_c, log_f, lambda x: eval_log(gq, x[:, None]),
                              center=-1.0, halfwidth=4.0),
        }
        assert kl["vq"] < 0.05 * kl["gq"]

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("gamma_sq_over_d", [1.0, 0.5])
    def test_recovers_gaussian_factor_at_zero_or_negative_center_weight(
            self, d, gamma_sq_over_d):
        """The message does not depend on the weights, so gamma^2 = d (zero
        center weight) and gamma^2 < d (negative) still interpolate exactly."""
        rng = np.random.default_rng(61 + d)
        scheme = SchemeKind(kind="vq", gamma=float(np.sqrt(gamma_sq_over_d * d)))
        for _ in range(10):
            cavity = random_cavity(rng, d)
            factor = random_gaussian_factor(rng, cavity)
            msg = approx_variational_quadrature(cavity, factor, scheme)
            np.testing.assert_allclose(msg.linear, factor.g.linear,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(msg.neg_half_precision,
                                       factor.g.neg_half_precision,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(msg.log_scale, factor.g.log_scale,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("loss", [logistic(), hinge()], ids=lambda l: l.name)
    def test_wide_log_span_batch_gives_stationary_message(self, synthetic_dataset, loss):
        """Under the N(0, 25 I) prior as cavity, a ten-example batch spans
        over 60 log units across the sigma points; the message is still the
        surrogate's stationary point in cavity-standardized coordinates."""
        d = synthetic_dataset.dim
        cavity = DiagGaussian.from_mean_var(np.zeros(d), np.full(d, 25.0))
        factor = BoundFactor(synthetic_dataset, batch=list(range(10)), loss=loss)
        msg = approx_variational_quadrature(cavity, factor)
        assert msg.is_finite()

        rule = build_rule(cavity)
        logf = factor.log_value_many(rule.points)
        assert np.ptp(logf) > 60.0
        shift = float(np.max(logf))
        sigma = np.sqrt(cavity.variance)
        z = rule.points / sigma  # the cavity mean is zero
        zrule = QuadratureRule(points=z, weights=rule.weights, gamma=rule.gamma)
        F = np.exp(logf - shift)
        # log g - shift = c0 + b.z + a.z^2 with b = sigma*linear, a = sigma^2*nhp
        alpha = np.concatenate([[msg.log_scale - shift],
                                sigma * msg.linear,
                                sigma**2 * msg.neg_half_precision])
        phi = np.hstack([np.ones((len(z), 1)), z, z * z])
        data_scale = float(np.max(np.abs(phi.T @ (rule.weights * F))))
        _, grad, _ = surrogate_value_grad_hess(alpha, zrule, F)
        assert np.max(np.abs(grad)) <= 1e-10 * data_scale

    @pytest.mark.parametrize("gamma", [0.1, 0.01])
    def test_approaches_qla_as_the_spokes_shrink(self, synthetic_dataset, gamma):
        """vq's slope and curvature are central differences with step
        gamma*sigma, so on a smooth factor its message tends to qla's with
        an O(gamma^2) error: every natural parameter within 0.1*gamma^2
        relative (the constant is 0.052 on this batch and cavity)."""
        rng = np.random.default_rng(62)
        d = synthetic_dataset.dim
        cavity = DiagGaussian.from_mean_var(rng.normal(scale=0.5, size=d),
                                            np.exp(rng.uniform(-1.5, 0.5, size=d)))
        factor = BoundFactor(synthetic_dataset, np.arange(10), logistic())
        qla = approx_quick_laplace(cavity, factor)
        vq = approx_variational_quadrature(cavity, factor, SchemeKind("vq", gamma=gamma))
        for got, expect in [(vq.log_scale, qla.log_scale), (vq.linear, qla.linear),
                            (vq.neg_half_precision, qla.neg_half_precision)]:
            np.testing.assert_allclose(got, expect, rtol=0.1 * gamma**2, atol=0.0)

    @pytest.mark.parametrize("loss, counts", [
        (logistic(), (31, 0, 0)), (hinge(), (31, 0, 0)), (quasi01(), (0, 31, 0)),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_runs_without_the_sigma_point_rule(self, synthetic_dataset, monkeypatch,
                                               loss, counts):
        """vq reads its 2d+1 values through log_value_axes alone, forming no
        (2d+1, d) point stack, and every sweep's status counts stay as the
        golden runs froze them."""
        def unused(*args):
            raise AssertionError("vq evaluated the factor at the rule's points")

        monkeypatch.setattr(schemes, "build_rule", unused)
        monkeypatch.setattr(BoundFactor, "log_value_many", unused)
        for mode, sweeps in (("looping", 5), ("streaming", 1)):
            cfg = EpConfig(scheme=SchemeKind("vq"), loss=loss, mode=mode)
            _, trace = ep_run(cfg, synthetic_dataset)
            assert [(s.applied, s.rejected, s.scheme_failed)
                    for s in trace.sweeps] == [counts] * sweeps

    def test_vanishing_factor_raises_scheme_failure(self):
        class ZeroFactor:
            def log_value_axes(self, center, offsets):
                return -np.inf, np.full(center.size, -np.inf), np.full(center.size, -np.inf)

        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        with pytest.raises(SchemeFailure, match="factor vanishes"):
            approx_variational_quadrature(cavity, ZeroFactor())

    @pytest.mark.parametrize("l_plus, l_minus", [
        ([0.0, np.nan], [0.0, 0.0]), ([0.0, 0.0], [np.inf, 0.0]),
    ], ids=["nan-spoke", "inf-spoke"])
    def test_undefined_spoke_raises_scheme_failure(self, l_plus, l_minus):
        class SpokeFactor:
            def log_value_axes(self, center, offsets):
                return 0.0, np.array(l_plus), np.array(l_minus)

        cavity = DiagGaussian.from_mean_var([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(SchemeFailure, match="factor vanishes"):
            approx_variational_quadrature(cavity, SpokeFactor())


class TestKlDiagnostic:
    def test_zero_when_message_equals_factor(self):
        rng = np.random.default_rng(70)
        cavity = random_cavity(rng, 2)
        factor = random_gaussian_factor(rng, cavity)
        value = generalized_kl_diagnostic(cavity, factor, factor.g)
        assert abs(value) <= 1e-10

    def test_positive_for_perturbed_message(self):
        rng = np.random.default_rng(71)
        cavity = random_cavity(rng, 2)
        factor = random_gaussian_factor(rng, cavity)
        g = factor.g
        shifted = DiagGaussian(log_scale=g.log_scale,
                               linear=g.linear + 0.3,
                               neg_half_precision=g.neg_half_precision)
        assert generalized_kl_diagnostic(cavity, factor, shifted) > 0.0

    def test_ranks_vq_at_or_below_gq_on_quadrature_points(self):
        cavity = DiagGaussian.from_mean_var([0.2], [1.5])
        factor = single_example_factor(quasi01(), [1.0])
        vq = approx_variational_quadrature(cavity, factor)
        gq = approx_gauss_quadrature(cavity, factor)
        assert (generalized_kl_diagnostic(cavity, factor, vq)
                <= generalized_kl_diagnostic(cavity, factor, gq) + 1e-12)


class TestSchemeSelection:
    def test_names_round_trip(self):
        for name in ("la", "qla", "gq", "vq"):
            assert scheme_from_name(name).kind == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            scheme_from_name("newton")

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            SchemeKind(kind="vq", newton_tol=0.0)
        with pytest.raises(ValueError):
            SchemeKind(kind="gq", gamma=-1.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="newton_tol must be positive and finite"):
                SchemeKind(kind="la", newton_tol=bad)
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                SchemeKind(kind="gq", gamma=bad)
        for bad_cap in (0, -3, 2.5, True):
            with pytest.raises(ValueError):
                SchemeKind(kind="la", newton_max_iter=bad_cap)

    @pytest.mark.parametrize("loss", [logistic(), hinge()], ids=["logistic", "hinge"])
    @pytest.mark.parametrize("name", ["la", "qla", "gq", "vq"])
    def test_improper_cavity_raises_naming_the_coordinate(self, synthetic_dataset,
                                                          name, loss):
        # hinge sends la through the box QP, logistic through Newton
        cavity = DiagGaussian(0.0, np.zeros(4), np.array([-0.5, -0.5, 0.1, -0.5]))
        factor = BoundFactor(synthetic_dataset, np.arange(10), loss)
        with pytest.raises(ImproperGaussianError, match="coordinate 2"):
            approximate(SchemeKind(name), cavity, factor)

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(80)
        cavity = random_cavity(rng, 2)
        factor = random_gaussian_factor(rng, cavity)
        direct = {
            "la": approx_laplace(cavity, factor),
            "qla": approx_quick_laplace(cavity, factor),
            "gq": approx_gauss_quadrature(cavity, factor),
            "vq": approx_variational_quadrature(cavity, factor),
        }
        for name, expect in direct.items():
            got = approximate(scheme_from_name(name), cavity, factor)
            np.testing.assert_allclose(got.linear, expect.linear, rtol=1e-12)
            np.testing.assert_allclose(got.neg_half_precision,
                                       expect.neg_half_precision, rtol=1e-12)

    def test_gamma_override_respected(self):
        cavity = DiagGaussian.from_mean_var([0.0], [1.0])
        rule = build_rule(cavity, gamma=np.sqrt(3.0))
        assert rule.gamma == pytest.approx(np.sqrt(3.0))
        assert rule.weights[0] == pytest.approx(1.0 - 1.0 / 3.0, rel=1e-12)
