"""Acceptance suite: one numbered test (or lettered group) per criterion.

Every test pins its tolerance and asserts its own runtime budget.  The
terminal summary prints one PASS/FAIL line per criterion (see conftest).

Criterion 9c is expected to fail on the hinge loss: Taylor-based fits carry
zero curvature on piecewise-linear losses, so their messages never add
precision, the posterior variance stays at the prior's, and the mean jumps
between displaced states instead of settling near the reference.  The test
asserts the stated behavior anyway rather than weakening it.
"""

import itertools
import time

import numpy as np
import pytest

from ffep.bench import reference_newton_logistic, reference_powell, total_cost
from ffep.engine import EpConfig, ep_run, ep_run_factors
from ffep.factors import (
    BoundFactor,
    GaussianFactor,
    PriorFactor,
    prior_as_message,
)
from ffep.gaussian import DiagGaussian, eval_log, multiply
from ffep.ingest import Dataset
from ffep.losses import (
    hinge,
    logistic,
    loss_derivatives,
    loss_value,
    quasi01,
)
from ffep.schemes import (
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
)

from oracles import dense_kl_1d, dense_moments_1d, log_gauss_1d, surrogate_value_grad_hess
from test_schemes import quadrature_moments

PRIOR = PriorFactor(variance=25.0)


def random_cavity(rng, d):
    var = np.exp(rng.uniform(-1.5, 1.5, size=d))
    mean = rng.uniform(-2.0, 2.0, size=d)
    return DiagGaussian.from_mean_var(mean, var,
                                      log_mass=float(rng.uniform(-1.0, 1.0)))


def commensurate_gaussian_factor(rng, cavity):
    """A Gaussian factor on the cavity's own scale (see test_schemes)."""
    sd = np.sqrt(cavity.variance)
    mean = cavity.mean + rng.uniform(-1.0, 1.0, size=cavity.dim) * sd
    var = cavity.variance * np.exp(rng.uniform(-0.5, 0.5, size=cavity.dim))
    g = DiagGaussian.from_mean_var(mean, var, log_mass=float(rng.uniform(-1.0, 1.0)))
    return GaussianFactor(g)


def single_example_factor(loss, x, y=1.0):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ds = Dataset(features=x[None, :], labels=np.array([float(y)]))
    return BoundFactor(ds, batch=[0], loss=loss)


def batch_factor(rng, loss, n, d, beta=1.0):
    ds = Dataset(features=rng.normal(size=(n, d)),
                 labels=np.where(rng.normal(size=n) < 0, -1.0, 1.0))
    return BoundFactor(ds, batch=np.arange(n), loss=loss, beta=beta)


def gauss_raw_moment(mean, var, power):
    """E[theta^p] for p <= 3 under a 1-D Gaussian, in closed form."""
    if power == 0:
        return 1.0
    if power == 1:
        return mean
    if power == 2:
        return mean * mean + var
    return mean**3 + 3.0 * mean * var


def ep_on(dataset, kind, loss, n_sweeps=None, mode="looping"):
    cfg = EpConfig(scheme=SchemeKind(kind=kind), loss=loss, beta=1.0,
                   batch_size=10, n_sweeps=n_sweeps, mode=mode, prior=PRIOR)
    return ep_run(cfg, dataset)


def test_criterion_01_quadrature_exactness():
    """Degree <= 3 monomials integrate exactly (1e-10) for d in 1..5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for d in range(1, 6):
        powers = [p for p in itertools.product(range(4), repeat=d) if sum(p) <= 3]
        for _ in range(50):
            cavity = random_cavity(rng, d)
            rule = build_rule(cavity)
            for p in powers:
                quad = float(rule.weights @ np.prod(rule.points ** np.array(p), axis=1))
                exact = 1.0
                for i, pi in enumerate(p):
                    exact *= gauss_raw_moment(cavity.mean[i], cavity.variance[i], pi)
                assert abs(quad - exact) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_uniform_weights():
    """gamma = sqrt(d + 0.5) makes every weight 1/(2d+1), for d up to 200."""
    t0 = time.perf_counter()
    for d in range(1, 201):
        cavity = DiagGaussian.from_mean_var(np.zeros(d), np.ones(d))
        rule = build_rule(cavity)
        assert rule.gamma == default_gamma(d)
        assert np.max(np.abs(rule.weights - 1.0 / (2 * d + 1))) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_vq_gaussian_recovery():
    """200 commensurate (cavity, Gaussian factor) pairs, d <= 20: the VQ
    message reproduces the factor's natural parameters to 1e-6."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(200):
        d = int(rng.integers(1, 21))
        cavity = random_cavity(rng, d)
        factor = commensurate_gaussian_factor(rng, cavity)
        msg = approx_variational_quadrature(cavity, factor)
        assert np.max(np.abs(msg.linear - factor.g.linear)) <= 1e-6
        assert np.max(np.abs(msg.neg_half_precision
                             - factor.g.neg_half_precision)) <= 1e-6
        assert abs(msg.log_scale - factor.g.log_scale) <= 1e-6
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_surrogate_convexity_and_certificate():
    """Over 100 random factors the VQ fit never hits a non-SPD Hessian, the
    Hessian factorizes at the solution and nearby, and the surrogate
    gradient at the returned message is below 1e-4 of the data-term scale."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    scheme = SchemeKind(kind="vq")
    losses = [logistic(), hinge(), quasi01(0.1)]
    for case in range(100):
        d = int(rng.integers(1, 6))
        cavity = random_cavity(rng, d)
        if case % 2 == 0:
            factor = commensurate_gaussian_factor(rng, cavity)
        else:
            factor = batch_factor(rng, losses[case % 3], int(rng.integers(1, 7)), d)
        msg = approximate(scheme, cavity, factor)  # closed form, certified below

        # rebuild the standardized-coordinate fit objects
        rule = build_rule(cavity)
        mu, sigma = cavity.mean, np.sqrt(cavity.variance)
        z = (rule.points - mu) / sigma
        zrule = QuadratureRule(points=z, weights=rule.weights, gamma=rule.gamma)
        logf = factor.log_value_many(rule.points)
        shift = float(np.max(logf))
        F = np.exp(logf - shift)

        az = msg.neg_half_precision * sigma**2
        bz = sigma * msg.linear + 2.0 * msg.neg_half_precision * sigma * mu
        c0 = msg.log_scale - shift + float(np.sum(bz * mu / sigma)) \
            - float(np.sum(az * mu**2 / sigma**2))
        alpha = np.concatenate([[c0], bz, az])

        phi = np.hstack([np.ones((len(z), 1)), z, z * z])
        data_scale = float(np.max(np.abs(phi.T @ (rule.weights * F))))
        _, grad, hess = surrogate_value_grad_hess(alpha, zrule, F)
        assert np.max(np.abs(grad)) <= 1e-4 * max(1.0, data_scale)
        np.linalg.cholesky(hess)
        for _ in range(3):
            probe = alpha + rng.uniform(-0.5, 0.5, size=alpha.size)
            _, _, hess_probe = surrogate_value_grad_hess(probe, zrule, F)
            np.linalg.cholesky(hess_probe)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_laplace_exact_on_quadratics():
    """LA and QLA recover proper Gaussian factors to 1e-8; QLA's message is
    bitwise independent of the cavity variance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(50):
        d = int(rng.integers(1, 11))
        cavity = random_cavity(rng, d)
        factor = commensurate_gaussian_factor(rng, cavity)
        for fit in (approx_laplace, approx_quick_laplace):
            msg = fit(cavity, factor)
            assert np.max(np.abs(msg.linear - factor.g.linear)) <= 1e-8
            assert np.max(np.abs(msg.neg_half_precision
                                 - factor.g.neg_half_precision)) <= 1e-8
            assert abs(msg.log_scale - factor.g.log_scale) <= 1e-8

    for _ in range(20):
        d = int(rng.integers(1, 6))
        factor = batch_factor(rng, logistic(), 6, d)
        mean = rng.uniform(-1.0, 1.0, size=d)
        # power-of-two variances keep the stored-naturals round trip of the
        # cavity mean exact, so the messages must agree bit for bit
        msgs = [
            approx_quick_laplace(DiagGaussian.from_mean_var(mean, scale * np.ones(d)),
                                 factor)
            for scale in (0.25, 1.0, 64.0)
        ]
        for m in msgs[1:]:
            assert m.log_scale == msgs[0].log_scale
            assert np.array_equal(m.linear, msgs[0].linear)
            assert np.array_equal(m.neg_half_precision, msgs[0].neg_half_precision)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_dense_oracle_equivalence():
    """d=1 dense-grid oracle over +-8 sd: GQ moments match it to 1e-8 on
    constant factors, and the VQ message's dense generalized KL is <= GQ's
    on twenty hinge / quasi 0-1 cases whose cavity sits in the penalized
    region (where sigma-point moment estimates degrade)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)

    for _ in range(10):
        cavity = random_cavity(rng, 1)
        log_c_value = float(rng.uniform(-2.0, 2.0))

        class Constant:
            def log_value(self, theta):
                return log_c_value

            def log_value_many(self, thetas):
                return np.full(len(thetas), log_c_value)

        est = quadrature_moments(cavity, Constant())
        mu, var = float(cavity.mean[0]), float(cavity.variance[0])
        m0, m1, m2 = dense_moments_1d(
            lambda x: log_gauss_1d(x, mu, var, cavity.log_mass),
            lambda x: np.full_like(x, log_c_value),
            center=mu, halfwidth=8.0 * np.sqrt(var))
        assert np.isclose(est.m0, m0, rtol=1e-8, atol=1e-8)
        assert np.isclose(est.m1[0], m1, rtol=1e-8, atol=1e-8)
        assert np.isclose(est.m2[0], m2, rtol=1e-8, atol=1e-8)

    suite = [
        ("hinge", 1.0, -1.0, 0.25), ("hinge", 1.0, -1.0, 0.5),
        ("hinge", 1.0, -2.0, 0.5), ("hinge", 1.0, -0.5, 0.5),
        ("hinge", 2.0, -1.0, 0.25), ("hinge", 2.0, -1.0, 0.5),
        ("hinge", 2.0, -2.0, 1.0), ("hinge", 4.0, -1.0, 0.5),
        ("hinge", 1.0, -1.0, 2.0), ("hinge", 2.0, -1.0, 2.0),
        ("hinge", 4.0, -1.0, 2.0), ("hinge", 1.0, -1.0, 4.0),
        ("hinge", 2.0, -1.0, 4.0), ("hinge", 4.0, -1.0, 4.0),
        ("quasi01", 1.0, -1.0, 0.5), ("quasi01", 2.0, -1.0, 0.5),
        ("quasi01", 4.0, -1.0, 0.5), ("quasi01", 1.0, -1.0, 4.0),
        ("quasi01", 2.0, -1.0, 4.0), ("quasi01", 4.0, -1.0, 4.0),
    ]
    assert len(suite) == 20
    for loss_name, x, mu, sd in suite:
        loss = hinge() if loss_name == "hinge" else quasi01(0.5)
        cavity = DiagGaussian.from_mean_var([mu], [sd * sd])
        factor = single_example_factor(loss, [x])

        def kl_of(msg):
            return dense_kl_1d(
                lambda t: eval_log(cavity, t[:, None]),
                lambda t: factor.log_value_many(t[:, None]),
                lambda t: eval_log(msg, t[:, None]),
                center=mu, halfwidth=8.0 * sd, n=50_001)

        kl_vq = kl_of(approx_variational_quadrature(cavity, factor))
        kl_gq = kl_of(approx_gauss_quadrature(cavity, factor))
        assert kl_vq <= kl_gq
    assert time.perf_counter() - t0 < 30.0


def test_criterion_07_conjugate_fixed_point():
    """All-Gaussian problems, d <= 5: LA, QLA and VQ are stationary after a
    single sweep (message change < 1e-10) and the posterior equals the
    conjugate product to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for kind in ("la", "qla", "vq"):
        for _ in range(10):
            d = int(rng.integers(1, 6))
            prior = PriorFactor(variance=4.0)
            base = prior_as_message(prior, d)
            factors = []
            exact = base
            for _ in range(int(rng.integers(1, 5))):
                g = DiagGaussian.from_mean_var(
                    rng.uniform(-1.0, 1.0, size=d),
                    np.exp(rng.uniform(-0.5, 0.5, size=d)),
                    log_mass=float(rng.uniform(-1.0, 1.0)),
                )
                factors.append(GaussianFactor(g))
                exact = multiply(exact, g)

            # inner fits run well below the stationarity tolerance so the
            # comparison measures the scheme, not its stopping rule
            scheme = SchemeKind(kind=kind, newton_tol=1e-9, newton_max_iter=300)
            cfg = lambda n: EpConfig(scheme=scheme, loss=logistic(),
                                     prior=prior, n_sweeps=n)
            one, _ = ep_run_factors(factors, d, cfg(1))
            two, _ = ep_run_factors(factors, d, cfg(2))
            for k in range(len(factors)):
                m1, m2 = one.message(k), two.message(k)
                assert np.max(np.abs(m1.linear - m2.linear)) < 1e-10
                assert np.max(np.abs(m1.neg_half_precision
                                     - m2.neg_half_precision)) < 1e-10
            np.testing.assert_allclose(one.global_approx.linear, exact.linear,
                                       atol=1e-10)
            np.testing.assert_allclose(one.global_approx.neg_half_precision,
                                       exact.neg_half_precision, atol=1e-10)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_08_derivative_checks():
    """Loss derivatives and log-factor gradients/Hessian diagonals match
    central finite differences to 1e-4 at points kept clear of kinks."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    kinks = {"logistic": (), "hinge": (1.0,), "quasi01": (0.0, 0.1)}

    for loss in (logistic(), hinge(), quasi01(0.1)):
        a = rng.uniform(-3.0, 3.0, size=1000)
        for k in kinks[loss.name]:
            near = np.abs(a - k) < 2e-4
            a[near] = k + 3e-4
        h = 1e-5
        d1, d2 = loss_derivatives(loss, a)
        fd1 = (loss_value(loss, a + h) - loss_value(loss, a - h)) / (2 * h)
        fd2 = (loss_value(loss, a + h) - 2 * loss_value(loss, a)
               + loss_value(loss, a - h)) / (h * h)
        assert np.max(np.abs(d1 - fd1)) <= 1e-4
        assert np.max(np.abs(d2 - fd2)) <= 1e-4

    for loss in (logistic(), hinge(), quasi01(0.1)):
        checked = 0
        while checked < 50:
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            ds = Dataset(features=rng.normal(size=(n, d)),
                         labels=np.where(rng.normal(size=n) < 0, -1.0, 1.0))
            factor = BoundFactor(ds, np.arange(n), loss)
            theta = rng.uniform(-2.0, 2.0, size=d)
            margins = ds.labels * (ds.features @ theta)
            if any(np.min(np.abs(margins - k)) < 1e-2 for k in kinks[loss.name]):
                continue
            checked += 1
            grad, hd = factor.log_grad_hessdiag(theta)
            for i in range(d):
                e = np.zeros(d)
                e[i] = 1.0
                h = 1e-6
                fd_g = (factor.log_value(theta + h * e)
                        - factor.log_value(theta - h * e)) / (2 * h)
                assert abs(grad[i] - fd_g) <= 1e-4
                h = 1e-4
                fd_h = (factor.log_value(theta + h * e) - 2 * factor.log_value(theta)
                        + factor.log_value(theta - h * e)) / (h * h)
                assert abs(hd[i] - fd_h) <= 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_criterion_09a_vq_reaches_newton_reference(synthetic_dataset):
    """Five VQ sweeps land within 2% of the offline Newton logistic cost."""
    t0 = time.perf_counter()
    reference = total_cost(reference_newton_logistic(synthetic_dataset, PRIOR),
                           synthetic_dataset, logistic())
    state, trace = ep_on(synthetic_dataset, "vq", logistic())
    final = trace.records[-1].total_cost
    assert abs(final - reference) <= 0.02 * reference
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09b_vq_oscillation_under_one_percent(synthetic_dataset):
    """VQ's last-sweep cost range stays below 1% of the final cost on all
    three losses."""
    t0 = time.perf_counter()
    for loss in (logistic(), hinge(), quasi01(0.1)):
        _, trace = ep_on(synthetic_dataset, "vq", loss)
        final = trace.records[-1].total_cost
        last = trace.costs(sweep=4)
        assert last.size > 0
        assert float(last.max() - last.min()) < 0.01 * final
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09c_la_qla_reach_reference_on_logistic_and_hinge(synthetic_dataset):
    """LA and QLA within 2% of reference on logistic and hinge.

    Known to fail on hinge: with zero second derivatives the Taylor messages
    contribute no precision, so the posterior never tightens and large mean
    relays persist through the final sweep.
    """
    t0 = time.perf_counter()
    theta_log = reference_newton_logistic(synthetic_dataset, PRIOR)
    refs = {
        "logistic": total_cost(theta_log, synthetic_dataset, logistic()),
        "hinge": total_cost(
            reference_powell(synthetic_dataset, hinge(), theta_log, PRIOR).theta,
            synthetic_dataset, hinge()),
    }
    gaps = {}
    for loss in (logistic(), hinge()):
        for kind in ("la", "qla"):
            _, trace = ep_on(synthetic_dataset, kind, loss)
            final = trace.records[-1].total_cost
            gaps[(loss.name, kind)] = (final - refs[loss.name]) / refs[loss.name]
    assert time.perf_counter() - t0 < 120.0
    for key, gap in sorted(gaps.items()):
        print(f"criterion 9c gap {key[0]}/{key[1]}: {100 * gap:+.3f}%")
    assert all(abs(gap) <= 0.02 for gap in gaps.values()), gaps


def test_criterion_09d_gq_behavior_recorded(synthetic_dataset):
    """GQ runs are recorded (final cost, oscillation, failures), not asserted."""
    t0 = time.perf_counter()
    for loss in (logistic(), hinge(), quasi01(0.1)):
        state, trace = ep_on(synthetic_dataset, "gq", loss)
        final = trace.records[-1].total_cost
        last = trace.costs(sweep=4)
        failures = sum(r.update_status == "scheme_failed" for r in trace.records)
        print(f"criterion 9d gq/{loss.name}: final={final:.4f} "
              f"last_sweep_range={float(last.max() - last.min()):.4f} "
              f"scheme_failures={failures} rejected={sum(s.rejected for s in trace.sweeps)}")
        assert np.isfinite(final)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_la_slower_than_qla_per_minibatch(synthetic_dataset):
    """Median engine time per mini-batch visit: LA strictly above QLA for
    every loss (absolute times are environment-bound and only reported)."""
    t0 = time.perf_counter()
    for loss in (logistic(), hinge(), quasi01(0.1)):
        medians = {}
        for kind in ("la", "qla"):
            per_batch = []
            for _ in range(3):
                _, trace = ep_on(synthetic_dataset, kind, loss)
                per_batch.append(trace.total_ms / trace.n_visits)
            medians[kind] = float(np.median(per_batch))
        print(f"criterion 10 {loss.name}: la={medians['la']:.4f} ms "
              f"qla={medians['qla']:.4f} ms per mini-batch")
        assert medians["la"] > medians["qla"]
    assert time.perf_counter() - t0 < 180.0


def test_criterion_11_streaming_bit_identical(synthetic_dataset):
    """Streaming equals one looping sweep bit-for-bit for all four schemes."""
    t0 = time.perf_counter()
    for kind in ("la", "qla", "gq", "vq"):
        loop, _ = ep_on(synthetic_dataset, kind, logistic(), n_sweeps=1)
        stream, _ = ep_on(synthetic_dataset, kind, logistic(), mode="streaming")
        assert loop.global_approx.log_scale == stream.global_approx.log_scale
        assert np.array_equal(loop.global_approx.linear,
                              stream.global_approx.linear)
        assert np.array_equal(loop.global_approx.neg_half_precision,
                              stream.global_approx.neg_half_precision)
    assert time.perf_counter() - t0 < 60.0
