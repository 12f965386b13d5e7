"""Mini-batch Boltzmann factors: log-values, derivatives, and the prior."""

import numpy as np
import pytest

from ffep.factors import (
    BoundFactor,
    GaussianFactor,
    PriorFactor,
    prior_as_message,
)
from ffep.gaussian import DiagGaussian, eval_log
from ffep.ingest import Dataset
from ffep.losses import hinge, logistic, loss_derivatives, loss_value, quasi01


def log_factor(factor, theta):
    """-beta * (summed batch loss) at theta; never exponentiated here."""
    return factor.log_value(np.asarray(theta, dtype=float))


def log_factor_grad_hessdiag(factor, theta):
    """Gradient and Hessian diagonal of the log-factor at theta."""
    return factor.log_grad_hessdiag(np.asarray(theta, dtype=float))


def toy_dataset(rng=None, n=12, d=3):
    rng = rng or np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    y = np.sign(rng.normal(size=n))
    y[y == 0] = 1.0
    return Dataset(features=X, labels=y)


class TestLogFactor:
    def test_logistic_batch_at_origin(self):
        ds = toy_dataset(n=10)
        factor = BoundFactor(ds, batch=np.arange(10), loss=logistic())
        value = log_factor(factor, np.zeros(ds.dim))
        assert value == pytest.approx(-10.0 * np.log(2.0), rel=1e-12)

    def test_empty_batch_is_zero(self):
        ds = toy_dataset()
        factor = BoundFactor(ds, batch=np.array([], dtype=int), loss=hinge())
        assert log_factor(factor, np.ones(ds.dim)) == 0.0

    def test_beta_two_hinge_single_example(self):
        ds = Dataset(features=np.array([[0.5]]), labels=np.array([1.0]))
        factor = BoundFactor(ds, batch=[0], loss=hinge(), beta=2.0)
        assert log_factor(factor, np.array([1.0])) == pytest.approx(-1.0)

    def test_additive_over_singletons(self):
        rng = np.random.default_rng(1)
        ds = toy_dataset(rng)
        theta = rng.normal(size=ds.dim)
        for loss in (logistic(), hinge(), quasi01()):
            whole = log_factor(BoundFactor(ds, np.arange(12), loss), theta)
            parts = sum(log_factor(BoundFactor(ds, [k], loss), theta)
                        for k in range(12))
            assert whole == pytest.approx(parts, abs=1e-12)

    def test_beta_scales_everything_linearly(self):
        rng = np.random.default_rng(2)
        ds = toy_dataset(rng)
        theta = rng.normal(size=ds.dim)
        one = BoundFactor(ds, np.arange(12), logistic(), beta=1.0)
        two = BoundFactor(ds, np.arange(12), logistic(), beta=2.0)
        assert log_factor(two, theta) == pytest.approx(
            2.0 * log_factor(one, theta), rel=1e-14)
        g1, h1 = log_factor_grad_hessdiag(one, theta)
        g2, h2 = log_factor_grad_hessdiag(two, theta)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-14)
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-14)

    def test_finite_for_extreme_parameters(self):
        ds = toy_dataset()
        factor = BoundFactor(ds, np.arange(12), logistic())
        for scale in (1e2, 1e3):
            theta = np.full(ds.dim, scale)
            assert np.isfinite(log_factor(factor, theta))
            assert np.isfinite(log_factor(factor, -theta))

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            BoundFactor(toy_dataset(), batch=[0], loss=hinge(), beta=0.0)


class TestDerivatives:
    def test_single_logistic_example_worked_values(self):
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        factor = BoundFactor(ds, batch=[0], loss=logistic())
        grad, hessdiag = log_factor_grad_hessdiag(factor, np.zeros(2))
        np.testing.assert_allclose(grad, [0.5, 0.0], rtol=1e-14)
        np.testing.assert_allclose(hessdiag, [-0.25, 0.0], rtol=1e-14)

    def test_hinge_kink_uses_half_sum(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        factor = BoundFactor(ds, batch=[0], loss=hinge())
        grad, _ = log_factor_grad_hessdiag(factor, np.array([1.0]))
        np.testing.assert_allclose(grad, [0.5], rtol=1e-14)

    def test_piecewise_linear_losses_have_zero_hessdiag(self):
        rng = np.random.default_rng(3)
        ds = toy_dataset(rng)
        theta = rng.normal(size=ds.dim)
        for loss in (hinge(), quasi01()):
            _, hessdiag = log_factor_grad_hessdiag(
                BoundFactor(ds, np.arange(12), loss), theta)
            np.testing.assert_array_equal(hessdiag, 0.0)

    def test_kinked_curvature_is_exactly_zero_without_forming_it(self):
        # the gradient is the free functions' -beta * Z^T d1, bit for bit, and
        # the curvature +0.0 everywhere, kinks included
        rng = np.random.default_rng(8)
        ds = toy_dataset(rng)
        Z = ds.labels[:, None] * ds.features
        for loss in (hinge(), quasi01(), quasi01(0.5)):
            factor = BoundFactor(ds, np.arange(12), loss, beta=1.5)
            for theta in (rng.normal(size=ds.dim), np.zeros(ds.dim)):
                grad, hessdiag = log_factor_grad_hessdiag(factor, theta)
                d1, _ = loss_derivatives(loss, Z @ theta)
                np.testing.assert_array_equal(grad, -1.5 * (Z.T @ d1))
                assert hessdiag.shape == (ds.dim,)
                assert not hessdiag.any() and not np.signbit(hessdiag).any()

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng)
        factor = BoundFactor(ds, np.arange(12), logistic())
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(-2.0, 2.0, size=ds.dim)
            grad, _ = log_factor_grad_hessdiag(factor, theta)
            for i in range(ds.dim):
                e = np.zeros(ds.dim)
                e[i] = h
                fd = (log_factor(factor, theta + e)
                      - log_factor(factor, theta - e)) / (2.0 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-4)

    def test_hessdiag_matches_differences_of_gradient(self):
        rng = np.random.default_rng(5)
        ds = toy_dataset(rng)
        factor = BoundFactor(ds, np.arange(12), logistic())
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(-2.0, 2.0, size=ds.dim)
            _, hessdiag = log_factor_grad_hessdiag(factor, theta)
            for i in range(ds.dim):
                e = np.zeros(ds.dim)
                e[i] = h
                fd = (log_factor_grad_hessdiag(factor, theta + e)[0][i]
                      - log_factor_grad_hessdiag(factor, theta - e)[0][i]) / (2.0 * h)
                assert hessdiag[i] == pytest.approx(fd, abs=1e-4)


class TestBoundFactor:
    def test_matches_free_functions(self):
        # the module docstring's formulas, written per example from the losses
        rng = np.random.default_rng(6)
        ds = toy_dataset(rng)
        batch = np.array([4, 0, 2, 2, 9])
        bound = BoundFactor(ds, batch, logistic(), beta=1.5)
        theta = rng.normal(size=ds.dim)
        X, y = ds.features[batch], ds.labels[batch]
        a = y * (X @ theta)
        d1, d2 = loss_derivatives(logistic(), a)
        assert bound.log_value(theta) == pytest.approx(
            -1.5 * loss_value(logistic(), a).sum(), rel=1e-14)
        g_bound, h_bound = bound.log_grad_hessdiag(theta)
        np.testing.assert_allclose(g_bound, -1.5 * (d1 * y) @ X, rtol=1e-14)
        np.testing.assert_allclose(h_bound, -1.5 * d2 @ (X * X), rtol=1e-14)

    def test_batch_is_a_flat_index_array(self):
        rng = np.random.default_rng(9)
        ds = toy_dataset(rng)
        theta = rng.normal(size=ds.dim)
        nested = BoundFactor(ds, [[1, 3], [5, 7]], hinge())
        flat = BoundFactor(ds, np.array([1.0, 3.0, 5.0, 7.0]), hinge())
        np.testing.assert_array_equal(nested.Z, flat.Z)
        assert nested.log_value(theta) == flat.log_value(theta)

    def test_batched_evaluation_agrees_pointwise(self):
        rng = np.random.default_rng(7)
        ds = toy_dataset(rng)
        bound = BoundFactor(ds, np.arange(12), quasi01())
        thetas = rng.normal(size=(9, ds.dim))
        many = bound.log_value_many(thetas)
        each = [bound.log_value(t) for t in thetas]
        np.testing.assert_allclose(many, each, rtol=1e-14)


class TestGaussianFactor:
    def test_log_value_is_eval_log(self):
        rng = np.random.default_rng(8)
        g = DiagGaussian.from_mean_var([1.0, -1.0], [0.5, 2.0], log_mass=0.3)
        factor = GaussianFactor(g)
        for _ in range(10):
            theta = rng.normal(size=2)
            assert factor.log_value(theta) == eval_log(g, theta)

    def test_derivatives_of_quadratic_log(self):
        g = DiagGaussian.from_mean_var([2.0], [4.0])
        factor = GaussianFactor(g)
        theta = np.array([1.0])
        grad, hessdiag = factor.log_grad_hessdiag(theta)
        np.testing.assert_allclose(grad, [(2.0 - 1.0) / 4.0], rtol=1e-14)
        np.testing.assert_allclose(hessdiag, [-0.25], rtol=1e-14)


class TestPrior:
    def test_default_prior_message(self):
        msg = prior_as_message(PriorFactor(), 4)
        np.testing.assert_allclose(msg.neg_half_precision, -0.02, rtol=1e-14)
        np.testing.assert_allclose(msg.mean, 0.0, atol=1e-14)
        assert msg.log_mass == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance_prior_is_standard_normal(self):
        msg = prior_as_message(PriorFactor(variance=1.0), 2)
        np.testing.assert_allclose(msg.precision, 1.0, rtol=1e-14)
        np.testing.assert_allclose(msg.mean, 0.0, atol=1e-14)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            PriorFactor(variance=0.0)
