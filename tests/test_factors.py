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
from ffep.ingest import Dataset, partition
from ffep.losses import hinge, logistic, loss_derivatives, loss_value, quasi01
from ffep.schemes import build_rule


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

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            BoundFactor(toy_dataset(), batch=[0], loss=hinge(), beta=beta)


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


def bits(*arrays):
    """The bytes of each array, so that == compares every bit, signs of zero too."""
    return [np.asarray(a).tobytes() for a in arrays]


# margins past exp's +/-745 underflow, signed zeros, and both quasi 0-1
# (epsilon 0.1) kinks and the hinge kink with their float neighbours
EDGE_KINKS = np.array([0.0, 0.1, 1.0])
EDGE_MARGINS = np.concatenate([
    [-800.0, -746.0, -745.5, 745.5, 746.0, 800.0, 0.0, -0.0, -3.7, 2.2],
    EDGE_KINKS, np.nextafter(EDGE_KINKS, -np.inf), np.nextafter(EDGE_KINKS, np.inf)])
KEPT_LOSSES = [logistic(), hinge(), quasi01(0.1)]


class TestKeptMargins:
    """log_grad_hessdiag at the point log_value last scored reuses its margins."""

    @pytest.mark.parametrize("loss", KEPT_LOSSES, ids=lambda k: k.name)
    def test_reused_derivatives_are_a_fresh_factors_bit_for_bit(self, loss, margin_passes):
        rng = np.random.default_rng(12)
        labels = np.where(rng.random(EDGE_MARGINS.size) < 0.5, -1.0, 1.0)
        edge = Dataset(features=(labels * EDGE_MARGINS)[:, None], labels=labels)
        wide = toy_dataset(rng, n=40, d=3)
        for ds, theta in ((edge, np.ones(1)), (wide, 300.0 * rng.normal(size=3))):
            batch = np.arange(ds.n_examples)
            scored = BoundFactor(ds, batch, loss, beta=1.5)
            value = scored.log_value(theta)
            assert value == -1.5 * float(loss_value(loss, ds.signed_rows @ theta).sum())
            del margin_passes[:]
            kept = scored.log_grad_hessdiag(theta)
            assert margin_passes == []  # no Z @ theta: derived from the kept margins
            fresh = BoundFactor(ds, batch, loss, beta=1.5).log_grad_hessdiag(theta)
            assert len(margin_passes) == 1
            assert bits(*kept) == bits(*fresh)

    def test_a_point_changed_after_scoring_is_evaluated_afresh(self, margin_passes):
        ds = toy_dataset(np.random.default_rng(13))
        factor = BoundFactor(ds, np.arange(12), logistic())

        def fresh(theta):
            return bits(*BoundFactor(ds, np.arange(12), logistic()).log_grad_hessdiag(theta))

        theta = np.array([0.3, -1.2, 0.7])
        factor.log_value(theta)
        theta[1] = 2.5  # changed in place
        del margin_passes[:]
        assert bits(*factor.log_grad_hessdiag(theta)) == fresh(theta.copy())
        assert len(margin_passes) == 2  # the factor's own pass and the fresh factor's

        base = np.array([0.3, -1.2, 0.7])
        view = base[:]
        view.flags.writeable = False
        factor.log_value(view)
        base[0] = -4.0  # a read-only view whose base changed
        assert bits(*factor.log_grad_hessdiag(view)) == fresh(base.copy())

        factor.log_value(theta)
        del margin_passes[:]
        factor.log_grad_hessdiag(theta.copy())  # equal values, another array
        assert len(margin_passes) == 1

    def test_log_value_many_keeps_nothing(self, margin_passes):
        ds = toy_dataset(np.random.default_rng(14))
        factor = BoundFactor(ds, np.arange(12), logistic())
        thetas = np.random.default_rng(15).normal(size=(4, 3))
        point = thetas[0]
        factor.log_value(point)
        factor.log_value_many(thetas)
        del margin_passes[:]
        factor.log_grad_hessdiag(point)
        assert margin_passes == []  # still the point log_value scored
        factor.log_grad_hessdiag(thetas[1])
        assert len(margin_passes) == 1


def random_cavity(rng, d):
    return DiagGaussian.from_mean_var(rng.normal(size=d), np.exp(rng.uniform(-1.5, 1.5, size=d)))


def with_zero_column(ds):
    """The dataset with its second feature column set to zero."""
    features = ds.features.copy()
    features[:, 1] = 0.0
    return Dataset(features=features, labels=ds.labels)


def assert_axes_match_rule(factor, cavity, scale):
    """log_value_axes at the cavity mean and gamma*sigma agrees with
    log_value_many at the sigma-point rule's 2d+1 points, to 1e-12 of
    ``scale`` (the size of the sums the values are made of)."""
    rule = build_rule(cavity)
    d = cavity.dim
    logf = factor.log_value_many(rule.points)
    l0, lp, lm = factor.log_value_axes(cavity.mean, rule.gamma * np.sqrt(cavity.variance))
    assert lp.shape == lm.shape == (d,)
    np.testing.assert_allclose(np.concatenate(([l0], lp, lm)), logf, rtol=1e-12,
                               atol=1e-12 * scale)


class TestLogValueAxes:
    """The 2d+1 log-values vq reads: the center and one +/- spoke per axis."""

    @pytest.mark.parametrize("loss", KEPT_LOSSES, ids=lambda k: k.name)
    @pytest.mark.parametrize("beta", [1.0, 50.0])
    def test_matches_the_rule_points(self, loss, beta):
        rng = np.random.default_rng(20)
        wide = toy_dataset(rng, n=12, d=5)
        zero_column = with_zero_column(toy_dataset(rng, n=7, d=3))
        cases = [(wide, batch) for batch in partition(wide, 5)]  # the last has 2 rows
        cases += [(wide, np.array([3])),  # s = 1
                  (toy_dataset(rng, n=6, d=1), np.arange(6)),  # d = 1
                  (zero_column, np.arange(7))]
        for ds, batch in cases:
            factor = BoundFactor(ds, batch, loss, beta=beta)
            cavity = random_cavity(rng, ds.dim)
            scale = beta * (len(batch) + np.abs(factor.Z).sum() * (
                np.abs(cavity.mean).max() + 3.0 * np.sqrt(cavity.variance).max()))
            assert_axes_match_rule(factor, cavity, scale)

    def test_a_zero_column_moves_no_margin(self):
        ds = with_zero_column(toy_dataset(np.random.default_rng(21), n=7, d=3))
        factor = BoundFactor(ds, np.arange(7), logistic())
        l0, lp, lm = factor.log_value_axes(np.array([0.2, -0.4, 0.9]), np.array([1.0, 2.0, 0.5]))
        assert lp[1] == lm[1] == l0

    def test_gaussian_closed_form_matches_the_rule_points(self):
        rng = np.random.default_rng(22)
        for d in (1, 3, 8):
            for _ in range(10):
                cavity = random_cavity(rng, d)
                g = DiagGaussian.from_mean_var(rng.normal(size=d),
                                               np.exp(rng.uniform(-1.0, 1.0, size=d)),
                                               log_mass=float(rng.uniform(-1.0, 1.0)))
                logf = GaussianFactor(g).log_value_many(build_rule(cavity).points)
                assert_axes_match_rule(GaussianFactor(g), cavity, np.abs(logf).max())

    def test_keeps_nothing(self, margin_passes):
        ds = toy_dataset(np.random.default_rng(23))
        factor = BoundFactor(ds, np.arange(12), logistic())
        point = np.array([0.3, -1.2, 0.7])
        factor.log_value(point)
        scored = factor._scored
        factor.log_value_axes(point, np.ones(3))
        assert factor._scored is scored
        del margin_passes[:]
        factor.log_grad_hessdiag(point)
        assert margin_passes == []  # still the point log_value scored


class TestSignedRows:
    """Every factor's Z reads the dataset's one table of rows y_k x_k."""

    def test_table_is_formed_once_and_read_only(self):
        ds = toy_dataset(np.random.default_rng(16))
        rows = ds.signed_rows
        assert ds.signed_rows is rows and not rows.flags.writeable
        assert bits(rows) == bits(ds.labels[:, None] * ds.features)

    @pytest.mark.parametrize("s", [1, 5, 12])
    def test_partition_batches_are_row_views(self, s):
        ds = toy_dataset(np.random.default_rng(17))
        for batch in partition(ds, s):
            factor = BoundFactor(ds, batch, hinge())
            assert factor.Z.base is ds.signed_rows
            assert bits(factor.Z) == bits(ds.labels[batch, None] * ds.features[batch])

    @pytest.mark.parametrize("batch", [[4, 0, 2], [2, 2, 3], [-2, -1], [], [3, 5]])
    def test_other_batches_are_copies(self, batch):
        ds = toy_dataset(np.random.default_rng(18))
        factor = BoundFactor(ds, batch, hinge())
        assert not np.shares_memory(factor.Z, ds.signed_rows)
        assert factor.Z.shape == (len(batch), ds.dim)
        assert bits(factor.Z) == bits(ds.labels[batch, None] * ds.features[batch])

    def test_a_batch_past_the_last_row_raises(self):
        ds = toy_dataset(np.random.default_rng(19))
        with pytest.raises(IndexError):
            BoundFactor(ds, [10, 11, 12], hinge())


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

    @pytest.mark.parametrize("variance", [np.inf, np.nan])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="prior variance must be positive and finite"):
            PriorFactor(variance=variance)
