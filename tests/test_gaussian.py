"""Diagonal Gaussian algebra: representation, group laws, conversions."""

import numpy as np
import pytest

from ffep.gaussian import (
    DiagGaussian,
    ImproperGaussianError,
    MomentMatchError,
    divide,
    eval_log,
    moments_to_natural,
    multiply,
    natural_to_moments,
)

from oracles import dense_moments_1d


def standard_normal(d=1, log_mass=0.0):
    return DiagGaussian.from_mean_var(np.zeros(d), np.ones(d), log_mass=log_mass)


def random_proper(rng, d, log_var_range=(-6.0, 6.0), mean_scale=3.0, with_mass=True):
    var = np.exp(rng.uniform(*log_var_range, size=d))
    mean = rng.uniform(-mean_scale, mean_scale, size=d)
    log_mass = rng.uniform(-2.0, 2.0) if with_mass else 0.0
    return DiagGaussian.from_mean_var(mean, var, log_mass=log_mass)


def dyadic_message(rng, d):
    """A message whose natural parameters are small multiples of 1/8.

    Sums and differences of such values are exact in double precision, so
    group-law tests can demand bitwise equality.
    """
    draw = lambda: rng.integers(-32, 33, size=d) / 8.0
    return DiagGaussian(
        log_scale=float(rng.integers(-32, 33)) / 8.0,
        linear=draw(),
        neg_half_precision=draw(),
    )


class TestConstruction:
    def test_from_mean_var_round_trips_views(self):
        g = DiagGaussian.from_mean_var([1.0, -2.0], [0.5, 4.0])
        np.testing.assert_allclose(g.mean, [1.0, -2.0], rtol=1e-14)
        np.testing.assert_allclose(g.variance, [0.5, 4.0], rtol=1e-14)
        np.testing.assert_allclose(g.precision, [2.0, 0.25], rtol=1e-14)

    def test_unit_message_is_all_zero(self):
        u = DiagGaussian(0.0, np.zeros(3), np.zeros(3))
        assert u.log_scale == 0.0
        assert np.all(u.linear == 0.0) and np.all(u.neg_half_precision == 0.0)
        assert not u.is_proper

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DiagGaussian(log_scale=0.0, linear=np.zeros(2),
                         neg_half_precision=np.zeros(3))

    def test_improper_views_raise(self):
        message = DiagGaussian(log_scale=0.0, linear=np.array([1.0]),
                               neg_half_precision=np.array([0.5]))
        assert not message.is_proper
        with pytest.raises(ImproperGaussianError):
            message.mean
        with pytest.raises(ImproperGaussianError):
            message.variance


class TestMultiplyDivide:
    def test_unit_is_identity(self):
        g = standard_normal(2)
        out = multiply(DiagGaussian(0.0, np.zeros(2), np.zeros(2)), g)
        assert out.log_scale == g.log_scale
        np.testing.assert_array_equal(out.linear, g.linear)
        np.testing.assert_array_equal(out.neg_half_precision, g.neg_half_precision)

    def test_two_standard_normals_double_precision(self):
        out = multiply(standard_normal(3), standard_normal(3))
        np.testing.assert_allclose(out.precision, 2.0, rtol=1e-14)
        np.testing.assert_allclose(out.mean, 0.0, atol=1e-14)

    def test_divide_wider_gaussian_stays_proper(self):
        a = standard_normal(1)
        b = DiagGaussian.from_mean_var([0.0], [2.0])
        out = divide(a, b)
        assert out.is_proper
        np.testing.assert_allclose(out.precision, [0.5], rtol=1e-14)
        np.testing.assert_allclose(out.mean, [0.0], atol=1e-14)

    def test_self_quotient_is_unit(self):
        rng = np.random.default_rng(7)
        g = random_proper(rng, 4)
        out = divide(g, g)
        assert out.log_scale == 0.0
        assert np.all(out.linear == 0.0) and np.all(out.neg_half_precision == 0.0)

    def test_divide_narrower_gaussian_flags_improper(self):
        a = standard_normal(1)
        b = DiagGaussian.from_mean_var([0.0], [0.5])
        out = divide(a, b)
        assert not out.is_proper
        np.testing.assert_allclose(out.neg_half_precision, [0.5], rtol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiply(standard_normal(1), standard_normal(2))
        with pytest.raises(ValueError):
            divide(standard_normal(1), standard_normal(2))

    def test_group_laws_exact_on_dyadic_rationals(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            a, b, c = (dyadic_message(rng, d) for _ in range(3))
            ab_c = multiply(multiply(a, b), c)
            a_bc = multiply(a, multiply(b, c))
            for lhs, rhs in ((ab_c, a_bc), (multiply(a, b), multiply(b, a)),
                             (divide(multiply(a, b), b), a)):
                assert lhs.log_scale == rhs.log_scale
                np.testing.assert_array_equal(lhs.linear, rhs.linear)
                np.testing.assert_array_equal(lhs.neg_half_precision,
                                              rhs.neg_half_precision)


class TestMomentConversions:
    def test_standard_normal_moments(self):
        g = moments_to_natural(1.0, [0.0], [1.0])
        np.testing.assert_allclose(g.precision, [1.0], rtol=1e-14)
        np.testing.assert_allclose(g.linear, [0.0], atol=1e-14)
        np.testing.assert_allclose(g.log_mass, 0.0, atol=1e-14)

    def test_worked_scalar_example(self):
        g = moments_to_natural(2.0, [2.0], [3.0])
        np.testing.assert_allclose(g.mean, [1.0], rtol=1e-14)
        np.testing.assert_allclose(g.variance, [0.5], rtol=1e-14)
        np.testing.assert_allclose(np.exp(g.log_mass), 2.0, rtol=1e-14)

    def test_negative_second_moment_rejected(self):
        with pytest.raises(MomentMatchError):
            moments_to_natural(1.0, [0.0], [-0.1])

    @pytest.mark.parametrize("m2", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_variance_is_named_so(self, m2):
        with pytest.raises(MomentMatchError,
                           match=f"^coordinate 1 implies non-finite variance {m2:g}$"):
            moments_to_natural(1.0, [0.0, 0.0], [1.0, m2])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(MomentMatchError):
            moments_to_natural(0.0, [0.0], [1.0])

    def test_zero_variance_coordinate_reported(self):
        with pytest.raises(MomentMatchError) as err:
            moments_to_natural(1.0, [0.0, 1.0], [1.0, 1.0])
        assert err.value.coordinate == 1

    def test_mismatched_moment_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            moments_to_natural(1.0, [0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="equal-length"):
            moments_to_natural(1.0, [], [])

    def test_log_shifts_are_added_to_the_log_scale_in_turn(self):
        plain = moments_to_natural(2.0, [2.0, -1.0], [3.0, 4.0])
        shifted = moments_to_natural(2.0, [2.0, -1.0], [3.0, 4.0], log_shifts=(0.1, 0.7))
        # here the grouping shows in the last bit
        assert plain.log_scale + (0.1 + 0.7) != plain.log_scale + 0.1 + 0.7
        assert shifted.log_scale == plain.log_scale + 0.1 + 0.7
        np.testing.assert_array_equal(shifted.linear, plain.linear)
        np.testing.assert_array_equal(shifted.neg_half_precision,
                                      plain.neg_half_precision)

    def test_natural_to_moments_examples(self):
        m0, m1, m2 = natural_to_moments(standard_normal())
        np.testing.assert_allclose((m0, m1[0], m2[0]), (1.0, 0.0, 1.0),
                                   rtol=1e-14, atol=1e-14)
        g = DiagGaussian.from_mean_var([1.0], [0.5], log_mass=np.log(2.0))
        m0, m1, m2 = natural_to_moments(g)
        np.testing.assert_allclose((m0, m1[0], m2[0]), (2.0, 2.0, 3.0),
                                   rtol=1e-13)

    def test_natural_to_moments_requires_proper(self):
        message = DiagGaussian(log_scale=0.0, linear=np.array([0.0]),
                               neg_half_precision=np.array([0.0]))
        with pytest.raises(ImproperGaussianError):
            natural_to_moments(message)

    def test_round_trip_over_wide_scale_range(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            d = int(rng.integers(1, 51))
            g = random_proper(rng, d)
            back = moments_to_natural(*natural_to_moments(g))
            np.testing.assert_allclose(back.mean, g.mean, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(back.variance, g.variance, rtol=1e-10)
            np.testing.assert_allclose(back.log_mass, g.log_mass,
                                       rtol=1e-10, atol=1e-10)


class TestEvalLog:
    def test_unit_message_is_zero_everywhere(self):
        u = DiagGaussian(0.0, np.zeros(2), np.zeros(2))
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert eval_log(u, rng.normal(size=2)) == 0.0

    def test_log_scale_read_off_at_origin(self):
        g = DiagGaussian(log_scale=-0.5 * np.log(2.0 * np.pi),
                         linear=np.array([0.0]),
                         neg_half_precision=np.array([-0.5]))
        np.testing.assert_allclose(eval_log(g, np.array([0.0])),
                                   -0.5 * np.log(2.0 * np.pi), rtol=1e-15)

    def test_hand_worked_value(self):
        g = DiagGaussian(log_scale=0.0, linear=np.array([1.0]),
                         neg_half_precision=np.array([-0.5]))
        assert eval_log(g, np.array([2.0])) == pytest.approx(0.0, abs=1e-15)

    def test_mass_recovered_by_dense_integration(self):
        """Integrating exp(eval_log) over a d=1 Gaussian reproduces its mass."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_proper(rng, 1, log_var_range=(-2.0, 2.0))
            sd = float(np.sqrt(g.variance[0]))
            m0, _, _ = dense_moments_1d(
                lambda x, g=g: eval_log(g, x[:, None]),
                lambda x: np.zeros_like(x),
                center=float(g.mean[0]), halfwidth=10.0 * sd, n=20_001)
            np.testing.assert_allclose(m0, np.exp(g.log_mass), rtol=1e-6)
