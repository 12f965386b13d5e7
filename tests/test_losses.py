"""Per-example classification losses and their margin derivatives."""

import numpy as np
import pytest

from ffep.losses import (
    LossKind,
    hinge,
    logistic,
    loss_derivatives,
    loss_value,
    loss_from_name,
    quasi01,
)

ALL_KINDS = (logistic(), hinge(), quasi01())

# Kink locations of the piecewise losses; random margins in the derivative
# sweeps must keep clear of these.
KINKS = {"logistic": (), "hinge": (1.0,), "quasi01": (0.0, 0.1)}


def margins_away_from_kinks(rng, kind, n, span=6.0, clearance=1e-3):
    a = rng.uniform(-span, span, size=n)
    for k in KINKS[kind.name]:
        a[np.abs(a - k) < clearance] = k + 2.0 * clearance
    return a


class TestValues:
    def test_logistic_at_zero(self):
        assert loss_value(logistic(), 0.0) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_hinge_examples(self):
        assert loss_value(hinge(), 1.0) == 0.0
        assert loss_value(hinge(), 0.5) == 0.5
        assert loss_value(hinge(), 2.0) == 0.0

    def test_quasi01_branch_examples(self):
        kind = quasi01(0.1)
        assert loss_value(kind, -1.0) == pytest.approx(1.1, rel=1e-14)
        assert loss_value(kind, 0.05) == pytest.approx(0.5, rel=1e-14)
        assert loss_value(kind, 0.2) == 0.0

    def test_values_vectorize(self):
        a = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        for kind in ALL_KINDS:
            vec = loss_value(kind, a)
            ref = [loss_value(kind, float(x)) for x in a]
            np.testing.assert_allclose(vec, ref, rtol=1e-15)

    def test_logistic_overflow_safe(self):
        big = 1.0e6
        assert loss_value(logistic(), -big) == pytest.approx(big, rel=1e-12)
        assert loss_value(logistic(), big) == 0.0
        assert np.isfinite(loss_value(logistic(), -1e300))

    def test_quasi01_with_unit_epsilon_equals_hinge(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-5.0, 5.0, size=2000)
        np.testing.assert_allclose(loss_value(quasi01(1.0), a),
                                   loss_value(hinge(), a), rtol=0, atol=1e-15)


class TestDerivatives:
    def test_logistic_at_zero(self):
        d1, d2 = loss_derivatives(logistic(), 0.0)
        assert d1 == pytest.approx(-0.5, rel=1e-14)
        assert d2 == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_logistic_tails_without_overflow(self):
        a = np.array([-800.0, -40.0, 40.0, 800.0])
        d1, d2 = loss_derivatives(logistic(), a)
        tail = np.exp(-40.0)
        np.testing.assert_allclose(d1, [-1.0, -1.0 / (1.0 + tail), -tail / (1.0 + tail), 0.0],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(d2, [0.0, tail / (1.0 + tail) ** 2,
                                        tail / (1.0 + tail) ** 2, 0.0], rtol=1e-15, atol=0)

    def test_hinge_half_sum_at_kink(self):
        d1, d2 = loss_derivatives(hinge(), 1.0)
        assert d1 == -0.5 and d2 == 0.0

    def test_hinge_branches(self):
        assert loss_derivatives(hinge(), 0.0)[0] == -1.0
        assert loss_derivatives(hinge(), 2.0)[0] == 0.0

    def test_quasi01_half_sums_at_kinks(self):
        kind = quasi01(0.1)
        d1_at_zero, d2_at_zero = loss_derivatives(kind, 0.0)
        assert d1_at_zero == pytest.approx(-(0.1 + 10.0) / 2.0, rel=1e-14)
        assert d2_at_zero == 0.0
        assert loss_derivatives(kind, 0.1)[0] == pytest.approx(-5.0, rel=1e-14)

    def test_quasi01_branches(self):
        kind = quasi01(0.1)
        assert loss_derivatives(kind, -2.0)[0] == pytest.approx(-0.1, rel=1e-14)
        assert loss_derivatives(kind, 0.05)[0] == pytest.approx(-10.0, rel=1e-14)
        assert loss_derivatives(kind, 0.5)[0] == 0.0

    def test_half_sum_applies_only_at_exact_equality(self):
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        assert loss_derivatives(hinge(), below)[0] == -1.0
        assert loss_derivatives(hinge(), above)[0] == 0.0

    def test_piecewise_linear_losses_have_zero_curvature(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-10.0, 10.0, size=1000)
        for kind in (hinge(), quasi01(), quasi01(0.5)):
            _, d2 = loss_derivatives(kind, a)
            assert np.all(np.asarray(d2) == 0.0)

    def test_first_derivative_matches_central_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for kind in ALL_KINDS:
            a = margins_away_from_kinks(rng, kind, 1000)
            d1, _ = loss_derivatives(kind, a)
            fd = (loss_value(kind, a + h) - loss_value(kind, a - h)) / (2.0 * h)
            np.testing.assert_allclose(d1, fd, atol=1e-4)

    def test_second_derivative_matches_differences_of_first(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for kind in ALL_KINDS:
            a = margins_away_from_kinks(rng, kind, 1000)
            _, d2 = loss_derivatives(kind, a)
            fd = (loss_derivatives(kind, a + h)[0]
                  - loss_derivatives(kind, a - h)[0]) / (2.0 * h)
            np.testing.assert_allclose(d2, fd, atol=1e-4)


class TestSelection:
    def test_names_round_trip(self):
        assert loss_from_name("logistic") == logistic()
        assert loss_from_name("hinge") == hinge()
        assert loss_from_name("quasi01") == quasi01(0.1)
        assert loss_from_name("quasi01", epsilon=0.3) == quasi01(0.3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            loss_from_name("ramp")

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            quasi01(0.0)
        with pytest.raises(ValueError):
            LossKind(name="quasi01", epsilon=-1.0)
