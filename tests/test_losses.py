"""Per-example classification losses and their margin derivatives."""

import warnings

import numpy as np
import pytest

from ffep.losses import (
    LossKind,
    hinge,
    logistic,
    loss_derivatives,
    loss_value,
    loss_from_name,
    loss_kinks,
    loss_slope,
    loss_terms,
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

    def test_logistic_matches_logaddexp(self):
        rng = np.random.default_rng(2)
        a = np.concatenate([rng.uniform(-800.0, 800.0, size=1_000_000),
                            rng.uniform(-10.0, 10.0, size=100_000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loss_value(logistic(), a)
        with np.errstate(all="ignore"):
            ref = np.logaddexp(0.0, -a)
        normal = ref >= np.finfo(float).tiny
        assert np.max(np.abs(got - ref)[normal] / ref[normal]) <= 5e-16
        # below the normal range a last-bit difference is a large relative
        # one, so there the bound is one unit in the last place
        assert np.all(np.abs(got - ref)[~normal] <= np.spacing(ref[~normal]))

    def test_logistic_special_values_match_logaddexp(self):
        a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0,
                      1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loss_value(logistic(), a)
        with np.errstate(all="ignore"):
            ref = np.logaddexp(0.0, -a)
        np.testing.assert_array_equal(got, ref)
        assert got[0] == np.log(2.0)

    def test_quasi01_with_unit_epsilon_equals_hinge(self):
        rng = np.random.default_rng(1)
        kinks = np.array([0.0, 1.0])
        a = np.concatenate([rng.uniform(-5.0, 5.0, size=2000), kinks, -kinks,
                            np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf)])
        np.testing.assert_allclose(loss_value(quasi01(1.0), a),
                                   loss_value(hinge(), a), rtol=0, atol=1e-15)
        # the derivatives bit for bit, at both kinks and beside them too
        for got, want in zip(loss_derivatives(quasi01(1.0), a), loss_derivatives(hinge(), a)):
            assert got.tobytes() == want.tobytes()


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
        assert d1_at_zero == -(0.1 + 10.0) / 2.0
        assert d2_at_zero == 0.0
        assert loss_derivatives(kind, 0.1)[0] == -5.0

    def test_quasi01_branches(self):
        kind = quasi01(0.1)
        assert loss_derivatives(kind, -2.0)[0] == -0.1
        assert loss_derivatives(kind, 0.05)[0] == -10.0
        assert loss_derivatives(kind, 0.5)[0] == 0.0

    def test_half_sum_applies_only_at_exact_equality(self):
        below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        assert loss_derivatives(hinge(), below)[0] == -1.0
        assert loss_derivatives(hinge(), above)[0] == 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.5, 3.0])
    def test_quasi01_half_sum_applies_only_at_exact_equality(self, eps):
        kind = quasi01(eps)
        for kink, left, right in ((0.0, -eps, -1.0 / eps), (eps, -1.0 / eps, 0.0)):
            below, above = np.nextafter(kink, -np.inf), np.nextafter(kink, np.inf)
            assert loss_derivatives(kind, below)[0] == left
            assert loss_derivatives(kind, kink)[0] == (left + right) / 2.0
            assert loss_derivatives(kind, above)[0] == right
        assert loss_derivatives(kind, -0.0)[0] == loss_derivatives(kind, 0.0)[0]

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


class TestKinkTable:
    def test_kinks_are_the_ones_the_sweeps_avoid(self):
        for kind in ALL_KINDS:
            table = loss_kinks(kind)
            kinks = () if table is None else tuple(table[0])
            assert kinks == KINKS[kind.name]

    @pytest.mark.parametrize("kind", [hinge(), quasi01(0.1), quasi01(0.5)],
                             ids=["hinge", "quasi01_0.1", "quasi01_0.5"])
    def test_slopes_match_one_sided_differences(self, kind):
        kinks, slopes = loss_kinks(kind)
        assert slopes.size == kinks.size + 1 and np.all(np.diff(kinks) > 0)
        h = 1e-6

        def slope_left_of(a):
            return (loss_value(kind, a) - loss_value(kind, a - h)) / h

        def slope_right_of(a):
            return (loss_value(kind, a + h) - loss_value(kind, a)) / h

        # every segment's slope, at both of its ends and far past the last kink
        assert slope_left_of(kinks[0] - 5.0) == pytest.approx(slopes[0], rel=1e-6)
        for j, kink in enumerate(kinks):
            assert slope_left_of(kink) == pytest.approx(slopes[j], rel=1e-6)
            assert slope_right_of(kink) == pytest.approx(slopes[j + 1], abs=1e-6)
        assert slope_right_of(kinks[-1] + 5.0) == pytest.approx(slopes[-1], abs=1e-6)

    @pytest.mark.parametrize("kind", [hinge(), quasi01(0.1), quasi01(0.5)],
                             ids=["hinge", "quasi01_0.1", "quasi01_0.5"])
    def test_table_is_built_once_and_read_only(self, kind):
        first, again = loss_kinks(kind), loss_kinks(LossKind(kind.name, kind.epsilon))
        for built, served in zip(first, again):
            assert served is built
            assert not built.flags.writeable
            with pytest.raises(ValueError):
                built[0] = 2.0


    @pytest.mark.parametrize("kind", [hinge(), quasi01(0.1), quasi01(0.5)],
                             ids=["hinge", "quasi01_0.1", "quasi01_0.5"])
    def test_line_search_constants_are_derived_once(self, kind):
        table = loss_kinks(kind)
        slopes = table[1]
        assert table.left_slope == slopes[0]
        np.testing.assert_array_equal(table.jumps, slopes[1:] - slopes[:-1])
        assert table.jump_sum == table.jumps.sum()
        assert loss_kinks(LossKind(kind.name, kind.epsilon)).jumps is table.jumps
        with pytest.raises(ValueError):
            table.jumps[0] = 2.0


def scored_margins(rng):
    """Random margins plus exp's +/-745 underflow, signed zeros and every kink
    with its float neighbours."""
    kinks = np.array([0.0, 0.1, 0.5, 1.0])
    return np.concatenate([rng.normal(scale=5.0, size=200), [-800.0, -745.5, 745.5, 800.0, -0.0],
                           kinks, np.nextafter(kinks, -1.0), np.nextafter(kinks, 2.0)])


class TestScoredTerms:
    """loss_terms scores margins once; loss_derivatives reuses its tail."""

    @pytest.mark.parametrize("kind", [logistic(), hinge(), quasi01(0.1), quasi01(0.5)],
                             ids=lambda k: f"{k.name}_{k.epsilon}")
    def test_terms_are_loss_value_bit_for_bit(self, kind):
        a = scored_margins(np.random.default_rng(40))
        values, tail = loss_terms(kind, a)
        assert values.tobytes() == loss_value(kind, a).tobytes()
        if kind.name == "logistic":
            assert tail.tobytes() == np.exp(-np.abs(a)).tobytes()
        else:
            assert tail is None

    def test_logistic_derivatives_from_the_tail_are_bit_for_bit(self):
        a = scored_margins(np.random.default_rng(41))
        # the sigmoid pair written out from one exp(-|a|)
        t = np.exp(-np.abs(a))
        r = 1.0 / (1.0 + t)
        expected = np.where(a < 0, -r, -t * r), r * (t * r)
        for d, e in zip(loss_derivatives(logistic(), a, loss_terms(logistic(), a)[1]), expected):
            assert d.tobytes() == e.tobytes()
        for d, e in zip(loss_derivatives(logistic(), a), expected):
            assert d.tobytes() == e.tobytes()

    @pytest.mark.parametrize("kind", [hinge(), quasi01(0.1), quasi01(0.5)],
                             ids=["hinge", "quasi01_0.1", "quasi01_0.5"])
    def test_slope_is_the_first_derivative(self, kind):
        a = scored_margins(np.random.default_rng(42))
        d1, d2 = loss_derivatives(kind, a)
        assert loss_slope(kind, a).tobytes() == d1.tobytes()
        assert loss_slope(kind, 1.0) == loss_derivatives(kind, 1.0)[0]
        assert not d2.any()


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

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="quasi01 epsilon must be positive and finite"):
            quasi01(epsilon)
