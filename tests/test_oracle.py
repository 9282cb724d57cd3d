"""Tests for exact tail probabilities: quadrature, sampling, and inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbound import (
    ALL_EXCEED,
    FUNGIBLE,
    ORTHANT,
    UNION,
    GaussianModel,
    TailQuery,
    bivariate_joint_tail,
    covariance_factor,
    event_mask,
    invert_joint_tail,
    joint_tail_monte_carlo,
    normal_upper_tail,
    normal_upper_tail_inverse,
)

from stockbound import oracle
from stockbound.oracle import QUADRATURE_TARGET

from oracles import (
    density_joint_tail,
    event_mask_reference,
    mpmath_joint_tail,
    quad_normal_upper_tail,
    sample_bivariate_exceed,
)


class TestNormalTail:
    def test_median(self):
        assert normal_upper_tail(0.0) == 0.5

    def test_five_percent_point(self):
        assert normal_upper_tail(1.6448536269514722) == pytest.approx(0.05, abs=1e-9)
        assert normal_upper_tail(1.6448536269514722) == pytest.approx(
            quad_normal_upper_tail(1.6448536269514722), abs=1e-12
        )

    def test_matches_quadrature_on_a_grid(self):
        for k in (-2.5, -1.0, 0.3, 1.0, 2.0, 4.0, 7.0):
            assert normal_upper_tail(k) == pytest.approx(quad_normal_upper_tail(k), rel=1e-10)

    def test_extreme_arguments(self):
        assert normal_upper_tail(40.0) <= 1e-300
        assert normal_upper_tail(-40.0) == 1.0

    def test_inverse_median(self):
        assert normal_upper_tail_inverse(0.5) == 0.0

    def test_inverse_five_percent(self):
        assert normal_upper_tail_inverse(0.05) == pytest.approx(1.6448536269514722, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 2.0])
    def test_inverse_domain(self, delta):
        with pytest.raises(ValueError, match="strictly between"):
            normal_upper_tail_inverse(delta)

    @settings(max_examples=80, deadline=None)
    @given(delta=st.floats(1e-4, 0.4))
    def test_roundtrip(self, delta):
        assert normal_upper_tail(normal_upper_tail_inverse(delta)) == pytest.approx(
            delta, abs=1e-10
        )


class TestTailQuery:
    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            TailQuery(math.inf, 0.0, 0.5)
        with pytest.raises(ValueError, match="correlation"):
            TailQuery(0.0, 0.0, 1.5)

    def test_from_margins_standardizes(self):
        model = GaussianModel.bivariate(4.0, 1.0, 0.3)
        query = TailQuery.from_margins(model, 6.0, 3.0, 9)
        assert query.a == pytest.approx(1.0, rel=1e-14)
        assert query.b == pytest.approx(1.0, rel=1e-14)
        assert query.rho == 0.3


class TestBivariateJointTail:
    def test_independent_orthant_probability(self):
        result = bivariate_joint_tail(TailQuery(0.0, 0.0, 0.0))
        assert result.probability == pytest.approx(0.25, abs=1e-10)

    def test_orthant_probability_closed_form(self):
        # P(X > 0, Y > 0) = 1/4 + arcsin(rho) / (2 pi)
        want = 0.25 + math.asin(0.9) / (2.0 * math.pi)
        got = bivariate_joint_tail(TailQuery(0.0, 0.0, 0.9))
        assert got.probability == pytest.approx(want, rel=1e-12)
        assert density_joint_tail(0.0, 0.0, 0.9)[0] == pytest.approx(want, abs=1e-9)

    def test_methods_agree(self):
        # the library's conditional route against the joint-density route
        for rho in (-0.8, -0.3, 0.4, 0.9):
            for a in (-0.5, 0.3, 1.2):
                for b in (-0.2, 0.8):
                    cond = bivariate_joint_tail(TailQuery(a, b, rho))
                    dens, _ = density_joint_tail(a, b, rho)
                    assert cond.probability == pytest.approx(dens, abs=1e-9)

    def test_independent_case_factorizes(self):
        for a, b in ((0.0, 1.0), (0.5, 0.5), (1.5, -0.7), (2.0, 2.0)):
            got = bivariate_joint_tail(TailQuery(a, b, 0.0)).probability
            assert got == pytest.approx(normal_upper_tail(a) * normal_upper_tail(b), abs=1e-10)

    def test_comonotone_collapses_to_binding_threshold(self):
        result = bivariate_joint_tail(TailQuery(0.5, 1.2, 1.0))
        assert result.probability == normal_upper_tail(1.2)
        assert result.method == "closed-form"

    def test_antithetic_limits(self):
        # rho = -1: Y = -X, so the joint tail is P(a < X < -b)
        empty = bivariate_joint_tail(TailQuery(0.5, 0.3, -1.0))
        assert empty.probability == 0.0
        overlap = bivariate_joint_tail(TailQuery(-1.0, -0.5, -1.0))
        assert overlap.probability == pytest.approx(
            normal_upper_tail(-1.0) - normal_upper_tail(0.5), rel=1e-12
        )

    def test_method_tags(self):
        assert bivariate_joint_tail(TailQuery(0.1, 0.1, 0.5)).method == "quadrature-conditional"
        assert bivariate_joint_tail(TailQuery(0.1, 0.1, 1.0)).method == "closed-form"

    def test_reported_error_is_small(self):
        result = bivariate_joint_tail(TailQuery(1.0, 1.0, 0.6))
        assert 0.0 <= result.error < 1e-8
        assert result.error <= QUADRATURE_TARGET * result.probability

    @pytest.mark.parametrize(
        "rho, a_lo, a_hi",
        # thresholds where the tail is about 1e-12 and 1e-15
        [(0.9, 6.727, 7.615), (0.95, 6.846, 7.744), (0.99, 6.966, 7.872)],
    )
    def test_deep_tail_relative_accuracy(self, rho, a_lo, a_hi):
        pytest.importorskip("mpmath")
        for a in (a_lo, 0.5 * (a_lo + a_hi), a_hi):
            for b in (a, a - 0.1):
                result = bivariate_joint_tail(TailQuery(a, b, rho))
                want = mpmath_joint_tail(a, b, rho)
                assert 1e-16 < want < 2e-12
                assert result.probability == pytest.approx(want, rel=1e-9)
                assert result.error <= QUADRATURE_TARGET * result.probability
                # the reported error covers the true one
                assert abs(result.probability - want) <= result.error + 1e-15 * want

    def test_negative_correlation_deep_tail(self):
        pytest.importorskip("mpmath")
        for a, b in ((1.5, 1.5), (4.0, 4.0), (2.5, 3.5)):
            result = bivariate_joint_tail(TailQuery(a, b, -0.9))
            want = mpmath_joint_tail(a, b, -0.9)
            assert result.probability == pytest.approx(want, rel=1e-9)
            assert abs(result.probability - want) <= result.error + 1e-15 * want

    def test_deep_tail_past_the_fixed_cut(self):
        # P = H(25)^2 ~ 9e-276, but the fixed cut at a + 10 only bounds the
        # mass past it by H(35) ~ 1e-268; for rho >= 0 the cut widens from
        # Slepian's floor P >= H(a) H(b).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = float((mpmath.erfc(25 / mpmath.sqrt(2)) / 2) ** 2)
        result = bivariate_joint_tail(TailQuery(25.0, 25.0, 0.0))
        assert result.probability == pytest.approx(want, rel=1e-9)
        assert result.error <= QUADRATURE_TARGET * result.probability
        for a, b, rho in ((25.0, 25.0, 0.5), (30.0, 26.0, 0.2)):
            result = bivariate_joint_tail(TailQuery(a, b, rho))
            want = mpmath_joint_tail(a, b, rho, dps=330)
            assert result.probability == pytest.approx(want, rel=1e-9)
            assert abs(result.probability - want) <= result.error

    def test_closed_form_error_is_relative(self):
        # A fixed absolute error of 1e-15 was 7.8e-4 P at (7, 7, 1).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            tail = float(mpmath.erfc(7 / mpmath.sqrt(2)) / 2)
            band = float((mpmath.erfc(-1 / mpmath.sqrt(2)) - mpmath.erfc(0.5 / mpmath.sqrt(2))) / 2)
        for query, want in ((TailQuery(7.0, 7.0, 1.0), tail), (TailQuery(-1.0, -0.5, -1.0), band)):
            result = bivariate_joint_tail(query)
            assert result.method == "closed-form"
            assert 0.0 < result.error <= QUADRATURE_TARGET * result.probability
            assert abs(result.probability - want) <= result.error
        # Just short of rho = 1 the tail differs from H(7) by about 1e-6 P,
        # which no closed form can report within the target.
        with pytest.raises(RuntimeError, match="relative target"):
            bivariate_joint_tail(TailQuery(7.0, 7.0, 1.0 - 1e-13))

    def test_monotone_in_correlation(self):
        probs = [
            bivariate_joint_tail(TailQuery(0.8, 0.8, rho)).probability
            for rho in (-0.5, 0.0, 0.5, 0.9)
        ]
        assert all(lo < hi for lo, hi in zip(probs, probs[1:]))

    def test_against_direct_sampling(self):
        query = TailQuery(1.0, 0.5, 0.7)
        exact = bivariate_joint_tail(query).probability
        mc = sample_bivariate_exceed(1.0, 0.5, 0.7, 400_000, seed=42)
        half = 3.0 * math.sqrt(mc * (1.0 - mc) / 400_000)
        assert abs(mc - exact) <= half


class TestMonteCarlo:
    def test_single_commodity_median(self):
        model = GaussianModel.univariate(1.0)
        result = joint_tail_monte_carlo(model, [0.0], 1, 1_000_000, seed=7)
        assert result.probability == pytest.approx(0.5, abs=0.0015)
        assert result.method == "monte-carlo"
        assert result.trials == 1_000_000

    def test_matches_quadrature(self, experiment_model):
        exact = bivariate_joint_tail(TailQuery(1.0, 1.0, 0.9)).probability
        result = joint_tail_monte_carlo(experiment_model, [1.0, 1.0], 1, 200_000, seed=3)
        assert abs(result.probability - exact) <= result.error + 1e-9

    def test_lead_time_scaling(self):
        # threshold sqrt(L) sigma is one standardized unit regardless of L
        model = GaussianModel.univariate(2.0)
        lead = 9
        thr = math.sqrt(lead * 2.0)
        result = joint_tail_monte_carlo(model, [thr], lead, 400_000, seed=11)
        assert abs(result.probability - normal_upper_tail(1.0)) <= result.error

    def test_union_contains_all_exceed(self, experiment_model):
        union = joint_tail_monte_carlo(
            experiment_model, [0.5, 0.8], 4, 100_000, seed=5, pattern=UNION
        )
        both = joint_tail_monte_carlo(
            experiment_model, [0.5, 0.8], 4, 100_000, seed=5, pattern=ALL_EXCEED
        )
        assert union.probability >= both.probability

    def test_orthant_pattern_matches_quadrature(self):
        # below the first threshold, above the second
        model = GaussianModel.bivariate(1.0, 1.0, 0.4)
        t1, t2 = 0.2, 0.5
        result = joint_tail_monte_carlo(
            model, [t1, t2], 1, 200_000, seed=9, pattern=ORTHANT, signs=[-1.0, 1.0]
        )
        joint = bivariate_joint_tail(TailQuery(t1, t2, 0.4)).probability
        exact = normal_upper_tail(t2) - joint
        assert abs(result.probability - exact) <= result.error + 1e-9

    def test_fungible_pattern_pools_demand(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        lead = 4
        result = joint_tail_monte_carlo(
            model, 2.0, lead, 100_000, seed=21, pattern=FUNGIBLE
        )
        exact = normal_upper_tail(2.0 / math.sqrt(lead * 3.0))
        assert abs(result.probability - exact) <= result.error

    def test_minimum_trials(self, experiment_model):
        with pytest.raises(ValueError, match="at least 10000"):
            joint_tail_monte_carlo(experiment_model, [1.0, 1.0], 1, 5_000, seed=1)

    def test_threshold_length_checked(self, experiment_model):
        with pytest.raises(ValueError, match="one threshold per commodity"):
            joint_tail_monte_carlo(experiment_model, [1.0], 1, 10_000, seed=1)

    def test_error_is_three_standard_errors(self, experiment_model):
        result = joint_tail_monte_carlo(experiment_model, [1.0, 1.0], 1, 50_000, seed=13)
        p = result.probability
        assert result.error == pytest.approx(3.0 * math.sqrt(p * (1.0 - p) / 50_000), rel=1e-12)

    def test_zero_hits_report_a_one_sided_error(self):
        # P(both >= 20) over L = 10 periods is ~1e-13: 10000 draws see nothing,
        # which must not read as an exact zero.
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        result = joint_tail_monte_carlo(model, [20.0, 20.0], 10, 10_000, seed=1)
        assert result.hits == 0 and result.probability == 0.0
        # far end of the Wilson score interval at z = 3
        assert result.error == pytest.approx(9.0 / (10_000 + 9.0), rel=1e-12)
        everyone = joint_tail_monte_carlo(model, [-20.0, -20.0], 10, 10_000, seed=1)
        assert everyone.hits == 10_000 and everyone.error == result.error

    def test_hit_counts_match_whole_array_masks(self):
        # same stream, same comparisons: the per-column count is exact
        model = GaussianModel(np.zeros(3), np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.8], [0.3, 0.8, 2.0]]))
        cases = [
            (ALL_EXCEED, [1.0, 0.5, 1.5], None),
            (ORTHANT, [1.0, -0.5, 2.0], [1.0, -1.0, 1.0]),
            (FUNGIBLE, 3.0, None),
        ]
        for pattern, thresholds, signs in cases:
            got = joint_tail_monte_carlo(model, thresholds, 4, 300_000, 23, pattern, signs)
            rng = np.random.default_rng(23)
            factor = math.sqrt(4) * covariance_factor(model)
            want = 0
            for block in (1 << 18, 300_000 - (1 << 18)):
                draws = rng.standard_normal((block, 3)) @ factor.T
                want += int(event_mask_reference(draws, thresholds, pattern, signs).sum())
            assert got.hits == want, pattern

    def test_seed_determinism_across_chunks(self, experiment_model):
        # 300000 trials spans more than one internal block
        first = joint_tail_monte_carlo(experiment_model, [0.7, 0.7], 2, 300_000, seed=17)
        second = joint_tail_monte_carlo(experiment_model, [0.7, 0.7], 2, 300_000, seed=17)
        other = joint_tail_monte_carlo(experiment_model, [0.7, 0.7], 2, 300_000, seed=18)
        assert first.probability == second.probability
        assert first.probability != other.probability


class TestEventMask:
    @pytest.mark.parametrize(
        "pattern, thresholds, signs",
        [
            (ALL_EXCEED, [0.2, -0.1], None),
            (UNION, [0.2, -0.1], None),
            (ORTHANT, [0.2, -0.1], [-1.0, 1.0]),
            (FUNGIBLE, 0.3, None),
            (ALL_EXCEED, [0.2, -0.1, 0.4], None),
            (ORTHANT, [0.2, -0.1, 0.4], [1.0, -1.0, 1.0]),
            (ORTHANT, [0.0, 0.0, 0.0], [-1.0, -1.0, 1.0]),
        ],
    )
    def test_matches_whole_array_form(self, pattern, thresholds, signs):
        rng = np.random.default_rng(5)
        dim = 2 if np.ndim(thresholds) == 0 else len(thresholds)
        # one decimal, so many draws tie with a threshold and >= / <= matter
        x = np.round(rng.standard_normal((50_000, dim)), 1)
        got = event_mask(x, thresholds, pattern, signs)
        want = event_mask_reference(x, thresholds, pattern, signs)
        assert got.dtype == bool and got.shape == (50_000,)
        assert np.array_equal(got, want)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown stockout pattern"):
            event_mask(np.zeros((3, 2)), [0.0, 0.0], "sometimes")


class TestInvertJointTail:
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize("delta", [0.2, 1e-3, 1e-6, 1e-12])
    def test_certified_to_relative_precision(self, rho, delta):
        pytest.importorskip("mpmath")
        lead = 10
        out = invert_joint_tail(GaussianModel.bivariate(1.0, 1.0, rho), delta, lead)
        if out.floored:
            assert 0.25 + math.asin(rho) / (2.0 * math.pi) <= delta
            return
        a = out.ss / math.sqrt(lead)
        prob = mpmath_joint_tail(a, a, rho)
        assert delta * (1.0 - 1e-9) <= prob <= delta

    def test_small_delta_stock(self):
        # the absolute 1e-9 stop of a bisection returned 18.97 here (P = 156 delta)
        out = invert_joint_tail(GaussianModel.bivariate(1.0, 1.0, 0.9), 1e-12, 10)
        assert out.ss == pytest.approx(21.2716282278, rel=1e-10)

    def test_unequal_variances_certified(self):
        pytest.importorskip("mpmath")
        model = GaussianModel.bivariate(1.0, 4.0, -0.5)
        for delta in (0.05, 1e-5, 1e-10):
            out = invert_joint_tail(model, delta, 6)
            prob = mpmath_joint_tail(out.ss / math.sqrt(6.0), out.ss / math.sqrt(24.0), -0.5)
            assert delta * (1.0 - 1e-9) <= prob <= delta

    def test_underflowing_bracket_end(self):
        # the tail at the upper bracket end underflows to 0 here
        pytest.importorskip("mpmath")
        out = invert_joint_tail(GaussianModel.bivariate(0.01, 100.0, -0.5), 1e-300, 10)
        prob = mpmath_joint_tail(out.ss / math.sqrt(0.1), out.ss / math.sqrt(1000.0), -0.5, dps=400)
        assert 1e-300 * (1.0 - 1e-9) <= prob <= 1e-300

    def test_tail_evaluations_per_inversion(self, monkeypatch):
        # the policy-sweep grid of the benchmark: rho 0..0.95, delta 1e-4..0.4
        calls = []
        original = oracle.bivariate_joint_tail

        def counted(query):
            calls.append(query)
            return original(query)

        monkeypatch.setattr(oracle, "bivariate_joint_tail", counted)
        counts = []
        for rho in (0.0, 0.3, 0.6, 0.9, 0.95):
            for lead in (5, 10, 20):
                for delta in np.geomspace(1e-4, 0.4, 8):
                    calls.clear()
                    if not invert_joint_tail(GaussianModel.bivariate(1.0, 1.0, rho), delta, lead).floored:
                        counts.append(len(calls))
        assert max(counts) <= 16
        assert np.mean(counts) <= 12

    def test_probability_at_returned_stock(self, experiment_model):
        lead = 10
        out = invert_joint_tail(experiment_model, 0.05, lead)
        assert not out.floored
        scale = math.sqrt(lead)
        prob = bivariate_joint_tail(
            TailQuery(out.ss / scale, out.ss / scale, 0.9)
        ).probability
        assert 0.05 * (1.0 - 1e-9) <= prob <= 0.05

    def test_monte_carlo_agrees_at_returned_stock(self, experiment_model):
        out = invert_joint_tail(experiment_model, 0.05, 10)
        mc = joint_tail_monte_carlo(experiment_model, [out.ss, out.ss], 10, 1_000_000, seed=29)
        assert abs(mc.probability - 0.05) <= mc.error

    def test_floored_when_target_above_zero_stock_probability(self, experiment_model):
        # P(both exceed at zero stock) = 1/4 + arcsin(0.9) / (2 pi) ~ 0.428
        assert invert_joint_tail(experiment_model, 0.45, 10) == (0.0, True)

    def test_floored_at_exact_zero_stock_probability(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.0)
        assert invert_joint_tail(model, 0.25, 10) == (0.0, True)

    def test_monotone_in_delta(self, experiment_model):
        stocks = [invert_joint_tail(experiment_model, d, 10).ss for d in (0.01, 0.05, 0.2)]
        assert stocks[0] > stocks[1] > stocks[2] > 0.0

    def test_single_commodity_closed_form(self):
        model = GaussianModel.univariate(2.5)
        out = invert_joint_tail(model, 0.05, 8)
        want = math.sqrt(8 * 2.5) * normal_upper_tail_inverse(0.05)
        assert out.ss == pytest.approx(want, rel=1e-12)
        assert not out.floored

    def test_single_commodity_floored(self):
        assert invert_joint_tail(GaussianModel.univariate(1.0), 0.6, 8) == (0.0, True)

    def test_three_commodities_rejected(self):
        model = GaussianModel(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="one or two"):
            invert_joint_tail(model, 0.05, 8)

    def test_delta_domain(self, experiment_model):
        with pytest.raises(ValueError, match="strictly between"):
            invert_joint_tail(experiment_model, 0.0, 8)
