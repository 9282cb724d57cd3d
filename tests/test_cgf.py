"""Tests for CGF evaluators: analytic models, Weibull quadrature, and empirical estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbound import (
    CgfDomainError,
    EmpiricalDemand,
    GaussianModel,
    WeibullModel,
    empirical_cgf,
    empirical_cgf_estimate,
    estimation_certificate,
    gaussian_cgf,
    weibull_cgf,
    weibull_log_mgf,
)

from oracles import mpmath_weibull_log_mgf, quad_weibull_log_mgf, trapezoid_weibull_log_mgf

# Frozen from the quadrature oracle below; weibull_log_mgf must land within 1e-10.
WEIBULL_2_1_RAW_AT_HALF = 0.4712732761677853
WEIBULL_2_1_RAW_AT_MINUS_HALF = -0.4175643996147274


class TestGaussianCgf:
    def test_univariate_unit_variance(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        assert cgf.value([1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_correlated_pair_raw_quadratic_form(self, experiment_model):
        # (1/2)(u1^2 + 2 rho u1 u2 + u2^2), no per-commodity normalization
        cgf = gaussian_cgf(experiment_model)
        assert cgf.value([1.0, 1.0]) == pytest.approx(1.9, abs=1e-14)
        assert cgf.gradient([1.0, 1.0]) == pytest.approx([1.9, 1.9], abs=1e-14)

    def test_gradient_is_covariance_times_argument(self, rng):
        for _ in range(10):
            vx, vy = rng.uniform(0.25, 4.0, size=2)
            rho = rng.uniform(-0.95, 0.95)
            model = GaussianModel.bivariate(vx, vy, rho)
            cgf = gaussian_cgf(model)
            u = rng.uniform(-2.0, 2.0, size=2)
            assert cgf.gradient(u) == pytest.approx(model.covariance @ u, rel=1e-12)

    def test_dimension_mismatch(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        with pytest.raises(ValueError):
            cgf.value([1.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(
        u1=st.floats(-3.0, 3.0),
        u2=st.floats(-3.0, 3.0),
        v1=st.floats(-3.0, 3.0),
        v2=st.floats(-3.0, 3.0),
    )
    def test_midpoint_convexity(self, u1, u2, v1, v2):
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 2.0, 0.6))
        a = np.array([u1, u2])
        b = np.array([v1, v2])
        mid = cgf.value(0.5 * (a + b))
        assert mid <= 0.5 * (cgf.value(a) + cgf.value(b)) + 1e-10


class TestEvaluatorBasics:
    def _evaluators(self):
        data = EmpiricalDemand(np.random.default_rng(3).standard_normal((500, 2)))
        return [
            gaussian_cgf(GaussianModel.univariate(2.0)),
            gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, -0.4)),
            weibull_cgf(WeibullModel(2.0, 1.0)),
            weibull_cgf(WeibullModel(1.0, 0.5)),
            empirical_cgf(data),
        ]

    def test_value_at_origin_is_zero(self):
        for cgf in self._evaluators():
            assert abs(cgf.value(np.zeros(cgf.dim))) <= 1e-14

    def test_centered_gradient_at_origin_is_zero(self):
        for cgf in self._evaluators():
            assert np.abs(cgf.gradient(np.zeros(cgf.dim))).max() <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-5
        for cgf in self._evaluators():
            for _ in range(5):
                u = rng.uniform(-0.8, 0.8, size=cgf.dim)
                grad = cgf.gradient(u)
                for i in range(cgf.dim):
                    bump = np.zeros(cgf.dim)
                    bump[i] = h
                    fd = (cgf.value(u + bump) - cgf.value(u - bump)) / (2.0 * h)
                    assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_midpoint_convexity_on_sampled_points(self, rng):
        for cgf in self._evaluators():
            for _ in range(20):
                a = rng.uniform(-0.9, 0.9, size=cgf.dim)
                b = rng.uniform(-0.9, 0.9, size=cgf.dim)
                mid = cgf.value(0.5 * (a + b))
                assert mid <= 0.5 * (cgf.value(a) + cgf.value(b)) + 1e-10

    def test_callable_alias(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        assert cgf([0.7]) == cgf.value([0.7])


def _assert_matches_mpmath(shape: float, scale: float, u: float) -> None:
    """Value within 1e-11 relative of 30-digit mpmath; slope within 1e-9 where |log M| <= 1e3."""
    pytest.importorskip("mpmath")
    want, want_slope = mpmath_weibull_log_mgf(shape, scale, u)
    got = weibull_log_mgf(WeibullModel(shape, scale), u)
    assert got == pytest.approx(want, rel=1e-11)
    if abs(want) <= 1e3:
        mean = WeibullModel(shape, scale).mean
        slope = weibull_cgf(WeibullModel(shape, scale)).gradient([u])[0] + mean
        assert slope == pytest.approx(want_slope, rel=1e-9)


class TestWeibullSeries:
    def test_zero_argument(self):
        assert weibull_log_mgf(WeibullModel(2.0, 1.0), 0.0) == 0.0
        assert weibull_cgf(WeibullModel(2.0, 1.0)).gradient([0.0])[0] == 0.0

    def test_positive_argument_matches_quadrature(self):
        got = weibull_log_mgf(WeibullModel(2.0, 1.0), 0.5)
        want = quad_weibull_log_mgf(2.0, 1.0, 0.5)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(WEIBULL_2_1_RAW_AT_HALF, abs=1e-10)

    def test_negative_argument_matches_quadrature(self):
        got = weibull_log_mgf(WeibullModel(2.0, 1.0), -0.5)
        assert got == pytest.approx(quad_weibull_log_mgf(2.0, 1.0, -0.5), abs=1e-8)
        assert got == pytest.approx(WEIBULL_2_1_RAW_AT_MINUS_HALF, abs=1e-10)

    def test_centered_value_subtracts_mean_term(self):
        model = WeibullModel(2.0, 1.0)
        raw = weibull_log_mgf(model, 0.5)
        centered = weibull_cgf(model).value([0.5])
        assert centered == pytest.approx(raw - 0.5 * model.mean, rel=1e-14)
        assert centered == pytest.approx(quad_weibull_log_mgf(2.0, 1.0, 0.5, centered=True), abs=1e-8)

    def test_large_arguments_still_converge(self):
        _assert_matches_mpmath(1.5, 2.0, 4.0)

    def test_deep_negative_argument_still_matches_quadrature(self):
        got = weibull_log_mgf(WeibullModel(2.0, 1.0), -3.0)
        assert got == pytest.approx(quad_weibull_log_mgf(2.0, 1.0, -3.0), abs=1e-8)

    def test_former_series_failures_match_reference(self):
        # The moment series lost every digit to cancellation at (1.2, -30) and
        # ran past its 500-term cap at (2, -40).
        _assert_matches_mpmath(1.2, 1.0, -30.0)
        _assert_matches_mpmath(2.0, 1.0, -40.0)

    @pytest.mark.parametrize("shape", [1.1, 1.5, 2.5, 5.0])
    def test_matches_mpmath_over_grid(self, shape):
        # u = 20 at scale 3 puts the peak of the integrand near t = 1e19 for
        # shape 1.1, and near 0 for shape 5; u = -30 piles the mass at 0.
        for scale in (0.5, 3.0):
            for u in (-30.0, -1.0, 0.2, 3.0, 20.0):
                _assert_matches_mpmath(shape, scale, u)

    @pytest.mark.parametrize("shape, scale", [(10.0, 1.0), (12.0, 0.5), (20.0, 1.0), (30.0, 2.0)])
    def test_high_shapes_match_mpmath(self, shape, scale):
        # Near u * scale = -2 shape, exp(-t) cuts the integrand off far above
        # its peak, where the unrefined rule's nodes are coarse: it was off by
        # 1e-10 in value at shape 20 and by 3.9e-10 in slope at shape 30.
        pytest.importorskip("mpmath")
        model = WeibullModel(shape, scale)
        cgf = weibull_cgf(model)
        for ratio in (-8.0, -4.0, -2.5, -2.0, -1.75, -1.5, -1.25, 2.0):
            u = ratio * shape / scale
            want, want_slope = mpmath_weibull_log_mgf(shape, scale, u)
            assert weibull_log_mgf(model, u) == pytest.approx(want, rel=1e-11)
            assert cgf.gradient([u])[0] + model.mean == pytest.approx(want_slope, rel=1e-11)

    @pytest.mark.parametrize(
        "shape, scale, u",
        [
            (10.0, 3.0, -10.0),
            (10.0, 1.0, -20.0),
            (50.0, 1.0, -300.0),
            (50.0, 1.0, -400.0),
            (50.0, 0.5, -800.0),
            (50.0, 3.0, -100.0),
            (50.0, 1.0, -800.0),
            (60.0, 1.0, -480.0),
            (100.0, 1.0, -800.0),
        ],
    )
    def test_deep_negative_arguments_at_high_shapes(self, shape, scale, u):
        # Here the integrand decays like a Gaussian of width sqrt(shape) in
        # log t either side of its peak.  A refined rule that ended where the
        # plain rule does, at x = -4.5 and 4, cut off 9.7e-11 of log M at
        # shape 60 and 1.4e-6 at shape 100; a step only twice finer than the
        # plain rule's was off by up to 1.8e-13 in relative slope.
        pytest.importorskip("mpmath")
        model = WeibullModel(shape, scale)
        want, want_slope = mpmath_weibull_log_mgf(shape, scale, u)
        err = abs(weibull_log_mgf(model, u) - want)
        assert err <= 1e-14 * abs(want) and err <= 1e-12
        slope = weibull_cgf(model).gradient([u])[0] + model.mean
        assert abs(slope - want_slope) <= 1e-14 * want_slope

    @pytest.mark.parametrize("u", [-60.0, -90.0, -120.0])
    def test_reference_agrees_with_log_x_trapezoid(self, u):
        # The former reference, an mpmath quadrature in t = (X / scale)^shape,
        # was off by 7.3e-5 in slope at shape 30, u = -120.
        pytest.importorskip("mpmath")
        want = trapezoid_weibull_log_mgf(30.0, 1.0, u)
        assert mpmath_weibull_log_mgf(30.0, 1.0, u) == pytest.approx(want, rel=1e-12)

    def test_shape_below_one_refused(self):
        with pytest.raises(CgfDomainError, match="shape < 1"):
            weibull_log_mgf(WeibullModel(0.8, 1.0), 0.5)
        with pytest.raises(CgfDomainError):
            weibull_log_mgf(WeibullModel(0.8, 1.0), -0.5)
        assert weibull_log_mgf(WeibullModel(0.8, 1.0), 0.0) == 0.0

    def test_exponential_closed_form_and_pole(self):
        model = WeibullModel(1.0, 2.0)
        assert weibull_log_mgf(model, -0.5) == -math.log(2.0)
        assert weibull_log_mgf(model, 0.3) == pytest.approx(-math.log1p(-0.6), rel=1e-15)
        assert weibull_log_mgf(model, 0.3) - 0.3 * model.mean == pytest.approx(
            -math.log1p(-0.6) - 0.6, rel=1e-14
        )
        assert weibull_log_mgf(model, 0.5) == math.inf
        assert weibull_log_mgf(model, 0.9) == math.inf


class TestWeibullEvaluator:
    def test_centered_series_evaluator(self):
        cgf = weibull_cgf(WeibullModel(2.0, 1.0))
        want = quad_weibull_log_mgf(2.0, 1.0, 0.7, centered=True)
        assert cgf.value([0.7]) == pytest.approx(want, abs=1e-8)
        assert cgf.domain is None

    def test_exponential_closed_form(self):
        # shape 1 is exponential demand: -log(1 - u b) - u b on u < 1/b
        model = WeibullModel(1.0, 2.0)
        cgf = weibull_cgf(model)
        u = 0.3
        assert cgf.value([u]) == pytest.approx(-math.log1p(-u * 2.0) - u * model.mean, rel=1e-14)
        assert cgf.value([0.5]) == math.inf
        assert cgf.value([0.9]) == math.inf
        assert cgf.domain == ((-math.inf, 0.5),)

    def test_shape_below_one_rejected_at_construction(self):
        with pytest.raises(CgfDomainError):
            weibull_cgf(WeibullModel(0.5, 1.0))


class TestEmpiricalCgf:
    def test_identical_rows_give_linear_cgf(self):
        data = EmpiricalDemand(np.full((5, 1), 2.5))
        assert empirical_cgf_estimate(data, 0.3) == pytest.approx(0.75, abs=1e-13)

    def test_zero_argument_is_exactly_zero(self, rng):
        data = EmpiricalDemand(rng.standard_normal((50, 3)))
        assert empirical_cgf_estimate(data, 0.0) == 0.0

    def test_large_sample_near_true_gaussian_cgf(self):
        draws = np.random.default_rng(101).standard_normal((100_000, 1))
        data = EmpiricalDemand(draws)
        assert abs(empirical_cgf_estimate(data, 1.0) - 0.5) < 0.02

    def test_per_period_normalization(self, rng):
        # L periods of standard normal: per-period estimate still targets u^2/2
        data = EmpiricalDemand(rng.standard_normal((200_000, 4)))
        assert empirical_cgf_estimate(data, 0.5) == pytest.approx(0.125, abs=0.01)

    def test_extreme_argument_does_not_overflow(self):
        data = EmpiricalDemand(np.array([[400.0], [500.0]]))
        est = empirical_cgf_estimate(data, 2.0)
        assert math.isfinite(est)
        assert est == pytest.approx(1000.0 - math.log(2.0) + math.log1p(math.exp(-200.0)), rel=1e-12)

    def test_single_replicate_rejected(self):
        data = EmpiricalDemand([[1.0, 2.0]])
        with pytest.raises(ValueError, match="at least 2"):
            empirical_cgf_estimate(data, 0.5)

    def test_window_enforced(self, rng):
        data = EmpiricalDemand(rng.standard_normal((10, 1)))
        with pytest.raises(ValueError, match="window"):
            empirical_cgf_estimate(data, 6.0)
        assert math.isfinite(empirical_cgf_estimate(data, 6.0, u_window=10.0))

    def test_evaluator_centered_and_windowed(self, rng):
        data = EmpiricalDemand(rng.standard_normal((1000, 2)) + 3.0)
        cgf = empirical_cgf(data)
        assert abs(cgf.value([0.0])) <= 1e-14
        assert abs(cgf.gradient([0.0])[0]) <= 1e-12
        assert cgf.value([5.5]) == math.inf
        u = 0.4
        raw = empirical_cgf_estimate(data, u)
        assert cgf.value([u]) == pytest.approx(raw - u * data.mean_per_period, rel=1e-12)


class TestEstimationCertificate:
    def test_probability_bound_formula(self, rng):
        data = EmpiricalDemand(rng.standard_normal((100, 1)))
        cert = estimation_certificate(data, 0.5, 10.0)
        assert cert.probability_bound == pytest.approx(1e-4, rel=1e-15)
        assert cert.sample_count == 100

    def test_probability_bound_with_unit_multiplier(self, rng):
        data = EmpiricalDemand(rng.standard_normal((10_000, 1)))
        cert = estimation_certificate(data, 0.5, 1.0)
        assert cert.probability_bound == pytest.approx(1e-4, rel=1e-15)

    def test_half_width_scales_spread(self):
        data = EmpiricalDemand(np.array([[0.0], [1.0], [2.0], [3.0]]))
        cert = estimation_certificate(data, 0.5, 3.0)
        want_spread = float(np.std(np.exp(0.5 * np.array([0.0, 1.0, 2.0, 3.0])), ddof=1))
        assert cert.spread == pytest.approx(want_spread, rel=1e-12)
        assert cert.half_width == pytest.approx(3.0 * want_spread, rel=1e-12)

    def test_vacuous_bound_clamped(self):
        data = EmpiricalDemand(np.array([[0.0], [1.0]]))
        assert estimation_certificate(data, 0.1, 0.1).probability_bound == 1.0

    def test_single_replicate_rejected(self):
        with pytest.raises(ValueError):
            estimation_certificate(EmpiricalDemand([[1.0]]), 0.5, 3.0)

    def test_nonpositive_multiplier_rejected(self, rng):
        data = EmpiricalDemand(rng.standard_normal((10, 1)))
        with pytest.raises(ValueError):
            estimation_certificate(data, 0.5, 0.0)


class TestEstimationConvergence:
    def test_error_shrinks_with_sample_count(self):
        # median over 20 replicate draws, small vs large sample
        u_values = [-1.0, -0.5, 0.5, 1.0]
        medians = {}
        for m in (100, 100_000):
            errs = np.empty((20, len(u_values)))
            for s in range(20):
                draws = np.random.default_rng([77, m, s]).standard_normal((m, 1))
                data = EmpiricalDemand(draws)
                for j, u in enumerate(u_values):
                    errs[s, j] = abs(empirical_cgf_estimate(data, u) - 0.5 * u * u)
            medians[m] = np.median(errs, axis=0)
        assert np.all(medians[100_000] < medians[100])
