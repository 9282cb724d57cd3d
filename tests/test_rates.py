"""Tests for rate maximization, inversion, and the probability bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stockbound import (
    ALL_EXCEED,
    FUNGIBLE,
    ORTHANT,
    UNION,
    CgfDomainError,
    CgfEvaluator,
    EmpiricalDemand,
    GaussianModel,
    TailQuery,
    UnreachableRateError,
    WeibullModel,
    bivariate_joint_tail,
    chernoff_bound,
    empirical_cgf,
    gaussian_cgf,
    invert_rate,
    rate_numeric,
    weibull_cgf,
)
from stockbound import rates

_EPS = float(np.finfo(float).eps)

from oracles import (
    exact_scalar_rate,
    gaussian_cone_rate,
    mpmath_weibull_log_mgf,
    quad_normal_upper_tail,
    quad_weibull_log_mgf,
    recording,
)


def assert_weibull_rate_matches_mpmath(result, shape: float, scale: float) -> None:
    """``u* . eps - phi(u*)`` by 30-digit mpmath at the returned point, where ``phi'(u*) = eps``."""
    u, eps = float(result.u_star[0]), float(result.epsilon[0])
    mean = WeibullModel(shape, scale).mean
    log_m, slope = mpmath_weibull_log_mgf(shape, scale, u)
    assert slope - mean == pytest.approx(eps, rel=2e-6)
    assert result.rate == pytest.approx(u * eps - (log_m - u * mean), rel=1e-9)


def log_cosh_cgf() -> CgfEvaluator:
    """``phi(u) = log cosh u``, with no domain edge: the slope tends to 1 and ``u phi' - phi`` to log 2."""

    def both(u):
        v = abs(float(u[0]))
        return v + math.log1p(math.exp(-2.0 * v)) - math.log(2.0), np.array([math.tanh(float(u[0]))])

    return CgfEvaluator(dim=1, domain=None, _value_and_grad=both)


def plain_quadratic_cgf(variance: float) -> CgfEvaluator:
    """The one-commodity Gaussian CGF's arithmetic with no model behind it, so the scalar root solves it."""
    base = gaussian_cgf(GaussianModel.univariate(variance))
    return CgfEvaluator(dim=1, domain=None, _value_and_grad=base.value_and_gradient)


def assert_within_eps(value: float, exact: Fraction, ulps: float = 2.0) -> None:
    """``value`` is within ``ulps`` machine epsilons of ``exact``, relative, in exact arithmetic."""
    assert abs(Fraction(value) - exact) <= Fraction(ulps * _EPS) * abs(exact)


class TestRateNumeric:
    def test_unit_gaussian_single_commodity(self):
        result = rate_numeric(gaussian_cgf(GaussianModel.univariate(1.0)), [1.0])
        assert result.rate == pytest.approx(0.5, abs=1e-5)
        assert result.u_star[0] == pytest.approx(1.0, abs=5e-3)
        assert result.converged
        assert result.iterations > 0
        assert result.exponent(10) == pytest.approx(5.0, abs=1e-4)

    def test_independent_pair_per_degree_rate(self):
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.0))
        result = rate_numeric(cgf, [1.0, 1.0])
        assert result.rate == pytest.approx(0.5, abs=1e-5)
        assert result.u_star == pytest.approx([1.0, 1.0], abs=5e-3)
        # exponent carries the commodity count: L * N * rate
        assert result.exponent(5) == pytest.approx(5.0, abs=1e-4)

    def test_nonpositive_margin_gives_zero_rate(self):
        result = rate_numeric(gaussian_cgf(GaussianModel.univariate(1.0)), [-1.0])
        assert result.rate == 0.0
        assert result.u_star[0] == 0.0
        assert result.converged

    def test_correlated_pair_matches_closed_form(self, experiment_model):
        result = rate_numeric(gaussian_cgf(experiment_model), [1.0, 1.0])
        assert result.converged
        assert result.rate == pytest.approx(5.0 / 19.0, abs=1e-5)

    def test_margin_dimension_checked(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        with pytest.raises(ValueError, match="expected 1"):
            rate_numeric(cgf, [1.0, 2.0])

    def test_margin_must_be_finite(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        with pytest.raises(ValueError, match="finite"):
            rate_numeric(cgf, [math.inf])

    def test_sign_cone_matches_flipped_model(self):
        # Exceed on the second commodity while the first stays below its
        # threshold: same rate as all-exceed under the sign-flipped model.
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        mixed = rate_numeric(gaussian_cgf(model), [-0.5, 1.0], signs=[-1.0, 1.0])
        flipped = gaussian_cone_rate(GaussianModel.bivariate(1.0, 1.0, -0.5).covariance, [0.5, 1.0])
        assert mixed.rate == pytest.approx(flipped, abs=1e-9)
        assert mixed.rate == pytest.approx(7.0 / 12.0, abs=1e-5)
        assert mixed.u_star == pytest.approx([-4.0 / 3.0, 5.0 / 3.0], abs=5e-3)

    def test_result_arrays_are_read_only(self):
        result = rate_numeric(gaussian_cgf(GaussianModel.univariate(1.0)), [0.5])
        with pytest.raises(ValueError):
            result.epsilon[0] = 2.0
        with pytest.raises(ValueError):
            result.u_star[0] = 2.0

    def test_domain_boundary_respected(self):
        # Exponential demand: maximizer must stay below the MGF pole.
        cgf = weibull_cgf(WeibullModel(1.0, 1.0))
        result = rate_numeric(cgf, [3.0])
        assert result.converged
        assert 0.0 < result.u_star[0] < 1.0
        # exponential demand rate: eps - log(1 + eps), maximizer eps/(1+eps)
        assert result.rate == pytest.approx(3.0 - math.log(4.0), abs=1e-5)
        assert result.u_star[0] == pytest.approx(0.75, abs=5e-3)

    def test_weibull_rate_after_overshooting_step(self):
        # A quasi-Newton step from u = 1 lands well past the maximizer
        # u* ~ 1.58, where the moment series once gave up.
        shape = 1.2
        cgf = weibull_cgf(WeibullModel(shape, 1.0))
        result = rate_numeric(cgf, [5.0])

        def grad(v: float):
            h = 1e-6
            lo = quad_weibull_log_mgf(shape, 1.0, v - h, centered=True)
            hi = quad_weibull_log_mgf(shape, 1.0, v + h, centered=True)
            return (hi - lo) / (2.0 * h), quad_weibull_log_mgf(shape, 1.0, v, centered=True)

        assert result.converged
        assert result.rate == pytest.approx(exact_scalar_rate(grad, 5.0), rel=1e-8)

    def test_weibull_rates_where_the_series_gave_up(self):
        # With the moment series these stopped at rate 0, and at the
        # iteration cap, both unconverged.
        pytest.importorskip("mpmath")
        cgf = weibull_cgf(WeibullModel(1.2, 3.0))
        result = rate_numeric(cgf, [invert_rate(cgf, 0.5, 1)])
        assert result.converged
        assert result.iterations < 20
        assert result.rate == pytest.approx(math.log(2.0), rel=1e-9)
        assert_weibull_rate_matches_mpmath(result, 1.2, 3.0)
        result = rate_numeric(weibull_cgf(WeibullModel(3.0, 1.0)), [5.0])
        assert result.converged
        assert result.iterations < 20
        assert_weibull_rate_matches_mpmath(result, 3.0, 1.0)

    # At every rho, [1, 1] leaves the cone constraint slack for the orthant
    # and binding for signs [-1, 1], and [-1, 1] does the opposite; [0.2, 1]
    # and [-1.5, 1] switch between the two as rho varies.
    @pytest.mark.parametrize("rho", [-0.99, -0.9, 0.0, 0.9, 0.99])
    @pytest.mark.parametrize("signs", [None, [-1.0, 1.0]])
    @pytest.mark.parametrize("eps", [[1.0, 1.0], [-1.0, 1.0], [0.2, 1.0], [-1.5, 1.0]])
    def test_matches_active_set_reference(self, rho, signs, eps):
        model = GaussianModel.bivariate(1.0, 1.0, rho)
        result = rate_numeric(gaussian_cgf(model), eps, signs=signs)
        expected = gaussian_cone_rate(model.covariance, eps, signs)
        assert result.converged
        assert result.rate == pytest.approx(expected, rel=1e-9)
        cone = np.ones(2) if signs is None else np.asarray(signs)
        assert np.all(cone * result.u_star >= 0.0)

    def test_three_commodities_match_active_set_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            cov = basis @ np.diag(rng.uniform(0.05, 2.0, size=3)) @ basis.T
            cov = 0.5 * (cov + cov.T)
            cgf = gaussian_cgf(GaussianModel(np.zeros(3), cov))
            for _ in range(3):
                eps = rng.uniform(-0.5, 1.5, size=3)
                result = rate_numeric(cgf, eps)
                assert result.converged
                assert result.rate == pytest.approx(gaussian_cone_rate(cov, eps), rel=1e-9)
                assert np.all(result.u_star >= 0.0)

    def test_seeded_scan_matches_active_set_reference(self):
        # Two to five commodities, random positive definite covariances
        # (condition number below 40, where both routes round to about 1e-15),
        # random signs and margins, negative ones included.  The rate is read
        # at a feasible point, so it may exceed the optimum only by rounding.
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cov = basis @ np.diag(rng.uniform(0.05, 2.0, size=n)) @ basis.T
            cov = 0.5 * (cov + cov.T)
            signs = rng.choice([-1.0, 1.0], size=n)
            eps = rng.uniform(-1.0, 1.5, size=n)
            result = rate_numeric(gaussian_cgf(GaussianModel(np.zeros(n), cov)), eps, signs=signs)
            expected = gaussian_cone_rate(cov, eps, signs)
            assert result.converged
            assert result.iterations <= 3 * n
            assert result.rate == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert result.rate <= expected * (1.0 + 1e-14)
            assert np.all(signs * result.u_star >= 0.0)

    @pytest.mark.parametrize("shape", [1.0, 2.0])
    def test_weibull_stay_below_rate_is_the_reflected_rate(self, shape):
        # Sign -1 bounds the event that demand stays below mean + eps with
        # eps < 0: the rate of the reflected CGF v -> phi(-v) at margin -eps.
        # Shape 1 has its pole on the other side, so the reflection has none.
        model = WeibullModel(shape, 1.0)
        eps = -0.4 * model.mean
        result = rate_numeric(weibull_cgf(model), [eps], signs=[-1.0])

        def grad(v: float):
            h = 1e-6
            lo = quad_weibull_log_mgf(shape, 1.0, -(v - h), centered=True)
            hi = quad_weibull_log_mgf(shape, 1.0, -(v + h), centered=True)
            return (hi - lo) / (2.0 * h), quad_weibull_log_mgf(shape, 1.0, -v, centered=True)

        assert result.converged
        assert result.u_star[0] < 0.0
        assert result.rate == pytest.approx(exact_scalar_rate(grad, -eps), rel=1e-8)

    @pytest.mark.parametrize("eps, window", [(-0.2, 5.0), (-1.5, 0.3)], ids=["root", "window-edge"])
    def test_empirical_stay_below_rate_is_the_reflected_rate(self, eps, window):
        # The reflected plug-in CGF in plain numpy; at margin -1.5 its slope
        # stays below 1.5 up to the window edge, and the maximizer stops just
        # inside it, where the rate is at most the edge's and within 1e-12.
        data = np.random.default_rng(17).gamma(2.0, 1.0, (4000, 10))
        sums, periods, mean = data.sum(axis=1), data.shape[1], float(data.mean())
        result = rate_numeric(empirical_cgf(EmpiricalDemand(data), u_window=window), [eps], signs=[-1.0])

        def grad(v: float):
            moments = np.exp(-v * sums)
            slope = -float(moments @ sums) / float(moments.sum()) / periods + mean
            return slope, math.log(float(moments.mean())) / periods + v * mean

        assert result.converged
        if window == 5.0:
            assert result.rate == pytest.approx(exact_scalar_rate(grad, -eps), rel=1e-12)
        else:
            assert grad(window)[0] < -eps
            assert -window < result.u_star[0] <= -window * (1.0 - 1e-12)
            edge_rate = -eps * window - grad(window)[1]
            assert edge_rate * (1.0 - 1e-12) <= result.rate <= edge_rate

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
    def test_one_commodity_gaussian_rate_is_exact(self, sigma):
        # one Gaussian commodity takes the closed form; zero variance is an
        # affine CGF, whose rate at a positive margin is infinite
        cgf = gaussian_cgf(GaussianModel.univariate(sigma**2))
        for delta in (0.9, 0.5, 0.05, 1e-3, 1e-6, 1e-12):
            c = math.sqrt(-2.0 * math.log(delta))
            result = rate_numeric(cgf, [c])
            assert result.converged
            if sigma == 0.0:
                assert result.rate == math.inf
            else:
                assert result.rate == pytest.approx(c * c / (2.0 * sigma**2), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("eps", [-1.0, -2.0])
    def test_stay_below_past_the_mean_stops_once_the_bound_is_zero(self, eps):
        # Weibull demand is nonnegative, so X <= mean + eps < 0 is empty and
        # the reflected slope tends to the mean without reaching -eps.  The
        # doubling bracket stops at the first end whose rate puts exp(-rate)
        # at 0.0, and returns that rate, unconverged.
        base = weibull_cgf(WeibullModel(2.0, 1.0))
        cgf, calls = recording(base)
        result = rate_numeric(cgf, [eps], signs=[-1.0])
        assert len(calls) <= 40
        assert not result.converged
        assert math.exp(-result.rate) == 0.0 and math.isfinite(result.rate)
        assert chernoff_bound(base, [eps], 1, pattern=ORTHANT, signs=[-1.0]) == 0.0

    def test_stay_below_at_minus_the_mean_is_not_converged(self):
        # X <= 0 is empty for Weibull demand, so the rate is infinite; the
        # reflected slope tends to the mean and meets the margin at u* of
        # about -7.2e16 only by rounding, which closes no gap
        result = rate_numeric(weibull_cgf(WeibullModel(2.0, 1.0)), [-math.gamma(1.5)], signs=[-1.0])
        assert not result.converged
        assert result.rate > 0.0 and math.isfinite(result.rate)

    def test_flat_slope_runs_on_until_the_bound_is_zero(self):
        # log cosh at margin 2: the slope rounds to 1.0 from u = 32 on, but
        # the rate 2u - phi(u) keeps growing, so the doubling bracket runs on
        # to the first end where exp(-rate) is 0 (stopping at the flat slope
        # would give a bound of 6.3e-15 at L = 1)
        result = rate_numeric(log_cosh_cgf(), [2.0])
        assert not result.converged
        assert math.exp(-result.rate) == 0.0 and math.isfinite(result.rate)
        assert chernoff_bound(log_cosh_cgf(), [2.0], 1) == 0.0

    @pytest.mark.parametrize(
        "base",
        [
            weibull_cgf(WeibullModel(1.0, 1.7)),
            empirical_cgf(EmpiricalDemand(np.random.default_rng(12).gamma(2.0, 1.0, (400, 10))), u_window=0.3),
        ],
        ids=["exponential", "empirical"],
    )
    def test_scalar_solves_evaluate_only_inside_the_domain(self, base):
        # margins up to 100 push the maximizer to the pole or the window edge
        # in either direction; no solve evaluates the CGF at or past it
        ((lo, hi),) = base.domain
        cgf, seen = recording(base)
        for eps in (0.1, 1.0, 100.0):
            for sign in (1.0, -1.0):
                rate_numeric(cgf, [sign * eps], signs=[sign])
            chernoff_bound(cgf, eps, 5, pattern=FUNGIBLE)
        for delta in (0.5, 1e-2, 1e-300):
            invert_rate(cgf, delta, 5)
        assert seen and all(lo < u < hi for (u,) in seen)

    def test_degenerate_faces_end_at_a_kkt_point_or_an_exact_ray(self):
        # Singular covariances with small whole entries, and margins built on
        # a face of the cone (c = Qv with some v_i = 0) then moved by a few
        # ulps: optima sit exactly on faces, and faces are singular.  The
        # search must end, at a KKT point, or on a ray in the cone along
        # which the CGF evaluates to 0 and the margin gains.
        rng = np.random.default_rng(41)
        infinite = 0
        for _ in range(300):
            n = int(rng.integers(2, 5))
            root = rng.integers(-2, 3, size=(n, int(rng.integers(1, n + 1)))).astype(float)
            cov = root @ root.T
            signs = rng.choice([-1.0, 1.0], size=n)
            v = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
            c = (cov * np.outer(signs, signs)) @ v
            c += rng.integers(-4, 5, n) * np.spacing(max(np.abs(c).max(), 1.0))
            result = rate_numeric(gaussian_cgf(GaussianModel(np.zeros(n), cov)), signs * c, signs=signs)
            assert result.converged
            assert result.iterations <= 3 * n + 1
            u = result.u_star
            assert np.all(signs * u >= 0.0)
            if result.rate == math.inf:
                infinite += 1
                assert (signs * c) @ u > 0.0 and u @ cov @ u <= 0.0
        assert infinite > 30

    def test_one_coordinate_face_is_its_own_eigendecomposition(self):
        # the active set skips eigh on a 1x1 face: (q_jj, [[1.0]]) must be
        # what eigh returns, bit for bit
        rng = np.random.default_rng(17)
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, -3.5, 1e300]
        values += list(rng.normal(size=20)) + list(rng.uniform(-1e-300, 1e-300, 5))
        for x in values:
            lam, vec = np.linalg.eigh(np.array([[x]]))
            assert lam.tobytes() == np.array([[x]])[0].tobytes()
            assert vec.tobytes() == rates._ONE.tobytes() and vec.shape == rates._ONE.shape

    def test_cycling_search_stops_at_the_step_bound(self, monkeypatch):
        # A negative rounding allowance lets the second coordinate join though
        # its face solution is negative; it leaves at once and joins again.
        # The search must raise after 3 solves per commodity, not spin.
        monkeypatch.setattr(rates, "_rounding", lambda q, c, v: np.full(c.shape, -1.0))
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.9))
        with pytest.raises(RuntimeError, match="within 6 solves"):
            rate_numeric(cgf, [1.0, 0.0])

    def test_multi_commodity_evaluator_outside_the_families_is_refused(self):
        base = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.5))
        cgf = CgfEvaluator(dim=2, domain=None, _value_and_grad=base.value_and_gradient)
        with pytest.raises(TypeError, match="Gaussian"):
            rate_numeric(cgf, [1.0, 1.0])

    def test_near_singular_anticorrelation_converges_quickly(self):
        # Condition number 199: the solver must not slow down with it.
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, -0.99))
        result = rate_numeric(cgf, [1.0, 1.0])
        assert result.converged
        assert result.iterations <= 3
        assert result.rate == pytest.approx(50.0, rel=1e-9)

    @pytest.mark.parametrize(
        "cov",
        [
            [[1.0, -1.0], [-1.0, 1.0]],
            [[1.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]],
        ],
        ids=["rho=-1", "diag(1,0)", "x,y,-(x+y)"],
    )
    def test_unbounded_rate_is_infinite_along_a_null_ray(self, cov):
        # Perfect anticorrelation, a commodity with no variance, and a third
        # commodity that is minus the sum of the other two: the all-exceed
        # event is empty at positive margins, so the rate is infinite, and a
        # nonnegative ray with Sigma d = 0 reaches it.
        cov = np.array(cov)
        n = cov.shape[0]
        result = rate_numeric(gaussian_cgf(GaussianModel(np.zeros(n), cov)), np.ones(n))
        assert result.rate == math.inf
        assert result.converged
        assert result.iterations <= n + 1
        assert np.all(result.u_star >= 0.0) and result.u_star.any()
        assert not (cov @ result.u_star).any()
        assert chernoff_bound(gaussian_cgf(GaussianModel(np.zeros(n), cov)), np.ones(n), 5) == 0.0


class TestRateGaussianClosed:
    """``rate_numeric`` on Gaussian cases whose rate is known in closed form."""

    def test_independent_pair(self):
        result = rate_numeric(gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.0)), [1.0, 1.0])
        assert result.rate == pytest.approx(0.5, rel=1e-12)
        assert result.u_star == pytest.approx([1.0, 1.0], rel=1e-12)
        assert result.converged

    def test_zero_margin(self):
        result = rate_numeric(gaussian_cgf(GaussianModel.bivariate(1.0, 2.0, 0.3)), [0.0, 0.0])
        assert result.rate == 0.0
        assert math.copysign(1.0, result.rate) == 1.0

    def test_correlated_pair(self, experiment_model):
        result = rate_numeric(gaussian_cgf(experiment_model), [1.0, 1.0])
        assert result.rate == pytest.approx(5.0 / 19.0, rel=1e-12)
        assert result.u_star == pytest.approx([1.0 / 1.9, 1.0 / 1.9], rel=1e-9)

    def test_boundary_case_puts_no_weight_on_first(self, experiment_model):
        # The unconstrained maximizer has a negative coordinate; the
        # constrained optimum puts no weight on the first commodity.
        result = rate_numeric(gaussian_cgf(experiment_model), [0.0, 1.0])
        assert result.rate == pytest.approx(0.25, rel=1e-12)
        assert result.u_star[0] == pytest.approx(0.0, abs=1e-6)

    def test_singular_covariance_in_range(self):
        # Every u >= 0 with u_1 + u_2 = 1 is a maximizer, of exponent 0.5 per
        # period (0.25 per degree); whichever is returned solves Qu = c.
        model = GaussianModel.bivariate(1.0, 1.0, 1.0)
        result = rate_numeric(gaussian_cgf(model), [1.0, 1.0])
        assert result.converged
        assert result.rate == pytest.approx(0.25, rel=1e-12)
        assert np.all(result.u_star >= 0.0)
        assert model.covariance @ result.u_star == pytest.approx([1.0, 1.0], rel=1e-15)

    @pytest.mark.parametrize("var_y", [3.0, 7.0])
    def test_singular_to_rounding_rate_stays_below_the_maximum(self, var_y):
        # At rho = -1 the rounded covariance of variances (2, 3) is positive
        # definite by 2e-16, and that of (2, 7) singular with no null
        # direction of small whole entries: the rate is finite and huge.  Far
        # out along the ray u'Sigma u loses its digits, so the rate read at
        # the returned point must stay below the float model's maximum, and
        # within 1e-3 of the objective there (rounding leaves about 1e-4),
        # both in rational arithmetic.
        model = GaussianModel.bivariate(2.0, var_y, -1.0)
        result = rate_numeric(gaussian_cgf(model), [1.0, 1.0])
        (a, b), (_, d) = [[Fraction(x) for x in row] for row in model.covariance]
        det = a * d - b * b
        assert 1e12 < result.rate < math.inf
        if det > 0:
            assert result.rate <= (a + d - 2 * b) / (4 * det)
        u = [Fraction(x) for x in result.u_star]
        exact = (u[0] + u[1] - (a * u[0] ** 2 + 2 * b * u[0] * u[1] + d * u[1] ** 2) / 2) / 2
        assert result.rate == pytest.approx(float(exact), rel=1e-3)

    def test_singular_covariance_out_of_range(self):
        # The margin is outside the covariance's range, so the unconstrained
        # rate is infinite, but the orthant-constrained one is 1: all weight
        # goes on the larger margin.  Lead-time demand over 4 periods is
        # (2Z, 2Z), so the exact tail is P(Z >= 4).
        model = GaussianModel.bivariate(1.0, 1.0, 1.0)
        result = rate_numeric(gaussian_cgf(model), [1.0, 2.0])
        assert result.converged
        assert result.rate == pytest.approx(1.0, rel=1e-9)
        assert result.u_star == pytest.approx([0.0, 2.0], abs=1e-8)
        assert math.exp(-result.exponent(4)) >= quad_normal_upper_tail(4.0)

    def test_margin_dimension_checked(self):
        with pytest.raises(ValueError, match="expected 2"):
            rate_numeric(gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.0)), [1.0])


class TestInvertRate:
    def test_unit_variance_round_number(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        ss = invert_rate(cgf, math.exp(-5.0), 10)
        assert ss == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-4, 1e-3, 0.01, 0.05, 0.1])
    def test_matches_gaussian_closed_form(self, delta):
        var = 2.5
        lead = 5
        cgf = gaussian_cgf(GaussianModel.univariate(var))
        ss = invert_rate(cgf, delta, lead)
        assert ss == pytest.approx(math.sqrt(2.0 * lead * var * math.log(1.0 / delta)), rel=1e-12)

    def test_rate_target_near_zero(self):
        cgf = gaussian_cgf(GaussianModel.univariate(2.5))
        ss = invert_rate(cgf, 1.0 - 1e-6, 5)
        assert 0.0 < ss < 0.02

    def test_requires_scalar_cgf(self):
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="single-commodity"):
            invert_rate(cgf, 0.05, 10)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_delta_outside_open_interval(self, delta):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        with pytest.raises(ValueError, match="strictly between"):
            invert_rate(cgf, delta, 10)

    def test_gaussian_residual_audited_externally(self):
        var = 2.5
        lead = 5
        cgf = gaussian_cgf(GaussianModel.univariate(var))
        for delta in (1e-4, 0.01, 0.1):
            ss = invert_rate(cgf, delta, lead)
            rate = exact_scalar_rate(lambda v: (var * v, 0.5 * var * v * v), ss / lead)
            assert rate == pytest.approx(-math.log(delta) / lead, rel=1e-8)

    def test_weibull_inversion_audited_by_quadrature(self):
        model = WeibullModel(2.0, 1.0)
        lead = 5
        delta = 0.05
        ss = invert_rate(weibull_cgf(model), delta, lead)

        def grad(v: float):
            h = 1e-6
            lo = quad_weibull_log_mgf(2.0, 1.0, v - h, centered=True)
            hi = quad_weibull_log_mgf(2.0, 1.0, v + h, centered=True)
            return (hi - lo) / (2.0 * h), quad_weibull_log_mgf(2.0, 1.0, v, centered=True)

        rate = exact_scalar_rate(grad, ss / lead)
        assert rate == pytest.approx(-math.log(delta) / lead, rel=1e-8)

    def test_weibull_stock_covers_simulated_demand(self):
        model = WeibullModel(2.0, 1.0)
        lead = 5
        ss = invert_rate(weibull_cgf(model), 0.05, lead)
        rng = np.random.default_rng(123)
        totals = rng.weibull(2.0, size=(1_000_000, lead)).sum(axis=1)
        rate = float(np.mean(totals > lead * model.mean + ss))
        assert rate <= 0.05

    @pytest.mark.parametrize("shape, delta", [(2.0, 1e-50), (1.2, 1e-8)])
    def test_weibull_bracket_steps_back_from_series_overflow(self, shape, delta):
        # The doubling bracket overshoots the root by up to a factor 2, past
        # where the moment series once gave up; inversion and maximization
        # must still agree.
        cgf = weibull_cgf(WeibullModel(shape, 1.0))
        ss = invert_rate(cgf, delta, 1)
        result = rate_numeric(cgf, [ss])
        assert result.converged
        assert result.rate == pytest.approx(-math.log(delta), rel=1e-9)

    def test_empirical_window_edge_in_closed_form(self):
        # Past the window edge the rate is linear in the margin, so the stock
        # solves edge * eps - phi(edge) = -log(delta) / L directly.
        data = EmpiricalDemand(np.random.default_rng(5).standard_normal((200, 10)))
        cgf = empirical_cgf(data, u_window=0.3)
        lead, delta = 10, 1e-6
        ss = invert_rate(cgf, delta, lead)
        target = -math.log(delta) / lead
        assert cgf.gradient([0.3])[0] < ss / lead
        assert ss == pytest.approx(lead * (target + cgf.value([0.3])) / 0.3, rel=1e-12)

    def test_empirical_interior_root_audited_by_numpy(self):
        # Gamma demand puts the root near u = 0.5, inside the window of 5, so
        # the bracket is the window itself.  The audit's log-mean-exp is the
        # plain numpy one; these sums are small enough not to overflow.
        data = np.random.default_rng(11).gamma(2.0, 1.0, (4000, 10))
        sums, periods, mean = data.sum(axis=1), data.shape[1], float(data.mean())
        lead, delta = 10, 1e-2
        ss = invert_rate(empirical_cgf(EmpiricalDemand(data)), delta, lead)

        def grad(v: float):
            moments = np.exp(v * sums)
            slope = float(moments @ sums) / float(moments.sum()) / periods - mean
            return slope, math.log(float(moments.mean())) / periods - v * mean

        assert 0.0 < ss / lead < grad(5.0)[0]
        rate = exact_scalar_rate(grad, ss / lead)
        assert rate == pytest.approx(-math.log(delta) / lead, rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-12])
    def test_exponential_pole_edge_exact(self, delta):
        # Exponential demand with scale s has rate x - log(1 + x) at the
        # margin eps = s * x, and its CGF has a pole at u = 1 / s.
        scale, lead = 1.7, 5
        ss = invert_rate(weibull_cgf(WeibullModel(1.0, scale)), delta, lead)
        x = ss / (lead * scale)
        assert x - math.log1p(x) == pytest.approx(-math.log(delta) / lead, rel=1e-12)

    def test_exponential_inversion_stays_below_the_pole(self):
        # the bracket ends just inside the pole: no evaluation reaches
        # u = 1 / scale
        base = weibull_cgf(WeibullModel(1.0, 1.7))
        pole = base.domain[0][1]
        cgf, seen = recording(base)
        calls = [lambda d: invert_rate(cgf, d, 5), lambda d: chernoff_bound(cgf, -math.log(d), 5, pattern=FUNGIBLE)]
        for call in calls:
            for delta in (0.5, 1e-2, 1e-12, 1e-300):
                seen.clear()
                assert math.isfinite(call(delta))
                assert max(u for (u,) in seen) < pole

    def test_pole_that_raises_is_a_pole(self):
        # a CGF that raises CgfDomainError at and past u = 1 / scale, instead
        # of returning inf, sizes the same stock and bound
        base = weibull_cgf(WeibullModel(1.0, 1.7))
        pole = base.domain[0][1]

        def raising(u):
            if u[0] >= pole:
                raise CgfDomainError("the exponential MGF is infinite here")
            return base.value_and_gradient(u)

        cgf = CgfEvaluator(dim=1, domain=base.domain, model=base.model, _value_and_grad=raising)
        for delta in (0.5, 1e-2, 1e-12, 1e-300):
            assert invert_rate(cgf, delta, 5) == invert_rate(base, delta, 5)
            bound = chernoff_bound(cgf, -math.log(delta), 5, pattern=FUNGIBLE)
            assert bound == chernoff_bound(base, -math.log(delta), 5, pattern=FUNGIBLE)

    def test_bounded_slope_without_an_edge_is_unreachable(self):
        # log cosh: the slope tends to 1 and u * phi'(u) - phi(u) to log 2;
        # the slope rounds to 1.0 from u = 32 on, so the doubling bracket
        # stops at u = 64, whose slope equals the previous end's
        cgf, calls = recording(log_cosh_cgf())
        with pytest.raises(UnreachableRateError, match="unreachable"):
            invert_rate(cgf, 1e-3, 1)
        assert len(calls) <= 20

    def test_heavy_tail_unreachable(self):
        # Positive transform arguments blow up: no margin reaches the rate.
        heavy = CgfEvaluator(
            dim=1,
            domain=((-math.inf, 0.0),),
            _value_and_grad=lambda u: (0.5 * float(u[0]) ** 2, np.array([float(u[0])])),
        )
        with pytest.raises(UnreachableRateError, match="unreachable"):
            invert_rate(heavy, 0.05, 10)


class TestChernoffBound:
    def test_single_commodity_round_number(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        bound = chernoff_bound(cgf, [1.0], 10)
        assert bound == pytest.approx(math.exp(-5.0), rel=1e-5)

    @pytest.mark.parametrize("eps", [0.0, -0.3])
    def test_nonpositive_margin_is_trivial(self, eps):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        assert chernoff_bound(cgf, [eps], 10) == 1.0

    def test_correlated_pair(self, experiment_model):
        bound = chernoff_bound(gaussian_cgf(experiment_model), [1.0, 1.0], 10)
        assert bound == pytest.approx(math.exp(-20.0 * 5.0 / 19.0), rel=1e-4)

    def test_union_reduces_to_first_margin_when_second_is_huge(self, experiment_model):
        cgf = gaussian_cgf(experiment_model)
        bound = chernoff_bound(cgf, [0.8, 1e9], 5, pattern=UNION)
        assert bound == pytest.approx(math.exp(-1.6), abs=1e-12)

    def test_union_clamped_at_one(self, experiment_model):
        cgf = gaussian_cgf(experiment_model)
        assert chernoff_bound(cgf, [-1.0, -1.0], 5, pattern=UNION) == 1.0

    def test_union_dominates_both_all_exceed_and_marginal(self, experiment_model):
        cgf = gaussian_cgf(experiment_model)
        eps = [0.7, 0.9]
        union = chernoff_bound(cgf, eps, 5, pattern=UNION)
        assert union >= chernoff_bound(cgf, eps, 5) - 1e-12
        assert union >= math.exp(-5.0 * 0.7**2 / 2.0) - 1e-12

    def test_orthant_requires_signs(self, experiment_model):
        cgf = gaussian_cgf(experiment_model)
        with pytest.raises(ValueError):
            chernoff_bound(cgf, [0.5, 0.5], 5, pattern=ORTHANT)

    def test_orthant_matches_flipped_model(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        bound = chernoff_bound(
            gaussian_cgf(model), [-0.5, 1.0], 6, pattern=ORTHANT, signs=[-1.0, 1.0]
        )
        assert bound == pytest.approx(math.exp(-6.0 * 2.0 * 7.0 / 12.0), rel=1e-4)

    def test_fungible_uses_pooled_variance(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        bound = chernoff_bound(gaussian_cgf(model), 1.2, 7, pattern=FUNGIBLE)
        assert bound == pytest.approx(math.exp(-7.0 * 1.2**2 / (2.0 * 3.0)), rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pattern", [FUNGIBLE, UNION])
    def test_non_finite_margin_rejected(self, pattern, bad):
        # The union's first term once ran its bracket out to overflow before
        # the mixed term raised.
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, 0.5))
        eps = bad if pattern == FUNGIBLE else [bad, 1.0]
        with pytest.raises(ValueError, match="margins must be finite"):
            chernoff_bound(cgf, eps, 10, pattern=pattern)

    @pytest.mark.parametrize(
        "cgf",
        [
            empirical_cgf(EmpiricalDemand(np.random.default_rng(12).gamma(2.0, 1.0, (400, 10)))),
            weibull_cgf(WeibullModel(1.0, 1.7)),
        ],
        ids=["empirical", "exponential"],
    )
    def test_single_commodity_fungible_is_all_exceed(self, cgf):
        # With one commodity the pooled event is the all-exceed event; the
        # fungible bound searches the CGF's domain (a closed window for the
        # empirical CGF, a pole for the exponential) along the ones vector.
        fungible = chernoff_bound(cgf, 1.0, 10, pattern=FUNGIBLE)
        assert 1e-8 < fungible < 0.5
        assert fungible == pytest.approx(chernoff_bound(cgf, [1.0], 10), rel=1e-12)

    def test_fungible_zero_pooled_variance(self):
        # At rho = -1 the pooled deviation is identically 0, so P(0 >= L * eps) = 0.
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, -1.0))
        assert chernoff_bound(cgf, 1.0, 5, pattern=FUNGIBLE) == 0.0
        for eps in (0.0, -0.3):
            assert chernoff_bound(cgf, eps, 5, pattern=FUNGIBLE) == 1.0

    def test_fungible_zero_pooled_variance_stops_early(self):
        # slope 0 at every point: the CGF is affine, so the root's bracket
        # must not double its way out to the float range (about 1024
        # evaluations); the Gaussian arithmetic without its model takes the root
        base = gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, -1.0))
        cgf, calls = recording(CgfEvaluator(dim=2, domain=None, _value_and_grad=base.value_and_gradient))
        assert chernoff_bound(cgf, 1.0, 5, pattern=FUNGIBLE) == 0.0
        assert len(calls) <= 24

    @pytest.mark.parametrize("eps", [0.3, 3.0, 100.0])
    def test_fungible_stops_inside_every_coordinate_domain(self, eps):
        # two independent exponentials, scales 1 and 0.5, with poles at u = 1
        # and u = 2: the pooled CGF phi(t, t) has its pole at t = 1, and the
        # bound equals that of the pooled CGF built by hand, read at no point
        # outside either coordinate's domain
        def terms(a, b):
            value = (-math.log1p(-a) - a) + (-math.log1p(-0.5 * b) - 0.5 * b)
            return value, 1.0 / (1.0 - a) - 1.0, 0.5 / (1.0 - 0.5 * b) - 0.5

        def pair(u):
            value, ga, gb = terms(float(u[0]), float(u[1]))
            return value, np.array([ga, gb])

        def pooled(u):
            value, ga, gb = terms(float(u[0]), float(u[0]))
            return value, np.array([ga + gb])

        cgf, seen = recording(CgfEvaluator(dim=2, domain=((-math.inf, 1.0), (-math.inf, 2.0)), _value_and_grad=pair))
        bound = chernoff_bound(cgf, eps, 5, pattern=FUNGIBLE)
        assert 0.0 < bound < 1.0
        pooled_cgf = CgfEvaluator(dim=1, domain=((-math.inf, 1.0),), _value_and_grad=pooled)
        assert bound == chernoff_bound(pooled_cgf, eps, 5, pattern=FUNGIBLE)
        assert seen and all(a < 1.0 and b < 2.0 for a, b in seen)

    def test_unknown_pattern(self):
        cgf = gaussian_cgf(GaussianModel.univariate(1.0))
        with pytest.raises(ValueError, match="unknown stockout pattern"):
            chernoff_bound(cgf, [1.0], 5, pattern="sometimes")

    def test_monotone_in_each_margin(self):
        cgf = gaussian_cgf(GaussianModel.bivariate(1.0, 1.5, 0.4))
        grid = np.linspace(0.2, 1.4, 4)
        for e1 in grid:
            for e2 in grid:
                here = chernoff_bound(cgf, [e1, e2], 6)
                assert chernoff_bound(cgf, [e1 + 0.4, e2], 6) <= here + 1e-12
                assert chernoff_bound(cgf, [e1, e2 + 0.4], 6) <= here + 1e-12

    def test_bound_dominates_exact_probability(self):
        lead = 6
        for rho in (-0.6, 0.0, 0.7):
            model = GaussianModel.bivariate(1.0, 1.0, rho)
            cgf = gaussian_cgf(model)
            for eps in ([0.3, 0.5], [1.0, 1.0], [1.5, 0.8], [2.0, 2.0]):
                bound = chernoff_bound(cgf, eps, lead)
                query = TailQuery.from_margins(model, lead * eps[0], lead * eps[1], lead)
                exact = bivariate_joint_tail(query).probability
                assert exact <= bound + 1e-12


class TestGaussianLines:
    """A Gaussian CGF along a line is maximized in closed form and read once, through the evaluator."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_commodity_rate(self, sigma, sign):
        for c in (0.05, 0.3, 1.0, 2.448, 3.717, 7.434, 60.0):
            cgf, points = recording(gaussian_cgf(GaussianModel.univariate(sigma**2)))
            result = rate_numeric(cgf, [sign * c], signs=[sign])
            assert points == [(sign * c / sigma**2,)] and result.iterations == 1
            assert result.converged and list(result.u_star) == [sign * c / sigma**2]
            assert_within_eps(result.rate, Fraction(c) ** 2 / (2 * Fraction(sigma**2)))

    @pytest.mark.parametrize("delta", [0.3, 1e-2, 1e-4, 1e-8, 1e-20, 1e-300])
    @pytest.mark.parametrize("lead", [1, 5, 10])
    def test_one_commodity_inversion(self, delta, lead):
        # the stock is L sqrt(2 var r) at the rate r the package computes
        var = 2.5
        cgf, points = recording(gaussian_cgf(GaussianModel.univariate(var)))
        ss = invert_rate(cgf, delta, lead)
        target = -math.log(delta) / lead
        assert points == [(math.sqrt(2.0 * target / var),)]
        assert_within_eps(ss**2, lead**2 * 2 * Fraction(var) * Fraction(target), 4.0)

    @pytest.mark.parametrize("rho", [-0.6, 0.0, 0.5, 0.9])
    def test_pooled_and_first_commodity_rates(self, rho):
        model = GaussianModel.bivariate(1.0, 1.5, rho)
        pooled = sum(Fraction(x) for x in model.covariance.ravel())
        for eps in (0.1, 1.2, 3.5):
            cgf, points = recording(gaussian_cgf(model))
            t, rate, evals, converged = rates._scalar_rate(cgf, [1.0, 1.0], eps)
            assert points == [(t, t)] and evals == 1 and converged
            assert_within_eps(rate, Fraction(eps) ** 2 / (2 * pooled))
            points.clear()
            t, rate, evals, converged = rates._scalar_rate(cgf, [1.0, 0.0], eps)
            assert points == [(t, 0.0)] and evals == 1 and converged
            assert_within_eps(rate, Fraction(eps) ** 2 / 2)

    @pytest.mark.parametrize("rho", [-0.6, 0.5])
    def test_bounds_read_each_line_once(self, rho):
        # the fungible bound reads one point; the union bound one on its
        # first term's line and one where the active set ends
        model = GaussianModel.bivariate(1.0, 1.5, rho)
        cgf, points = recording(gaussian_cgf(model))
        chernoff_bound(cgf, 1.2, 5, pattern=FUNGIBLE)
        ((t, t_again),) = points
        assert t == t_again == pytest.approx(1.2 / float(model.covariance.sum()), rel=2.0 * _EPS)
        points.clear()
        chernoff_bound(cgf, [0.8, 1.1], 5, pattern=UNION)
        assert len(points) == 2 and points[0] == (0.8, 0.0)

    def test_zero_curvature_is_an_infinite_rate_read_nowhere(self):
        pair, pair_points = recording(gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, -1.0)))
        assert rates._scalar_rate(pair, [1.0, 1.0], 0.5) == (1.0, math.inf, 0, True)
        one, one_points = recording(gaussian_cgf(GaussianModel.univariate(0.0)))
        assert invert_rate(one, 0.05, 5) == math.ulp(0.0)
        assert not pair_points and not one_points

    def test_maximizer_past_the_float_range_is_left_to_the_root(self):
        # eps / variance overflows: the root's doubling bracket stops once
        # exp(-rate) is 0, as for any CGF whose slope never meets the margin
        result = rate_numeric(gaussian_cgf(GaussianModel.univariate(1e-310)), [1.0])
        assert not result.converged
        assert math.isfinite(result.rate) and math.exp(-result.rate) == 0.0
        ss = invert_rate(gaussian_cgf(GaussianModel.univariate(5e-324)), 1e-300, 1)
        assert 0.0 < ss < 1e-150


ONE_COMMODITY = {
    "weibull2": weibull_cgf(WeibullModel(2.0, 1.0)),
    "exponential": weibull_cgf(WeibullModel(1.0, 1.7)),
    "empirical": empirical_cgf(EmpiricalDemand(np.random.default_rng(12).gamma(2.0, 1.0, (400, 10))), u_window=0.3),
}


class TestEachPointReadOnce:
    """A solve reads the CGF at each point once: the bracket ends and the root come from its record."""

    @pytest.mark.parametrize("delta", [0.1, 1e-4])
    @pytest.mark.parametrize("name", sorted(ONE_COMMODITY))
    def test_inversion(self, name, delta):
        cgf, points = recording(ONE_COMMODITY[name])
        invert_rate(cgf, delta, 5)
        assert points and len(set(points)) == len(points)

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("name", sorted(ONE_COMMODITY))
    def test_one_commodity_rate(self, name, sign, eps):
        cgf, points = recording(ONE_COMMODITY[name])
        result = rate_numeric(cgf, [sign * eps], signs=[sign])
        assert points and len(set(points)) == len(points) == result.iterations

    @pytest.mark.parametrize("rho", [-0.9, 0.5])
    @pytest.mark.parametrize("pattern", [FUNGIBLE, UNION])
    def test_pooled_and_union(self, pattern, rho):
        cgf, points = recording(gaussian_cgf(GaussianModel.bivariate(1.0, 1.0, rho)))
        chernoff_bound(cgf, 1.0 if pattern == FUNGIBLE else [1.0, 1.0], 5, pattern=pattern)
        assert points and len(set(points)) == len(points)


@pytest.fixture
def intervals(monkeypatch):
    """Each scalar root's internal ``(lower, upper)`` on the largest answer, in the order solved."""
    seen = []
    root = rates._increasing_root

    def spy(*args):
        t, converged, upper, points = got = root(*args)
        seen.append((points[t][2], upper))
        return got

    monkeypatch.setattr(rates, "_increasing_root", spy)
    return seen


def assert_inside(interval, reference: float, rel: float) -> None:
    lower, upper = interval
    assert lower - rel * abs(reference) <= reference <= upper + rel * abs(reference)



class TestScalarRoot:
    """Brent's step in the bracket, stopped once the gap between the best point and the tangents' bound closes."""

    @pytest.mark.parametrize(
        "cgf, parent",
        [
            (weibull_cgf(WeibullModel(1.5, 1.0)), 41),
            (weibull_cgf(WeibullModel(2.0, 1.0)), 40),
            (weibull_cgf(WeibullModel(3.0, 1.0)), 44),
            (weibull_cgf(WeibullModel(1.0, 1.0)), 51),
            (plain_quadratic_cgf(1.0), 38),
            (empirical_cgf(EmpiricalDemand(np.random.default_rng(11).gamma(2.0, 1.0, (4000, 10)))), 43),
        ],
        ids=["weibull1.5", "weibull2", "weibull3", "exponential", "gaussian", "empirical"],
    )
    def test_four_sizings_read_fewer_points_than_the_bracket_stop(self, cgf, parent):
        # ``parent`` is what brentq's own stop (xtol 1e-15) read for these
        # four sizings; the gap stop reads fewer
        total = 0
        for delta in (0.1, 1e-2, 1e-3, 1e-4):
            recorded, points = recording(cgf)
            invert_rate(recorded, delta, 10)
            total += len(set(points))
        assert total < parent

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gaussian_rates_inside_the_interval(self, intervals, sigma, sign):
        # a Gaussian model is solved in closed form; its arithmetic without
        # the model keeps testing the root
        cgf = plain_quadratic_cgf(sigma**2)
        for c in (0.05, 0.3, 1.0, 2.448, 3.717, 7.434):
            result = rate_numeric(cgf, [sign * c], signs=[sign])
            assert_inside(intervals[-1], c * c / (2.0 * sigma**2), 2.0 * _EPS)
            assert result.converged and result.rate == intervals[-1][0]

    @pytest.mark.parametrize("delta", [0.3, 1e-2, 1e-4, 1e-8, 1e-20])
    @pytest.mark.parametrize("lead", [1, 5, 10])
    def test_gaussian_stocks_inside_the_interval(self, intervals, delta, lead):
        var = 2.5
        ss = invert_rate(plain_quadratic_cgf(var), delta, lead)
        margin = math.sqrt(2.0 * var * math.log(1.0 / delta) / lead)
        answer, upper = intervals[-1]
        # the root maximizes the negated margin: the interval is [-upper, -answer]
        assert_inside((-upper, -answer), margin, 2.0 * _EPS)
        assert ss == lead * -answer

    @pytest.mark.parametrize("scale", [0.7, 1.7])
    def test_exponential_rates_inside_the_interval(self, intervals, scale):
        # rate x - log(1 + x) at the margin eps = scale * x
        cgf = weibull_cgf(WeibullModel(1.0, scale))
        for x in (0.1, 0.5, 3.0, 40.0):
            rate_numeric(cgf, [scale * x])
            assert_inside(intervals[-1], x - math.log1p(x), 1e-13)

    def test_references_audit_the_interval(self, intervals):
        # the quadrature and numpy audits of test_weibull_rate_after_overshooting_step
        # and test_empirical_interior_root_audited_by_numpy, against the interval
        shape = 1.2
        cgf = weibull_cgf(WeibullModel(shape, 1.0))
        rate_numeric(cgf, [5.0])

        def weibull_grad(v: float):
            h = 1e-6
            lo = quad_weibull_log_mgf(shape, 1.0, v - h, centered=True)
            hi = quad_weibull_log_mgf(shape, 1.0, v + h, centered=True)
            return (hi - lo) / (2.0 * h), quad_weibull_log_mgf(shape, 1.0, v, centered=True)

        assert_inside(intervals[-1], exact_scalar_rate(weibull_grad, 5.0), 1e-8)
        data = np.random.default_rng(11).gamma(2.0, 1.0, (4000, 10))
        sums, periods, mean = data.sum(axis=1), data.shape[1], float(data.mean())
        cgf = empirical_cgf(EmpiricalDemand(data))

        def empirical_grad(v: float):
            moments = np.exp(v * sums)
            slope = float(moments @ sums) / float(moments.sum()) / periods - mean
            return slope, math.log(float(moments.mean())) / periods - v * mean

        for eps in (0.1, 0.5, 1.0):
            rate_numeric(cgf, [eps])
            assert_inside(intervals[-1], exact_scalar_rate(empirical_grad, eps), 1e-12)

    def test_the_best_point_is_returned(self, intervals):
        # the rate is the largest read and the stock the least margin read,
        # and each meets the gap target
        base = weibull_cgf(WeibullModel(2.0, 1.0))
        cgf, seen = recording(base)
        result = rate_numeric(cgf, [0.7])
        rates_read = [u * 0.7 - base.value([u]) for (u,) in seen]
        assert result.rate == max(rates_read)
        # the target: GAP of the rate, plus the slope's rounding over the point
        lower, upper = intervals[-1]
        (u,) = result.u_star
        allowance = rates._ROOT_ROUNDING * (abs(base.gradient([u])[0]) + 0.7) * u
        assert result.converged and upper - lower <= rates._ROOT_GAP * lower + allowance
        seen.clear()
        ss = invert_rate(cgf, 1e-3, 10)
        target = -math.log(1e-3) / 10
        assert ss == min(10 * -(-(target + base.value([u])) / u) for (u,) in seen if u > 0.0)
