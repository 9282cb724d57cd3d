"""Tests for exact tail probabilities: quadrature, sampling, and inversion."""

import math
import os
import signal
import threading

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
    chernoff_bound,
    covariance_factor,
    gaussian_cgf,
    invert_joint_tail,
    joint_tail_monte_carlo,
    normal_upper_tail,
    normal_upper_tail_inverse,
)

from stockbound import oracle
from stockbound.events import check_pattern
from stockbound.oracle import QUADRATURE_TARGET

from oracles import (
    MC_CHUNK,
    density_joint_tail,
    monte_carlo_hits_reference,
    mpmath_joint_tail,
    owens_t_joint_tail,
    quad_normal_upper_tail,
    sample_bivariate_exceed,
)

# A three-commodity model and its Monte Carlo patterns.
THREE_COV = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.8], [0.3, 0.8, 2.0]])
THREE_CASES = [
    (ALL_EXCEED, [1.0, 0.5, 1.5], None),
    (ORTHANT, [1.0, -0.5, 2.0], [1.0, -1.0, 1.0]),
    (FUNGIBLE, 3.0, None),
]


@pytest.fixture
def first_normals(monkeypatch):
    """Every first-commodity normal that Monte Carlo draws by inverse CDF, up to sign."""
    drawn = []
    ndtri = oracle.ndtri

    def recorded(q, out):
        ndtri(q, out=out)
        drawn.append(out.copy())
        return out

    monkeypatch.setattr(oracle, "ndtri", recorded)
    return drawn


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
        # within 1e-7 of rho = -1, where a conditional-tail quadrature read 0
        for rho in (-1.0 + 9e-10, -1.0 + 1e-8, -1.0 + 1e-7):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            got = bivariate_joint_tail(TailQuery(0.0, 0.0, rho))
            assert got.probability == pytest.approx(want, rel=1e-9)
            assert got.error <= QUADRATURE_TARGET * got.probability

    def test_methods_agree(self):
        # the library's Plackett route against the joint-density route
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
        assert abs(result.probability - normal_upper_tail(1.2)) <= result.error
        assert result.error <= QUADRATURE_TARGET * result.probability

    def test_antithetic_limits(self):
        # rho = -1: Y = -X, so the joint tail is P(a < X < -b)
        empty = bivariate_joint_tail(TailQuery(0.5, 0.3, -1.0))
        assert empty.probability == 0.0
        overlap = bivariate_joint_tail(TailQuery(-1.0, -0.5, -1.0))
        assert overlap.probability == pytest.approx(
            normal_upper_tail(-1.0) - normal_upper_tail(0.5), rel=1e-12
        )
        # Just short of the limit: a conditional-tail quadrature was 1.3e-5
        # off at 1 + rho = 5.8e-12, and a closed-form switch raised at 1e-12.
        pytest.importorskip("mpmath")
        for gap in (5.8e-12, 1e-12):
            result = bivariate_joint_tail(TailQuery(-2.975, -1.244, -1.0 + gap))
            want = mpmath_joint_tail(-2.975, -1.244, -1.0 + gap, dps=60)
            assert result.probability == pytest.approx(want, rel=1e-9)
            assert abs(result.probability - want) <= result.error + 1e-15 * want

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
        # P = H(25)^2 ~ 9e-276, where a conditional-tail integral cut at
        # a + 10 could only bound the mass past it by H(35) ~ 1e-268; the
        # Plackett integral has no cut, and its scaled integrand no underflow.
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

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.99])
    def test_nonnegative_correlation_matches_mpmath(self, rho):
        pytest.importorskip("mpmath")
        for a in (0.0, 1.0, 3.0, 5.0, 7.0):
            for b in ((a, 0.5 * a) if a > 0.0 else (a,)):
                result = bivariate_joint_tail(TailQuery(a, b, rho))
                if a == 0.0:
                    want = 0.25 + math.asin(rho) / (2.0 * math.pi)
                else:
                    want = mpmath_joint_tail(a, b, rho)
                assert result.probability == pytest.approx(want, rel=1e-12), (a, b)
                assert result.error <= QUADRATURE_TARGET * result.probability

    def test_error_is_relative_at_perfect_correlation(self):
        # A fixed absolute error of 1e-15 was 7.8e-4 P at (7, 7, 1).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            tail = float(mpmath.erfc(7 / mpmath.sqrt(2)) / 2)
            band = float((mpmath.erfc(-1 / mpmath.sqrt(2)) - mpmath.erfc(0.5 / mpmath.sqrt(2))) / 2)
        for query, want in ((TailQuery(7.0, 7.0, 1.0), tail), (TailQuery(-1.0, -0.5, -1.0), band)):
            result = bivariate_joint_tail(query)
            assert 0.0 < result.error <= QUADRATURE_TARGET * result.probability
            assert abs(result.probability - want) <= result.error
        # Just short of rho = 1 the tail differs from H(7) by about 1e-6 P,
        # which a closed form at the limit could not report within the target.
        result = bivariate_joint_tail(TailQuery(7.0, 7.0, 1.0 - 1e-13))
        want = mpmath_joint_tail(7.0, 7.0, 1.0 - 1e-13, dps=60)
        assert abs(result.probability - want) <= result.error <= QUADRATURE_TARGET * result.probability
        assert result.probability < tail * (1.0 - 1e-7)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_matches_owens_t_route_on_moderate_tails(self, rho):
        # a third route: Owen's T in double precision, for tails of 1e-8 and up
        grid = (-2.5, -1.3, -0.4, 0.25, 0.9, 1.7, 2.6, 3.5, 4.4, 5.3)
        checked = 0
        for a in grid:
            for b in grid:
                want = owens_t_joint_tail(a, b, rho)
                if want < 1e-8:
                    continue
                got = bivariate_joint_tail(TailQuery(a, b, rho)).probability
                assert got == pytest.approx(want, rel=QUADRATURE_TARGET), (a, b)
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize(
        "rho", [-1.0 + 1e-12, -1.0 + 1e-9, -1.0 + 1e-6, -0.9, -0.3, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
    )
    def test_whole_range_matches_mpmath(self, rho):
        # Thresholds from -3 to 8, and a - b (rho >= 0) or a + b (rho < 0),
        # the width of the integrand's rise, down to 1e-9 on both sides of 0.
        # Near rho = +-1 a conditional-tail quadrature read some of these as
        # 0, and a first Plackett prototype was 4.6e-8 off at (3, 3.000001)
        # with 1 - rho = 1e-10.
        pytest.importorskip("mpmath")
        mirror = 1.0 if rho >= 0.0 else -1.0
        cases = [(a, mirror * a + d) for a in (-2.0, 0.5, 3.0) for d in (1e-9, -1e-9, 1e-4)]
        cases += [(-2.975, -1.244), (1.3, 4.1), (-3.0, 8.0), (5.0, 5.5), (3.0, 3.000001)]
        checked = 0
        for a, b in cases:
            result = bivariate_joint_tail(TailQuery(a, b, rho))
            assert result.method == "quadrature-plackett"
            assert result.error <= QUADRATURE_TARGET * result.probability
            try:
                want = mpmath_joint_tail(a, b, rho, dps=60)
            except ValueError:  # below 1e-30
                assert result.probability < 1e-25, (a, b)
                continue
            assert abs(result.probability - want) <= result.error + 1e-15 * want, (a, b)
            assert result.probability == pytest.approx(want, rel=1e-9), (a, b)
            checked += 1
        assert checked >= 7

    def test_owens_t_route_against_mpmath(self):
        pytest.importorskip("mpmath")
        cases = [(5.3, 0.9, 0.0), (-0.4, 5.3, 0.0), (0.9, 3.5, -0.5), (-2.5, 4.4, 0.9), (1.7, 1.7, -0.9), (-1.3, -0.4, 0.5)]
        for a, b, rho in cases:
            assert owens_t_joint_tail(a, b, rho) == pytest.approx(mpmath_joint_tail(a, b, rho, dps=60), rel=1e-10)

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


class TestBatchedTails:
    """The library evaluates tails in batches; a tail must not depend on its batch."""

    def test_each_tail_is_its_one_query_call(self):
        # A seeded mix: correlations across [-1, 1] with their ends and
        # near-ends; s = 0 (b = a, or b = -a for rho < 0) and s != 0; the
        # band start (a < -b at rho < 0); thin rises; deep tails.
        rng = np.random.default_rng(20261020)
        rhos = [-1.0, -1.0 + 1e-12, -1.0 + 1e-7, -0.9, -0.3, 0.0, 0.4, 0.95, 1.0 - 1e-9, 1.0]
        rhos += rng.uniform(-1.0, 1.0, 6).tolist()
        for rho in rhos:
            a = rng.uniform(-3.0, 8.0, 14)
            b = np.concatenate([
                a[:3], -a[3:6], -a[6:9] - rng.uniform(0.0, 2.0, 3), a[9:11] + 1e-9, rng.uniform(-3.0, 8.0, 3)
            ])
            a, b = np.append(a, [25.0, -4.0]), np.append(b, [25.0, 3.5])
            probability, error = oracle._joint_tails(a, b, rho)
            for i in range(a.size):
                one = bivariate_joint_tail(TailQuery(a[i], b[i], rho))
                assert (one.probability, one.error) == (probability[i], error[i]), (a[i], b[i], rho)
            # another batch, in another order, of another size
            order = rng.permutation(a.size)[: a.size - 5]
            again = oracle._joint_tails(a[order], b[order], rho)
            assert np.array_equal(again[0], probability[order]) and np.array_equal(again[1], error[order])

    def test_panel_cap_stops_an_integral_and_the_contract_raises(self, monkeypatch):
        # (4, 4, -0.9) needs about seven levels of bisection; held to two
        # panels its integral stops short, and the tail refuses to return
        query = TailQuery(4.0, 4.0, -0.9)
        assert bivariate_joint_tail(query).error <= QUADRATURE_TARGET * bivariate_joint_tail(query).probability
        monkeypatch.setattr(oracle, "_QUAD_PANELS", 2)
        with pytest.raises(RuntimeError, match="above the relative target"):
            bivariate_joint_tail(query)

    def test_rounding_alone_stops_an_integral(self):
        # Every panel's error is within its share of the target by width,
        # yet their sum rounds above the target: no panel can split, so the
        # integral stops where it is (looping on would hang) and the tail's
        # contract, 1e-9 against this 1e-12, decides
        rng = np.random.default_rng(7)
        owner = np.zeros(3, dtype=int)
        for _ in range(200):
            edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, 3))])
            left, right, area = edges[:-1], edges[1:], rng.uniform(0.5, 2.0, 3)
            width, target = right - left, oracle._QUAD_RTOL * area.sum()
            err = target * width / width.sum()
            for i in range(3):
                while err[i] * width.sum() > target * width[i]:
                    err[i] = np.nextafter(err[i], 0.0)
            if np.bincount(owner, err, 1)[0] > target:
                break
        else:
            pytest.fail("no panels whose errors sum above the target by rounding alone")

        def unsplit(x, rows):
            raise AssertionError("a panel within its share was bisected")

        def hung(signum, frame):
            raise AssertionError("the integral did not stop")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            total, total_err = oracle._integrate(unsplit, owner, left, right, 1, first=(area, err))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (total[0], total_err[0]) == (np.bincount(owner, area, 1)[0], np.bincount(owner, err, 1)[0])
        assert oracle._QUAD_RTOL * total[0] < total_err[0] <= QUADRATURE_TARGET * total[0]

    def test_band_start_against_mpmath(self):
        # Near rho = -1 the band P(a <= X <= -b) where the integral starts
        # carries almost all of the tail; at rho = -1 it is the tail.
        mpmath = pytest.importorskip("mpmath")
        widths = (1e-9, 1e-3, 0.5, 2.9)  # mpmath needs b != 0
        a = np.array([x for x in (-3.0, -1.2, 0.4, 2.5, 5.0) for _ in widths])
        b = -(a + np.tile(widths, 5))
        for rho in (-1.0, -1.0 + 1e-12, -1.0 + 1e-9):
            probability, error = oracle._joint_tails(a, b, rho)
            for p, e, x, y in zip(probability, error, a, b):
                if rho == -1.0:
                    with mpmath.workdps(60):
                        want = float((mpmath.erfc(x / mpmath.sqrt(2)) - mpmath.erfc(-y / mpmath.sqrt(2))) / 2)
                else:
                    want = mpmath_joint_tail(x, y, rho, dps=60)
                assert e <= QUADRATURE_TARGET * p
                assert abs(p - want) <= e + 1e-15 * want, (x, y, rho)
                assert p == pytest.approx(want, rel=1e-9), (x, y, rho)

    @pytest.mark.parametrize(
        "variances, rho", [((1.0, 1.0), 0.9), ((1.0, 1.0), -0.9), ((1.0, 4.0), -0.5), ((1.0, 4.0), 0.99), ((2.0, 2.0), 0.0)]
    )
    def test_grid_inversion_is_one_delta_at_a_time(self, variances, rho):
        model = GaussianModel.bivariate(*variances, rho)
        deltas = np.geomspace(1e-12, 0.45, 10)
        grid = oracle._invert_joint_tails(model, deltas, 10)
        for delta, (ss, floored, tail) in zip(deltas, grid):
            assert (ss, floored) == invert_joint_tail(model, delta, 10)
            if floored:
                # the closed-form P(0) floors the stock, and no tail is evaluated
                assert math.isnan(tail)
            else:
                assert tail == bivariate_joint_tail(TailQuery.from_margins(model, ss, ss, 10)).probability <= delta

    def test_floored_inversion_evaluates_no_tail(self, monkeypatch):
        def forbidden(a, b, rho):
            raise AssertionError("a tail was evaluated for a floored stock")

        monkeypatch.setattr(oracle, "_joint_tails", forbidden)
        # P(0) ~ 0.428 at rho = 0.9, 1/6 at rho = -0.5
        assert invert_joint_tail(GaussianModel.bivariate(1.0, 1.0, 0.9), 0.45, 10) == (0.0, True)
        assert invert_joint_tail(GaussianModel.bivariate(1.0, 4.0, -0.5), 0.2, 10) == (0.0, True)

    def test_kernel_calls_per_benchmark_grid(self, monkeypatch):
        # the benchmark's policy grids: rho 0..0.95, L 5, 10 and 20, eight deltas
        calls = []
        kernel = oracle._joint_tails
        monkeypatch.setattr(oracle, "_joint_tails", lambda a, b, rho: calls.append(a.size) or kernel(a, b, rho))
        for rho in (0.0, 0.3, 0.6, 0.9, 0.95):
            for lead in (5, 10, 20):
                calls.clear()
                oracle._invert_joint_tails(GaussianModel.bivariate(1.0, 1.0, rho), np.geomspace(1e-4, 0.4, 8), lead)
                assert len(calls) <= 6, (rho, lead, calls)


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
        # same spawned streams, same draw order, same comparisons: the
        # count is exact; 300000 trials end in a short chunk
        model = GaussianModel(np.zeros(3), THREE_COV)
        for pattern, thresholds, signs in THREE_CASES:
            got = joint_tail_monte_carlo(model, thresholds, 4, 300_000, 23, pattern, signs)
            want = monte_carlo_hits_reference(model, thresholds, 4, 300_000, 23, pattern, signs)
            assert got.hits == want, pattern

    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.5, 0.95, 1.0, -1.0])
    def test_every_pattern_matches_its_exact_tail(self, rho):
        # draws stop once a trial is decided; the count must stay unbiased
        # for each pattern, including the singular factors at rho = +-1
        model, lead, trials = GaussianModel.bivariate(1.0, 2.0, rho), 4, 400_000
        a, b = 0.8, 1.2
        t = [a * math.sqrt(lead), b * math.sqrt(2.0 * lead)]
        both = bivariate_joint_tail(TailQuery(a, b, rho)).probability
        pooled = math.sqrt(lead * float(model.covariance.sum()))
        exact = {
            ALL_EXCEED: both,
            # P(X >= a, Y <= b) = P(X >= a, -Y >= -b), by reflection
            ORTHANT: bivariate_joint_tail(TailQuery(a, -b, -rho)).probability,
            UNION: normal_upper_tail(a) + normal_upper_tail(b) - both,
            FUNGIBLE: normal_upper_tail(1.5 / pooled),
        }
        for pattern, p in exact.items():
            signs = [1.0, -1.0] if pattern == ORTHANT else None
            level = 1.5 if pattern == FUNGIBLE else t
            got = joint_tail_monte_carlo(model, level, lead, trials, 41, pattern, signs)
            assert abs(got.probability - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials), pattern

    def test_every_pattern_is_exact_with_a_deterministic_commodity(self):
        # the second commodity is always 0, which ties its threshold 0: it
        # meets >= and <= alike, so only the first decides all_exceed and
        # orthant, and every trial is a union stockout
        model, lead, trials = GaussianModel(np.zeros(2), np.diag([1.0, 0.0])), 4, 400_000
        tail = normal_upper_tail(0.8)
        exact = {ALL_EXCEED: tail, ORTHANT: tail, UNION: 1.0, FUNGIBLE: normal_upper_tail(0.6)}
        for pattern, p in exact.items():
            signs = [1.0, -1.0] if pattern == ORTHANT else None
            level = 1.2 if pattern == FUNGIBLE else [1.6, 0.0]
            got = joint_tail_monte_carlo(model, level, lead, trials, 41, pattern, signs)
            assert abs(got.probability - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials), pattern

    @pytest.mark.parametrize(
        "variances, pattern, level, signs, p",
        [
            # the QR triangle of diag(1, 0) starts with -1, and its column is
            # flipped to +1: z_0 is drawn on the test's own side, the lower
            # one for a <= or < test
            ((1.0, 0.0), ORTHANT, [1.6, 0.0], [-1.0, 1.0], 1.0 - normal_upper_tail(0.8)),
            ((1.0, 0.0), UNION, [1.6, 0.5], None, normal_upper_tail(0.8)),
            # diag(0, 1) starts with 0: the first test holds for every trial
            # or for none, and union's test is strict
            ((0.0, 1.0), ALL_EXCEED, [0.0, 1.6], None, normal_upper_tail(0.8)),
            ((0.0, 1.0), ALL_EXCEED, [0.5, 1.6], None, 0.0),
            ((0.0, 1.0), UNION, [0.5, 1.6], None, normal_upper_tail(0.8)),
            ((0.0, 1.0), UNION, [0.0, 1.6], None, 1.0),
            ((0.0, 1.0), ORTHANT, [0.0, 1.6], [-1.0, 1.0], normal_upper_tail(0.8)),
            ((0.0, 1.0), ORTHANT, [-0.5, 1.6], [-1.0, 1.0], 0.0),
        ],
    )
    def test_first_factor_entry_negative_or_zero(self, first_normals, variances, pattern, level, signs, p):
        model, lead, trials = GaussianModel(np.zeros(2), np.diag(variances)), 4, 400_000
        assert covariance_factor(model)[0, 0] == variances[0]
        got = joint_tail_monte_carlo(model, level, lead, trials, 41, pattern, signs)
        assert abs(got.probability - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)
        assert all(np.isfinite(z).all() for z in first_normals)

    @pytest.mark.parametrize(
        "pattern, level, hits, drawn",
        [
            # H(40) underflows to 0: no trial passes the first test
            (ALL_EXCEED, [40.0, 0.0], 0, 0),
            (ORTHANT, [-40.0, 0.0], 0, 0),
            (UNION, [-40.0, 0.0], 20_000, 0),
            (FUNGIBLE, 60.0, 0, 0),
            # H(-20) rounds to 1: every trial passes it and draws a finite z_0
            (ALL_EXCEED, [-20.0, -20.0], 20_000, 20_000),
            (ORTHANT, [20.0, -20.0], 20_000, 20_000),
            (UNION, [20.0, 20.0], 0, 20_000),
        ],
    )
    def test_first_tail_of_zero_or_one(self, first_normals, pattern, level, hits, drawn):
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        signs = [-1.0, 1.0] if pattern == ORTHANT else None
        got = joint_tail_monte_carlo(model, level, 1, 20_000, 5, pattern, signs)
        assert got.hits == hits and got.probability == hits / 20_000
        assert math.isfinite(got.error) and got.error > 0.0
        assert sum(z.size for z in first_normals) == drawn
        assert all(np.isfinite(z).all() for z in first_normals)

    @pytest.mark.parametrize("case", ["all_exceed", "union", "orthant", "fungible", "three"])
    def test_seed_scan_is_unbiased(self, case):
        # 200 seeds of 1e5 trials: the z-scores of the hit counts against the
        # exact tail have mean 0 (within 4 / sqrt(200)) and unit spread
        lead, trials, seeds = 4, 100_000, 200
        model, signs = GaussianModel.bivariate(1.0, 2.0, 0.5), None
        a, b = 0.8, 1.2
        level = [a * math.sqrt(lead), b * math.sqrt(2.0 * lead)]
        if case == "all_exceed":
            p = bivariate_joint_tail(TailQuery(a, b, 0.5)).probability
        elif case == "union":
            p = normal_upper_tail(a) + normal_upper_tail(b) - bivariate_joint_tail(TailQuery(a, b, 0.5)).probability
        elif case == "orthant":
            # P(X <= a, Y >= b) = P(-X >= -a, Y >= b): the first test is <=
            signs = [-1.0, 1.0]
            p = bivariate_joint_tail(TailQuery(-a, b, -0.5)).probability
        elif case == "fungible":
            level = 1.5
            p = normal_upper_tail(level / math.sqrt(lead * float(model.covariance.sum())))
        else:
            from scipy.stats import multivariate_normal

            model, signs = GaussianModel(np.zeros(3), THREE_COV), [1.0, -1.0, 1.0]
            level = np.array([1.0, -0.5, 2.0])
            flip = -np.asarray(signs)
            genz = multivariate_normal(cov=lead * THREE_COV * np.outer(flip, flip), seed=3, abseps=1e-8)
            p = float(genz.cdf(flip * level))
        pattern = case if case != "three" else ORTHANT
        hits = np.array(
            [joint_tail_monte_carlo(model, level, lead, trials, seed, pattern, signs).hits for seed in range(seeds)]
        )
        z = (hits - trials * p) / math.sqrt(trials * p * (1.0 - p))
        assert abs(z.mean()) <= 4.0 / math.sqrt(seeds)
        assert 0.8 <= z.std(ddof=1) <= 1.2

    def test_three_commodity_patterns_match_genz(self):
        from scipy.stats import multivariate_normal

        model, lead, trials = GaussianModel(np.zeros(3), THREE_COV), 4, 400_000
        for pattern, thresholds, signs in THREE_CASES:
            if pattern == FUNGIBLE:
                p = normal_upper_tail(thresholds / math.sqrt(lead * THREE_COV.sum()))
            else:
                # Y = -s * X is at most -s * t exactly when X meets the pattern
                flip = -np.ones(3) if signs is None else -np.asarray(signs)
                genz = multivariate_normal(cov=lead * THREE_COV * np.outer(flip, flip), seed=3, abseps=1e-7)
                p = float(genz.cdf(flip * np.asarray(thresholds)))
            got = joint_tail_monte_carlo(model, thresholds, lead, trials, 41, pattern, signs)
            assert abs(got.probability - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials), pattern

    @pytest.mark.parametrize("trials", [10_000, MC_CHUNK, MC_CHUNK + 1, 300_000])
    def test_hits_do_not_depend_on_the_thread_count(self, monkeypatch, trials):
        model = GaussianModel.bivariate(1.0, 2.0, 0.3)
        cases = [
            (ALL_EXCEED, [0.5, 1.0], None),
            (UNION, [1.5, 2.0], None),
            (ORTHANT, [0.5, -1.0], [1.0, -1.0]),
            (FUNGIBLE, 2.0, None),
        ]
        for pattern, thresholds, signs in cases:
            # against the one-thread reference, not only across settings:
            # chunks sharing one stream would still cover the same rows
            # whatever the interleaving, and agree with each other
            want = monte_carlo_hits_reference(model, thresholds, 2, trials, 31, pattern, signs)
            for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
                threads = threading.active_count()
                got = joint_tail_monte_carlo(model, thresholds, 2, trials, 31, pattern, signs)
                assert threading.active_count() == threads
                assert got.hits == want, (pattern, cpus)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_fungible_hit_counts_match_the_pooled_normal(self, dim):
        rng = np.random.default_rng(100 + dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        model = GaussianModel(np.zeros(dim), (q * rng.uniform(0.2, 2.0, dim)) @ q.T)
        got = joint_tail_monte_carlo(model, 2.0, 3, 300_000, 29, FUNGIBLE)
        assert got.hits == monte_carlo_hits_reference(model, 2.0, 3, 300_000, 29, FUNGIBLE) > 0

    def test_one_helper_thread_per_further_cpu(self, monkeypatch):
        # the calling thread counts too, and helpers take chunks in turn, so
        # neither a single CPU nor a long run submits more than cpus - 1 tasks
        model = GaussianModel.bivariate(1.0, 2.0, 0.3)
        submit = oracle.ThreadPoolExecutor.submit
        for cpus, helpers in (({0}, 0), ({0, 1}, 1), ({0, 1, 2, 3}, 3)):
            calls = []
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
            monkeypatch.setattr(
                oracle.ThreadPoolExecutor, "submit", lambda pool, *a: calls.append(a) or submit(pool, *a)
            )
            joint_tail_monte_carlo(model, [0.5, 1.0], 2, 20 * MC_CHUNK, 31)
            assert len(calls) == helpers, cpus

    @pytest.mark.parametrize("trials", [20_000.7, 20_000.0, True, "20000"])
    def test_non_integer_trials_rejected(self, experiment_model, trials):
        with pytest.raises(ValueError, match="trial count must be an integer"):
            joint_tail_monte_carlo(experiment_model, [1.0, 1.0], 1, trials, seed=1)

    def test_numpy_integer_trials_give_python_numbers(self, experiment_model):
        result = joint_tail_monte_carlo(experiment_model, [1.0, 1.0], 1, np.int64(20_000), seed=1)
        assert type(result.trials) is int and type(result.hits) is int
        assert type(result.probability) is float and type(result.error) is float
        assert result.probability == result.hits / result.trials

    @pytest.mark.parametrize(
        "pattern, thresholds, signs",
        [
            (ALL_EXCEED, [1.0, math.nan], None),
            (UNION, [math.nan, 1.0], None),
            (ORTHANT, [1.0, math.inf], [1.0, -1.0]),
            (FUNGIBLE, math.nan, None),
            (FUNGIBLE, -math.inf, None),
        ],
    )
    def test_non_finite_thresholds_rejected(self, experiment_model, pattern, thresholds, signs):
        with pytest.raises(ValueError, match="thresholds must be finite"):
            joint_tail_monte_carlo(experiment_model, thresholds, 1, 10_000, 1, pattern, signs)

    def test_seed_determinism_across_chunks(self, experiment_model):
        # 300000 trials spans more than one internal block
        first = joint_tail_monte_carlo(experiment_model, [0.7, 0.7], 2, 300_000, seed=17)
        second = joint_tail_monte_carlo(experiment_model, [0.7, 0.7], 2, 300_000, seed=17)
        other = joint_tail_monte_carlo(experiment_model, [0.7, 0.7], 2, 300_000, seed=18)
        assert first.probability == second.probability
        assert first.probability != other.probability


class TestSignsOnlyForOrthant:
    # Signs were once dropped for every pattern but the orthant: at rho = 0.5,
    # margins (0.5, 0.5) and L = 10, all_exceed with signs [1, -1] gave the
    # all-exceed bound 0.1889 where the orthant's is 0.2865, and Monte Carlo
    # counted the all-exceed event.
    @pytest.mark.parametrize(
        "pattern, thresholds", [(ALL_EXCEED, [0.5, 0.5]), (UNION, [0.5, 0.5]), (FUNGIBLE, 0.5)]
    )
    def test_signs_with_another_pattern_are_rejected(self, pattern, thresholds):
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        signs = [1.0, -1.0]
        match = f"signs apply only to the orthant pattern, not '{pattern}'"
        with pytest.raises(ValueError, match=match):
            check_pattern(pattern, 2, signs)
        with pytest.raises(ValueError, match=match):
            chernoff_bound(gaussian_cgf(model), thresholds, 10, pattern, signs=signs)
        with pytest.raises(ValueError, match=match):
            joint_tail_monte_carlo(model, thresholds, 10, 10_000, 1, pattern, signs)

    def test_orthant_mask_needs_signs(self):
        # without signs the event mask once compared the first column only
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        match = "the orthant pattern requires a sign vector"
        with pytest.raises(ValueError, match=match):
            check_pattern(ORTHANT, 2)
        with pytest.raises(ValueError, match=match):
            chernoff_bound(gaussian_cgf(model), [0.5, 0.5], 10, ORTHANT)
        with pytest.raises(ValueError, match=match):
            joint_tail_monte_carlo(model, [0.5, 0.5], 10, 10_000, 1, ORTHANT)


def assert_certified_by_mpmath(variances, rho, delta, lead=10):
    pytest.importorskip("mpmath")
    model = GaussianModel.bivariate(*variances, rho)
    out = invert_joint_tail(model, delta, lead)
    if out.floored:
        assert 0.25 + math.asin(rho) / (2.0 * math.pi) <= delta
        return
    # the query the inversion evaluates: near rho = -1 the model's
    # correlation, an ulp off rho, moves the tail by up to 1e-7
    query = TailQuery.from_margins(model, out.ss, out.ss, lead)
    prob = mpmath_joint_tail(query.a, query.b, query.rho)
    assert delta * (1.0 - 1e-9) <= prob <= delta


class TestInvertJointTail:
    @pytest.mark.parametrize("variances", [(0.0,), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
    def test_zero_variance_commodity_raises(self, variances):
        # that commodity's deviation is always 0: it runs out at stock 0 and
        # at no positive stock, so P(0) is the others' tail at 0 (1 or 1/2)
        model = GaussianModel(np.zeros(len(variances)), np.diag(variances))
        for delta in (1e-6, 0.05, 0.6, 0.99):
            with pytest.raises(ValueError, match="no least certified stock exists"):
                invert_joint_tail(model, delta, 10)
        p_zero = 0.5 if max(variances) > 0.0 else 1.0
        at_zero = joint_tail_monte_carlo(model, np.zeros(model.dim), 10, 10_000, seed=1)
        assert abs(at_zero.probability - p_zero) <= at_zero.error

    # At rho = -1 + 1e-7 a conditional-tail quadrature read P(0) as 0 and
    # certified a stock of 3.1e-12 at delta = 1e-6, where P = 71 delta.
    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9, 0.99, -1.0 + 1e-7, 1.0 - 1e-8])
    @pytest.mark.parametrize("delta", [0.2, 1e-3, 1e-6, 1e-12])
    def test_certified_to_relative_precision(self, rho, delta):
        assert_certified_by_mpmath((1.0, 1.0), rho, delta)

    @pytest.mark.parametrize(
        "variances, rho, delta, lead",
        [
            # a conditional-tail quadrature read 1.9e-4 high here: P / delta
            # was 0.99981
            ((1.0, 1.000001), 1.0 - 1e-8, 1e-3, 10),
            # a deep nearly antithetic tail that raised "above the relative
            # target" under that quadrature
            ((9.257933800009042, 4.751192451978208), -0.9999995669803234, 2.170622077000378e-34, 6),
        ],
    )
    def test_nearly_perfect_correlation_certified(self, variances, rho, delta, lead):
        assert_certified_by_mpmath(variances, rho, delta, lead)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("delta", [0.2, 1e-3, 1e-6, 1e-12])
    def test_unequal_variances_certified_to_relative_precision(self, rho, delta):
        # at rho = 0.99, rounding can put P + error above delta at the analytic
        # upper end, so the iteration has to step past it
        assert_certified_by_mpmath((1.0, 4.0), rho, delta)

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

    @pytest.mark.parametrize("variances", [(1.0, 1.0), (1.0, 4.0), (4.0, 1.0)])
    def test_perfect_correlation(self, variances, monkeypatch):
        # rho = 1: P = H(ss / smaller scale), and the tail at the analytic
        # upper end can exceed delta by rounding alone
        calls = []
        kernel = oracle._joint_tails
        monkeypatch.setattr(oracle, "_joint_tails", lambda a, b, rho: calls.extend(a) or kernel(a, b, rho))
        delta = 1e-6
        model = GaussianModel.bivariate(*variances, 1.0)
        out = invert_joint_tail(model, delta, 10)
        smaller = math.sqrt(10.0 * min(variances))
        assert type(out.ss) is float
        assert out.ss == pytest.approx(smaller * normal_upper_tail_inverse(delta), rel=1e-11)
        tail = bivariate_joint_tail(TailQuery.from_margins(model, out.ss, out.ss, 10))
        assert tail.probability + tail.error <= delta
        assert len(calls) <= 3

    def test_underflowing_bracket_end(self):
        # the tail at the upper bracket end underflows to 0 here
        pytest.importorskip("mpmath")
        out = invert_joint_tail(GaussianModel.bivariate(0.01, 100.0, -0.5), 1e-300, 10)
        prob = mpmath_joint_tail(out.ss / math.sqrt(0.1), out.ss / math.sqrt(1000.0), -0.5, dps=400)
        assert 1e-300 * (1.0 - 1e-9) <= prob <= 1e-300

    def test_creeping_iteration_raises(self, monkeypatch):
        # every stock meets delta, but a slope far too steep makes each step
        # about 5e-7, far above the tolerance and far below the distance to
        # the lower end: the iteration stops at its evaluation cap, loudly
        delta = 0.01
        calls = []

        def flat(a, b, rho):
            calls.extend(a)
            return np.full(a.size, delta / 2), np.zeros(a.size)

        monkeypatch.setattr(oracle, "_joint_tails", flat)
        monkeypatch.setattr(oracle, "_ray_derivatives", lambda *args: (-1e6 * delta, 0.0))
        with pytest.raises(RuntimeError, match="100 tail evaluations"):
            invert_joint_tail(GaussianModel.bivariate(1.0, 1.0, 0.5), delta, 10)
        assert len(calls) == oracle.INVERSION_MAX_EVALS == 100
        assert 0.0 < calls[0] - calls[-1] < 1e-4

    def test_tail_evaluations_per_inversion(self, monkeypatch):
        # the policy-sweep grid of the benchmark: rho 0..0.95, delta 1e-4..0.4
        calls = []
        kernel = oracle._joint_tails

        def counted(a, b, rho):
            calls.extend(a)
            return kernel(a, b, rho)

        monkeypatch.setattr(oracle, "_joint_tails", counted)
        counts = []
        for rho in (0.0, 0.3, 0.6, 0.9, 0.95):
            for lead in (5, 10, 20):
                for delta in np.geomspace(1e-4, 0.4, 8):
                    calls.clear()
                    if not invert_joint_tail(GaussianModel.bivariate(1.0, 1.0, rho), delta, lead).floored:
                        counts.append(len(calls))
        assert max(counts) <= 6
        assert np.mean(counts) <= 4

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
