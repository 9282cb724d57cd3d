"""Tests for the stock sizing rules and the policy comparison."""

import math

import numpy as np
import pytest

from stockbound import (
    FUNGIBLE,
    GaussianModel,
    PolicyOutput,
    ProposedStock,
    TailQuery,
    WeibullModel,
    bivariate_joint_tail,
    chernoff_bound,
    compare_policies,
    gaussian_cgf,
    invert_joint_tail,
    invert_rate,
    normal_upper_tail_inverse,
    ss_fungible,
    ss_previous,
    ss_proposed,
    ss_rigorous,
    weibull_cgf,
)
from stockbound import oracle, policy

from oracles import mpmath_joint_tail, sequential_proposed_stock, symmetric_proposed_stock


class TestPreviousRule:
    def test_single_commodity_median_needs_no_stock(self):
        assert ss_previous(GaussianModel.univariate(1.0), 10, 0.5) == 0.0

    def test_single_commodity_formula(self):
        got = ss_previous(GaussianModel.univariate(1.0), 10, 0.05)
        want = math.sqrt(10.0) * normal_upper_tail_inverse(0.05)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(5.2015, abs=5e-4)

    def test_pair_splits_the_rate(self):
        # two commodities at sqrt(delta) each: 0.0025 -> 0.05 per commodity
        model = GaussianModel.bivariate(1.0, 1.0, 0.9)
        got = ss_previous(model, 10, 0.0025)
        want = math.sqrt(10.0) * normal_upper_tail_inverse(0.05)
        assert got == pytest.approx(want, rel=1e-12)

    def test_generous_rate_drives_stock_negative(self):
        assert ss_previous(GaussianModel.univariate(1.0), 10, 0.8) < 0.0
        model = GaussianModel.bivariate(1.0, 1.0, 0.9)
        assert ss_previous(model, 10, 0.5) < 0.0

    def test_non_gaussian_rejected(self):
        with pytest.raises(TypeError, match="Gaussian"):
            ss_previous(WeibullModel(2.0, 1.0), 10, 0.05)

    def test_unequal_variances_rejected(self):
        with pytest.raises(ValueError, match="equal per-commodity variances"):
            ss_previous(GaussianModel.bivariate(1.0, 2.0, 0.3), 10, 0.05)

    def test_three_commodities_rejected(self):
        with pytest.raises(ValueError, match="one or two"):
            ss_previous(GaussianModel(np.zeros(3), np.eye(3)), 10, 0.05)


class TestProposedRule:
    def test_single_commodity_formula(self):
        out = ss_proposed(GaussianModel.univariate(1.0), 10, math.exp(-1.0))
        assert out.ss == pytest.approx([math.sqrt(20.0)], rel=1e-12)
        assert out.delta_split is None

    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.5, 2.0])
    def test_one_commodity_model_and_cgf_agree(self, sigma):
        # the model goes through its Chernoff exponent, the evaluator through
        # rate inversion; both take the scalar root, and constant demand
        # (sigma 0) gets the least positive float from either.  At sigma
        # 0.01 the rate at a unit margin, 5000, is past where exp(-rate)
        # underflows, so the exponent must be read at a margin of one sigma.
        model = GaussianModel.univariate(sigma**2)
        for delta in (0.9, 0.5, 0.05, 1e-3, 1e-6, 1e-12):
            by_model = ss_proposed(model, 10, delta).ss[0]
            by_cgf = ss_proposed(gaussian_cgf(model), 10, delta).ss[0]
            assert by_model == pytest.approx(by_cgf, rel=1e-14, abs=0.0)
            if sigma == 0.0:
                assert by_model == math.ulp(0.0)
            else:
                assert by_model == pytest.approx(sigma * math.sqrt(-20.0 * math.log(delta)), rel=1e-14)

    def test_independent_pair(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.0)
        out = ss_proposed(model, 10, math.exp(-1.0))
        assert out.ss == pytest.approx([math.sqrt(10.0)] * 2, rel=1e-12)
        assert out.delta_split is None

    def test_correlated_pair(self, experiment_model):
        out = ss_proposed(experiment_model, 10, 0.05)
        want = math.sqrt(10.0 * 1.9 * math.log(20.0))
        assert out.ss == pytest.approx([want] * 2, rel=1e-12)
        assert want == pytest.approx(7.5445, abs=5e-4)
        assert out.ss == pytest.approx([symmetric_proposed_stock(1.0, 0.9, 10, 0.05)] * 2, rel=1e-14)
        assert out.delta_split is None

    def test_perfect_correlation_limit(self):
        model = GaussianModel.bivariate(1.0, 1.0, 1.0)
        out = ss_proposed(model, 10, 0.05)
        assert out.ss == pytest.approx([math.sqrt(20.0 * math.log(20.0))] * 2, rel=1e-12)

    @pytest.mark.parametrize("var_y", [1.0, 4.0, 2.0])
    def test_antithetic_pair(self, var_y):
        # At rho = -1, y = -sqrt(var_y) x: the all-exceed event is empty at
        # equal positive stocks (infinite rate), so the equal stock is the
        # least positive float, never 0.  Sequentially, y's stock sits just
        # above its conditional mean, past which the exponent is infinite.
        # With var_y = 2 the rounded covariance is a hair indefinite.
        model = GaussianModel.bivariate(1.0, var_y, -1.0)
        assert list(ss_proposed(model, 10, 1e-4).ss) == [math.ulp(0.0)] * 2
        ss_x, ss_y = ss_proposed(model, 10, 1e-4, delta_split=(1e-1, 1e-3)).ss
        mean_y = -math.sqrt(var_y) * ss_x
        assert mean_y < ss_y <= mean_y + 1e-12 * abs(mean_y)

    def test_sequential_matches_symmetric_when_independent(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.0)
        sym = ss_proposed(model, 10, 0.05)
        seq = ss_proposed(model, 10, 0.05, delta_split=(math.sqrt(0.05),) * 2)
        assert seq.ss == pytest.approx(sym.ss, rel=1e-10)

    def test_sequential_conditional_offset(self, experiment_model):
        # rho = 0.5 leaves the cone constraint slack: the least y that meets
        # the joint exponent is the paper's conditional rule
        dx = math.sqrt(0.05)
        model = GaussianModel.bivariate(1.0, 1.0, 0.5)
        out = ss_proposed(model, 10, 0.05, delta_split=(dx, dx))
        assert out.ss == pytest.approx(sequential_proposed_stock(1.0, 1.0, 0.5, 10, dx, dx), rel=1e-10)
        assert out.delta_split == pytest.approx([dx, dx], rel=1e-12)
        # at rho = 0.9 the conditional rule undersizes y (its Chernoff bound
        # exceeds delta); y's own stock at delta is the least that certifies
        out = ss_proposed(experiment_model, 10, 0.05, delta_split=(dx, dx))
        ss_x, conditional = sequential_proposed_stock(1.0, 1.0, 0.9, 10, dx, dx)
        assert out.ss == pytest.approx([ss_x, math.sqrt(20.0 * math.log(20.0))], rel=1e-12)
        assert out.ss[1] > conditional
        assert chernoff_bound(gaussian_cgf(experiment_model), out.ss / 10, 10) <= 0.05 * (1 + 1e-9)

    def test_sequential_accepts_explicit_split(self, experiment_model):
        split = (0.01, 5.0)
        with pytest.raises(ValueError, match="strictly between"):
            ss_proposed(experiment_model, 10, 0.05, delta_split=split)
        out = ss_proposed(experiment_model, 10, 0.05, delta_split=(0.1, 0.5))
        assert out.ss[0] == pytest.approx(math.sqrt(20.0 * math.log(10.0)), rel=1e-12)

    def test_sequential_split_must_recover_delta(self, experiment_model):
        with pytest.raises(ValueError, match="multiply back"):
            ss_proposed(experiment_model, 10, 0.05, delta_split=(0.5, 0.5))

    def test_sequential_rejects_three_commodities(self):
        model = GaussianModel(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="two Gaussian commodities"):
            ss_proposed(model, 10, 0.05, delta_split=(0.05 ** (1 / 3),) * 3)

    def test_split_on_one_commodity_is_rejected(self):
        # one commodity takes the whole delta: a split is an error, not ignored
        with pytest.raises(ValueError, match="two Gaussian commodities"):
            ss_proposed(GaussianModel.univariate(1.0), 10, 0.05, delta_split=(0.5, 0.1))

    def test_sequential_certifies_asymmetric_pair(self):
        # unequal variances: the certified stock must keep the exact
        # all-exceed probability at or below the target
        model = GaussianModel.bivariate(1.0, 2.0, 0.6)
        lead = 8
        out = ss_proposed(model, lead, 0.05, delta_split=(math.sqrt(0.05),) * 2)
        query = TailQuery.from_margins(model, out.ss[0], out.ss[1], lead)
        assert bivariate_joint_tail(query).probability <= 0.05

    def test_three_independent_commodities_split_evenly(self):
        # independent unit commodities: the equal margin carries delta^(1/3) each
        out = ss_proposed(GaussianModel(np.zeros(3), np.eye(3)), 10, 0.05)
        want = math.sqrt(20.0 * math.log(1.0 / 0.05) / 3.0)
        assert out.ss == pytest.approx([want] * 3, rel=1e-12)
        assert out.delta_split is None

    def test_unequal_variances_are_sized(self):
        model = GaussianModel.bivariate(1.0, 2.0, 0.3)
        out = ss_proposed(model, 10, 0.01)
        assert out.ss[0] == out.ss[1]
        bound = chernoff_bound(gaussian_cgf(model), out.ss / 10, 10)
        assert bound == pytest.approx(0.01, rel=1e-9)
        assert bound <= 0.01 * (1 + 1e-9)

    def test_cgf_evaluator_is_inverted_numerically(self):
        cgf = gaussian_cgf(GaussianModel.univariate(2.0))
        out = ss_proposed(cgf, 6, 0.02)
        assert out.ss[0] == pytest.approx(math.sqrt(2.0 * 6 * 2.0 * math.log(50.0)), rel=1e-8)

    def test_evaluator_list_splits_evenly(self):
        evaluators = [gaussian_cgf(GaussianModel.univariate(1.0)), weibull_cgf(WeibullModel(2.0, 1.0))]
        out = ss_proposed(evaluators, 6, 0.01)
        assert out.delta_split == pytest.approx([0.1, 0.1], rel=1e-12)
        assert out.ss[0] == pytest.approx(invert_rate(evaluators[0], 0.1, 6), rel=1e-12)
        assert out.ss[1] == pytest.approx(invert_rate(evaluators[1], 0.1, 6), rel=1e-12)

    def test_evaluator_list_explicit_split(self):
        evaluators = [gaussian_cgf(GaussianModel.univariate(1.0))] * 2
        out = ss_proposed(evaluators, 6, 0.01, delta_split=(0.02, 0.5))
        assert out.ss[0] == pytest.approx(invert_rate(evaluators[0], 0.02, 6), rel=1e-12)
        with pytest.raises(ValueError, match="one split rate per commodity"):
            ss_proposed(evaluators, 6, 0.01, delta_split=(0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="multiply back"):
            ss_proposed(evaluators, 6, 0.01, delta_split=(0.5, 0.5))

    @pytest.mark.parametrize("split", [(0.5, 0.1, 1.0), (0.3,), 0.5])
    def test_gaussian_split_needs_one_rate_per_commodity(self, split):
        with pytest.raises(ValueError, match="one split rate per commodity"):
            ss_proposed(GaussianModel.bivariate(1.0, 1.0, 0.5), 10, 0.05, delta_split=split)

    def test_evaluator_rejects_options_it_cannot_use(self):
        cgf = weibull_cgf(WeibullModel(2.0, 1.0))
        with pytest.raises(ValueError, match="one split rate per commodity"):
            ss_proposed(cgf, 10, 0.05, delta_split=(0.5, 0.1))

    def test_single_evaluator_is_a_sequence_of_one(self):
        cgf = weibull_cgf(WeibullModel(2.0, 1.0))
        out = ss_proposed(cgf, 10, 0.05)
        assert out.delta_split == (0.05,)
        assert out.ss.tolist() == [invert_rate(cgf, 0.05, 10)]
        for split in ((0.05,), 0.05):
            same = ss_proposed([cgf], 10, 0.05, delta_split=split)
            assert same.ss.tolist() == out.ss.tolist() and same.delta_split == (0.05,)
        with pytest.raises(ValueError, match="multiply back"):
            ss_proposed(cgf, 10, 0.05, delta_split=(0.5,))

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError, match="Gaussian model or CGF evaluator"):
            ss_proposed([1.0, 2.0], 6, 0.01)

    def test_stock_record_checks_its_split(self):
        with pytest.raises(ValueError, match="multiply back"):
            ProposedStock(np.array([1.0]), 0.05, (0.5, 0.5))
        record = ProposedStock(np.array([1.0, 2.0]), 0.25, (0.5, 0.5))
        with pytest.raises(ValueError):
            record.ss[0] = 9.0


class TestFungibleRule:
    def test_three_commodities_pool_the_whole_covariance(self):
        cov = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.8], [0.3, 0.8, 2.0]])
        model = GaussianModel(np.zeros(3), cov)
        lead, delta = 10, 1e-4
        ss = ss_fungible(model, lead, delta)
        assert ss == pytest.approx(math.sqrt(2.0 * lead * 7.4 * math.log(1.0 / delta)), rel=1e-14)
        bound = chernoff_bound(gaussian_cgf(model), ss / lead, lead, pattern=FUNGIBLE)
        assert bound == pytest.approx(delta, rel=1e-12)

    def test_non_gaussian_rejected(self):
        with pytest.raises(TypeError, match="Gaussian"):
            ss_fungible(WeibullModel(2.0, 1.0), 10, 0.05)

    def test_antithetic_demand_has_no_least_stock(self):
        # the pooled deviation is always 0, so a stock of 0 runs out every
        # time while every positive stock is certified
        model = GaussianModel.bivariate(1.0, 1.0, -1.0)
        with pytest.raises(ValueError, match="no least certified stock"):
            ss_fungible(model, 10, 0.05)
        assert chernoff_bound(gaussian_cgf(model), 0.0, 10, pattern=FUNGIBLE) == 1.0

    def test_independent_pair_formula(self):
        got = ss_fungible(GaussianModel.bivariate(1.0, 1.0, 0.0), 10, math.exp(-1.0))
        assert got == pytest.approx(math.sqrt(40.0), rel=1e-12)

    def test_monotone_in_correlation(self):
        stocks = [
            ss_fungible(GaussianModel.bivariate(1.0, 1.0, rho), 10, 0.05)
            for rho in (-0.99, -0.5, 0.0, 0.5, 0.99)
        ]
        assert all(lo <= hi for lo, hi in zip(stocks, stocks[1:]))

    def test_consistent_with_pooled_bound(self):
        model = GaussianModel.bivariate(1.0, 2.0, 0.3)
        lead = 10
        ss = ss_fungible(model, lead, 0.05)
        bound = chernoff_bound(gaussian_cgf(model), ss / lead, lead, pattern=FUNGIBLE)
        assert bound == pytest.approx(0.05, rel=1e-9)


    def test_seeded_scan_meets_its_evaluated_bound(self):
        # the closed form alone read a bound above delta in about a third of
        # these cases, by up to 2e-14 relative; one ulp step up at a time,
        # doubling, mends each without moving the stock past rounding
        rng = np.random.default_rng(11)
        for _ in range(1500):
            vx, vy = rng.uniform(0.2, 3.0, 2)
            rho = rng.uniform(-0.99, 0.99)
            lead = int(rng.integers(1, 30))
            delta = math.exp(rng.uniform(math.log(1e-12), math.log(0.3)))
            model = GaussianModel.bivariate(vx, vy, rho)
            ss = ss_fungible(model, lead, delta)
            assert chernoff_bound(gaussian_cgf(model), ss / lead, lead, pattern=FUNGIBLE) <= delta
            closed = math.sqrt(2.0 * lead * float(model.covariance.sum()) * math.log(1.0 / delta))
            assert closed <= ss <= closed * (1.0 + 1e-13)


class TestRigorousRule:
    def test_delegates_to_exact_inversion(self, experiment_model):
        assert (
            ss_rigorous(experiment_model, 10, 0.05)
            == invert_joint_tail(experiment_model, 0.05, 10).ss
        )
        # returns the bare stock, usable in arithmetic
        assert ss_rigorous(experiment_model, 10, 0.05) + 0.0 > 4.0

    def test_floored_at_zero(self):
        assert ss_rigorous(GaussianModel.bivariate(1.0, 1.0, 0.0), 10, 0.25) == 0.0

    @pytest.mark.parametrize("variances", [(0.0,), (1.0, 0.0), (0.0, 1.0)])
    def test_zero_variance_commodity_has_no_least_stock(self, variances):
        # that commodity runs out at stock 0 and at no positive stock: every
        # positive stock is certified, and none is least
        model = GaussianModel(np.zeros(len(variances)), np.diag(variances))
        for delta in (0.05, 0.6):
            with pytest.raises(ValueError, match="no least certified stock exists"):
                ss_rigorous(model, 10, delta)


class TestPolicyOutput:
    def test_ratios(self, experiment_model):
        row = compare_policies(experiment_model, 10, [0.05])[0]
        assert row.ratio_pro == pytest.approx(row.ss_pro / row.ss_rig, rel=1e-15)
        assert 1.2 < row.ratio_pro < 1.9
        assert row.ratio_pre < 1.0

    def test_ratios_with_zero_rigorous_stock(self, experiment_model):
        # P(0) ~ 0.428 at rho = 0.9, so delta = 0.45 floors the rigorous stock
        row = compare_policies(experiment_model, 10, [0.45])[0]
        assert row.ss_rig == 0.0
        assert row.ss_pre < 0.0 < row.ss_pro
        assert row.ratio_pro == math.inf
        assert row.ratio_pre == math.inf

    def test_floored_rows_share_one_tail_at_zero(self, experiment_model, monkeypatch):
        # P(0) ~ 0.428 at rho = 0.9 floors two of these rows; their p_rig is
        # the closed-form P(0) that floors them, read with no kernel call
        rows = compare_policies(experiment_model, 10, [0.05, 0.45, 0.46])
        assert [row.ss_rig for row in rows[1:]] == [0.0, 0.0]
        assert rows[0].p_rig <= 0.05
        kernel_tail = bivariate_joint_tail(TailQuery(0.0, 0.0, 0.9))
        for module in (policy, oracle):
            monkeypatch.setattr(module, "_joint_tails", lambda *args: pytest.fail("a kernel call"))
        at_zero = 0.25 + math.asin(0.9) / (2.0 * math.pi)
        assert rows[1].p_rig == rows[2].p_rig == at_zero
        assert abs(at_zero - kernel_tail.probability) <= kernel_tail.error

    def test_exact_columns_are_computed_on_first_read(self, experiment_model, monkeypatch):
        # the inversion returns the tail at its stock, so p_rig costs nothing
        # more, and p_pre and p_pro are one batch of tails
        calls = []
        monkeypatch.setattr(policy, "_invert_joint_tails", lambda *args: calls.append("rig") or [(3.0, False, 0.02)])
        monkeypatch.setattr(
            policy, "_joint_tails", lambda a, b, rho: calls.append("p") or (np.full(a.size, 0.01), np.zeros(a.size))
        )
        row = PolicyOutput(
            delta=0.05, ss_pre=2.0, ss_pro=4.0, lead_time=10, model=experiment_model
        )
        assert calls == []
        assert row.ratio_pro == pytest.approx(4.0 / 3.0)
        assert calls == ["rig"]
        assert (row.p_pre, row.p_pro, row.ss_rig, row.p_pre, row.p_rig) == (0.01, 0.01, 3.0, 0.01, 0.02)
        assert calls == ["rig", "p"]

    @pytest.mark.parametrize("variances", [(0.0,), (0.0, 0.0)])
    def test_exact_columns_refuse_a_zero_variance_commodity(self, variances):
        model = GaussianModel(np.zeros(len(variances)), np.diag(variances))
        row = PolicyOutput(delta=0.05, ss_pre=0.0, ss_pro=1e-3, lead_time=10, model=model)
        for column in ("p_pre", "p_pro"):
            with pytest.raises(ValueError, match="no variance"):
                getattr(row, column)
        for column in ("ss_rig", "p_rig", "ratio_pro", "ratio_pre"):
            with pytest.raises(ValueError, match="no least certified stock exists"):
                getattr(row, column)

    def test_order_point_adds_lead_time_mean(self):
        model = GaussianModel.bivariate(1.0, 1.0, 0.9, mean=(2.0, 3.0))
        row = compare_policies(model, 10, [0.05])[0]
        assert row.order_point("proposed") == pytest.approx(
            [20.0 + row.ss_pro, 30.0 + row.ss_pro]
        )
        assert row.order_point("previous") == pytest.approx(
            [20.0 + row.ss_pre, 30.0 + row.ss_pre]
        )
        assert row.order_point("rigorous")[0] == pytest.approx(20.0 + row.ss_rig)

    def test_order_point_unknown_policy(self, experiment_model):
        row = compare_policies(experiment_model, 10, [0.05])[0]
        with pytest.raises(ValueError, match="unknown policy"):
            row.order_point("clairvoyant")


class TestComparePolicies:
    def test_fields_match_individual_rules(self, experiment_model):
        row = compare_policies(experiment_model, 10, [0.05])[0]
        assert row.delta == 0.05
        assert row.lead_time == 10
        assert row.ss_pre == ss_previous(experiment_model, 10, 0.05)
        assert row.ss_pro == ss_proposed(experiment_model, 10, 0.05).ss[0]
        assert row.ss_rig == ss_rigorous(experiment_model, 10, 0.05)

    def test_one_rate_solve_serves_every_rate(self, experiment_model, monkeypatch):
        calls = []
        solve = policy.rate_numeric
        monkeypatch.setattr(policy, "rate_numeric", lambda *a: calls.append(1) or solve(*a))
        rows = compare_policies(experiment_model, 10, [0.01, 0.05, 0.2])
        assert len(calls) == 1
        assert [row.ss_pro for row in rows] == [
            ss_proposed(experiment_model, 10, d).ss[0] for d in (0.01, 0.05, 0.2)
        ]

    def test_certificates_hold_and_previous_rule_fails(self, experiment_model):
        rows = compare_policies(experiment_model, 10, [0.02, 0.05, 0.1, 0.3])
        assert len(rows) == 4
        for row in rows:
            assert row.p_pro <= row.delta + 1e-12
            assert row.p_pre > row.delta
            assert row.ss_pro >= row.ss_rig
            assert row.p_rig == pytest.approx(min(row.delta, 0.25 + math.asin(0.9) / (2 * math.pi)), abs=1e-9)

    def test_probabilities_are_exact_tails(self, experiment_model):
        row = compare_policies(experiment_model, 10, [0.05])[0]
        scale = math.sqrt(10.0)
        want = bivariate_joint_tail(
            TailQuery(row.ss_pro / scale, row.ss_pro / scale, 0.9)
        ).probability
        assert row.p_pro == pytest.approx(want, rel=1e-12)

    def test_rigorous_probability_is_the_tail_at_the_rigorous_stock(self, monkeypatch):
        # bit for bit, and at most delta; 0.45 floors the stock at rho = 0.9
        # (P(0) ~ 0.428), 0.2 at rho = -0.5 (P(0) = 1/6), and there p_rig is
        # the closed-form P(0), within the kernel's error of its tail at 0
        floored = 0
        for rho, variances in ((0.9, (1.0, 1.0)), (-0.5, (1.0, 4.0)), (0.99, (1.0, 4.0))):
            model = GaussianModel.bivariate(*variances, rho)
            for delta in (1e-6, 1e-3, 0.05, 0.2, 0.45):
                row = PolicyOutput(delta, ss_pre=1.0, ss_pro=1.0, lead_time=10, model=model)
                query = TailQuery.from_margins(model, row.ss_rig, row.ss_rig, 10)
                tail = bivariate_joint_tail(query)
                if row.ss_rig > 0.0:
                    assert row.p_rig == tail.probability <= delta
                    continue
                floored += 1
                fresh = PolicyOutput(delta, ss_pre=1.0, ss_pro=1.0, lead_time=10, model=model)
                with monkeypatch.context() as patch:
                    for module in (policy, oracle):
                        patch.setattr(module, "_joint_tails", lambda *args: pytest.fail("a kernel call"))
                    assert fresh.p_rig == row.p_rig == 0.25 + math.asin(rho) / (2.0 * math.pi) <= delta
                assert abs(row.p_rig - tail.probability) <= tail.error
        assert floored == 3

    @pytest.mark.parametrize("rho", [-0.3, -0.9])
    def test_negative_correlation_grid_is_certified(self, rho):
        # No benchmark operation reaches a tail at rho < 0, where the
        # integral starts at rho = -1 and runs in log t.  compare_policies
        # needs equal variances (the previous rule does); the lockstep
        # inversion behind its rigorous column also sizes unequal ones.
        pytest.importorskip("mpmath")
        deltas = np.geomspace(1e-8, 0.1, 8)
        at_zero = 0.25 + math.asin(rho) / (2.0 * math.pi)

        def assert_certified(model, delta, ss):
            if ss == 0.0:
                assert at_zero <= delta
                return
            query = TailQuery.from_margins(model, ss, ss, 10)
            assert delta * (1.0 - 1e-9) <= mpmath_joint_tail(query.a, query.b, query.rho) <= delta

        model = GaussianModel.bivariate(1.0, 1.0, rho)
        for row in compare_policies(model, 10, deltas):
            assert_certified(model, row.delta, row.ss_rig)
            assert row.p_pro <= row.delta and row.p_rig <= row.delta
        model = GaussianModel.bivariate(1.0, 4.0, rho)
        proposed = [ss_proposed(model, 10, delta).ss[0] for delta in deltas]
        assert (policy._exact_all_exceed(model, np.array(proposed), 10) <= deltas).all()
        for delta, (ss, floored, tail) in zip(deltas, policy._invert_joint_tails(model, deltas, 10)):
            assert_certified(model, delta, ss)
            assert floored or tail <= delta

    def test_single_commodity_grid(self):
        model = GaussianModel.univariate(1.0)
        row = compare_policies(model, 10, [0.05])[0]
        # one commodity: the previous rule is already exact
        assert row.ss_pre == pytest.approx(row.ss_rig, rel=1e-9)
        assert row.p_pre == pytest.approx(0.05, abs=1e-9)
        assert row.ss_pro > row.ss_rig

    def test_rejects_bad_delta(self, experiment_model):
        with pytest.raises(ValueError, match="strictly between"):
            compare_policies(experiment_model, 10, [0.05, 1.5])
