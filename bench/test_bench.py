"""Tests of the benchmark itself: its checks reject wrong answers, its
references agree with second routes, and its percentile and self-time
arithmetic is right.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import checks
import run
import tracing
import workloads
from stockbound import cgf, demand, policy, rates

ROOT = Path(__file__).resolve().parent.parent


def replace_column(text: str, column: str, factor: float) -> str:
    lines = text.strip().splitlines()
    index = lines[0].split(",").index(column)
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[index] = repr(float(cells[index]) * factor)
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


# -- references ---------------------------------------------------------------


@pytest.mark.parametrize("h,k,rho", [(1.0, 0.5, 0.3), (-0.7, 1.2, -0.6), (0.0, 0.8, 0.9), (0.0, 0.0, -0.4), (2.5, 2.5, 0.95)])
def test_owens_t_tail_matches_multivariate_normal(h, k, rho):
    cov = [[1.0, rho], [rho, 1.0]]
    genz = multivariate_normal.cdf([-h, -k], mean=[0, 0], cov=cov, abseps=1e-12, releps=1e-12, rng=1)
    assert checks.bvn_upper(h, k, rho) == pytest.approx(genz, abs=1e-9)


def test_cone_rate_matches_unconstrained_form_when_slack():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    eps = np.array([0.8, 0.7])
    u = np.linalg.solve(cov, eps)
    assert np.all(u > 0)
    assert checks.cone_rate(cov, eps) == pytest.approx(0.5 * eps @ u / 2, rel=1e-12)
    # With the second margin pushed down, the optimum drops to the first axis.
    assert checks.cone_rate(cov, [0.8, -0.5]) == pytest.approx(0.8**2 / (2 * 2.0) / 2, rel=1e-12)


def test_weibull_quadrature_matches_exponential_closed_form():
    value, slope = checks.weibull_log_mgf(1.0, 2.0, 0.3)
    assert value == pytest.approx(-math.log(1 - 0.6), rel=1e-11)
    assert slope == pytest.approx(2.0 / (1 - 0.6), rel=1e-11)


# -- checks reject wrong answers ---------------------------------------------


@pytest.mark.parametrize("kind", ["compute", "fig1", "fig2"])
def test_policy_check_accepts_program_and_rejects_scaled_columns(kind):
    op = workloads._policy_op(kind, 0.6, 5, 1.0, 1e-3, 0.45, 5)
    status, text = op.run()
    assert op.check((status, text)) == []
    columns = {
        "compute": ["ss_pro", "ss_rig", "ss_pre", "p_pro", "p_rig", "ratio_pro"],
        "fig1": ["ratio_pro", "ratio_pre"],
        "fig2": ["p_pro_over_delta", "p_pre_over_delta"],
    }[kind]
    for column in columns:
        assert op.check((status, replace_column(text, column, 0.95))), column
    assert op.check((1, text))


def test_bound_check_rejects_halved_and_loosened_bounds():
    for op in workloads._bound_ops(np.array([[1.0, 0.3], [0.3, 1.0]]), np.random.default_rng(3), "t"):
        bound = op.run()
        assert op.check(bound) == [], op.kind
        assert op.check(bound / 2), op.kind
        assert op.check(bound * 1.01), op.kind


def test_bound_check_rejects_a_bound_below_the_exact_tail():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    exact = checks.gaussian_pattern_prob(10 * cov, [3.0, 3.0], "all_exceed")
    assert any("exact" in p for p in checks.check_bound(exact / 2, cov, [0.3, 0.3], 10, "all_exceed"))


def test_three_commodity_bounds_pass_and_halved_fail():
    for op in workloads._bound_ops(workloads.COV3, np.random.default_rng(4), "n3"):
        if op.kind.endswith(("bind", "x1")):
            bound = op.run()
            assert op.check(bound) == [], op.kind
            assert op.check(bound / 2), op.kind


def test_sizing_checks_reject_a_stock_scaled_by_095(tmp_path):
    data = np.random.default_rng(5).gamma(2.0, 1.0, (300, 10))
    path = tmp_path / "d.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    for op in [workloads._weibull_op(2.0, 1.1, 0.01), workloads._weibull_op(1.0, 0.9, 0.02),
               workloads._gaussian1_op(2.0, 0.01), workloads._empirical_op(path, data, 0.01)]:
        stock = op.run()
        assert op.check(stock) == [], op.kind
        assert op.check(stock * 0.95), op.kind
        assert op.check(stock * 1.05), op.kind


def test_estimate_check_rejects_a_shifted_estimate():
    data = np.random.default_rng(6).gamma(2.0, 1.0, (200, 4))
    op = workloads._estimate_op(data)
    rows = op.run()
    assert op.check(rows) == []
    bad = list(rows)
    bad[3] = (bad[3][0] * 0.95,) + bad[3][1:]
    assert op.check(tuple(bad))
    bad = list(rows)
    bad[5] = bad[5][:2] + (bad[5][2] / 2,) + bad[5][3:]
    assert op.check(tuple(bad))


def test_monte_carlo_check_allows_five_and_rejects_six_standard_errors():
    trials, exact = 1_000_000, 0.03
    se = math.sqrt(exact * (1 - exact) / trials)
    assert checks.check_mc(exact + 4.9 * se, trials, exact) == []
    assert checks.check_mc(exact - 6 * se, trials, exact)
    assert checks.check_mc(exact + 6 * se, trials, exact)


def test_mc_op_passes_and_rejects_a_rate_six_se_off():
    op = workloads._mc_op(0.5, "orthant", 1.0, 11, trials=200_000)
    probability, trials = op.run()
    assert op.check((probability, trials)) == []
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    t = math.sqrt(10)
    exact = checks.gaussian_pattern_prob(10 * cov, [t, -0.5 * t], "orthant", [1.0, -1.0])
    se = math.sqrt(exact * (1 - exact) / trials)
    assert op.check((exact + 6 * se, trials))


def test_validate_check_passes_zero_mean_and_fails_nonzero_mean(tmp_path):
    good = workloads._validate_op(0.5, 5, 0.05, 3, 20_000)
    status, text = good.run()
    assert good.check((status, text)) == []
    rate = float(checks.parse_report(text)["empirical_rate"])
    exact = checks.joint_exceed(checks.symmetric_proposed(1.0, 0.5, 5, 0.05), 1.0, 0.5, 5)
    off = exact + 6 * math.sqrt(exact * (1 - exact) / 20_000)
    hits = round(off * 20_000)
    shifted = text.replace(f"empirical_rate: {checks.parse_report(text)['empirical_rate']}",
                           f"empirical_rate: {hits / 20_000!r}").replace(
        f"stockouts: {checks.parse_report(text)['stockouts']}", f"stockouts: {hits}")
    assert rate != hits / 20_000
    assert good.check((status, shifted))
    config = tmp_path / "mean.json"
    config.write_text(json.dumps(workloads.NONZERO_MEAN))
    bad = workloads._validate_op(0.9, 10, 0.05, 7, 20_000, config)
    assert bad.known_fault
    assert bad.check(bad.run())


def test_only_the_nonzero_mean_validate_is_a_known_fault(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        ops, _ = build(np.random.default_rng(1), tmp_path)
        faults = [op.kind for op in ops if op.known_fault]
        assert faults == (["validate-mean"] if name == "oracles" else []), name


# -- run arithmetic -------------------------------------------------------------


def test_tail_rank_keeps_ten_samples_beyond():
    assert run.tail_rank(100, 90) == 90
    with pytest.raises(ValueError):
        run.tail_rank(99, 90)
    assert run.tail_rank(200, 95) == 190
    for percentile in (90, 95, 98):
        count = run.min_samples(percentile)
        assert count - run.tail_rank(count, percentile) == 10
        with pytest.raises(ValueError):
            run.tail_rank(count - 1, percentile)
    assert run.min_samples(90) == 100


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def step(seconds, inner=None):
        def body():
            if inner is not None:
                inner()
            clock.now += seconds

        return body

    def outer():
        clock.now += 2
        tracer.call("a.child", step(2, lambda: tracer.call("b.leaf", step(1))))
        clock.now += 1
        tracer.call("a.child", step(2))
        clock.now += 2

    tracer.call("a.outer", outer)
    assert clock.now == 10
    stats = tracer.stats
    assert stats["a.outer"].total_s == 10 and stats["a.outer"].self_s == 5
    assert stats["a.child"].calls == 2 and stats["a.child"].self_s == 4
    assert stats["b.leaf"].self_s == 1
    assert tracer.module_self_s() == {"a": 9, "b": 1}
    spans = {s[0]: s for s in tracer.spans}
    assert spans[1][1] == 0 and spans[2][1] == 1 and spans[3][1] == 0


def test_recursive_calls_count_total_time_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def nested(depth):
        clock.now += 1
        if depth:
            tracer.call("x.f", nested, (depth - 1,))

    tracer.call("x.f", nested, (2,))
    assert tracer.stats["x.f"].calls == 3
    assert tracer.stats["x.f"].total_s == 3
    assert tracer.stats["x.f"].self_s == 3


def test_install_patches_every_binding_and_uninstall_restores():
    original = rates.invert_rate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert policy.invert_rate is rates.invert_rate is not original
        policy.ss_proposed(cgf.gaussian_cgf(demand.GaussianModel.univariate(1.0)), 5, 0.05)
        assert tracer.stats["rates.invert_rate"].calls == 1
        assert tracer.stats["policy.ss_proposed"].calls == 1
        assert tracer.stats[tracing.EVAL_KEY].calls > 0
    finally:
        tracer.uninstall()
    assert policy.invert_rate is rates.invert_rate is original
    assert "value" in vars(cgf.CgfEvaluator) and cgf.CgfEvaluator.value.__name__ == "value"


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}
