"""Acceptance gate: the headline guarantees, one printed verdict per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check here exercises a full pipeline at its stated tolerance; the unit
modules cover the pieces in isolation.
"""

import math
import time

import numpy as np
import pytest

from stockbound import (
    FUNGIBLE,
    GaussianModel,
    TailQuery,
    bivariate_joint_tail,
    chernoff_bound,
    compare_policies,
    empirical_cgf_estimate,
    EmpiricalDemand,
    gaussian_cgf,
    invert_rate,
    joint_tail_monte_carlo,
    normal_upper_tail,
    rate_numeric,
    ss_fungible,
    ss_proposed,
)
from stockbound import policy

from oracles import (
    density_joint_tail,
    gaussian_cone_rate,
    sequential_proposed_stock,
    sequential_search_stock,
    symmetric_proposed_stock,
    univariate_proposed_stock,
)

LEAD = 10
DELTA_GRID = np.geomspace(1e-3, 0.5, 40)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_sweep():
    model = GaussianModel.bivariate(1.0, 1.0, 0.9)
    start = time.perf_counter()
    rows = compare_policies(model, LEAD, DELTA_GRID)
    return rows, time.perf_counter() - start


def test_sweep_finishes_fast_with_moderate_overhead(default_sweep):
    rows, elapsed = default_sweep
    ratios = [row.ratio_pro for row in rows if row.delta < 0.1]
    ok = elapsed < 60.0 and all(1.15 <= r <= 1.95 for r in ratios)
    report(
        "sweep speed and stock overhead window",
        ok,
        f"{elapsed:.2f}s, ratio range [{min(ratios):.4f}, {max(ratios):.4f}]",
    )


def test_certificate_holds_where_previous_rule_breaks(default_sweep):
    rows, _ = default_sweep
    worst_pro = max(row.p_pro / row.delta for row in rows)
    worst_pre = min(row.p_pre / row.delta for row in rows)
    ok = worst_pro <= 1.0 and worst_pre > 1.0
    report(
        "certified rule meets its rate, previous rule misses",
        ok,
        f"max p_pro/delta {worst_pro:.4f}, min p_pre/delta {worst_pre:.4f}",
    )


def test_bound_dominates_exact_and_simulated_tails():
    rng = np.random.default_rng(20240817)
    worst_gap = -math.inf
    for _ in range(100):
        vx, vy = rng.uniform(0.25, 4.0, size=2)
        rho = rng.uniform(-0.95, 0.95)
        eps = rng.uniform(0.0, 2.0, size=2)
        lead = int(rng.integers(1, 21))
        model = GaussianModel.bivariate(vx, vy, rho)
        bound = chernoff_bound(gaussian_cgf(model), eps, lead)
        exact = bivariate_joint_tail(
            TailQuery.from_margins(model, lead * eps[0], lead * eps[1], lead)
        ).probability
        worst_gap = max(worst_gap, exact - bound)
    ok = worst_gap <= 1e-12

    worst_mc = -math.inf
    for k in range(10):
        vx, vy = rng.uniform(0.25, 4.0, size=2)
        rho = rng.uniform(-0.95, 0.95)
        eps = rng.uniform(0.2, 1.2, size=2)
        model = GaussianModel.bivariate(vx, vy, rho)
        bound = chernoff_bound(gaussian_cgf(model), eps, 5)
        mc = joint_tail_monte_carlo(
            model, 5 * eps, 5, 1_000_000, seed=[20240817, k]
        )
        worst_mc = max(worst_mc, mc.probability - (bound + mc.error))
    ok = ok and worst_mc <= 0.0
    report(
        "bound dominates quadrature and simulation",
        ok,
        f"worst exact gap {worst_gap:.2e}, worst sampled gap {worst_mc:.2e}",
    )


def test_closed_form_and_ascent_rates_agree():
    worst = 0.0
    for rho in (-0.9, 0.0, 0.5, 0.9):
        model = GaussianModel.bivariate(1.0, 1.0, rho)
        cgf = gaussian_cgf(model)
        for e1 in range(4):
            for e2 in range(4):
                eps = [float(e1), float(e2)]
                closed = gaussian_cone_rate(model.covariance, eps)
                numeric = rate_numeric(cgf, eps).rate
                worst = max(worst, abs(closed - numeric))
    ok = worst <= 1e-9
    report("closed-form and numeric rates agree", ok, f"worst |difference| {worst:.2e}")


def test_quadrature_routes_factorization_and_sampling_agree():
    thresholds = (0.0, 0.75, 1.5, 2.25, 3.0)
    worst_pair = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for a in thresholds:
            for b in thresholds:
                query = TailQuery(a, b, rho)
                cond = bivariate_joint_tail(query).probability
                dens = density_joint_tail(a, b, rho)[0]
                worst_pair = max(worst_pair, abs(cond - dens))
    ok = worst_pair <= 1e-6

    from stockbound import normal_upper_tail

    worst_indep = max(
        abs(
            bivariate_joint_tail(TailQuery(a, b, 0.0)).probability
            - normal_upper_tail(a) * normal_upper_tail(b)
        )
        for a in thresholds
        for b in thresholds
    )
    ok = ok and worst_indep <= 1e-10

    model = GaussianModel.bivariate(1.0, 1.0, 0.9)
    exact = bivariate_joint_tail(TailQuery(1.0, 1.0, 0.9)).probability
    mc = joint_tail_monte_carlo(model, [1.0, 1.0], 1, 10_000_000, seed=11)
    mc_gap = abs(mc.probability - exact)
    ok = ok and mc_gap <= mc.error
    report(
        "tail probability routes agree",
        ok,
        f"route gap {worst_pair:.2e}, factorization gap {worst_indep:.2e}, "
        f"sampling gap {mc_gap:.2e} vs {mc.error:.2e}",
    )


def test_rigorous_stock_meets_delta_to_relative_precision():
    pytest.importorskip("mpmath")
    from oracles import mpmath_joint_tail

    from stockbound import ss_rigorous

    worst_over, worst_under = -math.inf, -math.inf
    for rho in (-0.9, 0.0, 0.9):
        model = GaussianModel.bivariate(1.0, 1.0, rho)
        for delta in (0.2, 1e-3, 1e-6, 1e-12):
            ss = ss_rigorous(model, LEAD, delta)
            if ss == 0.0:
                continue
            ratio = mpmath_joint_tail(ss / math.sqrt(LEAD), ss / math.sqrt(LEAD), rho) / delta
            worst_over = max(worst_over, ratio - 1.0)
            worst_under = max(worst_under, 1.0 - ratio)
    ok = worst_over <= 0.0 and worst_under <= 1e-9
    report(
        "rigorous stock meets delta from below, to 1e-9 relative",
        ok,
        f"largest P/delta - 1 {worst_over:.2e}, largest 1 - P/delta {worst_under:.2e}",
    )


def test_rate_inversion_matches_gaussian_closed_form():
    worst = 0.0
    for var, lead in ((1.0, 10), (2.5, 5)):
        cgf = gaussian_cgf(GaussianModel.univariate(var))
        for delta in (1e-4, 1e-3, 0.01, 0.05, 0.1):
            got = invert_rate(cgf, delta, lead)
            want = math.sqrt(2.0 * lead * var * math.log(1.0 / delta))
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-12
    report("rate inversion hits the closed form", ok, f"worst relative error {worst:.2e}")


def test_estimation_error_shrinks_with_replicates():
    u_grid = np.linspace(-1.0, 1.0, 9)
    u_grid = u_grid[np.abs(u_grid) > 1e-12]
    medians = {}
    for m in (100, 100_000):
        errs = np.empty((20, len(u_grid)))
        for s in range(20):
            data = EmpiricalDemand(
                np.random.default_rng([9001, m, s]).standard_normal((m, 1))
            )
            for j, u in enumerate(u_grid):
                errs[s, j] = abs(empirical_cgf_estimate(data, u) - 0.5 * u * u)
        medians[m] = np.median(errs, axis=0)
    ordered = bool(np.all(medians[100_000] < medians[100]))
    small = float(medians[100_000].max())
    ok = ordered and small < 0.02
    report(
        "estimation error shrinks with replicates",
        ok,
        f"ordered at every u: {ordered}, largest large-sample median {small:.2e}",
    )


def test_pooled_stock_grows_with_correlation_and_certifies():
    delta = 0.05
    rhos = (-0.99, -0.5, 0.0, 0.5, 0.99)
    stocks = [
        ss_fungible(GaussianModel.bivariate(1.0, 1.0, rho), LEAD, delta) for rho in rhos
    ]
    ordered = all(lo <= hi for lo, hi in zip(stocks, stocks[1:]))

    model = GaussianModel.bivariate(1.0, 1.0, 0.5)
    ss = ss_fungible(model, LEAD, delta)
    mc = joint_tail_monte_carlo(model, ss, LEAD, 1_000_000, seed=5, pattern=FUNGIBLE)
    certified = mc.probability <= delta + mc.error
    ok = ordered and certified
    report(
        "pooled stock grows with correlation and certifies",
        ok,
        f"stocks {np.round(stocks, 3).tolist()}, sampled rate {mc.probability:.4f} "
        f"vs target {delta}",
    )


def test_three_commodity_bound_dominates_simulation():
    rng = np.random.default_rng(77)
    lead = 4
    worst_gap = -math.inf
    all_converged = True
    for trial in range(2):
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cov = basis @ np.diag(rng.uniform(0.3, 2.0, size=3)) @ basis.T
        cov = 0.5 * (cov + cov.T)
        model = GaussianModel(np.zeros(3), cov)
        cgf = gaussian_cgf(model)
        for k in range(5):
            eps = rng.uniform(0.2, 1.2, size=3)
            result = rate_numeric(cgf, eps)
            all_converged = all_converged and result.converged
            bound = min(1.0, math.exp(-result.exponent(lead)))
            mc = joint_tail_monte_carlo(
                model, lead * eps, lead, 1_000_000, seed=[7, trial, k]
            )
            worst_gap = max(worst_gap, mc.probability - (bound + mc.error))
    ok = all_converged and worst_gap <= 0.0
    report(
        "three-commodity bound dominates simulation",
        ok,
        f"all solves converged: {all_converged}, worst sampled gap {worst_gap:.2e}",
    )


def test_exponent_solve_reproduces_the_closed_forms():
    worst = 0.0
    for var in (0.25, 1.0, 4.0):
        for lead in (1, 5, 10, 20):
            for delta in (0.4, 0.05, 1e-3, 1e-6, 1e-12):
                got = ss_proposed(GaussianModel.univariate(var), lead, delta).ss
                want = univariate_proposed_stock(var, lead, delta)
                worst = max(worst, float(np.abs(got / want - 1.0).max()))
                for rho in (-0.99, -0.9, -0.5, 0.0, 0.3, 0.6, 0.9, 0.99):
                    model = GaussianModel.bivariate(var, var, rho)
                    got = ss_proposed(model, lead, delta).ss
                    want = symmetric_proposed_stock(var, rho, lead, delta)
                    worst = max(worst, float(np.abs(got / want - 1.0).max()))
    ok = worst <= 1e-14
    report("exponent solve reproduces the closed forms", ok, f"worst relative error {worst:.2e}")


def test_sequential_stock_is_certified():
    # Splits as powers of delta; None is the paper's sqrt(delta) each.
    splits = (None, (0.1, 0.9), (0.9, 0.1))
    worst_exact, worst_bound, worst_kept, kept, short, cases = 0.0, 0.0, 0.0, 0, 0, 0
    for split in splits:
        for rho in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.9, 0.99):
            for var_y in (0.25, 1.0, 4.0):
                model = GaussianModel.bivariate(1.0, var_y, rho)
                cgf = gaussian_cgf(model)
                for delta in (0.3, 0.05, 1e-3, 1e-6, 1e-12):
                    powers = split or (0.5, 0.5)
                    dx, dy = delta ** powers[0], delta ** powers[1]
                    given = (math.sqrt(delta),) * 2 if split is None else (dx, dy)
                    ss = ss_proposed(model, LEAD, delta, given).ss
                    query = TailQuery.from_margins(model, ss[0], ss[1], LEAD)
                    worst_exact = max(worst_exact, bivariate_joint_tail(query).probability / delta)
                    worst_bound = max(worst_bound, chernoff_bound(cgf, ss / LEAD, LEAD) / delta)
                    # the certificate: an evaluated exponent of at least log(1 / delta)
                    short += rate_numeric(cgf, ss / LEAD).exponent(LEAD) + math.log(delta) < 0.0
                    # where the conditional rule was already certified, it stands
                    former = np.array(sequential_proposed_stock(1.0, var_y, rho, LEAD, dx, dy))
                    if chernoff_bound(cgf, former / LEAD, LEAD) <= delta * (1.0 + 1e-9):
                        kept += 1
                        worst_kept = max(worst_kept, float(np.abs(ss / former - 1.0).max()))
                    cases += 1
    ok = cases == 315 and worst_exact <= 1.0 and worst_bound <= 1.0 + 1e-9 and short == 0
    ok = ok and kept == 225 and worst_kept <= 1e-9
    report(
        "sequential stock is certified",
        ok,
        f"{cases} cases: max P/delta {worst_exact:.3g}, max bound/delta {worst_bound:.12g}, "
        f"{short} short of the target exponent; {kept} formerly certified, worst change {worst_kept:.2e}",
    )


def test_sequential_closed_form_matches_the_search(monkeypatch):
    # Random splits against the brentq search on the exponent; at rho = -1
    # y sits just past its conditional mean m, where the exponent jumps.
    rng = np.random.default_rng(2017)

    def split(rho):
        vx, vy = rng.uniform(0.2, 3.0, 2)
        delta = 10.0 ** rng.uniform(-12.0, math.log10(0.3))
        return vx, vy, rho, int(rng.integers(1, 30)), delta, rng.uniform(0.1, 0.9)

    cases = [split(rng.uniform(-0.99, 0.99)) for _ in range(400)]
    cases += [split(rho) for rho in (1.0, -1.0) for _ in range(3)]
    solves, counts, searched = [], [], 0
    solve = policy.rate_numeric
    monkeypatch.setattr(policy, "rate_numeric", lambda *args: solves.append(args) or solve(*args))
    worst_rel, worst_far, short = 0.0, 0.0, 0
    for vx, vy, rho, lead, delta, share in cases:
        model = GaussianModel.bivariate(vx, vy, rho)
        dx = delta**share
        ref_x, ref_y, exponents = sequential_search_stock(model, lead, delta, dx, delta / dx)
        searched += len(exponents)
        solves.clear()
        ss_x, ss_y = ss_proposed(model, lead, delta, (dx, delta / dx)).ss
        counts.append(len(solves))
        assert ss_x == ref_x
        exponent = solve(gaussian_cgf(model), [ss_x / lead, ss_y / lead]).exponent(lead)
        short += exponent + math.log(delta) < 0.0
        if abs(rho) < 1.0:
            worst_rel = max(worst_rel, abs(ss_y / ref_y - 1.0))
        elif rho == -1.0:
            mean_y = rho * math.sqrt(vy / vx) * ss_x
            worst_far = max(worst_far, (ss_y - mean_y) / (ref_y - mean_y))
    mean_solves = sum(counts) / len(counts)
    ok = worst_rel <= 5e-11 and worst_far <= 2.0 and short == 0 and mean_solves <= 2.0 and max(counts) <= 40
    report(
        "sequential closed form matches the search",
        ok,
        f"{len(cases)} splits: worst relative change {worst_rel:.2e}, at rho = -1 at most "
        f"{worst_far:.3g}x the search's distance past the mean, {short} short of the target; "
        f"{mean_solves:.2f} rate solves per split (the search: {searched / len(cases):.2f}), "
        f"at most {max(counts)}",
    )


def test_exponent_solve_sizes_three_and_singular_commodities():
    from scipy.stats import multivariate_normal

    cov = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.8], [0.3, 0.8, 2.0]])
    model = GaussianModel(np.zeros(3), cov)
    ratios = []
    for delta in (1e-2, 1e-4, 1e-6):
        ss = ss_proposed(model, LEAD, delta).ss
        # P(X >= ss) = P(-X <= -ss), and -X has the same centred law
        genz = multivariate_normal(cov=LEAD * cov, seed=3, abseps=1e-3 * delta, releps=1e-4)
        ratios.append(float(genz.cdf(-ss)) / delta)
    ok = max(ratios) <= 1.0

    # Singular demand: y = -x, a deterministic commodity, and a perfectly
    # correlated pair beside an independent third, whose tail is a product.
    singular = {
        "rho=-1": GaussianModel.bivariate(1.0, 1.0, -1.0),
        "var_y=0": GaussianModel(np.zeros(2), np.diag([1.0, 0.0])),
        "rank 2": GaussianModel(np.zeros(3), [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    }
    delta = 1e-4
    stocks = {name: ss_proposed(m, LEAD, delta).ss for name, m in singular.items()}
    # The first two stockout events are empty at any positive stock.
    ok = ok and all(np.all(np.isfinite(ss)) and np.all(ss > 0.0) for ss in stocks.values())
    p_rank2 = normal_upper_tail(stocks["rank 2"][0] / math.sqrt(LEAD)) ** 2
    ok = ok and p_rank2 <= delta
    report(
        "exponent solve sizes three and singular commodities",
        ok,
        f"Genz P/delta {np.round(ratios, 4).tolist()}, rank-2 P/delta {p_rank2 / delta:.4f}, "
        f"singular stocks {[f'{ss.min():.3g}' for ss in stocks.values()]}",
    )
