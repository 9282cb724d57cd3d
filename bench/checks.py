"""Independent references and the checks that compare program outputs to them.

Nothing here calls into ``stockbound``: Gaussian tails come from Owen's T
function (``scipy.special.owens_t``) and ``scipy.stats.multivariate_normal``,
Gaussian cone rates from enumerating active sets, Weibull transforms from
quadrature of the density, and empirical transforms from a plain numpy
log-mean-exp.  Each ``check_*`` function returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import owens_t
from scipy.stats import multivariate_normal, norm

# Monte Carlo estimates must land within this many standard errors of the
# exact probability; a run makes a few hundred estimates, and a 5 SE miss has
# probability 6e-7 each.
MC_SE_LIMIT = 5.0
# Every operation's rate target is met to 1e-10 per period; allow for that,
# for the 12 significant digits of CSV output and for quadrature error.
SIZING_RTOL = 1e-6
# Projected ascent stops on a small step, not on optimality, so its bound may
# sit slightly above exp(-L N R*); measured gaps stay below 1e-3.
BOUND_SLACK = 1e-3


# ---------------------------------------------------------------------------
# Gaussian tails


def _bvn_lower(x: float, y: float, rho: float) -> float:
    """P(X <= x, Y <= y) for a standard bivariate normal, by Owen's T."""
    if rho >= 1.0:
        return float(norm.cdf(min(x, y)))
    if rho <= -1.0:
        return max(0.0, float(norm.cdf(x) - norm.cdf(-y)))
    if x == 0.0 and y == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    root = math.sqrt(1.0 - rho * rho)

    def t_term(h: float, k: float) -> float:
        if h == 0.0:
            return math.copysign(0.25, k - rho * h)
        return float(owens_t(h, (k - rho * h) / (h * root)))

    beta = 0.0 if (x * y > 0.0 or (x * y == 0.0 and x + y >= 0.0)) else 0.5
    value = 0.5 * (norm.cdf(x) + norm.cdf(y)) - t_term(x, y) - t_term(y, x) - beta
    return min(1.0, max(0.0, float(value)))


def bvn_upper(h: float, k: float, rho: float) -> float:
    """P(X >= h, Y >= k) for a standard bivariate normal with correlation rho."""
    return _bvn_lower(-h, -k, rho)


def gaussian_pattern_prob(cov, thresholds, pattern: str, signs=None) -> float:
    """Exact probability of a stockout pattern for N(0, cov) demand.

    ``thresholds`` are absolute (already multiplied by the lead time, with
    ``cov`` the lead-time covariance).  Two commodities use Owen's T, three
    use ``multivariate_normal.cdf`` with a fixed stream and tight tolerance.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    if pattern == "fungible":
        total = float(cov.sum())
        return float(norm.sf(float(thresholds) / math.sqrt(total)))
    t = np.asarray(thresholds, dtype=float).reshape(-1)
    sd = np.sqrt(np.diag(cov))
    if pattern == "union":
        rho = cov[0, 1] / (sd[0] * sd[1])
        a, b = t / sd
        return float(norm.sf(a) + norm.sf(b) - bvn_upper(a, b, rho))
    s = np.ones(n) if pattern == "all_exceed" else np.asarray(signs, dtype=float)
    if pattern not in ("all_exceed", "orthant"):
        raise ValueError(f"unknown pattern {pattern!r}")
    # The event s_i * X_i >= s_i * t_i for all i is an upper orthant of s * X.
    flipped = cov * np.outer(s, s)
    lower = s * t
    if n == 2:
        rho = flipped[0, 1] / (sd[0] * sd[1])
        return bvn_upper(lower[0] / sd[0], lower[1] / sd[1], rho)
    return float(
        multivariate_normal.cdf(
            -lower, mean=np.zeros(n), cov=flipped, abseps=1e-9, releps=1e-9, rng=12345
        )
    )


# ---------------------------------------------------------------------------
# Gaussian rates


def cone_rate(cov, eps, signs=None) -> float:
    """Exact per-degree rate max_{s*u >= 0} [u.eps - u'cov u / 2] / N.

    Enumerates the free set of the concave quadratic program: on each subset
    the stationary point solves a small linear system, and the optimum is the
    best candidate that stays inside the cone.  Practical for N <= 3.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    s = np.ones(n) if signs is None else np.asarray(signs, dtype=float)
    q = cov * np.outer(s, s)
    c = s * np.asarray(eps, dtype=float).reshape(-1)
    best = 0.0
    for size in range(1, n + 1):
        for free in itertools.combinations(range(n), size):
            idx = list(free)
            v = np.linalg.solve(q[np.ix_(idx, idx)], c[idx])
            if np.all(v >= 0.0):
                best = max(best, 0.5 * float(c[idx] @ v))
    return best / n


def pooled_rate(cov, eps: float) -> float:
    """Per-period rate of the summed demand: eps^2 / (2 * 1'cov 1)."""
    if eps <= 0.0:
        return 0.0
    return eps * eps / (2.0 * float(np.asarray(cov, dtype=float).sum()))


def chernoff_reference(cov, eps, lead: int, pattern: str, signs=None) -> float:
    """The Chernoff bound a perfect solver returns for Gaussian demand."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    if pattern == "fungible":
        return min(1.0, math.exp(-lead * pooled_rate(cov, float(eps))))
    eps = np.asarray(eps, dtype=float).reshape(-1)
    if pattern == "union":
        first = max(eps[0], 0.0) ** 2 / (2.0 * cov[0, 0])
        mixed = cone_rate(cov, eps, [-1.0, 1.0])
        return min(1.0, math.exp(-lead * first) + math.exp(-lead * n * mixed))
    s = None if pattern == "all_exceed" else signs
    return min(1.0, math.exp(-lead * n * cone_rate(cov, eps, s)))


def check_bound(bound: float, cov, eps, lead: int, pattern: str, signs=None) -> list[str]:
    """A certified bound lies between the exact tail and the optimal Chernoff bound."""
    problems = []
    cov = np.asarray(cov, dtype=float)
    optimal = chernoff_reference(cov, eps, lead, pattern, signs)
    thresholds = lead * (float(eps) if pattern == "fungible" else np.asarray(eps, dtype=float))
    exact = gaussian_pattern_prob(lead * cov, thresholds, pattern, signs)
    if not (isinstance(bound, float) and math.isfinite(bound)):
        return [f"bound {bound!r} is not a finite float"]
    if bound < exact * (1.0 - 1e-6) - 1e-9:
        problems.append(f"bound {bound:.6g} is below the exact probability {exact:.6g}")
    if bound < optimal * (1.0 - 1e-9):
        problems.append(f"bound {bound:.6g} is below the optimal Chernoff bound {optimal:.6g}")
    if bound > min(1.0, optimal * (1.0 + BOUND_SLACK)):
        problems.append(f"bound {bound:.6g} exceeds the optimal Chernoff bound {optimal:.6g}")
    return problems


# ---------------------------------------------------------------------------
# Scalar transforms and rate inversion


def weibull_log_mgf(shape: float, scale: float, u: float) -> tuple[float, float]:
    """(log E[exp(uX)], d/du of it) for Weibull X, by quadrature of the density."""

    def weighted(power: int):
        def integrand(x: float) -> float:
            expo = u * x - (x / scale) ** shape
            if expo < -745.0:
                return 0.0
            return x**power * (shape / scale) * (x / scale) ** (shape - 1.0) * math.exp(expo)

        value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        return value

    moment = weighted(0)
    return math.log(moment), weighted(1) / moment


def scalar_rate(log_mgf, mean: float, eps: float, edge: float = math.inf, closed: bool = True) -> float:
    """max over 0 <= u < edge of u*eps - (log M(u) - u*mean), by brentq on the slope.

    ``log_mgf(u)`` returns (log M(u), its derivative).  The maximizer sits
    where the slope ``dlogM/du - mean`` meets ``eps``; on a ``closed`` finite
    edge it may sit on the edge itself, while an open edge is a pole that the
    slope runs up to.
    """
    if eps <= 0.0:
        return 0.0

    def slope(u: float) -> float:
        return log_mgf(u)[1] - mean - eps

    if math.isfinite(edge) and closed and slope(edge) <= 0.0:
        u_star = edge
    else:
        lo, hi = 0.0, 0.5 * edge if math.isfinite(edge) else 1.0
        while slope(hi) < 0.0:
            lo, hi = hi, 0.5 * (hi + edge) if math.isfinite(edge) else 2.0 * hi
        u_star = brentq(slope, lo, hi, xtol=1e-14, rtol=1e-14, maxiter=500)
    return u_star * eps - (log_mgf(u_star)[0] - u_star * mean)


def empirical_log_mgf(sums: np.ndarray, periods: int):
    """Per-period log-mean-exp of replicate totals and its derivative."""
    sums = np.asarray(sums, dtype=float)

    def log_mgf(u: float) -> tuple[float, float]:
        z = u * sums
        w = np.exp(z - z.max())
        value = (z.max() + math.log(w.mean())) / periods
        return value, float((w * sums).sum() / w.sum()) / periods

    return log_mgf


def check_sized(stock: float, lead: int, delta: float, log_mgf, mean: float,
                edge: float = math.inf, closed: bool = True):
    """The bound exp(-L * R(stock / L)) at the returned stock equals delta."""
    if not (isinstance(stock, float) and math.isfinite(stock) and stock > 0.0):
        return [f"stock {stock!r} is not a positive finite float"]
    bound = math.exp(-lead * scalar_rate(log_mgf, mean, stock / lead, edge, closed))
    if abs(bound - delta) > SIZING_RTOL * delta:
        return [f"bound at stock {stock:.10g} is {bound:.10g}, not delta={delta:.10g}"]
    return []


def check_close(name: str, got: float, want: float, rtol: float, atol: float = 0.0):
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        return [f"{name} is {got!r}, reference {want!r}"]
    return []


# ---------------------------------------------------------------------------
# Policy comparisons


def symmetric_proposed(var: float, rho: float, lead: int, delta: float) -> float:
    """Closed-form proposed stock for two symmetric Gaussian commodities."""
    return math.sqrt(lead * var * (1.0 + rho) * math.log(1.0 / delta))


def previous_stock(var: float, lead: int, delta: float) -> float:
    """Per-commodity normal-tail stock at sqrt(delta)."""
    return math.sqrt(lead * var) * float(norm.isf(math.sqrt(delta)))


def joint_exceed(stock: float, var: float, rho: float, lead: int) -> float:
    """Exact P(both lead-time deviations >= stock)."""
    z = stock / math.sqrt(lead * var)
    return bvn_upper(z, z, rho)


# Exact tails in the program are bisected to 1e-9 and printed with 12 digits.
TAIL_ATOL = 5e-9


def check_policy_csv(text: str, command: str, var: float, rho: float, lead: int, deltas):
    """Check every row of a ``compute``/``figure fig1|fig2`` CSV."""
    lines = text.strip().splitlines()
    header = {
        "compute": "delta,ss_pre,ss_pro,ss_rig,p_pre,p_pro,p_rig,ratio_pro,ratio_pre",
        "fig1": "delta,ratio_pro,ratio_pre",
        "fig2": "delta,p_pro_over_delta,p_pre_over_delta",
    }[command]
    if not lines or lines[0] != header:
        return [f"header {lines[:1]!r} is not {header!r}"]
    if len(lines) - 1 != len(deltas):
        return [f"{len(lines) - 1} rows for {len(deltas)} rates"]
    problems = []
    for line, delta in zip(lines[1:], deltas):
        row = dict(zip(header.split(","), (float(cell) for cell in line.split(","))))
        problems += check_close("delta", row["delta"], delta, 1e-11)
        pro = symmetric_proposed(var, rho, lead, delta)
        pre = previous_stock(var, lead, delta)
        p_pro = joint_exceed(pro, var, rho, lead)
        p_pre = joint_exceed(pre, var, rho, lead)
        if p_pro > delta * (1.0 + 1e-9):
            problems.append(f"proposed stock is not certified at delta={delta}: {p_pro}")
        if command == "compute":
            problems += check_close("ss_pro", row["ss_pro"], pro, 1e-10)
            problems += check_close("ss_pre", row["ss_pre"], pre, 1e-10, 1e-11)
            problems += check_close("p_pro", row["p_pro"], p_pro, 1e-9, 1e-15)
            problems += check_close("p_pre", row["p_pre"], p_pre, 1e-9, 1e-15)
            problems += _check_rigorous(row["ss_rig"], var, rho, lead, delta)
            problems += check_close("p_rig", row["p_rig"], joint_exceed(row["ss_rig"], var, rho, lead), 1e-9, 1e-15)
            problems += _check_ratios(row, row["ss_pro"], row["ss_pre"], row["ss_rig"])
        elif command == "fig1":
            # A floored rigorous stock makes both ratios infinite.
            rig = 0.0 if row["ratio_pro"] == math.inf else pro / row["ratio_pro"]
            problems += _check_rigorous(rig, var, rho, lead, delta)
            problems += _check_ratios(row, pro, pre, rig, 1e-9)
        else:
            problems += check_close("p_pro_over_delta", row["p_pro_over_delta"], p_pro / delta, 1e-9, 1e-12)
            problems += check_close("p_pre_over_delta", row["p_pre_over_delta"], p_pre / delta, 1e-9, 1e-12)
    return problems


def _check_ratios(row: dict, pro: float, pre: float, rig: float, rtol: float = 1e-10):
    if rig == 0.0:
        if row["ratio_pro"] == math.inf and row["ratio_pre"] == math.inf:
            return []
        return [f"ratios {row['ratio_pro']!r}, {row['ratio_pre']!r} for a floored rigorous stock"]
    return check_close("ratio_pro", row["ratio_pro"], pro / rig, rtol) + check_close(
        "ratio_pre", row["ratio_pre"], pre / rig, rtol
    )


def _check_rigorous(stock: float, var: float, rho: float, lead: int, delta: float):
    if stock == 0.0:
        if delta < joint_exceed(0.0, var, rho, lead):
            return [f"rigorous stock floored at zero although P(0) > delta={delta}"]
        return []
    exact = joint_exceed(stock, var, rho, lead)
    if abs(exact - delta) > TAIL_ATOL:
        return [f"exact tail at the rigorous stock {stock:.10g} is {exact:.10g}, not {delta:.10g}"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo


def check_mc(estimate: float, trials: int, exact: float) -> list[str]:
    """A Monte Carlo frequency within MC_SE_LIMIT standard errors of the exact value."""
    se = math.sqrt(max(exact * (1.0 - exact), 1e-300) / trials)
    if not abs(estimate - exact) <= MC_SE_LIMIT * se:
        return [
            f"Monte Carlo rate {estimate:.6g} is {abs(estimate - exact) / se:.1f} SE "
            f"from the exact {exact:.6g}"
        ]
    return []


def parse_report(text: str) -> dict[str, str]:
    """``key: value`` lines of a ``validate`` report."""
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def check_validate(text: str, status: int, var: float, rho: float, lead: int, delta: float, trials: int):
    """Check a ``validate`` report on symmetric bivariate Gaussian demand.

    The stock must be the closed-form proposed stock, the simulated rate must
    match the exact tail of the mean-centred lead-time demand at that stock,
    and the verdict must follow from the printed rate and limit.
    """
    report = parse_report(text)
    try:
        stocks = [float(s) for s in report["stock"].split(",")]
        hits = int(report["stockouts"])
        rate = float(report["empirical_rate"])
        limit = float(report["limit"])
        reported_trials = int(report["trials"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable validate report ({exc}): {text!r}"]
    problems = []
    stock = symmetric_proposed(var, rho, lead, delta)
    for s in stocks:
        problems += check_close("stock", s, stock, 1e-10)
    if reported_trials != trials:
        problems.append(f"trials {reported_trials} != {trials}")
    problems += check_close("empirical_rate", rate, hits / trials, 1e-11)
    problems += check_mc(rate, trials, joint_exceed(stock, var, rho, lead))
    expected_limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    problems += check_close("limit", limit, expected_limit, 1e-11)
    verdict = "PASS" if rate <= limit else "FAIL"
    if report.get("result") != verdict or status != (0 if verdict == "PASS" else 1):
        problems.append(f"verdict {report.get('result')!r} / exit {status} for rate {rate} and limit {limit}")
    elif verdict == "FAIL":
        problems.append(f"certified stock failed validation: rate {rate} > limit {limit}")
    return problems
