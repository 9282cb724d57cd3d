"""Independent reference computations used by the test suite.

Everything here is built from quadrature, high-precision arithmetic, direct
sampling or the plain whole-array form of a computation, deliberately
avoiding the code paths under test, so module results are checked against a
second route rather than against themselves.  ``recording`` wraps an
evaluator to show where a solve reads it, and ``sequential_search_stock``
sizes a sequential split by search on the exponent, the route its closed
form replaced.
"""

import csv
import itertools
import math
from pathlib import Path

import numpy as np
from scipy import integrate, stats
from scipy.special import ndtri

from stockbound import CgfEvaluator, DemandDataError, EmpiricalDemand, covariance_factor, gaussian_cgf, rate_numeric


def quad_normal_upper_tail(k: float) -> float:
    """Upper tail of the standard normal by adaptive quadrature."""
    if k < 0.0:
        return 1.0 - quad_normal_upper_tail(-k)
    value, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        k,
        k + 40.0,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    return value


def quad_weibull_log_mgf(shape: float, scale: float, u: float, centered: bool = False) -> float:
    """log E[exp(u X)] for Weibull X by quadrature of the density."""

    def integrand(x: float) -> float:
        expo = u * x - (x / scale) ** shape
        if expo < -700.0:
            return 0.0
        return (shape / scale) * (x / scale) ** (shape - 1.0) * math.exp(expo)

    moment, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=500)
    value = math.log(moment)
    if centered:
        value -= u * scale * math.gamma(1.0 + 1.0 / shape)
    return value


def exact_scalar_rate(gradient, epsilon: float, hi: float = 1.0) -> float:
    """max_{u >= 0} (u * eps - phi(u)) given phi'(u), by root finding.

    ``gradient`` maps u to (phi'(u), phi(u)); used to audit inversion
    residuals without trusting the module's own maximizer.
    """
    from scipy.optimize import brentq

    if epsilon <= 0.0:
        return 0.0
    lo = 0.0
    while gradient(hi)[0] < epsilon:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0**120:
            raise RuntimeError("no bracket")
    u = brentq(lambda v: gradient(v)[0] - epsilon, lo, hi, xtol=1e-15)
    return u * epsilon - gradient(u)[1]


def gaussian_cone_rate(cov, eps, signs=None) -> float:
    """Exact per-degree Gaussian rate ``max_{s*u >= 0} [u.eps - u'cov u / 2] / N``.

    Enumerates active sets: with ``v = s * u``, the stationary point on each
    free set solves a small linear system, and the optimum is the best
    candidate with every free coordinate nonnegative (the rest sit at zero).
    Exponential in N, so meant for two or three commodities with positive
    definite covariance.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    s = np.ones(n) if signs is None else np.asarray(signs, dtype=float)
    q = cov * np.outer(s, s)
    c = s * np.asarray(eps, dtype=float).reshape(-1)
    best = 0.0
    for size in range(1, n + 1):
        for free in map(list, itertools.combinations(range(n), size)):
            v = np.linalg.solve(q[np.ix_(free, free)], c[free])
            if np.all(v >= 0.0):
                best = max(best, 0.5 * float(c[free] @ v))
    return best / n


def univariate_proposed_stock(var: float, lead: int, delta: float) -> float:
    """Closed-form proposed stock for one Gaussian commodity: ``sqrt(2 L var log(1/delta))``."""
    return math.sqrt(2.0 * lead * var * math.log(1.0 / delta))


def symmetric_proposed_stock(var: float, rho: float, lead: int, delta: float) -> float:
    """The paper's closed-form proposed stock for two symmetric Gaussian commodities.

    ``sqrt(L var (1 + rho) log(1/delta))``: the correlation-weighted split
    ``delta^((1 + rho) / 2)``, ``delta^((1 - rho) / 2)`` at equal margins.
    """
    return math.sqrt(lead * var * (1.0 + rho) * math.log(1.0 / delta))


def sequential_proposed_stock(vx: float, vy: float, rho: float, lead: int, dx: float, dy: float):
    """The paper's conditional rule: x alone at ``dx``, then y given x at its margin.

    Certified only where the Chernoff cone constraint is slack; for large
    ``rho`` it undersizes y (the conditional tail grows past x's margin).
    """
    ss_x = math.sqrt(2.0 * lead * vx * math.log(1.0 / dx))
    ss_y = rho * math.sqrt(vy / vx) * ss_x + math.sqrt(
        2.0 * lead * vy * (1.0 - rho * rho) * math.log(1.0 / dy)
    )
    return ss_x, ss_y


def sequential_search_stock(model, lead: int, delta: float, dx: float, dy: float):
    """The sequential split by search: x alone at ``dx``, then y by ``brentq`` on the exponent.

    The root of ``exponent(y) - log(1 / delta)`` between y's conditional mean
    and y's own stock at ``delta``, ``hi``, which meets the target alone.
    Returns ``(ss_x, ss_y, exponents)``: the least y at which an evaluated
    exponent met the target (``hi`` unchecked when no iterate did), and the
    exponents read, one rate solve each.
    """
    from scipy.optimize import brentq

    vx, vy, rho = model.var_x, model.var_y, model.correlation
    ss_x = math.sqrt(2.0 * lead * vx * math.log(1.0 / dx))
    cgf, met, exponents = gaussian_cgf(model), [], []

    def gap(ss_y: float) -> float:
        exponents.append(rate_numeric(cgf, [ss_x / lead, ss_y / lead]).exponent(lead))
        if exponents[-1] + math.log(delta) >= 0.0:
            met.append(ss_y)
        return exponents[-1] + math.log(delta)

    hi = math.sqrt(2.0 * lead * vy * math.log(1.0 / delta))
    if gap(hi) > 0.0:
        brentq(gap, rho * math.sqrt(vy / vx) * ss_x, hi, xtol=1e-13 * hi, rtol=1e-15)
    return ss_x, min(met, default=hi), exponents


def sample_bivariate_exceed(a: float, b: float, rho: float, trials: int, seed: int) -> float:
    """Monte Carlo joint upper tail of a standardized bivariate normal."""
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < trials:
        count = min(1 << 18, trials - done)
        x = rng.standard_normal(count)
        y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(count)
        hits += int(np.count_nonzero((x >= a) & (y >= b)))
        done += count
    return hits / trials


def density_joint_tail(a: float, b: float, rho: float) -> tuple[float, float]:
    """``P(X >= a, Y >= b)`` and an error bound, by quadrature of the joint density.

    A second route to the library's conditional quadrature: the standardized
    bivariate normal density is integrated over the exceedance rectangle,
    truncated 10 standard units past each threshold, to absolute tolerances
    near 1e-11.
    """
    width = 10.0
    one_minus = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(one_minus))

    def density(s: float, t: float) -> float:
        return norm * math.exp(-(s * s - 2.0 * rho * s * t + t * t) / (2.0 * one_minus))

    inner_err = 0.0

    def inner(s: float) -> float:
        nonlocal inner_err
        value, abserr, *_ = integrate.quad(
            lambda t: density(s, t), b, b + width, epsabs=1e-13, epsrel=1e-12, limit=200, full_output=1
        )
        inner_err = max(inner_err, abserr)
        return value

    value, outer_err, *_ = integrate.quad(
        inner, a, a + width, epsabs=1e-11, epsrel=1e-11, limit=200, full_output=1
    )
    tails = quad_normal_upper_tail(a + width) + quad_normal_upper_tail(b + width)
    return value, outer_err + width * inner_err + tails


def mpmath_joint_tail(a: float, b: float, rho: float, dps: int = 120) -> float:
    """``P(X >= a, Y >= b)`` by Owen's T function in ``dps``-digit mpmath arithmetic.

    Owen (1956): ``P = (H(a) + H(b)) / 2 - T(a, a') - T(b, b') - beta`` with
    ``a' = (b - rho a) / (a w)``, ``b' = (a - rho b) / (b w)``,
    ``w = sqrt(1 - rho^2)``, and ``beta = 1/2`` when ``a b < 0``.  A slope
    above 1 in magnitude is turned into its reciprocal by
    ``T(h, s) + T(s h, 1 / s) = [H(h) + H(s h)] / 2 - H(h) H(s h)``, so
    every integral spans at most ``[0, 1]``: near ``|rho| = 1`` a slope of
    ``1 / w`` would otherwise stretch it far past the integrand's width.  The
    identity cancels catastrophically in deep tails, so it is evaluated with
    far more digits than the result needs; it refuses a tail smaller than
    ``10 ** (30 - dps)``, where fewer than 30 digits would survive.
    Thresholds must be nonzero.  Needs mpmath.
    """
    import mpmath

    with mpmath.workdps(dps):
        h, k, r = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(rho)
        w = mpmath.sqrt(1 - r * r)

        def tail(x):
            return mpmath.erfc(x / mpmath.sqrt(2)) / 2

        def owen_t(x, slope):
            if abs(slope) > 1:
                # T(h, s) + T(s h, 1 / s) = [H(h) + H(s h)] / 2 - H(h) H(s h)
                # for h >= 0 and s > 0; T is even in h and odd in s
                h, s = abs(x), abs(slope)
                pair = (tail(h) + tail(s * h)) / 2 - tail(h) * tail(s * h)
                return mpmath.sign(slope) * (pair - owen_t(s * h, 1 / s))
            integrand = lambda t: mpmath.exp(-x * x * (1 + t * t) / 2) / (1 + t * t)
            return mpmath.quad(integrand, [0, slope]) / (2 * mpmath.pi)

        beta = 0 if h * k > 0 else mpmath.mpf(1) / 2
        value = (tail(h) + tail(k)) / 2 - owen_t(h, (k - r * h) / (h * w)) - owen_t(k, (h - r * k) / (k * w)) - beta
        if value < mpmath.mpf(10) ** (30 - dps):
            raise ValueError("tail too deep for this precision; raise dps")
        return float(value)


def owens_t_joint_tail(a: float, b: float, rho: float) -> float:
    """``P(X >= a, Y >= b)`` by Owen's T function in double precision (scipy).

    Owen (1956): ``P = W(a, a') + W(b, b') - beta`` with the wedges
    ``W(h, s) = H(h) / 2 - T(h, s)``, ``a' = (b - rho a) / (a w)``,
    ``b' = (a - rho b) / (b w)``, ``w = sqrt(1 - rho^2)`` and ``beta = 1/2``
    when ``a b < 0``.  Two rearrangements keep the terms near the size of
    the result: a wedge with ``h > 0`` and ``s > 1`` is taken as
    ``T(s h, 1 / s) - H(s h) erf(h / sqrt 2) / 2`` (from
    ``T(h, s) + T(s h, 1 / s) = [H(h) + H(s h)] / 2 - H(h) H(s h)``), and one
    negative threshold is reflected, ``P(a, b, rho) = H(b) - P(-a, b, -rho)``,
    so ``beta`` never cancels a small tail.  For tails down to 1e-8 this is
    good to about 1e-11 relative.  Thresholds must be nonzero and ``|rho| < 1``.
    """
    from scipy.special import erf, ndtr, owens_t

    if a < 0.0 < b:
        return ndtr(-b) - owens_t_joint_tail(-a, b, -rho)
    if b < 0.0 < a:
        return ndtr(-a) - owens_t_joint_tail(a, -b, -rho)

    def wedge(h: float, s: float) -> float:
        if h > 0.0 and s > 1.0:
            return owens_t(s * h, 1.0 / s) - 0.5 * ndtr(-s * h) * erf(h / math.sqrt(2.0))
        return 0.5 * ndtr(-h) - owens_t(h, s)

    w = math.sqrt(1.0 - rho * rho)
    beta = 0.0 if a * b > 0.0 else 0.5
    return float(wedge(a, (b - rho * a) / (a * w)) + wedge(b, (a - rho * b) / (b * w)) - beta)


def mpmath_weibull_log_mgf(shape: float, scale: float, u: float, dps: int = 30) -> tuple[float, float]:
    """``log E[exp(u X)]`` and its derivative in ``u`` for Weibull ``X``, in mpmath.

    With ``x = X / scale = e^s`` and ``a = u * scale``, the moments
    ``E[X^j exp(u X)]`` are ``scale^j * shape`` times the integral over all
    real ``s`` of ``exp((shape + j) s + a e^s - e^(shape s))``, for j = 0, 1.
    Each log-integrand has one peak, found by bisection on its slope.  mpmath's
    tanh-sinh quadrature integrates it with the peak value factored out, on
    intervals split 1, 4 and 16 peak widths either side of the peak and at
    ``s = 0``, where ``exp(-x^shape)`` cuts the integrand off, and ending
    where it is below ``e^-250`` of its peak.  The working precision is
    ``dps`` digits plus those of the peak value, which the exponent cancels
    against.  Needs mpmath and ``shape > 1``.
    """
    import mpmath

    def log_moment(power: int, digits: int):
        with mpmath.workdps(digits):
            k, a = mpmath.mpf(shape), mpmath.mpf(u) * mpmath.mpf(scale)
            p = k + power
            log_f = lambda s: p * s + a * mpmath.exp(s) - mpmath.exp(k * s)
            slope = lambda s: p + a * mpmath.exp(s) - k * mpmath.exp(k * s)
            lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
            while slope(lo) <= 0:
                lo *= 2
            while slope(hi) >= 0:
                hi *= 2
            for _ in range(100):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
            peak = (lo + hi) / 2
            top = log_f(peak)
            needed = dps + int(mpmath.log10(abs(top) + 1))
            if digits < needed:
                return log_moment(power, needed)
            width = 1 / mpmath.sqrt(k * p + (k - 1) * a * mpmath.exp(peak))
            ends = []
            for side in (-1, 1):
                m = 1
                while log_f(peak + side * m * width) - top > -250:
                    m *= 2
                ends.append(peak + side * m * width)
            inner = {peak + m * width for m in (-16, -4, -1, 0, 1, 4, 16)} | {mpmath.mpf(0)}
            points = [ends[0], *sorted(x for x in inner if ends[0] < x < ends[1]), ends[1]]
            return top + mpmath.log(k * mpmath.quad(lambda s: mpmath.exp(log_f(s) - top), points))

    log_m0, log_m1 = log_moment(0, dps), log_moment(1, dps)
    return float(log_m0), float(scale * mpmath.exp(log_m1 - log_m0))


def trapezoid_weibull_log_mgf(shape: float, scale: float, u: float, nodes: int = 400_001) -> tuple[float, float]:
    """``log E[exp(u X)]`` and its derivative in ``u`` by the trapezoid rule, in double precision.

    The integrand of ``mpmath_weibull_log_mgf`` for j = 0, summed on
    ``nodes`` equally spaced points of ``s = log(X / scale)`` from 80 / shape
    (or 60 peak widths, if more) below its peak to 60 peak widths above; the
    slope is the mean of ``X`` under the same weights.  For negative ``u``,
    where the peak width is at least ``1 / sqrt(shape + 1)`` or so.
    """
    k, a = shape, u * scale
    slope = lambda s: k + a * math.exp(s) - k * math.exp(k * s)
    lo, hi = -1.0, 1.0
    while slope(lo) <= 0.0:
        lo *= 2.0
    while slope(hi) >= 0.0:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    peak = 0.5 * (lo + hi)
    width = 1.0 / math.sqrt(k * k + (k - 1.0) * a * math.exp(peak))
    start = peak - max(60.0 * width, 80.0 / k)
    step = (peak + 60.0 * width - start) / (nodes - 1)
    s = start + step * np.arange(nodes)
    log_f = k * s + a * np.exp(s) - np.exp(k * s)
    top = float(log_f.max())
    f = np.exp(log_f - top)
    total = float(f.sum())
    return top + math.log(k * total * step), scale * float(f @ np.exp(s)) / total


def event_mask_reference(x, thresholds, pattern: str, signs=None):
    """Rows of ``x`` hitting a stockout pattern, by whole-array ``all``/``any``/``where``."""
    if pattern == "fungible":
        return x.sum(axis=1) >= float(np.asarray(thresholds).reshape(()))
    t = np.asarray(thresholds, dtype=float).reshape(-1)
    if pattern == "all_exceed":
        return np.all(x >= t, axis=1)
    if pattern == "union":
        return np.any(x >= t, axis=1)
    s = np.asarray(signs, dtype=float).reshape(-1)
    return np.all(np.where(s > 0, x >= t, x <= t), axis=1)


# Trials per Monte Carlo chunk; chunk i draws from the i-th stream spawned
# from the seed.  Each chunk is drawn in blocks of MC_BLOCK trials.
MC_CHUNK = 1 << 15
MC_BLOCK = 1 << 13


def monte_carlo_hits_reference(model, thresholds, lead: int, trials: int, seed, pattern: str, signs=None) -> int:
    """Hit count of ``joint_tail_monte_carlo`` by whole-array masks over each block.

    Chunk ``i`` of ``MC_CHUNK`` trials (the last may be shorter) draws from
    ``default_rng(SeedSequence(seed).spawn(k)[i])``, one chunk after another
    on one thread, in blocks of ``MC_BLOCK`` trials.  Within a block of
    ``n`` trials, the count ``m`` that pass the first commodity's test is
    drawn as Binomial(n, p), with ``p`` that test's probability under the
    first demand's normal law (``scipy.stats.norm``).  A one-column event
    stops there.  Otherwise the ``m`` passing trials draw ``z_0`` from the
    normal truncated to the passing side, ``side * H^-1(U p)`` with
    ``U = 1 - rng.random()`` and ``p`` capped at the largest double below 1;
    then commodity ``j >= 1``'s normals are drawn, in trial order, for the
    trials that the first ``j`` commodities leave undecided: for ``union``
    those below every threshold so far, else those meeting the event so far.
    With the factor ``B`` lower-triangular, ``z[:, :j+1] @ B[:j+1, :j+1].T``
    is the demand of the first ``j + 1`` commodities.  A decided trial keeps
    zeros for the normals it never drew, which cannot change its event, so
    the passing trials are counted on ``z @ B.T``.  Fungible demand is one
    pooled normal with scale ``sqrt(L * 1' Sigma 1)``, counted as a
    one-commodity ``all_exceed``.
    """
    if pattern == "fungible":
        factor = np.array([[math.sqrt(lead * max(float(model.covariance.sum()), 0.0))]])
        pattern = "all_exceed"
    else:
        factor = math.sqrt(lead) * covariance_factor(model)
    t = np.asarray(thresholds, dtype=float).reshape(-1)
    s = None if signs is None else np.asarray(signs, dtype=float).reshape(-1)
    dim = t.size

    def undecided(x, j):
        met = event_mask_reference(x, t[: j + 1], pattern, None if s is None else s[: j + 1])
        return ~met if pattern == "union" else met

    # The first demand is f z_0; "above" is whether its test keeps x_0 >= t_0.
    f = float(factor[0, 0])
    above = pattern != "union" and (s is None or s[0] > 0)
    if f == 0.0:
        side, p = 1.0, float(undecided(np.zeros((1, 1)), 0)[0])
    elif above:
        side, p = np.sign(f), float(stats.norm.sf(t[0] / abs(f)))
    else:
        side, p = -np.sign(f), float(stats.norm.cdf(t[0] / abs(f)))
    sizes = [min(MC_CHUNK, trials - start) for start in range(0, trials, MC_CHUNK)]
    passed = 0
    for stream, size in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.default_rng(stream)
        for start in range(0, size, MC_BLOCK):
            m = int(rng.binomial(min(MC_BLOCK, size - start), p))
            if dim == 1 or m == 0:
                passed += m
                continue
            z = np.zeros((m, dim))
            z[:, 0] = side * -ndtri((1.0 - rng.random(m)) * min(p, np.nextafter(1.0, 0.0)))
            live = np.ones(m, dtype=bool)
            for j in range(1, dim):
                z[live, j] = rng.standard_normal(live.sum())
                live = undecided(z[:, : j + 1] @ factor[: j + 1, : j + 1].T, j)
            passed += int(undecided(z @ factor.T, dim - 1).sum())
    return trials - passed if pattern == "union" else passed


def load_demand_csv_reference(path, skip_header: bool = False) -> EmpiricalDemand:
    """Demand-history CSV read cell by cell with ``csv.reader`` and ``float``.

    The loader's former per-cell parser, kept as a second route: it tokenizes
    with Python's csv module and converts each cell with ``float``, and names
    the first bad record with the same messages as ``load_demand_csv``.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    with path.open(newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if skip_header and not rows and lineno == 1:
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise DemandDataError(
                    f"{path}: row {lineno} has {len(record)} columns, expected {width}"
                )
            parsed = []
            for col, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise DemandDataError(
                        f"{path}: row {lineno}, column {col}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DemandDataError(
                        f"{path}: row {lineno}, column {col}: value is not finite"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DemandDataError(f"{path}: no demand rows found")
    return EmpiricalDemand(np.array(rows))


def recording(base: CgfEvaluator) -> tuple[CgfEvaluator, list]:
    """``base`` as a new evaluator, and the list it appends each point read to, as a tuple."""
    points = []

    def both(u):
        points.append(tuple(float(x) for x in u))
        return base.value_and_gradient(u)

    return CgfEvaluator(dim=base.dim, domain=base.domain, model=base.model, _value_and_grad=both), points
