"""Independent reference computations used by the test suite.

Everything here is built from quadrature, high-precision arithmetic, direct
sampling or the plain whole-array form of a computation, deliberately
avoiding the code paths under test, so module results are checked against a
second route rather than against themselves.
"""

import itertools
import math

import numpy as np
from scipy import integrate


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
    ``w = sqrt(1 - rho^2)``, and ``beta = 1/2`` when ``a b < 0``.  The
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
            integrand = lambda t: mpmath.exp(-x * x * (1 + t * t) / 2) / (1 + t * t)
            return mpmath.quad(integrand, [0, slope]) / (2 * mpmath.pi)

        beta = 0 if h * k > 0 else mpmath.mpf(1) / 2
        value = (tail(h) + tail(k)) / 2 - owen_t(h, (k - r * h) / (h * w)) - owen_t(k, (h - r * k) / (k * w)) - beta
        if value < mpmath.mpf(10) ** (30 - dps):
            raise ValueError("tail too deep for this precision; raise dps")
        return float(value)


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
