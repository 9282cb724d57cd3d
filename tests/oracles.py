"""Independent reference computations used by the test suite.

Everything here is built from quadrature or direct sampling, deliberately
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
