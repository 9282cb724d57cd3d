"""Cumulant generating functions, their gradients, and estimation certificates.

For per-period demand ``D`` (a vector over commodities) the per-period CGF is
``phi(u) = log E[exp(u . D)]``.  Because periods are i.i.d., the CGF of the
demand summed over ``L`` periods is ``L * phi(u)``, so everything here is
normalized per period.  Evaluators built for tail analysis are mean-centered:
``phi(0) = 0`` and ``grad phi(0) = 0``, which makes ``phi`` convex with a
minimum at the origin.

The empirical estimator follows the plug-in rule

    phi_hat(u) = (1/L) * log( (1/M) * sum_a exp(u * S_a) ),

where ``S_a`` is the demand of replicate ``a`` summed over its ``L`` recorded
periods.  ``estimation_certificate`` packages the Chebyshev bound on the
probability that the inner sample mean misses the true moment by more than
``C`` sample standard deviations, which decays like ``1 / (M * C^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import logsumexp

from .demand import EmpiricalDemand, GaussianModel, WeibullModel

__all__ = [
    "CgfDomainError",
    "CgfEvaluator",
    "EstimationCertificate",
    "SeriesDivergenceError",
    "SeriesValue",
    "empirical_cgf",
    "empirical_cgf_estimate",
    "estimation_certificate",
    "gaussian_cgf",
    "weibull_cgf",
    "weibull_log_mgf",
]

SERIES_TERM_CAP = 500


class CgfDomainError(ValueError):
    """The transform argument lies outside the certified domain."""


class SeriesDivergenceError(RuntimeError):
    """A series evaluation failed to converge within the term cap."""


class SeriesValue(NamedTuple):
    value: float
    terms: int


@dataclass(frozen=True)
class CgfEvaluator:
    """A per-period CGF with gradient and effective-domain metadata.

    Attributes
    ----------
    dim:
        Number of commodities the transform argument ranges over.
    domain:
        Per-coordinate ``(low, high)`` intervals on which the CGF is finite,
        or ``None`` when it is finite everywhere.
    model:
        The demand model or data the evaluator was built from.
    """

    dim: int
    domain: tuple[tuple[float, float], ...] | None
    model: object = field(repr=False, default=None)
    _value_and_grad: Callable = field(repr=False, default=None)

    def _evaluate(self, u) -> tuple[float, np.ndarray]:
        arr = np.asarray(u, dtype=float).reshape(-1)
        if arr.shape[0] != self.dim:
            raise ValueError(f"argument has {arr.shape[0]} coordinates, expected {self.dim}")
        val, grad = self._value_and_grad(arr)
        return float(val), np.asarray(grad, dtype=float).reshape(self.dim)

    def value(self, u) -> float:
        return self._evaluate(u)[0]

    def gradient(self, u) -> np.ndarray:
        return self._evaluate(u)[1]

    def value_and_gradient(self, u) -> tuple[float, np.ndarray]:
        return self._evaluate(u)

    __call__ = value


def gaussian_cgf(model: GaussianModel) -> CgfEvaluator:
    """Centered Gaussian CGF: ``phi(u) = u' Sigma u / 2`` with gradient ``Sigma u``."""
    cov = model.covariance

    def both(u):
        s = cov @ u
        return 0.5 * float(u @ s), s

    return CgfEvaluator(dim=model.dim, domain=None, model=model, _value_and_grad=both)


def _weibull_series(shape: float, scale: float, u: float, tol: float):
    """Raw moment series sum(u^k scale^k Gamma(k/shape + 1) / k!) and its u-derivative.

    Returns (log M(u), dlogM/du, terms).  Only certified convergent for
    shape > 1, where the Gamma growth is beaten by the factorial.
    """
    if u == 0.0:
        return 0.0, scale * math.gamma(1.0 + 1.0 / shape), 1
    x = u * scale
    logax = math.log(abs(x))
    if u > 0.0:
        # All terms positive: accumulate in log space to dodge overflow.
        log_m = 0.0  # k = 0 term is 1
        log_mp = -math.inf
        for k in range(1, SERIES_TERM_CAP + 1):
            log_t = k * logax + math.lgamma(k / shape + 1.0) - math.lgamma(k + 1.0)
            log_m_new = np.logaddexp(log_m, log_t)
            log_mp = np.logaddexp(log_mp, log_t + math.log(k) - math.log(u))
            converged = log_t < math.log(tol) + log_m_new
            log_m = log_m_new
            if converged:
                return float(log_m), float(math.exp(log_mp - log_m)), k
        raise SeriesDivergenceError(
            f"moment series did not settle within {SERIES_TERM_CAP} terms"
        )
    # Negative argument: alternating series, moderate magnitudes, plain sums.
    m = 1.0
    mp = 0.0
    for k in range(1, SERIES_TERM_CAP + 1):
        expo = k * logax + math.lgamma(k / shape + 1.0) - math.lgamma(k + 1.0)
        if expo > 700.0:
            # The true MGF is at most 1 here; a term this large means the
            # partial sums have no significant digits left.
            raise SeriesDivergenceError("moment series lost precision to cancellation")
        t = (-1.0) ** k * math.exp(expo)
        m += t
        mp += k * t / u
        if abs(t) < tol * abs(m):
            if m <= 0.0:
                raise SeriesDivergenceError("moment series lost precision to cancellation")
            return math.log(m), mp / m, k
    raise SeriesDivergenceError(
        f"moment series did not settle within {SERIES_TERM_CAP} terms"
    )


def weibull_log_mgf(
    model: WeibullModel, u: float, tol: float = 1e-12, centered: bool = False
) -> SeriesValue:
    """Log moment generating function of Weibull demand by series expansion.

    The raw series is for the uncentered demand; pass ``centered=True`` to
    subtract ``u * mean`` and obtain the centered CGF.  Shapes at or below 1
    are refused for nonzero ``u`` because the series is not certified
    convergent there (shape 1 has a closed form, see ``weibull_cgf``).
    """
    u = float(u)
    if not math.isfinite(u):
        raise ValueError("transform argument must be finite")
    if model.shape <= 1.0:
        if u == 0.0:
            return SeriesValue(0.0, 0)
        raise CgfDomainError("MGF series not certified convergent for shape <= 1")
    log_m, _, terms = _weibull_series(model.shape, model.scale, u, tol)
    value = log_m - u * model.mean if centered else log_m
    return SeriesValue(value, terms)


def weibull_cgf(model: WeibullModel, tol: float = 1e-12) -> CgfEvaluator:
    """Centered CGF evaluator for Weibull demand.

    Shape > 1 uses the moment series (entire function).  Shape exactly 1 is
    exponential demand with the closed form ``-log(1 - u * scale)`` on
    ``u < 1 / scale``.  Shapes below 1 have no finite transform for positive
    ``u`` and are rejected.
    """
    mean = model.mean
    if model.shape > 1.0:

        def both(u):
            log_m, dlog, _ = _weibull_series(model.shape, model.scale, float(u[0]), tol)
            return log_m - u[0] * mean, np.array([dlog - mean])

        return CgfEvaluator(dim=1, domain=None, model=model, _value_and_grad=both)
    if model.shape == 1.0:
        edge = 1.0 / model.scale

        def both(u):
            if u[0] >= edge:
                return math.inf, np.array([math.inf])
            return (
                -math.log1p(-u[0] * model.scale) - u[0] * mean,
                np.array([model.scale / (1.0 - u[0] * model.scale) - mean]),
            )

        return CgfEvaluator(dim=1, domain=((-math.inf, edge),), model=model, _value_and_grad=both)
    raise CgfDomainError("MGF series not certified convergent for shape <= 1")


def _log_mean_exp(values: np.ndarray) -> float:
    return float(logsumexp(values) - math.log(values.shape[0]))


def empirical_cgf_estimate(
    data: EmpiricalDemand, u: float, u_window: float = 5.0
) -> float:
    """Plug-in per-period CGF estimate of raw demand at a scalar argument.

    Requires at least two replicates and ``|u| <= u_window``; the window
    keeps the estimate inside the range where a finite sample carries any
    information about the exponential moment.
    """
    if data.n_replicates < 2:
        raise ValueError("empirical CGF estimation requires at least 2 replicates")
    u = float(u)
    if not abs(u) <= u_window:
        raise ValueError(f"argument {u} outside the estimation window |u| <= {u_window}")
    return _log_mean_exp(u * data.row_sums) / data.n_periods


def empirical_cgf(
    data: EmpiricalDemand, u_window: float = 5.0, centered: bool = True
) -> CgfEvaluator:
    """Evaluator wrapping the plug-in estimate, centered by default.

    Centering subtracts ``u`` times the grand per-period sample mean so the
    evaluator has the canonical shape used by rate maximization.  Outside
    the window the value is reported as infinite, which the rate solver
    treats as a domain violation.
    """
    if data.n_replicates < 2:
        raise ValueError("empirical CGF estimation requires at least 2 replicates")
    sums = data.row_sums
    periods = data.n_periods
    mean = data.mean_per_period if centered else 0.0

    def both(u):
        if abs(u[0]) > u_window:
            return math.inf, np.array([math.nan])
        z = u[0] * sums
        shift = z.max()
        w = np.exp(z - shift)
        total = w.sum()
        value = (shift + math.log(total / sums.shape[0])) / periods - u[0] * mean
        grad = float(w @ sums) / total / periods - mean
        return value, np.array([grad])

    return CgfEvaluator(dim=1, domain=((-u_window, u_window),), model=data, _value_and_grad=both)


@dataclass(frozen=True)
class EstimationCertificate:
    """Chebyshev-style certificate for an empirical exponential moment.

    ``probability_bound`` bounds the chance that the sample mean of
    ``exp(u * S)`` sits more than ``confidence_multiplier`` sample standard
    deviations from its expectation; it is only informative when below 1.
    """

    sample_count: int
    confidence_multiplier: float
    probability_bound: float
    spread: float
    half_width: float


def estimation_certificate(
    data: EmpiricalDemand, u: float, confidence_multiplier: float
) -> EstimationCertificate:
    """Certificate for the empirical moment estimate at argument ``u``."""
    if data.n_replicates < 2:
        raise ValueError("a certificate requires at least 2 replicates")
    c = float(confidence_multiplier)
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("confidence multiplier must be positive")
    m = data.n_replicates
    z = float(u) * data.row_sums
    shift = z.max()
    spread = float(np.exp(shift) * np.std(np.exp(z - shift), ddof=1))
    return EstimationCertificate(
        sample_count=m,
        confidence_multiplier=c,
        probability_bound=min(1.0, 1.0 / (m * c * c)),
        spread=spread,
        half_width=c * spread,
    )
