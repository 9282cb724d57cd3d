"""Cumulant generating functions, their gradients, and estimation certificates.

For per-period demand ``D`` (a vector over commodities) the per-period CGF is
``phi(u) = log E[exp(u . D)]``.  Because periods are i.i.d., the CGF of the
demand summed over ``L`` periods is ``L * phi(u)``, so everything here is
normalized per period.  Evaluators built for tail analysis are mean-centered:
``phi(0) = 0`` and ``grad phi(0) = 0``, which makes ``phi`` convex with a
minimum at the origin.

The Weibull MGF is finite everywhere for shape above 1 and is evaluated in
log space by a fixed-node double-exponential quadrature (Takahasi and Mori
1974) centred on the peak of its integrand; negative arguments get a rule
four times finer and wider.  Shape 1 is exponential demand, in closed form.

The empirical estimator follows the plug-in rule

    phi_hat(u) = (1/L) * log( (1/M) * sum_a exp(u * S_a) ),

where ``S_a`` is the demand of replicate ``a`` summed over its ``L`` recorded
periods.  ``estimation_certificate`` packages the Chebyshev bound on the
probability that the inner sample mean misses the true moment by more than
``C`` sample standard deviations, which decays like ``1 / (M * C^2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .demand import EmpiricalDemand, GaussianModel, WeibullModel

__all__ = [
    "CgfDomainError",
    "CgfEvaluator",
    "EstimationCertificate",
    "empirical_cgf",
    "empirical_cgf_estimate",
    "estimation_certificate",
    "gaussian_cgf",
    "weibull_cgf",
    "weibull_log_mgf",
]


class CgfDomainError(ValueError):
    """The transform argument lies outside the certified domain."""


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


_DE_STEP = 0.05


@functools.cache
def _de_rule(refine: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exp-sinh rule on (0, inf) (Takahasi and Mori 1974) at step ``_DE_STEP / refine``.

    Returns the log nodes ``pi/2 sinh x``, the nodes and their log weights at
    ``x = j * step`` in [-4.5, 4], past which nothing counts.  The refined
    rule, used below ``u = 0``, spans [-5.5, 5.5]: at high shapes the integrand
    there reaches ``sqrt(shape)`` units of ``log t`` either side of its peak.
    """
    step = _DE_STEP / refine
    left, right = (90, 80) if refine == 1 else (110, 110)
    x = step * np.arange(-left * refine, right * refine + 1)
    log_node = 0.5 * math.pi * np.sinh(x)
    rule = (log_node, np.exp(log_node), np.log(0.5 * math.pi * step * np.cosh(x)) + log_node)
    for arr in rule:
        arr.setflags(write=False)  # shared by every caller through the cache
    return rule


# The rule splits at the integrand's peak once that sits sqrt(_PEAK_SPLIT) peak
# widths from 0: one rule over both sides would then be too coarse at the
# peak, and the integrand at 0 is below exp(-_PEAK_SPLIT) of it.
_PEAK_SPLIT = 49.0
# Below u = 0 the rule's step is _DE_STEP / _NEGATIVE_REFINE: a coarser step
# is off by up to 3e-13 in relative slope at shapes 10-50, this one by 6e-15
# at most for shapes 1.2-200 and u down to -16 shape.
_NEGATIVE_REFINE = 4


def _log_sum(log_f: np.ndarray, root: np.ndarray, base: float, scale: float) -> tuple[float, float]:
    """``log M`` and its slope from the rule's log terms and ``X / scale`` at its nodes."""
    top = float(log_f.max())
    f = np.exp(log_f - top)
    total = float(f.sum())
    return base + top + math.log(total), scale * float(f @ root) / total


def _centred_rule(a: float, k: float, scale: float, log_c: float, refine: int) -> tuple[float, float]:
    """The exp-sinh rule over ``(0, inf)`` scaled to ``t = exp(log_c)``."""
    log_node, node, log_weight = _de_rule(refine)
    root = np.exp((log_c + log_node) / k)
    log_f = a * root - math.exp(log_c) * node + log_weight
    return _log_sum(log_f, root, log_c, scale)


def _weibull_log_mgf_and_slope(model: WeibullModel, u: float) -> tuple[float, float]:
    """``log M(u) = log E[exp(u X)]`` and its derivative for Weibull ``X``; shape >= 1.

    Above shape ``k = 1``, ``M(u)`` is the integral over ``t > 0`` of
    ``exp(a t^(1/k) - t)``, ``a = u * scale``.  For ``a > 0`` its log peaks at
    ``t* = (a / k)^(k / (k - 1))``, with value ``(k - 1) t*`` and width
    ``sqrt(k t* / (k - 1))``.  A peak far from 0 gets the exp-sinh rule from
    ``t*`` both ways, scaled by the width and cut at 0; otherwise one rule
    covers ``(0, inf)``, scaled to where the mass sits.  Sums are taken
    relative to their largest term.  ``M(0) = 1`` and ``M'(0)`` is the mean.

    For ``a < 0`` the factor ``exp(-t)`` cuts the integrand off near
    ``t = 1``, over about one unit of ``log t``.  High shapes put the mass
    far below that, where the plain rule's nodes are coarse, so every
    negative argument gets the rule with a quarter of the step.
    """
    if u == 0.0:
        return 0.0, model.mean
    k, scale = model.shape, model.scale
    if k < 1.0:
        raise CgfDomainError("Weibull MGF is infinite for positive arguments when shape < 1")
    a = u * scale
    if k == 1.0:
        if a >= 1.0:
            return math.inf, math.inf
        return -math.log1p(-a), scale / (1.0 - a)
    log_peak = k / (k - 1.0) * math.log(a / k) if a > 0.0 else -math.inf
    if log_peak > 709.0:  # t* itself overflows
        return math.inf, math.inf
    peak = math.exp(log_peak)
    if (k - 1.0) * peak >= _PEAK_SPLIT * k:
        # t = t* (1 + r): the log-integrand less its peak value is
        # t* (k ((1 + r)^(1/k) - 1) - r), free of cancellation near the peak.
        width = math.sqrt(k / ((k - 1.0) * peak))  # relative to t*
        _, node, log_weight = _de_rule(1)
        left = node < 1.0 / width
        r = width * np.concatenate([node, -node[left]])
        log_weight = np.concatenate([log_weight, log_weight[left]])
        shrink = np.log1p(r) / k
        log_f = peak * (k * np.expm1(shrink) - r) + log_weight
        root = np.exp(log_peak / k + shrink)
        return _log_sum(log_f, root, (k - 1.0) * peak + math.log(width * peak), scale)
    if a > 0.0:
        return _centred_rule(a, k, scale, math.log1p(peak), 1)
    # The log-integrand peaks in log t at t = w^k, where w^k + b w = 1 for
    # b = -a / k.  One Newton step from min(1, 1 / b), above w on this convex
    # curve, lands close enough to centre the rule.
    b = -a / k
    w = min(1.0, 1.0 / b)
    w -= (w**k + b * w - 1.0) / (k * w ** (k - 1.0) + b)
    return _centred_rule(a, k, scale, k * math.log(w), _NEGATIVE_REFINE)


def weibull_log_mgf(model: WeibullModel, u: float) -> float:
    """Log moment generating function ``log E[exp(u X)]`` of raw Weibull demand.

    Shape 1 is in closed form (infinite at and past the pole ``u = 1 / scale``);
    larger shapes use a fixed-node double-exponential quadrature, finite for
    every ``u``.  Shapes below 1 are refused for nonzero ``u``.  The centered
    CGF, less ``u * mean``, is ``weibull_cgf``.
    """
    u = float(u)
    if not math.isfinite(u):
        raise ValueError("transform argument must be finite")
    return _weibull_log_mgf_and_slope(model, u)[0]


def weibull_cgf(model: WeibullModel) -> CgfEvaluator:
    """Centered CGF evaluator for Weibull demand.

    Shape > 1 is finite everywhere and evaluated by quadrature (see
    ``weibull_log_mgf``).  Shape exactly 1 is exponential demand, finite on
    ``u < 1 / scale``.  Shapes below 1 have no finite transform for positive
    ``u`` and are rejected.
    """
    if model.shape < 1.0:
        raise CgfDomainError("Weibull MGF is infinite for positive arguments when shape < 1")
    mean = model.mean

    def both(u):
        log_m, slope = _weibull_log_mgf_and_slope(model, float(u[0]))
        return log_m - u[0] * mean, np.array([slope - mean])

    domain = ((-math.inf, 1.0 / model.scale),) if model.shape == 1.0 else None
    return CgfEvaluator(dim=1, domain=domain, model=model, _value_and_grad=both)


def _log_mean_exp_and_slope(sums: np.ndarray, u: float) -> tuple[float, float]:
    """``log mean exp(u * S)`` over replicates and its derivative in ``u``.

    The exponentials are taken relative to the largest, so none overflows.
    """
    z = u * sums
    shift = z.max()
    w = np.exp(z - shift)
    total = w.sum()
    return shift + math.log(total / sums.shape[0]), float(w @ sums) / total


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
    return float(_log_mean_exp_and_slope(data.row_sums, u)[0]) / data.n_periods


def empirical_cgf(data: EmpiricalDemand, u_window: float = 5.0) -> CgfEvaluator:
    """Centered evaluator wrapping the plug-in estimate.

    Centering subtracts ``u`` times the grand per-period sample mean so the
    evaluator has the canonical shape used by rate maximization; the raw
    estimate is ``empirical_cgf_estimate``.  Outside the window the value is
    reported as infinite; the rate solvers stay just inside it.
    """
    if data.n_replicates < 2:
        raise ValueError("empirical CGF estimation requires at least 2 replicates")
    sums = data.row_sums
    periods = data.n_periods
    mean = data.mean_per_period

    def both(u):
        if abs(u[0]) > u_window:
            return math.inf, np.array([math.nan])
        value, slope = _log_mean_exp_and_slope(sums, u[0])
        return value / periods - u[0] * mean, np.array([slope / periods - mean])

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
