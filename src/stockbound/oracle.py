"""Exact and simulated stockout probabilities for Gaussian demand.

``normal_upper_tail`` is the standard normal upper tail H(k); the bivariate
routines evaluate the probability that two correlated lead-time demands both
exceed their thresholds, either by one-dimensional quadrature of the
conditional tail or by two-dimensional quadrature of the joint density.  The
Monte Carlo estimator handles any dimension and the full set of stockout
patterns, and is the only oracle offered beyond two commodities.

Thresholds are standardized: a demand margin of ``L * eps`` over a lead time
of ``L`` periods with per-period variance ``s2`` corresponds to
``a = L * eps / sqrt(L * s2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, erfcinv

from . import events
from .demand import GaussianModel, covariance_factor, validate_lead_time

__all__ = [
    "OracleResult",
    "TailQuery",
    "bivariate_joint_tail",
    "invert_joint_tail",
    "joint_tail_monte_carlo",
    "normal_upper_tail",
    "normal_upper_tail_inverse",
]

# Truncating a normal-tail integral 10 standard units past its lower limit
# leaves mass below 8e-24, far under every tolerance used here.
TRUNCATION_WIDTH = 10.0
QUADRATURE_TARGET = 1e-8
_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_upper_tail(k: float) -> float:
    """Standard normal upper tail ``H(k) = P(Z >= k)``."""
    return 0.5 * erfc(k / _SQRT2)


def normal_upper_tail_inverse(delta: float) -> float:
    """The threshold ``k`` with ``H(k) = delta``, for ``delta`` in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    return _SQRT2 * float(erfcinv(2.0 * delta))


@dataclass(frozen=True)
class TailQuery:
    """Standardized thresholds and correlation for a bivariate joint tail."""

    a: float
    b: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("thresholds must be finite")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")

    @classmethod
    def from_margins(
        cls, model: GaussianModel, l_eps_x: float, l_eps_y: float, lead_time: int
    ) -> "TailQuery":
        lead = validate_lead_time(lead_time)
        return cls(
            a=l_eps_x / math.sqrt(lead * model.var_x),
            b=l_eps_y / math.sqrt(lead * model.var_y),
            rho=model.correlation,
        )


@dataclass(frozen=True)
class OracleResult:
    """A probability with provenance: how it was computed and how precisely.

    Monte Carlo results also carry their trial count and exact hit count, so
    ``probability == hits / trials``.
    """

    probability: float
    method: str
    error: float
    trials: int | None = None
    hits: int | None = None


def _degenerate_joint_tail(query: TailQuery) -> float:
    if query.rho > 0.0:  # comonotone: the larger threshold binds
        return normal_upper_tail(max(query.a, query.b))
    return max(0.0, normal_upper_tail(query.a) - normal_upper_tail(-query.b))


def _conditional_quadrature(query: TailQuery) -> tuple[float, float]:
    a, b, rho = query.a, query.b, query.rho
    width = math.sqrt(1.0 - rho * rho)

    def integrand(u: float) -> float:
        return _INV_SQRT2PI * math.exp(-0.5 * u * u) * normal_upper_tail((b - rho * u) / width)

    value, abserr, *_ = quad(
        integrand, a, a + TRUNCATION_WIDTH, epsabs=1e-12, epsrel=1e-12, limit=500, full_output=1
    )
    return value, abserr + normal_upper_tail(a + TRUNCATION_WIDTH)


def _density_quadrature(query: TailQuery) -> tuple[float, float]:
    a, b, rho = query.a, query.b, query.rho
    one_minus = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(one_minus))

    def density(s: float, t: float) -> float:
        return norm * math.exp(-(s * s - 2.0 * rho * s * t + t * t) / (2.0 * one_minus))

    inner_err = 0.0

    def inner(s: float) -> float:
        nonlocal inner_err
        value, abserr, *_ = quad(
            lambda t: density(s, t),
            b,
            b + TRUNCATION_WIDTH,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
            full_output=1,
        )
        inner_err = max(inner_err, abserr)
        return value

    value, outer_err, *_ = quad(
        inner, a, a + TRUNCATION_WIDTH, epsabs=1e-11, epsrel=1e-11, limit=200, full_output=1
    )
    tails = normal_upper_tail(a + TRUNCATION_WIDTH) + normal_upper_tail(b + TRUNCATION_WIDTH)
    return value, outer_err + TRUNCATION_WIDTH * inner_err + tails


def bivariate_joint_tail(query: TailQuery, method: str = "conditional") -> OracleResult:
    """Probability that both standardized demands exceed their thresholds.

    Two independent quadrature routes are offered and must agree:
    ``conditional`` integrates the first coordinate's density against the
    second's conditional tail; ``density`` integrates the joint density over
    the exceedance rectangle.  Perfect correlation collapses to a univariate
    tail and is handled in closed form.
    """
    if method not in ("conditional", "density"):
        raise ValueError(f"unknown quadrature method {method!r}")
    if 1.0 - abs(query.rho) < 1e-12:
        return OracleResult(
            probability=_degenerate_joint_tail(query), method="closed-form", error=1e-15
        )
    compute = _conditional_quadrature if method == "conditional" else _density_quadrature
    value, error = compute(query)
    if error > QUADRATURE_TARGET:
        raise RuntimeError(
            f"quadrature reached {error:.2e}, short of the {QUADRATURE_TARGET:.0e} target"
        )
    return OracleResult(
        probability=min(1.0, max(0.0, value)),
        method=f"quadrature-{method}",
        error=error,
    )


_CHUNK = 1 << 18


def joint_tail_monte_carlo(
    model: GaussianModel,
    l_eps,
    lead_time: int,
    trials: int,
    seed: int,
    pattern: str = events.ALL_EXCEED,
    signs=None,
) -> OracleResult:
    """Empirical probability of a stockout pattern over lead-time demand.

    Lead-time demand deviations are sums of ``L`` i.i.d. centered Gaussian
    periods, drawn here in one shot from their exact distribution
    N(0, L * covariance).  Deterministic for a given seed; the reported
    error is a three-standard-error half width.
    """
    lead = validate_lead_time(lead_time)
    if trials < 10_000:
        raise ValueError("at least 10000 trials are required")
    signs_arr = events.check_pattern(pattern, model.dim, signs)
    thresholds = (
        float(np.asarray(l_eps, dtype=float).reshape(()))
        if pattern == events.FUNGIBLE
        else np.asarray(l_eps, dtype=float).reshape(-1)
    )
    if pattern != events.FUNGIBLE and np.shape(thresholds) != (model.dim,):
        raise ValueError("one threshold per commodity is required")
    factor = math.sqrt(lead) * covariance_factor(model)
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = int(trials)
    while remaining > 0:
        block = min(_CHUNK, remaining)
        draws = rng.standard_normal((block, model.dim)) @ factor.T
        hits += int(events.event_mask(draws, thresholds, pattern, signs_arr).sum())
        remaining -= block
    p = hits / trials
    return OracleResult(
        probability=p,
        method="monte-carlo",
        error=3.0 * math.sqrt(p * (1.0 - p) / trials),
        trials=int(trials),
        hits=hits,
    )


class JointTailInverse(NamedTuple):
    ss: float
    floored: bool


def invert_joint_tail(model: GaussianModel, delta: float, lead_time: int) -> JointTailInverse:
    """Safety stock at which the exact all-exceed probability equals ``delta``.

    Uses equal margins across commodities.  When even zero stock already
    meets the target (``delta >= P(0)``) the result is floored at zero and
    flagged.  Otherwise bisection drives the exact probability within 1e-9
    of ``delta``.
    """
    lead = validate_lead_time(lead_time)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if model.dim == 1:
        if delta >= 0.5:
            return JointTailInverse(0.0, True)
        scale = math.sqrt(lead * float(model.covariance[0, 0]))
        return JointTailInverse(scale * normal_upper_tail_inverse(delta), False)
    if model.dim != 2:
        raise ValueError("exact inversion is available for one or two commodities")
    scale_x = math.sqrt(lead * model.var_x)
    scale_y = math.sqrt(lead * model.var_y)
    rho = model.correlation

    def prob(ss: float) -> float:
        return bivariate_joint_tail(TailQuery(ss / scale_x, ss / scale_y, rho)).probability

    if delta >= prob(0.0):
        return JointTailInverse(0.0, True)
    hi = max(scale_x, scale_y)
    while prob(hi) > delta:
        hi *= 2.0
        if hi > 2.0**60:
            raise RuntimeError("could not bracket the safety stock")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = prob(mid)
        if abs(p - delta) < 1e-9:
            return JointTailInverse(mid, False)
        if p > delta:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("safety-stock bisection stalled")
