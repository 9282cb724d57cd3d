"""Exact and simulated stockout probabilities for Gaussian demand.

``normal_upper_tail`` is the standard normal upper tail H(k).
``bivariate_joint_tail`` evaluates the probability that two correlated
lead-time demands both exceed their thresholds by one-dimensional quadrature
of the conditional tail, to a relative error target, and
``invert_joint_tail`` finds the equal stock at which that probability meets
``delta`` by one bracketed root of its logarithm.  The Monte Carlo estimator
handles any dimension and the full set of stockout patterns, and is the only
oracle offered beyond two commodities.

Thresholds are standardized: a demand margin of ``L * eps`` over a lead time
of ``L`` periods with per-period variance ``s2`` corresponds to
``a = L * eps / sqrt(L * s2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc, erfcinv, log_ndtr

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

# The conditional-tail integral stops this many standard units past its lower
# limit, or further where a deep tail needs it; the mass beyond is bounded
# analytically and counted in the error.
TRUNCATION_WIDTH = 10.0
# bivariate_joint_tail guarantees a reported error of at most this share of P.
QUADRATURE_TARGET = 1e-9
# Relative stock tolerance of the root in invert_joint_tail.  The log tail
# changes by at most ~100 times the stock's relative change in the tested
# range (delta down to 1e-12), so this keeps P within 1e-9 of delta.
INVERSION_RTOL = 1e-12
# Half width of the Monte Carlo error, in standard errors.
MC_Z = 3.0
_SQRT2 = math.sqrt(2.0)
_EPS = sys.float_info.epsilon
_TINY = math.ulp(0.0)


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


def _tail_with_rounding(k: float) -> tuple[float, float]:
    """``H(k)`` and a bound on its rounding: erfc is good to a few ulps, and a
    slip of eps in its argument ``z = k / sqrt(2)`` moves it by ``2 z^2 eps``."""
    tail = normal_upper_tail(k)
    return tail, _EPS * (4.0 + 6.0 * (abs(k) / _SQRT2 + 1.0) ** 2) * tail


def _degenerate_joint_tail(query: TailQuery) -> tuple[float, float]:
    """``P`` at ``rho = +1`` or ``-1``, and a bound on its error at ``query.rho``.

    Besides rounding, the bound covers the change in ``P`` from ``query.rho``
    to the limit: ``dP/drho``, the bivariate density at ``(a, b)``, is at most
    ``exp(-(a^2 + b^2) / 4) / (2 pi sqrt(1 - r^2))`` there.
    """
    a, b = query.a, query.b
    gap = math.exp(-0.25 * (a * a + b * b)) * math.acos(abs(query.rho)) / (2.0 * math.pi)
    if query.rho > 0.0:  # comonotone: the larger threshold binds
        p, rounding = _tail_with_rounding(max(a, b))
        return p, rounding + gap
    if a >= -b:  # antithetic: P(a <= X <= -b), empty here
        return 0.0, gap
    (upper, slip_upper), (lower, slip_lower) = _tail_with_rounding(a), _tail_with_rounding(-b)
    return upper - lower, slip_upper + slip_lower + _EPS * (upper - lower) + gap


def _conditional_quadrature(query: TailQuery) -> tuple[float, float]:
    """``P`` and a bound on its absolute error, by quadrature of ``phi(u) H((b - rho u) / w)``.

    ``P`` is symmetric in the thresholds, so the outer variable is the one
    with the larger threshold, which leaves the least mass past the
    truncation point.
    """
    a, b, rho = max(query.a, query.b), min(query.a, query.b), query.rho
    width = math.sqrt(1.0 - rho * rho)
    inner = 1.0 / (_SQRT2 * width)

    def integrand(u: float) -> float:
        return math.exp(-0.5 * u * u) * math.erfc((b - rho * u) * inner)

    top = max(a, 0.0) + TRUNCATION_WIDTH
    if rho >= 0.0:
        # Slepian: P >= H(a) H(b).  Where the fixed width leaves more than a
        # thousandth of the target share of that floor past the cut, widen it
        # until the bound H(top) <= phi(top) does not.  A share below the
        # smallest float would be lost to rounding, so the cut stays.
        log_share = math.log(1e-3 * QUADRATURE_TARGET) + float(log_ndtr(-a) + log_ndtr(-b))
        if log_share > math.log(_TINY):
            top = max(top, math.sqrt(-2.0 * log_share - math.log(2.0 * math.pi)))
    value, abserr, *_ = quad(integrand, a, top, epsabs=0.0, epsrel=1e-12, limit=500, full_output=1)
    # Past ``top`` the outer density leaves H(top); for rho < 0 the conditional
    # tail falls with u, so it is at most its value at ``top``.
    truncation = normal_upper_tail(top)
    if rho < 0.0:
        truncation *= normal_upper_tail((b - rho * top) / width)
    # quad's estimate does not see rounding in the integrand's arguments: a
    # relative slip of eps in u moves exp(-u^2/2) by u^2 eps, and the few
    # roundings in z move erfc(z) by up to about 6 z^2 eps.  Both are taken
    # a unit past ``a``, where the mass sits.
    z = max((b - rho * a) * inner, 0.0)
    rounding = _EPS * (4.0 + (abs(a) + 1.0) ** 2 + 6.0 * (z + 1.0) ** 2) * value
    norm = 0.5 / math.sqrt(2.0 * math.pi)
    return norm * value, norm * (abserr + rounding) + float(truncation)


def bivariate_joint_tail(query: TailQuery) -> OracleResult:
    """Probability that both standardized demands exceed their thresholds.

    Adaptive quadrature integrates the first coordinate's density against the
    second's conditional tail, to a pure relative tolerance.  ``error`` bounds
    the quadrature and truncation error and is at most
    ``QUADRATURE_TARGET * probability``; when that cannot be met the call
    raises instead of returning a loose number.  A tail that underflows to 0
    is returned only when its truncation bound underflows as well.  Perfect
    correlation (``|rho|`` within 1e-12 of 1) collapses to a univariate tail
    in closed form; there ``error`` bounds the rounding and the distance to
    the exact limit, and meets the same target.
    """
    if 1.0 - abs(query.rho) < 1e-12:
        value, error = _degenerate_joint_tail(query)
        method = "closed-form"
    else:
        value, error = _conditional_quadrature(query)
        method = "quadrature-conditional"
    if not error <= QUADRATURE_TARGET * value:
        raise RuntimeError(
            f"joint tail {value:.3e} has error {error:.2e}, "
            f"above the relative target {QUADRATURE_TARGET:.0e}"
        )
    return OracleResult(probability=min(1.0, value), method=method, error=error)


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
    N(0, L * covariance).  Deterministic for a given seed.  The reported
    error is a three-standard-error half width; when no trial (or every
    trial) hits, where that width is 0, it is the distance to the far end of
    the Wilson score interval at three standard errors instead.
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
        hits += np.count_nonzero(events.event_mask(draws, thresholds, pattern, signs_arr))
        remaining -= block
    p = hits / trials
    if 0 < hits < trials:
        error = MC_Z * math.sqrt(p * (1.0 - p) / trials)
    else:
        error = MC_Z * MC_Z / (trials + MC_Z * MC_Z)
    return OracleResult(
        probability=p,
        method="monte-carlo",
        error=error,
        trials=int(trials),
        hits=hits,
    )


class JointTailInverse(NamedTuple):
    ss: float
    floored: bool


def invert_joint_tail(model: GaussianModel, delta: float, lead_time: int) -> JointTailInverse:
    """Smallest equal stock whose exact all-exceed probability is at most ``delta``.

    When even zero stock already meets the target (``delta >= P(0)``, from
    the closed-form orthant probability) the result is floored at zero and
    flagged.  Otherwise one Brent root (``scipy.optimize.brentq``) of
    ``log P(ss) - log delta`` runs inside an analytic bracket:

    - ``hi``: ``P`` is at most the tail of the larger standardized threshold
      and at most the tail of the pooled demand, so the tighter of the two
      is at most ``delta`` at ``hi``;
    - ``lo``: for ``rho >= 0``, ``P >= H(a) H(b)`` (Slepian), which is at
      least ``delta`` at ``min(scale) * H^-1(sqrt(delta))``; otherwise 0.

    The root is taken on ``P + error``, the upper end of the quadrature's
    error interval, and the returned stock is the bracket end where that is
    at most ``delta``, within a relative ``INVERSION_RTOL`` of the root.  So
    the exact ``P(ss)`` is at most ``delta`` and, in the tested range (delta
    down to 1e-12), at least ``delta * (1 - 1e-9)``.  Every tail evaluation
    goes through ``bivariate_joint_tail``.
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
    if delta >= 0.25 + math.asin(rho) / (2.0 * math.pi):
        return JointTailInverse(0.0, True)

    log_delta = math.log(delta)
    excess: dict[float, float] = {}

    def log_excess(ss: float) -> float:
        if ss not in excess:
            tail = bivariate_joint_tail(TailQuery(ss / scale_x, ss / scale_y, rho))
            # A tail that underflows reads as the smallest double, below delta.
            excess[ss] = math.log(max(tail.probability + tail.error, _TINY)) - log_delta
        return excess[ss]

    smaller = min(scale_x, scale_y)
    pooled = (1.0 / scale_x + 1.0 / scale_y) / math.sqrt(2.0 + 2.0 * rho)
    hi = normal_upper_tail_inverse(delta) / max(1.0 / smaller, pooled)
    root_delta = math.sqrt(delta)
    lo = smaller * normal_upper_tail_inverse(root_delta) if rho >= 0.0 and root_delta < 0.5 else 0.0
    # Both ends hold analytically; a computed value on the wrong side differs
    # from delta by rounding only, and that end is the answer.
    if log_excess(lo) > 0.0 > log_excess(hi):
        brentq(log_excess, lo, hi, xtol=INVERSION_RTOL * smaller, rtol=INVERSION_RTOL)
    ss = min((s for s, f in excess.items() if f <= 0.0), default=hi)
    return JointTailInverse(ss, False)
