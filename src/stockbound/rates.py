"""Large-deviations rate functions and Chernoff-style stockout bounds.

For centered per-period CGF ``phi`` and a per-period safety margin ``eps``
(one entry per commodity, over ``N`` commodities), the per-degree rate is

    R(eps) = (1/N) * max_{u >= 0} [ u . eps - phi(u) ],

and the probability that demand summed over ``L`` periods exceeds its mean by
``L * eps`` in every commodity is at most ``exp(-L * N * R(eps))``.  Rates
returned here are always per degree (per period and per commodity); bounds
multiply the ``L * N`` factor back in.

Any feasible ``u`` certifies a valid bound, so a solve stopped early still
yields a conservative probability, only a looser one.  The numeric maximizer
is the bound-constrained quasi-Newton method L-BFGS-B (Byrd, Lu, Nocedal and
Zhu 1995), started at the origin and kept inside the box formed by the sign
cone and the CGF's effective domain, so every point it returns is feasible.
It is judged converged when the projected gradient (the KKT residual) at the
returned point is small relative to the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from . import events
from .cgf import CgfEvaluator, SeriesDivergenceError, gaussian_cgf
from .demand import GaussianModel, validate_lead_time

__all__ = [
    "RateResult",
    "UnreachableRateError",
    "chernoff_bound",
    "invert_rate",
    "rate_gaussian_closed",
    "rate_numeric",
]

# Stopping rule of rate_numeric: the largest projected-gradient entry, relative
# to the largest margin.  Rounding in the objective stalls line searches near
# 1e-8, so the threshold sits above that floor; the rate error it leaves is
# second order in the residual (below 1e-11 relative on the tested Gaussians).
RATE_GTOL = 1e-6
# Iteration cap of rate_numeric; well-posed problems converge in a few dozen.
RATE_MAX_ITER = 200
# Relative distance kept from an open domain edge where the CGF has a pole.
_POLE_GAP = 1e-12


class UnreachableRateError(ValueError):
    """No safety margin can push the bound down to the requested rate."""


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate maximization.

    ``rate`` is per degree: multiply by lead time and commodity count to get
    the exponent of the probability bound.  ``u_star`` is the point that
    achieved it, always inside the sign cone and the CGF's domain.
    ``iterations`` counts solver iterations (0 for a closed form), and
    ``converged`` records whether the KKT residual at ``u_star`` met the
    stopping rule.
    """

    epsilon: np.ndarray
    rate: float
    u_star: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        for name in ("epsilon", "u_star"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.epsilon.shape[0]

    def exponent(self, lead_time: int) -> float:
        """Total bound exponent ``L * N * rate``."""
        return validate_lead_time(lead_time) * self.dim * self.rate


def _cone_box(cgf: CgfEvaluator, signs: np.ndarray) -> list[tuple[float, float]]:
    """Bounds on ``v = signs * u``: nonnegative and inside the CGF's domain.

    Where the CGF is infinite at a domain edge (a pole), the bound stays just
    inside it; a closed edge is used as it is.
    """
    if cgf.domain is None:
        return [(0.0, math.inf)] * cgf.dim
    box = []
    for i, (lo, hi) in enumerate(cgf.domain):
        edge = max(hi if signs[i] > 0 else -lo, 0.0)
        if 0.0 < edge < math.inf:
            point = np.zeros(cgf.dim)
            point[i] = signs[i] * edge
            if not math.isfinite(cgf.value(point)):
                edge *= 1.0 - _POLE_GAP
        box.append((0.0, edge))
    return box


def rate_numeric(cgf: CgfEvaluator, epsilon, signs=None) -> RateResult:
    """Maximize ``u . eps - phi(u)`` over a sign cone by L-BFGS-B.

    With no ``signs`` the cone is the nonnegative orthant, matching the
    event that every commodity exceeds its margin.  A +1/-1 sign vector
    instead constrains each coordinate of ``u`` to that sign, matching mixed
    exceed/stay-below events.  The solver minimizes ``phi(s*v) - v . (s*eps)``
    over the box ``v >= 0`` intersected with the domain, from ``v = 0``.

    ``converged`` is true when the projected gradient at the returned point
    is at most ``RATE_GTOL`` times the largest margin; the solver's own exit
    status is not used, since it can report a failed line search at the
    optimum.  Without convergence (for instance an unbounded rate that ends
    at the ``RATE_MAX_ITER`` cap) the returned point is still feasible and
    its rate still certifies a bound.
    """
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    if eps.shape[0] != cgf.dim:
        raise ValueError(f"margin has {eps.shape[0]} coordinates, expected {cgf.dim}")
    if not np.all(np.isfinite(eps)):
        raise ValueError("margins must be finite")
    s = events.check_pattern(events.ORTHANT, cgf.dim, signs) if signs is not None else np.ones(cgf.dim)
    eps_v = s * eps

    def objective(v: np.ndarray):
        try:
            val, grad = cgf.value_and_gradient(s * v)
        except SeriesDivergenceError:
            val = math.inf
        if not math.isfinite(val):
            return math.inf, np.full(cgf.dim, math.inf)
        return val - float(v @ eps_v), s * grad - eps_v

    box = _cone_box(cgf, s)
    lo, hi = np.array(box).T
    gtol = RATE_GTOL * float(np.abs(eps).max())
    v = np.zeros(cgf.dim)
    iterations = 0
    # The line search ends the solve at a trial point where the objective is
    # infinite (such as the Weibull series past its term cap) instead of
    # stepping back, so the solve resumes from the last finite point while
    # it makes progress.  ftol=0 leaves the projected gradient as the only
    # stopping rule.
    while True:
        res = minimize(
            objective,
            v,
            jac=True,
            method="L-BFGS-B",
            bounds=box,
            options={"maxiter": RATE_MAX_ITER - iterations, "gtol": gtol, "ftol": 0.0},
        )
        v, iterations = res.x, iterations + int(res.nit)
        residual = float(np.abs(v - np.clip(v - res.jac, lo, hi)).max())
        if residual <= gtol or res.nit == 0 or iterations >= RATE_MAX_ITER:
            break
    return RateResult(
        epsilon=eps,
        rate=max(-float(res.fun), 0.0) / cgf.dim,
        u_star=s * v,
        iterations=iterations,
        converged=residual <= gtol,
    )


def rate_gaussian_closed(model: GaussianModel, epsilon) -> RateResult:
    """Gaussian rate in closed form where the orthant constraint is slack.

    The unconstrained maximizer is ``u* = Sigma^{-1} eps`` with per-degree
    rate ``eps . u* / (2 N)``; for singular covariance the pseudoinverse
    solution is used.  When ``u*`` has a negative coordinate, or the margin
    lies outside the covariance's range (the unconstrained rate is then
    infinite, but the orthant-constrained one need not be), ``rate_numeric``
    solves the constrained problem instead.
    """
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    n = model.dim
    if eps.shape[0] != n:
        raise ValueError(f"margin has {eps.shape[0]} coordinates, expected {n}")
    eigvals, eigvecs = np.linalg.eigh(model.covariance)
    cutoff = 1e-12 * max(float(eigvals.max(initial=0.0)), 1.0)
    live = eigvals > cutoff
    coeff = eigvecs.T @ eps
    null_part = np.where(live, 0.0, coeff)
    in_range = np.all(np.abs(null_part) <= 1e-9 * max(1.0, float(np.abs(eps).max(initial=0.0))))
    u = eigvecs @ np.where(live, coeff / np.where(live, eigvals, 1.0), 0.0)
    if in_range and np.all(u >= -1e-12):
        u = np.maximum(u, 0.0)
        return RateResult(
            epsilon=eps,
            rate=max(0.5 * float(eps @ u), 0.0) / n,
            u_star=u,
            iterations=0,
            converged=True,
        )
    return rate_numeric(gaussian_cgf(model), eps)


def _scalar_rate(cgf: CgfEvaluator, eps: float) -> tuple[float, float]:
    """Exact 1-d rate ``max_{u>=0} (u*eps - phi(u))`` for a scalar CGF.

    Solves ``phi'(u) = eps`` by bracketed root finding, which is sharp enough
    for tight inversion tolerances.
    """
    if eps <= 0.0:
        return 0.0, 0.0

    def slope(v: float) -> float:
        return float(cgf.gradient(np.array([v]))[0])

    edge = math.inf if cgf.domain is None else cgf.domain[0][1]
    if math.isfinite(edge):
        if edge <= 0.0:
            return 0.0, 0.0
        if math.isfinite(cgf.value(np.array([edge]))):
            # Closed edge: the maximizer may sit on the boundary.
            if slope(edge) < eps:
                return edge * eps - cgf.value(np.array([edge])), edge
            lo, hi = 0.0, edge
        else:
            # Open edge with a pole: the slope blows up before it.
            lo, hi = 0.0, edge * 0.5
            while slope(hi) < eps:
                lo, hi = hi, edge - 0.5 * (edge - hi)
                if edge - hi <= 1e-15 * edge:
                    raise RuntimeError("could not bracket the rate maximizer")
    else:
        lo, hi = 0.0, 1.0
        while slope(hi) < eps:
            lo, hi = hi, 2.0 * hi
            if hi > 2.0**200:
                raise RuntimeError("could not bracket the rate maximizer")
    u_star = brentq(lambda v: slope(v) - eps, lo, hi, xtol=1e-15, maxiter=300)
    value = cgf.value(np.array([u_star]))
    return max(u_star * eps - value, 0.0), u_star


def _marginal_evaluator(cgf: CgfEvaluator, index: int) -> CgfEvaluator:
    """Restriction of a joint CGF to one coordinate, others held at zero."""
    basis = np.zeros(cgf.dim)
    basis[index] = 1.0
    domain = None if cgf.domain is None else (cgf.domain[index],)
    return CgfEvaluator(
        dim=1,
        domain=domain,
        model=cgf.model,
        _value=lambda u: cgf.value(basis * u[0]),
        _grad=lambda u: np.array([cgf.gradient(basis * u[0])[index]]),
    )


def _pooled_evaluator(cgf: CgfEvaluator) -> CgfEvaluator:
    """CGF of the summed (fungible) demand: ``phi_sum(v) = phi(v * ones)``."""
    ones = np.ones(cgf.dim)
    if cgf.domain is None:
        domain = None
    else:
        lo = max(interval[0] for interval in cgf.domain)
        hi = min(interval[1] for interval in cgf.domain)
        domain = ((lo, hi),)
    return CgfEvaluator(
        dim=1,
        domain=domain,
        model=cgf.model,
        _value=lambda u: cgf.value(ones * u[0]),
        _grad=lambda u: np.array([float(cgf.gradient(ones * u[0]).sum())]),
    )


def invert_rate(cgf: CgfEvaluator, delta: float, lead_time: int) -> float:
    """Smallest lead-time safety stock whose bound meets a stockout rate.

    Finds the margin ``eps >= 0`` with ``R(eps) = -log(delta) / L`` by
    bisection (the rate is nondecreasing in the margin) and returns
    ``L * eps``.  The bracket doubles upward from 1; if the target rate is
    still out of reach at a margin of 2**60 the demand cannot be certified
    at that rate and an error is raised.
    """
    lead = validate_lead_time(lead_time)
    if cgf.dim != 1:
        raise ValueError("rate inversion requires a single-commodity CGF")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    target = -math.log(delta) / lead
    if target == 0.0:
        return 0.0
    hi = 1.0
    while _scalar_rate(cgf, hi)[0] < target:
        hi *= 2.0
        if hi > 2.0**60:
            raise UnreachableRateError("unreachable stockout rate for this demand model")
    lo = 0.0
    residual = math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = _scalar_rate(cgf, mid)[0]
        residual = abs(rate - target)
        if residual < 1e-10:
            return lead * mid
        if rate < target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"rate inversion stalled; residual {residual:.3e}")


def chernoff_bound(
    cgf: CgfEvaluator,
    epsilon,
    lead_time: int,
    pattern: str = events.ALL_EXCEED,
    signs=None,
) -> float:
    """Upper bound on the probability of a stockout pattern.

    Margins are per period: the bounded event compares lead-time demand
    against ``L * (mean + epsilon)``.  Patterns:

    - ``all_exceed``: every commodity exceeds; ``exp(-L * N * R(eps))``.
    - ``orthant``: exceed where sign is +1, stay below where -1.
    - ``union`` (two commodities): either commodity exceeds; the sum of a
      single-commodity bound for the first and a mixed-sign bound for the
      event that the second exceeds while the first does not.
    - ``fungible``: pooled demand exceeds a single scalar margin, using the
      CGF of the summed demand.

    A nonpositive margin in every coordinate gives the trivial bound 1.
    """
    lead = validate_lead_time(lead_time)
    if pattern == events.FUNGIBLE:
        eps = float(np.asarray(epsilon, dtype=float).reshape(()))
        rate, _ = _scalar_rate(_pooled_evaluator(cgf), eps)
        return min(1.0, math.exp(-lead * rate))
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    events.check_pattern(pattern, cgf.dim, signs)
    if pattern == events.ALL_EXCEED:
        result = rate_numeric(cgf, eps)
        return min(1.0, math.exp(-result.exponent(lead)))
    if pattern == events.ORTHANT:
        result = rate_numeric(cgf, eps, signs=signs)
        return min(1.0, math.exp(-result.exponent(lead)))
    if pattern == events.UNION:
        first_rate, _ = _scalar_rate(_marginal_evaluator(cgf, 0), eps[0])
        mixed = rate_numeric(cgf, eps, signs=np.array([-1.0, 1.0]))
        return min(1.0, math.exp(-lead * first_rate) + math.exp(-mixed.exponent(lead)))
    raise ValueError(f"unknown stockout pattern {pattern!r}")
