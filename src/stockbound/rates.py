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
from .cgf import CgfEvaluator, gaussian_cgf
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
        val, grad = cgf.value_and_gradient(s * v)
        if not math.isfinite(val):
            return math.inf, np.full(cgf.dim, math.inf)
        return val - float(v @ eps_v), s * grad - eps_v

    box = _cone_box(cgf, s)
    lo, hi = np.array(box).T
    gtol = RATE_GTOL * float(np.abs(eps).max())
    # ftol=0 leaves the projected gradient as the only stopping rule.
    res = minimize(
        objective,
        np.zeros(cgf.dim),
        jac=True,
        method="L-BFGS-B",
        bounds=box,
        options={"maxiter": RATE_MAX_ITER, "gtol": gtol, "ftol": 0.0},
    )
    residual = float(np.abs(res.x - np.clip(res.x - res.jac, lo, hi)).max())
    return RateResult(
        epsilon=eps,
        rate=max(-float(res.fun), 0.0) / cgf.dim,
        u_star=s * res.x,
        iterations=int(res.nit),
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


def _increasing_root(cgf: CgfEvaluator, f) -> tuple[float, bool]:
    """Root in ``u >= 0`` of ``f(u, phi(u), phi'(u))``, increasing in ``u``, for a scalar CGF.

    Returns the root and ``True``.  ``f`` must be negative at ``u = 0``.  The
    bracket stays inside the CGF's domain in one of three ways:

    - no edge: it doubles upward from ``u = 1``;
    - an open edge where the CGF has a pole: it approaches the edge;
    - a closed edge (the empirical window): when ``f`` is still negative
      there, the edge itself is returned, as the constrained solution.

    When ``f`` stays negative all the way out to an open or missing edge,
    there is no root: the farthest point tried is returned with ``False`` (0
    for a domain with no positive part).  A CGF is strictly convex unless
    demand is constant, so a slope at a trial point equal to the slope at 0
    means the CGF is affine: ``f`` then stays negative for good, and ``inf``
    is returned with ``False``.
    """
    edge = math.inf if cgf.domain is None else float(cgf.domain[0][1])
    if edge <= 0.0:
        return 0.0, False

    def g(v: float) -> float:
        value, grad = cgf.value_and_gradient([v])
        return f(v, value, float(grad[0]))

    if math.isfinite(edge) and math.isfinite(cgf.value([edge])):
        if g(edge) < 0.0:
            return edge, True
        lo, hi = 0.0, edge
    else:
        lo, hi = 0.0, (0.5 * edge if math.isfinite(edge) else 1.0)
        flat = float(cgf.gradient([0.0])[0])
        while True:
            value, grad = cgf.value_and_gradient([hi])
            if f(hi, value, float(grad[0])) >= 0.0:
                break
            if grad[0] == flat:
                return math.inf, False
            lo, hi = hi, (2.0 * hi if edge == math.inf else 0.5 * (hi + edge))
            if not lo < hi < edge:
                return lo, False
    return brentq(g, lo, hi, xtol=1e-15, maxiter=300), True


def _scalar_rate(cgf: CgfEvaluator, eps: float) -> float:
    """Exact 1-d rate ``max_{u>=0} (u*eps - phi(u))`` for a scalar CGF.

    The maximizer is the root of ``phi'(u) = eps``, or the closed domain edge
    when the slope stays below ``eps`` up to it.  An affine CGF (zero
    variance) whose slope stays below ``eps`` has an infinite rate.  When the
    slope otherwise never reaches ``eps``, the rate at the farthest point
    tried is returned: every ``u >= 0`` certifies a bound, so it is still
    conservative.
    """
    if eps <= 0.0:
        return 0.0
    u_star, _ = _increasing_root(cgf, lambda u, value, slope: slope - eps)
    if u_star == math.inf:
        return math.inf
    return max(u_star * eps - cgf.value([u_star]), 0.0)


def _along(cgf: CgfEvaluator, direction: np.ndarray) -> CgfEvaluator:
    """Scalar CGF ``t -> phi(t * direction)`` along a nonnegative direction."""
    domain = None
    if cgf.domain is not None:
        scaled = [(lo / d, hi / d) for (lo, hi), d in zip(cgf.domain, direction) if d > 0.0]
        domain = ((max(lo for lo, _ in scaled), min(hi for _, hi in scaled)),)

    def both(t):
        value, grad = cgf.value_and_gradient(direction * t[0])
        return value, np.array([float(direction @ grad)])

    return CgfEvaluator(dim=1, domain=domain, model=cgf.model, _value_and_grad=both)


def invert_rate(cgf: CgfEvaluator, delta: float, lead_time: int) -> float:
    """Smallest lead-time safety stock whose bound meets a stockout rate.

    The per-period margin whose rate ``R(eps)`` equals ``r = -log(delta) / L``
    is ``eps = min_{u > 0} (r + phi(u)) / u``, since ``R(eps) >= r`` exactly
    when some ``u > 0`` has ``u * eps - phi(u) >= r``.  The minimizer is the
    one root of the increasing ``u * phi'(u) - phi(u) - r``, where
    ``eps = phi'(u)``; past a closed domain edge the rate is linear in the
    margin and the minimizer is the edge.  Any ``u`` gives a margin at least
    the exact one, so the stock ``L * eps`` errs on the safe side, by an
    amount second order in the root's error.

    A stock sized from ``empirical_cgf`` is certified only for the plug-in
    estimate of the CGF: the estimation error is not covered, and
    ``estimation_certificate`` does not enter the stock.

    Raises ``UnreachableRateError`` when no margin reaches the rate, for
    instance when the CGF is infinite for every positive argument.
    """
    lead = validate_lead_time(lead_time)
    if cgf.dim != 1:
        raise ValueError("rate inversion requires a single-commodity CGF")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    target = -math.log(delta) / lead
    u_star, reached = _increasing_root(cgf, lambda u, value, slope: u * slope - value - target)
    if not reached:
        raise UnreachableRateError("unreachable stockout rate for this demand model")
    return lead * (target + cgf.value([u_star])) / u_star


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
        rate = _scalar_rate(_along(cgf, np.ones(cgf.dim)), eps)
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
        first_rate = _scalar_rate(_along(cgf, np.eye(cgf.dim)[0]), eps[0])
        mixed = rate_numeric(cgf, eps, signs=np.array([-1.0, 1.0]))
        return min(1.0, math.exp(-lead * first_rate) + math.exp(-mixed.exponent(lead)))
    raise ValueError(f"unknown stockout pattern {pattern!r}")
