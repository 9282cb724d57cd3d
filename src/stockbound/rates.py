"""Large-deviations rate functions and Chernoff-style stockout bounds.

For centered per-period CGF ``phi`` and a per-period safety margin ``eps``
(one entry per commodity, over ``N`` commodities), the per-degree rate is

    R(eps) = (1/N) * max_{u >= 0} [ u . eps - phi(u) ],

and the probability that demand summed over ``L`` periods exceeds its mean by
``L * eps`` in every commodity is at most ``exp(-L * N * R(eps))``.  Rates
returned here are always per degree (per period and per commodity); bounds
multiply the ``L * N`` factor back in.

Any feasible ``u`` certifies a valid bound, and every rate is read through
the CGF evaluator at the point the solve returns, so however the solve
rounds, the bound stays conservative.  The maximization is exact for the two
families the package builds.  For Gaussian demand, with ``v = s * u`` over a
sign cone ``s``, it is the box QP ``max_{v >= 0} c . v - v'Qv / 2`` with
``Q = S Sigma S`` and ``c = s * eps``, solved by a primal active set (Lawson
and Hanson 1974, ch. 23) in a few small linear solves; a face whose system is
singular with ``c`` outside its range gives a null ray, and a nonnegative one
along which ``v'Qv`` evaluates to 0 (or below) makes the rate infinite.  A one-commodity CGF
is maximized at the root of ``phi'(u) = eps``, or at its domain edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import events
from .cgf import CgfDomainError, CgfEvaluator
from .demand import GaussianModel, validate_lead_time

__all__ = [
    "RateResult",
    "UnreachableRateError",
    "chernoff_bound",
    "invert_rate",
    "rate_numeric",
]

# rate_numeric's Gaussian active set raises RuntimeError after this many linear
# solves per commodity without meeting the KKT conditions, so a search that
# cycles fails loudly.
ACTIVE_SET_STEPS_PER_COMMODITY = 3
# An entry of the reduced gradient c - Qv counts as nonzero only past this
# multiple of its rounding scale |c| + |Q| v: with none, a maximizer that sits
# exactly on a face makes the search add and drop the same coordinate forever.
_GRADIENT_ROUNDING = 64.0 * np.finfo(float).eps
# A singular face's null ray is scaled to make its least entry 1 and rounded
# to this many bits, so that a null direction with small whole entries, such
# as (1, 1) or (1, 0, 1, 3), is found exactly and not to within rounding.
_RAY_BITS = 26
# Relative distance kept from an open domain edge where the CGF has a pole.
_POLE_GAP = 1e-12


class UnreachableRateError(ValueError):
    """No safety margin can push the bound down to the requested rate."""


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate maximization.

    ``rate`` is per degree: multiply by lead time and commodity count to get
    the exponent of the probability bound.  ``u_star`` is the point that
    achieved it, always inside the sign cone and the CGF's domain; for an
    infinite rate it is instead the ray in the cone along which the exponent
    grows without bound.  ``iterations`` counts the linear solves of the
    Gaussian active set, or the CGF evaluations of the one-commodity root.
    ``converged`` records whether the KKT conditions hold at ``u_star`` (for
    the root, whether it was reached); an infinite rate is exact and counts
    as converged.
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


def _edge(cgf: CgfEvaluator) -> float:
    """Upper end of ``u >= 0`` inside a scalar CGF's domain.

    Where the CGF is infinite at the domain edge, or raises
    ``CgfDomainError`` there (a pole), the end stays just inside it; a
    closed edge is used as it is.
    """
    if cgf.domain is None:
        return math.inf
    ((_, edge),) = cgf.domain
    edge = max(edge, 0.0)
    if 0.0 < edge < math.inf:
        try:
            closed = math.isfinite(cgf.value([edge]))
        except CgfDomainError:
            closed = False
        if not closed:
            edge *= 1.0 - _POLE_GAP
    return edge


def _rounding(q: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-coordinate allowance for rounding in the reduced gradient ``c - Qv``."""
    return _GRADIENT_ROUNDING * (np.abs(c) + np.abs(q) @ np.abs(v))


def _active_set(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Maximize ``c . v - v'Qv / 2`` over ``v >= 0`` for positive semidefinite ``Q``.

    Returns the maximizer, the number of linear solves and whether the
    maximum is infinite, in which case the first entry is a nonnegative ray
    ``d`` with ``c . d > 0`` along which ``d'Qd`` evaluates to at most 0.

    From ``v = 0``, the coordinate with the largest reduced gradient
    ``c - Qv`` joins the free set, and ``v`` moves toward the stationary
    point of the free face by the least-norm step, solved in the eigenbasis
    of the face's block of ``Q``; a coordinate that reaches 0 on the way
    leaves the set, and the face is solved again.  Where the block is
    singular, the gradient's part in its null space is a ray along which the
    objective grows linearly.  When that part is past rounding, or ``Q`` is
    flat along the ray, ``v`` moves along it until a coordinate reaches 0.
    If none falls, the maximum is infinite when ``d'Qd`` evaluates to at
    most 0: exactly 0 for a singular covariance whose null direction has
    small whole entries, such as (1, 1), which rounding the ray to
    ``_RAY_BITS`` bits finds; below 0 where rounding leaves the covariance a
    hair indefinite.  Where ``Q`` is instead positive definite to rounding,
    ``v`` steps half way to the line's maximum, its curvature taken as at
    least its rounding allowance, and the search ends there: farther out,
    rounding in ``v'Qv`` could lift the rate read there above the maximum.

    Where the maximizer is not unique, the least-norm one is returned: the
    least-norm solution over every coordinate whose reduced gradient is 0.
    """
    n = c.shape[0]
    v = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    steps = 0
    while True:
        join = c - q @ v - _rounding(q, c, v)
        join[free] = -math.inf
        j = int(join.argmax())
        if not join[j] > 0.0:
            break
        free[j] = True
        while True:
            steps += 1
            if steps > ACTIVE_SET_STEPS_PER_COMMODITY * n:
                raise RuntimeError(f"active set did not settle within {steps - 1} solves")
            idx = free.nonzero()[0]
            rows, vf = q.take(idx, 0), v[idx]
            qf, gf = rows.take(idx, 1), c[idx] - rows @ v
            # eigenvalues at or below rounding (numpy's lstsq threshold) span
            # the face's null space: a solve would step along it by noise
            lam, vec = np.linalg.eigh(qf)
            keep = lam > idx.size * np.finfo(float).eps * lam.max()
            coef = vec.T @ gf
            step, limit = vec[:, keep] @ (coef[keep] / lam[keep]), 1.0
            ray = vec[:, ~keep] @ coef[~keep]
            if ray.any():
                d = ray / np.abs(ray).max()
                d[np.abs(d) < 2.0**-_RAY_BITS] = 0.0
                d = np.ldexp(np.round(np.ldexp(d / np.abs(d[d != 0.0]).min(), _RAY_BITS)), -_RAY_BITS)
                flat = gf @ d > 0.0 and d @ qf @ d <= 0.0
                if flat or (np.abs(ray) > _rounding(qf, c[idx], vf + step)).any():
                    step, limit = d, math.inf
            falling = step < 0.0
            reach = vf[falling] / -step[falling]
            t = min(limit, float(reach.min(initial=math.inf)))
            if t == math.inf:
                d = np.zeros(n)
                d[idx] = step
                curve = float(step @ qf @ step)
                if curve <= 0.0:
                    return d, steps, True
                # Q is singular here only to rounding, and far out along the
                # ray phi loses its digits: half the step to the line's
                # maximum, with the curvature at least its rounding
                # allowance, keeps the rate read there below the maximum
                floor = _GRADIENT_ROUNDING * float(np.abs(step) @ np.abs(qf) @ np.abs(step))
                return v + (float(gf @ step) / (2.0 * max(curve, floor))) * d, steps, False
            # a coordinate can round a hair below 0 on the way; clip it
            if t == limit:
                v[idx] = np.maximum(vf + step, 0.0)
                break
            v[idx] = np.maximum(vf + t * step, 0.0)
            hit = idx[falling][reach == t]
            v[hit], free[hit] = 0.0, False
    zero = free | (np.abs(c - q @ v) <= _rounding(q, c, v))
    if (zero & ~free).any():
        idx = zero.nonzero()[0]
        steps += 1
        w = np.linalg.lstsq(q.take(idx, 0).take(idx, 1), c[idx], rcond=None)[0]
        if (w >= 0.0).all():
            v = np.zeros(n)
            v[idx] = w
    return v, steps, False


def rate_numeric(cgf: CgfEvaluator, epsilon, signs=None) -> RateResult:
    """Maximize ``u . eps - phi(u)`` over a sign cone, exactly.

    With no ``signs`` the cone is the nonnegative orthant, matching the
    event that every commodity exceeds its margin.  A +1/-1 sign vector
    instead constrains each coordinate of ``u`` to that sign, matching mixed
    exceed/stay-below events.  With ``v = s * u``, the objective is
    ``v . (s * eps) - phi(s * v)`` over ``v >= 0``.

    The solve follows the CGF's family: a CGF built by ``gaussian_cgf`` gets
    the active set of the box QP, and a one-commodity CGF (Weibull,
    exponential, empirical) the root of ``phi'(u) = eps`` along ``s`` (the
    CGF reflected for ``s = -1``).  Any other evaluator raises
    ``TypeError``.  The rate is read through the evaluator at the returned
    point; an infinite rate comes with the ray that reaches it as
    ``u_star``.
    """
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    if eps.shape[0] != cgf.dim:
        raise ValueError(f"margin has {eps.shape[0]} coordinates, expected {cgf.dim}")
    if not np.all(np.isfinite(eps)):
        raise ValueError("margins must be finite")
    s = events.check_pattern(events.ORTHANT, cgf.dim, signs) if signs is not None else np.ones(cgf.dim)
    c = s * eps
    model = cgf.model
    if isinstance(model, GaussianModel) and model.dim == cgf.dim:
        q = model.covariance * np.outer(s, s)
        v, steps, unbounded = _active_set(q, c)
    elif cgf.dim == 1:
        u_star, rate, evals, converged = _scalar_rate(_along(cgf, s), float(c[0]))
        return RateResult(eps, rate, s * u_star, evals, converged)
    else:
        raise TypeError("exact rates need a Gaussian CGF or a one-commodity CGF")
    if unbounded:
        return RateResult(eps, math.inf, s * v, steps, True)
    value, grad = cgf.value_and_gradient(s * v)
    g = c - s * grad
    tol = _rounding(q, c, v)
    kkt = bool(np.all(g <= tol) and np.all(np.abs(g[v > 0.0]) <= tol[v > 0.0]))
    return RateResult(eps, max(0.0, float(c @ v) - value) / cgf.dim, s * v, steps, kkt)


def _increasing_root(cgf: CgfEvaluator, f) -> tuple[float, bool, int]:
    """Root in ``u >= 0`` of ``f(u, phi(u), phi'(u))``, increasing in ``u``, for a scalar CGF.

    Returns the root, ``True`` and the number of CGF evaluations; ``f`` must
    be negative at ``u = 0``.  The bracket ends at ``_edge`` (closed, or
    just inside a pole); where ``f`` is still negative there, the edge is
    returned as the constrained solution.  With no edge the bracket doubles
    upward from ``u = 1``.  Without a root, ``False`` comes with 0 for a
    domain with no positive part, ``inf`` for an affine CGF (a slope equal
    to the slope at 0: demand is constant, since any other CGF is strictly
    convex), and otherwise the farthest point tried before the float range
    ends.
    """
    edge, evals = _edge(cgf), 0

    def evaluate(v: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        value, grad = cgf.value_and_gradient([v])
        return f(v, value, float(grad[0])), float(grad[0])

    lo, hi = 0.0, edge
    if math.isfinite(edge) and evaluate(edge)[0] < 0.0:
        return edge, edge > 0.0, evals
    if edge == math.inf:
        hi, flat = 1.0, evaluate(0.0)[1]
        while True:
            gap, slope = evaluate(hi)
            if gap >= 0.0:
                break
            if slope == flat:
                return math.inf, False, evals
            lo, hi = hi, 2.0 * hi
            if hi == math.inf:
                return lo, False, evals
    root = brentq(lambda v: evaluate(v)[0], lo, hi, xtol=1e-15, maxiter=300)
    return root, True, evals


def _scalar_rate(cgf: CgfEvaluator, eps: float) -> tuple[float, float, int, bool]:
    """Exact 1-d rate ``max_{u>=0} (u*eps - phi(u))`` for a scalar CGF.

    Returns the maximizer, the rate, the number of CGF evaluations and
    whether the maximum was reached.  The maximizer is the root of
    ``phi'(u) = eps``, or the domain edge (closed, or just inside a pole)
    when the slope stays below ``eps`` up to it; a domain with no positive
    part leaves only ``u = 0``.  An affine CGF (zero variance) whose slope
    stays below ``eps`` has an infinite rate, reached along ``u = 1``.  When
    the slope otherwise never reaches ``eps``, the rate at the farthest point
    tried is returned, unconverged: every ``u >= 0`` certifies a bound, so it
    is still conservative.
    """
    if eps <= 0.0:
        return 0.0, 0.0, 0, True
    u_star, reached, evals = _increasing_root(cgf, lambda u, value, slope: slope - eps)
    if u_star == math.inf:
        return 1.0, math.inf, evals, True
    return u_star, max(u_star * eps - cgf.value([u_star]), 0.0), evals, reached or u_star == 0.0


def _along(cgf: CgfEvaluator, direction: np.ndarray) -> CgfEvaluator:
    """Scalar CGF ``t -> phi(t * direction)``, over ``t`` where every coordinate is in the domain."""
    domain = None
    if cgf.domain is not None:
        scaled = [sorted((lo / d, hi / d)) for (lo, hi), d in zip(cgf.domain, direction) if d != 0.0]
        domain = ((max(lo for lo, _ in scaled), min(hi for _, hi in scaled)),)

    def both(t):
        value, grad = cgf.value_and_gradient(direction * t[0])
        return value, np.array([float(direction @ grad)])

    return CgfEvaluator(dim=1, domain=domain, _value_and_grad=both)


def invert_rate(cgf: CgfEvaluator, delta: float, lead_time: int) -> float:
    """Smallest lead-time safety stock whose bound meets a stockout rate.

    The per-period margin whose rate ``R(eps)`` equals ``r = -log(delta) / L``
    is ``eps = min_{u > 0} (r + phi(u)) / u``, since ``R(eps) >= r`` exactly
    when some ``u > 0`` has ``u * eps - phi(u) >= r``.  The minimizer is the
    one root of the increasing ``u * phi'(u) - phi(u) - r``, where
    ``eps = phi'(u)``; past the domain edge (closed, or just inside a pole)
    the rate is linear in the margin and the minimizer is the edge.  Any
    ``u`` gives a margin at least
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
    u_star, reached, _ = _increasing_root(cgf, lambda u, value, slope: u * slope - value - target)
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
    eps = np.asarray(epsilon, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise ValueError("margins must be finite")
    cone = events.check_pattern(pattern, cgf.dim, signs)
    if pattern == events.FUNGIBLE:
        rate = _scalar_rate(_along(cgf, np.ones(cgf.dim)), float(eps.reshape(())))[1]
        return min(1.0, math.exp(-lead * rate))
    eps = eps.reshape(-1)
    if pattern == events.UNION:
        first_rate = _scalar_rate(_along(cgf, np.eye(cgf.dim)[0]), eps[0])[1]
        mixed = rate_numeric(cgf, eps, signs=np.array([-1.0, 1.0]))
        return min(1.0, math.exp(-lead * first_rate) + math.exp(-mixed.exponent(lead)))
    # all_exceed or orthant: check_pattern gives signs only for the orthant
    result = rate_numeric(cgf, eps, signs=cone)
    return min(1.0, math.exp(-result.exponent(lead)))
