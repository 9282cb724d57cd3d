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
along which ``v'Qv`` evaluates to 0 (or below) makes the rate infinite.  Any
other question is one root along a line ``u = t d``, ``t >= 0``, that reads
each point once: a one-commodity rate (``d = s``, where ``phi'(u) = eps``), a
rate inversion and the ``fungible`` rate (``d = 1``), and the ``union``'s
first term (``d = e_0``), each just inside the first domain edge along ``d``.
The root takes Brent's steps (Brent 1973, ch. 4, as scipy's C routine for
the method takes them) and stops as soon as the convexity gap closes: the
tangents of the convex ``phi`` at the points read bound the optimum (Dembo
and Zeitouni 1998), and the best point read, whose rate or margin is the one
returned, is within ``_ROOT_GAP`` of that bound.  The gap is in the evaluator's
arithmetic: a CGF evaluated by quadrature is convex only to its own rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import events
from .cgf import CgfEvaluator
from .demand import GaussianModel, validate_delta, validate_lead_time

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
# Relative distance kept inside a finite domain edge, where the CGF may have a
# pole; at a closed edge it moves a rate or stock by under this, to the safe side.
_POLE_GAP = 1e-12
_EPS = float(np.finfo(float).eps)
# Brent steps after which the scalar root gives up; bisection alone would
# settle a doubled bracket in about 60
_ROOT_STEPS = 300
# The scalar root stops once its best answer is within this share of the
# bound its tangents put on the optimum, plus the answer's own rounding (the
# residual's allowance over the point's x).
_ROOT_GAP = 4.0 * _EPS
# A residual within this share of its terms may have either sign, so it does
# not count as past the root.
_ROOT_ROUNDING = 2.0 * _EPS
# the best point before any is read: any answer beats it
_NOTHING = (math.nan, math.nan, -math.inf, math.nan, math.nan)


class UnreachableRateError(ValueError):
    """No safety margin can push the bound down to the requested rate."""


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate maximization.

    ``rate`` is per degree: multiply by lead time and commodity count to get
    the exponent of the probability bound.  ``u_star`` is a maximizer (any
    one, where several exist; for one commodity, the point read with the
    largest rate), always inside the sign cone and the CGF's domain; for an
    infinite rate it is instead the ray in the cone along which the exponent
    grows without bound.  ``iterations`` counts the linear solves of the
    active set (Gaussian, two or more commodities), or the points (one CGF
    evaluation each) the one-commodity root reads, Gaussian included.
    ``converged`` records whether the KKT conditions hold at ``u_star``; for
    one commodity, whether the tangents read put the rate within
    ``_ROOT_GAP`` of the maximum, which a slope that meets the margin only by
    rounding does not.  An infinite rate is exact and counts as converged.
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


def _edge(cgf: CgfEvaluator, direction: list[float]) -> float:
    """Last ``t >= 0`` with ``t * direction`` inside every coordinate's domain, evaluating nothing.

    A finite edge, a pole or closed, is stopped ``_POLE_GAP`` inside: every
    point inside certifies a bound, and at a closed edge the rate or stock
    read there moves by under ``_POLE_GAP`` relative, to the safe side.
    """
    if cgf.domain is None:
        return math.inf
    edge = min((hi if d > 0.0 else lo) / d for (lo, hi), d in zip(cgf.domain, direction) if d != 0.0)
    return max(edge, 0.0) * (1.0 - _POLE_GAP)


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

    The KKT point the search reaches is returned as it is: where the
    maximizer is not unique, every one has the same rate and the same ``Qv``.
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
    return v, steps, False


def rate_numeric(cgf: CgfEvaluator, epsilon, signs=None) -> RateResult:
    """Maximize ``u . eps - phi(u)`` over a sign cone, exactly.

    With no ``signs`` the cone is the nonnegative orthant, matching the
    event that every commodity exceeds its margin.  A +1/-1 sign vector
    instead constrains each coordinate of ``u`` to that sign, matching mixed
    exceed/stay-below events.  With ``v = s * u``, the objective is
    ``v . (s * eps) - phi(s * v)`` over ``v >= 0``.

    The commodity count picks the solve: any one-commodity CGF (Gaussian,
    Weibull, exponential, empirical) gets the root of ``phi'(u) = eps`` along
    ``s`` (the CGF reflected for ``s = -1``), and two or more commodities of
    a CGF built by ``gaussian_cgf`` the active set of the box QP.  Any other
    evaluator raises ``TypeError``.  The rate is read through the evaluator
    at the returned point; an infinite rate comes with the ray that reaches
    it as ``u_star``.  A one-commodity root not reached by the time
    ``exp(-rate)`` underflows to 0 ends there, unconverged: a lower bound
    that already makes every bound 0.  Otherwise the one-commodity rate is
    the largest read, certified within ``_ROOT_GAP`` of the maximum when
    converged.
    """
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    if eps.shape[0] != cgf.dim:
        raise ValueError(f"margin has {eps.shape[0]} coordinates, expected {cgf.dim}")
    if not np.all(np.isfinite(eps)):
        raise ValueError("margins must be finite")
    s = events.check_pattern(events.ORTHANT, cgf.dim, signs) if signs is not None else np.ones(cgf.dim)
    c = s * eps
    if cgf.dim == 1:
        u_star, rate, evals, converged = _scalar_rate(cgf, s.tolist(), float(c[0]))
        return RateResult(eps, rate, s * u_star, evals, converged)
    model = cgf.model
    if not (isinstance(model, GaussianModel) and model.dim == cgf.dim):
        raise TypeError("exact rates need a Gaussian CGF or a one-commodity CGF")
    q = model.covariance * np.outer(s, s)
    v, steps, unbounded = _active_set(q, c)
    if unbounded:
        return RateResult(eps, math.inf, s * v, steps, True)
    value, grad = cgf.value_and_gradient(s * v)
    g = c - s * grad
    tol = _rounding(q, c, v)
    kkt = bool(np.all(g <= tol) and np.all(np.abs(g[v > 0.0]) <= tol[v > 0.0]))
    return RateResult(eps, max(0.0, float(c @ v) - value) / cgf.dim, s * v, steps, kkt)


def _increasing_root(cgf: CgfEvaluator, direction: list[float], f, enough=None) -> tuple[float, bool, float, dict]:
    """Best point ``t >= 0`` of an answer read along ``u = t d``, by the root of its slope.

    ``f(t, phi(t d), d . grad phi(t d))`` returns ``(residual, allowance,
    answer, x)``: the answer the point certifies, and a variable ``x``,
    increasing in ``t``, in which the answer is concave with slope
    ``-residual``; the residual is increasing in ``t``, negative at
    ``t = 0`` and exact to within ``allowance``.  Returns the point with the
    largest answer read, whether that answer is within ``_ROOT_GAP`` of the
    maximum, an upper end on the maximum (``inf`` where none is certified)
    and a map from each point read, read once, to ``f``'s tuple and the
    slope.

    The bracket ends at ``_edge``, just inside the first finite domain edge
    along ``d``; where the residual is still negative there, that end is
    returned as the constrained maximum, converged unless it is 0.  With no
    edge the bracket doubles upward from ``t = 1``.  Without a root, the
    search ends unconverged at ``inf`` for an affine CGF (the
    same slope at 0 and 1: demand is constant along ``d``, since any other
    CGF is strictly convex), the first doubled end ``t`` where
    ``enough(answer)`` holds, with no ``enough`` the end before the first
    one whose slope equals it (there ``t phi' - phi`` stops moving), and
    otherwise the farthest point tried before the float range ends.

    In the bracket, Brent's method (Brent 1973, ch. 4) takes the steps of
    scipy's C routine for the method and its bracket stop (``xtol = 1e-15``,
    ``rtol = 4 eps``, ``_ROOT_STEPS``), so it reads no point that routine
    would not, and stops earlier once the gap closes: once the best answer
    is within ``_ROOT_GAP`` of the upper end, plus its rounding,
    ``allowance * |x|``.
    Every point's tangent bounds the answer from above, ``answer(x) <= V_i -
    f_i (x - x_i)`` (convexity; Dembo and Zeitouni 1998).  The maximum lies
    between the last point whose residual is below ``-allowance`` and the
    first whose residual exceeds ``allowance``, and the upper end is the
    largest crossing of the tangents of consecutive points between them
    (``_crossing``).  With no point past the root by more than its
    allowance, what lies beyond the last point read is bounded by taking its
    residual to keep growing at its last pace (``_beyond``): a slope that
    meets its target only by rounding closes no gap.
    """
    points, evaluate = {}, cgf.value_and_gradient
    # one commodity: a product each for the point and the slope; a
    # comprehension and a sum would add a fifth to a closed-form point's cost
    scale = direction[0] if len(direction) == 1 else None
    # the last point certified below the root, the first certified past it,
    # the points in between, and the point with the largest answer
    below, above, loose, best, top = 0.0, math.inf, [], math.nan, _NOTHING

    def gap(t: float) -> float:
        nonlocal below, above, best, top
        got = points.get(t)
        if got is None:
            if scale is None:
                value, grad = evaluate([d * t for d in direction])
                slope = sum(map(mul, direction, grad.tolist()))
            else:
                value, grad = evaluate([scale * t])
                slope = scale * grad.item()
            residual, allowance, answer, x = f(t, value, slope)
            got = points[t] = residual, allowance, answer, x, slope
            if residual < -allowance:
                if t > below:
                    below = t
            elif residual <= allowance:
                loose.append(t)
            elif t < above:
                above = t
            if answer >= top[2]:
                best, top = t, got
        return got[0]

    def upper() -> float:
        if not loose:
            return math.inf if above == math.inf else _crossing(points[below], points[above])
        chain = [below, *sorted(t for t in loose if below < t < above)]
        if above == math.inf:
            tail = _beyond(points[chain[-2]], points[chain[-1]]) if len(chain) > 1 else math.inf
        else:
            chain.append(above)
            tail = -math.inf
        return max([tail, *(_crossing(points[p], points[q]) for p, q in zip(chain, chain[1:]))])

    lo, hi = 0.0, _edge(cgf, direction)
    if math.isfinite(hi) and gap(hi) < 0.0:
        return hi, hi > 0.0, points[hi][2], points
    if hi == math.inf:
        gap(0.0)
        hi, last = 1.0, points[0.0][4]
        while gap(hi) < 0.0:
            answer, slope = points[hi][2], points[hi][4]
            # the same slope at 0 and 1 is affine; farther out, a plateau
            if slope == last and (lo == 0.0 or enough is None):
                return (math.inf if lo == 0.0 else lo), False, math.inf, points
            if enough is not None and enough(answer):
                return hi, False, math.inf, points
            lo, hi, last = hi, 2.0 * hi, slope
            if hi == math.inf:
                return lo, False, math.inf, points
    # Brent's method, step for step as scipy's C routine takes it
    xtol, rtol = 1e-15, 4.0 * _EPS
    xpre, xcur = lo, hi
    fpre, fcur = gap(xpre), gap(xcur)
    xblk = fblk = spre = scur = 0.0
    bound = math.inf
    for _ in range(_ROOT_STEPS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        bound = upper()
        _, allowance, answer, x, _ = top
        closed = bound - answer <= _ROOT_GAP * abs(answer) + allowance * abs(x)
        if closed or fcur == 0.0 or abs(sbis) < tol:
            return best, closed, bound, points
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0.0 else -tol)
        fcur = gap(xcur)
    return best, False, bound, points


def _crossing(p: tuple, q: tuple) -> float:
    """Largest answer that the tangents at ``p`` and at the later ``q`` leave between them."""
    (fp, _, vp, xp, _), (fq, _, vq, xq, _) = p, q
    if xp == -math.inf:
        return math.inf
    # a tangent that does not rise out of p (or into q) caps the answer there
    if fp >= 0.0 or fq <= 0.0:
        return vp if fp >= 0.0 else vq
    return vp - fp * (vq - vp + fq * (xq - xp)) / (fq - fp)


def _beyond(p: tuple, q: tuple) -> float:
    """Largest answer past the last point ``q``, within its allowance of the root, after ``p``.

    The tangent at ``q`` may rise by its allowance.  Convexity alone leaves
    that rise unbounded; here the residual is assumed to keep growing at its
    rate from ``p``, which caps the rise at ``(allowance - f_q)^2 / (2
    rate)``: far below the gap target where the residual crossed 0 at a
    steady pace, and large where it crept up to its allowance, so a slope
    that meets its target only by rounding closes no gap.
    """
    (fp, _, _, xp, _), (fq, aq, vq, xq, _) = p, q
    if xp == -math.inf or fq <= fp:
        return math.inf
    return vq + (aq - fq) ** 2 * (xq - xp) / (2.0 * (fq - fp))


def _scalar_rate(cgf: CgfEvaluator, direction: list[float], eps: float) -> tuple[float, float, int, bool]:
    """Exact 1-d rate ``max_{t>=0} (t*eps - phi(t d))`` along a direction ``d``.

    Returns the maximizer, the rate, the number of distinct points read and
    whether the rate is certified within ``_ROOT_GAP`` of the maximum.  The
    maximizer is the root of ``d . grad phi(t d) = eps``, found by
    ``_increasing_root`` with ``x = t``, or the point just inside the domain
    edge when the slope stays below ``eps`` up to it; a domain with no
    positive part leaves only ``t = 0``.  The rate returned is the largest
    read, ``t eps - phi``, and the tangents of the points read bound the
    maximum from above.  An affine CGF (zero variance along ``d``) whose
    slope stays below ``eps`` has an infinite rate, reached along ``t = 1``.
    When the slope otherwise never passes ``eps`` by more than rounding, the
    rate is returned, unconverged, at the first doubled point where
    ``exp(-rate)`` underflows to 0, or at the end of the float range, or
    where the slope meets ``eps`` only by rounding: every ``t >= 0``
    certifies a bound.
    """
    if eps <= 0.0:
        return 0.0, 0.0, 0, True

    def line(t: float, value: float, slope: float) -> tuple[float, float, float, float]:
        return slope - eps, _ROOT_ROUNDING * (abs(slope) + eps), t * eps - value, t

    def zero_bound(rate: float) -> bool:
        return rate > 0.0 and math.exp(-rate) == 0.0

    t, converged, _, points = _increasing_root(cgf, direction, line, zero_bound)
    if t == math.inf:
        return 1.0, math.inf, len(points), True
    return t, max(points[t][2], 0.0), len(points), converged or t == 0.0


def invert_rate(cgf: CgfEvaluator, delta: float, lead_time: int) -> float:
    """Smallest lead-time safety stock whose bound meets a stockout rate.

    The per-period margin whose rate ``R(eps)`` equals ``r = -log(delta) / L``
    is ``eps = min_{u > 0} (r + phi(u)) / u``, since ``R(eps) >= r`` exactly
    when some ``u > 0`` has ``u * eps - phi(u) >= r``.  The minimizer is the
    one root of the increasing ``u * phi'(u) - phi(u) - r``, where
    ``eps = phi'(u)``; past the domain edge the rate is linear in the
    margin and the minimizer is the point just inside the edge.  Any ``u``
    gives a margin at least the exact one, so the stock errs on the safe
    side.  The root is ``_increasing_root``'s along ``d = 1``, whose answer
    is the negated margin, concave in ``x = -1 / u`` with slope the negated
    residual; the stock is ``L`` times the least margin read, and the
    tangents read bound the exact margin from below to within ``_ROOT_GAP``.

    A stock sized from ``empirical_cgf`` is certified only for the plug-in
    estimate of the CGF: the estimation error is not covered, and
    ``estimation_certificate`` does not enter the stock.

    An affine CGF (zero variance: demand is constant) leaves every positive
    stock certified, and no least one exists: the stock is then
    ``math.ulp(0.0)``, the least positive float, as for an infinite Gaussian
    rate.  Raises ``UnreachableRateError`` when no margin reaches the rate,
    for instance when the CGF is infinite for every positive argument, or
    when, with no domain edge, its slope is the same at two doubled points
    in a row while ``u * phi'(u) - phi(u)`` is still below ``r``.
    """
    lead = validate_lead_time(lead_time)
    if cgf.dim != 1:
        raise ValueError("rate inversion requires a single-commodity CGF")
    target = -math.log(validate_delta(delta)) / lead

    def line(u: float, value: float, slope: float) -> tuple[float, float, float, float]:
        allowance = _ROOT_ROUNDING * (u * abs(slope) + abs(value) + target)
        if u == 0.0:
            return -value - target, allowance, -math.inf, -math.inf
        return u * slope - value - target, allowance, -(target + value) / u, -1.0 / u

    u_star, converged, _, points = _increasing_root(cgf, [1.0], line)
    if u_star == math.inf:
        return math.ulp(0.0)
    # unconverged with every point read short of the rate: no root
    if not converged and points[max(points)][0] < 0.0:
        raise UnreachableRateError("unreachable stockout rate for this demand model")
    return lead * -points[u_star][2]


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
        rate = _scalar_rate(cgf, [1.0] * cgf.dim, float(eps.reshape(())))[1]
        return min(1.0, math.exp(-lead * rate))
    eps = eps.reshape(-1)
    if pattern == events.UNION:
        first_rate = _scalar_rate(cgf, [1.0, 0.0], float(eps[0]))[1]
        mixed = rate_numeric(cgf, eps, signs=np.array([-1.0, 1.0]))
        return min(1.0, math.exp(-lead * first_rate) + math.exp(-mixed.exponent(lead)))
    # all_exceed or orthant: check_pattern gives signs only for the orthant
    result = rate_numeric(cgf, eps, signs=cone)
    return min(1.0, math.exp(-result.exponent(lead)))
