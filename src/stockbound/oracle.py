"""Exact and simulated stockout probabilities for Gaussian demand.

``normal_upper_tail`` is the standard normal upper tail H(k).
``bivariate_joint_tail`` evaluates the probability that two correlated
lead-time demands both exceed their thresholds as one Plackett integral of
the bivariate density over the correlation, from 0 or from -1 (so
``rho = +-1`` is no special case), to a relative error target, by an
adaptive 21-point Gauss-Kronrod rule in numpy that evaluates a batch of
tails in one pass, each bit for bit as alone; and ``invert_joint_tail``
finds the equal stock at which that probability meets ``delta`` by a
bracketed Halley iteration on its logarithm, which is concave in the stock,
with the first two derivatives in closed form; every stock it returns is
certified by an evaluated tail.  A grid of ``delta`` runs its iterations in
lockstep, one batch of tails per round.  The Monte Carlo estimator
handles any dimension and the full set of stockout patterns, and is the only
oracle offered beyond two commodities.  It splits its trials into fixed
chunks of 32 768, each drawn from its own stream spawned from the seed, and
counts the chunks on a thread per usable core; the hit count depends on the
seed and the trial count only.  Each pattern is a test per commodity joined
by AND, so trials are drawn one commodity at a time through the
lower-triangular covariance factor, and a trial stops drawing once a test
has decided it.  The first test reads one normal alone, so a block's count
of trials that pass it is one binomial draw, and only those trials draw
their first normal, from the normal truncated to the passing side.

Thresholds are standardized: a demand margin of ``L * eps`` over a lead time
of ``L`` periods with per-period variance ``s2`` corresponds to
``a = L * eps / sqrt(L * s2)``.

H comes from the standard library's ``math.erfc``, within 1.65 eps of the
exact ``erfc`` (mpmath, 8000 points on [-5, 26.5]), inside the
``eps (9 + 6 z^2)`` allowance the certificates add for it and for the
rounding of its argument; its inverse from ``statistics.NormalDist.inv_cdf``
(Wichura's AS 241), within 2.9 eps down to ``delta = 5e-324``.  Only Monte
Carlo needs scipy, for the vectorized ``scipy.special.ndtri``, and imports
it when it runs, so importing the package loads no scipy.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import events
from .demand import GaussianModel, covariance_factor, validate_delta, validate_lead_time

__all__ = [
    "OracleResult",
    "TailQuery",
    "bivariate_joint_tail",
    "invert_joint_tail",
    "joint_tail_monte_carlo",
    "normal_upper_tail",
    "normal_upper_tail_inverse",
]

# bivariate_joint_tail guarantees a reported error of at most this share of P.
QUADRATURE_TARGET = 1e-9
# Relative stock tolerance of the root in invert_joint_tail (relative to the
# stock plus the smaller scale, and cut where the log tail is steep so that
# it moves by at most 1e-10), which keeps P within 1e-9 of delta.
INVERSION_RTOL = 1e-12
# invert_joint_tail raises RuntimeError after this many tail evaluations
# without a stop, so an iteration that creeps fails loudly.
INVERSION_MAX_EVALS = 100
# Half width of the Monte Carlo error, in standard errors.
MC_Z = 3.0
_SQRT2 = math.sqrt(2.0)
_EPS = sys.float_info.epsilon
_TINY = math.ulp(0.0)
_STANDARD_NORMAL = statistics.NormalDist()


def _elementwise(f, x):
    """``f(x)`` at a number, and ``f`` at each element of an array, which keeps its shape."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(f, x.ravel().tolist())), dtype=float).reshape(x.shape)
    return f(x)


def _neg_inv_cdf(p: float) -> float:
    # 0.0 - x rather than -x, so that H^-1(1/2) is +0
    return 0.0 - _STANDARD_NORMAL.inv_cdf(p)


def normal_upper_tail(k: float) -> float:
    """Standard normal upper tail ``H(k) = P(Z >= k)``, elementwise on arrays."""
    return 0.5 * _elementwise(math.erfc, k / _SQRT2)


def normal_upper_tail_inverse(delta: float) -> float:
    """The threshold ``k`` with ``H(k) = delta``, for ``delta`` in (0, 1)."""
    return float(_upper_tail_inverse(validate_delta(delta)))


def _upper_tail_inverse(delta):
    """``normal_upper_tail_inverse`` without the check, elementwise on arrays."""
    return _elementwise(_neg_inv_cdf, delta)


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


# QUADPACK's qk21 (Piessens et al. 1983): the 21-point Kronrod rule on
# [-1, 1] and its embedded 10-point Gauss rule, as half tables from the end
# node in to the centre; the Gauss nodes are every other Kronrod node.
_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_HALF_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980221119, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_HALF_GAUSS = np.zeros(11)
_HALF_GAUSS[1:10:2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK_NODES = np.concatenate([-_HALF_NODES[:10], _HALF_NODES[::-1]])
_GK_KRONROD = np.concatenate([_HALF_KRONROD[:10], _HALF_KRONROD[::-1]])
# One row sum against each gives a panel's Kronrod sum and 200 times its
# Kronrod minus Gauss difference, the numerator of QUADPACK's error ratio.
_GK_WEIGHTS = np.stack([_GK_KRONROD, 200.0 * (_GK_KRONROD - np.concatenate([_HALF_GAUSS[:10], _HALF_GAUSS[::-1]]))])
# Each integral's relative error target, and its most panels.
_QUAD_RTOL = 1e-12
_QUAD_PANELS = 500


def _nodes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The 21 ``qk21`` nodes of each panel ``[left, right]``, a row per panel."""
    return (0.5 * (left + right))[:, None] + (0.5 * (right - left))[:, None] * _GK_NODES


def _qk21(f: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's ``qk21`` from each panel's row of 21 integrand values.

    Returns each panel's integral and error estimate; ``half`` is its half
    width.  The sums run over each row in a fixed order (a row sum, not a
    matrix product), so a panel's result does not depend on the other rows.
    The integrands here are positive, so QUADPACK's ``resabs`` is the
    integral itself.
    """
    sums = np.add.reduce(f[:, None, :] * _GK_WEIGHTS, axis=2)
    asc = np.add.reduce(np.abs(f - 0.5 * sums[:, :1]) * _GK_KRONROD, axis=1)
    # QUADPACK's resasc * min(1, (d / resasc)^1.5), d = 200 |K - G|, is
    # min(resasc, d sqrt(d / resasc)), and 0 where resasc is 0 (a constant
    # integrand); then at least 50 eps resabs.
    diff = np.abs(sums[:, 1])
    ratio = np.divide(diff, asc, out=np.zeros_like(asc), where=asc > 0.0)
    err = np.maximum(np.minimum(asc, diff * np.sqrt(ratio)), 50.0 * _EPS * sums[:, 0])
    return half * sums[:, 0], half * err


def _integrate(integrand, owner, left, right, count, first=None):
    """Integrals over panels by adaptive ``qk21``, level by level.

    Panel ``i`` spans ``[left[i], right[i]]`` and belongs to integral
    ``owner[i]`` (``0 .. count - 1``, nondecreasing, panels in order);
    ``integrand(x, owner)`` evaluates a row of nodes per panel, and
    ``first``, when given, is the panels' ``_qk21`` already.  With
    ``owner`` None, integral ``i`` is the one panel ``[left, right]``, the
    same for all (scalars).  An integral is the sum over its panels, and so
    is its error.  While that error is above ``_QUAD_RTOL`` times the
    integral, every panel whose error exceeds its share of that target, by
    width, is bisected, and all new panels of all integrals are evaluated in
    one call.  An integral whose next level would pass ``_QUAD_PANELS``
    panels, or that has no panel above its share, stops where it is; the
    caller's error check then decides.  Nothing one integral computes
    depends on another.
    """
    if first is None:
        first = _qk21(integrand(_nodes(left, right), owner), 0.5 * (right - left))
    area, err = first
    if owner is None:
        if not np.count_nonzero(err > _QUAD_RTOL * area):
            return area, err
        owner, left, right = np.arange(count), np.full(count, left), np.full(count, right)
    span = np.bincount(owner, right - left, count)
    capped = np.zeros(count, dtype=bool)
    while True:
        total, total_err = np.bincount(owner, area, count), np.bincount(owner, err, count)
        target = _QUAD_RTOL * total
        open_ = (total_err > target) & ~capped
        if not np.count_nonzero(open_):
            return total, total_err
        split = open_[owner] & (err * span[owner] > target[owner] * (right - left))
        # An open integral stops where it is when bisecting would pass the
        # panel cap, or when rounding leaves no panel above its share.
        capped |= np.bincount(owner, split + 1, count) > _QUAD_PANELS
        capped |= open_ & (np.bincount(owner, split, count) == 0)
        split &= ~capped[owner]
        if not np.count_nonzero(split):
            continue
        reps = split + 1
        halves = (np.cumsum(reps) - reps)[split]  # where each split panel's left half lands
        mid = 0.5 * (left[split] + right[split])
        owner, left, right, area, err = (np.repeat(v, reps) for v in (owner, left, right, area, err))
        right[halves], left[halves + 1] = mid, mid
        kids = np.concatenate([halves, halves + 1])
        lo, hi = left[kids], right[kids]
        area[kids], err[kids] = _qk21(integrand(_nodes(lo, hi), owner[kids]), 0.5 * (hi - lo))


def _start_values(a: np.ndarray, b: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """``P`` where the Plackett integral starts, and a bound on its error.

    For ``rho >= 0`` that is ``rho = 0``, where ``P = H(a) H(b)``; otherwise
    ``rho = -1``, where ``Y = -X`` and ``P`` is the band ``P(a <= X <= -b)``.
    A difference of two tails keeps only the digits of the band's width,
    which for a nearly antithetic pair (``a ~ -b``) is all of them, so the
    band's density is integrated instead, scaled by its largest value.
    """
    if rho >= 0.0:
        # math.erfc is within 1.65 eps (against mpmath on [-5, 26.5]), and a
        # slip of eps in its argument z = k / sqrt(2) moves it by 2 z^2 eps.
        z = np.array([a, b]) / _SQRT2
        tails = _elementwise(math.erfc, z)
        product = 0.25 * tails[0] * tails[1]
        z = np.abs(z) + 1.0
        return product, _EPS * (9.0 + 6.0 * np.add.reduce(z * z)) * product
    value, error = np.zeros(a.size), np.zeros(a.size)
    rows = np.flatnonzero(a < -b)
    if rows.size:
        a, b = a[rows], b[rows]
        floor = np.where((a < 0.0) & (0.0 < -b), 0.0, 0.5 * np.minimum(a * a, b * b))
        band, abserr = _integrate(
            lambda x, k: np.exp(floor[k, None] - 0.5 * x * x), np.arange(rows.size), a, -b, rows.size
        )
        # a relative slip of eps in x moves the exponent by x^2 eps
        slip = abserr + 2.0 * _EPS * (np.maximum(a * a, b * b) + 1.0) * band
        scale = np.exp(-floor) / math.sqrt(2.0 * math.pi)
        value[rows], error[rows] = scale * band, scale * slip
    return value, error


def _joint_tails(a, b, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """``bivariate_joint_tail`` at arrays of thresholds and one correlation.

    Returns the arrays ``(P, error)``; each query's pair is the same, bit for
    bit, whatever other queries share the call.  Raises ``RuntimeError``
    when any query misses ``QUADRATURE_TARGET``.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    value, error = _start_values(a, b, rho)
    edge = math.acos(abs(rho))
    lo, hi = (edge, 0.5 * math.pi) if rho >= 0.0 else (0.0, edge)
    if lo < hi:
        s, c = (a - b, a * b) if rho >= 0.0 else (a + b, -a * b)
        shift = 0.5 * np.maximum(a * a, b * b)
        in_log = s != 0.0
        rise = np.count_nonzero(in_log)
        half_s2 = 0.5 * s * s if rise else None

        def plackett(t, rows):
            # where s = 0 the rise term is 0 and skipping it changes no bit
            x = shift[rows, None]
            if rise:
                sin_t = np.sin(t)
                x = x - half_s2[rows, None] / sin_t / sin_t
            return np.exp(x - c[rows, None] / (1.0 + np.cos(t)))

        def integrand(u, rows):
            if not rise:
                return plackett(u, rows)
            logs = in_log[rows, None]
            t = np.where(logs, np.exp(u), u)
            f = plackett(t, rows)
            return np.where(logs, f * t, f)

        t_ends = np.array([hi, lo] if lo > 0.0 else [hi])
        if rise:
            # In log t the rise of exp(-s^2 / (2 t^2)) and its slow
            # approach to 1 are O(1) wide; below |s| / 40 it is under
            # e^-800: cut.  Breakpoints at |s| and 10 |s| outside the
            # range clip to an end and leave an empty panel, dropped.
            abs_s = np.where(in_log, np.abs(s), 1.0)  # 1 where s = 0 keeps the logs finite
            lo_q = np.where(in_log, np.log(np.maximum(lo, abs_s / 40.0)), lo)
            hi_q = np.where(in_log, math.log(hi), hi)
            cuts = (np.clip(np.where(in_log, np.log(k * abs_s), hi_q), lo_q, hi_q) for k in (1.0, 10.0))
            edges = np.stack([lo_q, *cuts, hi_q], axis=1)
            left, right = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            keep = left < right
            owner, left, right = np.repeat(np.arange(a.size), 3)[keep], left[keep], right[keep]
            log_2span = np.log(2.0 * np.maximum(hi_q - lo_q, _TINY))
            first, at_ends = None, plackett(t_ends, slice(None))
        else:
            # Every integral starts as the one panel [lo, hi]: its nodes
            # and the two ends are one row, the same numbers as above.
            # Equal-variance policy grids have s = 0 throughout, and there
            # this path takes about 57 us per call of 8 tails against 115
            # us for the one above (2-core x86 host); without it, `figure
            # fig1` on such a grid runs slower than with scipy quad.
            owner, left, right = None, lo, hi
            log_2span = np.log(2.0 * (hi - lo))
            nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GK_NODES
            f = plackett(np.concatenate([nodes, t_ends]), slice(None))
            first, at_ends = _qk21(f[:, :21], 0.5 * (hi - lo)), f[:, 21:]
        area, abserr = _integrate(integrand, owner, left, right, a.size, first)
        # The exponent x <= 0 carries about 32 eps (shift + |x|) of
        # rounding, and with a Jacobian of at most 2 the integral of
        # |x| e^x is at most 2 m area, m = max(1, log(2 span / area)).
        m = np.maximum(1.0, log_2span - np.log(np.maximum(area, _TINY)))
        slip = abserr + 32.0 * _EPS * (shift + 2.0 * m + 1.0) * area
        ends = 2.0 * _EPS * np.add.reduce(t_ends * at_ends, axis=1)
        scale = np.exp(-shift) / (2.0 * math.pi)
        value = value + scale * area
        error = error + scale * (slip + ends)
    met = error <= QUADRATURE_TARGET * value
    if np.count_nonzero(met) < met.size:
        i = int(np.argmin(met))
        raise RuntimeError(
            f"joint tail {value[i]:.3e} has error {error[i]:.2e}, "
            f"above the relative target {QUADRATURE_TARGET:.0e}"
        )
    return np.minimum(1.0, value), error


def bivariate_joint_tail(query: TailQuery) -> OracleResult:
    """Probability that both standardized demands exceed their thresholds.

    ``dP/drho`` is the bivariate density (Plackett 1954), so ``P`` is its
    value at ``rho = 0``, or at ``rho = -1`` for ``rho < 0``
    (``_start_values``), plus the density integrated from there; ``rho =
    +-1`` is an end of that integral.  With ``r = +-cos t`` (Drezner and
    Wesolowsky 1990, Genz 2004) the integrand is
    ``exp(-s^2 / (2 sin^2 t) - c / (1 + cos t)) / (2 pi)``, with ``s = a - b``,
    ``c = ab`` and ``t`` from ``acos rho`` to ``pi / 2``, or ``s = a + b``,
    ``c = -ab`` and ``t`` from 0 to ``acos(-rho)``: positive, bounded and
    free of cancellation.  It rises from 0 near ``t = |s|``, so for
    ``s != 0`` it is integrated in ``log t``, with breakpoints at ``|s|``
    and ``10 |s|``.  It is scaled by ``exp(max(a^2, b^2) / 2)``, which
    bounds the density's exponent, so deep tails do not underflow inside it.

    The integrals (this one, and the band where ``rho < 0`` starts) use one
    adaptive rule in numpy: QUADPACK's 21-point Gauss-Kronrod panel and its
    error estimate (Piessens et al. 1983), bisecting the panels that miss
    their share of a 1e-12 relative target, to at most 500 panels.  The
    library evaluates tails in batches through the same code
    (``_joint_tails``), which returns this call's numbers bit for bit.

    ``error`` adds quadrature's estimate and the rounding of the exponent,
    the limits and the starting value, and is at most ``QUADRATURE_TARGET *
    probability``; when that cannot be met the call raises instead of
    returning a loose number.  A tail that underflows to 0 is returned with
    an error that underflows as well.
    """
    probability, error = _joint_tails(np.array([query.a]), np.array([query.b]), query.rho)
    return OracleResult(probability=float(probability[0]), method="quadrature-plackett", error=float(error[0]))


# Trials per chunk.  Chunk i draws from the i-th stream spawned from the
# seed, so the hit count does not depend on how many threads count chunks.
_CHUNK = 1 << 15
# Trials per block: small enough that a block's normals stay in cache.  The
# generator fills normals in sequence whatever the call size, so the hit
# count depends on the block size only through the order of the draws.
_BLOCK = 1 << 13


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
    periods, drawn here from their exact distribution N(0, L * covariance) as
    ``x = sqrt(L) B z``, with ``B`` the lower-triangular ``covariance_factor``
    (whose diagonal is nonnegative) and ``z`` standard normal.  Every pattern
    is a test on each commodity joined by AND: ``x_j >= t_j`` for
    ``all_exceed``, ``x_j >= t_j`` or ``x_j <= t_j`` by sign for ``orthant``,
    and ``x_j < t_j`` for the complement of ``union``, whose hits are the
    trials that fail it.  The pooled demand of ``fungible`` is exactly normal,
    so it is one column with scale ``sqrt(L * 1' Sigma 1)``.  Since ``x_j``
    reads only ``z_0 .. z_j``, the trials are drawn one commodity at a time,
    and normal ``z_j`` is drawn only for the trials that the commodities
    before it have not yet decided; a trial that fails a test draws nothing
    more.  The first test reads ``z_0`` alone, as ``side * z_0 >= c``, ``side``
    being -1 for a ``<=`` or ``<`` test, with probability ``p = H(c)``, so the
    number of a block's trials that pass it is one Binomial(block, p) draw,
    and each passing trial's ``z_0`` is drawn from the normal truncated to
    that side by inverse CDF, ``side * H^-1(U p)`` with ``U`` uniform in
    (0, 1].  A one-column event (``fungible``, or one commodity) is that
    binomial count alone and draws no normals.  This is exact sequential
    sampling, not variance reduction: the hit count is Binomial(trials, p)
    as for whole draws.

    The trials run in fixed chunks of ``2**15`` (the last may be shorter),
    and each chunk in blocks of ``2**13``, commodity by commodity within a
    block; chunk ``i`` draws from its own generator, seeded by the ``i``-th
    child of ``numpy.random.SeedSequence(seed).spawn``, and the calling
    thread and one helper per further usable core take chunks until none is
    left.  So the hit count depends on ``seed`` and ``trials`` only, not on
    the number of cores, and memory does not grow with ``trials``.  The
    reported error is a three-standard-error half width; when no trial (or
    every trial) hits, where that width is 0, it is the distance to the far
    end of the Wilson score interval at three standard errors instead.
    """
    # imported here: scipy.special would be about two thirds of the package's import time
    from scipy.special import ndtri

    lead = validate_lead_time(lead_time)
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError("the trial count must be an integer")
    trials = int(trials)
    if trials < 10_000:
        raise ValueError("at least 10000 trials are required")
    signs_arr = events.check_pattern(pattern, model.dim, signs)
    if pattern == events.FUNGIBLE:
        thresholds = np.asarray(l_eps, dtype=float).reshape(1)
        factor = np.array([[math.sqrt(lead * max(float(model.covariance.sum()), 0.0))]])
    else:
        thresholds = np.asarray(l_eps, dtype=float).reshape(-1)
        if thresholds.shape != (model.dim,):
            raise ValueError("one threshold per commodity is required")
        factor = math.sqrt(lead) * covariance_factor(model)
    if not np.all(np.isfinite(thresholds)):
        raise ValueError("thresholds must be finite")
    # The test a trial must pass on each commodity to stay undecided.
    dim = thresholds.size
    if pattern == events.UNION:
        keep = [np.less] * dim
    elif pattern == events.ORTHANT:
        keep = [np.greater_equal if s > 0.0 else np.less_equal for s in signs_arr]
    else:
        keep = [np.greater_equal] * dim
    # The first test, on x_0 = f z_0 with f >= 0, as side * z_0 >= c; for
    # union's strict test the two differ on a null set.  With f = 0, x_0 = 0.
    f, t = float(factor[0, 0]), float(thresholds[0])
    side = 1.0 if keep[0] is np.greater_equal else -1.0
    c = side * t / f if f > 0.0 else (-math.inf if keep[0](0.0, t) else math.inf)
    p_first = float(normal_upper_tail(c))
    # U p_first = 1 would give z_0 = -inf; capping p at the largest double
    # below 1 keeps every z_0 finite.
    p_top = min(p_first, 1.0 - _EPS / 2.0)
    root = np.random.SeedSequence(seed)
    chunks = -(-trials // _CHUNK)
    chunk_ids = iter(range(chunks))
    lock = threading.Lock()

    def count() -> int:
        # Each worker takes the next chunk until none is left, so memory does
        # not grow with the trial count.  Chunk i's stream is the i-th child
        # of the root, the one root.spawn(chunks)[i] would return.  Row j of
        # z holds the normals of commodity j for the block's m undecided
        # trials, in trial order; the m trials that pass the first test are
        # a binomial count, and their z_0 follow it.
        z = np.empty((dim, _BLOCK))
        x = np.empty(_BLOCK)
        passed = 0
        while True:
            with lock:
                i = next(chunk_ids, chunks)
            if i == chunks:
                return passed
            rng = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(i,)))
            size = min(_CHUNK, trials - i * _CHUNK)
            for start in range(0, size, _BLOCK):
                m = int(rng.binomial(min(_BLOCK, size - start), p_first))
                if dim == 1 or m == 0:
                    passed += m
                    continue
                first = z[0, :m]
                rng.random(out=first)
                np.subtract(1.0, first, out=first)  # (0, 1], so ndtri never sees 0
                np.multiply(first, p_top, out=first)
                ndtri(first, out=first)
                np.multiply(first, -side, out=first)
                for j in range(1, dim):
                    rng.standard_normal(out=z[j, :m])
                    np.dot(factor[j, : j + 1], z[: j + 1, :m], out=x[:m])
                    met = keep[j](x[:m], thresholds[j])
                    if j == dim - 1:
                        passed += int(np.count_nonzero(met))
                        break
                    live = np.flatnonzero(met)
                    m = live.size
                    if m == 0:
                        break
                    # take buffers its output, so it may overwrite its input
                    np.take(z[: j + 1], live, axis=1, out=z[: j + 1, :m])

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(chunks, cpus)
    # The calling thread counts too; the pool starts a thread per submitted
    # helper only, so one usable CPU starts none.
    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(count) for _ in range(workers - 1)]
        passed = count() + sum(h.result() for h in helpers)
    hits = trials - passed if pattern == events.UNION else passed
    p = hits / trials
    if 0 < hits < trials:
        error = MC_Z * math.sqrt(p * (1.0 - p) / trials)
    else:
        error = MC_Z * MC_Z / (trials + MC_Z * MC_Z)
    return OracleResult(
        probability=p,
        method="monte-carlo",
        error=error,
        trials=trials,
        hits=hits,
    )


class JointTailInverse(NamedTuple):
    ss: float
    floored: bool


def _ray_derivatives(a: float, b: float, rho: float, alpha: float, beta: float) -> tuple[float, float]:
    """First and second derivatives of ``P`` along ``(a, b) = (alpha, beta) * ss``.

    ``dP/da = -phi(a) H(za)`` with ``za = (b - rho a) / w``, and likewise for
    ``b`` with ``zb = (a - rho b) / w``.  The second derivative adds the
    bivariate density ``phi(a) phi(za) / w`` times
    ``2 alpha beta - rho (alpha^2 + beta^2)``.  At ``rho = +-1`` that
    density is infinite on the line where the mass sits, so ``w^2 = 1 -
    rho^2`` is kept at 2e-12 or more, which keeps the derivatives finite.
    """
    inv_w = 1.0 / math.sqrt(max(1.0 - rho * rho, 2e-12))
    za, zb = (b - rho * a) * inv_w, (a - rho * b) * inv_w
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    phi_a = norm * math.exp(-0.5 * a * a)
    edge_a = alpha * phi_a * 0.5 * math.erfc(za / _SQRT2)
    edge_b = beta * norm * math.exp(-0.5 * b * b) * 0.5 * math.erfc(zb / _SQRT2)
    density = phi_a * norm * math.exp(-0.5 * za * za) * inv_w
    curvature = alpha * a * edge_a + beta * b * edge_b
    curvature += density * (2.0 * alpha * beta - rho * (alpha * alpha + beta * beta))
    return -(edge_a + edge_b), curvature


class _Halley:
    """One delta's bracketed Halley iteration in ``_invert_joint_tails``."""

    __slots__ = ("delta", "log_delta", "lo", "x", "ss", "tail")

    def __init__(self, delta: float, lo: float, hi: float):
        self.delta, self.log_delta = delta, math.log(delta)
        # hi holds analytically, but rounding can put P + error above delta
        # there; the upper end is then open until a step past hi finds a
        # stock that meets delta.
        self.lo, self.x, self.ss, self.tail = lo, hi, math.inf, math.nan

    def update(self, probability: float, error: float, slope: float, curvature: float, smaller: float) -> bool:
        """Take the tail at ``x`` and its ray derivatives; True once stopped."""
        x = self.x
        # A tail that underflows reads as the smallest double, below delta.
        upper = max(probability + error, _TINY)
        g = math.log(upper) - self.log_delta
        d1 = slope / upper
        d2 = curvature / upper - d1 * d1
        # Halley's step; a denominator of 0 or below gives none.  (Newton's
        # step, without P'', took 4.9 evaluations per inversion on the
        # benchmark's policy grid, 6 at most; Halley's takes 3.7 and 5.)
        den = 2.0 * d1 * d1 - g * d2
        step = -2.0 * g * d1 / den if den > 0.0 else math.nan
        # Relative to the stock, and to the smaller scale for a root near 0,
        # but at most what moves log P by 1e-10 (it is steep near rho = -1).
        tol = min(INVERSION_RTOL * (x + smaller), 1e-10 / max(-d1, _TINY))
        if upper <= self.delta:
            self.ss, self.tail = x, probability
            if abs(step) <= tol:
                return True
        else:
            # From below, aim half a tolerance past the root's estimate.
            self.lo, step = x, step + 0.5 * tol
        if self.ss - self.lo <= tol:
            return True
        x += step
        self.x = x if self.lo < x < self.ss else 0.5 * (self.lo + self.ss)
        return False


def _univariate_stock(delta: float, scale: float) -> tuple[float, bool, float]:
    """``scale * H^-1(delta)``, stepped up until its evaluated tail certifies ``delta``.

    ``math.erfc`` is within 1.65 eps (against mpmath on [-5, 26.5]), and a
    slip of eps in its argument ``z`` moves it by ``2 z^2 eps``, so
    ``H + eps (9 + 6 z^2) H <= delta`` bounds the exact tail.  Where
    rounding leaves the inverse short of that, the stock steps up by a step
    doubling from one ulp.
    """
    ss = scale * normal_upper_tail_inverse(delta)
    step = math.ulp(ss)
    while True:
        k = ss / scale
        tail, z = float(normal_upper_tail(k)), k / _SQRT2
        if tail + _EPS * (9.0 + 6.0 * z * z) * tail <= delta:
            return ss, False, tail
        ss, step = ss + step, 2.0 * step


def _invert_joint_tails(model: GaussianModel, deltas, lead_time: int) -> list[tuple[float, bool, float]]:
    """``invert_joint_tail`` at every delta of a grid: ``(ss, floored, P(ss))`` each.

    Every delta runs its own iteration, with its own bracket, steps,
    tolerance, stop and evaluation cap, but the deltas still running
    evaluate their next stocks together, in one ``_joint_tails`` call per
    round, so each delta's iterates and stock are those of a grid of one.
    ``P(ss)`` is the tail evaluated at the returned stock, and where the
    stock is floored at 0 the closed-form ``P(0)`` that decides the floor,
    ``1/4 + asin(rho) / (2 pi)`` (``1/2`` for one commodity), so no tail is
    evaluated there.
    """
    lead = validate_lead_time(lead_time)
    deltas = [validate_delta(d) for d in deltas]
    if not (model.covariance.diagonal() > 0.0).all():
        raise ValueError("a commodity has no variance, so no least certified stock exists")
    if model.dim == 1:
        scale = math.sqrt(lead * float(model.covariance[0, 0]))
        return [(0.0, True, 0.5) if d >= 0.5 else _univariate_stock(d, scale) for d in deltas]
    if model.dim != 2:
        raise ValueError("exact inversion is available for one or two commodities")
    scale_x = math.sqrt(lead * model.var_x)
    scale_y = math.sqrt(lead * model.var_y)
    rho = model.correlation
    at_zero = 0.25 + math.asin(rho) / (2.0 * math.pi)

    smaller = min(scale_x, scale_y)
    pooled = (1.0 / scale_x + 1.0 / scale_y) / math.sqrt(2.0 + 2.0 * rho)
    runs = {}
    for i, delta in enumerate(deltas):
        if delta < at_zero:
            hi = normal_upper_tail_inverse(delta) / max(1.0 / smaller, pooled)
            root_delta = math.sqrt(delta)
            lo = smaller * normal_upper_tail_inverse(root_delta) if rho >= 0.0 and root_delta < 0.5 else 0.0
            runs[i] = _Halley(delta, lo, hi)
    live = list(runs.values())
    for _ in range(INVERSION_MAX_EVALS):
        if not live:
            break
        x = np.array([run.x for run in live])
        a, b = x / scale_x, x / scale_y
        probability, error = _joint_tails(a, b, rho)
        live = [
            run
            for run, p, e, a_i, b_i in zip(live, probability.tolist(), error.tolist(), a.tolist(), b.tolist())
            if not run.update(p, e, *_ray_derivatives(a_i, b_i, rho, 1.0 / scale_x, 1.0 / scale_y), smaller)
        ]
    if live:
        raise RuntimeError(f"no certified stock within {INVERSION_MAX_EVALS} tail evaluations")
    return [(runs[i].ss, False, runs[i].tail) if i in runs else (0.0, True, at_zero) for i in range(len(deltas))]


def invert_joint_tail(model: GaussianModel, delta: float, lead_time: int) -> JointTailInverse:
    """Smallest equal stock whose exact all-exceed probability is at most ``delta``.

    When even zero stock already meets the target (``delta >= P(0)``, from
    the closed-form orthant probability) the result is floored at zero and
    flagged.  Otherwise one Halley iteration solves
    ``g(ss) = log(P(ss) + error) - log delta``, with ``P'`` and ``P''``
    along the equal-stock ray in closed form (``phi`` and ``H`` of the
    standardized thresholds, see ``_ray_derivatives``), inside an analytic
    bracket:

    - ``hi``: ``P`` is at most the tail of the larger standardized threshold
      and at most the tail of the pooled demand, so the tighter of the two
      is at most ``delta`` at ``hi``;
    - ``lo``: for ``rho >= 0``, ``P >= H(a) H(b)`` (Slepian), which is at
      least ``delta`` at ``min(scale) * H^-1(sqrt(delta))``; otherwise 0.

    The joint tail is log-concave in the stock (Prekopa 1973: the Gaussian
    density is log-concave, and so is its mass over a shifted orthant), so
    ``g`` is concave and decreasing, and the iteration, started at ``hi``,
    reaches the root in a few steps.  Each evaluated sign of
    ``P + error - delta`` moves one end of the bracket; a step that is not
    finite or leaves the bracket (as where the tail underflows) bisects it.
    Where rounding puts ``P + error`` above ``delta`` at ``hi`` itself, the
    iteration steps past it.  A step from a stock that misses ``delta`` aims
    half a tolerance past the root's estimate.  The tolerance is
    ``INVERSION_RTOL * (ss + min(scale))``, or less where that would move
    ``log P`` by more than 1e-10; the iteration stops at a stock
    that meets ``delta`` and whose own step is within it, or when the
    bracket is that narrow, and returns the least evaluated stock with
    ``P + error <= delta``.  So the exact ``P(ss)`` is at most ``delta``
    and, in the tested range (delta down to 1e-12), at least
    ``delta * (1 - 1e-9)``.  Every tail is the one ``bivariate_joint_tail``
    returns; after ``INVERSION_MAX_EVALS`` of them without a stop the
    inversion raises ``RuntimeError``.  One commodity needs no iteration:
    its stock is ``H^-1(delta)`` scaled, stepped up where rounding leaves
    its evaluated tail, plus that tail's rounding allowance, above
    ``delta``.  A commodity with no variance raises ``ValueError``: every
    positive stock empties the event, so no least positive stock exists.

    This is a grid of one: a policy comparison inverts its whole grid of
    ``delta`` in lockstep (``_invert_joint_tails``), one batch of tails per
    round, and gets this call's stock at each ``delta`` bit for bit.
    """
    ss, floored, _ = _invert_joint_tails(model, [delta], lead_time)[0]
    return JointTailInverse(ss, floored)
