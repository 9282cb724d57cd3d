"""Safety-stock policies and their stockout certificates.

Three sizing rules are compared throughout:

- previous practice: per-commodity normal-tail inversion, splitting the
  allowed joint rate as if commodities were independent,
- proposed: margins sized through the large-deviations bound, which certifies
  the joint all-exceed rate for correlated demand,
- rigorous: exact inversion of the joint tail, the tightest stock that any
  certificate could hope to approach.

The proposed rule sizes Gaussian demand of any dimension and covariance from
the Chernoff exponent ``L * N * R(eps)`` of ``rates.rate_numeric``, whose
exact active-set solve takes a few small linear solves.  The exponent is
2-homogeneous in the margin, so one solve at equal unit margins serves every
``delta``: ``SS = sqrt(L * log(1 / delta) / (N * R(1)))``.  That reproduces
the paper's formulas, ``sqrt(L s2 (1 + rho) log(1 / delta))`` for two
symmetric commodities and ``sqrt(2 L s2 log(1 / delta))`` for one.  The rate
is read at a feasible point, so it is a lower bound and the stock errs on
the safe side; one more read per ``delta``, at that point scaled to the
stock, certifies each stock, stepped up by ulps where rounding leaves it
short.  Singular demand whose all-exceed event is empty at every
positive margin (``rho = -1``, a commodity with no variance) has an infinite
rate; its stock is ``math.ulp(0.0)``, the least positive float, since a stock
of 0 may still run out.  Given a rate split ``(delta_x, delta_y)``, two
Gaussian commodities are sized sequentially in closed form: the paper's
first margin, ``sqrt(2 L s2_x log(1 / delta_x))``, then the second by the
paper's conditional rule where the cone constraint ``u >= 0`` is slack, and
as its own stock at ``delta`` where it binds (high ``rho``), since there
that rule undersizes it.  The paper's split is ``(sqrt(delta), sqrt(delta))``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cgf import CgfEvaluator, gaussian_cgf
from .demand import GaussianModel, validate_delta, validate_lead_time
from .events import FUNGIBLE
from .oracle import (
    _invert_joint_tails,
    _joint_tails,
    _upper_tail_inverse,
    invert_joint_tail,
    normal_upper_tail,
)
from .rates import chernoff_bound, invert_rate, rate_numeric

__all__ = [
    "PolicyOutput",
    "ProposedStock",
    "compare_policies",
    "ss_fungible",
    "ss_previous",
    "ss_proposed",
    "ss_rigorous",
]


def _split_rates(delta_split, n: int) -> tuple[float, ...]:
    split = np.atleast_1d(np.asarray(delta_split, dtype=float))
    if split.shape != (n,):
        raise ValueError("one split rate per commodity is required")
    return tuple(float(d) for d in split)


def _check_split(split, delta: float) -> None:
    if abs(math.prod(split) - delta) > 1e-12 * delta:
        raise ValueError("rate split must multiply back to delta")


@dataclass(frozen=True)
class ProposedStock:
    """Per-commodity margins, with the rate split that certifies them if any."""

    ss: np.ndarray
    delta: float
    delta_split: tuple[float, ...] | None

    def __post_init__(self):
        arr = np.asarray(self.ss, dtype=float).reshape(-1).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "ss", arr)
        if self.delta_split is not None:
            _check_split(self.delta_split, self.delta)


def ss_previous(model: GaussianModel, lead_time: int, delta: float) -> float:
    """Per-commodity normal-tail stock under an independence split.

    One commodity inverts the tail at ``delta`` directly; two symmetric
    commodities each receive ``sqrt(delta)``.  The returned stock can be
    negative for large ``delta``, where the tail inversion sits below the
    mean; it carries no certificate for correlated demand.
    """
    lead = validate_lead_time(lead_time)
    delta = validate_delta(delta)
    return float(_previous_stocks(model, lead, np.array([delta]))[0])


def _previous_stocks(model: GaussianModel, lead: int, deltas: np.ndarray) -> np.ndarray:
    """``ss_previous`` at an array of checked rates, as one array expression."""
    if not isinstance(model, GaussianModel):
        raise TypeError("the previous rule is defined for Gaussian demand")
    if model.dim > 2:
        raise ValueError("the previous rule covers one or two commodities")
    variance, *other = np.diag(model.covariance)
    if other and not math.isclose(variance, other[0], rel_tol=1e-9, abs_tol=0.0):
        raise ValueError("this rule requires equal per-commodity variances")
    share = np.sqrt(deltas) if other else deltas
    return math.sqrt(lead * variance) * _upper_tail_inverse(share)


def _ray_stocks(model: GaussianModel, lead: int):
    """Equal stock per ``delta``: its exponent ``N * R(1) * ss^2 / L`` is ``log(1 / delta)``.

    The rate is solved once, at the equal margin ``unit``, the largest
    standard deviation, where it is of order 1: at a unit margin, a
    one-commodity rate large enough that ``exp(-rate)`` underflows would
    come back only as a lower bound.  The exponent is 2-homogeneous, so the
    stock scales as ``sqrt(log(1 / delta))``, and the unit maximizer
    ``u_star``, scaled by ``t = ss / (L * unit)``, is feasible at each
    stock.  One read of ``L * (m * sum(u) - phi(u))`` at ``u = t * u_star``,
    ``m = ss / L``, certifies the stock; where rounding leaves that exponent
    short of ``log(1 / delta)``, the stock steps up by a step doubling from
    one ulp.  An infinite rate means every positive stock empties the
    event, so the stock is ``math.ulp(0.0)``, the least positive float,
    never 0.
    """
    unit = math.sqrt(float(model.covariance.diagonal().max())) or 1.0
    cgf = gaussian_cgf(model)
    solved = rate_numeric(cgf, np.full(model.dim, unit))
    if solved.rate == math.inf:
        return lambda delta: math.ulp(0.0)

    def exponent(ss: float) -> float:
        u = ss / (lead * unit) * solved.u_star
        return lead * (ss / lead * float(u.sum()) - cgf.value(u))

    def stock(delta: float) -> float:
        target = -math.log(delta)
        ss = unit * math.sqrt(lead * target / (model.dim * solved.rate))
        step = math.ulp(ss)
        while exponent(ss) < target:
            ss, step = ss + step, 2.0 * step
        return ss

    return stock


def _sequential(model: GaussianModel, lead: int, delta: float, delta_split) -> ProposedStock:
    """Commodity x alone at ``delta_x``, then y at the least stock that certifies ``delta``.

    Past y's conditional mean ``m`` the exponent is ``log(1 / delta_x) + (y -
    m)^2 / (2 L vy (1 - rho^2))`` while x's coordinate of the maximizer is
    positive, and ``y^2 / (2 L vy)`` after, which meets the target at ``hi``.
    One evaluated exponent certifies y; where rounding leaves it short, y
    steps up by a step doubling from one ulp.
    """
    if model.dim != 2:
        raise ValueError("a rate split sizes two Gaussian commodities")
    dx, dy = _split_rates(delta_split, 2)
    if not (0.0 < dx < 1.0 and 0.0 < dy < 1.0):
        raise ValueError("split rates must lie strictly between 0 and 1")
    _check_split((dx, dy), delta)
    vx, vy, rho = model.var_x, model.var_y, model.correlation
    ss_x = math.sqrt(2.0 * lead * vx * math.log(1.0 / dx))
    ss_y = hi = math.sqrt(2.0 * lead * vy * math.log(1.0 / delta))
    if rho * math.sqrt(vx / vy) * hi <= ss_x:  # x's coordinate is positive at hi
        ss_y = rho * math.sqrt(vy / vx) * ss_x + math.sqrt(2.0 * lead * vy * (1.0 - rho * rho) * math.log(1.0 / dy))
    cgf, step = gaussian_cgf(model), math.ulp(ss_y)
    while rate_numeric(cgf, [ss_x / lead, ss_y / lead]).exponent(lead) + math.log(delta) < 0.0:
        ss_y, step = ss_y + step, 2.0 * step
    return ProposedStock(np.array([ss_x, ss_y]), delta, (dx, dy))


def ss_proposed(model, lead_time: int, delta: float, delta_split=None) -> ProposedStock:
    """Certified safety stock from the large-deviations bound.

    A Gaussian model is sized from its Chernoff exponent.  With no
    ``delta_split`` every commodity gets the equal margin whose exponent is
    ``log(1 / delta)``, certified by one evaluated exponent.  A split ``(delta_x, delta_y)`` of two commodities
    sizes them sequentially: commodity one alone at ``delta_x``, then
    commodity two at the closed-form least margin that brings the joint
    exponent to ``log(1 / delta)``, certified by one evaluated exponent;
    the paper's split is ``(sqrt(delta), sqrt(delta))``.
    Where the exponent is infinite (an event empty at every positive
    stock), the equal stock is ``math.ulp(0.0)``, never 0.
    Scalar CGF evaluators, one per independent commodity (a single one is a
    sequence of one), are each sized by numeric rate inversion at their rate
    of ``delta_split``, ``delta ** (1 / N)`` each by default (a Gaussian
    evaluator in closed form, read once).  A stock sized
    from ``empirical_cgf`` is certified only for the plug-in estimate of the
    CGF: the estimation error is not covered, and ``estimation_certificate``
    does not enter the stock.
    """
    lead = validate_lead_time(lead_time)
    delta = validate_delta(delta)
    if isinstance(model, GaussianModel):
        if delta_split is not None:
            return _sequential(model, lead, delta, delta_split)
        ss = _ray_stocks(model, lead)(delta)
        return ProposedStock(np.full(model.dim, ss), delta, None)
    evaluators = [model] if isinstance(model, CgfEvaluator) else list(model)
    if not all(isinstance(e, CgfEvaluator) for e in evaluators):
        raise TypeError("expected a Gaussian model or CGF evaluator(s)")
    n = len(evaluators)
    if delta_split is not None:
        split = _split_rates(delta_split, n)
    else:
        split = (delta ** (1.0 / n),) * n
    # Per-commodity inversion certifies the product rate for independent demand.
    ss = np.array([invert_rate(e, d, lead) for e, d in zip(evaluators, split)])
    return ProposedStock(ss, delta, split)


def ss_fungible(model: GaussianModel, lead_time: int, delta: float) -> float:
    """Certified stock ``sqrt(2 L * sum(Sigma) * log(1 / delta))`` for pooled demand.

    One evaluated fungible bound certifies the closed form; where rounding
    leaves that bound above ``delta``, the stock steps up by a step doubling
    from one ulp until one meets it.
    Pooled demand with no variance (``sum(Sigma) <= 0``, as for two
    antithetic commodities) raises ``ValueError``: its deviation is always 0,
    so a stock of 0 runs out every time, every positive stock is certified,
    and no least stock exists.
    """
    lead = validate_lead_time(lead_time)
    delta = validate_delta(delta)
    if not isinstance(model, GaussianModel):
        raise TypeError("the pooled rule is defined for Gaussian demand")
    pooled = float(model.covariance.sum())
    if not pooled > 0.0:
        raise ValueError("pooled demand has no variance, so no least certified stock exists")
    cgf, ss = gaussian_cgf(model), math.sqrt(2.0 * lead * pooled * math.log(1.0 / delta))
    step = math.ulp(ss)
    while chernoff_bound(cgf, ss / lead, lead, FUNGIBLE) > delta:
        ss, step = ss + step, 2.0 * step
    return ss


def ss_rigorous(model: GaussianModel, lead_time: int, delta: float) -> float:
    """Stock sized by exact inversion of the joint all-exceed tail."""
    return invert_joint_tail(model, delta, lead_time).ss


class _ExactColumns:
    """The exact columns of a grid of policy rows, each computed for the whole grid.

    ``probabilities`` is ``(p_pre, p_pro)``, one batch of tails, and
    ``rigorous`` is the lockstep inversion's ``(stocks, floored, tails)``,
    with ``p_rig`` the tail at each stock (the closed-form ``P(0)`` where it
    is floored at 0).  Each is computed on first read and then kept.
    """

    def __init__(self, model: GaussianModel, lead: int, deltas, ss_pre, ss_pro):
        self.model, self.lead, self.deltas = model, lead, deltas
        self.stocks = np.concatenate([ss_pre, ss_pro])

    @functools.cached_property
    def probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        tails = _exact_all_exceed(self.model, self.stocks, self.lead)
        return tails[: len(self.deltas)], tails[len(self.deltas) :]

    @functools.cached_property
    def rigorous(self) -> tuple[tuple[float, ...], tuple[bool, ...], tuple[float, ...]]:
        return tuple(zip(*_invert_joint_tails(self.model, self.deltas, self.lead)))


@dataclass(frozen=True)
class PolicyOutput:
    """One row of a policy comparison at a single allowed stockout rate.

    Stocks are lead-time quantities; probabilities are exact all-exceed
    stockout rates at those stocks.  The proposed and rigorous stocks are
    certified at ``delta``; the previous rule's stock is reported with its
    realized probability, which may exceed ``delta`` under correlation.

    The rigorous stock and the three exact probabilities are computed on
    first access and then kept, so a caller pays only for the columns it
    reads.  The rows of ``compare_policies`` share one grid of them, and
    the first read of a column computes it for every row in one pass: the
    two probabilities at the rows' stocks in one batch of tails, and the
    rigorous stocks by one lockstep inversion, whose tails at those stocks
    are ``p_rig``; where the rigorous stock is floored at 0, ``p_rig`` is
    the closed-form ``P(0)`` that floors it.  A row built on its own is a
    grid of one.
    """

    delta: float
    ss_pre: float
    ss_pro: float
    lead_time: int
    model: GaussianModel

    @functools.cached_property
    def _exact(self) -> tuple[_ExactColumns, int]:
        # compare_policies sets this to its rows' shared grid and the row's place in it
        return _ExactColumns(self.model, self.lead_time, [self.delta], [self.ss_pre], [self.ss_pro]), 0

    @property
    def ss_rig(self) -> float:
        grid, i = self._exact
        return grid.rigorous[0][i]

    @property
    def p_pre(self) -> float:
        grid, i = self._exact
        return float(grid.probabilities[0][i])

    @property
    def p_pro(self) -> float:
        grid, i = self._exact
        return float(grid.probabilities[1][i])

    @property
    def p_rig(self) -> float:
        grid, i = self._exact
        return grid.rigorous[2][i]

    @property
    def ratio_pro(self) -> float:
        return self.ss_pro / self.ss_rig if self.ss_rig > 0.0 else math.inf

    @property
    def ratio_pre(self) -> float:
        return self.ss_pre / self.ss_rig if self.ss_rig > 0.0 else math.inf

    def order_point(self, which: str = "proposed") -> np.ndarray:
        """Reorder level per commodity: lead-time mean demand plus the stock."""
        stock = {"previous": "ss_pre", "proposed": "ss_pro", "rigorous": "ss_rig"}
        try:
            ss = getattr(self, stock[which])
        except KeyError:
            raise ValueError(f"unknown policy {which!r}") from None
        return self.lead_time * self.model.mean + ss


def _exact_all_exceed(model: GaussianModel, stocks: np.ndarray, lead: int) -> np.ndarray:
    """Exact all-exceed probabilities at equal stocks, one batch of tails."""
    if not (model.covariance.diagonal() > 0.0).all():
        raise ValueError("a commodity has no variance, so its standardized threshold is not finite")
    if model.dim == 1:
        return normal_upper_tail(stocks / math.sqrt(lead * float(model.covariance[0, 0])))
    a, b = stocks / math.sqrt(lead * model.var_x), stocks / math.sqrt(lead * model.var_y)
    return _joint_tails(a, b, model.correlation)[0]


def compare_policies(model: GaussianModel, lead_time: int, deltas) -> list[PolicyOutput]:
    """Evaluate all three rules on a grid of allowed stockout rates.

    Requires a symmetric Gaussian model (equal margins make the three rules
    directly comparable).  Each row carries the stocks and their exact
    realized stockout probabilities; the rigorous stock and the
    probabilities are computed when first read, for the whole grid at once
    (see ``PolicyOutput``), with the same numbers as a row built alone.
    """
    lead = validate_lead_time(lead_time)
    deltas = [validate_delta(d) for d in np.asarray(deltas, dtype=float).reshape(-1)]
    previous = _previous_stocks(model, lead, np.array(deltas)).tolist()
    stock = _ray_stocks(model, lead)  # one solve serves every delta
    proposed = [stock(delta) for delta in deltas]
    grid = _ExactColumns(model, lead, deltas, previous, proposed)
    rows = []
    for i, (delta, pre, pro) in enumerate(zip(deltas, previous, proposed)):
        row = PolicyOutput(delta, pre, pro, lead, model)
        row.__dict__["_exact"] = (grid, i)
        rows.append(row)
    return rows
