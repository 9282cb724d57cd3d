"""Safety-stock policies and their stockout certificates.

Three sizing rules are compared throughout:

- previous practice: per-commodity normal-tail inversion, splitting the
  allowed joint rate as if commodities were independent,
- proposed: margins sized through the large-deviations bound, which certifies
  the joint all-exceed rate for correlated demand,
- rigorous: exact inversion of the joint tail, the tightest stock that any
  certificate could hope to approach.

For two symmetric Gaussian commodities with per-period variance ``s2`` and
correlation ``rho`` the proposed rule has the closed form

    SS = sqrt(L * s2 * (1 + rho) * log(1 / delta)),

obtained by splitting ``delta`` into ``delta ** ((1 + rho) / 2)`` for the
first commodity and ``delta ** ((1 - rho) / 2)`` for the second; the split
always multiplies back to ``delta``.  The general sequential rule sizes the
first commodity alone and then the second conditionally on the first:

    SS_x = sqrt(2 L s2_x * log(1 / delta_x))
    SS_y = rho * sqrt(s2_y / s2_x) * SS_x
           + sqrt(2 L s2_y * (1 - rho^2) * log(1 / delta_y)).

When commodities are fungible (either can serve a request) only the pooled
demand matters and the margin is

    SS = sqrt(2 L * (s2_x + s2_y + 2 rho sx sy) * log(1 / delta)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cgf import CgfEvaluator
from .demand import GaussianModel, validate_lead_time
from .oracle import (
    TailQuery,
    bivariate_joint_tail,
    invert_joint_tail,
    normal_upper_tail,
    normal_upper_tail_inverse,
)
from .rates import invert_rate

__all__ = [
    "PolicyOutput",
    "ProposedStock",
    "compare_policies",
    "ss_fungible",
    "ss_previous",
    "ss_proposed",
    "ss_rigorous",
]


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    return delta


def _symmetric_pair(model: GaussianModel) -> tuple[float, float]:
    """Shared variance and correlation of a symmetric 2-commodity model."""
    vx, vy = model.var_x, model.var_y
    if not math.isclose(vx, vy, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError("this rule requires equal per-commodity variances")
    return vx, model.correlation


@dataclass(frozen=True)
class ProposedStock:
    """Per-commodity margins with the rate split that certifies them."""

    ss: np.ndarray
    delta: float
    delta_split: tuple[float, ...] | None

    def __post_init__(self):
        arr = np.asarray(self.ss, dtype=float).reshape(-1).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "ss", arr)
        if self.delta_split is not None:
            product = math.prod(self.delta_split)
            if abs(product - self.delta) > 1e-12 * self.delta:
                raise ValueError("rate split must multiply back to delta")


def ss_previous(model: GaussianModel, lead_time: int, delta: float) -> float:
    """Per-commodity normal-tail stock under an independence split.

    One commodity inverts the tail at ``delta`` directly; two symmetric
    commodities each receive ``sqrt(delta)``.  The returned stock can be
    negative for large ``delta``, where the tail inversion sits below the
    mean; it carries no certificate for correlated demand.
    """
    lead = validate_lead_time(lead_time)
    delta = _check_delta(delta)
    if not isinstance(model, GaussianModel):
        raise TypeError("the previous rule is defined for Gaussian demand")
    if model.dim == 1:
        variance = float(model.covariance[0, 0])
        return math.sqrt(lead * variance) * normal_upper_tail_inverse(delta)
    if model.dim == 2:
        variance, _ = _symmetric_pair(model)
        return math.sqrt(lead * variance) * normal_upper_tail_inverse(math.sqrt(delta))
    raise ValueError("the previous rule covers one or two commodities")


def ss_proposed(
    model,
    lead_time: int,
    delta: float,
    allocation: str = "symmetric",
    delta_split: tuple[float, float] | None = None,
) -> ProposedStock:
    """Certified safety stock from the large-deviations bound.

    Gaussian models use closed forms: ``symmetric`` applies the correlation
    weighted split and equal margins; ``sequential`` sizes commodity one
    then commodity two with the conditional rule, splitting ``delta`` as
    ``sqrt(delta)`` each unless an explicit ``delta_split`` is given.  A
    single scalar CGF evaluator (or a sequence of them, one per independent
    commodity) is sized by numeric rate inversion instead.  A stock sized
    from ``empirical_cgf`` is certified only for the plug-in estimate of the
    CGF: the estimation error is not covered, and ``estimation_certificate``
    does not enter the stock.
    """
    lead = validate_lead_time(lead_time)
    delta = _check_delta(delta)
    if isinstance(model, GaussianModel):
        if model.dim == 1:
            variance = float(model.covariance[0, 0])
            ss = math.sqrt(2.0 * lead * variance * math.log(1.0 / delta))
            return ProposedStock(np.array([ss]), delta, None)
        if model.dim != 2:
            raise ValueError("closed-form sizing covers one or two commodities")
        if allocation == "symmetric":
            if delta_split is not None:
                raise ValueError("the symmetric allocation fixes its own split")
            variance, rho = _symmetric_pair(model)
            ss = math.sqrt(lead * variance * (1.0 + rho) * math.log(1.0 / delta))
            split = (delta ** ((1.0 + rho) / 2.0), delta ** ((1.0 - rho) / 2.0))
            return ProposedStock(np.array([ss, ss]), delta, split)
        if allocation == "sequential":
            root = math.sqrt(delta)
            dx, dy = delta_split if delta_split is not None else (root, root)
            if not (0.0 < dx < 1.0 and 0.0 < dy < 1.0):
                raise ValueError("split rates must lie strictly between 0 and 1")
            vx, vy, rho = model.var_x, model.var_y, model.correlation
            ss_x = math.sqrt(2.0 * lead * vx * math.log(1.0 / dx))
            ss_y = rho * math.sqrt(vy / vx) * ss_x + math.sqrt(
                2.0 * lead * vy * (1.0 - rho * rho) * math.log(1.0 / dy)
            )
            return ProposedStock(np.array([ss_x, ss_y]), delta, (dx, dy))
        raise ValueError(f"unknown allocation {allocation!r}")
    if isinstance(model, CgfEvaluator):
        return ProposedStock(np.array([invert_rate(model, delta, lead)]), delta, None)
    evaluators = list(model)
    if not all(isinstance(e, CgfEvaluator) for e in evaluators):
        raise TypeError("expected a Gaussian model or CGF evaluator(s)")
    n = len(evaluators)
    if delta_split is not None:
        split = tuple(float(d) for d in delta_split)
        if len(split) != n:
            raise ValueError("one split rate per commodity is required")
    else:
        split = (delta ** (1.0 / n),) * n
    # Per-commodity inversion certifies the product rate for independent demand.
    ss = np.array([invert_rate(e, d, lead) for e, d in zip(evaluators, split)])
    return ProposedStock(ss, delta, split)


def ss_fungible(model: GaussianModel, lead_time: int, delta: float) -> float:
    """Certified stock for pooled demand of two substitutable commodities."""
    lead = validate_lead_time(lead_time)
    delta = _check_delta(delta)
    pooled = model.var_x + model.var_y + 2.0 * model.covariance[0, 1]
    return math.sqrt(max(2.0 * lead * pooled * math.log(1.0 / delta), 0.0))


def ss_rigorous(model: GaussianModel, lead_time: int, delta: float) -> float:
    """Stock sized by exact inversion of the joint all-exceed tail."""
    return invert_joint_tail(model, _check_delta(delta), lead_time).ss


@dataclass(frozen=True)
class PolicyOutput:
    """One row of a policy comparison at a single allowed stockout rate.

    Stocks are lead-time quantities; probabilities are exact all-exceed
    stockout rates at those stocks.  The proposed and rigorous stocks are
    certified at ``delta``; the previous rule's stock is reported with its
    realized probability, which may exceed ``delta`` under correlation.

    The rigorous stock and the three exact probabilities are computed on
    first access and then kept, so a caller pays only for the columns it
    reads.
    """

    delta: float
    ss_pre: float
    ss_pro: float
    delta_split: tuple[float, ...] | None
    lead_time: int
    model: GaussianModel

    @functools.cached_property
    def ss_rig(self) -> float:
        return ss_rigorous(self.model, self.lead_time, self.delta)

    @functools.cached_property
    def p_pre(self) -> float:
        return _exact_all_exceed(self.model, self.ss_pre, self.lead_time)

    @functools.cached_property
    def p_pro(self) -> float:
        return _exact_all_exceed(self.model, self.ss_pro, self.lead_time)

    @functools.cached_property
    def p_rig(self) -> float:
        return _exact_all_exceed(self.model, self.ss_rig, self.lead_time)

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


def _exact_all_exceed(model: GaussianModel, ss: float, lead: int) -> float:
    if model.dim == 1:
        return normal_upper_tail(ss / math.sqrt(lead * float(model.covariance[0, 0])))
    return bivariate_joint_tail(TailQuery.from_margins(model, ss, ss, lead)).probability


def compare_policies(model: GaussianModel, lead_time: int, deltas) -> list[PolicyOutput]:
    """Evaluate all three rules on a grid of allowed stockout rates.

    Requires a symmetric Gaussian model (equal margins make the three rules
    directly comparable).  Each row carries the stocks and their exact
    realized stockout probabilities; the rigorous stock and the
    probabilities are computed when first read.
    """
    lead = validate_lead_time(lead_time)
    rows = []
    for delta in np.asarray(deltas, dtype=float).reshape(-1):
        delta = _check_delta(delta)
        pre = ss_previous(model, lead, delta)
        proposed = ss_proposed(model, lead, delta)
        rows.append(
            PolicyOutput(
                delta=delta,
                ss_pre=pre,
                ss_pro=float(proposed.ss[0]),
                delta_split=proposed.delta_split,
                lead_time=lead,
                model=model,
            )
        )
    return rows
