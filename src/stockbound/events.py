"""Stockout event patterns shared by bound computation and simulation.

A pattern names which joint shortfall event is being bounded or simulated:

``all_exceed``
    every commodity's lead-time demand exceeds its threshold
``union``
    at least one commodity exceeds its threshold (two commodities)
``orthant``
    commodities with sign +1 exceed, commodities with sign -1 stay below
``fungible``
    the pooled demand across commodities exceeds a single threshold
"""

from __future__ import annotations

import numpy as np

ALL_EXCEED = "all_exceed"
UNION = "union"
ORTHANT = "orthant"
FUNGIBLE = "fungible"
PATTERNS = (ALL_EXCEED, UNION, ORTHANT, FUNGIBLE)

__all__ = ["ALL_EXCEED", "FUNGIBLE", "ORTHANT", "PATTERNS", "UNION", "check_pattern", "event_mask"]


def _check_signs(pattern: str, signs) -> None:
    """Signs go with the orthant pattern and with no other."""
    if pattern == ORTHANT and signs is None:
        raise ValueError("the orthant pattern requires a sign vector")
    if pattern != ORTHANT and signs is not None:
        raise ValueError(f"signs apply only to the orthant pattern, not {pattern!r}")


def check_pattern(pattern: str, dim: int, signs=None) -> np.ndarray | None:
    """Validate a pattern name against the dimension; returns cleaned signs."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown stockout pattern {pattern!r}")
    if pattern == UNION and dim != 2:
        raise ValueError("the union pattern is defined for exactly two commodities")
    _check_signs(pattern, signs)
    if pattern == ORTHANT:
        arr = np.asarray(signs, dtype=float).reshape(-1)
        if arr.shape[0] != dim or not np.all(np.abs(arr) == 1.0):
            raise ValueError("signs must be a vector of +1/-1, one per commodity")
        return arr
    return None


def event_mask(x: np.ndarray, thresholds, pattern: str, signs=None) -> np.ndarray:
    """Boolean mask of rows of ``x`` (draws by commodities) hitting the event.

    Each commodity's column is compared once with its threshold and the
    column masks are joined with ``&`` (``|`` for the union), so no
    draws-by-commodities boolean array is built.  The fungible pattern adds
    the columns into one pooled column, in column order; numpy's row sum adds
    rows of fewer than 8 elements in that order too, so the pooled demand is
    bit-identical to ``x.sum(axis=1)``, which is used for wider rows.
    """
    _check_signs(pattern, signs)
    if pattern == FUNGIBLE:
        level = float(np.asarray(thresholds).reshape(()))
        if x.shape[1] >= 8:
            return x.sum(axis=1) >= level
        pooled = x[:, 0].copy()
        for j in range(1, x.shape[1]):
            pooled += x[:, j]
        return pooled >= level
    if pattern not in (ALL_EXCEED, UNION, ORTHANT):
        raise ValueError(f"unknown stockout pattern {pattern!r}")
    t = np.asarray(thresholds, dtype=float).reshape(-1)
    if pattern == ORTHANT:
        above = np.asarray(signs, dtype=float).reshape(-1) > 0.0
    else:
        above = np.ones(t.shape[0], dtype=bool)
    join = np.logical_or if pattern == UNION else np.logical_and
    mask = None
    for j, (level, up) in enumerate(zip(t, above)):
        hit = x[:, j] >= level if up else x[:, j] <= level
        mask = hit if mask is None else join(mask, hit, out=mask)
    return mask
