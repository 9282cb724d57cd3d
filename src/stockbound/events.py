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

__all__ = ["ALL_EXCEED", "FUNGIBLE", "ORTHANT", "PATTERNS", "UNION", "check_pattern"]


def check_pattern(pattern: str, dim: int, signs=None) -> np.ndarray | None:
    """Validate a pattern name against the dimension; returns cleaned signs.

    Signs go with the orthant pattern and with no other.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown stockout pattern {pattern!r}")
    if pattern == UNION and dim != 2:
        raise ValueError("the union pattern is defined for exactly two commodities")
    if pattern != ORTHANT:
        if signs is not None:
            raise ValueError(f"signs apply only to the orthant pattern, not {pattern!r}")
        return None
    if signs is None:
        raise ValueError("the orthant pattern requires a sign vector")
    arr = np.asarray(signs, dtype=float).reshape(-1)
    if arr.shape[0] != dim or not np.all(np.abs(arr) == 1.0):
        raise ValueError("signs must be a vector of +1/-1, one per commodity")
    return arr
