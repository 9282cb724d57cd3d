"""Demand models, correlated sampling, and demand-history ingestion.

Demand over a replenishment lead time of ``L`` periods is a sum of per-period
draws that are independent across periods but may be correlated across
commodities within a period.  All tail machinery downstream works on the
mean-centered deviation of demand from its per-period mean; the raw mean
enters only at ingestion and when order points are reported.

Sampling uses numpy's PCG64 generator (``numpy.random.default_rng``).  Every
sampling call takes an explicit seed so runs are bit-reproducible; parallel
replicates should derive disjoint streams by seeding with ``[seed, index]``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DemandDataError",
    "EmpiricalDemand",
    "GaussianModel",
    "WeibullModel",
    "covariance_factor",
    "load_demand_csv",
    "model_from_dict",
    "sample_correlated",
]

# Covariance eigenvalues may dip slightly negative from rounding; anything
# above -PSD_TOL * max(trace, 1) still counts as positive semidefinite.
PSD_TOL = 1e-10


class DemandDataError(ValueError):
    """A demand-history file could not be parsed."""


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianModel:
    """Correlated Gaussian demand for ``N`` commodities.

    Per-period demand is drawn from N(mean, covariance), independently
    across periods.

    Parameters
    ----------
    mean:
        Per-commodity mean demand, shape ``(N,)``.
    covariance:
        Per-period covariance across commodities, shape ``(N, N)``.  Must be
        symmetric and positive semidefinite; zero diagonal entries are
        allowed and describe deterministic commodities.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = _frozen(np.atleast_1d(np.asarray(self.mean, dtype=float)))
        cov = _frozen(np.atleast_2d(np.asarray(self.covariance, dtype=float)))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(
                f"covariance shape {cov.shape} does not match {n} commodities"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("model parameters must be finite")
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("covariance must be symmetric")
        if np.any(np.diag(cov) < 0.0):
            raise ValueError("per-commodity variances must be nonnegative")
        eigmin = float(np.linalg.eigvalsh(cov).min()) if n else 0.0
        if eigmin < -PSD_TOL * max(float(np.trace(cov)), 1.0):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def univariate(cls, variance: float, mean: float = 0.0) -> "GaussianModel":
        return cls(np.array([mean]), np.array([[variance]]))

    @classmethod
    def bivariate(
        cls,
        var_x: float,
        var_y: float,
        correlation: float,
        mean=(0.0, 0.0),
    ) -> "GaussianModel":
        if not -1.0 <= correlation <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")
        off = correlation * math.sqrt(var_x * var_y)
        return cls(np.asarray(mean, dtype=float), np.array([[var_x, off], [off, var_y]]))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def _require_bivariate(self):
        if self.dim != 2:
            raise ValueError("accessor requires a 2-commodity model")

    @property
    def var_x(self) -> float:
        self._require_bivariate()
        return float(self.covariance[0, 0])

    @property
    def var_y(self) -> float:
        self._require_bivariate()
        return float(self.covariance[1, 1])

    @property
    def correlation(self) -> float:
        """Pearson correlation of the two per-period demands."""
        self._require_bivariate()
        vx, vy = self.var_x, self.var_y
        if vx <= 0.0 or vy <= 0.0:
            raise ValueError("correlation undefined for a zero-variance commodity")
        rho = float(self.covariance[0, 1]) / math.sqrt(vx * vy)
        if abs(rho) > 1.0 + 1e-12:
            raise ValueError("off-diagonal entry exceeds the variance bound")
        return min(1.0, max(-1.0, rho))


@dataclass(frozen=True)
class WeibullModel:
    """Weibull demand for a single commodity.

    Parameters
    ----------
    shape:
        Weibull shape parameter, > 0.  Tail analysis needs shape >= 1; below
        it the MGF is infinite for every positive argument (see the cgf
        module).
    scale:
        Weibull scale parameter, > 0.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ValueError("shape must be positive and finite")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1 * g1)


@dataclass(frozen=True)
class EmpiricalDemand:
    """Observed demand paths: one row per replicate, one column per period."""

    samples: np.ndarray

    def __post_init__(self):
        arr = _frozen(np.atleast_2d(np.asarray(self.samples, dtype=float)))
        if arr.ndim != 2:
            raise ValueError("samples must be a 2-d array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("samples must contain at least one row and column")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def n_replicates(self) -> int:
        return self.samples.shape[0]

    @property
    def n_periods(self) -> int:
        return self.samples.shape[1]

    @property
    def row_sums(self) -> np.ndarray:
        return self.samples.sum(axis=1)

    @property
    def mean_per_period(self) -> float:
        """Grand sample mean of a single period's demand."""
        return float(self.samples.mean())


def validate_lead_time(lead_time: int) -> int:
    """Check that a lead time is a whole number of periods, at least one."""
    if isinstance(lead_time, bool) or not isinstance(lead_time, (int, np.integer)):
        raise ValueError("lead time must be an integer number of periods")
    if lead_time < 1:
        raise ValueError("lead time must be at least one period")
    return int(lead_time)


def covariance_factor(model: GaussianModel) -> np.ndarray:
    """Matrix square root ``B`` of the covariance with ``B @ B.T == covariance``.

    Uses the Cholesky factor when the covariance is positive definite and an
    eigendecomposition otherwise, so singular models (perfectly correlated or
    deterministic commodities) are handled too.
    """
    cov = model.covariance
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_correlated(
    model: GaussianModel, lead_time: int, count: int, seed: int
) -> np.ndarray:
    """Draw ``count`` demand paths of ``lead_time`` periods.

    Returns an array of shape ``(count, lead_time, N)``.  Each period is an
    independent N(mean, covariance) draw; results are bit-identical for a
    given seed.
    """
    lead_time = validate_lead_time(lead_time)
    if count < 1:
        raise ValueError("count must be at least 1")
    if seed is None:
        raise ValueError("a seed is required")
    factor = covariance_factor(model)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((count, lead_time, model.dim))
    return model.mean + noise @ factor.T


def load_demand_csv(path, skip_header: bool = False) -> EmpiricalDemand:
    """Read a demand-history CSV: rows are replicates, columns are periods.

    The file must be rectangular and numeric.  Blank lines are ignored.
    Parse failures report the offending row and column using 1-based
    positions in the file.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    with path.open(newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if skip_header and not rows and lineno == 1:
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise DemandDataError(
                    f"{path}: row {lineno} has {len(record)} columns, expected {width}"
                )
            parsed = []
            for col, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise DemandDataError(
                        f"{path}: row {lineno}, column {col}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DemandDataError(
                        f"{path}: row {lineno}, column {col}: value is not finite"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DemandDataError(f"{path}: no demand rows found")
    return EmpiricalDemand(np.array(rows))


def model_from_dict(spec: dict, base_dir=None):
    """Build a demand model from a plain config mapping.

    Supported forms::

        {"type": "gaussian", "mu": [...], "sigma": [[...], ...]}
        {"type": "weibull", "shape": a, "scale": b}
        {"type": "empirical", "path": "demand.csv", "skip_header": false}
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("model config must be a mapping with a 'type' key")
    kind = spec["type"]
    if kind == "gaussian":
        try:
            return GaussianModel(spec["mu"], spec["sigma"])
        except KeyError as missing:
            raise ValueError(f"gaussian config is missing {missing}") from None
    if kind == "weibull":
        try:
            return WeibullModel(float(spec["shape"]), float(spec["scale"]))
        except KeyError as missing:
            raise ValueError(f"weibull config is missing {missing}") from None
    if kind == "empirical":
        if "path" not in spec:
            raise ValueError("empirical config is missing 'path'")
        path = Path(spec["path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return load_demand_csv(path, skip_header=bool(spec.get("skip_header", False)))
    raise ValueError(f"unknown model type {kind!r}")
