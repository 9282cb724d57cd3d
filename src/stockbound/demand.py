"""Demand models, covariance factors, and demand-history ingestion.

Demand over a replenishment lead time of ``L`` periods is a sum of per-period
draws that are independent across periods but may be correlated across
commodities within a period.  All tail machinery downstream works on the
mean-centered deviation of demand from its per-period mean; the raw mean
enters only at ingestion and when order points are reported.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
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
    "validate_delta",
    "validate_lead_time",
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

    @classmethod
    def _adopt(cls, samples: np.ndarray) -> "EmpiricalDemand":
        """Wrap a finite 2-d float array that no one else holds, with no copy or re-check."""
        samples.setflags(write=False)
        demand = cls.__new__(cls)
        object.__setattr__(demand, "samples", samples)
        return demand

    @property
    def n_replicates(self) -> int:
        return self.samples.shape[0]

    @property
    def n_periods(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Total demand of each replicate, computed once and read-only."""
        return _frozen(self.samples.sum(axis=1))

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


def validate_delta(delta: float) -> float:
    """Check that an allowed stockout rate lies strictly between 0 and 1."""
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    return delta


def covariance_factor(model: GaussianModel) -> np.ndarray:
    """Lower-triangular ``B`` with ``B @ B.T == covariance`` and a nonnegative diagonal.

    ``B = R.T`` from the QR decomposition ``E.T = Q R`` of the eigen factor
    ``E = V sqrt(Lambda)``, which every covariance has, singular or not; since
    ``Q.T z`` is again standard normal, ``B z`` is distributed as ``E z``.
    Columns are signed so that the diagonal is nonnegative, which makes ``B``
    the Cholesky factor of a positive-definite covariance.  Row ``j`` reads
    the first ``j + 1`` normals only, so commodities can be drawn one at a time.
    """
    eigvals, eigvecs = np.linalg.eigh(model.covariance)
    eigen = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    factor = np.linalg.qr(eigen.T, mode="r").T
    # C order: Monte Carlo reads the factor a row at a time
    return np.multiply(factor, np.where(np.diag(factor) < 0.0, -1.0, 1.0), order="C")


# Blank records hold only whitespace, commas and quotes.
_BLANK = re.compile(r'[\s,"]*')
# numpy's C tokenizer and float converter; the fast parse and the error rescan
# both go through these settings, so they cannot disagree.
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}
# ((bytes, skip_header), parse) of the last file load_demand_csv parsed.  The
# parse reads nothing but the decoded bytes, so equal bytes give an equal
# parse; the comparison is a memcmp, where hashing the file would slow every
# first load, and reading bytes skips the decode on a hit.
_last_parse: tuple[tuple[bytes, bool], EmpiricalDemand] | None = None


def load_demand_csv(path, skip_header: bool = False) -> EmpiricalDemand:
    """Read a demand-history CSV: rows are replicates, columns are periods.

    Blank lines (only whitespace, commas or empty quotes) are ignored, and
    with ``skip_header`` so is line 1 when it is not blank.  Cells may be
    quoted and may have whitespace around them; line ends may be LF or CRLF.
    Every other line must hold the same number of finite numbers.  A ragged
    row, a cell that is not a number, a non-finite value (``nan``, ``inf``)
    or an unbalanced quote raises ``DemandDataError`` naming the 1-based
    line of the file (and the column, for a cell).

    Cells are converted by numpy's parser, which reads the decimal and
    exponent forms Python's ``float`` reads but not digit-group underscores
    (``1_000``) or non-ASCII digits; those cells are rejected as not numbers.

    A load whose bytes (and ``skip_header``) are identical to the last file
    parsed returns that parse's ``EmpiricalDemand`` again, read-only and
    shared.  The whole file is compared, not its name, size or time stamp,
    so the last file's bytes and data stay in memory until another file is
    parsed; a file with the same text in other bytes (CRLF line ends, say)
    is parsed again, to the same data.  Errors are not kept: a bad file is
    parsed, and raises, on every load.
    """
    global _last_parse
    path = Path(path)
    content = path.read_bytes()
    key = (content, bool(skip_header))
    if _last_parse is not None and _last_parse[0] == key:
        return _last_parse[1]
    # decoded as Path.read_text would: locale encoding, universal newlines
    text = io.TextIOWrapper(io.BytesIO(content)).read()
    raw = text.splitlines()
    kept = [i for i, line in enumerate(raw) if not _BLANK.fullmatch(line)]
    if skip_header and kept and kept[0] == 0:
        kept = kept[1:]
    if not kept:
        raise DemandDataError(f"{path}: no demand rows found")
    lines = [raw[i] for i in kept]
    # numpy would join a line that leaves a quote open with the next one, so
    # such a file goes straight to the line-by-line rescan
    balanced = '"' not in text or not any(line.count('"') % 2 for line in lines)
    try:
        data = np.loadtxt(lines, **_LOADTXT) if balanced else None
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        raise _first_bad_row(path, lines, kept)
    # data is the parser's own finite 2-d array, so it is frozen in place
    demand = EmpiricalDemand._adopt(data)
    _last_parse = (key, demand)
    return demand


def _first_bad_row(path: Path, lines: list[str], kept: list[int]) -> DemandDataError:
    """The error of the first line that fails on its own, read by the same parser.

    ``kept[k]`` is the 0-based file line of ``lines[k]``.
    """
    width = None
    for line, i in zip(lines, kept):
        where = f"{path}: row {i + 1}"
        if line.count('"') % 2:
            return DemandDataError(f"{where} has an unbalanced quote")
        try:
            row = np.loadtxt([line], **_LOADTXT)[0]
        except ValueError:
            row = np.loadtxt([line], dtype=str, **_LOADTXT)[0]
        if width is None:
            width = row.shape[0]
        if row.shape[0] != width:
            return DemandDataError(f"{where} has {row.shape[0]} columns, expected {width}")
        if row.dtype.kind != "U" and np.isfinite(row).all():
            continue
        for col, cell in enumerate(row, start=1):
            value = cell
            if row.dtype.kind == "U":
                try:
                    value = np.loadtxt([line], usecols=[col - 1], **_LOADTXT)[0, 0]
                except ValueError:
                    return DemandDataError(
                        f"{where}, column {col}: could not parse {cell.strip()!r} as a number"
                    )
            if not np.isfinite(value):
                return DemandDataError(f"{where}, column {col}: value is not finite")
    raise AssertionError("the demand rows parse one by one but not together")


# Model type -> (keys its config must hold, keys it may hold) besides "type".
_MODEL_KEYS = {
    "gaussian": (("mu", "sigma"), ()),
    "weibull": (("shape", "scale"), ()),
    "empirical": (("path",), ("skip_header",)),
}


def _model_kind(spec) -> str:
    """The type of a model config mapping, once its keys are checked; reads no file."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("model config must be a mapping with a 'type' key")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ValueError(f"unknown model type {kind!r}")
    required, optional = _MODEL_KEYS[kind]
    unknown = next((key for key in spec if key != "type" and key not in required + optional), None)
    if unknown is not None:
        raise ValueError(f"{kind} config has unknown key {unknown!r}")
    missing = next((key for key in required if key not in spec), None)
    if missing is not None:
        raise ValueError(f"{kind} config is missing {missing!r}")
    return kind


def model_from_dict(spec: dict, base_dir=None):
    """Build a demand model from a plain config mapping.

    Supported forms::

        {"type": "gaussian", "mu": [...], "sigma": [[...], ...]}
        {"type": "weibull", "shape": a, "scale": b}
        {"type": "empirical", "path": "demand.csv", "skip_header": false}

    A key that the type does not read, or one it needs and lacks, is an
    error; both are checked before any file is read.
    """
    kind = _model_kind(spec)
    if kind == "gaussian":
        return GaussianModel(spec["mu"], spec["sigma"])
    if kind == "weibull":
        return WeibullModel(float(spec["shape"]), float(spec["scale"]))
    path = Path(spec["path"])
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    return load_demand_csv(path, skip_header=bool(spec.get("skip_header", False)))
