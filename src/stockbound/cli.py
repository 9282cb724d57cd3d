"""Command-line front end.

Four commands, all emitting CSV or a small text report:

- ``compute``: policy comparison at one rate or a rate grid,
- ``figure {fig1,fig2,figest}``: the three reference experiment curves
  (stock ratios, realized rates, estimation error),
- ``validate``: Monte Carlo check that the certified stock really holds
  the stockout rate; it draws the lead-time deviation from the mean in one
  shot through ``oracle.joint_tail_monte_carlo`` and counts a stockout when
  every deviation is at least its stock,
- ``estimate-cgf``: empirical CGF of scalar demand with a concentration
  half-width.

Every option can also come from a ``--config`` JSON file or from the
environment (``STOCKBOUND_<NAME>``, e.g. ``STOCKBOUND_SEED``); command-line
flags win over the environment, which wins over the file.  Sampling uses
numpy's default generator (PCG64), so a run is reproducible from its config
plus seed.  Exit status: 0 on success or a passing validation, 1 when a
validation run exceeds its limit, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cgf import empirical_cgf_estimate, estimation_certificate, weibull_log_mgf
from .demand import (
    EmpiricalDemand,
    GaussianModel,
    WeibullModel,
    model_from_dict,
    sample_correlated,
    validate_lead_time,
)
from .oracle import joint_tail_monte_carlo
from .policy import compare_policies, ss_proposed

__all__ = ["main", "entrypoint"]

ENV_PREFIX = "STOCKBOUND_"
DEFAULT_SIGMA = 1.0
DEFAULT_RHO = 0.9
DEFAULT_LEAD = 10
DEFAULT_GRID = (1e-3, 0.5, 40)
ESTIMATE_M_VALUES = (100, 1_000, 10_000, 100_000)
ESTIMATE_SUBSEEDS = 5
CONFIDENCE_MULTIPLIER = 3.0


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _write_lines(out, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _write_csv(out, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_lines(out, lines)


class _Options:
    """Layered option lookup: CLI flag, then environment, then config file."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict = {}
        self.base_dir = None
        path = self._raw("config", str)
        if path is not None:
            try:
                with open(path) as fh:
                    self.config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"could not read config file: {exc}") from None
            if not isinstance(self.config, dict):
                raise UsageError("config file must hold a JSON object")
            self.base_dir = Path(path).parent

    def _raw(self, name: str, cast):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None and env != "":
            try:
                return cast(env)
            except ValueError:
                raise UsageError(
                    f"environment variable {ENV_PREFIX}{name.upper()}={env!r} "
                    f"is not a valid {cast.__name__}"
                ) from None
        return None

    def get(self, name: str, cast, default=None, required=False):
        value = self._raw(name, cast)
        if value is None and name in self.config:
            raw = self.config[name]
            if not isinstance(raw, dict):
                try:
                    raw = cast(raw)
                except (TypeError, ValueError):
                    raise UsageError(f"config key {name!r} is not a valid {cast.__name__}")
            value = raw
        if value is None:
            value = default
        if value is None and required:
            raise UsageError(f"--{name.replace('_', '-')} is required")
        return value

    def model(self, allow: tuple[type, ...] = (GaussianModel,)):
        """Demand model from --model/--sigma/--rho or a config mapping."""
        spec = self.get("model", str, default="gauss2")
        if isinstance(spec, dict):
            model = model_from_dict(spec, base_dir=self.base_dir)
        elif spec == "gauss1":
            sigma = self.get("sigma", float, default=DEFAULT_SIGMA)
            model = GaussianModel.univariate(sigma * sigma)
        elif spec == "gauss2":
            sigma = self.get("sigma", float, default=DEFAULT_SIGMA)
            rho = self.get("rho", float, default=DEFAULT_RHO)
            model = GaussianModel.bivariate(sigma * sigma, sigma * sigma, rho)
        else:
            raise UsageError(f"unknown model {spec!r} (expected gauss1 or gauss2)")
        if not isinstance(model, allow):
            names = " or ".join(t.__name__ for t in allow)
            raise UsageError(f"this command needs a {names} demand model")
        return model

    def delta_grid(self) -> np.ndarray:
        """Either the single --delta or a log-spaced --grid of rates."""
        delta = self.get("delta", float)
        grid = self.get("grid", str)
        if delta is not None and grid is not None:
            raise UsageError("give either --delta or --grid, not both")
        if delta is not None:
            return np.array([delta])
        lo, hi, count = DEFAULT_GRID
        if grid is not None:
            lo, hi, count = _parse_grid(str(grid), lo, hi)
        if not 0.0 < lo < hi < 1.0:
            raise UsageError("grid rates must satisfy 0 < lo < hi < 1")
        return np.geomspace(lo, hi, count)


def _parse_grid(text: str, lo: float, hi: float) -> tuple[float, float, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return lo, hi, int(parts[0])
        if len(parts) == 3:
            return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        pass
    raise UsageError(f"bad grid {text!r}: expected COUNT or LO:HI:COUNT")


def _describe_model(model) -> str:
    if isinstance(model, GaussianModel):
        if model.dim == 1:
            return f"gaussian dim=1 sigma={_fmt(math.sqrt(model.covariance[0, 0]))}"
        if model.dim == 2:
            return (
                f"gaussian dim=2 sigma_x={_fmt(math.sqrt(model.var_x))} "
                f"sigma_y={_fmt(math.sqrt(model.var_y))} rho={_fmt(model.correlation)}"
            )
        return f"gaussian dim={model.dim}"
    if isinstance(model, WeibullModel):
        return f"weibull shape={_fmt(model.shape)} scale={_fmt(model.scale)}"
    return f"empirical replicates={model.n_replicates} periods={model.n_periods}"


# ---------------------------------------------------------------------------
# commands


def cmd_compute(opts: _Options) -> int:
    model = opts.model()
    lead = validate_lead_time(opts.get("L", int, default=DEFAULT_LEAD))
    delta = opts.get("delta", float)
    grid = opts.get("grid", str)
    if delta is None and grid is None:
        raise UsageError("--delta is required (or give --grid for a sweep)")
    rows = compare_policies(model, lead, opts.delta_grid())
    header = [
        "delta", "ss_pre", "ss_pro", "ss_rig",
        "p_pre", "p_pro", "p_rig", "ratio_pro", "ratio_pre",
    ]
    _write_csv(
        opts.get("out", str),
        header,
        [
            (r.delta, r.ss_pre, r.ss_pro, r.ss_rig,
             r.p_pre, r.p_pro, r.p_rig, r.ratio_pro, r.ratio_pre)
            for r in rows
        ],
    )
    return 0


def cmd_figure(opts: _Options) -> int:
    which = opts.args.which
    if which == "figest":
        return _figure_estimation(opts)
    model = opts.model()
    lead = validate_lead_time(opts.get("L", int, default=DEFAULT_LEAD))
    rows = compare_policies(model, lead, opts.delta_grid())
    if which == "fig1":
        header = ["delta", "ratio_pro", "ratio_pre"]
        data = [(r.delta, r.ratio_pro, r.ratio_pre) for r in rows]
    else:
        header = ["delta", "p_pro_over_delta", "p_pre_over_delta"]
        data = [(r.delta, r.p_pro / r.delta, r.p_pre / r.delta) for r in rows]
    _write_csv(opts.get("out", str), header, data)
    return 0


def _u_grid(points: int, keep_zero: bool) -> np.ndarray:
    if points < 2:
        raise UsageError("--points must be at least 2")
    grid = np.linspace(-1.0, 1.0, points)
    if not keep_zero:
        grid = grid[np.abs(grid) > 1e-12]
    return grid


def _figure_estimation(opts: _Options) -> int:
    """Estimation error |phi_hat - phi| against sample count.

    Standard normal demand over a single period, so the target is u^2/2.
    Each cell is the median error over a few independent replicate draws;
    u = 0 is skipped because every estimate is exact there.
    """
    seed = opts.get("seed", int, required=True)
    grid = _u_grid(opts.get("points", int, default=21), keep_zero=False)
    errors = np.empty((len(ESTIMATE_M_VALUES), ESTIMATE_SUBSEEDS, len(grid)))
    for i, m in enumerate(ESTIMATE_M_VALUES):
        for s in range(ESTIMATE_SUBSEEDS):
            rng = np.random.default_rng([seed, m, s])
            data = EmpiricalDemand(rng.standard_normal((m, 1)))
            for j, u in enumerate(grid):
                errors[i, s, j] = abs(empirical_cgf_estimate(data, u) - 0.5 * u * u)
    median = np.median(errors, axis=1)
    header = ["u"] + [f"err_m{m}" for m in ESTIMATE_M_VALUES]
    rows = [(u, *median[:, j]) for j, u in enumerate(grid)]
    _write_csv(opts.get("out", str), header, rows)
    return 0


def cmd_validate(opts: _Options) -> int:
    model = opts.model()
    lead = validate_lead_time(opts.get("L", int, default=DEFAULT_LEAD))
    delta = opts.get("delta", float, default=0.05)
    if not 0.0 < delta < 1.0:
        raise UsageError("delta must lie strictly between 0 and 1")
    trials = opts.get("trials", int, default=1_000_000)
    if trials < 10_000:
        raise UsageError("validation needs at least 10000 trials")
    seed = opts.get("seed", int, required=True)
    forced = opts.get("ss", float)
    if forced is None:
        stock = ss_proposed(model, lead, delta).ss
    else:
        stock = np.full(model.dim, float(forced))

    result = joint_tail_monte_carlo(model, stock, lead, trials, seed)
    hits, rate = result.hits, result.probability
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    passed = rate <= limit
    _write_lines(
        opts.get("out", str),
        [
            "command: validate",
            f"model: {_describe_model(model)}",
            f"lead_time: {lead}",
            f"delta: {_fmt(delta)}",
            "stock: " + ",".join(_fmt(s) for s in stock),
            f"trials: {trials}",
            f"seed: {seed}",
            f"stockouts: {hits}",
            f"empirical_rate: {_fmt(rate)}",
            f"limit: {_fmt(limit)}",
            f"result: {'PASS' if passed else 'FAIL'}",
        ],
    )
    return 0 if passed else 1


def _scalar_samples(opts: _Options, model, lead: int) -> EmpiricalDemand:
    if isinstance(model, EmpiricalDemand):
        return model
    count = opts.get("trials", int, default=1_000)
    if count < 2:
        raise UsageError("estimation needs at least 2 replicates")
    seed = opts.get("seed", int, required=True)
    if isinstance(model, GaussianModel):
        if model.dim != 1:
            raise UsageError("estimate-cgf works with one-dimensional demand")
        return EmpiricalDemand(sample_correlated(model, lead, count, seed)[:, :, 0])
    rng = np.random.default_rng(seed)
    draws = model.scale * rng.weibull(model.shape, size=(count, lead))
    return EmpiricalDemand(draws)


def cmd_estimate_cgf(opts: _Options) -> int:
    model = opts.model(allow=(GaussianModel, WeibullModel, EmpiricalDemand))
    lead = validate_lead_time(opts.get("L", int, default=1))
    data = _scalar_samples(opts, model, lead)
    grid = _u_grid(opts.get("points", int, default=21), keep_zero=True)

    exact = None
    if isinstance(model, GaussianModel):
        mu = float(model.mean[0])
        var = float(model.covariance[0, 0])
        exact = lambda u: mu * u + 0.5 * var * u * u
    elif isinstance(model, WeibullModel) and model.shape >= 1.0:
        exact = lambda u: weibull_log_mgf(model, u)

    header = ["u", "estimate", "half_width"]
    if exact is not None:
        header += ["exact", "abs_error"]
    rows = []
    for u in grid:
        est = empirical_cgf_estimate(data, u)
        cert = estimation_certificate(data, u, CONFIDENCE_MULTIPLIER)
        row = [u, est, cert.half_width]
        if exact is not None:
            truth = exact(u)
            row += [truth, abs(est - truth)]
        rows.append(row)
    _write_csv(opts.get("out", str), header, rows)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", help="gauss1 or gauss2 (default gauss2)")
    sub.add_argument("--sigma", type=float, help="per-period standard deviation")
    sub.add_argument("--rho", type=float, help="correlation for gauss2")
    sub.add_argument("--L", type=int, help="lead time in periods")
    sub.add_argument("--delta", type=float, help="allowed stockout rate")
    sub.add_argument("--grid", help="rate grid: COUNT or LO:HI:COUNT, log-spaced")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials / replicates")
    sub.add_argument("--seed", type=int, help="RNG seed (required when sampling)")
    sub.add_argument("--points", type=int, help="points in the u grid")
    sub.add_argument("--ss", type=float, help="override the stock level")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--config", help="JSON file with any of the above keys")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It holds command names only; ``main`` looks the command function up at
    call time, so the cached parser keeps no reference to it.
    """
    parser = argparse.ArgumentParser(
        prog="stockbound",
        description="Safety stock with certified stockout rates for correlated demand.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser("compute", help="compare the three sizing rules")

    figure = commands.add_parser("figure", help="emit one of the experiment curves")
    figure.add_argument("which", choices=("fig1", "fig2", "figest"))

    validate = commands.add_parser("validate", help="simulate and check the certificate")

    estimate = commands.add_parser("estimate-cgf", help="empirical CGF with half-widths")

    for sub in (compute, figure, validate, estimate):
        _add_common(sub)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "compute": cmd_compute,
        "figure": cmd_figure,
        "validate": cmd_validate,
        "estimate-cgf": cmd_estimate_cgf,
    }
    try:
        return commands[args.command](_Options(args))
    except UsageError as exc:
        print(f"stockbound: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"stockbound: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
