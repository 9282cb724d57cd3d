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

Each command accepts only the flags it reads (``_LEAF_FLAGS``), so argparse
rejects any other with exit 2.  Every option can also come from a
``--config`` JSON file; a command-line flag wins over the file.  One config
file may serve every command, so it may hold any command's keys, but a key
that no command reads is an error.  Every value in the file is parsed when the
file is read, as its flag's text would be (so 1.7 is not an int); only
``model`` may be a mapping, whose type and keys are checked then too (its
demand file is read only by a command that builds the model), and null is
an error.  Sampling uses numpy's default generator (PCG64), so a run is
reproducible from its config plus seed.  Exit status: 0 on success or a
passing validation, 1 when a validation run exceeds its limit, 2 for usage
or configuration errors, 3 for an internal error (any other exception,
reported with its traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .cgf import empirical_cgf_estimate, estimation_certificate, weibull_log_mgf
from .demand import (
    EmpiricalDemand,
    GaussianModel,
    WeibullModel,
    _model_kind,
    model_from_dict,
    validate_lead_time,
)
from .oracle import joint_tail_monte_carlo
from .policy import compare_policies, ss_proposed

__all__ = ["main", "entrypoint"]

DEFAULT_SIGMA = 1.0
DEFAULT_RHO = 0.9
DEFAULT_LEAD = 10
DEFAULT_GRID = (1e-3, 0.5, 40)
ESTIMATE_M_VALUES = (100, 1_000, 10_000, 100_000)
ESTIMATE_SUBSEEDS = 5
CONFIDENCE_MULTIPLIER = 3.0

# Every option: name -> (type, help).
_FLAGS = {
    "model": (str, "gauss1 or gauss2 (default gauss2; gauss1 for estimate-cgf)"),
    "sigma": (float, "per-period standard deviation"),
    "rho": (float, "correlation for gauss2"),
    "L": (int, "lead time in periods"),
    "delta": (float, "allowed stockout rate"),
    "grid": (str, "rate grid: COUNT or LO:HI:COUNT, log-spaced"),
    "trials": (int, "Monte Carlo trials / replicates"),
    "seed": (int, "RNG seed (required when sampling)"),
    "points": (int, "points in the u grid"),
    "ss": (float, "override the stock level"),
    "out": (str, "output file (default: stdout)"),
    "config": (str, "JSON file of option values, keyed by flag name"),
}
_POLICY_FLAGS = ("model", "sigma", "rho", "L", "delta", "grid")
# Leaf command -> the options it reads; every command also takes out and config.
_LEAF_FLAGS = {
    "compute": _POLICY_FLAGS,
    "fig1": _POLICY_FLAGS,
    "fig2": _POLICY_FLAGS,
    "figest": ("seed", "points"),
    "validate": ("model", "sigma", "rho", "L", "delta", "trials", "seed", "ss"),
    "estimate-cgf": ("model", "sigma", "L", "trials", "seed", "points"),
}
# Policy command -> CSV columns: ``PolicyOutput`` fields, ``_over_delta`` ones divided by delta.
_POLICY_COLUMNS = {
    "compute": ("delta", "ss_pre", "ss_pro", "ss_rig", "p_pre", "p_pro", "p_rig",
                "ratio_pro", "ratio_pre"),
    "fig1": ("delta", "ratio_pro", "ratio_pre"),
    "fig2": ("delta", "p_pro_over_delta", "p_pre_over_delta"),
}


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
    """Option lookup: CLI flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict = {}
        self.base_dir = None
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    config = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"could not read config file: {exc}") from None
            if not isinstance(config, dict):
                raise UsageError("config file must hold a JSON object")
            self.config = {key: _parse_config_value(key, value) for key, value in config.items()}
            self.base_dir = Path(args.config).parent

    def get(self, name: str, default=None, required=False):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.config.get(name, default)
        if value is None and required:
            raise UsageError(f"--{name} is required")
        return value

    def model(self, default: str = "gauss2", allow: tuple[type, ...] = (GaussianModel,)):
        """Demand model from --model/--sigma/--rho or a config mapping."""
        spec = self.get("model", default=default)
        if isinstance(spec, dict):
            model = model_from_dict(spec, base_dir=self.base_dir)
        elif spec in ("gauss1", "gauss2"):
            sigma = self.get("sigma", default=DEFAULT_SIGMA)
            if not sigma > 0.0:
                raise UsageError("--sigma must be positive")
            if spec == "gauss1":
                model = GaussianModel.univariate(sigma * sigma)
            else:
                rho = self.get("rho", default=DEFAULT_RHO)
                model = GaussianModel.bivariate(sigma * sigma, sigma * sigma, rho)
        else:
            raise UsageError(f"unknown model {spec!r} (expected gauss1 or gauss2)")
        if not isinstance(model, allow):
            names = " or ".join(t.__name__ for t in allow)
            raise UsageError(f"this command needs a {names} demand model")
        return model

    def delta_grid(self, required: bool) -> np.ndarray:
        """The single --delta, a log-spaced --grid, or the default grid if not ``required``."""
        delta = self.get("delta")
        grid = self.get("grid")
        if delta is not None and grid is not None:
            raise UsageError("give either --delta or --grid, not both")
        if delta is not None:
            return np.array([delta])
        if grid is None and required:
            raise UsageError("--delta is required (or give --grid for a sweep)")
        lo, hi, count = DEFAULT_GRID
        if grid is not None:
            lo, hi, count = _parse_grid(grid, lo, hi)
        if not 0.0 < lo < hi < 1.0:
            raise UsageError("grid rates must satisfy 0 < lo < hi < 1")
        return np.geomspace(lo, hi, count)


def _parse_config_value(key: str, value):
    """A config value read as its flag's text would be; only ``model`` may be a mapping."""
    if key not in _FLAGS or key == "config":
        raise UsageError(f"unknown config key {key!r}")
    if key == "model" and isinstance(value, dict):
        try:
            _model_kind(value)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return value
    cast = _FLAGS[key][0]
    try:
        # JSON true is no number and null, lists and mappings are no flag text
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return cast(str(value))
    except ValueError:
        pass
    raise UsageError(f"config key {key!r} is not a valid {cast.__name__}")


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


def _describe_model(model: GaussianModel) -> str:
    if model.dim == 1:
        return f"gaussian dim=1 sigma={_fmt(math.sqrt(model.covariance[0, 0]))}"
    if model.dim == 2:
        return (
            f"gaussian dim=2 sigma_x={_fmt(math.sqrt(model.var_x))} "
            f"sigma_y={_fmt(math.sqrt(model.var_y))} rho={_fmt(model.correlation)}"
        )
    return f"gaussian dim={model.dim}"


# ---------------------------------------------------------------------------
# commands


def _cell(row, column: str) -> float:
    if column.endswith("_over_delta"):
        return getattr(row, column.removesuffix("_over_delta")) / row.delta
    return getattr(row, column)


def cmd_policy(opts: _Options) -> int:
    """``compute``, ``figure fig1|fig2``: a row per rate computes only its table's columns."""
    leaf = opts.args.leaf
    model = opts.model()
    lead = validate_lead_time(opts.get("L", default=DEFAULT_LEAD))
    rows = compare_policies(model, lead, opts.delta_grid(required=leaf == "compute"))
    columns = _POLICY_COLUMNS[leaf]
    _write_csv(opts.get("out"), columns, [[_cell(r, c) for c in columns] for r in rows])
    return 0


def _u_grid(points: int, keep_zero: bool) -> np.ndarray:
    if points < 2:
        raise UsageError("--points must be at least 2")
    grid = np.linspace(-1.0, 1.0, points)
    if not keep_zero:
        grid = grid[np.abs(grid) > 1e-12]
    return grid


def cmd_figest(opts: _Options) -> int:
    """Estimation error |phi_hat - phi| against sample count.

    Standard normal demand over a single period, so the target is u^2/2.
    Each cell is the median error over a few independent replicate draws;
    u = 0 is skipped because every estimate is exact there.
    """
    seed = opts.get("seed", required=True)
    grid = _u_grid(opts.get("points", default=21), keep_zero=False)
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
    _write_csv(opts.get("out"), header, rows)
    return 0


def cmd_validate(opts: _Options) -> int:
    model = opts.model()
    lead = validate_lead_time(opts.get("L", default=DEFAULT_LEAD))
    delta = opts.get("delta", default=0.05)
    if not 0.0 < delta < 1.0:
        raise UsageError("delta must lie strictly between 0 and 1")
    trials = opts.get("trials", default=1_000_000)
    seed = opts.get("seed", required=True)
    forced = opts.get("ss")
    if forced is None:
        stock = ss_proposed(model, lead, delta).ss
    else:
        stock = np.full(model.dim, float(forced))

    result = joint_tail_monte_carlo(model, stock, lead, trials, seed)
    hits, rate = result.hits, result.probability
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    passed = rate <= limit
    _write_lines(
        opts.get("out"),
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
    count = opts.get("trials", default=1_000)
    if count < 2:
        raise UsageError("estimation needs at least 2 replicates")
    seed = opts.get("seed", required=True)
    rng = np.random.default_rng(seed)
    if isinstance(model, GaussianModel):
        if model.dim != 1:
            raise UsageError("estimate-cgf works with one-dimensional demand")
        sd = math.sqrt(model.covariance[0, 0])
        draws = model.mean[0] + rng.standard_normal((count, lead)) * sd
    else:
        draws = model.scale * rng.weibull(model.shape, size=(count, lead))
    return EmpiricalDemand(draws)


def cmd_estimate_cgf(opts: _Options) -> int:
    model = opts.model("gauss1", allow=(GaussianModel, WeibullModel, EmpiricalDemand))
    lead = validate_lead_time(opts.get("L", default=1))
    data = _scalar_samples(opts, model, lead)
    grid = _u_grid(opts.get("points", default=21), keep_zero=True)

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
    _write_csv(opts.get("out"), header, rows)
    return 0


# ---------------------------------------------------------------------------
# wiring


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
    figure = commands.add_parser("figure", help="emit one of the experiment curves")
    figures = figure.add_subparsers(dest="which", required=True)
    leaves = (
        (commands, "compute", "compare the three sizing rules"),
        (figures, "fig1", "stock overhead ratios against the rigorous stock"),
        (figures, "fig2", "realized stockout rates over their target"),
        (figures, "figest", "empirical CGF error against replicate count"),
        (commands, "validate", "simulate and check the certificate"),
        (commands, "estimate-cgf", "empirical CGF with half-widths"),
    )
    for group, name, text in leaves:
        sub = group.add_parser(name, help=text)
        sub.set_defaults(leaf=name)
        for flag in _LEAF_FLAGS[name] + ("out", "config"):
            cast, flag_help = _FLAGS[flag]
            sub.add_argument(f"--{flag}", type=cast, help=flag_help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "compute": cmd_policy,
        "fig1": cmd_policy,
        "fig2": cmd_policy,
        "figest": cmd_figest,
        "validate": cmd_validate,
        "estimate-cgf": cmd_estimate_cgf,
    }
    try:
        return commands[args.leaf](_Options(args))
    except (UsageError, ValueError, TypeError, OSError) as exc:
        print(f"stockbound: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not exit 1, which means a failed validation
        print(f"stockbound: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
