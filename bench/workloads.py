"""The benchmark's workloads: seeded operation lists with their checks.

Four groups of operations (policy-sweep, certify-bounds, size-scalar,
validate-mc) are built here and run as two workloads: ``rates`` (the rate
solver and rate inversion over the CGF layer) and ``oracles`` (exact
quadrature and Monte Carlo, through the CLI).  Each builder takes a numpy generator and an output directory for the input
files it writes, and returns the operations of one pass plus a short warm-up
list.  An operation's ``run`` calls the program and returns its output in a
hashable form; ``check`` compares that output with a reference computed in
``checks`` without going through the program.  The seed only jitters
parameters by a few percent, so every seed does the same mix of work.

Program functions are reached through their module attribute at call time
(``policy.ss_proposed``, not a local alias), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from stockbound import cgf, cli, demand, oracle, policy, rates


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # An operation that exposes a fault already reported for the program: it
    # fails every time and is counted in ``failed`` without making the run
    # incorrect.
    known_fault: bool = False


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    return run


# The seed moves each parameter by at most this share (correlations by this
# much in absolute terms).  Solver work depends on the parameters, so a wider
# jitter would make runs with different seeds do different amounts of work.
JITTER = 0.01


def _jitter(rng: np.random.Generator, value: float) -> float:
    return float(value * (1.0 + rng.uniform(-JITTER, JITTER)))


def _jitter_rho(rng: np.random.Generator, rho: float, top: float = 0.95) -> float:
    return float(min(top, max(-top, rho + rng.uniform(-JITTER, JITTER))))


# ---------------------------------------------------------------------------
# policy-sweep: the paper's policy comparison through the CLI


POLICY_RHOS = (0.0, 0.3, 0.6, 0.9, 0.95)
POLICY_COMMANDS = (("compute", 5), ("fig1", 10), ("fig2", 20))  # (command, lead time)
POLICY_GRID = 8


def _policy_op(kind: str, rho: float, lead: int, sigma: float, lo: float, hi: float, count: int) -> Op:
    grid = f"{lo!r}:{hi!r}:{count}"
    command = ["compute"] if kind == "compute" else ["figure", kind]
    argv = command + ["--grid", grid, "--rho", repr(rho), "--L", str(lead), "--sigma", repr(sigma)]
    deltas = np.geomspace(lo, hi, count)

    def check(output) -> list:
        status, text = output
        if status != 0:
            return [f"exit status {status}"]
        return checks.check_policy_csv(text, kind, sigma * sigma, rho, lead, deltas)

    return Op(kind, _cli(argv), check)


def policy_sweep(rng: np.random.Generator, outdir: Path):
    ops = []
    for base_rho in POLICY_RHOS:
        rho = max(0.0, _jitter_rho(rng, base_rho))
        for kind, lead in POLICY_COMMANDS:
            lo, hi = _jitter(rng, 1e-4), _jitter(rng, 0.4)
            ops.append(_policy_op(kind, rho, lead, _jitter(rng, 1.0), lo, hi, POLICY_GRID))
    warmup = [_policy_op(kind, 0.5, 10, 1.0, 1e-3, 0.3, 2) for kind, _ in POLICY_COMMANDS]
    return ops, warmup


# ---------------------------------------------------------------------------
# certify-bounds: Chernoff bounds through the projected-ascent rate solver


CERTIFY_RHOS = (-0.9, -0.5, 0.0, 0.5, 0.9)
CERTIFY_LEAD = 10
# Target bound exponent L * N * R; bounds land near exp(-4).
CERTIFY_EXPONENT = 4.0
# Iteration counts of the ascent swing with the margin's direction, so the
# direction is fixed and the seed only scales the exponent.
SLACK_DIRECTION = np.array([1.0, 0.8, 0.9])
COV3 = np.array([[1.0, -0.4, 0.3], [-0.4, 1.0, 0.2], [0.3, 0.2, 1.0]])


def cone_margin(cov: np.ndarray, signs: np.ndarray, binding: bool, exponent: float, lead: int) -> np.ndarray:
    """A per-period margin whose optimal dual point is known.

    In the flipped coordinates ``v = signs * u >= 0`` the margin is built as
    ``c = Q v`` for ``v`` along SLACK_DIRECTION (the cone constraint is slack), or from
    ``v`` on the first axis with the other coordinates pushed down so their
    constraints bind.  ``v`` is scaled so the optimal exponent is ``exponent``.
    """
    n = cov.shape[0]
    q = cov * np.outer(signs, signs)
    if binding:
        d = np.zeros(n)
        d[0] = 1.0
    else:
        d = SLACK_DIRECTION[:n]
    v = d * math.sqrt(2.0 * exponent / (lead * float(d @ q @ d)))
    c = q @ v
    if binding:
        c[1:] -= 0.3 * v[0] * np.sqrt(np.diag(q)[1:])
    return signs * c


def _bound_op(kind: str, cov: np.ndarray, eps, pattern: str, signs=None) -> Op:
    model = demand.GaussianModel(np.zeros(cov.shape[0]), cov)
    eps_arg = float(eps) if pattern == "fungible" else np.array(eps, dtype=float)
    signs_arg = None if signs is None else np.array(signs, dtype=float)

    def run() -> float:
        return rates.chernoff_bound(
            cgf.gaussian_cgf(model), eps_arg, CERTIFY_LEAD, pattern, signs=signs_arg
        )

    def check(bound) -> list:
        return checks.check_bound(bound, cov, eps_arg, CERTIFY_LEAD, pattern, signs_arg)

    return Op(kind, run, check)


def _bound_ops(cov: np.ndarray, rng: np.random.Generator, label: str) -> list[Op]:
    n = cov.shape[0]
    lead = CERTIFY_LEAD
    ops = []
    orthant_signs = np.array([1.0, -1.0, 1.0][:n])
    for binding in (False, True):
        tag = "bind" if binding else "slack"
        exponent = _jitter(rng, CERTIFY_EXPONENT)
        eps = cone_margin(cov, np.ones(n), binding, exponent, lead)
        ops.append(_bound_op(f"{label}:all_exceed:{tag}", cov, eps, "all_exceed"))
        exponent = _jitter(rng, CERTIFY_EXPONENT)
        eps = cone_margin(cov, orthant_signs, binding, exponent, lead)
        ops.append(_bound_op(f"{label}:orthant:{tag}", cov, eps, "orthant", orthant_signs))
    if n == 2:
        # The union's mixed-sign term is slack for a skewed margin when rho > 0
        # and binds otherwise.
        m = math.sqrt(2.0 * _jitter(rng, CERTIFY_EXPONENT) * cov[0, 0] / lead)
        ops.append(_bound_op(f"{label}:union:equal", cov, [m, m], "union"))
        ops.append(_bound_op(f"{label}:union:skewed", cov, [0.4 * m, m], "union"))
    for scale in (1.0, 2.0):
        exponent = scale * _jitter(rng, CERTIFY_EXPONENT)
        eps = math.sqrt(2.0 * exponent * float(cov.sum()) / lead)
        ops.append(_bound_op(f"{label}:fungible:x{scale:g}", cov, eps, "fungible"))
    return ops


def _bivariate(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


def certify_bounds(rng: np.random.Generator, outdir: Path):
    ops = []
    for rho in CERTIFY_RHOS:
        ops += _bound_ops(_bivariate(rho), rng, f"rho{rho:+g}")
    ops += _bound_ops(COV3, rng, "n3")
    # One cheap, well-conditioned operation per pattern.
    warm = np.random.default_rng(0)
    warmup = [op for op in _bound_ops(_bivariate(0.0), warm, "warm") if op.kind.endswith(("slack", "equal", "x1"))]
    return ops, warmup


# ---------------------------------------------------------------------------
# size-scalar: single-commodity sizing by rate inversion


WEIBULL_SHAPES = (1.0, 1.5, 2.0, 3.0)
SIZE_LEAD = 10
SIZE_DELTAS = (1e-3, 3e-3, 1e-2, 3e-2)
EMPIRICAL_SHAPE = (4000, 10)  # replicates x periods in the generated CSV
WINDOW = 5.0  # the program's default empirical-CGF window
U_GRID = np.linspace(-1.0, 1.0, 21)
CONFIDENCE = 3.0


def _weibull_op(shape: float, scale: float, delta: float) -> Op:
    mean = scale * math.gamma(1.0 + 1.0 / shape)

    def run() -> float:
        stock = policy.ss_proposed(cgf.weibull_cgf(demand.WeibullModel(shape, scale)), SIZE_LEAD, delta)
        return float(stock.ss[0])

    def check(stock) -> list:
        log_mgf = lambda u: checks.weibull_log_mgf(shape, scale, u)
        # Shape 1 is exponential demand, whose transform has a pole at 1/scale.
        edge = 1.0 / scale if shape == 1.0 else math.inf
        return checks.check_sized(stock, SIZE_LEAD, delta, log_mgf, mean, edge, closed=False)

    return Op(f"weibull{shape:g}", run, check)


def _gaussian1_op(var: float, delta: float) -> Op:
    def run() -> float:
        model = demand.GaussianModel.univariate(var)
        return float(policy.ss_proposed(cgf.gaussian_cgf(model), SIZE_LEAD, delta).ss[0])

    def check(stock) -> list:
        return checks.check_close("stock", stock, math.sqrt(2.0 * SIZE_LEAD * var * math.log(1.0 / delta)), 1e-8)

    return Op("gaussian1", run, check)


def _empirical_op(path: Path, data: np.ndarray, delta: float) -> Op:
    log_mgf = checks.empirical_log_mgf(data.sum(axis=1), data.shape[1])
    mean = float(data.mean())

    def run() -> float:
        model = demand.model_from_dict({"type": "empirical", "path": str(path)})
        return float(policy.ss_proposed(cgf.empirical_cgf(model), SIZE_LEAD, delta).ss[0])

    def check(stock) -> list:
        return checks.check_sized(stock, SIZE_LEAD, delta, log_mgf, mean, WINDOW)

    return Op("empirical-csv", run, check)


def _estimate_op(data: np.ndarray) -> Op:
    samples = demand.EmpiricalDemand(data)
    sums = data.sum(axis=1)

    def run() -> tuple:
        out = []
        for u in U_GRID:
            cert = cgf.estimation_certificate(samples, u, CONFIDENCE)
            out.append((cgf.empirical_cgf_estimate(samples, u), cert.probability_bound, cert.spread, cert.half_width))
        return tuple(out)

    def check(rows) -> list:
        problems = []
        m = sums.shape[0]
        for u, (estimate, prob, spread, half) in zip(U_GRID, rows):
            moments = np.exp(u * sums)
            problems += checks.check_close(f"estimate({u:.2f})", estimate, math.log(moments.mean()) / data.shape[1], 1e-11, 1e-13)
            problems += checks.check_close(f"probability_bound({u:.2f})", prob, min(1.0, 1.0 / (m * CONFIDENCE**2)), 1e-14)
            problems += checks.check_close(f"spread({u:.2f})", spread, float(np.std(moments, ddof=1)), 1e-9)
            problems += checks.check_close(f"half_width({u:.2f})", half, CONFIDENCE * float(np.std(moments, ddof=1)), 1e-9)
        return problems

    return Op("estimate", run, check)


def size_scalar(rng: np.random.Generator, outdir: Path):
    ops = []
    for shape in WEIBULL_SHAPES:
        scale = _jitter(rng, 1.0)
        for delta in SIZE_DELTAS:
            ops.append(_weibull_op(shape, scale, _jitter(rng, delta)))
    for var, delta in zip((1.0, 4.0), SIZE_DELTAS):
        ops.append(_gaussian1_op(_jitter(rng, var), _jitter(rng, delta)))
    data = rng.gamma(2.0, _jitter(rng, 1.0), EMPIRICAL_SHAPE)
    path = outdir / "demand.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    for delta in SIZE_DELTAS:
        ops.append(_empirical_op(path, data, _jitter(rng, delta)))
    ops.append(_estimate_op(data))
    warm_data = data[:50]
    warm_path = outdir / "warm.csv"
    np.savetxt(warm_path, warm_data, delimiter=",", fmt="%.17g")
    warmup = [_weibull_op(2.0, 1.0, 0.1), _weibull_op(1.0, 1.0, 0.1), _gaussian1_op(1.0, 0.1),
              _empirical_op(warm_path, warm_data, 0.1), _estimate_op(warm_data)]
    return ops, warmup


# ---------------------------------------------------------------------------
# validate-mc: Monte Carlo through the oracle and the validate command


MC_TRIALS = 1_000_000
MC_LEAD = 10
MC_RHOS = (0.5, -0.5)
VALIDATE_TRIALS = 200_000
# (rho, lead time, delta) of the zero-mean validate runs.
VALIDATE_CASES = ((0.9, 10, 0.05), (0.3, 5, 0.1), (-0.5, 10, 0.02))
# A fixed nonzero-mean config: validate compares raw demand, mean included,
# with the safety stock, so every draw counts as a stockout.
NONZERO_MEAN = {"model": {"type": "gaussian", "mu": [5, 5], "sigma": [[1, 0.9], [0.9, 1]]}}
NONZERO_MEAN_ARGS = {"rho": 0.9, "lead": 10, "delta": 0.05, "seed": 7}


def _mc_op(rho: float, pattern: str, z: float, seed: int, trials: int = MC_TRIALS) -> Op:
    cov = _bivariate(rho)
    model = demand.GaussianModel(np.zeros(2), cov)
    scale = math.sqrt(MC_LEAD)
    signs = np.array([1.0, -1.0]) if pattern == "orthant" else None
    if pattern == "fungible":
        thresholds = z * math.sqrt(MC_LEAD * float(cov.sum()))
    elif pattern == "orthant":
        thresholds = np.array([z * scale, -0.5 * z * scale])
    else:
        thresholds = np.array([z * scale, z * scale])

    def run() -> tuple:
        result = oracle.joint_tail_monte_carlo(model, thresholds, MC_LEAD, trials, seed, pattern, signs)
        return result.probability, result.trials

    def check(output) -> list:
        probability, done = output
        if done != trials:
            return [f"ran {done} trials, asked for {trials}"]
        exact = checks.gaussian_pattern_prob(MC_LEAD * cov, thresholds, pattern, signs)
        return checks.check_mc(probability, trials, exact)

    return Op(f"mc:{pattern}", run, check)


def _validate_op(rho: float, lead: int, delta: float, seed: int, trials: int, config: Path | None = None) -> Op:
    argv = ["validate", "--L", str(lead), "--delta", repr(delta), "--trials", str(trials), "--seed", str(seed)]
    if config is None:
        argv += ["--rho", repr(rho)]
    else:
        argv += ["--config", str(config)]

    def check(output) -> list:
        status, text = output
        return checks.check_validate(text, status, 1.0, rho, lead, delta, trials)

    return Op("validate-mean" if config else "validate", _cli(argv), check, known_fault=config is not None)


def validate_mc(rng: np.random.Generator, outdir: Path):
    ops = []
    for base_rho in MC_RHOS:
        rho = _jitter_rho(rng, base_rho)
        for pattern in ("all_exceed", "union", "orthant", "fungible"):
            ops.append(_mc_op(rho, pattern, _jitter(rng, 1.0), int(rng.integers(2**31))))
    for rho, lead, delta in VALIDATE_CASES:
        ops.append(_validate_op(_jitter_rho(rng, rho), lead, _jitter(rng, delta),
                                int(rng.integers(2**31)), VALIDATE_TRIALS))
    config = outdir / "nonzero-mean.json"
    config.write_text(json.dumps(NONZERO_MEAN))
    args = NONZERO_MEAN_ARGS
    ops.append(_validate_op(args["rho"], args["lead"], args["delta"], args["seed"], VALIDATE_TRIALS, config))
    warmup = [_mc_op(0.5, pattern, 1.0, 1, 10_000) for pattern in ("all_exceed", "union", "orthant", "fungible")]
    warmup.append(_validate_op(0.5, 5, 0.05, 1, 10_000))
    return ops, warmup


def _combine(*builders):
    """One workload whose pass is the passes of ``builders``, in order, from one generator."""

    def build(rng: np.random.Generator, outdir: Path):
        ops, warmup = [], []
        for builder in builders:
            more_ops, more_warmup = builder(rng, outdir)
            ops += more_ops
            warmup += more_warmup
        return ops, warmup

    return build


WORKLOADS = {
    "rates": _combine(certify_bounds, size_scalar),
    "oracles": _combine(policy_sweep, validate_mc),
}
# The percentile reported as latency_tail_ms.  A run goes on until at least
# ten samples lie beyond it (run.min_samples): 200 samples for p95.
TAIL_PERCENTILE = {"rates": 95, "oracles": 95}
