"""Run one benchmark workload against the ``stockbound`` sources in ``src/``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run imports the package from ``src/``,
builds the workload's operations from the seed, warms up, then calls the
operations one after another (a closed loop with one caller) in whole passes
until ``--seconds`` have passed and enough samples exist for the tail
percentile.  Every output is then checked against an independent reference.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
``--trace 0``, the per-layer metrics when ``--trace 1``.  A fuller record goes
to ``bench/out/``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# numpy's OpenBLAS otherwise starts one thread per core; the benchmark
# measures one caller on one core.  These must be set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie above the tail percentile


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail_rank(count: int, percentile: float) -> int:
    """1-based nearest rank of a percentile, refusing one with too few samples beyond."""
    rank = max(1, math.ceil(count * percentile / 100.0))
    if count - rank < TAIL_BEYOND:
        raise ValueError(f"p{percentile:g} of {count} samples has only {count - rank} beyond it")
    return rank


def min_samples(percentile: float) -> int:
    """Smallest sample count whose percentile has TAIL_BEYOND samples beyond it."""
    count = 1
    while count - max(1, math.ceil(count * percentile / 100.0)) < TAIL_BEYOND:
        count += 1
    return count


IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import numpy, stockbound; print(time.perf_counter() - start)"
)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy and ``stockbound`` from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def reference_kernel_rate(seconds: float = 0.5) -> float:
    """Passes per second of a fixed Python-plus-numpy kernel, to show host drift."""
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((120, 120))
    passes = 0
    start = time.perf_counter()
    while True:
        total = 0.0
        for i in range(2000):
            total += i * 0.5
        total += float((matrix @ matrix)[0, 0])
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return passes / elapsed


def environment(kernel_rate: float) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "loadavg": os.getloadavg(),
        "kernel_passes_per_s": kernel_rate,
    }


LAYER_UNITS = {
    "cli.main.self_ms": "ms/op",
    "policy.self_ms": "ms",
    "oracle.bivariate_joint_tail.calls": "count",
    "oracle.bivariate_joint_tail.ms": "ms",
    "oracle.invert_joint_tail.ms": "ms",
    "oracle.invert_joint_tail.tail_evals": "count/call",
    "rates.rate_numeric.calls": "count",
    "rates.rate_numeric.iterations": "count",
    "rates.rate_numeric.ms": "ms",
    "rates.chernoff_bound.self_ms": "ms",
    "rates.invert_rate.calls": "count",
    "rates.invert_rate.ms": "ms",
    "cgf.evals": "count",
    "cgf.eval_ms": "ms",
    "cgf.estimate_ms": "ms",
    "demand.load_demand_csv.ms": "ms",
    "demand.sample_correlated.ms": "ms",
    "demand.sample_correlated.bytes": "bytes",
    "oracle.joint_tail_monte_carlo.ms": "ms",
    "oracle.mc_trials_per_s": "1/s",
    "events.event_mask.ms": "ms",
}


def layer_metrics(tracer, rounds: int, main_calls: int) -> dict:
    """Per-layer metrics of a traced run, per pass over the operation list."""
    stats, counters = tracer.stats, tracer.counters
    per_pass = lambda value: value / rounds
    ms = lambda key: per_pass(stats[key].total_s * 1000.0) if key in stats else 0.0
    calls = lambda key: per_pass(stats[key].calls) if key in stats else 0.0
    layers = tracer.module_self_s()
    invert_calls = stats["oracle.invert_joint_tail"].calls if "oracle.invert_joint_tail" in stats else 0
    mc_s = stats["oracle.joint_tail_monte_carlo"].total_s if "oracle.joint_tail_monte_carlo" in stats else 0.0
    return {
        "cli.main.self_ms": layers.get("cli", 0.0) * 1000.0 / main_calls if main_calls else 0.0,
        "policy.self_ms": per_pass(layers.get("policy", 0.0) * 1000.0),
        "oracle.bivariate_joint_tail.calls": calls("oracle.bivariate_joint_tail"),
        "oracle.bivariate_joint_tail.ms": ms("oracle.bivariate_joint_tail"),
        "oracle.invert_joint_tail.ms": ms("oracle.invert_joint_tail"),
        "oracle.invert_joint_tail.tail_evals": (
            counters["oracle.invert_joint_tail.tail_evals"] / invert_calls if invert_calls else 0.0
        ),
        "rates.rate_numeric.calls": calls("rates.rate_numeric"),
        "rates.rate_numeric.iterations": per_pass(counters["rates.rate_numeric.iterations"]),
        "rates.rate_numeric.ms": ms("rates.rate_numeric"),
        "rates.chernoff_bound.self_ms": (
            per_pass(stats["rates.chernoff_bound"].self_s * 1000.0) if "rates.chernoff_bound" in stats else 0.0
        ),
        "rates.invert_rate.calls": calls("rates.invert_rate"),
        "rates.invert_rate.ms": ms("rates.invert_rate"),
        "cgf.evals": calls("cgf.eval"),
        "cgf.eval_ms": ms("cgf.eval"),
        "cgf.estimate_ms": ms("cgf.empirical_cgf_estimate") + ms("cgf.estimation_certificate"),
        "demand.load_demand_csv.ms": ms("demand.load_demand_csv"),
        "demand.sample_correlated.ms": ms("demand.sample_correlated"),
        "demand.sample_correlated.bytes": per_pass(counters["demand.sample_correlated.bytes"]),
        "oracle.joint_tail_monte_carlo.ms": ms("oracle.joint_tail_monte_carlo"),
        "oracle.mc_trials_per_s": counters["oracle.joint_tail_monte_carlo.trials"] / mc_s if mc_s else 0.0,
        "events.event_mask.ms": ms("events.event_mask"),
    }


def layer_shares(tracer, op_s: float) -> dict:
    """Each layer's self time, and the inclusive time of the hot functions, as a share of op time."""
    shares = {f"self:{layer}": value / op_s for layer, value in sorted(tracer.module_self_s().items())}
    for key in ("rates.rate_numeric", "rates.invert_rate", "oracle.bivariate_joint_tail",
                "oracle.joint_tail_monte_carlo", "demand.sample_correlated", "demand.load_demand_csv"):
        if key in tracer.stats:
            shares[f"total:{key}"] = tracer.stats[key].total_s / op_s
    return shares


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stockbound" / "__init__.py").is_file():
        print(f"run.py: no stockbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import_start = time.perf_counter()
    import numpy as np

    import stockbound

    import_s = [time.perf_counter() - import_start]
    # The benchmark's own code, and the scipy.stats its checks use, load after
    # the program's imports are timed.
    import workloads

    if Path(stockbound.__file__).resolve().parent != ROOT / "src" / "stockbound":
        print(f"run.py: imported stockbound from {stockbound.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    outdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # Set-up: the imports (this process's, and as many more in fresh
    # interpreters) and input generation with a warm-up pass, each repeated
    # SETUP_REPEATS times; the reported set-up time is the sum of their medians.
    import_s += [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops, warmup = build(np.random.default_rng(args.seed), outdir)
        for op in warmup:
            op.run()
        prepare_s.append(time.perf_counter() - start)
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    if tracer is not None:
        tracer.reset()
    run_op = (lambda op: tracer.call("bench.op", op.run)) if tracer else (lambda op: op.run())
    needed = min_samples(percentile)
    latencies = []
    outputs = [Counter() for _ in ops]
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            start = time.perf_counter()
            try:
                output = run_op(op)
            except Exception as exc:  # an operation that raises is a failed operation
                output = ("raised", f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - start)
            outputs[index][output] += 1
        rounds += 1
        if tracer is not None:
            tracer.recording = False
        if time.perf_counter() - loop_start >= args.seconds and len(latencies) >= needed:
            break
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    kernel_rate = reference_kernel_rate()

    # Check every output against its reference; identical outputs of one
    # operation share a check.
    attempted = len(latencies)
    failed = 0
    correct = True
    problems_by_kind = defaultdict(list)
    for op, seen in zip(ops, outputs):
        for output, count in seen.items():
            if isinstance(output, tuple) and output[:1] == ("raised",):
                problems = [output[1]]
            else:
                try:
                    problems = op.check(output)
                except Exception as exc:  # a malformed output can break a check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += count
                correct = correct and op.known_fault
                problems_by_kind[op.kind].append(problems[0])
    for kind, problems in sorted(problems_by_kind.items()):
        known = any(op.known_fault for op in ops if op.kind == kind)
        label = "known fault" if known else "FAILED"
        print(f"run.py: {label} {kind}: {problems[0]}", file=sys.stderr)

    ordered = sorted(latencies)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / loop_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (ordered[tail_rank(attempted, percentile) - 1] * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    by_kind = defaultdict(list)
    for index, latency in enumerate(latencies):
        by_kind[ops[index % len(ops)].kind].append(latency * 1000.0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "tail_percentile": percentile,
        "setup_parts_s": {"import": import_s, "prepare": prepare_s},
        "loop_s": loop_s,
        "environment": environment(kernel_rate),
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "median_ms_by_kind": {kind: statistics.median(values) for kind, values in sorted(by_kind.items())},
    }
    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    else:
        op_s = tracer.stats["bench.op"].total_s
        main_calls = tracer.stats["cli.main"].calls if "cli.main" in tracer.stats else 0
        values = layer_metrics(tracer, rounds, main_calls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        record["shares"] = layer_shares(tracer, op_s)
        record["per_pass_by_key"] = {
            key: {"calls": stat.calls / rounds, "total_ms": stat.total_s * 1000.0 / rounds,
                  "self_ms": stat.self_s * 1000.0 / rounds}
            for key, stat in sorted(tracer.stats.items())
        }
        spans_path = outdir / "spans.json"
        spans_path.write_text(json.dumps({"fields": ["id", "parent", "key", "start", "end"],
                                          "spans": tracer.spans}))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["metrics"] = metrics
    (outdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"], "rounds": rounds, "tail_percentile": percentile}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
