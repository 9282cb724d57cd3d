"""End-to-end tests of the command line interface."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stockbound
from stockbound import (
    GaussianModel,
    TailQuery,
    WeibullModel,
    bivariate_joint_tail,
    compare_policies,
    joint_tail_monte_carlo,
    weibull_log_mgf,
)
from stockbound.cli import main

from oracles import mpmath_weibull_log_mgf

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated console-script wrapper does: set the program name,
# import the declared callable and exit with its return value.
SCRIPT_LAUNCHER = """
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
sys.argv = ["stockbound", *sys.argv[2:]]
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def declared_entry_point():
    """Return the ``module:attr`` target of the ``stockbound`` script entry."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["stockbound"]


def run_fresh(*args):
    """Run a fresh interpreter that imports the ``stockbound`` under test.

    The package's parent directory goes first on ``PYTHONPATH``, so the
    child needs no install even when the suite is run without one.
    """
    env = dict(os.environ)
    root = str(Path(stockbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120, env=env)


def run_declared_script(*argv):
    """Run the declared ``stockbound`` entry point in a fresh interpreter."""
    return run_fresh("-c", SCRIPT_LAUNCHER, declared_entry_point(), *argv)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestUsageErrors:
    def test_compute_needs_a_rate(self, capsys):
        code, _, err = run_cli(capsys, "compute")
        assert code == 2
        assert "--delta is required" in err

    def test_compute_rejects_rate_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--delta", "1.5")
        assert code == 2
        assert "strictly between" in err

    def test_delta_and_grid_conflict(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--delta", "0.05", "--grid", "10")
        assert code == 2
        assert "not both" in err

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--model", "gauss7", "--delta", "0.05")
        assert code == 2
        assert "unknown model" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--grid", "a:b")
        assert code == 2
        assert "bad grid" in err

    def test_validate_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--trials", "10000")
        assert code == 2
        assert "--seed is required" in err

    def test_validate_minimum_trials(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--trials", "5000", "--seed", "1")
        assert code == 2
        assert "at least 10000" in err

    def test_figest_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "figure", "figest")
        assert code == 2
        assert "--seed is required" in err

    def test_estimate_rejects_bivariate_demand(self, capsys):
        code, _, err = run_cli(capsys, "estimate-cgf", "--model", "gauss2", "--seed", "1")
        assert code == 2
        assert "one-dimensional" in err

    def test_unknown_flag(self, capsys):
        assert main(["compute", "--walrus", "5"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2


class TestCompute:
    HEADER = [
        "delta", "ss_pre", "ss_pro", "ss_rig",
        "p_pre", "p_pro", "p_rig", "ratio_pro", "ratio_pre",
    ]

    def test_single_rate_row(self, capsys, experiment_model):
        code, out, _ = run_cli(capsys, "compute", "--delta", "0.05")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == self.HEADER
        assert len(rows) == 1
        want = compare_policies(experiment_model, 10, [0.05])[0]
        got = rows[0]
        assert got[0] == 0.05
        assert got[1] == pytest.approx(want.ss_pre, rel=1e-10)
        assert got[2] == pytest.approx(want.ss_pro, rel=1e-10)
        assert got[3] == pytest.approx(want.ss_rig, rel=1e-10)
        assert got[7] == pytest.approx(want.ratio_pro, rel=1e-10)
        assert 1.2 <= got[7] <= 1.9

    def test_grid_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--grid", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        deltas = [row[0] for row in rows]
        assert deltas[0] == pytest.approx(1e-3, rel=1e-10)
        assert deltas[-1] == pytest.approx(0.5, rel=1e-10)
        assert deltas == sorted(deltas)

    def test_model_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--model", "gauss1", "--sigma", "2", "--L", "5", "--delta", "0.05"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][2] == pytest.approx(math.sqrt(2 * 5 * 4 * math.log(20.0)), rel=1e-10)

    def test_output_file_has_unix_line_endings(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "compute", "--delta", "0.05", "--out", str(out_path))
        assert code == 0
        assert out == ""
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.decode().split("\n")[0] == ",".join(self.HEADER)


class TestFigures:
    def test_fig1_ratio_curves(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig1", "--grid", "1e-3:0.4:6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "ratio_pro", "ratio_pre"]
        for row in rows:
            assert row[1] > 1.0
            assert row[2] < 1.0

    def test_fig1_reports_undefined_ratio_as_inf(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig1", "--grid", "1e-3:0.5:6")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1][0] == 0.5
        assert math.isinf(rows[-1][1])

    def test_fig2_certificate_curves(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2", "--grid", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["delta", "p_pro_over_delta", "p_pre_over_delta"]
        for row in rows:
            assert row[1] <= 1.0
            assert row[2] > 1.0

    def test_figures_compute_only_what_they_print(self, capsys, monkeypatch):
        from stockbound import policy

        def forbidden(*args):
            raise AssertionError("a column this figure does not print was computed")

        with monkeypatch.context() as patch:
            patch.setattr(policy, "_exact_all_exceed", forbidden)
            assert run_cli(capsys, "figure", "fig1", "--grid", "4")[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(policy, "ss_rigorous", forbidden)
            assert run_cli(capsys, "figure", "fig2", "--grid", "4")[0] == 0

    def test_figest_error_decreases_with_sample_count(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "figest", "--seed", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["u", "err_m100", "err_m1000", "err_m10000", "err_m100000"]
        assert len(rows) == 20
        for row in rows:
            assert abs(row[0]) > 1e-12
            assert row[4] < row[1]

    def test_figest_point_count(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "figest", "--seed", "1", "--points", "7")
        assert code == 0
        _, rows = parse_csv(out)
        # u = 0 sits on an odd grid and is dropped
        assert len(rows) == 6


class TestValidate:
    def test_certified_stock_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        keys = [line.split(":")[0] for line in lines]
        assert keys == [
            "command", "model", "lead_time", "delta", "stock", "trials",
            "seed", "stockouts", "empirical_rate", "limit", "result",
        ]
        assert lines[0] == "command: validate"
        assert "result: PASS" in lines[-1]
        record = dict(line.split(": ", 1) for line in lines)
        assert float(record["empirical_rate"]) <= float(record["limit"])
        assert record["trials"] == "1000000"
        stocks = [float(s) for s in record["stock"].split(",")]
        assert stocks[0] == stocks[1] > 0.0

    def test_forced_zero_stock_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--ss", "0", "--delta", "0.01",
            "--trials", "100000", "--seed", "3",
        )
        assert code == 1
        record = dict(line.split(": ", 1) for line in out.strip().split("\n"))
        assert record["result"] == "FAIL"
        assert record["stock"] == "0,0"
        # zero stock stocks out whenever both demands run above their means
        assert float(record["empirical_rate"]) == pytest.approx(0.428, abs=0.01)

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        args = ["validate", "--trials", "200000", "--seed", "6"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        third = tmp_path / "c.txt"
        assert main(["validate", "--trials", "200000", "--seed", "7", "--out", str(third)]) == 0
        assert third.read_bytes() != first.read_bytes()

    def test_nonzero_mean_compares_deviation_from_mean(self, capsys, tmp_path):
        cfg = tmp_path / "mean.json"
        cfg.write_text(json.dumps(
            {"model": {"type": "gaussian", "mu": [5, 5], "sigma": [[1, 0.9], [0.9, 1]]}}
        ))
        trials = 200_000
        code, out, _ = run_cli(
            capsys, "validate", "--config", str(cfg), "--L", "10", "--delta", "0.05",
            "--trials", str(trials), "--seed", "7",
        )
        assert code == 0
        record = dict(line.split(": ", 1) for line in out.strip().split("\n"))
        assert record["result"] == "PASS"
        stock = float(record["stock"].split(",")[0])
        model = GaussianModel.bivariate(1.0, 1.0, 0.9)
        exact = bivariate_joint_tail(TailQuery.from_margins(model, stock, stock, 10)).probability
        assert exact == pytest.approx(0.0045, abs=5e-4)
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(float(record["empirical_rate"]) - exact) <= 4.0 * se

    def test_stockouts_come_from_the_monte_carlo_oracle(self, capsys, tmp_path):
        cov = [[1.0, 0.9], [0.9, 1.0]]
        lead, trials, seed = 10, 50_000, 11
        counts = []
        for mu in ([0.0, 0.0], [3.0, -2.0]):
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps({"model": {"type": "gaussian", "mu": mu, "sigma": cov}}))
            code, out, _ = run_cli(
                capsys, "validate", "--config", str(cfg), "--L", str(lead),
                "--trials", str(trials), "--seed", str(seed),
            )
            assert code == 0
            record = dict(line.split(": ", 1) for line in out.strip().split("\n"))
            stock = [float(s) for s in record["stock"].split(",")]
            model = GaussianModel(np.array(mu), np.array(cov))
            p = joint_tail_monte_carlo(model, stock, lead, trials, seed).probability
            assert int(record["stockouts"]) == round(p * trials)
            counts.append(record["stockouts"])
        assert counts[0] == counts[1]


class TestEstimateCgf:
    def test_gaussian_with_exact_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate-cgf", "--model", "gauss1", "--seed", "4",
            "--trials", "500", "--points", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["u", "estimate", "half_width", "exact", "abs_error"]
        assert [row[0] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for u, est, half, exact, abs_err in rows:
            assert exact == pytest.approx(0.5 * u * u, rel=1e-10)
            assert abs_err == pytest.approx(abs(est - exact), abs=1e-9)
            assert half >= 0.0
        origin = rows[2]
        assert origin[1] == 0.0
        assert origin[4] == 0.0

    def test_weibull_exact_column_uses_series(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"type": "weibull", "shape": 2.0, "scale": 1.0}}))
        code, out, _ = run_cli(
            capsys, "estimate-cgf", "--config", str(cfg), "--seed", "2",
            "--trials", "4000", "--points", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["exact", "abs_error"]
        model = WeibullModel(2.0, 1.0)
        for u, est, half, exact, abs_err in rows:
            assert exact == pytest.approx(weibull_log_mgf(model, u), rel=1e-9)
            assert abs_err <= 0.1

    @pytest.mark.parametrize(
        "shape, scale, reference",
        [
            (1.0, 0.5, lambda u: -math.log1p(-0.5 * u)),
            (1.2, 3.0, lambda u: mpmath_weibull_log_mgf(1.2, 3.0, u)[0]),
        ],
    )
    def test_weibull_exact_column_is_finite(self, capsys, tmp_path, shape, scale, reference):
        # Shape 1 once printed inf at every u != 0, and shape 1.2 at scale 3
        # printed inf at u = -1 and u = 1, where the moment series gave up.
        pytest.importorskip("mpmath")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"type": "weibull", "shape": shape, "scale": scale}}))
        code, out, _ = run_cli(
            capsys, "estimate-cgf", "--config", str(cfg), "--seed", "3",
            "--trials", "2000", "--points", "5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for u, est, _, exact, abs_err in rows:
            assert math.isfinite(exact)
            assert exact == pytest.approx(reference(u), rel=1e-9, abs=1e-12)
            assert abs_err == pytest.approx(abs(est - exact), rel=1e-9, abs=1e-12)

    def test_empirical_demand_from_config(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        csv_path = tmp_path / "demand.csv"
        csv_path.write_text(
            "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.uniform(0, 2, (40, 3)))
            + "\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"type": "empirical", "path": "demand.csv"}}))
        code, out, _ = run_cli(capsys, "estimate-cgf", "--config", str(cfg), "--points", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["u", "estimate", "half_width"]
        assert len(rows) == 3

    def test_minimum_replicates(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate-cgf", "--model", "gauss1", "--seed", "1", "--trials", "1"
        )
        assert code == 2
        assert "at least 2" in err


class TestOptionLayering:
    def test_environment_supplies_missing_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("STOCKBOUND_SEED", "5")
        monkeypatch.setenv("STOCKBOUND_TRIALS", "20000")
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        record = dict(line.split(": ", 1) for line in out.strip().split("\n"))
        assert record["seed"] == "5"
        assert record["trials"] == "20000"

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("STOCKBOUND_DELTA", "0.2")
        code, out, _ = run_cli(capsys, "compute", "--delta", "0.05")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == 0.05

    def test_environment_beats_config(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.1}))
        monkeypatch.setenv("STOCKBOUND_DELTA", "0.2")
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == 0.2

    def test_config_supplies_missing_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.07, "L": 5}))
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == 0.07

    def test_invalid_environment_value(self, capsys, monkeypatch):
        monkeypatch.setenv("STOCKBOUND_TRIALS", "many")
        code, _, err = run_cli(capsys, "validate", "--seed", "1")
        assert code == 2
        assert "STOCKBOUND_TRIALS" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "could not read config file" in err

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 2
        assert "JSON object" in err


class TestConsoleScript:
    """The console script that pyproject.toml declares, run as its own process.

    The target is read from ``[project.scripts]`` and called the way pip's
    generated wrapper calls it, so the check needs no install. Where the
    package is installed, the wrapper on ``PATH`` is compared as well.
    """

    def test_installed_entrypoint(self, capsys):
        proc = run_declared_script("compute", "--delta", "0.05")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.startswith(b"delta,ss_pre,ss_pro,ss_rig")
        assert main(["compute", "--delta", "0.05"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    @pytest.mark.skipif(
        shutil.which("stockbound") is None,
        reason="stockbound console script is not installed on PATH",
    )
    def test_path_script_matches_declared_entry_point(self):
        argv = ["compute", "--delta", "0.05"]
        proc = subprocess.run(["stockbound", *argv], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == run_declared_script(*argv).stdout

    def test_module_reports_usage_errors_to_stderr(self):
        proc = run_declared_script()
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"usage: stockbound")

    def test_python_dash_m_runs_the_cli(self, capsys):
        proc = run_fresh("-m", "stockbound.cli", "compute", "--delta", "0.05")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.startswith(b"delta,ss_pre,ss_pro,ss_rig")
        assert main(["compute", "--delta", "0.05"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()
        usage = run_fresh("-m", "stockbound.cli")
        assert usage.returncode == 2
        assert usage.stdout == b""
        assert b"usage:" in usage.stderr
