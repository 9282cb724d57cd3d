"""End-to-end tests of the command line interface."""

import argparse
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stockbound
from stockbound import (
    EmpiricalDemand,
    GaussianModel,
    TailQuery,
    WeibullModel,
    bivariate_joint_tail,
    compare_policies,
    covariance_factor,
    empirical_cgf_estimate,
    estimation_certificate,
    joint_tail_monte_carlo,
    weibull_log_mgf,
)
from stockbound import cli
from stockbound.cli import build_parser, main

from oracles import mpmath_weibull_log_mgf

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"

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


def leaf_flags(parser, path=()):
    """Leaf command (e.g. ``figure fig1``) -> the set of flags it accepts."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return {" ".join(path): {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}}
    found = {}
    for name, sub in groups[0].choices.items():
        found.update(leaf_flags(sub, (*path, name)))
    return found


def readme_section(title):
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def readme_commands():
    """The ``stockbound ...`` lines of the README's command-line section."""
    return [
        line.removeprefix("stockbound ")
        for line in readme_section("Command line").splitlines()
        if line.startswith("stockbound ")
    ]


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

    @pytest.mark.parametrize("sigma", ["-1", "0"])
    @pytest.mark.parametrize("model", ["gauss1", "gauss2"])
    @pytest.mark.parametrize(
        "command",
        [["compute", "--delta", "0.05"], ["validate", "--trials", "10000", "--seed", "1"], ["estimate-cgf", "--seed", "1"]],
    )
    def test_sigma_must_be_positive(self, capsys, command, model, sigma):
        # sigma enters the model squared, so -1 would run as 1
        code, out, err = run_cli(capsys, *command, "--model", model, "--sigma", sigma)
        assert code == 2 and out == ""
        assert "--sigma must be positive" in err

    @pytest.mark.parametrize(
        "command, message",
        [
            (["compute", "--delta", "0.05"], "no least certified stock exists"),
            (["figure", "fig1", "--grid", "3"], "no least certified stock exists"),
            (["figure", "fig2", "--grid", "3"], "no variance"),
        ],
    )
    def test_zero_variance_model_is_a_usage_error(self, capsys, tmp_path, command, message):
        # an error, not a traceback (exit 1 would read as a failed validation)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"type": "gaussian", "mu": [0.0], "sigma": [[0.0]]}}))
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert message in err

    def test_validate_rejects_a_nan_stock(self, capsys):
        # NaN compares false, so a NaN stock would count no stockout and pass
        code, out, err = run_cli(capsys, "validate", "--ss", "nan", "--trials", "10000", "--seed", "1")
        assert code == 2 and out == ""
        assert "thresholds must be finite" in err

    def test_figest_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "figure", "figest")
        assert code == 2
        assert "--seed is required" in err

    def test_estimate_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "estimate-cgf", "--model", "gauss1")
        assert code == 2
        assert "--seed is required" in err

    def test_estimate_rejects_bivariate_demand(self, capsys):
        code, _, err = run_cli(capsys, "estimate-cgf", "--model", "gauss2", "--seed", "1")
        assert code == 2
        assert "one-dimensional" in err

    def test_unknown_flag(self, capsys):
        assert main(["compute", "--walrus", "5"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--grid", "40", "--seed", "1", "--trials", "20000"],
            ["compute", "--delta", "0.05", "--ss", "1"],
            ["figure", "fig1", "--seed", "1"],
            ["figure", "figest", "--seed", "1", "--rho", "0.5"],
            ["estimate-cgf", "--seed", "2", "--delta", "0.05"],
        ],
        ids=["validate --grid", "compute --ss", "fig1 --seed", "figest --rho", "estimate-cgf --delta"],
    )
    def test_flag_the_command_does_not_read(self, capsys, argv):
        # these flags were once accepted and silently ignored
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_figure_needs_a_curve(self, capsys):
        code, _, err = run_cli(capsys, "figure")
        assert code == 2
        assert "required" in err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2


class TestInternalErrors:
    def test_unexpected_exception_exits_3_with_traceback(self, capsys, monkeypatch):
        # exit 1 means a failed validation, so a bug must not end with it
        def broken(options):
            return 1.0 / 0.0

        monkeypatch.setattr(cli, "cmd_policy", broken)
        code, out, err = run_cli(capsys, "compute", "--delta", "0.05")
        assert code == 3 and out == ""
        assert "stockbound: internal error: ZeroDivisionError: float division by zero" in err
        assert "Traceback (most recent call last)" in err

    def test_failed_validation_still_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--ss", "0", "--delta", "0.01", "--trials", "20000", "--seed", "3"
        )
        assert code == 1 and err == ""
        assert "result: FAIL" in out


class TestFlagSets:
    POLICY = {"model", "sigma", "rho", "L", "delta", "grid", "out", "config"}
    EXPECTED = {
        "compute": POLICY,
        "figure fig1": POLICY,
        "figure fig2": POLICY,
        "figure figest": {"seed", "points", "out", "config"},
        "validate": {"model", "sigma", "rho", "L", "delta", "trials", "seed", "ss", "out", "config"},
        "estimate-cgf": {"model", "sigma", "L", "trials", "seed", "points", "out", "config"},
    }

    def test_each_command_accepts_the_flags_it_reads(self):
        found = leaf_flags(build_parser())
        assert found == self.EXPECTED
        assert sum(len(flags) for flags in found.values()) == 46

    def test_readme_table_lists_the_same_flags(self):
        # rows of "| `command`, `command` | `--flag` `--flag` |"
        documented = {}
        for row in readme_section("Command line").splitlines():
            cells = row.split("|")
            if len(cells) == 4 and "--" in cells[2]:
                flags = set(re.findall(r"--(\w+)", cells[2])) | {"out", "config"}
                for command in re.findall(r"`([^`]+)`", cells[1]):
                    documented[command] = flags
        assert documented == self.EXPECTED


class TestReadmeCommands:
    @pytest.mark.parametrize("line", readme_commands())
    def test_readme_command_runs(self, capsys, line):
        command, _, comment = line.partition("#")
        code, _, err = run_cli(capsys, *shlex.split(command))
        assert code == (1 if "fails" in comment else 0), err

    def test_readme_has_the_commands(self):
        lines = readme_commands()
        assert len(lines) >= 7
        assert sum("#" in line for line in lines) == 1

    def test_readme_config_example_runs(self, capsys, tmp_path):
        section = readme_section("Command line")
        start = section.index("```json\n") + len("```json\n")
        example = json.loads(section[start:section.index("```", start)])
        assert example["model"]["path"] == "demand.csv"
        rng = np.random.default_rng(4)
        demand = rng.uniform(0, 2, (20, example["L"]))
        lines = (",".join(f"{v:.4f}" for v in row) for row in demand)
        (tmp_path / "demand.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(example))
        code, out, err = run_cli(capsys, "estimate-cgf", "--config", str(cfg), "--points", "3")
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header == ["u", "estimate", "half_width"] and len(rows) == 3


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
        # Nearly antithetic: a conditional-tail quadrature read P(0) as 0
        # here and printed ss_rig 3.13e-12, whose exact tail is 71 delta.
        code, out, _ = run_cli(capsys, "compute", "--rho", "-0.9999999", "--delta", "1e-6", "--L", "10")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][6] <= 1e-6
        assert rows[0][3] == pytest.approx(1.52e-3, rel=1e-2)

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
            patch.setattr(policy, "_joint_tails", forbidden)
            assert run_cli(capsys, "figure", "fig1", "--grid", "4")[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(policy, "_invert_joint_tails", forbidden)
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

    def test_three_commodity_config(self, capsys, tmp_path):
        cov = [[1.0, 0.6, 0.3], [0.6, 1.0, 0.8], [0.3, 0.8, 2.0]]
        cfg = tmp_path / "three.json"
        cfg.write_text(json.dumps({"model": {"type": "gaussian", "mu": [0, 0, 0], "sigma": cov}}))
        code, out, _ = run_cli(
            capsys, "validate", "--config", str(cfg), "--trials", "100000", "--seed", "5"
        )
        assert code == 0
        record = dict(line.split(": ", 1) for line in out.strip().split("\n"))
        assert record["model"] == "gaussian dim=3"
        assert record["result"] == "PASS"
        assert len(set(record["stock"].split(","))) == 1
        assert len(record["stock"].split(",")) == 3

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


class TestGoldenOutputs:
    # Written by the CLI at default flags (rho 0.9, sigma 1, L 10), from the
    # repository root with ``src`` on PYTHONPATH:
    #   python -m stockbound.cli compute --grid 40 > tests/data/compute_grid40.csv
    #   python -m stockbound.cli figure fig1 > tests/data/figure_fig1.csv
    #   python -m stockbound.cli figure fig2 > tests/data/figure_fig2.csv
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("compute_grid40.csv", ["compute", "--grid", "40"]),
            ("figure_fig1.csv", ["figure", "fig1"]),
            ("figure_fig2.csv", ["figure", "fig2"]),
        ],
    )
    def test_default_output_is_byte_identical(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()


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

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_gaussian_rows_match_the_former_sampler(self, capsys, sigma):
        # The replicates are lead-time paths of N(mean, covariance) draws,
        # mean + noise @ factor.T, with noise of shape (trials, L, 1) from
        # the seeded generator; the estimate and half width come from them.
        code, out, _ = run_cli(
            capsys, "estimate-cgf", "--model", "gauss1", "--seed", "4",
            "--trials", "500", "--L", "3", "--sigma", str(sigma),
        )
        assert code == 0
        model = GaussianModel.univariate(sigma * sigma)
        noise = np.random.default_rng(4).standard_normal((500, 3, 1))
        data = EmpiricalDemand((model.mean + noise @ covariance_factor(model).T)[:, :, 0])
        lines = ["u,estimate,half_width,exact,abs_error"]
        for u in np.linspace(-1.0, 1.0, 21):
            est = empirical_cgf_estimate(data, u)
            half = estimation_certificate(data, u, 3.0).half_width
            exact = 0.5 * sigma * sigma * u * u
            lines.append(",".join(f"{v:.12g}" for v in (u, est, half, exact, abs(est - exact))))
        assert out == "\n".join(lines) + "\n"

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

    def test_default_model_is_gauss1(self, capsys):
        # the shared default gauss2 was always rejected here
        code, out, err = run_cli(capsys, "estimate-cgf", "--seed", "2")
        assert code == 0, err
        assert run_cli(capsys, "estimate-cgf", "--model", "gauss1", "--seed", "2") == (0, out, "")

    def test_minimum_replicates(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate-cgf", "--model", "gauss1", "--seed", "1", "--trials", "1"
        )
        assert code == 2
        assert "at least 2" in err


class TestOptionLayering:
    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.2}))
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg), "--delta", "0.05")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == 0.05

    def test_environment_is_not_read(self, capsys, monkeypatch):
        # a STOCKBOUND_<NAME> variable once supplied any option
        monkeypatch.setenv("STOCKBOUND_DELTA", "0.2")
        code, out, _ = run_cli(capsys, "validate", "--seed", "1", "--trials", "20000")
        assert code == 0
        assert "delta: 0.05\n" in out

    def test_config_supplies_missing_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.07, "L": 5}))
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == 0.07

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "could not read config file" in err

    def test_misspelled_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.05, "trails": 5}))
        code, out, err = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "unknown config key 'trails'" in err

    def test_config_may_hold_keys_of_other_commands(self, capsys, tmp_path):
        # one file serves every command: compute leaves seed and ss to others
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.05, "seed": 3, "ss": 1.0}))
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg))
        assert code == 0
        assert out == run_cli(capsys, "compute", "--delta", "0.05")[1]

    def test_unknown_model_key_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"type": "weibull", "shape": 2, "scale": 1, "mean": 3}}))
        code, out, err = run_cli(capsys, "estimate-cgf", "--config", str(cfg), "--seed", "1")
        assert code == 2 and out == ""
        assert "weibull config has unknown key 'mean'" in err

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"type": "bogus"}, "unknown model type 'bogus'"),
            ({"type": "weibull", "shape": 2, "scale": 1, "mean": 3}, "weibull config has unknown key 'mean'"),
            ({"type": "gaussian", "mu": [0.0]}, "gaussian config is missing 'sigma'"),
            ({"type": "empirical", "skip_header": True}, "empirical config is missing 'path'"),
            ({"mu": [0.0]}, "model config must be a mapping with a 'type' key"),
        ],
    )
    def test_model_config_is_checked_when_read(self, capsys, tmp_path, model, message):
        # figest builds no model; the mapping was once checked only by
        # commands that did, so figest ran and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        code, out, err = run_cli(capsys, "figure", "figest", "--config", str(cfg), "--seed", "1")
        assert code == 2 and out == ""
        assert message in err

    def test_model_config_check_reads_no_demand_file(self, monkeypatch, tmp_path):
        # an empirical model's file is loaded only when a command builds it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"type": "empirical", "path": "absent.csv"}, "seed": 1}))
        monkeypatch.setattr("stockbound.cli.cmd_figest", lambda opts: 0)
        assert main(["figure", "figest", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "config, message",
        [
            # each config value is read as its flag's text would be
            ({"seed": 1.7, "trials": 20000.9}, "config key 'seed' is not a valid int"),
            ({"trials": 20000.9}, "config key 'trials' is not a valid int"),
            ({"seed": True}, "config key 'seed' is not a valid int"),
            ({"delta": {"a": 1}}, "config key 'delta' is not a valid float"),
            ({"rho": [0.5]}, "config key 'rho' is not a valid float"),
            ({"out": None}, "config key 'out' is not a valid str"),
            ({"config": "other.json"}, "unknown config key 'config'"),
        ],
        ids=["float-seed", "float-trials", "bool-seed", "mapping-delta", "list-rho", "null-out",
             "config-key"],
    )
    def test_config_value_must_parse_as_its_flag(self, capsys, monkeypatch, tmp_path, config, message):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg), "--seed", "1", "--trials", "20000")
        assert code == 2 and out == ""
        assert message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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
