"""The public API: every exported name resolves and comes from a submodule."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stockbound

SUBMODULES = [
    importlib.import_module(f"stockbound.{info.name}")
    for info in sorted(pkgutil.iter_modules(stockbound.__path__), key=lambda info: info.name)
    if not info.name.startswith("_")
]


def test_submodules_are_found():
    names = {module.__name__ for module in SUBMODULES}
    assert {"stockbound.cgf", "stockbound.demand", "stockbound.rates"} <= names


@pytest.mark.parametrize("module", [stockbound, *SUBMODULES], ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_come_from_the_submodules():
    exported = {}
    for module in SUBMODULES:
        for name in module.__all__:
            exported.setdefault(name, []).append(getattr(module, name))
    stray = [
        name
        for name in stockbound.__all__
        if name != "__version__"
        and not any(getattr(stockbound, name) is obj for obj in exported.get(name, []))
    ]
    assert stray == []


@pytest.mark.parametrize(
    "module, name",
    [("rates", "rate_gaussian_closed"), ("demand", "sample_correlated"), ("events", "event_mask")],
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(stockbound, name)
    assert name not in stockbound.__all__
    assert not hasattr(importlib.import_module(f"stockbound.{module}"), name)


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports this package."""
    env = dict(os.environ)
    root = str(Path(stockbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_does_not_import_scipy():
    # H and its inverse come from the standard library, the exact tails from
    # the package's own quadrature and the scalar root from its own Brent
    # step; only Monte Carlo needs scipy, and loads it when it runs
    code = "import sys, stockbound; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert run_fresh(code) == "[]"


def test_monte_carlo_loads_scipy_special():
    # Monte Carlo imports ndtri when it runs, and counts the same hits in a
    # fresh interpreter as in this one
    model = stockbound.GaussianModel.bivariate(1.0, 2.0, 0.5)
    hits = stockbound.joint_tail_monte_carlo(model, [0.5, 1.0], 3, 10_000, 5).hits
    code = (
        "import sys\n"
        "from stockbound import GaussianModel, joint_tail_monte_carlo\n"
        "model = GaussianModel.bivariate(1.0, 2.0, 0.5)\n"
        "hits = joint_tail_monte_carlo(model, [0.5, 1.0], 3, 10_000, 5).hits\n"
        "print('scipy.special' in sys.modules, hits)"
    )
    assert run_fresh(code) == f"True {hits}"


def test_readme_library_example_runs(capsys):
    # the README's Library block, run as written: its comments say the
    # proposed stock meets delta = 0.05 and the independence split misses it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    row = namespace["row"]
    assert row.p_pro <= 0.05 < row.p_pre
    assert capsys.readouterr().out == f"{row.ss_pro} {row.p_pro}\n{row.ss_pre} {row.p_pre}\n"
