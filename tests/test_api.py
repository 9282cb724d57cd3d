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


def test_package_does_not_import_scipy_integrate():
    # the exact tails use their own quadrature, and scipy.integrate costs
    # the import about 55 ms
    env = dict(os.environ)
    root = str(Path(stockbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = "import sys, stockbound; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
