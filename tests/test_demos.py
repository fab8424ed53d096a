"""Smoke tests for the demos. The quick demos run to completion. Demos 05
and 06 train agents for tens of seconds and are run by hand, so every demo
is also parsed, without running it, to check that each quantrl name it
uses still exists."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_variational_circuit", "02_autodiff_tape",
               "03_market_environment", "04_forecasting"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_quantrl_names_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> the quantrl module it is bound to
    checked, missing = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quantrl":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                checked.append(f"{node.module}.{alias.name}")
                if not hasattr(owner, alias.name):
                    missing.append(checked[-1])
                elif inspect.ismodule(getattr(owner, alias.name)):
                    modules[alias.asname or alias.name] = getattr(owner, alias.name)
    # a second walk: attribute reads may come before their import in ast order
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            owner = modules[node.value.id]
            checked.append(f"{owner.__name__}.{node.attr}")
            if not hasattr(owner, node.attr):
                missing.append(checked[-1])
    assert checked, f"{path.name} uses no quantrl name"
    assert not missing, f"{path.name} uses names quantrl lacks: {missing}"
