"""Smoke test: the quick demos run to completion. Demos 05 and 06 train
agents for tens of seconds and are run by hand."""

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
