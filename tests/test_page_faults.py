"""Warm training work must not fault its memory back in.

``import quantrl`` tells glibc to keep freed memory in the process, so a
warm forecaster epoch or quantum training episode reuses the pages the
previous one freed. Each check runs in a fresh interpreter, so that the
test runner's own heap does not matter, and counts minor page faults
(``ru_minflt``) between consecutive epochs or episodes."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


pytestmark = pytest.mark.skipif(
    not _has_mallopt(), reason="no glibc mallopt: the allocator keeps its defaults")

# Marks the fault count at every call of ``owner.method`` and prints the
# counts between the last ``keep + 1`` marks.
_COUNTING = """
import resource
import sys

faults = []


def count_faults_at(owner, method):
    call = getattr(owner, method)

    def counted(*args, **kwargs):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return call(*args, **kwargs)

    setattr(owner, method, counted)


def report(keep):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    print([b - a for a, b in zip(faults, faults[1:])][-keep:])
"""

_FORECASTER_EPOCHS = _COUNTING + """
import warnings
from quantrl import diffnet, forecaster, synthetic, tradeenv

# the benchmark's forecaster sizes: 520 AR(1) rows, lookback 8, hidden 32,
# so a full batch of 410 training windows
dates, features = synthetic.synthetic_series_rows(synthetic.SyntheticSpec("ar1", 520, seed=1))
with warnings.catch_warnings():
    warnings.simplefilter("ignore", tradeenv.ConstantColumnWarning)
    series = tradeenv.zscore(tradeenv.MarketSeries(tuple(dates), features), 0.8)
dataset = forecaster.build_windows(series, 8, 0.8)
assert dataset.train[0].shape[0] == 410
count_faults_at(diffnet.AdamOptimizer, "step")  # once per epoch
forecaster.train_forecaster(dataset, forecaster.ForecastConfig(lookback=8, hidden=32, epochs=40))
# the last interval ends inside an epoch; the heap stops growing within
# the first 30 epochs
faults.pop()
report(keep=8)
"""

_QUANTUM_EPISODES = _COUNTING + """
import warnings
import numpy as np
from quantrl import a3c, synthetic, tradeenv

# c06's sawtooth and the TrainConfig default quantum head: latent 8, which
# runs the gate path above BLOCK_MAX_QUBITS
dates, features = synthetic.synthetic_series_rows(synthetic.SyntheticSpec("sawtooth", 120))
with warnings.catch_warnings():
    warnings.simplefilter("ignore", tradeenv.ConstantColumnWarning)
    series = tradeenv.zscore(tradeenv.MarketSeries(tuple(dates), features))
config = a3c.TrainConfig(head_kind="quantum", max_episodes=6, n_workers=1, seed=0,
                         gamma=0.95, learning_rate=1e-3, entropy_coeff=0.01,
                         update_every=20)
assert config.latent_dim == 8
count_faults_at(tradeenv.TradingEnv, "reset")  # once per episode
a3c.train(config, lambda: tradeenv.TradingEnv(series, tradeenv.EnvConfig()))
# the heap may grow for the first 3 episodes, depending on where its
# allocations fall, so only the last 2 of 6 count
report(keep=2)
"""


def _faults(script: str) -> list[int]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return [int(n) for n in result.stdout.strip().strip("[]").split(",")]


def test_warm_forecaster_epochs_take_no_page_faults():
    faults = _faults(_FORECASTER_EPOCHS)
    assert len(faults) == 8
    assert max(faults) < 10, faults


def test_warm_quantum_episodes_take_no_page_faults():
    faults = _faults(_QUANTUM_EPISODES)
    assert len(faults) == 2
    assert max(faults) < 10, faults
