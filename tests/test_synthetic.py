"""Synthetic generator tests."""

import numpy as np
import pytest

from quantrl.errors import ConfigError
from quantrl.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    synthetic_closes,
)
from quantrl.tradeenv import load_market_csv


def test_sawtooth_periodicity():
    closes = synthetic_closes(SyntheticSpec("sawtooth", 120, period=8))
    assert np.array_equal(closes[:112], closes[8:])
    assert closes[0] == 100.0
    assert closes[7] == pytest.approx(100.0 * (1 + 0.10 * 7 / 8))


def test_trend_is_linear():
    closes = synthetic_closes(SyntheticSpec("trend", 50, slope=0.02))
    diffs = np.diff(closes)
    assert np.allclose(diffs, diffs[0], atol=1e-9)


def test_white_noise_positive_and_seeded():
    a = synthetic_closes(SyntheticSpec("white-noise", 500, seed=4))
    b = synthetic_closes(SyntheticSpec("white-noise", 500, seed=4))
    c = synthetic_closes(SyntheticSpec("white-noise", 500, seed=5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0)


def test_ar1_autocorrelation_matches_phi():
    closes = synthetic_closes(SyntheticSpec("ar1", 10_000, seed=0, phi=0.9))
    r = closes[1:] / closes[:-1] - 1.0
    centered = r - r.mean()
    rho1 = np.sum(centered[:-1] * centered[1:]) / np.sum(centered * centered)
    assert 0.8 <= rho1 <= 0.95


def test_same_seed_identical_file(tmp_path):
    spec = SyntheticSpec("ar1", 60, seed=11)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_synthetic(spec, p1)
    generate_synthetic(spec, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generated_file_ingests_cleanly(tmp_path):
    path = tmp_path / "m.csv"
    generate_synthetic(SyntheticSpec("white-noise", 40, seed=2), path)
    series = load_market_csv(path)
    assert len(series) == 40
    assert series.dates[1] - series.dates[0] == __import__("datetime").timedelta(weeks=1)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec("sawtooth", 5)
    with pytest.raises(ConfigError):
        SyntheticSpec("fractal", 100)
    with pytest.raises(ConfigError):
        SyntheticSpec("ar1", 100, phi=1.5)
    with pytest.raises(ConfigError):
        SyntheticSpec("sawtooth", 100, period=1)
    # closes that ingest would reject, and a negative noise scale
    for bad in [dict(kind="trend", slope=-0.1, length=20),
                dict(kind="sawtooth", base=-100.0, length=20),
                dict(kind="sawtooth", base=float("nan"), length=20),
                dict(kind="white-noise", mu=-5.0, sigma=0.0, length=20),
                dict(kind="white-noise", sigma=1e300, length=20)]:
        with pytest.raises(ConfigError, match="closes must be finite"):
            SyntheticSpec(**bad)
    for kind in ("white-noise", "ar1"):
        with pytest.raises(ConfigError, match="sigma"):
            SyntheticSpec(kind, 20, sigma=-1.0)
