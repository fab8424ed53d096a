"""Seeded synthetic weekly market data in the trading CSV schema.

Kinds:
    sawtooth     close ramps amplitude*base over one period, then resets
    trend        close = base * (1 + slope * t)
    white-noise  log-returns i.i.d. Normal(mu, sigma)
    ar1          log-returns follow r_t = phi * r_{t-1} + Normal(0, sigma)

Deterministic kinds (sawtooth, trend) carry constant macro columns; the
noisy kinds add seeded noise around realistic levels. Same spec, same
seed -> byte-identical file.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import SEED, ConfigError, between, check_fields, one_of
from .tradeenv import FEATURE_COLUMNS, write_table

KINDS = ("sawtooth", "trend", "white-noise", "ar1")

MACRO_LEVELS = {"vix": 20.0, "fedfunds": 4.5, "dgs2": 4.0, "dgs10": 3.8,
                "hy_spread": 3.5}

START_DATE = dt.date(2022, 1, 7)  # a Friday; rows step one week


@dataclass
class SyntheticSpec:
    kind: str
    length: int
    seed: int = 0
    base: float = 100.0
    period: int = 8          # sawtooth
    amplitude: float = 0.10  # sawtooth ramp as a fraction of base
    slope: float = 0.01      # trend growth per week
    sigma: float = 0.02      # log-return scale for noisy kinds
    mu: float = 0.0          # white-noise drift
    phi: float = 0.9         # ar1 coefficient

    RULES = {
        "kind": one_of(KINDS),
        "length": between(10, 100_000),  # week 100000 from 2022 is in 3938, a valid date
        "seed": SEED,
        "phi": ((lambda v: -1 < v < 1), "in (-1, 1)"),
        "sigma": between(0),
    }

    def __post_init__(self):
        check_fields(self.RULES, vars(self))
        if self.kind == "sawtooth" and self.period < 2:
            raise ConfigError("sawtooth period must be >= 2")
        # ingest rejects a close that is written as 0 with 8 decimals or is
        # not finite; an overflow shows up as inf and is reported here
        with np.errstate(all="ignore"):
            closes = synthetic_closes(self)
        valid = np.isfinite(closes) & (closes >= 1e-8)
        if not valid.all():
            bad = int(np.argmin(valid))
            raise ConfigError(f"{self.kind} spec gives close {closes[bad]} at row "
                              f"{bad}; closes must be finite and at least 1e-8")


def synthetic_closes(spec: SyntheticSpec) -> np.ndarray:
    t = np.arange(spec.length)
    if spec.kind == "sawtooth":
        return spec.base * (1.0 + spec.amplitude * ((t % spec.period) / spec.period))
    if spec.kind == "trend":
        return spec.base * (1.0 + spec.slope * t)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "white-noise":
        log_returns = rng.normal(spec.mu, spec.sigma, spec.length - 1)
    else:  # ar1
        eps = rng.normal(0.0, spec.sigma, spec.length - 1)
        log_returns = np.empty(spec.length - 1)
        prev = 0.0
        for i in range(spec.length - 1):
            prev = spec.phi * prev + eps[i]
            log_returns[i] = prev
    return spec.base * np.exp(np.concatenate([[0.0], np.cumsum(log_returns)]))


def synthetic_series_rows(spec: SyntheticSpec):
    """(dates, feature matrix) for the schema's six columns."""
    closes = synthetic_closes(spec)
    n = spec.length
    dates = [START_DATE + dt.timedelta(weeks=i) for i in range(n)]
    noisy = spec.kind in ("white-noise", "ar1")
    macro_rng = np.random.default_rng(spec.seed + 1)
    columns = [closes]
    for name in FEATURE_COLUMNS[1:]:
        level = MACRO_LEVELS[name]
        if noisy:
            columns.append(level * (1.0 + 0.05 * macro_rng.normal(size=n)))
        else:
            columns.append(np.full(n, level))
    return dates, np.column_stack(columns)


def generate_synthetic(spec: SyntheticSpec, path) -> None:
    """Write the synthetic series as a schema CSV."""
    dates, features = synthetic_series_rows(spec)
    write_table(path, ["date", *FEATURE_COLUMNS], (
        [date.isoformat()] + [f"{v:.8f}" for v in row]
        for date, row in zip(dates, features)))
