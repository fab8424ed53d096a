"""Benchmark-owned inputs: the workload CSVs and the profit oracle.

The series are generated here from the workload seed, not with
``quantrl.synthetic``, so no change to the program can alter what a
workload feeds it. The program only ever sees the CSV path.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

COLUMNS = ("date", "close", "vix", "fedfunds", "dgs2", "dgs10", "hy_spread")
MACRO_LEVELS = (20.0, 4.5, 4.0, 3.8, 3.5)
START = dt.date(2022, 1, 7)  # a Friday; rows step one week


def sawtooth_closes(seed: int, n: int = 120, period: int = 8,
                    amplitude: float = 0.10) -> np.ndarray:
    """c06's sawtooth (ramp of ``amplitude`` over ``period`` weeks, then
    reset), started at a seed-chosen phase of the period."""
    t = np.arange(n) + seed % period
    return _as_written(100.0 * (1.0 + amplitude * ((t % period) / period)))


def ar1_closes(seed: int, n: int = 520, phi: float = 0.3,
               sigma: float = 0.02) -> np.ndarray:
    """Closes whose weekly log-returns follow r_t = phi r_{t-1} + N(0, sigma)."""
    eps = np.random.default_rng([seed, 1]).normal(0.0, sigma, n - 1)
    log_returns = np.empty(n - 1)
    prev = 0.0
    for i, e in enumerate(eps):
        prev = phi * prev + e
        log_returns[i] = prev
    return _as_written(
        100.0 * np.exp(np.concatenate([[0.0], np.cumsum(log_returns)])))


def _as_written(values: np.ndarray) -> np.ndarray:
    """Round to the CSV's 8 decimals, so the oracle sees what the program reads."""
    return np.array([float(f"{v:.8f}") for v in values])


def write_csv(path, closes: np.ndarray, macro_noise_seed: int | None) -> None:
    """Weekly schema CSV; macro columns are constant (as in c06) unless a
    noise seed is given, then each is its level times (1 + 5% N(0, 1))."""
    n = len(closes)
    rng = None if macro_noise_seed is None else np.random.default_rng(
        [macro_noise_seed, 2])
    macro = [
        np.full(n, level) if rng is None
        else level * (1.0 + 0.05 * rng.normal(size=n))
        for level in MACRO_LEVELS
    ]
    rows = np.column_stack([closes, *macro])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for i, row in enumerate(rows):
            date = START + dt.timedelta(weeks=i)
            fh.write(date.isoformat() + "," + ",".join(f"{v:.8f}" for v in row) + "\n")


def optimal_profit(closes, cost: float = 0.001) -> float:
    """Best undiscounted episode profit with one-unit positions and forced
    terminal liquidation, by dynamic programming over (flat, long)."""
    best_flat = 0.0
    best_long = closes[-1] * (1 - cost)
    for price in closes[::-1]:
        best_flat, best_long = (
            max(best_flat, best_long - price),
            max(best_long, best_flat + price * (1 - cost)),
        )
    return best_flat
