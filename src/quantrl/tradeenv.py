"""Episodic weekly trading environment over market data.

CSV schema (one row per week, ISO-8601 dates, `.` decimal separator):

    date,close,vix,fedfunds,dgs2,dgs10,hy_spread[,forecast]

The convention for building weekly rows from daily sources is "last
observation of each ISO week". Macro series publish at different cadences,
so gaps are forward-filled on ingestion and leading unfillable rows are
dropped.

The MDP: actions {0 hold, 1 buy, 2 sell} on a one-unit index position.
Selling a position opened at p_buy when the close is p yields reward
p - p_buy - c * p (c = trade cost rate); every other step pays 0. The
portfolio value is balance plus unrealized profit while long. Episodes
run the full series; a position still open on the last row is force-
liquidated at the final close with the same sell formula, which keeps the
accounting identity (final balance - initial cash = sum of sell rewards)
exact.

Observations are z-scored features (stats from a training prefix only,
so nothing leaks backward from later rows), optionally extended with the
attached forecast and with [position flag, unrealized P&L fraction].
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import POSITIVE, IngestionError, check_fields

FEATURE_COLUMNS = ("close", "vix", "fedfunds", "dgs2", "dgs10", "hy_spread")
MARKET_COLUMNS = ("date", *FEATURE_COLUMNS)

HOLD, BUY, SELL = 0, 1, 2
ACTION_NAMES = {HOLD: "hold", BUY: "buy", SELL: "sell"}
FLAT, LONG = 0, 1


@dataclass
class MarketSeries:
    """Ordered weekly rows: raw features plus (after `zscore`) normalized ones."""

    dates: tuple
    features: np.ndarray                      # [n, 6] raw values
    forecast: np.ndarray | None = None        # [n] raw next-week return forecast (%)
    normalized: np.ndarray | None = None      # [n, 6] z-scored features
    normalized_forecast: np.ndarray | None = None
    n_train: int | None = None                # rows whose stats were used for z-scoring

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if len(self.dates) != self.features.shape[0]:
            raise ValueError("dates and features must have matching length")
        if self.features.ndim != 2 or self.features.shape[1] != len(FEATURE_COLUMNS):
            raise ValueError(f"features must be [n, {len(FEATURE_COLUMNS)}]")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def close(self) -> np.ndarray:
        return self.features[:, 0]

    @property
    def is_normalized(self) -> bool:
        return self.normalized is not None


def parse_float(text: str, column: str, where: str) -> float:
    """A number cell as every table is read: a finite float, or an
    IngestionError naming ``where`` (the file and row) and the column."""
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(
            f"{where}: cannot parse {column}={text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(f"{where}: {column}={text!r} is not finite")
    return value


def write_table(path, header, rows, stamp: str | None = None) -> None:
    """A CSV file: an optional ``# stamp`` comment line, the header, the
    rows; every line ends in ``\n``."""
    with open(path, "w", newline="") as fh:
        if stamp:
            fh.write(f"# {stamp}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, columns) -> tuple[list[str], list[tuple[int, dict]]]:
    """The header and the (file line number, record dict) pairs of a CSV
    file, past any ``#`` comment lines above its header. A file that cannot
    be opened, is not UTF-8 text, has no header or lacks any of ``columns``
    is an IngestionError naming it."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot open: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not a text file: {exc}") from exc
    skipped = next((i for i, line in enumerate(lines) if not line.startswith("#")),
                   len(lines))
    reader = csv.DictReader(lines[skipped:])
    if reader.fieldnames is None:
        raise IngestionError(f"{path}: empty file, expected a header row")
    missing = [c for c in columns if c not in reader.fieldnames]
    if missing:
        raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")
    return reader.fieldnames, [(skipped + reader.line_num, record) for record in reader]


def load_market_csv(path) -> MarketSeries:
    """Read the weekly schema, sort by date, forward-fill gaps.

    Raises IngestionError naming the file (and the offending row's line)
    on any ``read_table`` error, unparseable content, a non-finite number,
    duplicate dates, a nonpositive close or an empty result.
    """
    return parse_market_table(path, *read_table(path, MARKET_COLUMNS))


def parse_date(text: str) -> dt.date:
    """A market CSV's date cell as ingest reads it: extended
    (``2022-01-07``) or basic (``20220107``) ISO 8601, blanks stripped."""
    return dt.date.fromisoformat(text.strip())


def parse_market_table(path, header, records) -> MarketSeries:
    """The series of a market CSV's header and records as ``read_table``
    returned them for ``MARKET_COLUMNS``: ``load_market_csv`` after the
    read, for a caller that keeps the records. ``path`` names the file in
    errors."""
    has_forecast = "forecast" in header

    rows = []
    for line, raw in records:
        where = f"{path}: row {line}"
        text = raw.get("date") or ""
        try:
            date = parse_date(text)
        except ValueError:
            raise IngestionError(
                f"{where}: cannot parse date {text!r} as ISO-8601"
            ) from None
        values = []
        for column in FEATURE_COLUMNS:
            cell = (raw.get(column) or "").strip()
            values.append(
                parse_float(cell, column, where) if cell else None
            )
        fc = None
        if has_forecast:
            cell = (raw.get("forecast") or "").strip()
            fc = parse_float(cell, "forecast", where) if cell else 0.0
        rows.append((date, values, fc, line))

    if not rows:
        raise IngestionError(f"{path}: no data rows")

    rows.sort(key=lambda r: r[0])
    for (d1, _, _, n1), (d2, _, _, n2) in zip(rows, rows[1:]):
        if d1 == d2:
            raise IngestionError(f"{path}: duplicate date {d1} (rows {n1} and {n2})")

    # forward-fill feature gaps; rows before the first complete set are dropped
    filled = []
    last = [None] * len(FEATURE_COLUMNS)
    for date, values, fc, _ in rows:
        merged = [v if v is not None else last[i] for i, v in enumerate(values)]
        last = merged
        if any(v is None for v in merged):
            continue
        filled.append((date, merged, fc))
    if not filled:
        raise IngestionError(f"{path}: every row has unfillable gaps")

    dates = tuple(r[0] for r in filled)
    features = np.array([r[1] for r in filled], dtype=np.float64)
    if np.any(features[:, 0] <= 0):
        bad = int(np.argmax(features[:, 0] <= 0))
        raise IngestionError(f"{path}: nonpositive close at {dates[bad]}")
    forecast = (
        np.array([r[2] for r in filled], dtype=np.float64) if has_forecast else None
    )
    return MarketSeries(dates=dates, features=features, forecast=forecast)


class ConstantColumnWarning(UserWarning):
    """A column is constant over the training prefix and z-scores to zeros."""


def _zscore_columns(values: np.ndarray, n_train: int, what: str):
    mean = values[:n_train].mean(axis=0)
    std = values[:n_train].std(axis=0)  # population std
    out = np.zeros_like(values)
    for j in range(values.shape[1]):
        # rounding noise can make a constant column's std ~1e-16, not 0
        if std[j] <= 1e-12 * max(1.0, abs(mean[j])):
            warnings.warn(
                f"{what} column {j} is constant over the training prefix; "
                "normalizing to zeros",
                ConstantColumnWarning,
            )
        else:
            out[:, j] = (values[:, j] - mean[j]) / std[j]
    return out


def zscore(series: MarketSeries, train_fraction: float = 1.0) -> MarketSeries:
    """Z-score every feature with mean/population-std from the first
    ceil(train_fraction * n) rows. Constant columns map to zeros with a
    warning."""
    if not 0 < train_fraction <= 1:
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    n_train = max(1, math.ceil(train_fraction * len(series)))
    normalized = _zscore_columns(series.features, n_train, "feature")
    out = replace(series, normalized=normalized, n_train=n_train)
    return out if series.forecast is None else attach_forecast(out, series.forecast)


def attach_forecast(series: MarketSeries, forecasts) -> MarketSeries:
    """Attach a next-week return forecast aligned row-by-row.

    forecasts[t] must be the prediction of week t+1's return made from
    rows <= t only (rows before the forecaster's first valid window carry
    0). On a normalized series the forecast is z-scored with the same
    training-prefix convention.
    """
    fc = np.asarray(forecasts, dtype=np.float64)
    if fc.shape != (len(series),):
        raise ValueError(
            f"forecast vector must have length {len(series)}, got {fc.shape}"
        )
    out = replace(series, forecast=fc.copy())
    if series.is_normalized:
        nf = _zscore_columns(fc[:, None], series.n_train, "forecast")
        out.normalized_forecast = nf[:, 0]
    return out


@dataclass
class EnvConfig:
    trade_cost_rate: float = 0.001
    initial_cash: float = 10_000.0
    include_position_in_state: bool = True

    RULES = {"trade_cost_rate": ((lambda v: 0 <= v < 1), "in [0, 1)"), "initial_cash": POSITIVE}

    def __post_init__(self):
        check_fields(self.RULES, vars(self))


@dataclass
class EnvState:
    """realized_pnl accumulates sell rewards in execution order, so the
    accounting identity (balance - initial cash == sum of sell rewards)
    holds bit-exactly; balance is derived from it."""

    initial_cash: float
    t: int = 0
    position: int = FLAT
    buy_price: float | None = None
    realized_pnl: float = 0.0
    done: bool = False

    @property
    def balance(self) -> float:
        return self.initial_cash + self.realized_pnl


class TradingEnv:
    """Gym-style episodic MDP over an immutable, z-scored MarketSeries.

    Inapplicable trade actions (buy while long, sell while flat) execute
    as hold. Workers must each own their env instance; the underlying
    series is read-only and may be shared.
    """

    def __init__(self, series: MarketSeries, config: EnvConfig | None = None):
        if len(series) == 0:
            raise ValueError("cannot trade an empty series")
        if not series.is_normalized:
            raise ValueError("series must be z-scored before trading (call zscore)")
        self.series = series
        self.config = config or EnvConfig()
        # one observation row per week; the [position, pnl] tail is zero
        # (flat) here and written by held_observations while long
        cols = [series.normalized]
        if series.normalized_forecast is not None:
            cols.append(series.normalized_forecast[:, None])
        self._with_tail = self.config.include_position_in_state
        if self._with_tail:
            cols.append(np.zeros((len(series), 2)))
        self._obs_rows = np.hstack(cols)
        self._state = EnvState(initial_cash=self.config.initial_cash)
        # a step's prices, rewards and asset value are Python floats: the
        # same IEEE arithmetic as numpy scalars, without their overhead
        self._close = series.close.tolist()
        self._last = len(series) - 1

    def __len__(self) -> int:
        return len(self.series)

    @property
    def observation_dim(self) -> int:
        return self._obs_rows.shape[1]

    @property
    def state(self) -> EnvState:
        return self._state

    def held_observations(self, limit: int) -> np.ndarray:
        """The observation that ``reset`` or the last ``step`` returned and
        the ones that each next ``step`` returns while the agent holds, up to
        ``limit`` rows (fewer at the series end), as one fresh [rows,
        observation_dim] array. This is the one observation rule: ``reset``
        and ``step`` return its first row."""
        # a fresh array: a worker keeps the observations it is given
        s = self._state
        rows = self._obs_rows[s.t:s.t + limit].copy()
        if s.position == LONG and self._with_tail:
            rows[:, -2] = 1.0
            # on Python floats, the same IEEE arithmetic as numpy's and
            # cheaper for the one row that reset and step ask for
            rows[:, -1] = [(c - s.buy_price) / s.buy_price
                           for c in self._close[s.t:s.t + limit]]
        return rows

    def reset(self) -> np.ndarray:
        self._state = EnvState(initial_cash=self.config.initial_cash)
        return self.held_observations(1)[0]

    def _close_position(self, price: float) -> float:
        """Sell the open position at ``price``; returns its realized pnl,
        net of the trade cost."""
        s, cost = self._state, self.config.trade_cost_rate
        pnl = price - s.buy_price - cost * price
        s.realized_pnl += pnl
        s.position = FLAT
        s.buy_price = None
        return pnl

    def step(self, action: int):
        """Returns (observation, reward, done, info)."""
        s = self._state
        if s.done:
            raise ValueError("step called after the episode ended; call reset")
        if action not in (HOLD, BUY, SELL):
            raise ValueError(f"action must be 0, 1 or 2, got {action}")

        t = s.t
        price = self._close[t]
        reward = 0.0
        executed = HOLD

        if action == BUY and s.position == FLAT:
            s.position = LONG
            s.buy_price = price
            executed = BUY
        elif action == SELL and s.position == LONG:
            reward = self._close_position(price)
            executed = SELL

        position_after_action = s.position
        done = t == self._last
        liquidated = done and s.position == LONG
        if liquidated:
            reward += self._close_position(price)

        asset = s.balance + (price - s.buy_price if s.position == LONG else 0.0)
        info = {
            "asset_value": asset,
            "executed_action": executed,
            "position": position_after_action,
            "price": price,
            "date": self.series.dates[t],
            "liquidated": liquidated,
        }
        s.done = done
        s.t = min(t + 1, self._last)
        return self.held_observations(1)[0], reward, done, info
