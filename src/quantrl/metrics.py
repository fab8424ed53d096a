"""Backtest analytics over an equity curve and trade log.

Formulas (weekly data, annualization factor P = 52, sample std unless
noted; r = periodic returns v_i / v_{i-1} - 1):

    sharpe          mean(r) / std_sample(r) * sqrt(P)
    sortino         mean(r) / sqrt(mean(min(r, 0)^2)) * sqrt(P)
    smart_sharpe    sharpe / p, p = sqrt(1 + 2 * sum_{k=1..K} (1 - k/(K+1)) rho_k)
                    with K = min(n-2, 20), rho_k the lag-k sample
                    autocorrelation, p floored at 1e-6
    volatility_ann  std_sample(r) * sqrt(P)
    gain_pain       sum(r) / |sum(min(r, 0))|
    profit_factor   sum(max(r, 0)) / |sum(min(r, 0))|   (omega is identical
                    under the threshold-0 definition)
    payoff_ratio    mean(r[r>0]) / |mean(r[r<0])|
    tail_ratio      |percentile(r, 95) / percentile(r, 5)|, linear interp
    max_drawdown    min over t of (v_t - peak_t) / peak_t (running peak)
    longest_drawdown  longest calendar-day span from a peak to the first
                    value meeting or exceeding it; an open drawdown at the
                    end counts up to the last date
    cumulative      v_end / v_0 - 1
    cagr            (v_end / v_0) ** (365 / calendar_days) - 1
    calmar          cagr / |max_drawdown|
    ulcer           sqrt(mean(dd_t^2)), dd_t = (v_t - peak_t) / peak_t
    recovery        cumulative / |max_drawdown|
    serenity        cumulative / (ulcer * pitfall), pitfall = |mean of the
                    worst ceil(5% n) returns| (at least one element)
    win_month       % of calendar months with positive month-end to
                    month-end return
    time_in_market  100 * (steps long) / steps

Undefined metrics (zero denominators and the like) are reported as NaN
with a named reason in ``MetricsReport.notes``, never as silent infinity;
``_undefined`` is the one place that sets such a NaN, always with its note.
Return- and drawdown-valued fields are fractions; the renderer multiplies
by 100 for the (%) rows. All functions are pure.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

PERIODS_PER_YEAR = 52

RATIO_METRIC_NAMES = (
    "sharpe", "sortino", "smart_sharpe", "volatility_ann", "tail_ratio",
    "payoff_ratio", "gain_pain", "profit_factor", "omega",
)


@dataclass(frozen=True)
class Trade:
    """One completed buy-sell cycle; profit is net of trade cost."""

    buy_date: dt.date
    buy_price: float
    sell_date: dt.date
    sell_price: float
    profit: float


@dataclass
class EquityCurve:
    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != self.values.size:
            raise ValueError("dates and values must have matching length")
        if self.values.size == 0:
            raise ValueError("equity curve cannot be empty")
        if np.any(self.values <= 0):
            raise DataError("equity curve values must be positive")


@dataclass
class MetricsReport:
    time_in_market: float        # percent
    cumulative_return: float     # fraction
    cagr: float                  # fraction
    sharpe: float
    sortino: float
    smart_sharpe: float
    max_drawdown: float          # fraction <= 0
    longest_drawdown_days: int
    volatility_ann: float        # fraction
    calmar: float
    gain_pain: float
    profit_factor: float
    payoff_ratio: float
    tail_ratio: float
    omega: float
    ulcer_index: float
    recovery_factor: float
    serenity_index: float
    win_month_pct: float         # percent
    trade_count: int
    notes: dict = field(default_factory=dict)


def periodic_returns(values) -> np.ndarray:
    """r_i = v_i / v_{i-1} - 1 for a positive equity curve."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError("need at least two equity values for returns")
    if np.any(v <= 0):
        raise DataError("equity values must be positive")
    return v[1:] / v[:-1] - 1.0


def max_drawdown(curve: EquityCurve) -> tuple[float, int]:
    """(depth as a fraction <= 0, longest drawdown span in calendar days)."""
    values = curve.values
    peaks = np.maximum.accumulate(values)
    depth = float(np.min((values - peaks) / peaks))

    longest = 0
    peak_date = curve.dates[0]
    peak_value = values[0]
    in_drawdown = False
    for date, value in zip(curve.dates[1:], values[1:]):
        if value >= peak_value:
            if in_drawdown:
                longest = max(longest, (date - peak_date).days)
                in_drawdown = False
            peak_value = value
            peak_date = date
        else:
            in_drawdown = True
    if in_drawdown:
        longest = max(longest, (curve.dates[-1] - peak_date).days)
    return depth, longest


def _autocorrelation(r: np.ndarray, lag: int) -> float:
    centered = r - r.mean()
    denom = float(np.sum(centered * centered))
    if denom == 0.0:
        return 0.0
    return float(np.sum(centered[:-lag] * centered[lag:]) / denom)


def _undefined(values: dict, notes: dict, reason: str, *names: str) -> None:
    """Set each of ``names`` to NaN in ``values``, with ``reason`` in ``notes``."""
    for name in names:
        values[name] = math.nan
        notes[name] = reason


def ratio_metrics(returns) -> tuple[dict, dict]:
    """The nine return-ratio metrics.

    Returns (values, notes): undefined entries carry NaN in `values` and
    the reason in `notes`.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.size < 2:
        raise ValueError("need at least two returns")
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    ann = math.sqrt(PERIODS_PER_YEAR)
    mean = float(r.mean())
    std = float(r.std(ddof=1))
    losses = np.minimum(r, 0.0)
    gains = np.maximum(r, 0.0)
    loss_total = float(abs(losses.sum()))
    downside = math.sqrt(float(np.mean(losses * losses)))

    values["volatility_ann"] = std * ann
    if std == 0.0:
        _undefined(values, notes, "zero return standard deviation",
                   "sharpe", "smart_sharpe")
    else:
        values["sharpe"] = mean / std * ann
        n = r.size
        lags = min(n - 2, 20)
        acc = sum(
            (1.0 - k / (lags + 1.0)) * _autocorrelation(r, k)
            for k in range(1, lags + 1)
        )
        penalty = max(math.sqrt(max(1.0 + 2.0 * acc, 0.0)), 1e-6)
        values["smart_sharpe"] = values["sharpe"] / penalty

    if downside == 0.0:
        _undefined(values, notes, "no negative returns", "sortino")
    else:
        values["sortino"] = mean / downside * ann

    if loss_total == 0.0:
        _undefined(values, notes, "no losing periods",
                   "gain_pain", "profit_factor", "omega")
    else:
        values["gain_pain"] = float(r.sum()) / loss_total
        values["profit_factor"] = float(gains.sum()) / loss_total
        values["omega"] = values["profit_factor"]

    wins = r[r > 0]
    loss_only = r[r < 0]
    if wins.size == 0 or loss_only.size == 0:
        _undefined(values, notes, "needs both winning and losing periods",
                   "payoff_ratio")
    else:
        values["payoff_ratio"] = float(wins.mean()) / abs(float(loss_only.mean()))

    p95 = float(np.percentile(r, 95))
    p5 = float(np.percentile(r, 5))
    if p5 == 0.0:
        _undefined(values, notes, "5th percentile is zero", "tail_ratio")
    else:
        values["tail_ratio"] = abs(p95 / p5)

    return values, notes


def summary_metrics(
    curve: EquityCurve,
    trade_log: list[Trade],
    position_flags,
) -> MetricsReport:
    """The full metric battery for one evaluation run."""
    flags = np.asarray(position_flags, dtype=np.float64)
    if flags.size != curve.values.size:
        raise ValueError("position flags must align with the equity curve")

    v = curve.values
    r = periodic_returns(v)
    if r.size >= 2:
        values, notes = ratio_metrics(r)
    else:
        values, notes = {}, {}
        _undefined(values, notes, "needs at least two returns", *RATIO_METRIC_NAMES)

    dd_depth, dd_days = max_drawdown(curve)
    cumulative = float(v[-1] / v[0] - 1.0)
    values.update(time_in_market=100.0 * float(flags.mean()),
                  cumulative_return=cumulative, max_drawdown=dd_depth,
                  longest_drawdown_days=dd_days, trade_count=len(trade_log))

    days = (curve.dates[-1] - curve.dates[0]).days
    if days <= 0:
        _undefined(values, notes, "curve spans no calendar time", "cagr")
    else:
        values["cagr"] = float((v[-1] / v[0]) ** (365.0 / days) - 1.0)

    peaks = np.maximum.accumulate(v)
    dd_series = (v - peaks) / peaks
    ulcer = values["ulcer_index"] = float(np.sqrt(np.mean(dd_series * dd_series)))

    if dd_depth == 0.0:
        _undefined(values, notes, "zero drawdown", "calmar", "recovery_factor")
    else:
        if math.isnan(values["cagr"]):
            _undefined(values, notes, "cagr undefined", "calmar")
        else:
            values["calmar"] = values["cagr"] / abs(dd_depth)
        values["recovery_factor"] = cumulative / abs(dd_depth)

    worst_count = max(1, math.ceil(0.05 * r.size))
    pitfall = abs(float(np.sort(r)[:worst_count].mean()))
    if ulcer == 0.0 or pitfall == 0.0:
        _undefined(values, notes, "zero drawdown" if ulcer == 0.0 else "zero pitfall",
                   "serenity_index")
    else:
        values["serenity_index"] = cumulative / (ulcer * pitfall)

    month_ends = []
    for date, value in zip(curve.dates, v):
        key = (date.year, date.month)
        if month_ends and month_ends[-1][0] == key:
            month_ends[-1] = (key, value)
        else:
            month_ends.append((key, value))
    if len(month_ends) >= 2:
        month_values = np.array([m for _, m in month_ends])
        month_returns = month_values[1:] / month_values[:-1] - 1.0
        values["win_month_pct"] = 100.0 * float(np.mean(month_returns > 0))
    else:
        _undefined(values, notes, "fewer than two calendar months", "win_month_pct")

    return MetricsReport(**values, notes=notes)


# -- rendering ---------------------------------------------------------------

REPORT_ROWS = (
    ("Time in Market (%)", "time_in_market", 1.0),
    ("Cumulative Return (%)", "cumulative_return", 100.0),
    ("CAGR (%)", "cagr", 100.0),
    ("Sharpe Ratio", "sharpe", 1.0),
    ("Sortino Ratio", "sortino", 1.0),
    ("Smart Sharpe", "smart_sharpe", 1.0),
    ("Max Drawdown (%)", "max_drawdown", 100.0),
    ("Longest Drawdown (days)", "longest_drawdown_days", 1.0),
    ("Volatility (Ann.) (%)", "volatility_ann", 100.0),
    ("Calmar Ratio", "calmar", 1.0),
    ("Gain/Pain Ratio", "gain_pain", 1.0),
    ("Profit Factor", "profit_factor", 1.0),
    ("Payoff Ratio", "payoff_ratio", 1.0),
    ("Tail Ratio", "tail_ratio", 1.0),
    ("Omega Ratio", "omega", 1.0),
    ("Ulcer Index", "ulcer_index", 1.0),
    ("Recovery Factor", "recovery_factor", 1.0),
    ("Serenity Index", "serenity_index", 1.0),
    ("Win Month (%)", "win_month_pct", 1.0),
    ("Trades", "trade_count", 1.0),
)


def _format_cell(report: MetricsReport, attr: str, scale: float) -> str:
    value = getattr(report, attr)
    if isinstance(value, float) and math.isnan(value):
        reason = report.notes.get(attr, "undefined")
        return f"n/a ({reason})"
    if attr in ("longest_drawdown_days", "trade_count"):
        return str(int(value))
    return f"{value * scale:.4f}"


def report_table(reports: dict[str, MetricsReport],
                 failures: dict[str, str] | None = None) -> str:
    """Aligned text table; columns are strategies, rows the metric battery."""
    failures = failures or {}
    columns = list(reports) + list(failures)
    cells = {}
    for name, report in reports.items():
        cells[name] = [_format_cell(report, attr, scale)
                       for _, attr, scale in REPORT_ROWS]
    for name, reason in failures.items():
        cells[name] = [f"failed ({reason})"] + ["-"] * (len(REPORT_ROWS) - 1)

    label_width = max(len(label) for label, _, _ in REPORT_ROWS)
    widths = [max(len(col), max(len(c) for c in cells[col])) for col in columns]

    def line(label, row):
        return label.ljust(label_width) + "  " + "  ".join(
            cell.rjust(w) for cell, w in zip(row, widths))

    header = line("Metric", columns)
    return "\n".join([header, "-" * len(header)] + [
        line(label, [cells[col][i] for col in columns])
        for i, (label, _, _) in enumerate(REPORT_ROWS)]) + "\n"


def report_csv(reports: dict[str, MetricsReport],
               failures: dict[str, str] | None = None) -> tuple[list, list]:
    """(header, rows) of the table's CSV mirror (raw, unscaled values)."""
    failures = failures or {}
    columns = list(reports) + list(failures)
    rows = []
    for _, attr, _ in REPORT_ROWS:
        row = [attr]
        for col in columns:
            if col in failures:
                row.append("failed")
            else:
                value = getattr(reports[col], attr)
                row.append(
                    "nan" if isinstance(value, float) and math.isnan(value)
                    else f"{value:.12g}"
                )
        rows.append(row)
    return ["metric", *columns], rows
