"""Metric battery vs the independent brute-force oracle."""

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from metric_oracle import oracle_ratio_metrics, oracle_summary
from quantrl.errors import DataError
from quantrl.metrics import (
    EquityCurve,
    Trade,
    max_drawdown,
    periodic_returns,
    ratio_metrics,
    report_csv,
    report_table,
    summary_metrics,
)

START = dt.date(2022, 1, 7)


def weekly_curve(values, start=START):
    dates = tuple(start + dt.timedelta(weeks=i) for i in range(len(values)))
    return EquityCurve(dates=dates, values=np.asarray(values, dtype=float))


def random_run(seed, n=120):
    rng = np.random.default_rng(seed)
    values = 10_000.0 * np.exp(np.cumsum(rng.normal(0.001, 0.02, n)))
    dates = tuple(START + dt.timedelta(weeks=i) for i in range(n))
    n_trades = int(rng.integers(0, 6))
    trades = []
    for k in range(n_trades):
        i = int(rng.integers(0, n - 2))
        j = int(rng.integers(i + 1, n))
        trades.append(
            Trade(dates[i], float(values[i]), dates[j], float(values[j]),
                  float(values[j] - values[i]))
        )
    flags = rng.integers(0, 2, n)
    return EquityCurve(dates, values), trades, flags


def assert_matches(got: float, want: float, tol=1e-9):
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == pytest.approx(want, abs=tol, rel=tol)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def test_periodic_returns_arithmetic():
    assert periodic_returns([100.0, 110.0]) == pytest.approx([0.10])
    assert np.allclose(periodic_returns([100.0, 110.0, 99.0]), [0.10, -0.10])


def test_periodic_returns_constant_curve():
    assert np.all(periodic_returns([5.0, 5.0, 5.0]) == 0.0)


def test_periodic_returns_nonpositive_rejected():
    with pytest.raises(DataError):
        periodic_returns([100.0, -1.0])
    with pytest.raises(DataError):
        EquityCurve((START,), np.array([0.0]))


def test_max_drawdown_depth_worked_example():
    depth, _ = max_drawdown(weekly_curve([100.0, 110.0, 99.0, 120.0]))
    assert depth == pytest.approx(-0.10)


def test_max_drawdown_monotone_curve():
    depth, days = max_drawdown(weekly_curve([100.0, 101.0, 102.0]))
    assert depth == 0.0
    assert days == 0


def test_drawdown_duration_recovered():
    # peak at week 1, recovered at week 4 -> 21 calendar days
    _, days = max_drawdown(weekly_curve([100.0, 110.0, 105.0, 108.0, 110.0, 120.0]))
    assert days == 21


def test_drawdown_duration_open_at_end():
    # peak at week 0, never recovered over 12 further weekly rows
    values = [100.0] + [90.0 + i * 0.1 for i in range(12)]
    _, days = max_drawdown(weekly_curve(values))
    assert days == 12 * 7


# ---------------------------------------------------------------------------
# ratio metrics
# ---------------------------------------------------------------------------

def test_ratio_metrics_worked_example_vs_oracle():
    r = [0.01, -0.01, 0.02]
    got, notes = ratio_metrics(r)
    want = oracle_ratio_metrics(r)
    assert not notes
    for name, w in want.items():
        assert_matches(got[name], w)


def test_all_positive_returns_flagged():
    got, notes = ratio_metrics([0.01, 0.02, 0.03])
    for name in ("gain_pain", "profit_factor", "omega", "sortino", "payoff_ratio"):
        assert math.isnan(got[name])
        assert name in notes
    assert not math.isnan(got["sharpe"])


def test_smart_sharpe_near_sharpe_for_white_noise():
    rng = np.random.default_rng(314)
    r = rng.normal(0.002, 0.02, 2000)
    got, _ = ratio_metrics(r)
    assert abs(got["smart_sharpe"] - got["sharpe"]) <= 0.05 * abs(got["sharpe"])


def test_omega_equals_profit_factor_exactly():
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = rng.normal(0, 0.02, 60)
        got, _ = ratio_metrics(r)
        assert got["omega"] == got["profit_factor"]


def test_ratio_metrics_short_input_rejected():
    with pytest.raises(ValueError):
        ratio_metrics([0.01])


# ---------------------------------------------------------------------------
# summary metrics
# ---------------------------------------------------------------------------

def test_one_year_identity():
    curve = EquityCurve(
        (dt.date(2022, 1, 1), dt.date(2023, 1, 1)),
        np.array([100.0, 121.0]),
    )
    report = summary_metrics(curve, [], [0, 1])
    assert report.cumulative_return == pytest.approx(0.21)
    assert report.cagr == pytest.approx(0.21)


def test_flat_curve_degenerates():
    curve = weekly_curve([100.0] * 10)
    report = summary_metrics(curve, [], [0] * 10)
    assert report.ulcer_index == 0.0
    assert report.win_month_pct == 0.0
    assert math.isnan(report.sharpe)
    assert math.isnan(report.calmar) and "calmar" in report.notes
    assert report.time_in_market == 0.0


def test_monotone_curve_zero_drawdown_flags():
    curve = weekly_curve(list(100.0 + np.arange(30.0)))
    report = summary_metrics(curve, [], [1] * 30)
    assert report.max_drawdown == 0.0
    assert report.longest_drawdown_days == 0
    assert report.ulcer_index == 0.0
    assert math.isnan(report.recovery_factor)
    assert math.isnan(report.serenity_index)
    assert report.time_in_market == 100.0


def nan_fields(report):
    return {f.name for f in dataclasses.fields(report)
            if isinstance(getattr(report, f.name), float)
            and math.isnan(getattr(report, f.name))}


DEGENERATE_CURVES = {
    "flat": [100.0] * 10,
    "two-points": [100.0, 101.0],
    "one-calendar-month": [100.0, 103.0, 101.0, 104.0],  # Jan 7 to Jan 28
    "rising-only": list(100.0 + np.arange(30.0)),
}


@pytest.mark.parametrize("values", DEGENERATE_CURVES.values(), ids=DEGENERATE_CURVES)
def test_every_nan_has_a_note_and_every_note_a_nan(values):
    report = summary_metrics(weekly_curve(values), [], [1] * len(values))
    assert nan_fields(report), "a degenerate curve leaves some metric undefined"
    assert set(report.notes) == nan_fields(report)
    assert all(report.notes.values())


def test_random_runs_note_exactly_their_nans():
    noted = 0
    for seed in range(60):
        curve, trades, flags = random_run(seed, n=3 + seed % 15)
        report = summary_metrics(curve, trades, flags)
        assert set(report.notes) == nan_fields(report), f"seed {seed}"
        noted += bool(report.notes)
    assert 0 < noted < 60  # some runs have undefined metrics, some none


def test_full_report_matches_oracle_on_100_seeded_curves():
    for seed in range(100):
        curve, trades, flags = random_run(seed)
        report = summary_metrics(curve, trades, flags)
        want = oracle_summary(list(curve.dates), list(curve.values), trades, flags)
        for name, w in want.items():
            got = getattr(report, name)
            if name == "longest_drawdown_days":
                assert got == w, f"seed {seed}: {name}"
            else:
                assert_matches(got, w)


def test_scale_invariance():
    curve, trades, flags = random_run(1234)
    base = summary_metrics(curve, trades, flags)
    scaled_curve = EquityCurve(curve.dates, curve.values * 7.25)
    scaled = summary_metrics(scaled_curve, trades, flags)
    for attr in (
        "time_in_market", "cumulative_return", "cagr", "sharpe", "sortino",
        "smart_sharpe", "max_drawdown", "volatility_ann", "calmar",
        "gain_pain", "profit_factor", "payoff_ratio", "tail_ratio", "omega",
        "ulcer_index", "recovery_factor", "serenity_index", "win_month_pct",
    ):
        a, b = getattr(base, attr), getattr(scaled, attr)
        assert b == pytest.approx(a, abs=1e-12, rel=1e-12), attr
    assert scaled.longest_drawdown_days == base.longest_drawdown_days


def test_flags_length_validated():
    curve = weekly_curve([100.0, 101.0])
    with pytest.raises(ValueError):
        summary_metrics(curve, [], [1])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_report_table_shape_and_failures():
    curve, trades, flags = random_run(7)
    report = summary_metrics(curve, trades, flags)
    text = report_table({"classical": report}, failures={"quantum": "boom"})
    lines = text.strip().split("\n")
    assert len(lines) == 2 + 20  # header + rule + 20 metric rows
    assert "classical" in lines[0] and "quantum" in lines[0]
    assert "failed (boom)" in text
    assert "Omega Ratio" in text

    header, rows = report_csv({"classical": report}, failures={"quantum": "boom"})
    assert header == ["metric", "classical", "quantum"]
    assert len(rows) == 20 and all(len(row) == 3 and row[2] == "failed" for row in rows)


def test_report_renders_nan_with_reason():
    curve = weekly_curve([100.0] * 10)
    report = summary_metrics(curve, [], [0] * 10)
    text = report_table({"flat": report})
    assert "n/a (zero return standard deviation)" in text
    assert "inf" not in text
