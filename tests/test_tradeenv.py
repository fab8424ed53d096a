"""Environment tests: ingestion, normalization, reward/asset dynamics and
the accounting identity."""

import ast
import datetime as dt
import re
import statistics
from pathlib import Path

import numpy as np
import pytest

from quantrl.errors import ConfigError, IngestionError
from quantrl.tradeenv import (
    BUY,
    HOLD,
    SELL,
    EnvConfig,
    MarketSeries,
    TradingEnv,
    attach_forecast,
    load_market_csv,
    zscore,
)

HEADER = "date,close,vix,fedfunds,dgs2,dgs10,hy_spread"


def write_csv(path, rows, header=HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def series_from_closes(closes, start=dt.date(2022, 1, 7)):
    n = len(closes)
    dates = tuple(start + dt.timedelta(weeks=i) for i in range(n))
    feats = np.column_stack(
        [
            np.asarray(closes, dtype=float),
            np.full(n, 20.0),
            np.full(n, 4.5),
            np.full(n, 4.0),
            np.full(n, 3.8),
            np.full(n, 3.5),
        ]
    )
    return MarketSeries(dates=dates, features=feats)


def make_env(closes, **cfg):
    with pytest.warns(UserWarning):
        series = zscore(series_from_closes(closes), train_fraction=1.0)
    return TradingEnv(series, EnvConfig(**cfg))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_load_well_formed(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        [
            "2022-01-21,4400,21,0.1,1.0,1.8,3.1",
            "2022-01-07,4500,20,0.1,1.0,1.8,3.0",
            "2022-01-14,4450,22,0.1,1.0,1.8,3.2",
        ],
    )
    series = load_market_csv(path)
    assert len(series) == 3
    assert series.dates[0] == dt.date(2022, 1, 7)  # sorted
    assert list(series.close) == [4500.0, 4450.0, 4400.0]


def test_forward_fill_gap(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        [
            "2022-01-07,4500,20,0.10,1.0,1.8,3.0",
            "2022-01-14,4450,22,,1.1,1.9,3.2",
            "2022-01-21,4400,21,0.15,1.2,2.0,3.1",
        ],
    )
    series = load_market_csv(path)
    assert series.features[1, 2] == 0.10  # fedfunds carried forward


def test_leading_unfillable_rows_dropped(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        [
            "2022-01-07,4500,20,,1.0,1.8,3.0",
            "2022-01-14,4450,22,0.1,1.1,1.9,3.2",
        ],
    )
    series = load_market_csv(path)
    assert len(series) == 1
    assert series.dates[0] == dt.date(2022, 1, 14)


def test_duplicate_date_error_names_date(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        [
            "2022-01-07,4500,20,0.1,1.0,1.8,3.0",
            "2022-01-07,4450,22,0.1,1.1,1.9,3.2",
        ],
    )
    with pytest.raises(IngestionError, match="2022-01-07"):
        load_market_csv(path)


def test_bad_number_reports_row(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        [
            "2022-01-07,4500,20,0.1,1.0,1.8,3.0",
            "2022-01-14,oops,22,0.1,1.1,1.9,3.2",
        ],
    )
    with pytest.raises(IngestionError, match="row 3"):
        load_market_csv(path)
    # a non-finite number parses as a float but is no price, level or forecast
    for column, row in [("close", "2022-01-14,nan,22,0.1,1.1,1.9,3.2,0.0"),
                        ("vix", "2022-01-14,4510,inf,0.1,1.1,1.9,3.2,0.0"),
                        ("forecast", "2022-01-14,4510,22,0.1,1.1,1.9,3.2,-inf")]:
        path = write_csv(tmp_path / "m.csv", ["2022-01-07,4500,20,0.1,1.0,1.8,3.0,0.0", row],
                         header=HEADER + ",forecast")
        with pytest.raises(IngestionError, match=f"row 3: {column}='.*' is not finite"):
            load_market_csv(path)


def test_bad_date_reports_row(tmp_path):
    path = write_csv(tmp_path / "m.csv", ["Jan 7,4500,20,0.1,1.0,1.8,3.0"])
    with pytest.raises(IngestionError, match="row 2"):
        load_market_csv(path)


def test_empty_file_and_no_rows(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestionError):
        load_market_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text(HEADER + "\n")
    with pytest.raises(IngestionError):
        load_market_csv(header_only)


@pytest.mark.parametrize("header, rows, detail", [
    ("date,close,fedfunds,dgs2,dgs10,hy_spread", ["2022-01-07,4500,0.1,1.0,1.8,3.0"],
     "missing column(s) vix"),
    (HEADER, ["2022-01-07,4500,,0.1,1.0,1.8,3.0", "2022-01-14,4510,,0.1,1.1,1.9,3.2"],
     "every row has unfillable gaps"),
    (HEADER, ["2022-01-07,4500,20,0.1,1.0,1.8,3.0", "2022-01-14,-1,22,0.1,1.1,1.9,3.2"],
     "nonpositive close at 2022-01-14"),
], ids=["missing-column", "unfillable-gaps", "nonpositive-close"])
def test_bad_content_is_ingestion_error_naming_the_file(tmp_path, header, rows, detail):
    path = write_csv(tmp_path / "m.csv", rows, header=header)
    with pytest.raises(IngestionError, match=re.escape(f"{path}: {detail}")):
        load_market_csv(path)


def test_row_number_is_the_file_line(tmp_path):
    # comment lines above the header and blank lines count
    path = tmp_path / "m.csv"
    path.write_text(f"# source: test\n{HEADER}\n2022-01-07,4500,20,0.1,1.0,1.8,3.0\n"
                    "\n2022-01-14,oops,22,0.1,1.1,1.9,3.2\n")
    with pytest.raises(IngestionError,
                       match=re.escape(f"{path}: row 5: cannot parse close='oops'")):
        load_market_csv(path)


def test_only_tradeenv_imports_csv():
    # one CSV writer and one reader: every other module goes through them
    src = Path(__file__).resolve().parents[1] / "src" / "quantrl"
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(path.stem)
    assert importers == ["tradeenv"]


def test_binary_file_is_ingestion_error_naming_the_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(np.random.default_rng(0).bytes(200))
    with pytest.raises(IngestionError, match=re.escape(f"{path}: not a text file")):
        load_market_csv(path)


def test_forecast_column_ingested(tmp_path):
    path = write_csv(
        tmp_path / "m.csv",
        ["2022-01-07,4500,20,0.1,1.0,1.8,3.0,0.5",
         "2022-01-14,4550,20,0.1,1.0,1.8,3.0,"],
        header=HEADER + ",forecast",
    )
    series = load_market_csv(path)
    assert series.forecast is not None
    assert list(series.forecast) == [0.5, 0.0]


# ---------------------------------------------------------------------------
# z-scoring
# ---------------------------------------------------------------------------

def test_zscore_matches_statistics_oracle():
    series = series_from_closes([1.0, 2.0, 3.0])
    with pytest.warns(UserWarning):  # constant macro columns
        out = zscore(series, train_fraction=1.0)
    mu = statistics.mean([1.0, 2.0, 3.0])
    sigma = statistics.pstdev([1.0, 2.0, 3.0])
    want = [(v - mu) / sigma for v in [1.0, 2.0, 3.0]]
    assert np.allclose(out.normalized[:, 0], want, atol=1e-12)
    assert out.normalized[0, 0] == pytest.approx(-1.224744871391589, abs=1e-12)


def test_zscore_constant_feature_zeroed_with_warning():
    series = series_from_closes([5.0, 5.0, 5.0])
    with pytest.warns(UserWarning):
        out = zscore(series)
    assert np.all(out.normalized == 0.0)


def test_zscore_training_prefix_only():
    series = series_from_closes([1.0, 2.0, 3.0, 4.0])
    with pytest.warns(UserWarning):
        out = zscore(series, train_fraction=0.5)
    # stats from [1, 2]: mean 1.5, population std 0.5
    assert np.allclose(out.normalized[:, 0], [-1.0, 1.0, 3.0, 5.0], atol=1e-12)
    assert out.n_train == 2


def test_zscore_bad_fraction():
    series = series_from_closes([1.0, 2.0])
    with pytest.raises(ValueError):
        zscore(series, train_fraction=0.0)
    with pytest.raises(ValueError):
        zscore(series, train_fraction=1.5)


# ---------------------------------------------------------------------------
# reset / step
# ---------------------------------------------------------------------------

def test_reset_initial_observation():
    env = make_env([100.0, 101.0, 102.0])
    obs = env.reset()
    assert obs[-2] == 0.0  # position flag
    assert obs[-1] == 0.0  # unrealized pnl
    assert len(obs) == env.observation_dim


def test_reset_idempotent_and_after_episode():
    env = make_env([100.0, 101.0, 102.0])
    first = env.reset()
    again = env.reset()
    assert np.array_equal(first, again)
    done = False
    env.reset()
    while not done:
        _, _, done, _ = env.step(HOLD)
    assert np.array_equal(env.reset(), first)


def test_observations_are_fresh_arrays():
    env = make_env([100.0, 101.0, 102.0, 103.0])

    def episode(scribble):
        seen = []
        obs = env.reset()
        for action in (BUY, HOLD, SELL, HOLD):
            seen.append(obs.copy())
            if scribble:
                obs[:] = 99.0  # a caller writing into what it was given
            obs = env.step(action)[0]
        return seen

    first = episode(scribble=True)
    assert np.array_equal(episode(scribble=False), first)
    assert [o[-2] for o in first] == [0.0, 1.0, 1.0, 0.0]


def test_long_tail_is_position_and_unrealized_pnl():
    closes = [100.0, 104.0, 98.0, 103.0]
    env = make_env(closes)
    env.reset()
    obs, _, _, _ = env.step(BUY)  # bought at 100, now observing week 1
    for t in (1, 2):
        assert obs[-2:].tolist() == [1.0, (closes[t] - 100.0) / 100.0]
        obs, _, _, _ = env.step(HOLD)
    obs, _, _, _ = env.step(SELL)
    assert obs[-2:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("with_forecast", [False, True])
def test_observation_without_position_is_feature_row(with_forecast):
    with pytest.warns(UserWarning):
        series = zscore(series_from_closes([100.0, 104.0, 98.0]))
    cols = [series.normalized]
    if with_forecast:
        series = attach_forecast(series, [1.0, -2.0, 0.5])
        cols.append(series.normalized_forecast[:, None])
    rows = np.hstack(cols)
    env = TradingEnv(series, EnvConfig(include_position_in_state=False))
    assert env.observation_dim == rows.shape[1]
    observed = [env.reset()]
    for action in (BUY, HOLD):
        observed.append(env.step(action)[0])
    assert np.array_equal(np.array(observed), rows)


@pytest.mark.parametrize("with_tail", [True, False])
def test_steps_return_the_held_observations_bit_for_bit(with_tail):
    closes = list(100.0 + 10.0 * np.sin(np.arange(30) * 0.7))
    env = make_env(closes, include_position_in_state=with_tail)
    rng = np.random.default_rng(11)
    checked = {0: 0, 1: 0}  # the rows checked past the first, by position
    for _ in range(20):
        obs, done = env.reset(), False
        while not done:
            held = env.held_observations(6)
            assert len(held) == min(6, len(closes) - env.state.t)
            for i, row in enumerate(held):
                assert obs.tobytes() == row.tobytes()
                if i:
                    checked[info["position"]] += 1
                action = rng.choice([HOLD, BUY, SELL], p=[0.6, 0.2, 0.2]) if i == 0 else HOLD
                obs, _, done, info = env.step(int(action))
                if info["executed_action"] != HOLD or done:
                    break
    assert min(checked.values()) > 50  # flat and long rows both predicted


def test_sell_reward_worked_example():
    env = make_env([4500.0, 4800.0, 4900.0], trade_cost_rate=0.001)
    env.reset()
    _, reward, _, _ = env.step(BUY)
    assert reward == 0.0
    _, reward, _, info = env.step(SELL)
    assert reward == pytest.approx(4800 - 4500 - 4.8)
    assert info["executed_action"] == SELL


def test_hold_while_flat():
    env = make_env([100.0, 101.0, 102.0])
    env.reset()
    _, reward, _, info = env.step(HOLD)
    assert reward == 0.0
    assert info["asset_value"] == pytest.approx(10_000.0)


def test_asset_value_with_open_position():
    env = make_env([4500.0, 4800.0, 4900.0])
    env.reset()
    env.step(BUY)
    _, _, _, info = env.step(HOLD)
    assert info["asset_value"] == pytest.approx(10_000.0 + 300.0)
    assert info["position"] == 1


def test_invalid_actions_execute_as_hold():
    env = make_env([100.0, 110.0, 120.0])
    env.reset()
    _, r, _, info = env.step(SELL)  # sell while flat
    assert r == 0.0 and info["executed_action"] == HOLD
    env.step(BUY)
    _, r, _, info = env.step(BUY)  # buy while long (terminal row)
    assert info["executed_action"] == HOLD


def test_forced_liquidation_at_end():
    env = make_env([100.0, 110.0, 120.0], trade_cost_rate=0.01)
    env.reset()
    env.step(BUY)
    env.step(HOLD)
    _, reward, done, info = env.step(HOLD)
    assert done
    assert info["liquidated"]
    assert reward == pytest.approx(120 - 100 - 1.2)
    assert info["asset_value"] == pytest.approx(10_000.0 + 18.8)


def test_buy_on_last_row_pays_cost_only():
    env = make_env([100.0, 110.0], trade_cost_rate=0.001)
    env.reset()
    env.step(HOLD)
    _, reward, done, info = env.step(BUY)
    assert done and info["liquidated"]
    assert reward == pytest.approx(-0.11)


def test_step_after_done_raises():
    env = make_env([100.0, 101.0])
    env.reset()
    env.step(HOLD)
    env.step(HOLD)
    with pytest.raises(ValueError):
        env.step(HOLD)


def test_unknown_action_rejected():
    env = make_env([100.0, 101.0])
    env.reset()
    with pytest.raises(ValueError):
        env.step(7)


def test_episode_length_equals_series_length():
    for n in (1, 2, 5, 17):
        env = make_env(list(100.0 + np.arange(n)))
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done, _ = env.step(HOLD)
            steps += 1
        assert steps == n


def test_env_requires_normalized_series():
    with pytest.raises(ValueError):
        TradingEnv(series_from_closes([100.0, 101.0]))


def test_env_config_validation():
    with pytest.raises(ConfigError):
        EnvConfig(trade_cost_rate=1.0)
    with pytest.raises(ConfigError):
        EnvConfig(trade_cost_rate=-0.1)
    for cash in (0.0, -5.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="initial_cash"):
            EnvConfig(initial_cash=cash)


# ---------------------------------------------------------------------------
# forecast attachment
# ---------------------------------------------------------------------------

def test_attach_zero_forecast_adds_zero_component():
    with pytest.warns(UserWarning):
        series = zscore(series_from_closes([100.0, 101.0, 102.0]))
    with pytest.warns(UserWarning):  # constant (zero) forecast column
        augmented = attach_forecast(series, np.zeros(3))
    env = TradingEnv(augmented, EnvConfig(include_position_in_state=False))
    obs = env.reset()
    assert len(obs) == 7
    assert obs[-1] == 0.0


def test_attach_misaligned_forecast_rejected():
    with pytest.warns(UserWarning):
        series = zscore(series_from_closes([100.0, 101.0, 102.0]))
    with pytest.raises(ValueError):
        attach_forecast(series, np.zeros(4))


def test_perfect_forecast_component_is_next_week_zscored_return():
    closes = [100.0, 103.0, 99.0, 104.0, 101.0]
    with pytest.warns(UserWarning):
        series = zscore(series_from_closes(closes))
    realized = 100.0 * (np.array(closes[1:]) / np.array(closes[:-1]) - 1.0)
    perfect = np.concatenate([realized, [0.0]])  # forecast[t] = return of week t+1
    augmented = attach_forecast(series, perfect)
    mu, sd = perfect.mean(), perfect.std()
    env = TradingEnv(augmented, EnvConfig(include_position_in_state=False))
    obs = env.reset()
    assert obs[-1] == pytest.approx((perfect[0] - mu) / sd, abs=1e-12)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_accounting_identity_random_sequences():
    rng = np.random.default_rng(2024)
    closes = list(100.0 + 10.0 * np.sin(np.arange(12)))
    env = make_env(closes)
    for _ in range(500):
        obs = env.reset()
        sells = 0.0
        done = False
        while not done:
            _, reward, done, info = env.step(int(rng.integers(3)))
            if reward != 0.0:
                assert info["executed_action"] == SELL or info["liquidated"]
            if info["executed_action"] == SELL or info["liquidated"]:
                sells += reward
        # realized_pnl is balance - initial cash by construction; comparing
        # there keeps the identity bit-exact (no 10000 + x - 10000 round trip)
        assert env.state.realized_pnl == sells
        assert env.state.balance == 10_000.0 + sells


def test_always_hold_asset_path_constant():
    env = make_env([100.0, 120.0, 90.0, 130.0])
    env.reset()
    done = False
    while not done:
        _, _, done, info = env.step(HOLD)
        assert info["asset_value"] == 10_000.0


def test_observation_causality():
    closes = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0]
    altered = closes.copy()
    altered[5] = 999.0  # beyond the training prefix and beyond t
    with pytest.warns(UserWarning):
        s1 = zscore(series_from_closes(closes), train_fraction=0.5)
    with pytest.warns(UserWarning):
        s2 = zscore(series_from_closes(altered), train_fraction=0.5)
    e1, e2 = TradingEnv(s1), TradingEnv(s2)
    o1, o2 = e1.reset(), e2.reset()
    for _ in range(4):  # observations at t = 0..4 are unaffected
        assert np.array_equal(o1, o2)
        o1 = e1.step(BUY)[0]
        o2 = e2.step(BUY)[0]
