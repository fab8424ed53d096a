"""Train a small actor-critic agent on an exploitable pattern.

Two asynchronous workers share a global network while trading a sawtooth
market; afterwards the greedy policy is evaluated once and scored with
the full metric battery. Swap head_kind to "quantum" to route both heads
through the variational-circuit encoder (slower, same interface).
"""

import datetime as dt
import time
import warnings

import numpy as np

from quantrl.a3c import TrainConfig, evaluate_policy, train
from quantrl.metrics import EquityCurve, report_table, summary_metrics
from quantrl.tradeenv import EnvConfig, MarketSeries, TradingEnv, zscore

HEAD_KIND = "classical"   # or "quantum"


def make_env():
    n, period, amplitude = 120, 8, 0.10
    t = np.arange(n)
    closes = 100.0 * (1.0 + amplitude * ((t % period) / period))
    dates = tuple(dt.date(2022, 1, 7) + dt.timedelta(weeks=i) for i in range(n))
    features = np.column_stack(
        [closes] + [np.full(n, v) for v in (20.0, 4.5, 4.0, 3.8, 3.5)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = zscore(MarketSeries(dates=dates, features=features))
    return TradingEnv(series, EnvConfig())


config = TrainConfig(
    max_episodes=800,          # enough to trade the pattern well
    n_workers=2,
    seed=0,
    gamma=0.95,
    learning_rate=1e-3,
    entropy_coeff=0.01,
    update_every=20,
    head_kind=HEAD_KIND,
    latent_dim=8 if HEAD_KIND == "classical" else 4,
)

start = time.time()
history = train(config, make_env)
print(f"trained {len(history.rewards)} episodes in {time.time() - start:.0f}s")
print(f"mean reward: first 100 = {np.mean(history.rewards[:100]):.2f}, "
      f"last 100 = {np.mean(history.rewards[-100:]):.2f}")

env = make_env()
net = config.build_net(env.observation_dim)
net.set_flat(history.final_theta)
run = evaluate_policy(net, env)

print(f"\ngreedy evaluation: final asset {run.final_asset:.2f}, "
      f"{len(run.trades)} trades")

curve = EquityCurve(tuple(run.dates), np.asarray(run.asset_values))
report = summary_metrics(curve, run.trades, run.position_flags)
print()
print(report_table({HEAD_KIND: report}))
