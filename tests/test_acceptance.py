"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them
on success). Long-running learning checks live here, not in the unit
modules."""

import datetime as dt
import hashlib
import itertools
import math
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from metric_oracle import oracle_summary
from test_a3c import random_reward_history
from test_qsim import dense_oracle_expectations, random_instance

from quantrl import diffnet, forecaster, qsim
from quantrl.a3c import (
    TrainConfig,
    n_step_returns,
    train,
)
from quantrl.diffnet import Dense, LstmCell, Node, Param, Tape
from quantrl.experiment import (
    DEFAULT_MATRIX,
    ExperimentConfig,
    run_experiment,
    run_matrix,
)
from quantrl.forecaster import (
    ForecastConfig,
    build_windows,
    evaluate_forecasts,
    train_forecaster,
)
from quantrl.metrics import EquityCurve, Trade, ratio_metrics, summary_metrics
from quantrl.synthetic import SyntheticSpec
from quantrl.tradeenv import EnvConfig, MarketSeries, TradingEnv, zscore


def _pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS - {message}")


def make_series(closes):
    n = len(closes)
    dates = tuple(dt.date(2022, 1, 7) + dt.timedelta(weeks=i) for i in range(n))
    feats = np.column_stack(
        [np.asarray(closes, float)]
        + [np.full(n, c) for c in (20.0, 4.5, 4.0, 3.8, 3.5)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return zscore(MarketSeries(dates=dates, features=feats))


def sawtooth_closes(n=120, period=8, amplitude=0.10):
    t = np.arange(n)
    return 100.0 * (1.0 + amplitude * ((t % period) / period))


def sawtooth_env(n=120, period=8, amplitude=0.10):
    return TradingEnv(make_series(sawtooth_closes(n, period, amplitude)),
                      EnvConfig())


def optimal_profit(closes, cost=0.001):
    """Exhaustive search over the deterministic decision graph: best
    undiscounted episodic profit with one-unit positions and forced
    terminal liquidation."""
    best_flat = 0.0                       # best profit from here when flat
    best_long = closes[-1] * (1 - cost)   # ... when long, entry already paid
    for i in range(len(closes) - 1, -1, -1):
        price = closes[i]
        best_flat, best_long = (
            max(best_flat, best_long - price),
            max(best_long, best_flat + price * (1 - cost)),
        )
    return best_flat


def brute_force_profit(closes, cost=0.001):
    """Literal enumeration of every action sequence (tiny inputs only)."""
    n = len(closes)
    best = -math.inf
    for seq in itertools.product((0, 1, 2), repeat=n):
        profit, position, buy_price = 0.0, 0, 0.0
        for i, action in enumerate(seq):
            p = closes[i]
            if action == 1 and position == 0:
                position, buy_price = 1, p
            elif action == 2 and position == 1:
                profit += p - buy_price - cost * p
                position = 0
        if position == 1:
            profit += closes[-1] - buy_price - cost * closes[-1]
        best = max(best, profit)
    return best


# ---------------------------------------------------------------------------
# 1. quantum gradient correctness
# ---------------------------------------------------------------------------

def test_c01_quantum_gradients_match_finite_differences():
    rng = np.random.default_rng(2027)
    start = time.monotonic()
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        x, params = random_instance(rng, n=4, depth=2)
        upstream = rng.uniform(-1, 1, 4)
        param_grads, input_grads = qsim.vqc_gradients_batch(
            x[None, :], params, upstream[None, :])

        def scalar(xv, angles):
            return float(upstream @ qsim.run_vqc_batch(
                xv[None, :], qsim.VqcParams(4, 2, angles))[0])

        for idx in np.ndindex(params.angles.shape):
            up, dn = params.angles.copy(), params.angles.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (scalar(x, up) - scalar(x, dn)) / (2 * h)
            worst = max(worst, abs(param_grads[idx] - fd))
        for i in range(4):
            up, dn = x.copy(), x.copy()
            up[i] += h
            dn[i] -= h
            fd = (scalar(up, params.angles) - scalar(dn, params.angles)) / (2 * h)
            worst = max(worst, abs(input_grads[0, i] - fd))
    elapsed = time.monotonic() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    _pass(1, f"adjoint gradients vs finite differences: max abs err "
             f"{worst:.2e} (< 1e-6) over 100 instances in {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. statevector integrity
# ---------------------------------------------------------------------------

def test_c02_statevector_integrity():
    rng = np.random.default_rng(11)
    # depth 84 is 84 * 12 = 1008 gates at n=4, run as one cached block
    # matrix; the smallest circuit without a block runs twice as many gates
    drift = {}
    for n in (4, qsim.BLOCK_MAX_QUBITS + 1):
        x, params = random_instance(rng, n=n, depth=84)
        y = qsim._final_states(x[None, :], params)
        drift[n] = abs(float(np.sum(y * y)) - 1.0)
    assert max(drift.values()) < 1e-12

    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(10):
            x, params = random_instance(rng, n=n, depth=2)
            got = qsim.run_vqc_batch(x[None, :], params)[0]
            want = dense_oracle_expectations(x, params)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10
    _pass(2, "norm drift after depth 84 "
             + ", ".join(f"{d:.2e} at n={n}" for n, d in drift.items())
             + f" (< 1e-12); dense-unitary oracle max err {worst:.2e} (< 1e-10) for n <= 4")


# ---------------------------------------------------------------------------
# 3. differentiable-layer correctness
# ---------------------------------------------------------------------------

def _grad_and_fd(build_on_tape, params, h=1e-5):
    diffnet.FlatStore(params).zero_grads()
    tape = Tape()
    loss = build_on_tape(tape)
    tape.backward(loss)
    grads = [p.grad.copy() for p in params]
    fds = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_on_tape(Tape()).value)
            flat[i] = orig - h
            dn = float(build_on_tape(Tape()).value)
            flat[i] = orig
            g.ravel()[i] = (up - dn) / (2 * h)
        fds.append(g)
    return grads, fds


def test_c03_differentiable_layers():
    rng = np.random.default_rng(33)

    # dense + tanh + softmax chain, absolute 1e-5
    worst_abs = 0.0
    for _ in range(10):
        layer1 = Dense(4, 3, rng)
        layer2 = Dense(3, 3, rng)
        x = rng.normal(size=(1, 4))
        action = int(rng.integers(3))

        def chain(t):
            hidden = t.tanh(t.dense(layer1, Node(x)))
            probs = t.softmax(t.dense(layer2, hidden))
            return t.sum(t.log(t.pick(probs, [action])))

        grads, fds = _grad_and_fd(chain, layer1.parameters() + layer2.parameters())
        worst_abs = max(worst_abs, max(float(np.max(np.abs(g - f)))
                                       for g, f in zip(grads, fds)))
    assert worst_abs < 1e-5

    # LSTM through time, relative 1e-4
    cell = LstmCell(3, 4, rng)
    head = Dense(4, 1, rng)
    xs = rng.normal(size=(5, 1, 3))  # five steps of a one-row batch

    def bptt(t):
        h, c = cell.initial_state(1)
        for x in xs:
            h, c = t.lstm(cell, x, (h, c))
        return t.sum(t.pick(t.dense(head, h), [0]))

    grads, fds = _grad_and_fd(bptt, cell.parameters() + head.parameters())
    worst_rel = max(
        float(np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-6)))
        for g, f in zip(grads, fds)
    )
    assert worst_rel < 1e-4

    # full hybrid head dense -> VQC -> dense, absolute 1e-5
    front = Dense(4, 3, rng)
    angles = Param(rng.uniform(-0.5, 0.5, (2, 3, 2)))
    back = Dense(3, 2, rng)
    x = rng.uniform(-1, 1, (1, 4))
    contraction = np.array([0.7, -1.2])

    def hybrid(t):
        z = t.tanh(t.dense(front, Node(x)))
        q = t.vqc(angles, qsim.VqcParams(3, 2, angles.value), z)
        return t.sum(t.scale(t.dense(back, t.tanh(q)), contraction))

    grads, fds = _grad_and_fd(hybrid, front.parameters() + [angles] + back.parameters())
    worst_hybrid = max(float(np.max(np.abs(g - f))) for g, f in zip(grads, fds))
    assert worst_hybrid < 1e-5
    _pass(3, f"gradient checks: dense/tanh/softmax abs {worst_abs:.2e} (< 1e-5), "
             f"LSTM BPTT rel {worst_rel:.2e} (< 1e-4), hybrid head abs "
             f"{worst_hybrid:.2e} (< 1e-5)")


# ---------------------------------------------------------------------------
# 4. environment accounting
# ---------------------------------------------------------------------------

def test_c04_environment_accounting_property():
    rng = np.random.default_rng(404)
    closes = list(100.0 + 10.0 * np.sin(np.arange(12)))
    env = TradingEnv(make_series(closes), EnvConfig())
    for _ in range(10_000):
        env.reset()
        sells = 0.0
        steps = 0
        done = False
        while not done:
            _, reward, done, info = env.step(int(rng.integers(3)))
            steps += 1
            if reward != 0.0:
                assert info["executed_action"] == 2 or info["liquidated"]
            if info["executed_action"] == 2 or info["liquidated"]:
                sells += reward
        assert env.state.realized_pnl == sells  # exact, no tolerance
        assert steps == len(env)
    _pass(4, "10^4 random action sequences: balance identity exact, rewards "
             "only on sells, episode length equals series length")


# ---------------------------------------------------------------------------
# 5. return recursion
# ---------------------------------------------------------------------------

def test_c05_return_recursion():
    out = n_step_returns([1.0, 0.0, 0.0], bootstrap=2.0, gamma=0.9)
    assert np.allclose(out, [2.458, 1.62, 1.8], atol=1e-12)

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(1, 25))
        rewards = rng.uniform(-10, 10, k)
        bootstrap = float(rng.uniform(-10, 10))
        gamma = float(rng.uniform(0.05, 0.99))
        got = n_step_returns(rewards, bootstrap, gamma)
        for t in range(k):
            direct = sum(gamma ** (i - t) * rewards[i] for i in range(t, k))
            direct += gamma ** (k - t) * bootstrap
            worst = max(worst, abs(got[t] - direct))
    assert worst < 1e-12
    _pass(5, f"n-step returns match the direct discounted sum within "
             f"{worst:.2e} (< 1e-12) on fuzzed inputs; worked example exact")


# ---------------------------------------------------------------------------
# 6. learning at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c06_desk_scale_learning():
    closes = sawtooth_closes()
    optimum = optimal_profit(closes)
    # cross-validate the search oracle by literal enumeration on a small case
    small = sawtooth_closes(n=8)
    assert optimal_profit(small) == pytest.approx(brute_force_profit(small), abs=1e-9)

    start = time.monotonic()
    classical = train(
        TrainConfig(max_episodes=3000, n_workers=2, seed=0, gamma=0.95,
                    learning_rate=1e-3, entropy_coeff=0.01,
                    latent_dim=8, update_every=20),
        lambda: sawtooth_env(),
    )
    classical_time = time.monotonic() - start
    classical_score = float(np.mean(classical.rewards[-100:]))
    assert classical_time < 300.0
    assert classical_score >= 0.9 * optimum

    start = time.monotonic()
    quantum = train(
        TrainConfig(max_episodes=3000, n_workers=2, seed=0, gamma=0.95,
                    learning_rate=1e-3, entropy_coeff=0.01,
                    head_kind="quantum", latent_dim=4, vqc_depth=2,
                    update_every=20),
        lambda: sawtooth_env(),
    )
    quantum_time = time.monotonic() - start
    quantum_score = float(np.mean(quantum.rewards[-100:]))
    assert quantum_time < 1200.0
    assert quantum_score >= 0.75 * optimum
    _pass(6, f"sawtooth optimum {optimum:.1f}: classical last-100 mean "
             f"{classical_score:.1f} ({classical_score / optimum:.0%} >= 90%) in "
             f"{classical_time:.0f}s (< 300s); quantum {quantum_score:.1f} "
             f"({quantum_score / optimum:.0%} >= 75%) in {quantum_time:.0f}s (< 1200s)")


# ---------------------------------------------------------------------------
# 7. random baseline flatness
# ---------------------------------------------------------------------------

def test_c07_random_baseline_flat():
    env = sawtooth_env()
    history = random_reward_history(env, episodes=3000, seed=7)
    fit = scipy.stats.linregress(np.arange(3000), history)
    assert abs(fit.slope) < 2.0 * fit.stderr
    _pass(7, f"uniform-random policy: reward slope {fit.slope:.2e} within "
             f"2 standard errors ({2 * fit.stderr:.2e}) over 3000 episodes")


# ---------------------------------------------------------------------------
# 8. forecaster
# ---------------------------------------------------------------------------

def test_c08_forecaster():
    # held-out direction on a deterministic sinusoidal-return series
    t = np.arange(160)
    returns = 2.0 * np.sin(2 * np.pi * (t + 0.5) / 12)
    closes = 100.0 * np.cumprod(1.0 + np.concatenate([[0.0], returns[1:]]) / 100.0)
    dataset = build_windows(make_series(closes), lookback=8, train_fraction=0.8)
    model = train_forecaster(dataset, ForecastConfig(epochs=300, seed=1))
    val_inputs, val_targets = dataset.validation
    ev = evaluate_forecasts(model.predict_batch(val_inputs), val_targets)
    assert ev.directional_accuracy >= 0.90

    # metric computations against hand oracles
    worked = evaluate_forecasts([1.0, 2.0], [1.0, 4.0])
    assert worked.rmse == pytest.approx(math.sqrt(2.0), abs=1e-12)
    signs = evaluate_forecasts([1.0, -1.0, 2.0], [2.0, -3.0, -1.0])
    assert signs.directional_accuracy == pytest.approx(2.0 / 3.0, abs=1e-12)
    perfect = evaluate_forecasts([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
    assert perfect.pearson == pytest.approx(1.0, abs=1e-12)
    assert perfect.directional_accuracy == 1.0
    _pass(8, f"held-out directional accuracy {ev.directional_accuracy:.2%} "
             f"(>= 90%) on the sinusoidal series; rmse/pearson/accuracy match "
             f"hand oracles")


# ---------------------------------------------------------------------------
# 9. metrics oracle equivalence
# ---------------------------------------------------------------------------

def test_c09_metrics_oracle():
    start_date = dt.date(2022, 1, 7)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 120
        values = 10_000.0 * np.exp(np.cumsum(rng.normal(0.001, 0.02, n)))
        dates = tuple(start_date + dt.timedelta(weeks=i) for i in range(n))
        trades = [
            Trade(dates[0], values[0], dates[1], values[1], 1.0)
            for _ in range(int(rng.integers(0, 4)))
        ]
        flags = rng.integers(0, 2, n)
        curve = EquityCurve(dates, values)
        report = summary_metrics(curve, trades, flags)
        want = oracle_summary(list(dates), list(values), trades, flags)
        for name, w in want.items():
            got = getattr(report, name)
            if isinstance(w, float) and math.isnan(w):
                assert math.isnan(got), f"seed {seed} {name}"
            elif name == "longest_drawdown_days":
                assert got == w, f"seed {seed} {name}"
            else:
                err = abs(got - w)
                worst = max(worst, err)
                assert err < 1e-9, f"seed {seed} {name}"
        assert report.omega == report.profit_factor  # identical by definition

    # scale invariance of every ratio metric
    rng = np.random.default_rng(1000)
    r = rng.normal(0, 0.02, 80)
    base, _ = ratio_metrics(r)
    curve_values = 100.0 * np.cumprod(1.0 + r)
    dates = tuple(start_date + dt.timedelta(weeks=i) for i in range(81))
    a = summary_metrics(EquityCurve(dates, np.concatenate([[100.0], curve_values])),
                        [], np.zeros(81))
    b = summary_metrics(
        EquityCurve(dates, 3.7 * np.concatenate([[100.0], curve_values])),
        [], np.zeros(81))
    for attr in ("sharpe", "sortino", "smart_sharpe", "cumulative_return",
                 "max_drawdown", "tail_ratio", "omega", "ulcer_index"):
        assert getattr(a, attr) == pytest.approx(getattr(b, attr),
                                                 abs=1e-12, rel=1e-12)
    _pass(9, f"19-metric battery matches the brute-force oracle within "
             f"{worst:.2e} (< 1e-9) over 100 seeded curves; omega == profit "
             f"factor; ratio metrics scale-invariant at 1e-12")


# ---------------------------------------------------------------------------
# 10. reproducibility
# ---------------------------------------------------------------------------

def c10_config(out):
    return ExperimentConfig(
        synthetic=SyntheticSpec("sawtooth", 60),
        strategy="classical",
        use_forecast=True,
        out_dir=str(out),
        seed=9,
        train=TrainConfig(max_episodes=40, n_workers=1, seed=9,
                          latent_dim=4, update_every=10),
        forecast=ForecastConfig(epochs=40, hidden=8, lookback=4),
    )


def test_c10_reproducible_artifacts(tmp_path):
    first = run_experiment(c10_config(tmp_path / "a"))
    second = run_experiment(c10_config(tmp_path / "b"))
    compared = []
    for name in ("data.csv", "training_history.csv", "evaluation.csv",
                 "metrics.csv"):
        assert first.files[name].read_bytes() == second.files[name].read_bytes()
        compared.append(name)
    _pass(10, f"single-worker fixed-seed reruns byte-identical: {compared}")


def test_c10_artifacts_are_pinned(tmp_path, monkeypatch):
    # c10 compares reruns of one build; these digests pin its files and the
    # forecast vector across changes that claim identical results
    vectors = []
    forecast_series = forecaster.forecast_series

    def capture(*args, **kwargs):
        vectors.append(forecast_series(*args, **kwargs))
        return vectors[-1]

    monkeypatch.setattr(forecaster, "forecast_series", capture)
    files = run_experiment(c10_config(tmp_path)).files
    got = {name: hashlib.sha256(files[name].read_bytes()).hexdigest()
           for name in ("data.csv", "evaluation.csv", "training_history.csv",
                        "metrics.csv")}
    got["forecast"] = hashlib.sha256(
        np.asarray(vectors[0], np.float64).tobytes()).hexdigest()
    assert len(vectors) == 1 and got == {
        "data.csv": "544c344d275076afc51305534b33f212ae97c2ed82d7343dc80394752836cda9",
        "evaluation.csv": "fa3b0e1c5bcaf9d6de2822a7369c5dace75e6547c6e7618708b9b0530d05e01a",
        "training_history.csv":
            "006c4a06a1b21b1397650b7ea4d084f8d68068858c67a8c173c930cd0963c010",
        "metrics.csv": "7210ad33c551da06a935e5d5ce3abac475628bb6bd38219ac69b1a3f32786f85",
        "forecast": "d5a0614e69a3d5736404939438247331a5eeecdfdb76da539441c09349b12b6a",
    }


# ---------------------------------------------------------------------------
# 11. end-to-end matrix
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c11_full_strategy_matrix(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(
        synthetic=SyntheticSpec("sawtooth", 120),
        strategy="classical",
        out_dir=str(tmp_path / "matrix"),
        seed=3,
        train=TrainConfig(max_episodes=400, n_workers=2, seed=3, gamma=0.95,
                          learning_rate=1e-3, entropy_coeff=0.01,
                          latent_dim=4, update_every=20),
        forecast=ForecastConfig(epochs=120, hidden=16, lookback=8),
    )
    result = run_matrix(config, DEFAULT_MATRIX)
    elapsed = time.monotonic() - start
    assert result.failures == {}
    assert sorted(result.reports) == sorted(DEFAULT_MATRIX)
    # the forecast-augmented quantum agent trades the exploitable pattern
    assert result.reports["quantum+lstm"].trade_count > 0

    table_lines = result.table_txt.read_text().strip().split("\n")
    header = table_lines[0]
    for label in DEFAULT_MATRIX:
        assert label in header
    assert len(table_lines) == 2 + 20  # header + rule + 20 metric rows
    assert elapsed < 1800.0
    _pass(11, f"five-strategy matrix completed in {elapsed:.0f}s (< 1800s) "
              f"with no failed columns; 5-column, 20-row comparison emitted")
