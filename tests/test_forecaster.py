"""Forecaster tests on constructed synthetic series."""

import datetime as dt
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from quantrl import diffnet
from quantrl.errors import ConfigError, EvaluationError, TrainingError
from quantrl.forecaster import (
    ForecastConfig,
    ForecastModel,
    build_windows,
    evaluate_forecasts,
    forecast_series,
    loss_and_grads,
    train_forecaster,
)
from quantrl.tradeenv import MarketSeries, zscore


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


def normalized_series(closes, train_fraction=0.8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant macro columns
        return zscore(series_from_closes(closes), train_fraction=train_fraction)


def trend_series(n=160, slope=0.02):
    return normalized_series(100.0 * (1.0 + slope * np.arange(n)))


def sine_series(n=160, period=12, amplitude=2.0):
    # phase offset keeps every sampled return away from zero, so the
    # direction label is always well-defined
    t = np.arange(n)
    r = amplitude * np.sin(2 * np.pi * (t + 0.5) / period)
    closes = 100.0 * np.cumprod(1.0 + np.concatenate([[0.0], r[1:]]) / 100.0)
    return normalized_series(closes)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("lookback", 0), ("hidden", 0), ("train_fraction", 0.0), ("train_fraction", 1.5),
    ("epochs", 0), ("epochs", -3), ("learning_rate", 0.0), ("learning_rate", -0.01),
    ("learning_rate", float("inf")), ("learning_rate", float("nan")),
])
def test_forecast_config_bounds(field, value):
    with pytest.raises(ConfigError, match=field):
        ForecastConfig(**{field: value})
    assert ForecastConfig(train_fraction=1.0).train_fraction == 1.0


def test_single_window_return_arithmetic():
    ds = build_windows(normalized_series([100.0, 110.0]), lookback=1)
    assert len(ds) == 1
    assert ds.targets[0] == pytest.approx(10.0)


def test_lookback_equal_to_length_rejected():
    with pytest.raises(ValueError):
        build_windows(normalized_series([100.0, 110.0]), lookback=2)


def input_rows(series, window):
    """The series row of each step of a window, found by value."""
    return [int(np.flatnonzero((series.normalized == step).all(axis=1))[0])
            for step in window]


def test_windows_are_causal():
    series = normalized_series(list(100.0 + np.arange(20.0)))
    ds = build_windows(series, lookback=4)
    close = series.close
    for k, (window, target) in enumerate(zip(ds.inputs, ds.targets)):
        rows = input_rows(series, window)
        assert rows == list(range(k, k + 4))
        # the target is the return into the row right after the inputs
        after = rows[-1] + 1
        assert target == 100.0 * (close[after] / close[after - 1] - 1.0)


def test_validation_follows_training():
    series = normalized_series(list(100.0 + np.arange(20.0)))
    ds = build_windows(series, lookback=4, train_fraction=0.5)
    (train, _), (validation, _) = ds.train, ds.validation
    assert len(train) and len(validation)
    train_last = max(input_rows(series, w)[-1] for w in train)
    for window in validation:
        assert input_rows(series, window)[-1] > train_last
def test_window_contents_match_rows():
    series = normalized_series(list(100.0 + np.arange(10.0)))
    ds = build_windows(series, lookback=3)
    assert np.array_equal(ds.inputs[2], series.normalized[2:5])
    want = 100.0 * (series.close[5] / series.close[4] - 1.0)
    assert ds.targets[2] == pytest.approx(want)


def test_windows_are_read_only_views_of_the_series():
    series = trend_series(n=2000, slope=0.001)
    tracemalloc.start()
    try:
        ds = build_windows(series, lookback=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.inputs.shape == (1500, 500, 6)
    assert peak < 2**20  # one copy of the windows would take 34 MiB
    assert np.shares_memory(ds.inputs, series.normalized)
    assert not ds.inputs.flags.writeable


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_forecaster_parameters_are_views_of_one_flat_store():
    model = ForecastModel(n_features=3, hidden=4, lookback=5, seed=2)
    params, store = model.parameters(), model.store

    def flat(attr):  # the per-parameter arrays, concatenated in order
        return np.concatenate([getattr(p, attr).ravel() for p in params])

    assert np.array_equal(store.values, flat("value"))
    assert all(p.value.base is store.values and p.grad.base is store.grads
               for p in params)
    store.set(store.get() + 1.0)  # one write reaches every parameter
    assert np.array_equal(flat("value"), store.values)

    loss_and_grads(model, np.random.default_rng(6).normal(size=(2, 5, 3)), np.zeros(2))
    assert np.any(store.grads != 0.0) and np.array_equal(store.grads, flat("grad"))
    store.zero_grads()
    assert all(np.all(p.grad == 0.0) for p in params)

    # training steps the store in place, so the parameters stay its views
    trained = train_forecaster(build_windows(sine_series(n=30), lookback=5),
                               ForecastConfig(lookback=5, hidden=4, epochs=3))
    assert all(p.value.base is trained.store.values for p in trained.parameters())
    assert not np.array_equal(trained.store.values, ForecastModel(3, 4, 5).store.values)


def test_training_is_deterministic():
    ds = build_windows(sine_series(n=60), lookback=8)
    cfg = ForecastConfig(epochs=10, seed=7, hidden=8)
    m1 = train_forecaster(ds, cfg)
    m2 = train_forecaster(ds, cfg)
    assert np.array_equal(m1.store.values, m2.store.values)
    assert m1.loss_history == m2.loss_history


def test_seeded_fit_is_pinned():
    # a change that claims identical results must leave the trained
    # parameters, every epoch's loss and the forecast vector bit for bit
    series = sine_series(n=60)
    model = train_forecaster(build_windows(series, lookback=8),
                             ForecastConfig(hidden=8, epochs=40, seed=3))
    got = [hashlib.sha256(a.tobytes()).hexdigest() for a in (
        model.store.values, np.asarray(model.loss_history, np.float64),
        forecast_series(model, series))]
    assert got == [
        "0eedd2df8b1a38e4badb75917c416bfa4e402b9df74b8eef1360729c4432c6e7",
        "026d6cc0b795956f35f03e768991a5f99537e6041c78aa1e425cb96a504d7923",
        "b52d32f6bff643c7d95859dc0f29b083a8023430e3785f63c939df1fa77fb1d4",
    ]


def test_training_and_forecasting_build_no_tape_and_no_node(monkeypatch):
    series = sine_series(n=40)
    dataset = build_windows(series, lookback=5)
    config = ForecastConfig(lookback=5, hidden=4, epochs=3)
    want = train_forecaster(dataset, config)

    def refuse(*args, **kwargs):
        raise AssertionError("the forecaster built a tape or a node")

    build = ForecastModel.__init__

    def build_then_refuse(self, *args, **kwargs):
        build(self, *args, **kwargs)  # the parameters are the only nodes
        monkeypatch.setattr(diffnet.Tape, "__init__", refuse)
        monkeypatch.setattr(diffnet.Node, "__init__", refuse)

    monkeypatch.setattr(ForecastModel, "__init__", build_then_refuse)
    model = train_forecaster(dataset, config)
    assert np.array_equal(model.store.values, want.store.values)
    assert model.loss_history == want.loss_history
    assert np.array_equal(forecast_series(model, series), forecast_series(want, series))


def test_an_epoch_frees_the_last_epochs_arrays():
    # BPTT saves, per step, the [batch, input + hidden] concatenation and six
    # [batch, hidden] arrays (the previous cell state, four gates and the
    # cell's tanh). A loop that held one epoch's arrays until the next
    # epoch's forward returned would peak above twice that
    dataset = build_windows(sine_series(n=200), lookback=8)
    batch, steps, features = dataset.train[0].shape
    hidden = 32
    epoch_bytes = 8 * batch * steps * (features + 7 * hidden)
    tracemalloc.start()
    try:
        train_forecaster(dataset, ForecastConfig(hidden=hidden, epochs=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * epoch_bytes


def test_linear_trend_validation_rmse():
    ds = trend_series()
    dataset = build_windows(ds, lookback=8)
    model = train_forecaster(dataset, ForecastConfig(epochs=300, seed=1))
    vi, vt = dataset.validation
    ev = evaluate_forecasts(model.predict_batch(vi), vt)
    # noiseless series: held-out RMSE well under 10% of the target spread
    assert ev.rmse < 0.1 * dataset.targets.std()


def test_training_loss_improves_on_noiseless_data():
    dataset = build_windows(trend_series(n=80), lookback=8)
    model = train_forecaster(dataset, ForecastConfig(epochs=60, seed=0))
    assert model.loss_history[50] < model.loss_history[0]


def test_divergence_raises_training_error():
    dataset = build_windows(trend_series(n=40), lookback=4)
    with pytest.raises(TrainingError), np.errstate(all="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # expected overflow
        train_forecaster(
            dataset,
            ForecastConfig(lookback=4, epochs=5, learning_rate=1e200, seed=0),
        )


def test_lookback_mismatch_rejected():
    dataset = build_windows(trend_series(n=40), lookback=4)
    with pytest.raises(ValueError):
        train_forecaster(dataset, ForecastConfig(lookback=8, epochs=1))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_zero_model_predicts_zero():
    model = ForecastModel(n_features=6, hidden=4, lookback=3)
    for p in model.parameters():
        p.value[...] = 0.0
    windows = np.random.default_rng(0).normal(size=(2, 3, 6))
    assert np.array_equal(model.predict_batch(windows), np.zeros(2))


def test_prediction_deterministic():
    model = ForecastModel(n_features=6, hidden=4, lookback=3, seed=5)
    windows = np.random.default_rng(1).normal(size=(2, 3, 6))
    assert np.array_equal(model.predict_batch(windows), model.predict_batch(windows))


def test_prediction_window_shape_validated():
    model = ForecastModel(n_features=6, hidden=4, lookback=3)
    with pytest.raises(ValueError):
        model.predict_batch(np.zeros((1, 4, 6)))


def test_trend_sign_agreement():
    dataset = build_windows(trend_series(), lookback=8)
    model = train_forecaster(dataset, ForecastConfig(epochs=300, seed=1))
    preds = model.predict_batch(dataset.inputs)
    agree = np.mean(np.sign(preds) == np.sign(dataset.targets))
    assert agree >= 0.9


def test_sine_directional_accuracy():
    dataset = build_windows(sine_series(), lookback=8)
    model = train_forecaster(dataset, ForecastConfig(epochs=300, seed=1))
    vi, vt = dataset.validation
    ev = evaluate_forecasts(model.predict_batch(vi), vt)
    assert ev.directional_accuracy >= 0.9


def test_forecast_series_alignment():
    series = sine_series(n=40)
    dataset = build_windows(series, lookback=8)
    model = train_forecaster(dataset, ForecastConfig(epochs=50, seed=2))
    vec = forecast_series(model, series)
    assert vec.shape == (40,)
    assert np.all(vec[:7] == 0.0)  # before the first complete window
    # entry at t = lookback-1 is the prediction from the first window
    assert vec[7] == pytest.approx(model.predict_batch(series.normalized[None, 0:8])[0])
    signed = forecast_series(model, series, direction_only=True)
    assert set(np.unique(signed[7:])) <= {-1.0, 0.0, 1.0}


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

def test_rmse_worked_example():
    ev = evaluate_forecasts([1.0, 2.0], [1.0, 4.0])
    assert ev.rmse == pytest.approx(np.sqrt(2.0))


def test_perfect_forecast_metrics():
    ev = evaluate_forecasts([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
    assert ev.pearson == pytest.approx(1.0)
    assert ev.directional_accuracy == 1.0


def test_directional_accuracy_sign_count():
    ev = evaluate_forecasts([1.0, -1.0, 2.0], [2.0, -3.0, -1.0])
    assert ev.directional_accuracy == pytest.approx(2.0 / 3.0)


def test_sign_zero_counts_as_up():
    ev = evaluate_forecasts([0.0, 1.0, -1.0], [1.0, 1.0, -1.0])
    assert ev.directional_accuracy == 1.0  # 0 treated as up on either side
    ev = evaluate_forecasts([0.5, -0.5], [0.0, 1.0])
    assert ev.directional_accuracy == pytest.approx(0.5)


def test_constant_vector_pearson_error():
    with pytest.raises(EvaluationError, match="pearson"):
        evaluate_forecasts([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_length_mismatch_error():
    with pytest.raises(EvaluationError):
        evaluate_forecasts([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_forecaster_gradients_match_finite_differences():
    # the production gradient, loss_and_grads's, against central differences
    # of the mean squared error, relative 1e-4
    rng = np.random.default_rng(3)
    model = ForecastModel(n_features=2, hidden=3, lookback=4, seed=9)
    windows = rng.normal(size=(2, 4, 2))
    targets = np.array([0.5, -1.0])

    def loss_value():
        return float(np.mean((model.predict_batch(windows) - targets) ** 2))

    loss = loss_and_grads(model, windows, targets)
    assert loss == pytest.approx(loss_value(), rel=1e-15)
    got = [p.grad.copy() for p in model.parameters()]

    h = 1e-5
    for p, g in zip(model.parameters(), got):
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            dn = loss_value()
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(g.ravel()[i] - fd) / max(abs(fd), 1e-6) < 1e-4
