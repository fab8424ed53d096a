"""One-week-ahead LSTM forecaster of the weekly close return.

Windows are strictly causal: window k feeds the z-scored feature rows
[k, k+lookback) and its target is the percent return of the row right
after the inputs, 100 * (close[k+lookback] / close[k+lookback-1] - 1).
Validation windows chronologically follow all training windows.

Training is full-batch BPTT with Adam on mean squared error: each epoch
runs the cell over the windows on plain arrays (``LstmCell.run``) and
works the MSE's closed-form gradient back through the head and
``LstmCell.backward``, with no tape. Inference is the same forward and is
deterministic given fixed parameters. ``forecast_series`` produces the
vector that ``tradeenv.attach_forecast`` expects: entry t predicts week
t+1's return using rows up to t only, with zeros before the first
complete lookback window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diffnet
from .diffnet import Dense, LstmCell
from .errors import (FRACTION, POSITIVE, SEED, EvaluationError, TrainingError,
                     between, check_batch, check_fields)
from .tradeenv import MarketSeries


@dataclass
class ForecastConfig:
    lookback: int = 8
    hidden: int = 32
    epochs: int = 300
    learning_rate: float = 0.01
    seed: int = 0
    train_fraction: float = 0.8
    direction_only: bool = False  # feed sign(prediction) instead of the value

    RULES = {
        # BPTT keeps every step's [windows, hidden] gate arrays, so memory
        # grows as windows x lookback x hidden; 520 is ten years of weekly rows
        "lookback": between(1, 520),
        "hidden": between(1, 512),  # four LSTM gates of about hidden**2 weights each
        "epochs": between(1),
        "learning_rate": POSITIVE,
        "seed": SEED,
        "train_fraction": FRACTION,
    }

    def __post_init__(self):
        check_fields(self.RULES, vars(self))


@dataclass
class ForecastDataset:
    inputs: np.ndarray        # [n_windows, lookback, n_features]
    targets: np.ndarray       # [n_windows] next-week percent return
    train_count: int

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def train(self):
        return self.inputs[: self.train_count], self.targets[: self.train_count]

    @property
    def validation(self):
        return self.inputs[self.train_count:], self.targets[self.train_count:]


@dataclass
class ForecastEvaluation:
    rmse: float
    pearson: float
    directional_accuracy: float


def _windows(series: MarketSeries, lookback: int, count: int) -> np.ndarray:
    """[count, lookback, n_features]: window k is z-scored rows [k, k+lookback),
    a read-only view of the series, so no window is copied."""
    rows = series.normalized[: count + lookback - 1]
    return sliding_window_view(rows, lookback, axis=0).transpose(0, 2, 1)


def build_windows(
    series: MarketSeries, lookback: int, train_fraction: float = 0.8
) -> ForecastDataset:
    """Slice a z-scored series into (lookback window, next-week return) pairs."""
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if not series.is_normalized:
        raise ValueError("series must be z-scored before windowing")
    n = len(series)
    n_windows = n - lookback
    if n_windows < 1:
        raise ValueError(
            f"series of length {n} is too short for lookback {lookback}"
        )
    close = series.close
    inputs = _windows(series, lookback, n_windows)
    targets = 100.0 * (close[lookback:] / close[lookback - 1: -1] - 1.0)
    train_count = min(n_windows, max(1, int(np.ceil(train_fraction * n_windows))))
    return ForecastDataset(inputs, targets, train_count)


class ForecastModel:
    """LstmCell over the window plus a scalar dense head on the final hidden.
    The parameters and their grads live in one ``diffnet.FlatStore``."""

    def __init__(self, n_features: int, hidden: int, lookback: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.n_features = n_features
        self.hidden = hidden
        self.lookback = lookback
        self.cell = LstmCell(n_features, hidden, rng)
        self.head = Dense(hidden, 1, rng)
        self.store = diffnet.FlatStore(self.parameters())
        self.loss_history: list[float] = []

    def parameters(self):
        return self.cell.parameters() + self.head.parameters()

    @staticmethod
    def parameter_shapes(n_features: int, hidden: int, lookback: int) -> list[tuple]:
        """Shapes of parameters() for these sizes, without building."""
        return (LstmCell.parameter_shapes(n_features, hidden)
                + Dense.parameter_shapes(hidden, 1))

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        windows = check_batch("forecaster", np.asarray(windows, dtype=np.float64),
                              self.lookback, self.n_features)
        return self.head.apply(self.cell.run(windows)[0])[:, 0]


def train_forecaster(dataset: ForecastDataset, config: ForecastConfig) -> ForecastModel:
    """Fit the forecaster on the training split by full-batch BPTT."""
    inputs, targets = dataset.train
    if inputs.shape[0] == 0:
        raise ValueError("training split is empty")
    if inputs.shape[1] != config.lookback:
        raise ValueError(
            f"dataset lookback {inputs.shape[1]} != config lookback {config.lookback}"
        )
    model = ForecastModel(
        inputs.shape[2], config.hidden, config.lookback, seed=config.seed
    )
    store = model.store
    opt = diffnet.AdamOptimizer(store.values.size, config.learning_rate)
    for epoch in range(config.epochs):
        loss = loss_and_grads(model, inputs, targets)
        if not np.isfinite(loss):
            raise TrainingError(
                f"forecaster loss became non-finite at epoch {epoch}"
            )
        model.loss_history.append(loss)
        opt.step(store.values, store.grads)
    return model


def loss_and_grads(model: ForecastModel, windows: np.ndarray,
                   targets: np.ndarray) -> float:
    """The mean squared error of the model's predictions for a batch of
    windows against their [batch] targets; fills ``model.store.grads``
    with its gradient. Every step's saved arrays are freed on return.

    The MSE's gradient for the predictions is taken in closed form, as
    ``err * (1/B)`` added to itself: the bits of the product rule on
    ``err * err``.
    """
    model.store.zero_grads()
    hidden, saved = model.cell.run(windows)
    err = model.head.apply(hidden) - targets[:, None]  # [batch, 1]
    loss = float((err * err).sum() * (1.0 / err.shape[0]))
    g = err * (1.0 / err.shape[0])
    g = g + g
    model.head.add_grads(hidden, g)
    model.cell.backward(saved, g @ model.head.w.value)
    return loss


def forecast_series(model: ForecastModel, series: MarketSeries,
                    direction_only: bool = False) -> np.ndarray:
    """Per-row forecast vector aligned for ``attach_forecast``.

    Entry t is the model's prediction for week t+1 computed from the
    window ending at row t; rows before the first full window get 0.
    """
    if not series.is_normalized:
        raise ValueError("series must be z-scored")
    n = len(series)
    lb = model.lookback
    out = np.zeros(n)
    if n < lb:
        return out
    preds = model.predict_batch(_windows(series, lb, n - lb + 1))
    out[lb - 1:] = np.sign(preds) if direction_only else preds
    return out


_CKPT_MAGIC = b"QLSTM"
_CKPT_FIELDS = {"n_features": int, "hidden": int, "lookback": int}


def save_forecaster(model: ForecastModel, path) -> None:
    """Shape header + parameters in the diffnet model-file format."""
    diffnet.save_model(path, _CKPT_MAGIC, _CKPT_FIELDS, model)


def load_forecaster(path) -> ForecastModel:
    return diffnet.load_model(path, _CKPT_MAGIC, _CKPT_FIELDS, ForecastModel)


def evaluate_forecasts(predictions, actuals) -> ForecastEvaluation:
    """RMSE, sample Pearson correlation and directional accuracy
    (sign(0) counts as up)."""
    p = np.asarray(predictions, dtype=np.float64)
    a = np.asarray(actuals, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise EvaluationError(
            f"predictions and actuals must be equal-length nonempty vectors, "
            f"got {p.shape} and {a.shape}"
        )
    rmse = float(np.sqrt(np.mean((p - a) ** 2)))
    dp, da = p - p.mean(), a - a.mean()
    denom = np.sqrt(np.sum(dp * dp) * np.sum(da * da))
    if denom == 0.0:
        raise EvaluationError("pearson correlation undefined: constant vector")
    pearson = float(np.sum(dp * da) / denom)
    accuracy = float(np.mean((p >= 0) == (a >= 0)))
    return ForecastEvaluation(rmse, pearson, accuracy)
