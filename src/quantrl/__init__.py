"""Hybrid quantum-classical actor-critic trading lab.

Library-first: every capability (circuit simulation, autodiff, the trading
environment, forecasting, asynchronous training, backtest analytics,
synthetic data, plotting) is importable on its own; the ``quantrl`` CLI is
a thin orchestration layer on top. See ``demos/`` for narrative scripts.
"""

from . import (  # noqa: F401
    a3c,
    cli,
    diffnet,
    errors,
    experiment,
    forecaster,
    metrics,
    qsim,
    svgplot,
    synthetic,
    tradeenv,
)
from .a3c import (  # noqa: F401
    ActorCriticNet,
    EvaluationRun,
    TrainConfig,
    TrainingHistory,
    evaluate_policy,
    evaluate_random,
    n_step_returns,
    train,
)
from .experiment import (  # noqa: F401
    DEFAULT_MATRIX,
    ExperimentConfig,
    RunArtifacts,
    run_experiment,
    run_matrix,
)
from .forecaster import (  # noqa: F401
    ForecastConfig,
    build_windows,
    evaluate_forecasts,
    forecast_series,
    train_forecaster,
)
from .metrics import EquityCurve, MetricsReport, Trade, summary_metrics  # noqa: F401
from .qsim import (  # noqa: F401
    QuantumState,
    VqcParams,
    run_vqc_batch,
    vqc_gradients_batch,
)
from .synthetic import SyntheticSpec, generate_synthetic  # noqa: F401
from .tradeenv import (  # noqa: F401
    EnvConfig,
    MarketSeries,
    TradingEnv,
    attach_forecast,
    load_market_csv,
    zscore,
)

__version__ = "0.1.0"
