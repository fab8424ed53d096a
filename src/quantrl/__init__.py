"""Hybrid quantum-classical actor-critic trading lab.

Library-first: every capability (circuit simulation, autodiff, the trading
environment, forecasting, asynchronous training, backtest analytics,
synthetic data, plotting) is importable on its own from its submodule; the
``quantrl`` CLI (``quantrl.cli``) is a thin orchestration layer on top. See
``demos/`` for narrative scripts.
"""

from . import (  # noqa: F401
    a3c,
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

__version__ = "0.1.0"
