"""Command-line orchestration.

Subcommands: generate, forecast, train, evaluate, report, matrix.
Exit codes: 0 success, 1 configuration error, 2 stage failure.
Set QUANTRL_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys
from pathlib import Path

from . import a3c, forecaster, metrics, svgplot, tradeenv
from .errors import ConfigError, QuantrlError, StageError
from .experiment import (
    DEFAULT_MATRIX,
    ExperimentConfig,
    evaluation_report,
    load_config_ini,
    load_series,
    run_experiment,
    run_matrix,
)
from .forecaster import ForecastConfig
from .synthetic import SyntheticSpec, generate_synthetic
from .tradeenv import EnvConfig

log = logging.getLogger("quantrl")


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--config", default=None, help="INI config file")


def _add_train_flags(parser):
    parser.add_argument("--strategy", choices=("classical", "quantum", "random"),
                        default=None)
    parser.add_argument("--use-forecast", action="store_true", default=None,
                        help="augment the state with the LSTM forecast signal")
    parser.add_argument("--workers", type=int, default=None,
                        help="A3C workers, taken in turn (default: 1)")
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--data", default=None, help="market CSV path")
    parser.add_argument("--synthetic-kind", default=None,
                        choices=("sawtooth", "trend", "white-noise", "ar1"))
    parser.add_argument("--synthetic-length", type=int, default=120)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrl",
        description="Hybrid quantum-classical actor-critic trading experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic market CSV")
    p.add_argument("--kind", required=True,
                   choices=("sawtooth", "trend", "white-noise", "ar1"))
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path to write")
    p.add_argument("--base", type=float, default=100.0)
    p.add_argument("--period", type=int, default=8)
    p.add_argument("--amplitude", type=float, default=0.10)
    p.add_argument("--slope", type=float, default=0.01)
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.9)

    p = sub.add_parser("forecast", help="train the forecaster, export the "
                                        "forecast column and its metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lookback", type=int, default=8)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.01)

    p = sub.add_parser("train", help="train one strategy end to end")
    _add_common(p)
    _add_train_flags(p)

    p = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)

    p = sub.add_parser("report", help="metric battery from an evaluation CSV")
    p.add_argument("--evaluation", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("matrix", help="run the strategy comparison matrix")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--strategies", default=",".join(DEFAULT_MATRIX),
                   help="comma-separated labels, e.g. classical,quantum+lstm")
    return parser


def _experiment_config(args, default_out: str) -> ExperimentConfig:
    overrides = dict(
        strategy=args.strategy,
        seed=args.seed,
        out_dir=args.out or default_out,
        data=args.data,
    )
    if args.use_forecast:
        overrides["use_forecast"] = True
    if args.config:
        config = load_config_ini(args.config, **overrides)
    else:
        synthetic_spec = None
        if args.synthetic_kind:
            synthetic_spec = SyntheticSpec(args.synthetic_kind,
                                           args.synthetic_length)
        config = ExperimentConfig(
            data=args.data,
            synthetic=synthetic_spec,
            strategy=args.strategy or "classical",
            use_forecast=bool(args.use_forecast),
            out_dir=args.out or default_out,
            seed=args.seed or 0,
        )
    train = config.train
    if args.workers is not None:
        train = dataclasses.replace(train, n_workers=args.workers)
    if args.episodes is not None:
        train = dataclasses.replace(train, max_episodes=args.episodes)
    return dataclasses.replace(config, train=train)


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        kind=args.kind, length=args.length, seed=args.seed, base=args.base,
        period=args.period, amplitude=args.amplitude, slope=args.slope,
        sigma=args.sigma, mu=args.mu, phi=args.phi,
    )
    generate_synthetic(spec, args.out)
    print(f"wrote {args.out} ({spec.kind}, {spec.length} rows, seed {spec.seed})")
    return 0


def cmd_forecast(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = load_series(args.data, 0.8)
    config = ForecastConfig(lookback=args.lookback, hidden=args.hidden,
                            epochs=args.epochs, learning_rate=args.lr,
                            seed=args.seed)
    dataset = forecaster.build_windows(series, config.lookback,
                                       config.train_fraction)
    model = forecaster.train_forecaster(dataset, config)
    vector = forecaster.forecast_series(model, series)

    val_inputs, val_targets = dataset.validation
    if val_inputs.shape[0] >= 2:
        ev = forecaster.evaluate_forecasts(
            model.predict_batch(val_inputs), val_targets
        )
        print(f"validation rmse={ev.rmse:.4f} pearson={ev.pearson:.4f} "
              f"directional_accuracy={ev.directional_accuracy:.4f}")

    out_csv = out / "data_with_forecast.csv"
    with open(args.data, newline="") as source:
        rows = list(csv.reader(source))
    by_date = {d.isoformat(): v for d, v in zip(series.dates, vector)}
    header = rows[0] + ["forecast"]
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows[1:]:
            writer.writerow(row + [f"{by_date.get(row[0], 0.0):.8f}"])
    forecaster.save_forecaster(model, out / "forecaster.qlstm")
    print(f"wrote {out_csv} and {out / 'forecaster.qlstm'}")
    return 0


def cmd_train(args) -> int:
    config = _experiment_config(args, default_out="run")
    artifacts = run_experiment(config)
    print(f"run complete: {artifacts.out_dir} (config_hash={artifacts.config_hash})")
    for name in sorted(artifacts.files):
        print(f"  {name}")
    return 0


def cmd_evaluate(args) -> int:
    net = a3c.load_checkpoint(args.checkpoint)
    series = load_series(args.data, args.train_fraction)
    env = tradeenv.TradingEnv(series, EnvConfig())
    if env.observation_dim != net.obs_dim:
        raise ConfigError(
            f"checkpoint expects observation dim {net.obs_dim}, data gives "
            f"{env.observation_dim} (forecast column or position flag mismatch)"
        )
    run = a3c.evaluate_policy(net, env)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run.to_csv(out / "evaluation.csv")
    (out / "equity_curve.svg").write_text(
        svgplot.equity_curve_svg(run.asset_values, dates=run.dates)
    )
    (out / "action_timeline.svg").write_text(
        svgplot.action_timeline_svg(
            run.prices, [tradeenv.ACTION_NAMES[a] for a in run.actions],
            dates=run.dates,
        )
    )
    print(f"final asset {run.final_asset:.2f}, {len(run.trades)} trades, "
          f"artifacts in {out}")
    return 0


def cmd_report(args) -> int:
    report = evaluation_report(a3c.EvaluationRun.from_csv(args.evaluation))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.txt").write_text(metrics.report_table({"run": report}))
    (out / "metrics.csv").write_text(metrics.report_csv({"run": report}))
    print(metrics.report_table({"run": report}))
    return 0


def cmd_matrix(args) -> int:
    config = _experiment_config(args, default_out="matrix")
    labels = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    result = run_matrix(config, labels)
    print(result.table_txt.read_text())
    if result.failures:
        print(f"failed columns: {sorted(result.failures)}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "forecast": cmd_forecast,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "matrix": cmd_matrix,
}


def main(argv=None) -> int:
    level = os.environ.get("QUANTRL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuantrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
