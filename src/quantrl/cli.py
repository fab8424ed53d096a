"""Command-line interface: argument parsing and one call into
``quantrl.experiment`` per subcommand, whose stages do all the work.

Subcommands: generate, forecast, train, evaluate, report, matrix.
Exit codes, for every subcommand: 0 success, 1 configuration error,
2 any other failure (a failed stage, or an unreadable model or evaluation
file), reported as one line on stderr.
Set QUANTRL_LOG=debug|info|warning to control verbosity; others mean warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import typing

from . import experiment
from .errors import ConfigError, QuantrlError
from .experiment import DEFAULT_MATRIX, STRATEGIES, ExperimentConfig
from .forecaster import ForecastConfig
from .synthetic import KINDS, SyntheticSpec

_SYNTHETIC_LENGTH = 120  # --synthetic-kind rows without a [synthetic] section
_SPEC_FIELDS = typing.get_type_hints(SyntheticSpec)  # generate's flags, in order


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--config", default=None, help="INI config file")


def _add_train_flags(parser):
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--use-forecast", action="store_true", default=None,
                        help="augment the state with the LSTM forecast signal")
    parser.add_argument("--workers", dest="n_workers", type=int, default=None,
                        help="A3C workers, taken in turn (default: 1)")
    parser.add_argument("--episodes", dest="max_episodes", type=int, default=None)
    parser.add_argument("--data", default=None, help="market CSV path")
    parser.add_argument("--synthetic-kind", dest="kind", choices=KINDS)
    parser.add_argument("--synthetic-length", dest="length", type=int,
                        help=f"rows (default: the config file's, else "
                             f"{_SYNTHETIC_LENGTH})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrl",
        description="Hybrid quantum-classical actor-critic trading experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic market CSV")
    p.add_argument("--out", required=True, help="CSV path to write")
    for name, kind in _SPEC_FIELDS.items():  # kind and length have no default
        p.add_argument(f"--{name}", type=kind, required=name in ("kind", "length"),
                       choices=KINDS if name == "kind" else None)

    p = sub.add_parser("forecast", help="train the forecaster, export the "
                                        "forecast column and its metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--lookback", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)

    p = sub.add_parser("train", help="train one strategy end to end")
    _add_common(p)
    _add_train_flags(p)

    p = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-fraction", type=float,
                   default=ExperimentConfig.train_fraction)

    p = sub.add_parser("report", help="metric battery from an evaluation CSV")
    p.add_argument("--evaluation", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("matrix", help="run the strategy comparison matrix")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--strategies", default=",".join(DEFAULT_MATRIX),
                   help="comma-separated labels, e.g. classical,quantum+lstm")
    return parser


def _given(args, *names) -> dict:
    """The named flags the user gave; the dataclasses supply the rest."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _experiment_config(args, default_out: str) -> ExperimentConfig:
    """The --config file's values, with the given flags over them. One given
    data source (--data or --synthetic-kind) replaces the file's other one;
    the synthetic flags replace only the kind and length of a file's spec."""
    fields = {"out_dir": default_out, **experiment.read_config_ini(args.config)}
    if (args.data is None) != (args.kind is None):
        fields.pop("data" if args.data is None else "synthetic", None)
    if args.length is not None and args.kind is None and "synthetic" not in fields:
        raise ConfigError("--synthetic-length needs --synthetic-kind "
                          "or a [synthetic] section")
    fields.update(_given(args, "strategy", "seed", "data", "use_forecast", "out_dir"))
    if "synthetic" in fields:
        fields["synthetic"] = dataclasses.replace(fields["synthetic"],
                                                  **_given(args, "kind", "length"))
    elif args.kind:
        fields["synthetic"] = SyntheticSpec(args.kind, _SYNTHETIC_LENGTH
                                            if args.length is None else args.length)
    config = ExperimentConfig(**fields)
    return dataclasses.replace(config, train=dataclasses.replace(
        config.train, **_given(args, "n_workers", "max_episodes")))


def cmd_generate(args) -> None:
    spec = SyntheticSpec(**_given(args, *_SPEC_FIELDS))
    experiment.generate(spec, args.out)
    print(f"wrote {args.out} ({spec.kind}, {spec.length} rows, seed {spec.seed})")


def cmd_forecast(args) -> None:
    config = ForecastConfig(**_given(args, "lookback", "hidden", "epochs",
                                     "learning_rate", "seed"))
    validation, (out_csv, model_file) = experiment.export_forecast(
        args.data, args.out, config)
    if validation is not None:
        print(f"validation rmse={validation.rmse:.4f} "
              f"pearson={validation.pearson:.4f} "
              f"directional_accuracy={validation.directional_accuracy:.4f}")
    print(f"wrote {out_csv} and {model_file}")


def cmd_train(args) -> None:
    artifacts = experiment.run_experiment(_experiment_config(args, default_out="run"))
    print(f"run complete: {artifacts.out_dir} (config_hash={artifacts.config_hash})")
    for name in sorted(artifacts.files):
        print(f"  {name}")


def cmd_evaluate(args) -> None:
    run = experiment.evaluate_checkpoint(args.checkpoint, args.data, args.out,
                                         args.train_fraction)
    print(f"final asset {run.final_asset:.2f}, {len(run.trades)} trades, "
          f"artifacts in {args.out}")


def cmd_report(args) -> None:
    print(experiment.report_evaluation(args.evaluation, args.out).read_text())


def cmd_matrix(args) -> None:
    config = _experiment_config(args, default_out="matrix")
    labels = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    result = experiment.run_matrix(config, labels)
    print(result.table_txt.read_text())
    if result.failures:
        print(f"failed columns: {sorted(result.failures)}")


_COMMANDS = {"generate": cmd_generate, "forecast": cmd_forecast, "train": cmd_train,
             "evaluate": cmd_evaluate, "report": cmd_report, "matrix": cmd_matrix}


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("QUANTRL_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except QuantrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
