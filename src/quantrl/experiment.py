"""Experiment orchestration: config parsing, the pipeline stages, the run
pipeline and the five-strategy comparison matrix.

A run executes ingest -> (optional) forecast -> train -> evaluate ->
metrics -> emit. The evaluation, training and metric tables and the
charts are stamped with the config hash and seed; with a fixed seed a
rerun reproduces identical CSV bytes, at any worker count.

Each CLI subcommand is one function here, built from the same stages
(``fit_forecast``, ``emit_evaluation``, ``emit_metrics``) and run inside
one ``Stages`` wrapper, which owns failure handling.

Config files are INI ("key = value" under [experiment], [synthetic],
[train], [env], [forecast] sections); a config takes its sub-configs'
seeds, head kind and forecast train fraction from its own when it is
made, and every run writes it back out as ``config.ini`` so a run can be
reproduced from its own snapshot.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import hashlib
import logging
import typing
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import a3c, forecaster, metrics, svgplot, synthetic, tradeenv
from .a3c import TrainConfig
from .errors import FRACTION, SEED, ConfigError, StageError, check_fields, one_of
from .forecaster import ForecastConfig
from .synthetic import SyntheticSpec
from .tradeenv import EnvConfig

log = logging.getLogger("quantrl")

STRATEGIES = ("classical", "quantum", "random")
DEFAULT_MATRIX = (
    "classical", "classical+lstm", "quantum", "quantum+lstm", "random",
)


@dataclass
class ExperimentConfig:
    data: str | None = None
    synthetic: SyntheticSpec | None = None
    strategy: str = "classical"
    use_forecast: bool = False
    out_dir: str = "run"
    seed: int = 0
    train_fraction: float = 0.8
    train: TrainConfig = field(default_factory=TrainConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    forecast: ForecastConfig = field(default_factory=ForecastConfig)

    RULES = {"strategy": one_of(STRATEGIES), "seed": SEED, "train_fraction": FRACTION}

    def __post_init__(self):
        check_fields(self.RULES, vars(self))
        if (self.data is None) == (self.synthetic is None):
            raise ConfigError(
                "exactly one data source required: a CSV path or a synthetic spec"
            )
        if self.data is not None:
            # the hash, the config.ini snapshot and a rerun from another
            # directory then all name the same file
            self.data = str(Path(self.data).absolute())
        if self.strategy == "random" and self.use_forecast:
            raise ConfigError("the random strategy reads no forecast; "
                              "drop use_forecast")
        derived = _derived_settings(self.seed, self.strategy, self.train_fraction)
        for name, values in derived.items():
            if getattr(self, name) is not None:
                setattr(self, name, replace(getattr(self, name), **values))


def _derived_settings(seed: int, strategy: str, train_fraction: float) -> dict:
    """The sub-config keys that the experiment's seed, strategy and train
    fraction decide, as {section: {key: value}}."""
    head_kind = "quantum" if strategy == "quantum" else "classical"
    return {"train": {"seed": seed, "head_kind": head_kind},
            "forecast": {"seed": seed, "train_fraction": train_fraction},
            "synthetic": {"seed": seed}}


_SECTIONS = {"experiment": ExperimentConfig, "synthetic": SyntheticSpec,
             "train": TrainConfig, "env": EnvConfig, "forecast": ForecastConfig}


def config_to_ini(config: ExperimentConfig) -> str:
    """Canonical INI text: sections in ``_SECTIONS`` order, sorted keys. An
    unset [experiment] value (the data path) is left out; any other None is
    written empty."""
    lines = []
    for name, kind in _SECTIONS.items():
        section = config if name == "experiment" else getattr(config, name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        for key in sorted(f.name for f in dataclasses.fields(kind)):
            value = getattr(section, key)
            if key in _SECTIONS or (value is None and name == "experiment"):
                continue
            lines.append(f"{key} = {'' if value is None else value}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: ExperimentConfig,
                series: tradeenv.MarketSeries | None = None) -> str:
    """The first 12 hex digits of the SHA-256 of the config's INI text
    without ``out_dir``. A CSV run's ``data`` line names the SHA-256 of
    ``series``, the series ingested from that file, in place of its path:
    one CSV copied into two directories hashes alike, and an edited CSV at
    the same path hashes anew. A synthetic run's spec is its data."""
    lines = []
    for line in config_to_ini(config).splitlines():
        if line.startswith("out_dir = "):
            continue
        if line.startswith("data = "):
            if series is None:
                raise ValueError("a CSV run's hash needs its ingested series")
            line = f"data = sha256:{_series_sha256(series)}"
        lines.append(line)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _series_sha256(series: tradeenv.MarketSeries) -> str:
    """SHA-256 of what ingest read: the dates, the raw features and the
    forecast column, if any."""
    digest = hashlib.sha256(",".join(d.isoformat() for d in series.dates).encode())
    digest.update(series.features.tobytes())  # float64, C order
    if series.forecast is not None:
        digest.update(b"forecast")
        digest.update(series.forecast.tobytes())
    return digest.hexdigest()


def _coerce(dc_type, section) -> dict:
    """Parse an INI section into a dataclass's typed fields; an empty value
    means None for ``X | None`` fields only. A key that is no such field
    (a nested config is read from its own section) is a ConfigError."""
    getters = {int: section.getint, float: section.getfloat,
               bool: section.getboolean, str: section.get}
    hints = typing.get_type_hints(dc_type)
    kwargs = {}
    for name in section:
        kind = hints.get(name)
        base = next(t for t in typing.get_args(kind) or (kind,) if t is not type(None))
        if base not in getters:
            raise ConfigError(f"{section.name}.{name}: unknown key")
        if section[name] == "" and type(None) in typing.get_args(kind):
            kwargs[name] = None
            continue
        try:
            kwargs[name] = getters[base](name)
        except ValueError as exc:
            raise ConfigError(f"{section.name}.{name}: {exc}") from exc
    return kwargs


def read_config_ini(path=None) -> dict:
    """The ExperimentConfig keyword arguments an INI file sets (none if
    ``path`` is None), each sub-config built from its section. A key that
    ExperimentConfig derives must agree with the file's [experiment]."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if path is not None and not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for name in parser.sections():
            if name not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section [{name}]")
        exp = (_coerce(ExperimentConfig, parser["experiment"])
               if parser.has_section("experiment") else {})
        check_fields(ExperimentConfig.RULES, exp)
        sources = {key: exp.get(key, getattr(ExperimentConfig, key))
                   for key in ("seed", "strategy", "train_fraction")}
        derived = _derived_settings(**sources)
        for name, kind in _SECTIONS.items():
            if name != "experiment" and parser.has_section(name):
                fields = _coerce(kind, parser[name])
                for key, want in derived.get(name, {}).items():
                    if key in fields and fields[key] != want:
                        source = "strategy" if key == "head_kind" else key
                        raise ConfigError(
                            f"{path}: {name}.{key} = {fields[key]} disagrees with "
                            f"experiment.{source} = {sources[source]}")
                exp[name] = kind(**fields)
        return exp
    except (TypeError, configparser.Error, UnicodeDecodeError) as exc:
        detail = "; ".join(str(exc).splitlines())  # configparser's span lines
        raise ConfigError(f"bad config file {path}: {detail}") from exc


class Stages(contextlib.AbstractContextManager):
    """Context manager around a pipeline: ``stage`` names the running stage
    and ``write`` records each file before writing it. On a failure the
    recorded files are deleted and the error is raised as a StageError
    naming the stage; a ConfigError passes through."""

    def __init__(self, stage: str):
        self.stage = stage
        self.written: list[Path] = []

    def write(self, path, content) -> Path:
        """Write ``content`` (text, or a callable taking the path) to ``path``."""
        path = Path(path)
        self.written.append(path)
        if callable(content):
            content(path)
        else:
            path.write_text(content)
        return path

    def __exit__(self, kind, exc, tb):
        for path in self.written if exc is not None else ():
            with contextlib.suppress(OSError):
                path.unlink()
        if isinstance(exc, Exception) and not isinstance(exc, ConfigError):
            raise StageError(f"stage '{self.stage}' failed: {exc}") from exc


@dataclass
class RunArtifacts:
    out_dir: Path
    files: dict[str, Path]
    report: metrics.MetricsReport
    history: a3c.TrainingHistory | None
    evaluation: a3c.EvaluationRun
    config_hash: str


def load_series(path, train_fraction: float) -> tradeenv.MarketSeries:
    """Ingest a market CSV and z-score it on its training prefix."""
    return _zscored(tradeenv.load_market_csv(path), train_fraction)


def _zscored(series: tradeenv.MarketSeries, train_fraction: float):
    """``tradeenv.zscore``; constant columns are expected in the training
    prefix and not reported."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tradeenv.ConstantColumnWarning)
        return tradeenv.zscore(series, train_fraction)


def fit_forecast(series: tradeenv.MarketSeries, config: ForecastConfig):
    """Fit the forecaster on a z-scored series; returns the model, its
    window dataset and the per-row forecast vector."""
    dataset = forecaster.build_windows(series, config.lookback,
                                       config.train_fraction)
    model = forecaster.train_forecaster(dataset, config)
    vector = forecaster.forecast_series(model, series,
                                        direction_only=config.direction_only)
    return model, dataset, vector


def evaluation_report(evaluation: a3c.EvaluationRun) -> metrics.MetricsReport:
    """The metric battery over one evaluation run's equity curve and trades."""
    curve = metrics.EquityCurve(tuple(evaluation.dates),
                                np.asarray(evaluation.asset_values))
    return metrics.summary_metrics(curve, evaluation.trades, evaluation.position_flags)


def emit_evaluation(run: Stages, out: Path, evaluation: a3c.EvaluationRun,
                    label: str | None = None, stamp: str | None = None) -> None:
    """evaluation.csv plus its action timeline and equity curve SVGs;
    ``label`` goes in the chart titles, ``stamp`` heads every file."""
    suffix = f" ({label})" if label else ""
    run.write(out / "evaluation.csv", lambda p: evaluation.to_csv(p, stamp=stamp))
    run.write(out / "action_timeline.svg", svgplot.action_timeline_svg(
        evaluation.prices, [tradeenv.ACTION_NAMES[a] for a in evaluation.actions],
        dates=evaluation.dates, title="Action timeline" + suffix, stamp=stamp,
    ))
    run.write(out / "equity_curve.svg", svgplot.equity_curve_svg(
        evaluation.asset_values, dates=evaluation.dates,
        title="Equity curve" + suffix, stamp=stamp,
    ))


def emit_metrics(run: Stages, out: Path, reports: dict, failures=None,
                 stamp: str | None = None, name: str = "metrics"):
    """The metric table as ``<name>.txt`` and its CSV mirror as
    ``<name>.csv``; returns both paths."""
    head = f"# {stamp}\n" if stamp else ""
    return (run.write(out / f"{name}.txt", head + metrics.report_table(reports, failures)),
            run.write(out / f"{name}.csv", lambda p: tradeenv.write_table(
                p, *metrics.report_csv(reports, failures), stamp)))


def generate(spec: SyntheticSpec, path) -> Path:
    with Stages("emit") as run:
        return run.write(path, partial(synthetic.generate_synthetic, spec))


def _write_with_forecast(path: Path, header: list, records: list, dates,
                         vector) -> None:
    """The records under their header with the forecast column set by date
    (replaced if the header has one, appended if not); rows the series
    dropped get 0. A record's date is parsed as ingest parsed it, so a
    date in any form that ingest takes finds its forecast."""
    by_date = dict(zip(dates, vector))
    header = header + ["forecast"] * ("forecast" not in header)
    tradeenv.write_table(path, header, ([
        f"{by_date.get(tradeenv.parse_date(record['date']), 0.0):.8f}"
        if name == "forecast" else record[name] for name in header]
        for _, record in records))


def export_forecast(data, out_dir, config: ForecastConfig):
    """Fit the forecaster on a market CSV; write the CSV with its forecast
    column and the model file. Returns the validation metrics (None below
    two validation windows) and the written paths."""
    out = Path(out_dir)
    with Stages("ingest") as run:
        header, records = tradeenv.read_table(data, tradeenv.MARKET_COLUMNS)
        series = _zscored(tradeenv.parse_market_table(data, header, records),
                          config.train_fraction)
        run.stage = "forecast"
        model, dataset, vector = fit_forecast(series, config)
        inputs, targets = dataset.validation
        validation = (forecaster.evaluate_forecasts(model.predict_batch(inputs), targets)
                      if len(inputs) >= 2 else None)
        run.stage = "emit"
        out.mkdir(parents=True, exist_ok=True)
        run.write(out / "data_with_forecast.csv",
                  partial(_write_with_forecast, header=header, records=records,
                          dates=series.dates, vector=vector))
        run.write(out / "forecaster.qlstm", partial(forecaster.save_forecaster, model))
    return validation, run.written


def run_experiment(config: ExperimentConfig, fit=fit_forecast) -> RunArtifacts:
    """Execute the full pipeline and emit the artifact set. ``fit`` is
    ``fit_forecast`` or a stand-in with its signature and result, such as
    the one ``run_matrix`` shares between its columns."""
    out = Path(config.out_dir)
    with Stages("ingest") as run:
        out.mkdir(parents=True, exist_ok=True)
        data = config.data
        if config.synthetic is not None:
            data = run.write(out / "data.csv",
                             partial(synthetic.generate_synthetic, config.synthetic))
        series = load_series(data, config.train_fraction)
        digest = config_hash(config, series)
        stamp = f"config_hash={digest} seed={config.seed}"

        if config.use_forecast:
            run.stage = "forecast"
            log.info("training forecaster (%d epochs)", config.forecast.epochs)
            _, _, vector = fit(series, config.forecast)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", tradeenv.ConstantColumnWarning)
                series = tradeenv.attach_forecast(series, vector)

        env_factory = partial(tradeenv.TradingEnv, series, config.env)
        history = None
        if config.strategy == "random":
            run.stage = "evaluate"
            evaluation = a3c.evaluate_random(env_factory(), seed=config.seed)
        else:
            run.stage = "train"
            log.info("training %s agent for %d episodes",
                     config.strategy, config.train.max_episodes)
            history = a3c.train(config.train, env_factory)
            env = env_factory()
            net = config.train.build_net(env.observation_dim)
            net.set_flat(history.final_theta)
            run.stage = "evaluate"
            evaluation = a3c.evaluate_policy(net, env)

        run.stage = "metrics"
        report = evaluation_report(evaluation)

        run.stage = "emit"
        run.write(out / "config.ini", config_to_ini(config))
        emit_evaluation(run, out, evaluation, config.strategy, stamp)
        emit_metrics(run, out, {config.strategy: report}, stamp=stamp)
        if history is not None:
            run.write(out / "training_history.csv",
                      lambda p: history.to_csv(p, stamp=stamp))
            run.write(out / "reward_curve.svg", svgplot.reward_curve_svg(
                history.rewards, history.moving_average,
                title=f"Training rewards ({config.strategy})", stamp=stamp,
            ))
            run.write(out / "checkpoint.qnet", partial(a3c.save_checkpoint, net))

    return RunArtifacts(
        out_dir=out, files={p.name: p for p in run.written}, report=report,
        history=history, evaluation=evaluation, config_hash=digest,
    )


def evaluate_checkpoint(checkpoint, data, out_dir,
                        train_fraction: float) -> a3c.EvaluationRun:
    """Greedy rollout of a checkpoint over a market CSV, emitted as
    evaluation.csv and its two SVGs. The checkpoint's reader raises its own
    error naming the file."""
    check_fields(ExperimentConfig.RULES, {"train_fraction": train_fraction})
    net = a3c.load_checkpoint(checkpoint)
    out = Path(out_dir)
    with Stages("ingest") as run:
        env = tradeenv.TradingEnv(load_series(data, train_fraction), EnvConfig())
        if env.observation_dim != net.obs_dim:
            raise ConfigError(
                f"checkpoint expects observation dim {net.obs_dim}, data gives "
                f"{env.observation_dim} (forecast column or position flag mismatch)"
            )
        run.stage = "evaluate"
        evaluation = a3c.evaluate_policy(net, env)
        run.stage = "emit"
        out.mkdir(parents=True, exist_ok=True)
        emit_evaluation(run, out, evaluation)
    return evaluation


def report_evaluation(evaluation_csv, out_dir) -> Path:
    """The metric battery of an evaluation CSV as metrics.txt and
    metrics.csv; returns metrics.txt. The CSV's reader raises its own error
    naming the file."""
    evaluation = a3c.EvaluationRun.from_csv(evaluation_csv)
    out = Path(out_dir)
    with Stages("metrics") as run:
        report = evaluation_report(evaluation)
        run.stage = "emit"
        out.mkdir(parents=True, exist_ok=True)
        table, _ = emit_metrics(run, out, {"run": report})
    return table


@dataclass
class MatrixResult:
    reports: dict[str, metrics.MetricsReport]
    failures: dict[str, str]
    table_txt: Path
    table_csv: Path
    runs: dict[str, RunArtifacts]


def parse_strategy_label(label: str) -> tuple[str, bool]:
    """'quantum+lstm' -> ('quantum', True); 'random' -> ('random', False)."""
    base, _, suffix = label.partition("+")
    if base not in STRATEGIES or (suffix and suffix != "lstm"):
        raise ConfigError(f"unknown strategy label {label!r}")
    return base, suffix == "lstm"


def run_matrix(config: ExperimentConfig,
               strategies=DEFAULT_MATRIX) -> MatrixResult:
    """Run each strategy over a shared data/seed base and emit the merged
    comparison table. Per-run failures mark their column and the rest
    continue; a repeated label, which would share a column, is a
    ConfigError before any runs."""
    if not strategies:
        raise ConfigError("matrix needs at least one strategy")
    repeated = sorted({s for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ConfigError(f"matrix strategies repeat {', '.join(repeated)}")
    out = Path(config.out_dir)
    reports, failures, runs = {}, {}, {}
    # every column reads the same data with the same seed and forecast
    # settings, so the +lstm columns share one forecaster fit: its result,
    # or the error that failed it
    fitted = []

    def fit_once(series, forecast_config):
        if not fitted:
            try:
                fitted.append(fit_forecast(series, forecast_config))
            except Exception as exc:  # noqa: BLE001 - every +lstm column fails with it
                fitted.append(exc)
        if isinstance(fitted[0], Exception):
            raise fitted[0]
        return fitted[0]

    with Stages("ingest") as run:
        out.mkdir(parents=True, exist_ok=True)
        # one shared dataset: materialize a synthetic spec once up front
        base = config
        if config.synthetic is not None:
            data = run.write(out / "data.csv", partial(
                synthetic.generate_synthetic, config.synthetic))
            base = replace(config, synthetic=None, data=str(data))

        for label in strategies:
            sub_dir = out / label.replace("+", "_")
            try:
                strategy, use_forecast = parse_strategy_label(label)
                sub = replace(base, strategy=strategy, use_forecast=use_forecast,
                              out_dir=str(sub_dir))
                log.info("matrix: running %s", label)
                result = run_experiment(sub, fit=fit_once)
                reports[label] = result.report
                runs[label] = result
            except Exception as exc:  # noqa: BLE001 - isolate column failures
                log.warning("matrix: %s failed: %s", label, exc)
                failures[label] = str(exc)

        run.stage = "emit"
        table_txt, table_csv = emit_metrics(run, out, reports, failures,
                                            name="matrix_table")
    return MatrixResult(reports, failures, table_txt, table_csv, runs)
