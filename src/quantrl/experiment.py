"""Experiment orchestration: config parsing, the run pipeline and the
five-strategy comparison matrix.

A run executes ingest -> (optional) forecast -> train -> evaluate ->
metrics -> emit. Every artifact is stamped with the resolved config hash
and seed; with a fixed seed a rerun reproduces identical CSV bytes, at
any worker count. Failures abort with the stage name and remove partial files.

Config files are INI ("key = value" under [experiment], [synthetic],
[train], [env], [forecast] sections); the resolved config is always
written back out as ``config.ini`` so a run can be reproduced from its
own snapshot.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import logging
import typing
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import a3c, forecaster, metrics, svgplot, synthetic, tradeenv
from .a3c import ActorCriticNet, TrainConfig
from .errors import ConfigError, StageError
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

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if (self.data is None) == (self.synthetic is None):
            raise ConfigError(
                "exactly one data source required: a CSV path or a synthetic spec"
            )
        if not 0 < self.train_fraction <= 1:
            raise ConfigError("train_fraction must be in (0, 1]")

    def resolved(self) -> "ExperimentConfig":
        """Propagate the experiment seed and strategy into the sub-configs."""
        head_kind = "quantum" if self.strategy == "quantum" else "classical"
        return replace(
            self,
            train=replace(self.train, seed=self.seed, head_kind=head_kind),
            forecast=replace(self.forecast, seed=self.seed,
                             train_fraction=self.train_fraction),
            synthetic=(
                None if self.synthetic is None
                else replace(self.synthetic, seed=self.seed)
            ),
        )


def config_to_ini(config: ExperimentConfig) -> str:
    """Canonical INI text: fixed section order, sorted keys."""
    sections: dict[str, dict] = {"experiment": {
        "strategy": config.strategy,
        "use_forecast": config.use_forecast,
        "seed": config.seed,
        "train_fraction": config.train_fraction,
        "out_dir": config.out_dir,
    }}
    if config.data is not None:
        sections["experiment"]["data"] = config.data
    if config.synthetic is not None:
        sections["synthetic"] = dataclasses.asdict(config.synthetic)
    sections["train"] = dataclasses.asdict(config.train)
    sections["env"] = dataclasses.asdict(config.env)
    sections["forecast"] = dataclasses.asdict(config.forecast)

    lines = []
    for name in ("experiment", "synthetic", "train", "env", "forecast"):
        if name not in sections:
            continue
        lines.append(f"[{name}]")
        for key in sorted(sections[name]):
            value = sections[name][key]
            if value is None:
                value = ""
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: ExperimentConfig) -> str:
    text = "\n".join(
        line for line in config_to_ini(config).splitlines()
        if not line.startswith("out_dir = ")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


_SECTIONS = {"experiment": ExperimentConfig, "synthetic": SyntheticSpec,
             "train": TrainConfig, "env": EnvConfig, "forecast": ForecastConfig}


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


def load_config_ini(path, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file plus keyword overrides."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{name}]")
    exp = (_coerce(ExperimentConfig, parser["experiment"])
           if parser.has_section("experiment") else {})
    for name, kind in _SECTIONS.items():
        if name != "experiment" and parser.has_section(name):
            exp[name] = kind(**_coerce(kind, parser[name]))
    exp.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**exp)
    except TypeError as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc


@dataclass
class RunArtifacts:
    out_dir: Path
    files: dict[str, Path]
    report: metrics.MetricsReport
    history: a3c.TrainingHistory | None
    evaluation: a3c.EvaluationRun
    config_hash: str


def expected_artifacts(config: ExperimentConfig) -> list[str]:
    names = ["config.ini", "evaluation.csv", "metrics.txt", "metrics.csv",
             "action_timeline.svg", "equity_curve.svg"]
    if config.synthetic is not None:
        names.append("data.csv")
    if config.strategy != "random":
        names += ["training_history.csv", "reward_curve.svg", "checkpoint.qnet"]
    return sorted(names)


def load_series(path, train_fraction: float) -> tradeenv.MarketSeries:
    """Ingest a market CSV and z-score it on its training prefix; constant
    columns are expected there and not reported."""
    series = tradeenv.load_market_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tradeenv.ConstantColumnWarning)
        return tradeenv.zscore(series, train_fraction)


def evaluation_report(evaluation: a3c.EvaluationRun) -> metrics.MetricsReport:
    """The metric battery over one evaluation run's equity curve and trades."""
    curve = metrics.EquityCurve(tuple(evaluation.dates),
                                np.asarray(evaluation.asset_values))
    return metrics.summary_metrics(curve, evaluation.trades, evaluation.position_flags)


def _prepare_series(config: ExperimentConfig, out: Path, written: list[Path]):
    if config.synthetic is not None:
        data_path = out / "data.csv"
        synthetic.generate_synthetic(config.synthetic, data_path)
        written.append(data_path)
    else:
        data_path = Path(config.data)
    return load_series(data_path, config.train_fraction)


def _attach_forecasts(config: ExperimentConfig, series):
    dataset = forecaster.build_windows(
        series, config.forecast.lookback, config.forecast.train_fraction
    )
    model = forecaster.train_forecaster(dataset, config.forecast)
    vector = forecaster.forecast_series(
        model, series, direction_only=config.forecast.direction_only
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tradeenv.ConstantColumnWarning)
        return model, tradeenv.attach_forecast(series, vector)


def run_experiment(config: ExperimentConfig) -> RunArtifacts:
    """Execute the full pipeline and emit the artifact set."""
    config = config.resolved()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)
    stamp = f"config_hash={digest} seed={config.seed}"
    written: list[Path] = []
    stage = "ingest"
    try:
        series = _prepare_series(config, out, written)

        if config.use_forecast:
            stage = "forecast"
            log.info("training forecaster (%d epochs)", config.forecast.epochs)
            _, series = _attach_forecasts(config, series)

        def env_factory():
            return tradeenv.TradingEnv(series, config.env)

        history = None
        if config.strategy == "random":
            stage = "evaluate"
            evaluation = a3c.evaluate_random(env_factory(), seed=config.seed)
            net = None
        else:
            stage = "train"
            log.info("training %s agent for %d episodes",
                     config.strategy, config.train.max_episodes)
            history = a3c.train(config.train, env_factory)
            net = ActorCriticNet(
                env_factory().observation_dim,
                head_kind=config.train.head_kind,
                latent_dim=config.train.latent_dim,
                vqc_depth=config.train.vqc_depth,
                seed=config.train.seed,
            )
            net.set_flat(history.final_theta)
            stage = "evaluate"
            evaluation = a3c.evaluate_policy(net, env_factory())

        stage = "metrics"
        report = evaluation_report(evaluation)

        stage = "emit"
        files: dict[str, Path] = {}
        if config.synthetic is not None:
            files["data.csv"] = out / "data.csv"

        def emit(name, writer):
            path = out / name
            writer(path)
            written.append(path)
            files[name] = path

        emit("config.ini", lambda p: p.write_text(config_to_ini(config)))
        emit("evaluation.csv", lambda p: evaluation.to_csv(p, stamp=stamp))
        emit("metrics.txt", lambda p: p.write_text(
            f"# {stamp}\n" + metrics.report_table({config.strategy: report})
        ))
        emit("metrics.csv", lambda p: p.write_text(
            f"# {stamp}\n" + metrics.report_csv({config.strategy: report})
        ))
        emit("action_timeline.svg", lambda p: p.write_text(
            svgplot.action_timeline_svg(
                evaluation.prices,
                [tradeenv.ACTION_NAMES[a] for a in evaluation.actions],
                dates=evaluation.dates,
                title=f"Action timeline ({config.strategy})", stamp=stamp,
            )
        ))
        emit("equity_curve.svg", lambda p: p.write_text(
            svgplot.equity_curve_svg(
                evaluation.asset_values, dates=evaluation.dates,
                title=f"Equity curve ({config.strategy})", stamp=stamp,
            )
        ))
        if history is not None:
            emit("training_history.csv",
                 lambda p: history.to_csv(p, stamp=stamp))
            emit("reward_curve.svg", lambda p: p.write_text(
                svgplot.reward_curve_svg(
                    history.rewards, history.moving_average,
                    title=f"Training rewards ({config.strategy})", stamp=stamp,
                )
            ))
            emit("checkpoint.qnet", lambda p: a3c.save_checkpoint(net, p))

        return RunArtifacts(
            out_dir=out, files=files, report=report,
            history=history, evaluation=evaluation, config_hash=digest,
        )
    except Exception as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        if isinstance(exc, StageError):
            raise
        raise StageError(stage, exc) from exc


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
    continue."""
    if not strategies:
        raise ConfigError("matrix needs at least one strategy")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # one shared dataset: materialize a synthetic spec once up front
    base = config
    if config.synthetic is not None:
        data_path = out / "data.csv"
        synthetic.generate_synthetic(
            replace(config.synthetic, seed=config.seed), data_path
        )
        base = replace(config, synthetic=None, data=str(data_path))

    reports: dict[str, metrics.MetricsReport] = {}
    failures: dict[str, str] = {}
    runs: dict[str, RunArtifacts] = {}
    for label in strategies:
        sub_dir = out / label.replace("+", "_")
        try:
            strategy, use_forecast = parse_strategy_label(label)
            sub = replace(base, strategy=strategy, use_forecast=use_forecast,
                          out_dir=str(sub_dir))
            log.info("matrix: running %s", label)
            result = run_experiment(sub)
            reports[label] = result.report
            runs[label] = result
        except Exception as exc:  # noqa: BLE001 - isolate column failures
            log.warning("matrix: %s failed: %s", label, exc)
            failures[label] = str(exc)

    table_txt = out / "matrix_table.txt"
    table_csv = out / "matrix_table.csv"
    table_txt.write_text(metrics.report_table(reports, failures))
    table_csv.write_text(metrics.report_csv(reports, failures))
    return MatrixResult(reports, failures, table_txt, table_csv, runs)
