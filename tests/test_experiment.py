"""Experiment pipeline, CLI and plot-artifact consistency tests.

Training runs in here are deliberately tiny (tens of episodes); the
full-scale learning runs live in test_acceptance.py."""

import csv
import dataclasses
import logging
import os
import re
import subprocess
import sys
import typing
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quantrl import experiment, forecaster, tradeenv
from quantrl.a3c import ActorCriticNet, save_checkpoint
from quantrl.cli import main
from quantrl.errors import ConfigError, StageError, TrainingError
from quantrl.experiment import (
    ExperimentConfig,
    config_hash,
    config_to_ini,
    generate,
    load_series,
    parse_strategy_label,
    read_config_ini,
    run_experiment,
    run_matrix,
)
from quantrl.a3c import TrainConfig
from quantrl.forecaster import ForecastConfig, forecast_series, load_forecaster
from quantrl.svgplot import action_timeline_svg, equity_curve_svg, reward_curve_svg
from quantrl.synthetic import SyntheticSpec

ROOT = Path(__file__).resolve().parents[1]


def load_config_ini(path) -> ExperimentConfig:
    """The ExperimentConfig an INI file describes."""
    return ExperimentConfig(**read_config_ini(path))


def expected_artifacts(config: ExperimentConfig) -> list[str]:
    names = ["config.ini", "evaluation.csv", "metrics.txt", "metrics.csv",
             "action_timeline.svg", "equity_curve.svg"]
    if config.synthetic is not None:
        names.append("data.csv")
    if config.strategy != "random":
        names += ["training_history.csv", "reward_curve.svg", "checkpoint.qnet"]
    return sorted(names)


def tiny_config(out_dir, strategy="random", episodes=8, length=24, **kwargs):
    return ExperimentConfig(
        synthetic=SyntheticSpec("sawtooth", length),
        strategy=strategy,
        out_dir=str(out_dir),
        seed=5,
        train=TrainConfig(max_episodes=episodes, n_workers=1, seed=5,
                          latent_dim=4, update_every=8),
        forecast=ForecastConfig(epochs=10, hidden=4, lookback=4),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        ExperimentConfig(data="x.csv", synthetic=SyntheticSpec("trend", 30),
                         out_dir=str(tmp_path))


def test_config_ini_roundtrip(tmp_path):
    config = tiny_config(tmp_path, strategy="quantum", use_forecast=True)
    path = tmp_path / "config.ini"
    path.write_text(config_to_ini(config))
    back = load_config_ini(path)
    assert back.strategy == "quantum"
    assert back.use_forecast is True
    assert back.synthetic.kind == "sawtooth"
    assert back.train.max_episodes == 8
    assert back.train.latent_dim == 4
    assert config_hash(back) == config_hash(config)


def test_config_built_in_code_holds_derived_values():
    config = ExperimentConfig(synthetic=SyntheticSpec("sawtooth", 20),
                              strategy="quantum", seed=3, train_fraction=0.7,
                              train=TrainConfig(latent_dim=4))
    assert config.train.head_kind == "quantum"
    assert config.train.seed == config.forecast.seed == config.synthetic.seed == 3
    assert config.forecast.train_fraction == 0.7


def test_replace_derives_again(tmp_path):
    quantum = replace(tiny_config(tmp_path, strategy="classical"),
                      strategy="quantum", seed=11)
    assert quantum.train.head_kind == "quantum"
    assert quantum.train.seed == quantum.forecast.seed == quantum.synthetic.seed == 11
    assert replace(quantum, strategy="classical").train.head_kind == "classical"


def test_config_built_in_code_roundtrips_and_hashes_as_stamped(tmp_path):
    config = ExperimentConfig(synthetic=SyntheticSpec("ar1", 20, period=4),
                              strategy="random", seed=3, train_fraction=0.7,
                              out_dir=str(tmp_path / "run"))
    path = tmp_path / "c.ini"
    path.write_text(config_to_ini(config))
    assert load_config_ini(path) == config
    run = run_experiment(config)
    stamp = run.files["evaluation.csv"].read_text().splitlines()[0]
    assert stamp == f"# config_hash={config_hash(config)} seed=3"


def test_snapshot_with_percent_in_paths_loads_back(tmp_path):
    (tmp_path / "50%").mkdir()
    data = generate(SyntheticSpec("trend", 20), tmp_path / "50%" / "d.csv")
    config = ExperimentConfig(data=str(data), strategy="random",
                              out_dir=str(tmp_path / "50%" / "run"))
    run = run_experiment(config)
    assert load_config_ini(run.files["config.ini"]) == config


@pytest.mark.parametrize("section, line", [
    ("train", "gamma ="),
    ("train", "max_episodes = 1e3"),
    ("env", "include_position_in_state = ture"),
])
def test_config_ini_bad_value_names_the_key(tmp_path, section, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[synthetic]\nkind = sawtooth\nlength = 20\n[{section}]\n{line}\n")
    key = line.partition("=")[0].strip()
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config_ini(path)


@pytest.mark.parametrize("text, name", [
    ("[train]\nn_worker = 3\nlearning_rat = 5\n", "train.n_worker"),
    ("[experiment]\ntrain = 3\n", "experiment.train"),
    ("[trian]\nn_workers = 3\n", "[trian]"),
], ids=["misspelled-key", "nested-config-key", "unknown-section"])
def test_config_ini_unknown_key_or_section_names_it(tmp_path, text, name):
    path = tmp_path / "bad.ini"
    path.write_text("[synthetic]\nkind = sawtooth\nlength = 20\n" + text)
    with pytest.raises(ConfigError, match=re.escape(name)):
        load_config_ini(path)


@pytest.mark.parametrize("text", [
    "[synthetic]\nkind = sawtooth\n",
    "kind = sawtooth\n",
    b"[synthetic]\n\x89PNG\n",
], ids=["missing-required-key", "no-section-header", "binary"])
def test_cli_malformed_config_file_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: bad config file {path}")


def test_config_ini_empty_value_is_none_for_optional_fields(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\ndata =\n[synthetic]\nkind = sawtooth\n"
                    "length = 20\n[train]\nclip_norm =\n")
    config = load_config_ini(path)
    assert config.data is None and config.train.clip_norm is None


def test_config_ini_checks_experiment_values_before_derived_keys(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[experiment]\ntrain_fraction = nan\n[synthetic]\nkind = sawtooth\n"
                    "length = 20\n[forecast]\ntrain_fraction = nan\n")
    with pytest.raises(ConfigError, match=re.escape("train_fraction must be in (0, 1], got nan")):
        load_config_ini(path)


def test_cli_unreadable_config_file_exit_code(tmp_path, capsys):
    path = tmp_path / "missing.ini"
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: cannot read config file {path}"]


@pytest.mark.parametrize("text, keys", [
    ("[train]\nhead_kind = quantum\n", ("train.head_kind", "experiment.strategy")),
    ("[experiment]\nseed = 1\n[train]\nseed = 5\n", ("train.seed", "experiment.seed")),
    ("[forecast]\ntrain_fraction = 0.5\n",
     ("forecast.train_fraction", "experiment.train_fraction")),
], ids=["head-kind", "train-seed", "forecast-train-fraction"])
def test_config_ini_derived_key_must_agree_with_experiment(tmp_path, text, keys):
    path = tmp_path / "c.ini"
    path.write_text("[synthetic]\nkind = sawtooth\nlength = 20\n" + text)
    with pytest.raises(ConfigError) as info:
        load_config_ini(path)
    assert all(key in str(info.value) for key in keys)


# Every config table row, fed through the CLI with each of NaN, +-inf, -1, 0
# and 10**12 that its rule rejects. A "generate" or "evaluate" key is a flag of
# that subcommand; any other section is an INI section of `train --config`.
_HUGE = str(10**12)
_SWEEP = ("nan", "inf", "-inf", "-1", "0", _HUGE)
_REJECTED = {
    ("experiment", "strategy"): _SWEEP,
    ("experiment", "seed"): ("-1",),
    ("experiment", "train_fraction"): _SWEEP,
    ("evaluate", "train_fraction"): _SWEEP,
    ("synthetic", "kind"): _SWEEP,
    ("generate", "length"): ("-1", "0", _HUGE),
    ("generate", "seed"): ("-1",),
    ("generate", "phi"): ("nan", "inf", "-inf", "-1", _HUGE),
    ("generate", "sigma"): ("nan", "-inf", "-1"),
    ("train", "gamma"): _SWEEP,
    ("train", "update_every"): ("-1", "0"),
    ("train", "max_episodes"): ("-1", "0"),
    ("train", "n_workers"): ("-1", "0", _HUGE),
    ("train", "learning_rate"): ("nan", "inf", "-inf", "-1", "0"),
    ("train", "seed"): ("-1",),
    ("train", "head_kind"): _SWEEP,
    ("train", "entropy_coeff"): ("nan", "inf", "-inf"),
    ("train", "latent_dim"): ("-1", "0", _HUGE),
    ("train", "vqc_depth"): ("-1", "0", _HUGE),
    ("train", "optimizer"): _SWEEP,
    ("train", "clip_norm"): ("nan", "-inf", "-1", "0"),
    ("env", "trade_cost_rate"): ("nan", "inf", "-inf", "-1", _HUGE),
    ("env", "initial_cash"): ("nan", "inf", "-inf", "-1", "-5", "0"),
    ("forecast", "lookback"): ("-1", "0", _HUGE),
    ("forecast", "hidden"): ("-1", "0", _HUGE),
    ("forecast", "epochs"): ("-1", "0"),
    ("forecast", "learning_rate"): ("nan", "inf", "-inf", "-1", "0"),
    ("forecast", "seed"): ("-1",),
    ("forecast", "train_fraction"): _SWEEP,
}
_SECTION_CONFIGS = {"experiment": ExperimentConfig, "evaluate": ExperimentConfig,
                    "synthetic": SyntheticSpec, "generate": SyntheticSpec, "train": TrainConfig,
                    "env": tradeenv.EnvConfig, "forecast": ForecastConfig}


@pytest.mark.parametrize("section, line", [
    (section, f"{key} = {value}")
    for (section, key), values in _REJECTED.items() for value in values])
def test_cli_config_range_error_exit_code(tmp_path, capsys, monkeypatch, section, line):
    key, value = line.split(" = ")

    def reached(*args):
        raise AssertionError(f"{section}.{line} was accepted")

    # a value that gets through fails here, before the run allocates anything
    monkeypatch.setattr(experiment, "generate", reached)
    monkeypatch.setattr(experiment, "run_experiment", reached)
    flag = f"--{key.replace('_', '-')}={value}"
    if section == "generate":
        argv = ["generate", "--kind", "ar1", "--length", "50", flag,
                "--out", str(tmp_path / "d.csv")]
    elif section == "evaluate":
        argv = ["evaluate", "--checkpoint", str(tmp_path / "c.qnet"),
                "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "e"), flag]
    else:
        ini = {"experiment": {}, "synthetic": {"kind": "sawtooth", "length": "20"}}
        ini.setdefault(section, {})[key] = value
        if key in ("seed", "train_fraction"):  # a derived key agrees with its source
            ini["experiment"][key] = value
        (tmp_path / "c.ini").write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in ini.items()))
        argv = ["train", "--config", str(tmp_path / "c.ini"), "--out", str(tmp_path / "r")]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ") and key in err[0]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", dict.fromkeys(_SECTION_CONFIGS.values()),
                         ids=lambda k: k.__name__)
def test_every_config_field_has_a_swept_rule(kind):
    # a field is checked by a row of the class's rule table, or by a check
    # across fields (the sawtooth period; the synthetic closes, which the
    # other spec values set), or is a path, a bool or a nested config
    cross_field = {"period", "base", "amplitude", "slope", "mu"} if kind is SyntheticSpec else set()
    hints = typing.get_type_hints(kind)
    names = [f.name for f in dataclasses.fields(kind)]
    unchecked = [name for name in names
                 if name not in kind.RULES and name not in cross_field | {"data", "out_dir"}
                 and hints[name] is not bool
                 and not any(map(dataclasses.is_dataclass, typing.get_args(hints[name])
                                 or (hints[name],)))]
    assert unchecked == []
    assert set(kind.RULES) <= set(names)
    swept = {key for (section, key) in _REJECTED if _SECTION_CONFIGS[section] is kind}
    assert swept == set(kind.RULES)


def test_cli_snapshot_reruns_with_another_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--synthetic-kind", "sawtooth", "--synthetic-length", "16",
                 "--strategy", "classical", "--episodes", "1", "--seed", "3",
                 "--out", str(first)]) == 0
    assert main(["train", "--config", str(first / "config.ini"), "--seed", "7",
                 "--out", str(second)]) == 0
    snapshot = (second / "config.ini").read_text()
    assert snapshot.count("seed = 7") == 4 and "seed = 3" not in snapshot


def test_cli_snapshot_of_a_relative_data_path_reruns_elsewhere(tmp_path, monkeypatch):
    # the config holds the CSV's absolute path, so its snapshot names the
    # same file, and hashes the same, from any working directory
    monkeypatch.chdir(tmp_path)
    generate(SyntheticSpec("trend", 20), "d.csv")
    assert ExperimentConfig(data="d.csv").data == str(tmp_path / "d.csv")
    assert main(["train", "--data", "d.csv", "--strategy", "random",
                 "--out", "run"]) == 0
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    assert main(["train", "--config", "../run/config.ini", "--out", "r2"]) == 0
    # same rows, and the same config hash in the stamp
    assert ((tmp_path / "sub" / "r2" / "evaluation.csv").read_bytes()
            == (tmp_path / "run" / "evaluation.csv").read_bytes())


def test_random_strategy_takes_no_forecast(tmp_path, capsys):
    with pytest.raises(ConfigError, match="random"):
        tiny_config(tmp_path, strategy="random", use_forecast=True)
    assert main(["train", "--synthetic-kind", "sawtooth", "--strategy", "random",
                 "--use-forecast", "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "r").exists()


def test_config_hash_ignores_out_dir(tmp_path):
    a = tiny_config(tmp_path / "a")
    b = tiny_config(tmp_path / "b")
    assert config_hash(a) == config_hash(b)
    c = replace(a, seed=99)
    assert config_hash(c) != config_hash(a)


def _random_run(data, out_dir):
    return run_experiment(ExperimentConfig(data=str(data), strategy="random",
                                           out_dir=str(out_dir)))


def test_config_hash_of_a_csv_run_names_its_content_not_its_path(tmp_path):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        data = generate(SyntheticSpec("trend", 20), tmp_path / name / "d.csv")
        runs.append(_random_run(data, tmp_path / name / "run"))
    assert runs[0].config_hash == runs[1].config_hash
    stamps = [run.files["evaluation.csv"].read_text().splitlines()[0] for run in runs]
    assert stamps[0] == stamps[1] == f"# config_hash={runs[0].config_hash} seed=0"


def test_config_hash_changes_with_the_csv_at_one_path(tmp_path):
    data = tmp_path / "d.csv"
    generate(SyntheticSpec("trend", 20), data)
    first = _random_run(data, tmp_path / "run")
    generate(SyntheticSpec("trend", 20, slope=0.02), data)
    assert _random_run(data, tmp_path / "run").config_hash != first.config_hash


def test_config_hash_changes_with_the_forecast_column(tmp_path):
    data = tmp_path / "d.csv"
    header, *rows = generate(SyntheticSpec("trend", 20), data).read_text().splitlines()
    hashes = []
    for forecasts in (None, [0.0] * 20, [0.0] * 19 + [0.5]):
        lines = [header] + rows if forecasts is None else [header + ",forecast"] + [
            f"{row},{value}" for row, value in zip(rows, forecasts)]
        data.write_text("\n".join(lines) + "\n")
        hashes.append(_random_run(data, tmp_path / "run").config_hash)
    assert len(set(hashes)) == 3


def test_parse_strategy_labels():
    assert parse_strategy_label("classical") == ("classical", False)
    assert parse_strategy_label("quantum+lstm") == ("quantum", True)
    with pytest.raises(ConfigError):
        parse_strategy_label("hybrid")
    with pytest.raises(ConfigError):
        parse_strategy_label("classical+attention")


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_random_strategy_artifacts(tmp_path):
    config = tiny_config(tmp_path / "run", strategy="random", length=10)
    artifacts = run_experiment(config)
    names = sorted(p.name for p in artifacts.out_dir.iterdir())
    assert names == expected_artifacts(config)
    assert "training_history.csv" not in names
    assert "metrics.txt" in names
    assert artifacts.history is None
    assert artifacts.report.trade_count >= 0


def test_trained_strategy_artifacts(tmp_path):
    config = tiny_config(tmp_path / "run", strategy="classical", episodes=4)
    artifacts = run_experiment(config)
    names = sorted(p.name for p in artifacts.out_dir.iterdir())
    assert names == expected_artifacts(config)
    assert "training_history.csv" in names
    assert "checkpoint.qnet" in names
    assert len(artifacts.history.rewards) == 4


def test_repeat_run_byte_identical_csvs(tmp_path):
    config_a = tiny_config(tmp_path / "a", strategy="classical", episodes=6)
    config_b = tiny_config(tmp_path / "b", strategy="classical", episodes=6)
    run_a = run_experiment(config_a)
    run_b = run_experiment(config_b)
    for name in ("evaluation.csv", "training_history.csv", "metrics.csv",
                 "data.csv"):
        assert run_a.files[name].read_bytes() == run_b.files[name].read_bytes(), name


def test_run_builds_one_env_per_worker_and_one_for_evaluation(tmp_path, monkeypatch):
    built = []

    class CountingEnv(tradeenv.TradingEnv):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tradeenv, "TradingEnv", CountingEnv)
    config = tiny_config(tmp_path, strategy="classical", episodes=2)
    run_experiment(replace(config, train=replace(config.train, n_workers=2)))
    assert len(built) == 3


def test_rerun_from_snapshot_reproduces_csvs(tmp_path):
    config = tiny_config(tmp_path / "orig", strategy="classical", episodes=5)
    first = run_experiment(config)
    snapshot = load_config_ini(first.files["config.ini"])
    second = run_experiment(replace(snapshot, out_dir=str(tmp_path / "again")))
    for name in ("evaluation.csv", "training_history.csv", "metrics.csv"):
        assert first.files[name].read_bytes() == second.files[name].read_bytes()


def test_forecast_stage_runs(tmp_path):
    config = tiny_config(tmp_path / "run", strategy="classical", episodes=3,
                         length=40, use_forecast=True)
    artifacts = run_experiment(config)
    header = artifacts.files["evaluation.csv"].read_text().splitlines()[1]
    assert header == "date,action,price,asset_value"


def test_stage_failure_names_stage_and_cleans_up(tmp_path):
    out = tmp_path / "run"
    config = tiny_config(out, strategy="classical", length=10, use_forecast=True)
    config = replace(config, forecast=ForecastConfig(lookback=50, epochs=2))
    with pytest.raises(StageError, match="forecast"):
        run_experiment(config)
    leftovers = list(out.iterdir()) if out.exists() else []
    assert leftovers == []  # no orphan artifacts, data.csv included


def test_forecast_stage_passes_other_warnings_through(tmp_path, monkeypatch):
    attach = tradeenv.attach_forecast

    def warning_attach(series, vector):
        warnings.warn("forecast drift", RuntimeWarning)
        return attach(series, vector)

    monkeypatch.setattr(tradeenv, "attach_forecast", warning_attach)
    config = tiny_config(tmp_path / "run", strategy="classical", episodes=2,
                         length=40, use_forecast=True)
    with pytest.warns(RuntimeWarning, match="forecast drift"):
        run_experiment(config)


def test_missing_data_file_is_ingest_stage_failure(tmp_path):
    config = ExperimentConfig(data=str(tmp_path / "nope.csv"),
                              strategy="random", out_dir=str(tmp_path / "run"))
    with pytest.raises(StageError, match="ingest"):
        run_experiment(config)


def test_unreadable_data_file_is_ingest_stage_failure(tmp_path):
    with pytest.raises(StageError, match="stage 'ingest' failed: .*bin.csv"):
        _random_run(_binary(tmp_path), tmp_path / "run")


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def test_matrix_single_strategy(tmp_path):
    config = tiny_config(tmp_path / "m", strategy="classical")
    result = run_matrix(config, ("random",))
    assert list(result.reports) == ["random"]
    assert result.failures == {}
    table = result.table_txt.read_text()
    assert "random" in table.splitlines()[0]


def test_matrix_rejects_repeated_strategy(tmp_path):
    # two runs of one label would share a directory and a table column
    config = tiny_config(tmp_path / "m")
    with pytest.raises(ConfigError, match="repeat random"):
        run_matrix(config, ("random", "classical", "random"))
    assert not (tmp_path / "m").exists()


def test_matrix_failure_isolation(tmp_path):
    config = tiny_config(tmp_path / "m")
    result = run_matrix(config, ("random", "warp-drive"))
    assert "random" in result.reports
    assert "warp-drive" in result.failures
    table = result.table_txt.read_text()
    assert "failed" in table
    csv_text = result.table_csv.read_text()
    assert csv_text.splitlines()[0] == "metric,random,warp-drive"


def _count_fits(monkeypatch, fit):
    calls = []

    def counted(dataset, config):
        calls.append(config)
        return fit(dataset, config)

    monkeypatch.setattr(forecaster, "train_forecaster", counted)
    return calls


def test_matrix_fits_the_forecaster_once(tmp_path, monkeypatch):
    fits = _count_fits(monkeypatch, forecaster.train_forecaster)
    config = tiny_config(tmp_path / "m", strategy="classical", episodes=2, length=40)
    result = run_matrix(config, ("classical+lstm", "quantum+lstm"))
    assert result.failures == {}
    assert len(fits) == 1


def test_matrix_failed_fit_fails_every_lstm_column(tmp_path, monkeypatch):
    def diverge(dataset, config):
        raise TrainingError("forecaster diverged")

    fits = _count_fits(monkeypatch, diverge)
    config = tiny_config(tmp_path / "m", strategy="classical", episodes=2, length=40)
    result = run_matrix(config, ("classical+lstm", "random", "quantum+lstm"))
    assert list(result.reports) == ["random"]
    message = "stage 'forecast' failed: forecaster diverged"
    assert result.failures == {"classical+lstm": message, "quantum+lstm": message}
    assert len(fits) == 1


def test_matrix_shares_one_dataset(tmp_path):
    config = tiny_config(tmp_path / "m")
    result = run_matrix(config, ("random",))
    assert (tmp_path / "m" / "data.csv").exists()
    run_dir = result.runs["random"].out_dir
    snapshot = (run_dir / "config.ini").read_text()
    assert "data = " in snapshot and "data.csv" in snapshot


# ---------------------------------------------------------------------------
# SVG artifacts
# ---------------------------------------------------------------------------

def test_svgs_are_well_formed_xml(tmp_path):
    config = tiny_config(tmp_path / "run", strategy="classical", episodes=4)
    artifacts = run_experiment(config)
    for name in ("reward_curve.svg", "action_timeline.svg", "equity_curve.svg"):
        root = ET.fromstring(artifacts.files[name].read_text())
        assert root.tag.endswith("svg")


def test_timeline_marker_count_matches_evaluation_csv(tmp_path):
    config = tiny_config(tmp_path / "run", strategy="random", length=30)
    artifacts = run_experiment(config)
    with open(artifacts.files["evaluation.csv"]) as fh:
        rows = [r for r in csv.DictReader(
            line for line in fh if not line.startswith("#")
        )]
    non_hold = sum(1 for r in rows if r["action"] != "hold")
    svg = artifacts.files["action_timeline.svg"].read_text()
    assert svg.count("<polygon") == non_hold
    assert non_hold > 0  # random policy certainly trades on 30 rows


def test_empty_action_log_timeline():
    svg = action_timeline_svg([100.0, 101.0, 102.0], ["hold"] * 3)
    assert "<polygon" not in svg
    assert "<polyline" in svg
    ET.fromstring(svg)


def test_reward_curve_handles_long_history():
    rewards = list(np.sin(np.arange(3000)))
    avg = list(np.cos(np.arange(3000)))
    svg = reward_curve_svg(rewards, avg)
    ET.fromstring(svg)


def test_charts_past_2_to_the_53_draw_their_ticks():
    # a flat range widened by 1.0 stays flat there, and a tick step below
    # the float spacing never moves the tick loop: run in a subprocess, so
    # that a hang fails on its timeout
    code = ("from quantrl.svgplot import action_timeline_svg, equity_curve_svg\n"
            "print(action_timeline_svg([1e16, 1e16 + 2, 1e16 + 4], ['hold'] * 3))\n"
            "print(equity_curve_svg([1e17, 1e17 + 16, 1e17]))\n"
            "print(equity_curve_svg([1e18] * 120))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    charts = result.stdout.split("</svg>")[:-1]
    assert len(charts) == 3
    for svg in charts:
        ET.fromstring(svg.strip() + "</svg>")
        assert 2 <= svg.count('stroke="#eee"') <= 10  # the y ticks' grid lines


def y_tick_labels(svg):
    return re.findall(r'font-size="11" fill="#222" font-family="sans-serif" '
                      r'text-anchor="end">([^<]*)<', svg)


def test_tick_labels_take_the_digits_that_tell_them_apart():
    # six significant digits read 1e+06 for every tick of a $1,000,000
    # account that moves a few dollars
    assert y_tick_labels(equity_curve_svg([1e6, 1e6 + 3, 1e6 + 1.5, 1e6 + 4])) == [
        "1000000", "1000001", "1000002", "1000003", "1000004"]
    labels = y_tick_labels(equity_curve_svg([1e17, 1e17 + 16, 1e17]))
    assert len(set(labels)) == len(labels) >= 2
    # ordinary charts keep six
    assert y_tick_labels(equity_curve_svg([10_000.0, 10_100.0, 10_050.0])) == [
        "10000", "10020", "10040", "10060", "10080", "10100"]


def test_equity_curve_svg_smoke():
    svg = equity_curve_svg([10_000.0, 10_100.0, 10_050.0])
    ET.fromstring(svg)
    assert "portfolio value" in svg


def test_svg_stamp_comment_embedded():
    svg = equity_curve_svg([1.0, 2.0], stamp="config_hash=abc seed=1")
    assert "<!-- config_hash=abc seed=1 -->" in svg


def test_svg_escapes_markup_only():
    # only &, < and > are escaped, in text content and in the stamp comment
    svg = equity_curve_svg([1.0, 2.0], title="&<>\"'", stamp="&<>\"'")
    assert svg.count("&amp;&lt;&gt;\"'") == 2
    ET.fromstring(svg)


def test_import_loads_no_network_or_xml_modules():
    # importing the package must not pull in the stdlib's network stack
    heavy = ("xml.sax", "urllib.request", "http.client", "email", "ssl")
    code = f"import sys, quantrl; print([m for m in {heavy!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_generate_and_train_random(tmp_path, capsys):
    data = tmp_path / "m.csv"
    assert main(["generate", "--kind", "sawtooth", "--length", "16",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--strategy", "random",
                 "--out", str(tmp_path / "run"), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out


def test_cli_generate_help_lists_every_spec_field(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    out = capsys.readouterr().out
    assert "--out" in out
    for field in dataclasses.fields(SyntheticSpec):
        assert f"--{field.name}" in out


def test_cli_generate_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", "--kind", "ar1", "--length", "30", "--seed", "7",
          "--out", str(a)])
    main(["generate", "--kind", "ar1", "--length", "30", "--seed", "7",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_log_variable_naming_no_level_falls_back_to_warning(tmp_path, monkeypatch):
    # basic_format names a logging attribute that is a string, not a level
    monkeypatch.setenv("QUANTRL_LOG", "basic_format")
    monkeypatch.setattr(logging.root, "handlers", [])  # so basicConfig configures
    monkeypatch.setattr(logging.root, "level", logging.root.level)
    assert main(["generate", "--kind", "ar1", "--length", "30",
                 "--out", str(tmp_path / "a.csv")]) == 0
    assert logging.root.level == logging.WARNING


def test_cli_config_error_exit_code(tmp_path):
    # no data source at all -> configuration error
    assert main(["train", "--out", str(tmp_path / "r")]) == 1


def test_cli_stage_failure_exit_code(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "r")]) == 2


def test_cli_evaluate_truncated_checkpoint_exit_code(tmp_path, capsys):
    data = tmp_path / "m.csv"
    main(["generate", "--kind", "sawtooth", "--length", "16", "--out", str(data)])
    checkpoint = tmp_path / "net.qnet"
    save_checkpoint(ActorCriticNet(obs_dim=8, seed=0), checkpoint)
    checkpoint.write_bytes(checkpoint.read_bytes()[:100])
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                 "--out", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(checkpoint) in err[0]


_EVALUATION = ("date,action,price,asset_value\n"
               "2022-01-07,buy,100,1000\n2022-01-14,sell,101,1010\n")


@pytest.mark.parametrize("text, detail", [
    (_EVALUATION.replace("sell", "jump"), "row 3: unknown action 'jump'"),
    ("date,action,price\n2022-01-07,buy,100\n", "missing column(s) asset_value"),
    (_EVALUATION.replace("2022-01-14", "2022-13-14"), "row 3: "),
    (_EVALUATION.replace("101,", "1o1,"), "row 3: "),
    (_EVALUATION.replace("101,", "nan,"), "row 3: price='nan' is not finite"),
    (_EVALUATION.replace("1010", "inf"), "row 3: asset_value='inf' is not finite"),
    (_EVALUATION.replace("1010", "-5"), "row 3: asset_value='-5' is not positive"),
    (_EVALUATION.replace("100,", "0,"), "row 2: price='0' is not positive"),
    (_EVALUATION.replace("2022-01-14", "2022-01-07"),
     "row 3: date 2022-01-07 does not follow 2022-01-07"),
    (_EVALUATION.replace("2022-01-14", "2021-12-31"),
     "row 3: date 2021-12-31 does not follow 2022-01-07"),
    ("# stamp\n" + _EVALUATION.replace("2022-01-14", "# note\n2022-01-14"),
     "row 4: unknown action None"),
    ("", "empty file, expected a header row"),
    ("# stamp\ndate,action,price,asset_value\n", "no data rows"),
    (None, "No such file"),
    (b"date,action\n\x89PNG\n", "not a text file"),
], ids=["unknown-action", "missing-column", "bad-date", "bad-number", "nan-price",
        "inf-asset", "nonpositive-asset", "nonpositive-price", "repeated-date", "earlier-date", "comment-after-header", "empty",
        "header-only", "missing-file", "binary"])
def test_cli_report_malformed_evaluation_exit_code(tmp_path, capsys, text, detail):
    path = tmp_path / "evaluation.csv"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["report", "--evaluation", str(path),
                 "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert detail in err[0]


@pytest.mark.parametrize("args", [
    ["--kind", "sawtooth", "--length", "3"],
    ["--kind", "trend", "--slope", "-0.1", "--length", "20"],
    ["--kind", "ar1", "--sigma", "-1", "--length", "20"],
    ["--kind", "white-noise", "--sigma", "1e300", "--length", "20"],
], ids=["short", "negative-close", "negative-sigma", "overflow"])
def test_cli_generate_rejects_bad_spec(tmp_path, args):
    out = tmp_path / "x.csv"
    assert main(["generate", *args, "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_evaluate_observation_dim_mismatch_exit_code(tmp_path, capsys):
    checkpoint = tmp_path / "net.qnet"
    save_checkpoint(ActorCriticNet(obs_dim=9, seed=0), checkpoint)
    data = _short_csv(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                 "--out", str(tmp_path / "ev")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: checkpoint expects observation dim 9, data gives 8 "
        "(forecast column or position flag mismatch)"]
    assert not (tmp_path / "ev").exists()


def test_cli_report_and_evaluate(tmp_path, capsys):
    data = tmp_path / "m.csv"
    main(["generate", "--kind", "sawtooth", "--length", "16", "--out", str(data)])
    run_dir = tmp_path / "run"
    assert main(["train", "--data", str(data), "--strategy", "classical",
                 "--episodes", "3", "--workers", "1",
                 "--out", str(run_dir), "--seed", "0"]) == 0
    assert main(["evaluate", "--checkpoint", str(run_dir / "checkpoint.qnet"),
                 "--data", str(data), "--out", str(tmp_path / "ev")]) == 0
    assert main(["report", "--evaluation", str(run_dir / "evaluation.csv"),
                 "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "Sharpe Ratio" in out
    assert (tmp_path / "rep" / "metrics.csv").exists()


def test_cli_train_and_report_on_a_one_row_series(tmp_path, capsys):
    data = tmp_path / "m.csv"
    data.write_text("date,close,vix,fedfunds,dgs2,dgs10,hy_spread\n"
                    "2022-01-07,100,20,4.5,4,3.8,3.5\n")
    run_dir = tmp_path / "run"
    assert main(["train", "--data", str(data), "--strategy", "classical",
                 "--episodes", "2", "--out", str(run_dir), "--seed", "0"]) == 0
    assert (run_dir / "metrics.txt").exists()
    assert main(["report", "--evaluation", str(run_dir / "evaluation.csv"),
                 "--out", str(tmp_path / "rep")]) == 0
    assert "Sharpe Ratio                 n/a (needs at least two returns)" in (
        capsys.readouterr().out)


def test_cli_matrix_subcommand(tmp_path, capsys):
    assert main(["matrix", "--synthetic-kind", "sawtooth",
                 "--synthetic-length", "16", "--strategies", "random",
                 "--out", str(tmp_path / "m"), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Time in Market" in out


def test_cli_forecast_exports_one_forecast_column(tmp_path, capsys):
    data = tmp_path / "m.csv"
    assert main(["generate", "--kind", "ar1", "--length", "40", "--seed", "3",
                 "--out", str(data)]) == 0
    flags = ["--epochs", "5", "--hidden", "4", "--lookback", "4", "--seed", "1"]
    assert main(["forecast", "--data", str(data), "--out", str(tmp_path / "fc"),
                 *flags]) == 0
    exported = tmp_path / "fc" / "data_with_forecast.csv"
    header = exported.read_text().splitlines()[0].split(",")
    assert header.count("forecast") == 1
    model = load_forecaster(tmp_path / "fc" / "forecaster.qlstm")
    want = forecast_series(model, load_series(data, 0.8))
    np.testing.assert_array_almost_equal(
        tradeenv.load_market_csv(exported).forecast, want, decimal=8)

    # an input that already has the column gets it replaced, not repeated
    assert main(["forecast", "--data", str(exported), "--out", str(tmp_path / "again"),
                 *flags]) == 0
    again = (tmp_path / "again" / "data_with_forecast.csv").read_text()
    assert again.splitlines()[0].split(",").count("forecast") == 1
    assert again == exported.read_text()
    assert "validation rmse=" in capsys.readouterr().out


def test_forecast_export_finds_basic_format_dates(tmp_path):
    data = tmp_path / "m.csv"
    assert main(["generate", "--kind", "ar1", "--length", "40", "--seed", "3",
                 "--out", str(data)]) == 0
    lines = data.read_text().splitlines(keepends=True)
    basic = tmp_path / "basic.csv"  # 2022-01-07 -> 20220107
    basic.write_text("".join(lines[:1] + [line.replace("-", "", 2) for line in lines[1:]]))
    config = ForecastConfig(epochs=5, hidden=4, lookback=4, seed=1)
    columns = []
    for path in (data, basic):
        experiment.export_forecast(path, tmp_path / path.stem, config)
        _, records = tradeenv.read_table(
            tmp_path / path.stem / "data_with_forecast.csv", ("forecast",))
        columns.append([record["forecast"] for _, record in records])
    assert columns[0] == columns[1]
    assert float(columns[1][-1]) != 0.0


def test_forecast_export_reads_its_input_once(tmp_path, monkeypatch):
    data = tmp_path / "m.csv"
    assert main(["generate", "--kind", "ar1", "--length", "40", "--out", str(data)]) == 0
    reads = []
    read_table = tradeenv.read_table
    monkeypatch.setattr(tradeenv, "read_table",
                        lambda path, columns: reads.append(path) or read_table(path, columns))
    experiment.export_forecast(data, tmp_path / "fc", ForecastConfig(epochs=2, hidden=4,
                                                                   lookback=4))
    assert reads == [data]


@pytest.mark.parametrize("lr", ["inf", "nan"])
def test_cli_forecast_non_finite_learning_rate_exit_code(tmp_path, capsys, lr):
    data = tmp_path / "m.csv"
    assert main(["generate", "--kind", "ar1", "--length", "40", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["forecast", "--data", str(data), "--out", str(tmp_path / "fc"),
                 "--epochs", "2", "--lr", lr]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert "learning_rate" in err[0]
    assert not (tmp_path / "fc").exists()


def _short_csv(tmp_path):
    path = tmp_path / "short.csv"
    main(["generate", "--kind", "ar1", "--length", "12", "--out", str(path)])
    return path


def _checkpoint(tmp_path):
    path = tmp_path / "net.qnet"
    save_checkpoint(ActorCriticNet(obs_dim=8, seed=0), path)
    return path


def _binary(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(np.random.default_rng(0).bytes(300))
    return path


@pytest.mark.parametrize("argv, code", [
    (lambda t: ["forecast", "--data", str(_short_csv(t)), "--out", str(t / "fc"),
                "--lookback", "12"], 2),
    (lambda t: ["forecast", "--data", str(_short_csv(t)), "--out", str(t / "fc"),
                "--lookback", "0"], 1),
    (lambda t: ["evaluate", "--checkpoint", str(_checkpoint(t)),
                "--data", str(_short_csv(t)), "--out", str(t / "ev"),
                "--train-fraction", "2"], 1),
    (lambda t: ["generate", "--kind", "ar1", "--length", "12",
                "--out", str(t / "nodir" / "x.csv")], 2),
    (lambda t: ["train", "--data", str(_short_csv(t)), "--strategy", "random",
                "--out", str(t / "short.csv" / "sub")], 2),
    (lambda t: ["forecast", "--data", str(_binary(t)), "--out", str(t / "fc")], 2),
], ids=["forecast-too-short", "forecast-lookback-0", "evaluate-train-fraction",
        "generate-missing-dir", "train-out-under-a-file", "forecast-binary"])
def test_cli_failure_is_one_line_and_leaves_no_file(tmp_path, capsys, argv, code):
    args = argv(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith("configuration error: " if code == 1 else "error: ")
    assert [p for p in sorted(tmp_path.rglob("*")) if p.is_file()] == \
        [p for p in before if p.is_file()]


def test_cli_out_dir_comes_from_config_file_unless_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("c.ini").write_text("[experiment]\nstrategy = random\nout_dir = fromfile\n"
                             "[synthetic]\nkind = sawtooth\nlength = 16\n")
    assert main(["train", "--config", "c.ini"]) == 0
    assert Path("fromfile", "config.ini").is_file() and not Path("run").exists()
    assert main(["matrix", "--synthetic-kind", "trend", "--strategies", "random"]) == 0
    assert Path("matrix", "matrix_table.csv").is_file()


@pytest.mark.parametrize("flags, kind, length", [
    (["--synthetic-kind", "trend"], "trend", 40),
    (["--synthetic-length", "30"], "sawtooth", 30),
], ids=["kind", "length"])
def test_cli_synthetic_flags_replace_only_their_key(tmp_path, flags, kind, length):
    ini = tmp_path / "c.ini"
    ini.write_text("[experiment]\nstrategy = random\n[synthetic]\n"
                   "kind = sawtooth\nlength = 40\nperiod = 4\n")
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "r"),
                 *flags]) == 0
    spec = load_config_ini(tmp_path / "r" / "config.ini").synthetic
    assert (spec.kind, spec.length, spec.period) == (kind, length, 4)


def test_cli_module_runs_without_import_warning(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "quantrl.cli", "--help"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cli_config_file_takes_synthetic_kind_flag(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[experiment]\nstrategy = random\n")
    assert main(["train", "--config", str(ini), "--synthetic-kind", "sawtooth",
                 "--synthetic-length", "16", "--out", str(tmp_path / "r")]) == 0
    assert "kind = sawtooth" in (tmp_path / "r" / "config.ini").read_text()


@pytest.mark.parametrize("given", ["data", "synthetic-kind"])
def test_cli_given_data_source_replaces_the_config_files(tmp_path, given):
    data = str(generate(SyntheticSpec("trend", 20), tmp_path / "d.csv"))
    csv_flags, synthetic_flags = ["--data", data], ["--synthetic-kind", "trend"]
    first, then = ((synthetic_flags, csv_flags) if given == "data"
                   else (csv_flags, synthetic_flags))
    assert main(["train", "--strategy", "random", "--out", str(tmp_path / "a"),
                 *first]) == 0
    assert main(["train", "--config", str(tmp_path / "a" / "config.ini"),
                 "--out", str(tmp_path / "b"), *then]) == 0
    rerun = load_config_ini(tmp_path / "b" / "config.ini")
    if given == "data":
        assert (rerun.data, rerun.synthetic) == (data, None)
    else:
        assert rerun.data is None and rerun.synthetic.kind == "trend"


def test_cli_synthetic_length_without_a_spec_is_a_config_error(tmp_path, capsys):
    data = generate(SyntheticSpec("trend", 20), tmp_path / "d.csv")
    assert main(["train", "--data", str(data), "--synthetic-length", "30",
                 "--strategy", "random", "--out", str(tmp_path / "r")]) == 1
    assert "--synthetic-length" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
