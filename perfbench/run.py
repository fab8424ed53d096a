"""quantrl benchmark: training throughput, decision latency and set-up time.

Run from the repository root:

    python3 perfbench/run.py --workload a3c-classical --seed 1 --seconds 30 --trace 0

Workloads (one client, closed loop: the next timed run starts only when
the previous one has finished):

  a3c-classical  a3c.train + greedy evaluation on c06's sawtooth, dense head.
                 Many tiny per-step tape ops; qsim is never called, so a qsim
                 change must read "no change" here.
  a3c-quantum    the same series and hyperparameters with the quantum head
                 (latent 4, depth 2), the quantum config of c06/c11/demo 05.
                 qsim dominates training and greedy decisions.
  lstm-pipeline  experiment.run_experiment for classical+lstm on an AR(1)
                 series of 520 weekly rows with noisy macro columns, two A3C
                 workers and every artifact: the tape as a few large batched
                 BPTT ops, plus ingest, metrics, svgplot and checkpoints.

The a3c workloads chain their timed runs: each run trains a fixed number of
episodes starting from the previous run's parameters (a fresh optimizer per
run), so the first ``chain`` runs form one deterministic training of
``chain * episodes`` episodes whose final rewards give ``learn_score``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: medians
over the timed runs, scaled to nominal host speed (see ``calibrate``). With
``--trace 1`` it holds the per-layer metrics of a separate traced run. Per-run records, spans and the run record are written
under ``.perfbench/``. The program is imported from ``src/`` of the checkout
this file sits in; without it the benchmark exits with status 2.
"""

from time import perf_counter

_PROCESS_START = perf_counter()  # set-up time starts before the heavy imports

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the benchmark uses at most two threads (the two A3C
# workers of lstm-pipeline) and numpy pools would add more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from spans import Tracer, root_of, summarize, wrap_function, write_spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

EVAL_REPEATS = 10         # greedy rollouts timed per run for eval_us_per_step
SETUP_CHILDREN = 5        # extra set-ups in fresh processes for setup_s
CAL_NOMINAL_S = 0.004     # calibration kernel time that defines nominal host speed
HARD_STOP_S = 150.0       # leave the run loop here whatever is pending

# lstm-pipeline fits the forecaster for 100 epochs, not the default 300: a run
# then takes about 3 s, so 30 s hold about ten runs instead of five, and
# training and the forecaster weigh about the same in run_s.
FORECAST_EPOCHS = 100
A3C_TRAIN = dict(gamma=0.95, update_every=20, learning_rate=1e-3,
                 entropy_coeff=0.01, vqc_depth=2, optimizer="adam",
                 clip_norm=40.0)

WORKLOADS = {
    # learn_floor: the chained training must reach this share of the
    # optimum, far above a random policy and below every seed measured.
    "a3c-classical": dict(kind="a3c", head_kind="classical", latent_dim=8,
                          episodes=80, chain=10, learn_floor=0.45),
    "a3c-quantum": dict(kind="a3c", head_kind="quantum", latent_dim=4,
                        episodes=10, chain=16, learn_floor=0.1),
    "lstm-pipeline": dict(kind="pipeline", head_kind="classical", latent_dim=8,
                          episodes=30, chain=1, workers=2),
}

PIPELINE_ARTIFACTS = (
    "config.ini", "evaluation.csv", "metrics.txt", "metrics.csv",
    "action_timeline.svg", "equity_curve.svg", "training_history.csv",
    "reward_curve.svg", "checkpoint.qnet",
)
STAGE_SPANS = {
    "ingest": ("tradeenv.load_market_csv", "tradeenv.zscore"),
    "forecast": ("forecaster.build_windows", "forecaster.train",
                 "forecaster.forecast_series", "tradeenv.attach_forecast"),
    "train": ("a3c.train",),
    "evaluate": ("a3c.evaluate_policy",),
    "metrics": ("metrics.summary",),
}


def _import_program():
    if not (SRC / "quantrl" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'quantrl'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import quantrl
    if Path(quantrl.__file__).resolve().parent != (SRC / "quantrl").resolve():
        print(f"perfbench: imported quantrl from {quantrl.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return quantrl


# -- workload state ---------------------------------------------------------

@dataclass
class Workload:
    name: str
    seed: int
    spec: dict
    work: Path
    csv: Path
    closes: object
    optimum: float
    series: object = None
    obs_dim: int = 0
    theta: object = None                 # chained parameters (a3c)
    rewards: list = field(default_factory=list)

    def train_config(self, a3c, episodes=None):
        return a3c.TrainConfig(
            max_episodes=episodes or self.spec["episodes"],
            n_workers=self.spec.get("workers", 1), seed=self.seed,
            head_kind=self.spec["head_kind"], latent_dim=self.spec["latent_dim"],
            **A3C_TRAIN,
        )

    def pipeline_config(self, q, out_dir, episodes=None, epochs=FORECAST_EPOCHS):
        return q.experiment.ExperimentConfig(
            data=str(self.csv), strategy="classical", use_forecast=True,
            out_dir=str(out_dir), seed=self.seed, train_fraction=0.8,
            train=self.train_config(q.a3c, episodes),
            env=q.tradeenv.EnvConfig(trade_cost_rate=0.001, initial_cash=10_000.0,
                                     include_position_in_state=True),
            forecast=q.forecaster.ForecastConfig(
                lookback=8, hidden=32, epochs=epochs, learning_rate=0.01,
                seed=self.seed, train_fraction=0.8, direction_only=False),
        )


def make_inputs(name: str, seed: int, work: Path) -> Workload:
    spec = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    csv = work / "series.csv"
    if spec["kind"] == "a3c":
        closes = inputs.sawtooth_closes(seed)
        inputs.write_csv(csv, closes, macro_noise_seed=None)
    else:
        closes = inputs.ar1_closes(seed)
        inputs.write_csv(csv, closes, macro_noise_seed=seed)
    return Workload(name, seed, spec, work, csv, closes,
                    inputs.optimal_profit(closes))


def ingest(q, w: Workload):
    series = q.tradeenv.load_market_csv(w.csv)
    with warnings.catch_warnings():
        # c06's sawtooth has constant macro columns, which zscore flags
        warnings.filterwarnings("ignore", message=".*is constant over the training prefix")
        return q.tradeenv.zscore(series, 1.0)


def make_net(q, w: Workload, theta=None):
    net = q.a3c.ActorCriticNet(w.obs_dim, head_kind=w.spec["head_kind"],
                               latent_dim=w.spec["latent_dim"],
                               vqc_depth=A3C_TRAIN["vqc_depth"], seed=w.seed)
    if theta is not None:
        net.set_flat(theta)
    return net


def env_factory(q, w: Workload):
    return lambda: q.tradeenv.TradingEnv(w.series, q.tradeenv.EnvConfig())


def setup(q, w: Workload) -> None:
    """Ingest, build a net and make one warm-up pass through the hot path."""
    w.series = ingest(q, w)
    if w.spec["kind"] == "a3c":
        w.obs_dim = env_factory(q, w)().observation_dim
        net = make_net(q, w)
        q.a3c.train(w.train_config(q.a3c, episodes=1), env_factory(q, w),
                    lambda: make_net(q, w))
        q.a3c.evaluate_policy(net, env_factory(q, w)())
    else:
        q.experiment.run_experiment(
            w.pipeline_config(q, w.work / "warmup", episodes=1, epochs=2))


# -- checks -----------------------------------------------------------------

def check_history(history, episodes: int) -> list[str]:
    problems = []
    if len(history.rewards) != episodes:
        problems.append(f"{len(history.rewards)} episodes, expected {episodes}")
    if not all(math.isfinite(r) for r in history.rewards):
        problems.append("non-finite episode reward")
    return problems


def check_accounting(run, initial_cash: float) -> list[str]:
    profit = sum(t.profit for t in run.trades)
    gap = run.final_asset - initial_cash - profit
    if not abs(gap) <= 1e-6 * max(1.0, abs(profit)):
        return [f"accounting identity off by {gap!r}"]
    return []


def check_pipeline(tracer, out_dir: Path, n_rows: int) -> list[str]:
    problems = [f"missing artifact {name}" for name in PIPELINE_ARTIFACTS
                if not (out_dir / name).is_file() or (out_dir / name).stat().st_size == 0]
    call = tracer.last.get("forecaster.forecast_series")
    if call is None:
        problems.append("forecast_series was not called")
    else:
        vector = np.asarray(call.result)
        if vector.shape != (n_rows,) or not np.all(np.isfinite(vector)):
            problems.append("forecast vector is not finite or has the wrong length")
    return problems


# -- timed runs -------------------------------------------------------------

@dataclass
class RunResult:
    run_s: float
    train_s: float
    eval_s_per_step: list               # one reading per greedy rollout
    problems: list

    def at_speed(self, speed: float) -> "RunResult":
        return RunResult(self.run_s * speed, self.train_s * speed,
                         [t * speed for t in self.eval_s_per_step], self.problems)


def _calibration_kernel() -> float:
    w = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    x = np.linspace(0.0, 1.0, 8)
    acc = 0.0
    start = perf_counter()
    for i in range(1000):
        h = np.tanh(w @ x + 0.1)
        acc += float(h.sum()) * 0.5
        _ = {"i": i, "acc": acc}
    return perf_counter() - start


def calibrate() -> float:
    """Seconds of a fixed, benchmark-owned kernel of small numpy ops and
    interpreter work, the mix quantrl's hot paths are made of (median of 5).

    Other tenants of a shared host slow this process by up to 2x, in phases
    that last from seconds to many minutes. Every reported time is scaled by
    CAL_NOMINAL_S / calibrate(), measured just before and just after it, so
    it reads as seconds on a host where the kernel takes CAL_NOMINAL_S. No
    program change can alter the kernel, so the scaling leaves commits
    comparable. The run record keeps every scaled sample and kernel time.
    """
    return statistics.median(_calibration_kernel() for _ in range(5))


def run_once(q, tracer, w: Workload, index: int, traced: bool):
    """One timed run plus its checks and the untimed-for-run_s greedy repeats."""
    a3c = q.a3c
    problems: list[str] = []
    tracer.enabled = traced
    start = perf_counter()
    if w.spec["kind"] == "a3c":
        theta = w.theta
        history = a3c.train(w.train_config(a3c), env_factory(q, w),
                            lambda: make_net(q, w, theta))
        net = make_net(q, w, history.final_theta)
        env = env_factory(q, w)()
        evaluation = a3c.evaluate_policy(net, env)
        run_s = perf_counter() - start
        tracer.enabled = False
        w.theta = history.final_theta
    else:
        out_dir = w.work / "run"
        artifacts = q.experiment.run_experiment(w.pipeline_config(q, out_dir))
        run_s = perf_counter() - start
        tracer.enabled = False
        history, evaluation = artifacts.history, artifacts.evaluation
        net, env = tracer.last["a3c.evaluate_policy"].args[:2]
        problems += check_pipeline(tracer, out_dir, len(w.closes))
    train_s = tracer.last["a3c.train"].seconds
    if index < w.spec["chain"]:
        w.rewards.extend(history.rewards)
    problems += check_history(history, w.spec["episodes"])
    problems += check_accounting(evaluation, env.config.initial_cash)

    eval_per_step = []
    for _ in range(EVAL_REPEATS):
        eval_start = perf_counter()
        steps = len(a3c.evaluate_policy(net, env).actions)
        eval_per_step.append((perf_counter() - eval_start) / steps)
    return RunResult(run_s, train_s, eval_per_step, problems), history


def learn_score(w: Workload) -> float:
    tail = w.rewards[-max(1, len(w.rewards) // 4):]
    return sum(tail) / len(tail) / w.optimum


# -- per-layer readings -----------------------------------------------------

def install_tracing(q):
    tracer = Tracer()
    modules = [getattr(q, m) for m in ("a3c", "diffnet", "experiment", "forecaster",
                                       "metrics", "qsim", "svgplot", "tradeenv", "cli")
               if hasattr(q, m)] + [q]

    def fn(module, attr, name, **kw):
        wrap_function(tracer, modules, module, attr, name, **kw)

    def circuits(args):
        x, params = args[0], args[1]
        n_params = params.n_qubits + params.depth * params.n_qubits * 2
        tracer.count("qsim.grad.circuits", 2 * len(x) * n_params)

    def rejected(exc):
        if isinstance(exc, q.errors.GradientRejected):
            tracer.count("a3c.grad_rejected")

    fn(q.qsim, "run_vqc_batch", "qsim.forward")
    fn(q.qsim, "vqc_gradients_batch", "qsim.grad", on_call=circuits)
    tracer.wrap(q.diffnet.Tape, "backward", "diffnet.backward")
    tracer.wrap(q.diffnet.Tape, "lstm", "diffnet.lstm")
    tracer.wrap(q.diffnet.AdamOptimizer, "step", "diffnet.optimizer_step")
    tracer.wrap(q.diffnet.SgdOptimizer, "step", "diffnet.optimizer_step")
    fn(q.diffnet, "categorical_sample", "diffnet.categorical_sample")
    tracer.wrap(q.a3c.ActorCriticNet, "policy_probs", "a3c.policy_probs")
    tracer.wrap(q.a3c.ActorCriticNet, "value", "a3c.value")
    fn(q.a3c, "compute_loss_and_grads", "a3c.loss_grads")
    tracer.wrap(q.a3c.GlobalParams, "push_and_pull", "a3c.push_pull",
                on_error=rejected)
    fn(q.a3c, "train", "a3c.train", probe=True)
    fn(q.a3c, "evaluate_policy", "a3c.evaluate_policy", probe=True)
    tracer.wrap(q.tradeenv.TradingEnv, "step", "tradeenv.step")
    fn(q.tradeenv, "load_market_csv", "tradeenv.load_market_csv")
    fn(q.tradeenv, "zscore", "tradeenv.zscore")
    fn(q.tradeenv, "attach_forecast", "tradeenv.attach_forecast")
    fn(q.forecaster, "build_windows", "forecaster.build_windows")
    fn(q.forecaster, "train_forecaster", "forecaster.train", probe=True)
    fn(q.forecaster, "forecast_series", "forecaster.forecast_series", probe=True)
    fn(q.metrics, "summary_metrics", "metrics.summary")
    for attr in ("reward_curve_svg", "action_timeline_svg", "equity_curve_svg"):
        fn(q.svgplot, attr, "svgplot.render")
    fn(q.experiment, "run_experiment", "experiment.run")
    return tracer


def _median_call(fn, calls: int, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples)


MICRO_METRICS = ("qsim.forward_us.n4", "qsim.forward_us.n8", "qsim.grad_ms.n4",
                 "qsim.grad_ms.n8", "qsim.grad_mb.n8")


def qsim_micro(q, seed: int) -> tuple[dict, list]:
    """Forward and parameter-shift timings at fixed inputs, and a
    central-difference spot check of the gradients at n=4."""
    qsim = q.qsim
    rng = np.random.default_rng([seed, 3])
    depth, batch = 2, 20
    out = {}
    for n, fwd_calls, grad_rounds in ((4, 100, 15), (8, 50, 3)):
        params = qsim.VqcParams(n, depth, rng.uniform(-np.pi, np.pi, (depth, n, 2)))
        x1 = rng.uniform(-1, 1, (1, n))
        xb = rng.uniform(-1, 1, (batch, n))
        up = rng.normal(size=(batch, n))
        out[f"qsim.forward_us.n{n}"] = 1e6 * _median_call(
            lambda: qsim.run_vqc_batch(x1, params), fwd_calls, 5)
        out[f"qsim.grad_ms.n{n}"] = 1e3 * _median_call(
            lambda: qsim.vqc_gradients_batch(xb, params, up), 1, grad_rounds)
    n_params = 8 + depth * 8 * 2
    out["qsim.grad_mb.n8"] = 2 * batch * n_params * (1 << 8) * 16 / 1e6

    n, h = 4, 1e-6
    angles = rng.uniform(-np.pi, np.pi, (depth, n, 2))
    x = rng.uniform(-0.9, 0.9, (3, n))
    up = rng.normal(size=(3, n))

    def f(xv, av):
        return float(np.sum(up * qsim.run_vqc_batch(xv, qsim.VqcParams(n, depth, av))))

    pg, ig = qsim.vqc_gradients_batch(x, qsim.VqcParams(n, depth, angles), up)
    worst = 0.0
    for idx in np.ndindex(angles.shape):
        plus, minus = angles.copy(), angles.copy()
        plus[idx] += h
        minus[idx] -= h
        worst = max(worst, abs((f(x, plus) - f(x, minus)) / (2 * h) - pg[idx]))
    for idx in np.ndindex(x.shape):
        plus, minus = x.copy(), x.copy()
        plus[idx] += h
        minus[idx] -= h
        worst = max(worst, abs((f(plus, angles) - f(minus, angles)) / (2 * h) - ig[idx]))
    problems = [] if worst <= 1e-6 else [f"qsim gradient off finite differences by {worst:.3g}"]
    return out, problems


class LayerTotals:
    """Sums span summaries over the traced runs of one benchmark run."""

    def __init__(self):
        self.runs = 0
        self.wall = 0.0
        self.by_name: dict[str, list] = {}
        self.coverage: list[float] = []
        self.counters: dict[str, float] = {}
        self.stages = {stage: 0.0 for stage in (*STAGE_SPANS, "emit")}

    def add(self, spans, counters: dict, lo: float, hi: float) -> None:
        summary = summarize(spans, lo, hi)
        self.runs += 1
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.wall += hi - lo
        self.coverage.append(summary["coverage"])
        for name, (calls, incl, self_s) in summary["by_name"].items():
            entry = self.by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        stage_of = {name: stage for stage, names in STAGE_SPANS.items() for name in names}
        for span in spans:
            name, start, end = span[0], span[1], span[2]
            if name in stage_of and root_of(span)[0] == "experiment.run":
                self.stages[stage_of[name]] += end - start
        runs = [s for s in spans if s[0] == "experiment.run"]
        summaries = [s for s in spans if s[0] == "metrics.summary"
                     and root_of(s)[0] == "experiment.run"]
        if runs and summaries:
            self.stages["emit"] += runs[-1][2] - max(s[2] for s in summaries)

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0) / max(1, self.runs)

    def calls(self, name: str) -> float:
        return self.by_name.get(name, [0])[0] / max(1, self.runs)

    def per_call(self, name: str, kind: int, scale: float) -> float:
        entry = self.by_name.get(name)
        return scale * entry[kind] / entry[0] if entry else 0.0

    def share(self, name: str) -> float:
        entry = self.by_name.get(name)
        return entry[1] / self.wall if entry and self.wall else 0.0


def layer_metrics(t: LayerTotals, extra: dict) -> dict:
    incl, own = 1, 2
    forecast_calls = t.by_name.get("forecaster.train", [0, 0.0])
    epochs = FORECAST_EPOCHS * forecast_calls[0]
    m = {
        "qsim.forward.calls": t.calls("qsim.forward"),
        "qsim.forward.us_per_call": t.per_call("qsim.forward", incl, 1e6),
        "qsim.forward.share": t.share("qsim.forward"),
        "qsim.grad.calls": t.calls("qsim.grad"),
        "qsim.grad.ms_per_call": t.per_call("qsim.grad", incl, 1e3),
        "qsim.grad.share": t.share("qsim.grad"),
        "qsim.grad.circuits": t.counter("qsim.grad.circuits"),
        "diffnet.backward.calls": t.calls("diffnet.backward"),
        "diffnet.backward.self_ms_per_call": t.per_call("diffnet.backward", own, 1e3),
        "diffnet.backward.share": t.share("diffnet.backward"),
        "diffnet.lstm.calls": t.calls("diffnet.lstm"),
        "diffnet.lstm.us_per_call": t.per_call("diffnet.lstm", incl, 1e6),
        "diffnet.optimizer_step.us_per_call": t.per_call("diffnet.optimizer_step", incl, 1e6),
        "diffnet.categorical_sample.us_per_call":
            t.per_call("diffnet.categorical_sample", incl, 1e6),
        "a3c.policy_probs.calls": t.calls("a3c.policy_probs"),
        "a3c.policy_probs.self_us_per_call": t.per_call("a3c.policy_probs", own, 1e6),
        "a3c.policy_probs.share": t.share("a3c.policy_probs"),
        "a3c.value.calls": t.calls("a3c.value"),
        "a3c.loss_grads.calls": t.calls("a3c.loss_grads"),
        "a3c.loss_grads.self_ms_per_call": t.per_call("a3c.loss_grads", own, 1e3),
        "a3c.loss_grads.share": t.share("a3c.loss_grads"),
        "a3c.push_pull.calls": t.calls("a3c.push_pull"),
        "a3c.push_pull.us_per_call": t.per_call("a3c.push_pull", incl, 1e6),
        "a3c.grad_rejected": t.counter("a3c.grad_rejected"),
        "tradeenv.step.calls": t.calls("tradeenv.step"),
        "tradeenv.step.us_per_call": t.per_call("tradeenv.step", incl, 1e6),
        "tradeenv.step.share": t.share("tradeenv.step"),
        "forecaster.train.ms_per_epoch": 1e3 * forecast_calls[1] / epochs if epochs else 0.0,
        "forecaster.train.share": t.share("forecaster.train"),
        "forecaster.forecast_series_ms": t.per_call("forecaster.forecast_series", incl, 1e3),
        "forecast_epochs_per_s": epochs / forecast_calls[1] if epochs else 0.0,
        "metrics.summary_ms": t.per_call("metrics.summary", incl, 1e3),
        "svgplot.render_ms": t.per_call("svgplot.render", incl, 1e3),
    }
    for stage, seconds in t.stages.items():
        m[f"experiment.stage.{stage}_s"] = seconds / max(1, t.runs)
    m["trace.coverage"] = statistics.median(t.coverage) if t.coverage else 0.0
    m.update(extra)
    return m


# -- run record -------------------------------------------------------------

def run_record(q) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "quantrl").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "quantrl_version": getattr(q, "__version__", None),
    }


def reward_digest(rewards) -> str:
    return hashlib.sha256(np.asarray(rewards, dtype=np.float64).tobytes()).hexdigest()[:16]


# -- main -------------------------------------------------------------------

def measure_setup_children(args) -> list[float]:
    """Set up in fresh interpreters, one after another, for setup_s."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    q = _import_program()
    own_start = perf_counter()  # the benchmark's own work is not set-up time
    tracer = install_tracing(q)
    work = OUT / f"work-{os.getpid()}"
    try:
        w = make_inputs(args.workload, args.seed, work)
        own_s = perf_counter() - own_start
        setup(q, w)
        setup_s = (perf_counter() - _PROCESS_START - own_s) * CAL_NOMINAL_S / calibrate()
        if args.setup_only:
            print(setup_s)
            return 0
        return measure(q, tracer, w, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(q, tracer, w: Workload, args, own_setup_s: float) -> int:
    setup_samples = [own_setup_s]
    if not args.trace:
        setup_samples += measure_setup_children(args)
    record = run_record(q)
    problems: list[str] = []
    extra: dict = {}
    if args.trace:
        extra = dict.fromkeys(MICRO_METRICS, 0.0)
        try:
            micro, problems = qsim_micro(q, args.seed)
            extra.update(micro)
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            problems.append(f"qsim micro run raised {exc!r}")
        extra["tradeenv.ingest_ms"] = 1e3 * _median_call(lambda: ingest(q, w), 1, 7)

    results: list[RunResult] = []
    cal = [calibrate()]   # cal[i] and cal[i + 1] bracket timed run i
    traced_run_s: list[float] = []
    totals = LayerTotals()
    attempted = failed = 0
    first_history = None
    start = perf_counter()
    index = 0
    min_runs = max(w.spec["chain"], 2 if args.trace else 1)
    while index < min_runs or perf_counter() - start < args.seconds:
        if perf_counter() - start > HARD_STOP_S:
            problems.append(f"stopped after {index} runs at the {HARD_STOP_S:.0f} s limit")
            break
        traced = bool(args.trace) and index % 2 == 1
        tracer.reset()
        attempted += 1
        lo = perf_counter()
        try:
            result, history = run_once(q, tracer, w, index, traced)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            tracer.enabled = False
            failed += 1
            traceback.print_exc(file=sys.stderr)
            index += 1
            continue
        finally:
            cal.append(calibrate())
        speed = CAL_NOMINAL_S / (0.5 * (cal[-2] + cal[-1]))
        if first_history is None:
            first_history = history
        if result.problems:
            failed += 1
            print(f"perfbench: run {index}: {'; '.join(result.problems)}", file=sys.stderr)
        if traced:
            hi = lo + result.run_s
            totals.add(tracer.spans, tracer.counters, lo, hi)
            traced_run_s.append(result.run_s * speed)
            last_spans = (tracer.spans, lo)
        else:
            results.append(result.at_speed(speed))
        index += 1

    if not results:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    if index >= w.spec["chain"]:
        score = learn_score(w)
        floor = w.spec.get("learn_floor")
        if floor is not None and not score >= floor:
            problems.append(f"learn_score {score:.3f} below the floor {floor}")
    else:
        score = 0.0
    if problems:
        attempted += 1
        failed += 1
        print("perfbench: " + "; ".join(problems), file=sys.stderr)

    record.update({
        "workload": w.name, "seed": w.seed, "seconds": args.seconds, "trace": args.trace,
        "runs": len(results) + len(traced_run_s), "optimum": w.optimum,
        "reward_digest": (reward_digest(first_history.rewards)
                          if w.spec.get("workers", 1) == 1 and first_history else None),
        "learn_score": score, "missing_wrap_targets": tracer.missing,
    })
    if args.trace:
        metrics = layer_metrics(totals, extra)
        metrics["learn_score"] = score
        metrics["failed_frac"] = failed / attempted
        metrics["trace.overhead_s"] = (
            lower_quartile(traced_run_s) - lower_quartile([r.run_s for r in results])
            if traced_run_s else 0.0)
        if traced_run_s:
            OUT.mkdir(exist_ok=True)
            write_spans(OUT / f"spans-{w.name}-s{w.seed}.tsv", *last_spans)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": lower_quartile([r.run_s for r in results]),
            "train_episodes_per_s":
                w.spec["episodes"] / lower_quartile([r.train_s for r in results]),
            "eval_us_per_step": 1e6 * lower_quartile(
                [t for r in results for t in r.eval_s_per_step]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_samples_s"] = setup_samples
        record["run_s_samples"] = [r.run_s for r in results]
        record["train_s_samples"] = [r.train_s for r in results]
        record["eval_us_per_step_samples"] = [
            round(1e6 * statistics.median(r.eval_s_per_step), 3) for r in results]
    record["calibration_ms"] = [round(1e3 * c, 4) for c in cal]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w.name}-s{w.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1, default=str)
    print("run-record " + json.dumps(record, default=str))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def lower_quartile(values: list) -> float:
    """The statistic of a run's scaled timings. The host's speed changes
    faster than the kernel timings around a run can follow, and the error
    left over only ever adds time, so the fastest part of a run's samples is
    the best corrected."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
