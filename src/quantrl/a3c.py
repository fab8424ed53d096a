"""Asynchronous advantage actor-critic trainer with pluggable classical or
hybrid-quantum policy/value heads.

Both heads share one layout: dense in -> tanh -> encoder -> tanh -> dense
out (softmax over {hold, buy, sell} for the policy, a scalar for the
value). The encoder is either a variational quantum circuit on
``latent_dim`` qubits or a same-width dense layer, so the two modes are
drop-in replacements for each other. Each net keeps its parameters and
their grads in one ``diffnet.FlatStore``, so the flat vectors a worker
pushes and pulls are one numpy call each way.

One taped forward gives the policy logits. Training applies the tape's
softmax to them; a decision (``policy_probs``) normalises its one row
with ``diffnet.softmax_row`` instead, the same bits with no tape op after
the logits. Neither a decision's input nor a trajectory's states take a
gradient.

Workers own a private environment and network copy. Every ``update_every``
steps (or at episode end) a worker computes n-step returns, pushes
gradients to the global parameter store and pulls the post-update
parameters back. The store holds the shared parameters and their
optimizer state, nothing else; ``train`` hands the workers one episode
budget and one reward log. The advantage is treated as a constant in the
policy term (no gradient flows through it), the standard actor-critic
formulation.

The workers are taken in turn on the calling thread, one push each, in
worker order. Each worker computes its gradient on its own copy, pulled
after its last push, while the others push in between, so the updates
stay asynchronous in A3C's sense. Only the interleaving is fixed: a run
with a fixed seed is bit-reproducible at any worker count.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import diffnet, qsim
from .diffnet import Dense, Node, Param, Tape, categorical_sample
from .errors import ConfigError, GradientRejected, IngestionError, TrainingError
from .metrics import Trade
from .tradeenv import ACTION_NAMES, BUY, SELL, TradingEnv, read_text_lines

N_ACTIONS = 3
_NAME_TO_ACTION = {name: action for action, name in ACTION_NAMES.items()}
_EVAL_COLUMNS = ("date", "action", "price", "asset_value")


@dataclass
class TrainConfig:
    gamma: float = 0.9
    update_every: int = 10          # steps between global pushes
    max_episodes: int = 3000
    n_workers: int = 1              # workers taken in turn on one thread
    learning_rate: float = 1e-3
    seed: int = 0
    head_kind: str = "classical"    # or "quantum"
    entropy_coeff: float = 0.0
    latent_dim: int = 8             # qubit count in quantum mode
    vqc_depth: int = 2
    optimizer: str = "adam"         # "sgd" keeps the plain update rule
    clip_norm: float | None = 40.0

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.update_every < 1:
            raise ConfigError("update_every must be >= 1")
        if self.max_episodes < 1:
            raise ConfigError("max_episodes must be >= 1")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if self.head_kind not in ("classical", "quantum"):
            raise ConfigError(f"unknown head_kind {self.head_kind!r}")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.head_kind == "quantum" and self.latent_dim > qsim.MAX_QUBITS:
            raise ConfigError(f"quantum latent_dim (qubits) must be <= "
                              f"{qsim.MAX_QUBITS}, got {self.latent_dim}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.vqc_depth < 1:
            raise ConfigError(f"vqc_depth must be >= 1, got {self.vqc_depth}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be None or > 0, got {self.clip_norm}")

    def build_net(self, obs_dim: int) -> "ActorCriticNet":
        """A fresh net of this config's architecture and seed."""
        return ActorCriticNet(obs_dim, head_kind=self.head_kind,
                              latent_dim=self.latent_dim,
                              vqc_depth=self.vqc_depth, seed=self.seed)


class ActorCriticNet:
    """Policy and value heads over a shared input dimension.

    Policy and value use separate encoders (two circuits in quantum mode);
    parameter order is fixed so flat vectors are interchangeable between
    identically-configured nets.
    """

    def __init__(self, obs_dim: int, head_kind: str = "classical",
                 latent_dim: int = 8, vqc_depth: int = 2, seed: int = 0):
        if head_kind not in ("classical", "quantum"):
            raise ConfigError(f"unknown head_kind {head_kind!r}")
        self.obs_dim = obs_dim
        self.head_kind = head_kind
        self.latent_dim = latent_dim
        self.vqc_depth = vqc_depth
        rng = np.random.default_rng(seed)

        def encoder():
            if head_kind == "quantum":
                return Param(rng.uniform(-0.1, 0.1, (vqc_depth, latent_dim, 2)))
            return Dense(latent_dim, latent_dim, rng)

        self.policy_in = Dense(obs_dim, latent_dim, rng)
        self.policy_encoder = encoder()
        self.policy_out = Dense(latent_dim, N_ACTIONS, rng)
        self.value_in = Dense(obs_dim, latent_dim, rng)
        self.value_encoder = encoder()
        self.value_out = Dense(latent_dim, 1, rng)
        self._store = diffnet.FlatStore(self.parameters())
        # one circuit per quantum encoder, built once on the store's view of
        # its angles, so set_flat and checkpoint loads reach it
        self.policy_circuit, self.value_circuit = (
            qsim.VqcParams(latent_dim, vqc_depth, e.value) if head_kind == "quantum" else None
            for e in (self.policy_encoder, self.value_encoder))

    @staticmethod
    def parameter_shapes(obs_dim: int, head_kind: str, latent_dim: int,
                         vqc_depth: int) -> list[tuple]:
        """Shapes of parameters() for this architecture, without building."""
        encoder = ([(vqc_depth, latent_dim, 2)] if head_kind == "quantum"
                   else Dense.parameter_shapes(latent_dim, latent_dim))
        head_in = Dense.parameter_shapes(obs_dim, latent_dim)
        return (head_in + encoder + Dense.parameter_shapes(latent_dim, N_ACTIONS)
                + head_in + encoder + Dense.parameter_shapes(latent_dim, 1))

    def parameters(self) -> list[Param]:
        params = []
        for part in (self.policy_in, self.policy_encoder, self.policy_out,
                     self.value_in, self.value_encoder, self.value_out):
            params.extend([part] if isinstance(part, Param) else part.parameters())
        return params

    @staticmethod
    def _encode(tape: Tape, encoder, circuit, z: Node) -> Node:
        if circuit is None:
            return tape.dense(encoder, z)
        return tape.vqc(encoder, circuit, z)

    def policy_logits(self, tape: Tape, s: Node) -> Node:
        """Action logits for a [batch, obs_dim] batch."""
        z = tape.tanh(tape.dense(self.policy_in, s))
        q = self._encode(tape, self.policy_encoder, self.policy_circuit, z)
        return tape.dense(self.policy_out, tape.tanh(q))

    def forward_value(self, tape: Tape, s: Node) -> Node:
        z = tape.tanh(tape.dense(self.value_in, s))
        q = self._encode(tape, self.value_encoder, self.value_circuit, z)
        return tape.dense(self.value_out, tape.tanh(q))  # [batch, 1]

    def policy_probs(self, obs: np.ndarray) -> np.ndarray:
        """Action distribution for one observation: the logits of a batch of
        one, then ``softmax_row``, the bits of ``softmax`` with no tape op."""
        s = Node(obs[None, :], requires_grad=False)
        return diffnet.softmax_row(self.policy_logits(Tape(), s).value[0])

    def value(self, obs: np.ndarray) -> float:
        s = Node(obs[None, :], requires_grad=False)
        return float(self.forward_value(Tape(), s).value[0, 0])

    # flat parameter plumbing: each is one numpy call on the store
    def get_flat(self) -> np.ndarray:
        return self._store.get()

    def set_flat(self, theta: np.ndarray) -> None:
        self._store.set(theta)

    def flat_grads(self) -> np.ndarray:
        return self._store.get_grads()

    def zero_grads(self) -> None:
        self._store.zero_grads()


def n_step_returns(rewards, bootstrap: float, gamma: float) -> np.ndarray:
    """Discounted returns by backward recursion R_t = r_t + gamma R_{t+1},
    seeded with the bootstrap value (0 at terminal states)."""
    r = np.asarray(rewards, dtype=np.float64).tolist()
    if not r:
        raise ValueError("rewards must be nonempty")
    # on Python floats: the same IEEE operations as on numpy scalars, cheaper
    out = r[:]
    acc = float(bootstrap)
    for i in range(len(r) - 1, -1, -1):
        acc = r[i] + gamma * acc
        out[i] = acc
    return np.array(out)


def compute_loss_and_grads(
    net: ActorCriticNet,
    states,
    actions,
    returns,
    entropy_coeff: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Summed actor-critic loss over a trajectory and its flat gradient.

    L = sum_t [ 0.5 (R_t - V(s_t))^2 - log pi(a_t|s_t) (R_t - V(s_t)) ]
    with the advantage detached in the policy term; an optional entropy
    bonus -entropy_coeff * H(pi) is added when configured.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.intp)
    returns = np.asarray(returns, dtype=np.float64)
    if not (states.shape[0] == actions.size == returns.size):
        raise ValueError("states, actions and returns must have equal length")

    net.zero_grads()
    tape = Tape()
    s = Node(states, requires_grad=False)
    probs = tape.softmax(net.policy_logits(tape, s))
    v = net.forward_value(tape, s)                 # [K, 1]
    advantage = returns - v.value[:, 0]            # detached

    logp = tape.log(probs)
    logp_taken = tape.pick(logp, actions)
    policy_term = tape.sum(tape.scale(logp_taken, -advantage))
    value_err = tape.add_const(v, -returns[:, None])
    value_term = tape.scale(tape.sum(tape.square(value_err)), 0.5)
    loss = tape.add(value_term, policy_term)
    if entropy_coeff:
        negative_entropy = tape.sum(tape.mul(probs, logp))
        loss = tape.add(loss, tape.scale(negative_entropy, entropy_coeff))
    tape.backward(loss)
    return float(loss.value), net.flat_grads()


class GlobalParams:
    """The flat parameter vector all workers share and its optimizer state.

    push_and_pull checks the gradient, has the optimizer step the vector in
    place and returns a copy of the post-update parameters; a rejected
    gradient leaves them untouched.
    """

    def __init__(self, theta: np.ndarray, optimizer):
        self._theta = np.asarray(theta, dtype=np.float64).copy()
        self._optimizer = optimizer

    def push_and_pull(self, grads: np.ndarray) -> np.ndarray:
        if grads.shape != self._theta.shape:
            raise ValueError(
                f"gradient shape {grads.shape} != parameters {self._theta.shape}"
            )
        if not np.all(np.isfinite(grads)):
            raise GradientRejected("non-finite gradient rejected")
        self._optimizer.step(self._theta, grads)
        return self._theta.copy()

    def pull(self) -> np.ndarray:
        return self._theta.copy()


def _write_csv(path, stamp: str | None, header, rows) -> None:
    """A CSV file headed by an optional ``# stamp`` comment line."""
    with open(path, "w", newline="") as fh:
        if stamp:
            fh.write(f"# {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class TrainingHistory:
    rewards: list[float]
    moving_average: list[float]
    final_theta: np.ndarray

    def to_csv(self, path, stamp: str | None = None) -> None:
        _write_csv(path, stamp, ("episode", "reward", "moving_average"), (
            [i, f"{r:.12g}", f"{m:.12g}"]
            for i, (r, m) in enumerate(zip(self.rewards, self.moving_average))))


def moving_average(values, window: int = 100) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def _worker_loop(worker_id, config, global_params, episodes, reward_log, env, net):
    """One worker's episodes, claimed from the shared ``episodes`` and
    logged to ``reward_log``; yields after every push-and-pull."""
    rng = np.random.default_rng([config.seed, worker_id])
    net.set_flat(global_params.pull())
    k = config.update_every
    states, actions, rewards = [], [], []  # since the last push

    for _ in episodes:
        obs = env.reset()
        episode_reward = 0.0
        done = False
        while not done:
            probs = net.policy_probs(obs)
            action = categorical_sample(probs, rng)
            next_obs, reward, done, _ = env.step(action)
            states.append(obs)
            actions.append(action)
            rewards.append(reward)
            episode_reward += reward
            if len(actions) >= k or done:
                bootstrap = 0.0 if done else net.value(next_obs)
                returns = n_step_returns(rewards, bootstrap, config.gamma)
                _, grads = compute_loss_and_grads(
                    net, states, actions, returns,
                    entropy_coeff=config.entropy_coeff,
                )
                if config.clip_norm:
                    grads = diffnet.clip_global_norm(grads, config.clip_norm)
                try:
                    theta = global_params.push_and_pull(grads)
                except GradientRejected:
                    theta = global_params.pull()  # resync, drop the bad update
                net.set_flat(theta)
                states, actions, rewards = [], [], []
                yield True
            obs = next_obs
        reward_log.append(float(episode_reward))


def train(config: TrainConfig, env_factory, net_factory=None) -> TrainingHistory:
    """Run N workers in turn until max_episodes episodes have been claimed.

    env_factory() must build a fresh environment per call; net_factory()
    (optional) a fresh network of one architecture. Every worker starts
    from worker 0's initial parameters. Returns the reward history plus
    the final global parameters (``final_theta``).
    """
    episodes = iter(range(config.max_episodes))
    rewards: list[float] = []
    try:
        envs = [env_factory() for _ in range(config.n_workers)]
        if net_factory is None:
            net_factory = partial(config.build_net, envs[0].observation_dim)
        nets = [net_factory() for _ in envs]
        theta = nets[0].get_flat()
        global_params = GlobalParams(theta, diffnet.make_optimizer(
            config.optimizer, theta.size, config.learning_rate))
        workers = [_worker_loop(i, config, global_params, episodes, rewards, env, net)
                   for i, (env, net) in enumerate(zip(envs, nets))]
        while workers:
            workers = [w for w in workers if next(w, False)]
    except Exception as exc:
        raise TrainingError(f"worker failed: {exc!r}") from exc
    return TrainingHistory(
        rewards=rewards,
        moving_average=moving_average(rewards),
        final_theta=global_params.pull(),
    )


# -- evaluation ---------------------------------------------------------------

@dataclass
class EvaluationRun:
    """Greedy (or random-baseline) rollout: per-step records plus the
    completed trade log. position_flags reflect the post-action position,
    before any forced terminal liquidation."""

    dates: list
    actions: list[int]
    prices: list[float]
    asset_values: list[float]
    position_flags: list[int]
    trades: list[Trade]

    @property
    def final_asset(self) -> float:
        return self.asset_values[-1]

    def to_csv(self, path, stamp: str | None = None) -> None:
        _write_csv(path, stamp, _EVAL_COLUMNS, (
            [date.isoformat(), ACTION_NAMES[action], f"{price:.12g}", f"{asset:.12g}"]
            for date, action, price, asset in zip(
                self.dates, self.actions, self.prices, self.asset_values)))

    @staticmethod
    def from_csv(path) -> "EvaluationRun":
        """Rebuild a run (including flags and trades) by replaying the log.
        An unreadable file, a missing column or a row that does not parse
        or holds a non-finite number is an IngestionError naming the file
        (and the row)."""
        dates, actions, prices, assets = [], [], [], []
        reader = csv.DictReader(
            line for line in read_text_lines(path) if not line.startswith("#"))
        missing = [c for c in _EVAL_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")
        for row, record in enumerate(reader, start=1):
            try:
                if record["action"] not in _NAME_TO_ACTION:
                    raise ValueError(f"unknown action {record['action']!r}")
                dates.append(dt.date.fromisoformat(record["date"]))
                actions.append(_NAME_TO_ACTION[record["action"]])
                for column, values in (("price", prices), ("asset_value", assets)):
                    values.append(float(record[column]))
                    if not math.isfinite(values[-1]):
                        raise ValueError(f"{column}={record[column]!r} is not finite")
            except (TypeError, ValueError) as exc:
                raise IngestionError(f"{path}: row {row}: {exc}") from exc
        flags, trades = _replay(dates, actions, prices, assets)
        return EvaluationRun(dates, actions, prices, assets, flags, trades)


def _replay(dates, actions, prices, assets):
    """Position flags and trade log implied by an executed-action log.

    Trade profit is the realized balance change, read off the asset
    column: the asset at a buy row equals the flat balance (no unrealized
    move yet), so profit = asset[sell] - asset[buy]. A buy on the final
    row is liquidated within the same step and its recorded asset is
    already post-liquidation; the prior row's asset is the pre-trade
    balance in that case.
    """
    flags = []
    trades = []
    open_trade = None
    last = len(actions) - 1
    for i, action in enumerate(actions):
        if action == BUY and open_trade is None:
            open_trade = (i, dates[i], prices[i])
        elif action == SELL and open_trade is not None:
            idx, buy_date, buy_price = open_trade
            trades.append(Trade(buy_date, buy_price, dates[i], prices[i],
                                assets[i] - assets[idx]))
            open_trade = None
        flags.append(1 if open_trade is not None else 0)
    if open_trade is not None:  # forced terminal liquidation
        idx, buy_date, buy_price = open_trade
        if idx == last:
            base = assets[idx - 1] if idx > 0 else None
        else:
            base = assets[idx]
        profit = assets[-1] - base if base is not None else 0.0
        trades.append(Trade(buy_date, buy_price, dates[-1], prices[-1], profit))
    return flags, trades


def greedy_action(probs: np.ndarray) -> int:
    """argmax with ties broken toward the lowest action index; ValueError
    on a non-finite entry, which argmax would otherwise read as hold. Picked
    from the Python floats of the vector, cheaper than numpy on a few."""
    p = np.asarray(probs, dtype=np.float64).tolist()
    if not all(map(math.isfinite, p)):
        raise ValueError(f"non-finite action probabilities {p}")
    return p.index(max(p))


def _rollout(env: TradingEnv, pick_action) -> EvaluationRun:
    obs = env.reset()
    dates, actions, prices, assets, flags = [], [], [], [], []
    done = False
    while not done:
        action = pick_action(obs)
        obs, _, done, info = env.step(action)
        dates.append(info["date"])
        actions.append(info["executed_action"])
        prices.append(info["price"])
        assets.append(info["asset_value"])
        flags.append(info["position"])
    trade_flags, trades = _replay(dates, actions, prices, assets)
    assert trade_flags == flags
    return EvaluationRun(dates, actions, prices, assets, flags, trades)


def evaluate_policy(net, env: TradingEnv) -> EvaluationRun:
    """One deterministic greedy episode of the trained policy."""
    return _rollout(env, lambda obs: greedy_action(net.policy_probs(obs)))


def evaluate_random(env: TradingEnv, seed: int = 0) -> EvaluationRun:
    """Uniform-random baseline episode with a seeded generator."""
    rng = np.random.default_rng(seed)
    return _rollout(env, lambda obs: int(rng.integers(N_ACTIONS)))


# -- checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"QNET"
_CKPT_FIELDS = {"obs_dim": int, "head_kind": str, "latent_dim": int, "vqc_depth": int}


def save_checkpoint(net: ActorCriticNet, path) -> None:
    """Architecture header + parameters in the diffnet model-file format."""
    header = {key: getattr(net, key) for key in _CKPT_FIELDS}
    diffnet.save_model(path, _CKPT_MAGIC, header, net.parameters())


def load_checkpoint(path) -> ActorCriticNet:
    return diffnet.load_model(path, _CKPT_MAGIC, _CKPT_FIELDS, ActorCriticNet)
