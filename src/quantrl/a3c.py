"""Asynchronous advantage actor-critic trainer with pluggable classical or
hybrid-quantum policy/value heads.

The policy and the value net are two ``Head`` objects of one layout:
dense in -> tanh -> encoder -> tanh -> dense out (logits over {hold, buy,
sell} for the policy, a scalar for the value). A head's one forward,
``Head.run``, works on plain arrays, and its hand-written backward,
``Head.backward``, works the chain rule through the five layers from the
forward's saved intermediates. The encoder is either a variational
quantum circuit on ``latent_dim`` qubits or a same-width dense layer, so
the two modes are drop-in replacements for each other. An
``ActorCriticNet`` keeps both heads' parameters and their grads in one
``diffnet.FlatStore``, its ``store``, so the flat vectors a worker pushes
and pulls are one numpy call each way.

Neither a decision nor a trajectory update builds a tape or a node. A
decision, sampled in training or greedy in evaluation, reads its p from a
``PolicyTable``: one policy forward over observations that the env can
return in the next ``TABLE_ROWS`` steps, and one ``diffnet.log_softmax``
of its logits, which serve those steps' decisions until the parameters
change. After a table of holds a fill takes each step's held row, the
observation it returns while the agent holds, so a policy that never
trades runs one row a decision; the first trade then misses the table and
refills it. After a table in which the agent traded, a fill takes every
row that some actions reach, n (n + 1) / 2 rows for n steps, and a
decision reads its step's held row or the row after its trades. An update
(``compute_loss_and_grads``) runs both heads once on the trajectory,
takes the loss from ``diffnet.log_softmax`` of the logits, and hands each
head the loss's closed-form gradient for its outputs. A trajectory's
states take no gradient.

A forward's logits can differ in the last bits between a batch of one row
and a batch of more, since BLAS takes another kernel for one row. With
the OpenBLAS 0.3.31 that the tests run on, a batch of 2 or more rows gave
each row the bits of the update's 20-row batch, and a batch of one did
not: so a decision read from a table of 2 or more rows sees the logits
that its update computes, and one from a 1-row table may not. A table
covers no step past the next push or the series end, so a fill at the
last step before a push or on the last row is a 1-row table, after holds
and after trades alike.

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

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import diffnet, qsim
from .diffnet import Dense, Param, categorical_sample
from .errors import (POSITIVE, SEED, ConfigError, GradientRejected, IngestionError,
                     TrainingError, between, check_batch, check_fields, one_of)
from .metrics import Trade
from .tradeenv import (ACTION_NAMES, BUY, SELL, TradingEnv, parse_date, parse_float,
                       read_table, write_table)

N_ACTIONS = 3
HEAD_KINDS = ("classical", "quantum")
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

    RULES = {
        "gamma": ((lambda v: 0 < v < 1), "in (0, 1)"),
        "update_every": between(1),
        "max_episodes": between(1),
        "n_workers": between(1, 64),  # each builds its env and net up front
        "learning_rate": POSITIVE,
        "seed": SEED,
        "head_kind": one_of(HEAD_KINDS),
        "entropy_coeff": (math.isfinite, "finite"),
        "latent_dim": between(1, 256),  # a dense encoder has latent_dim**2 weights
        "vqc_depth": between(1, 32),  # a compiled circuit keeps every layer's factors
        "optimizer": one_of(tuple(diffnet.OPTIMIZERS)),
        "clip_norm": ((lambda v: v is None or v > 0), "None or > 0"),
    }

    def __post_init__(self):
        check_fields(self.RULES, vars(self))
        if self.head_kind == "quantum" and self.latent_dim > qsim.MAX_QUBITS:
            raise ConfigError(f"quantum latent_dim (qubits) must be <= "
                              f"{qsim.MAX_QUBITS}, got {self.latent_dim}")

    def build_net(self, obs_dim: int) -> "ActorCriticNet":
        """A fresh net of this config's architecture and seed."""
        return ActorCriticNet(obs_dim, head_kind=self.head_kind,
                              latent_dim=self.latent_dim,
                              vqc_depth=self.vqc_depth, seed=self.seed)


class Head:
    """One net: dense in -> tanh -> encoder -> tanh -> dense out. The encoder
    is a same-width ``Dense`` or, given ``vqc_depth``, circuit angles, run by
    the ``qsim.VqcParams`` that the owning net puts in ``circuit``."""

    def __init__(self, obs_dim: int, latent_dim: int, n_out: int,
                 vqc_depth: int | None, rng: np.random.Generator):
        self.dense_in = Dense(obs_dim, latent_dim, rng)
        self.encoder = (Dense(latent_dim, latent_dim, rng) if vqc_depth is None
                        else Param(rng.uniform(-0.1, 0.1, (vqc_depth, latent_dim, 2))))
        self.dense_out = Dense(latent_dim, n_out, rng)
        self.circuit = None

    def parameters(self) -> list[Param]:
        quantum = isinstance(self.encoder, Param)
        encoder = [self.encoder] if quantum else self.encoder.parameters()
        return self.dense_in.parameters() + encoder + self.dense_out.parameters()

    def run(self, states: np.ndarray) -> tuple[np.ndarray, tuple]:
        """[batch, n_out] outputs for a [batch, obs_dim] array, on plain
        arrays, and the intermediates that the backward reads. ValueError
        for a batch of another width."""
        check_batch("head", states, self.dense_in.w.value.shape[1])
        z = np.tanh(self.dense_in.apply(states))
        if self.circuit is None:
            q, final = self.encoder.apply(z), None
        else:
            q, final = qsim.run_vqc_batch(z, self.circuit, keep_states=True)
        t = np.tanh(q)
        return self.dense_out.apply(t), (states, z, final, t)

    def backward(self, saved: tuple, g: np.ndarray) -> None:
        """Add every parameter's grad for the output grad ``g`` from the
        intermediates that ``run`` saved, and the parameters and circuit
        states of that forward, so nothing may write the parameters in
        between. The states are data and take none."""
        # the chain rule through the five layers: dense out, tanh', the
        # encoder, tanh', dense in
        states, z, final, t = saved
        self.dense_out.add_grads(t, g)
        gq = (1.0 - t * t) * (g @ self.dense_out.w.value)
        if self.circuit is None:
            self.encoder.add_grads(z, gq)
            gz = gq @ self.encoder.w.value
        else:
            pg, gz = qsim.vqc_gradients_batch(z, self.circuit, gq, states=final)
            self.encoder.grad += pg
        self.dense_in.add_grads(states, (1.0 - z * z) * gz)


class ActorCriticNet:
    """A policy head (``policy``, action logits) and a value head
    (``critic``), built in that order over one input dimension with separate
    encoders (two circuits in quantum mode). Parameter order is fixed so flat
    vectors are interchangeable between identically-configured nets."""

    def __init__(self, obs_dim: int, head_kind: str = "classical",
                 latent_dim: int = 8, vqc_depth: int = 2, seed: int = 0):
        if head_kind not in HEAD_KINDS:  # as read from a checkpoint header
            raise ConfigError(f"unknown head_kind {head_kind!r}")
        self.obs_dim = obs_dim
        self.head_kind = head_kind
        self.latent_dim = latent_dim
        self.vqc_depth = vqc_depth
        rng = np.random.default_rng(seed)
        depth = vqc_depth if head_kind == "quantum" else None
        self.policy = Head(obs_dim, latent_dim, N_ACTIONS, depth, rng)
        self.critic = Head(obs_dim, latent_dim, 1, depth, rng)
        self.store = diffnet.FlatStore(self.parameters())
        # one circuit per quantum encoder, built once on the store's view of
        # its angles, so set_flat and checkpoint loads reach it
        for head in (self.policy, self.critic) if depth else ():
            head.circuit = qsim.VqcParams(latent_dim, vqc_depth, head.encoder.value)

    @staticmethod
    def parameter_shapes(obs_dim: int, head_kind: str, latent_dim: int,
                         vqc_depth: int) -> list[tuple]:
        """Shapes of parameters() for this architecture, without building."""
        encoder = ([(vqc_depth, latent_dim, 2)] if head_kind == "quantum"
                   else Dense.parameter_shapes(latent_dim, latent_dim))
        return [shape for n_out in (N_ACTIONS, 1)
                for shape in Dense.parameter_shapes(obs_dim, latent_dim) + encoder
                + Dense.parameter_shapes(latent_dim, n_out)]

    def parameters(self) -> list[Param]:
        return self.policy.parameters() + self.critic.parameters()

    def value(self, obs: np.ndarray) -> float:
        value, _ = self.critic.run(obs[None, :])
        return float(value[0, 0])

    def get_flat(self) -> np.ndarray:
        return self.store.values.copy()

    def set_flat(self, theta: np.ndarray) -> None:
        self.store.set(theta)


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

    Each head runs once, without a tape. ``diffnet.log_softmax`` of the
    logits z gives p and log p = z - logsumexp(z), which stays finite when
    one logit dwarfs the rest. The loss's gradient is taken in
    closed form per row and handed to each head's backward: for the logits
    adv (p - onehot(a)) + c (p log p - p sum_j p_j log p_j), with adv the
    detached advantage and c ``entropy_coeff``; for the value V - R.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.intp)
    returns = np.asarray(returns, dtype=np.float64)
    if not (states.shape[0] == actions.size == returns.size):
        raise ValueError("states, actions and returns must have equal length")

    net.store.zero_grads()
    logits, policy_saved = net.policy.run(states)
    values, critic_saved = net.critic.run(states)
    value_err = values[:, 0] - returns
    advantage = -value_err                         # detached

    p, logp = diffnet.log_softmax(logits)
    rows = np.arange(actions.size)

    loss = 0.5 * (value_err @ value_err) - logp[rows, actions] @ advantage
    g_logits = p * advantage[:, None]
    g_logits[rows, actions] -= advantage
    if entropy_coeff:
        plogp = p * logp
        negative_entropy = plogp.sum(axis=1, keepdims=True)
        loss += entropy_coeff * negative_entropy.sum()
        g_logits += entropy_coeff * (plogp - p * negative_entropy)
    net.policy.backward(policy_saved, g_logits)
    net.critic.backward(critic_saved, value_err[:, None])
    return float(loss), net.store.grads.copy()


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


@dataclass
class TrainingHistory:
    rewards: list[float]
    moving_average: list[float]
    final_theta: np.ndarray

    def to_csv(self, path, stamp: str | None = None) -> None:
        write_table(path, ("episode", "reward", "moving_average"), (
            [i, f"{r:.12g}", f"{m:.12g}"]
            for i, (r, m) in enumerate(zip(self.rewards, self.moving_average))), stamp)


MOVING_AVERAGE_WINDOW = 100  # episodes


def moving_average(values) -> list[float]:
    """The trailing mean of up to ``MOVING_AVERAGE_WINDOW`` values."""
    window = MOVING_AVERAGE_WINDOW
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


# the most steps that one policy table covers: 8 rows after holds and 36
# after a trade, chosen by timing 4, 8 and 16 steps on c06's sawtooth
# (CHANGES.md)
TABLE_ROWS = 8


class PolicyTable:
    """The action probabilities of observations that ``env`` can return in
    the next steps, from one ``Head.run`` over ``env.reachable_observations``
    and one ``log_softmax`` of its logits. After a table of holds a fill
    takes the held rows alone, so a run of holds costs one forward of one
    row a step; after a table during which the agent traded (a decision's
    observation was not its step's held row) it takes every row that some
    actions reach, so a trade reads a row of the table it falls in. The
    decision at a table's step k reads the row of step k's group that is
    byte-equal to the observation it was given, the held row compared
    first; an observation that none is (a trade after holds, a step past
    the table, a reset) refills the table from the env. The rows are the
    p of the parameters at the fill, so ``drop`` the table whenever they
    change."""

    def __init__(self, net, env):
        self._policy, self._env = net.policy, env
        self._traded = False
        self.drop()

    def drop(self) -> None:
        self._rows, self._groups, self._probs, self._next = b"", (), None, 0

    def probs(self, obs: np.ndarray, limit: int = TABLE_ROWS) -> np.ndarray:
        """The read-only p row of ``obs``; a refill covers at most ``limit``
        steps."""
        # the rows as one bytes object: a decision compares slices of it
        key, k = obs.tobytes(), self._next
        size = len(key)
        i = k
        if k >= len(self._groups):
            i = None
        elif key != self._rows[k * size:(k + 1) * size]:
            i = self._traded_row(key, k)
        if i is None:
            rows, self._groups = self._env.reachable_observations(limit, self._traded)
            self._rows, self._traded, k = rows.tobytes(), False, 0
            if key != self._rows[:size]:
                raise ValueError("the env's held observations do not start at "
                                 "the observation it returned")
            logits, _ = self._policy.run(rows)
            # log_softmax gives each row the bits of that row alone, so a
            # decision's p is the update's p of the same logits
            self._probs, _ = diffnet.log_softmax(logits)
            self._probs.setflags(write=False)
            i = 0
        self._next = k + 1
        return self._probs[i]

    def _traded_row(self, key: bytes, k: int) -> int | None:
        """The row of step k's group past its held one that is byte-equal
        to ``key``, or None. Called for an observation that is not step k's
        held row, it marks the table as traded in."""
        self._traded = True
        rows, size, group = self._rows, len(key), self._groups[k]
        at, end = group.start * size, group.stop * size
        while (at := rows.find(key, at, end)) >= 0 and at % size:
            at += 1  # a match across two rows
        return at // size if at >= 0 else None


def _worker_loop(worker_id, config, global_params, episodes, reward_log, env, net):
    """One worker's episodes, claimed from the shared ``episodes`` and
    logged to ``reward_log``; yields after every push-and-pull. A policy
    table serves the decisions up to the next push, which changes the
    parameters."""
    rng = np.random.default_rng([config.seed, worker_id])
    net.set_flat(global_params.pull())
    table = PolicyTable(net, env)
    k = config.update_every
    states, actions, rewards = [], [], []  # since the last push

    for _ in episodes:
        obs = env.reset()
        episode_reward = 0.0
        done = False
        while not done:
            probs = table.probs(obs, min(TABLE_ROWS, k - len(actions)))
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
                table.drop()
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
        global_params = GlobalParams(theta, diffnet.OPTIMIZERS[config.optimizer](
            theta.size, config.learning_rate))
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
    """Greedy (or random-baseline) rollout: its four CSV columns, and the
    position flags (post-action, before any forced terminal liquidation)
    and completed trade log that ``_replay`` derives from them."""

    dates: list
    actions: list[int]
    prices: list[float]
    asset_values: list[float]
    position_flags: list[int] = field(init=False)
    trades: list[Trade] = field(init=False)

    def __post_init__(self):
        self.position_flags, self.trades = _replay(
            self.dates, self.actions, self.prices, self.asset_values)

    @property
    def final_asset(self) -> float:
        return self.asset_values[-1]

    def to_csv(self, path, stamp: str | None = None) -> None:
        write_table(path, _EVAL_COLUMNS, (
            [date.isoformat(), ACTION_NAMES[action], f"{price:.12g}", f"{asset:.12g}"]
            for date, action, price, asset in zip(
                self.dates, self.actions, self.prices, self.asset_values)), stamp)

    @staticmethod
    def from_csv(path) -> "EvaluationRun":
        """Rebuild a run from its four columns; the inverse of ``to_csv``.
        An unreadable file, a missing column, no data rows or a row that
        does not parse, holds a non-finite number, a price or asset value
        <= 0 (which no equity curve takes, as ingest takes no close <= 0)
        or a date that does not follow the row before it is an
        IngestionError naming the file (and its line).
        Date and number cells are read by ingest's rules, ``parse_date``
        and ``parse_float``."""
        dates, actions, prices, assets = [], [], [], []
        for line, record in read_table(path, _EVAL_COLUMNS)[1]:
            where = f"{path}: row {line}"
            try:
                if record["action"] not in _NAME_TO_ACTION:
                    raise ValueError(f"unknown action {record['action']!r}")
                date = parse_date(record["date"] or "")
                if dates and date <= dates[-1]:
                    raise ValueError(f"date {date} does not follow {dates[-1]}")
            except ValueError as exc:
                raise IngestionError(f"{where}: {exc}") from exc
            dates.append(date)
            actions.append(_NAME_TO_ACTION[record["action"]])
            for column, values in (("price", prices), ("asset_value", assets)):
                values.append(parse_float(record[column] or "", column, where))
                if values[-1] <= 0:
                    raise IngestionError(
                        f"{where}: {column}={record[column]!r} is not positive")
        if not dates:
            raise IngestionError(f"{path}: no data rows")
        return EvaluationRun(dates, actions, prices, assets)


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
    dates, actions, prices, assets = [], [], [], []
    done = False
    while not done:
        action = pick_action(obs)
        obs, _, done, info = env.step(action)
        dates.append(info["date"])
        actions.append(info["executed_action"])
        prices.append(info["price"])
        assets.append(info["asset_value"])
    return EvaluationRun(dates, actions, prices, assets)


def evaluate_policy(net, env: TradingEnv) -> EvaluationRun:
    """One deterministic greedy episode of the trained policy, each decision
    read from a ``PolicyTable``."""
    table = PolicyTable(net, env)
    return _rollout(env, lambda obs: greedy_action(table.probs(obs)))


def evaluate_random(env: TradingEnv, seed: int = 0) -> EvaluationRun:
    """Uniform-random baseline episode with a seeded generator."""
    rng = np.random.default_rng(seed)
    return _rollout(env, lambda obs: int(rng.integers(N_ACTIONS)))


# -- checkpoints --------------------------------------------------------------

_CKPT_MAGIC = b"QNET"
_CKPT_FIELDS = {"obs_dim": int, "head_kind": str, "latent_dim": int, "vqc_depth": int}


def save_checkpoint(net: ActorCriticNet, path) -> None:
    """Architecture header + parameters in the diffnet model-file format."""
    diffnet.save_model(path, _CKPT_MAGIC, _CKPT_FIELDS, net)


def load_checkpoint(path) -> ActorCriticNet:
    return diffnet.load_model(path, _CKPT_MAGIC, _CKPT_FIELDS, ActorCriticNet)
