"""Actor-critic trainer tests: returns, loss gradients, the global
parameter store, training plumbing and greedy evaluation."""

import datetime as dt
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from quantrl import a3c, diffnet
from quantrl.a3c import (
    N_ACTIONS,
    ActorCriticNet,
    EvaluationRun,
    GlobalParams,
    TrainConfig,
    compute_loss_and_grads,
    evaluate_policy,
    evaluate_random,
    greedy_action,
    load_checkpoint,
    moving_average,
    n_step_returns,
    save_checkpoint,
    train,
)
from quantrl.diffnet import SgdOptimizer, log_softmax
from quantrl.errors import ConfigError, GradientRejected, IngestionError, TrainingError
from quantrl.qsim import BLOCK_MAX_QUBITS, MAX_QUBITS
from quantrl.tradeenv import BUY, HOLD, SELL, EnvConfig, MarketSeries, TradingEnv, zscore


def make_env(closes, **cfg):
    n = len(closes)
    dates = tuple(dt.date(2022, 1, 7) + dt.timedelta(weeks=i) for i in range(n))
    feats = np.column_stack(
        [np.asarray(closes, float)] + [np.full(n, c) for c in (20.0, 4.5, 4.0, 3.8, 3.5)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = zscore(MarketSeries(dates=dates, features=feats))
    return TradingEnv(series, EnvConfig(**cfg))


def sawtooth_env(n=24, period=8, amplitude=0.10):
    t = np.arange(n)
    closes = 100.0 * (1.0 + amplitude * ((t % period) / period))
    return make_env(list(closes))


# ---------------------------------------------------------------------------
# n-step returns
# ---------------------------------------------------------------------------

def test_returns_worked_example():
    out = n_step_returns([1.0, 0.0, 0.0], bootstrap=2.0, gamma=0.9)
    assert np.allclose(out, [2.458, 1.62, 1.8], atol=1e-12)


def test_returns_terminal_single_reward():
    assert n_step_returns([5.0], 0.0, 0.9) == pytest.approx([5.0])


def test_returns_zero_gamma():
    out = n_step_returns([1.0, 2.0, 3.0], bootstrap=9.0, gamma=0.0)
    assert np.array_equal(out, [1.0, 2.0, 3.0])


@settings(max_examples=100)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=12),
    st.floats(-50, 50),
    st.floats(0.01, 0.99),
)
def test_returns_recursion_and_direct_sum(rewards, bootstrap, gamma):
    out = n_step_returns(rewards, bootstrap, gamma)
    k = len(rewards)
    for t in range(k - 1):
        assert out[t] == rewards[t] + gamma * out[t + 1]  # exact by construction
    for t in range(k):
        direct = sum(gamma ** (i - t) * rewards[i] for i in range(t, k))
        direct += gamma ** (k - t) * bootstrap
        assert out[t] == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))


def numpy_returns(rewards, bootstrap, gamma):
    """The recursion on numpy scalars, the bits n_step_returns keeps."""
    r = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(r)
    acc = float(bootstrap)
    for i in range(r.size - 1, -1, -1):
        acc = r[i] + gamma * acc
        out[i] = acc
    return out


def test_returns_match_numpy_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(300):
        k = int(rng.integers(1, 30))
        rewards = rng.normal(size=k) * 10.0 ** rng.uniform(-8, 4)
        bootstrap = float(rng.normal(scale=100.0))
        gamma = float(rng.uniform(0.01, 0.999))
        want = numpy_returns(rewards, bootstrap, gamma)
        for given_rewards in (rewards, rewards.tolist()):
            got = n_step_returns(given_rewards, bootstrap, gamma)
            assert got.dtype == np.float64 and np.array_equal(got, want)


def test_returns_empty_rejected():
    with pytest.raises(ValueError):
        n_step_returns([], 0.0, 0.9)


# ---------------------------------------------------------------------------
# network heads
# ---------------------------------------------------------------------------

def test_zero_logit_layer_gives_uniform_policy():
    net = ActorCriticNet(obs_dim=5, seed=3)
    net.policy.dense_out.w.value[...] = 0.0
    net.policy.dense_out.b.value[...] = 0.0
    probs = net.policy_probs(np.random.default_rng(0).normal(size=5))
    assert np.allclose(probs, [1 / 3] * 3, atol=1e-15)


@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
def test_mode_parity_shapes(head_kind):
    net = ActorCriticNet(obs_dim=6, head_kind=head_kind, latent_dim=4, seed=1)
    obs = np.random.default_rng(2).normal(size=6)
    probs = net.policy_probs(obs)
    assert probs.shape == (3,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs > 0)
    assert isinstance(net.value(obs), float)


def test_policy_simplex_on_random_nets():
    rng = np.random.default_rng(5)
    for seed in range(5):
        net = ActorCriticNet(obs_dim=4, seed=seed)
        probs = net.policy_probs(rng.normal(size=4))
        assert abs(probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
def test_policy_probs_is_softmax_of_logits_bit_for_bit(head_kind):
    net = ActorCriticNet(obs_dim=6, head_kind=head_kind, latent_dim=4, seed=2)
    for obs in np.random.default_rng(3).normal(scale=3.0, size=(100, 6)):
        logits, _ = net.policy.run(obs[None, :])
        p, _ = log_softmax(logits)  # the update's p
        assert np.array_equal(net.policy_probs(obs), p[0])


@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
def test_parameters_are_views_of_one_flat_store(head_kind):
    net = ActorCriticNet(obs_dim=5, head_kind=head_kind, latent_dim=3, seed=4)
    params = net.parameters()

    def flat(attr):  # the per-parameter arrays, concatenated in order
        return np.concatenate([getattr(p, attr).ravel() for p in params])

    theta = net.get_flat()
    assert np.array_equal(theta, flat("value"))
    theta += 1.0  # a copy: the net keeps its parameters
    assert np.array_equal(net.get_flat(), flat("value"))
    assert not np.array_equal(net.get_flat(), theta)

    net.set_flat(theta)  # one write reaches every parameter and circuit
    assert np.array_equal(flat("value"), theta)
    if head_kind == "quantum":
        for head in (net.policy, net.critic):
            assert head.circuit.angles is head.encoder.value
    value_base, grad_base = params[0].value.base, params[0].grad.base
    assert value_base is not None and grad_base is not None
    assert all(p.value.base is value_base and p.grad.base is grad_base for p in params)

    rng = np.random.default_rng(5)
    _, grads = compute_loss_and_grads(net, rng.normal(size=(4, 5)), [0, 1, 2, 1],
                                      rng.normal(size=4))
    assert np.any(grads != 0.0) and np.array_equal(grads, flat("grad"))
    grads[...] = 0.0  # a copy too
    assert np.array_equal(net.store.grads, flat("grad"))
    assert np.any(net.store.grads != 0.0)
    net.store.zero_grads()
    assert all(np.all(p.grad == 0.0) for p in params)


@pytest.mark.parametrize("extra", [3, -3])
def test_set_flat_of_wrong_size_writes_nothing(extra):
    net = ActorCriticNet(obs_dim=5, head_kind="quantum", latent_dim=3, seed=4)
    theta = net.get_flat()
    angles = net.policy.circuit.angles.copy()
    with pytest.raises(ValueError, match="flat vector"):
        net.set_flat(np.ones(theta.size + extra))
    assert np.array_equal(net.get_flat(), theta)
    assert np.array_equal(net.policy.circuit.angles, angles)


def test_batched_forward_matches_single():
    net = ActorCriticNet(obs_dim=4, head_kind="quantum", latent_dim=3, seed=0)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(5, 4))
    probs = scipy.special.softmax(net.policy.run(states)[0], axis=1)
    values, _ = net.critic.run(states)
    for i in range(5):
        assert np.allclose(probs[i], net.policy_probs(states[i]), atol=1e-14)
        assert values[i, 0] == pytest.approx(net.value(states[i]), abs=1e-14)


@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
def test_a_decision_builds_no_tape_and_no_node(head_kind, monkeypatch):
    net = ActorCriticNet(obs_dim=6, head_kind=head_kind, latent_dim=4, seed=7)
    observations = np.random.default_rng(8).normal(size=(20, 6))
    before = [(net.policy_probs(obs), net.value(obs)) for obs in observations]
    update = (observations, np.arange(20) % N_ACTIONS, np.linspace(-1.0, 1.0, 20))
    loss, grads = compute_loss_and_grads(net, *update, entropy_coeff=0.01)

    def refuse(*args, **kwargs):
        raise AssertionError("a decision or an update built a tape or a node")

    monkeypatch.setattr(diffnet.Tape, "__init__", refuse)
    monkeypatch.setattr(diffnet.Node, "__init__", refuse)
    for obs, (probs, value) in zip(observations, before):
        assert np.array_equal(net.policy_probs(obs), probs)
        assert net.value(obs) == value
    again = compute_loss_and_grads(net, *update, entropy_coeff=0.01)
    assert again[0] == loss and np.array_equal(again[1], grads)


@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
def test_an_observation_of_the_wrong_width_names_the_expected_one(head_kind):
    net = ActorCriticNet(obs_dim=6, head_kind=head_kind, latent_dim=4, seed=7)
    for decide in (net.policy_probs, net.value):
        with pytest.raises(ValueError, match=r"\[batch, 6\] input, got shape \(1, 5\)"):
            decide(np.zeros(5))
    with pytest.raises(ValueError, match=r"\[batch, 6\] input"):
        compute_loss_and_grads(net, np.zeros((3, 7)), [0, 1, 2], np.zeros(3))


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def crafted_net(value: float, prob_taken: float, obs_dim: int = 4):
    """Net with V(s) = value and pi(action 0 | s) = prob_taken for all s."""
    net = ActorCriticNet(obs_dim=obs_dim, seed=0)
    net.critic.dense_out.w.value[...] = 0.0
    net.critic.dense_out.b.value[...] = value
    net.policy.dense_out.w.value[...] = 0.0
    rest = (1.0 - prob_taken) / 2.0
    net.policy.dense_out.b.value[...] = np.log([prob_taken, rest, rest])
    return net


def test_loss_worked_example():
    # R = 2, V = 1.5, log pi(a) = -1  ->  L = 0.5 * 0.25 + 1.0 * 0.5 = 0.625
    net = crafted_net(value=1.5, prob_taken=np.exp(-1.0))
    loss, _ = compute_loss_and_grads(
        net, np.zeros((1, 4)), [0], np.array([2.0])
    )
    assert loss == pytest.approx(0.625, abs=1e-12)


def test_zero_advantage_zero_gradients():
    net = crafted_net(value=2.0, prob_taken=0.4)
    loss, grads = compute_loss_and_grads(
        net, np.zeros((1, 4)), [0], np.array([2.0])
    )
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grads, 0.0, atol=1e-12)


@pytest.mark.parametrize("head_kind,entropy", [
    ("classical", 0.0), ("classical", 0.01), ("quantum", 0.0), ("quantum", 0.01),
])
def test_loss_gradients_match_finite_differences(head_kind, entropy):
    rng = np.random.default_rng(17)
    net = ActorCriticNet(obs_dim=3, head_kind=head_kind, latent_dim=3,
                         vqc_depth=1, seed=4)
    states = rng.normal(size=(2, 3))
    actions = [0, 2]
    returns = np.array([1.0, -0.5])
    theta0 = net.get_flat()

    # the advantage is detached in the policy term, so the differentiable
    # surrogate the oracle probes keeps it frozen at its base value
    frozen_adv = returns - np.array([net.value(s) for s in states])

    def surrogate(theta):
        net.set_flat(theta)
        total = 0.0
        for s, a, ret, adv in zip(states, actions, returns, frozen_adv):
            value = net.value(s)
            probs = net.policy_probs(s)
            total += 0.5 * (ret - value) ** 2 - np.log(probs[a]) * adv
            total += entropy * np.sum(probs * np.log(probs))
        return total

    net.set_flat(theta0)
    _, grads = compute_loss_and_grads(net, states, actions, returns,
                                      entropy_coeff=entropy)
    h = 1e-5
    for i in range(theta0.size):
        probe = theta0.copy()
        probe[i] += h
        up = surrogate(probe)
        probe[i] -= 2 * h
        dn = surrogate(probe)
        fd = (up - dn) / (2 * h)
        assert abs(grads[i] - fd) < 1e-5, f"param {i}"
    net.set_flat(theta0)


@pytest.mark.parametrize("head_kind,entropy", [
    ("classical", 0.0), ("classical", 0.01), ("quantum", 0.0), ("quantum", 0.01),
])
def test_closed_form_matches_a_per_row_loop_of_the_loss(head_kind, entropy):
    rng = np.random.default_rng(29)
    net = ActorCriticNet(obs_dim=5, head_kind=head_kind, latent_dim=3, seed=6)
    states = rng.normal(scale=2.0, size=(7, 5))
    actions = rng.integers(0, N_ACTIONS, 7)
    returns = rng.normal(size=7)
    logits, _ = net.policy.run(states)
    values, _ = net.critic.run(states)

    # each head's output grad, as the update hands it to the head's backward
    seen = {}
    for name in ("policy", "critic"):
        head = getattr(net, name)

        def capture(saved, g, name=name, backward=head.backward):
            seen[name] = g.copy()
            backward(saved, g)

        head.backward = capture

    loss, _ = compute_loss_and_grads(net, states, actions, returns,
                                     entropy_coeff=entropy)

    want_loss = 0.0
    want_g = np.zeros((7, N_ACTIONS))
    for t in range(7):
        z = logits[t].tolist()
        top = max(z)
        total = sum(math.exp(zj - top) for zj in z)
        logp = [zj - top - math.log(total) for zj in z]
        p = [math.exp(lj) for lj in logp]
        adv = returns[t] - values[t, 0]
        neg_entropy = sum(pj * lj for pj, lj in zip(p, logp))
        want_loss += 0.5 * adv * adv - logp[actions[t]] * adv + entropy * neg_entropy
        for j in range(N_ACTIONS):
            want_g[t, j] = (adv * (p[j] - (j == actions[t]))
                            + entropy * (p[j] * logp[j] - p[j] * neg_entropy))
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    assert np.allclose(seen["policy"], want_g, rtol=1e-12, atol=1e-14)
    assert np.array_equal(seen["critic"], (values[:, 0] - returns)[:, None])


@pytest.mark.parametrize("head_kind,entropy", [
    ("classical", 0.0), ("classical", 0.01), ("quantum", 0.0), ("quantum", 0.01),
])
def test_a_dominant_logit_gives_a_finite_loss_and_gradient(head_kind, entropy):
    # the other actions' probabilities underflow to 0; log p must not
    net = ActorCriticNet(obs_dim=4, head_kind=head_kind, latent_dim=3, seed=1)
    net.policy.dense_out.b.value[...] = [800.0, 0.0, 0.0]
    states = np.random.default_rng(2).normal(size=(6, 4))
    assert net.policy_probs(states[0])[1] == 0.0
    loss, grads = compute_loss_and_grads(net, states, np.zeros(6, dtype=int),
                                         np.linspace(-1.0, 1.0, 6),
                                         entropy_coeff=entropy)
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grads)) and np.any(grads != 0.0)


def test_policy_gradient_sign():
    """One SGD step with a positive advantage raises log pi of the action."""
    net = ActorCriticNet(obs_dim=3, seed=11)
    obs = np.array([0.2, -0.4, 0.9])
    action = 1
    before = np.log(net.policy_probs(obs)[action])
    value = net.value(obs)
    returns = np.array([value + 1.0])  # strictly positive advantage
    _, grads = compute_loss_and_grads(net, obs[None, :], [action], returns)
    theta = net.get_flat() - 0.01 * grads
    net.set_flat(theta)
    assert np.log(net.policy_probs(obs)[action]) > before


def test_length_mismatch_rejected():
    net = ActorCriticNet(obs_dim=3, seed=0)
    with pytest.raises(ValueError):
        compute_loss_and_grads(net, np.zeros((2, 3)), [0], np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# global parameter store
# ---------------------------------------------------------------------------

def test_sgd_push_worked_example():
    store = GlobalParams(np.array([1.0]), SgdOptimizer(1, 0.1))
    out = store.push_and_pull(np.array([0.5]))
    assert out[0] == pytest.approx(0.95)


def test_zero_gradient_push_is_fixed_point():
    theta = np.array([0.5, -1.5])
    store = GlobalParams(theta, SgdOptimizer(2, 0.1))
    assert np.array_equal(store.push_and_pull(np.zeros(2)), theta)


def test_nonfinite_gradient_rejected():
    store = GlobalParams(np.zeros(2), SgdOptimizer(2, 0.1))
    with pytest.raises(GradientRejected):
        store.push_and_pull(np.array([np.nan, 0.0]))
    assert np.array_equal(store.pull(), np.zeros(2))  # untouched


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_single_episode_history_length():
    config = TrainConfig(max_episodes=1, n_workers=1, seed=0)
    history = train(config, lambda: sawtooth_env())
    assert len(history.rewards) == 1
    assert len(history.moving_average) == 1


def test_train_single_worker_is_deterministic():
    config = TrainConfig(max_episodes=5, n_workers=1, seed=42)
    h1 = train(config, lambda: sawtooth_env())
    h2 = train(config, lambda: sawtooth_env())
    assert h1.rewards == h2.rewards
    assert np.array_equal(h1.final_theta, h2.final_theta)


def test_train_two_workers_runs_and_counts():
    config = TrainConfig(max_episodes=6, n_workers=2, seed=1)
    history = train(config, lambda: sawtooth_env(n=16))
    assert len(history.rewards) == 6


def test_shared_episode_budget_caps_history_below_worker_count():
    nets = []

    def net_factory():
        nets.append(ActorCriticNet(obs_dim=sawtooth_env().observation_dim, seed=0))
        return nets[-1]

    config = TrainConfig(max_episodes=2, n_workers=3, seed=0)
    history = train(config, lambda: sawtooth_env(n=16), net_factory)
    assert len(history.rewards) == 2
    assert len(nets) == 3  # one net per worker, no template


def test_train_builds_one_env_per_worker():
    envs = []

    def env_factory():
        envs.append(sawtooth_env(n=16))
        return envs[-1]

    train(TrainConfig(max_episodes=2, n_workers=2), env_factory)
    assert len(envs) == 2  # the net's width comes from worker 0's env


def test_train_two_workers_is_deterministic():
    config = TrainConfig(max_episodes=10, n_workers=2, seed=1)
    h1, h2 = (train(config, lambda: sawtooth_env(n=16)) for _ in range(2))
    assert h1.rewards == h2.rewards
    assert np.array_equal(h1.final_theta, h2.final_theta)


def test_workers_take_turns_one_push_each():
    steps = []

    class LoggingEnv:
        observation_dim = 4

        def __init__(self, worker_id):
            self.worker_id = worker_id

        def reset(self):
            self.t = 0
            return np.zeros(4)

        def held_observations(self, limit):
            return np.zeros((min(limit, 6 - self.t), 4))

        def step(self, action):
            steps.append(self.worker_id)
            self.t += 1
            return np.zeros(4), 0.0, self.t == 6, {}

    made = iter(range(2))
    config = TrainConfig(max_episodes=4, n_workers=2, update_every=3, seed=0)
    history = train(config, lambda: LoggingEnv(next(made)),
                    lambda: ActorCriticNet(obs_dim=4, seed=0))
    assert len(history.rewards) == 4
    assert steps == ([0] * 3 + [1] * 3) * 4


def test_rejected_gradient_resyncs_the_worker_to_the_global_parameters(monkeypatch):
    computed_on = []  # (net, its parameters) at each loss and gradient
    accepted = []     # the global parameters after each accepted push

    def loss_and_grads(net, *args, **kwargs):
        computed_on.append((net, net.get_flat()))
        loss, grads = compute_loss_and_grads(net, *args, **kwargs)
        if len(computed_on) == 3:  # worker 0's second push
            grads[0] = np.nan
        return loss, grads

    push = GlobalParams.push_and_pull

    def recorded_push(self, grads):
        accepted.append(push(self, grads))
        return accepted[-1]

    monkeypatch.setattr(a3c, "compute_loss_and_grads", loss_and_grads)
    monkeypatch.setattr(GlobalParams, "push_and_pull", recorded_push)
    config = TrainConfig(max_episodes=4, n_workers=2, update_every=4, seed=0)
    history = train(config, lambda: sawtooth_env(n=16))
    assert len(history.rewards) == 4
    assert len(accepted) == len(computed_on) - 1
    assert np.array_equal(history.final_theta, accepted[-1])
    # pushes alternate: worker 0, worker 1, worker 0 (rejected), worker 1,
    # worker 0 again, which computes on what it pulled at the rejection
    (net0, _), (net1, _), (rejected, before), _, (resynced, after) = computed_on[:5]
    assert net0 is not net1 and rejected is net0 and resynced is net0
    assert np.array_equal(before, accepted[0])
    assert np.array_equal(after, accepted[1])
    assert not np.array_equal(after, before)


def test_train_quantum_mode_smoke():
    config = TrainConfig(max_episodes=2, n_workers=1, seed=0,
                         head_kind="quantum", latent_dim=3, vqc_depth=1)
    history = train(config, lambda: sawtooth_env(n=16))
    assert len(history.rewards) == 2
    assert np.all(np.isfinite(history.final_theta))


@pytest.mark.parametrize("n_workers", [1, 2])
def test_worker_failure_aborts_with_diagnostic(n_workers):
    class BrokenEnv:
        observation_dim = 4

        def reset(self):
            raise RuntimeError("boom")

        def __len__(self):
            return 1

    config = TrainConfig(max_episodes=2, n_workers=n_workers, seed=0)
    with pytest.raises(TrainingError, match="boom"):
        train(config, lambda: BrokenEnv(),
              lambda: ActorCriticNet(obs_dim=4, seed=0))


def test_net_factory_failure_aborts_with_diagnostic():
    def broken_net():
        raise RuntimeError("no net")

    config = TrainConfig(max_episodes=2, n_workers=2, seed=0)
    with pytest.raises(TrainingError, match="no net"):
        train(config, lambda: sawtooth_env(n=16), broken_net)


def test_train_config_validation():
    assert TrainConfig().n_workers == 1
    with pytest.raises(ConfigError):
        TrainConfig(n_workers=0)
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(update_every=0)
    with pytest.raises(ConfigError):
        TrainConfig(head_kind="analog")


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.inf),
    ("learning_rate", np.nan), ("entropy_coeff", np.nan), ("entropy_coeff", -np.inf),
    ("vqc_depth", 0), ("vqc_depth", -1), ("clip_norm", 0.0), ("clip_norm", -40.0),
])
def test_train_config_bounds(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})
    assert TrainConfig(clip_norm=None).clip_norm is None


def test_train_config_latent_dim_at_least_one():
    with pytest.raises(ConfigError, match="latent_dim"):
        TrainConfig(latent_dim=0)


def test_train_config_quantum_latent_dim_within_qubit_limit():
    assert TrainConfig(head_kind="quantum", latent_dim=MAX_QUBITS).latent_dim == MAX_QUBITS
    assert TrainConfig(latent_dim=MAX_QUBITS + 8).latent_dim == MAX_QUBITS + 8
    with pytest.raises(ConfigError, match="latent_dim"):
        TrainConfig(head_kind="quantum", latent_dim=MAX_QUBITS + 1)


def test_moving_average_trailing_window():
    vals = list(range(1, 201))
    ma = moving_average(vals)
    assert ma[0] == 1.0
    assert ma[99] == pytest.approx(np.mean(vals[:100]))
    assert ma[-1] == pytest.approx(np.mean(vals[100:]))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_uniform_policy_evaluates_to_flat_asset():
    net = ActorCriticNet(obs_dim=8, seed=0)
    net.policy.dense_out.w.value[...] = 0.0
    net.policy.dense_out.b.value[...] = 0.0  # uniform -> argmax tie -> hold
    env = sawtooth_env()
    run = evaluate_policy(net, env)
    assert all(a == HOLD for a in run.actions)
    assert all(v == 10_000.0 for v in run.asset_values)
    assert run.trades == []


@pytest.mark.parametrize("head, digests", [
    (dict(max_episodes=20),
     ("13ff7f22b490529c784d4d87fd2425cb20ee9ab5b5104cd1e36862e9ea20ea18",
      "4532d92744333de5839ead998a99b91d9530de693080b04d816e2110de1b0ce2",
      "578efa2f6cfa244185f4eb49f90ba1dcb80423e14bfd506a568d7e22978b49f7")),
    (dict(max_episodes=3, head_kind="quantum", latent_dim=4, vqc_depth=2),
     ("d6417d600b09ac8cbe2b29e3076e3a145bc786222212437a0fa11d2fd8bb80bc",
      "908cc928cf0cc3a4e9f435cfbf17b0fbdfecd7ae9cefd4c3386b962038558aa1",
      "899f3e562cc2ab4e211e028fcda7f72bac1edabc591fbe4e7277200707d1a50e")),
    (dict(max_episodes=2, head_kind="quantum", latent_dim=BLOCK_MAX_QUBITS + 1,
          vqc_depth=2),
     ("d2692752f2480cbc872a19aab85c7824fc8f26cc504aae3ff09891b4c5287a1d",
      "af49bf5bd9fe1bdda88e95b52767a0c412a9e662d6fb70e138cc36c5996993c0",
      "7ded7bdfe30f8636eef8ab170eb4714c900d0ef129a02cc9d0842d344e0796a2")),
], ids=["classical", "quantum", "quantum-gates"])
def test_seeded_training_is_pinned(head, digests):
    # c06's sawtooth and hyperparameters, one worker: a change that claims
    # identical results must leave every reward, final parameter and step
    # of the trained net's greedy evaluation bit for bit as it was
    config = dict(n_workers=1, seed=0, gamma=0.95, learning_rate=1e-3,
                  entropy_coeff=0.01, latent_dim=8, update_every=20)
    config = TrainConfig(**{**config, **head})
    history = train(config, lambda: sawtooth_env(n=120))
    env = sawtooth_env(n=120)
    net = config.build_net(env.observation_dim)
    net.set_flat(history.final_theta)
    run = evaluate_policy(net, env)
    got = (hashlib.sha256(np.asarray(history.rewards, np.float64).tobytes()).hexdigest(),
           hashlib.sha256(history.final_theta.tobytes()).hexdigest(),
           hashlib.sha256(np.asarray(run.actions, np.int64).tobytes()
                          + np.asarray(run.prices, np.float64).tobytes()
                          + np.asarray(run.asset_values, np.float64).tobytes()
                          ).hexdigest())
    assert got == digests


def test_greedy_tie_break_lowest_index():
    assert greedy_action(np.array([1 / 3, 1 / 3, 1 / 3])) == 0
    assert greedy_action(np.array([0.2, 0.4, 0.4])) == 1


def argmax_action(probs):
    """The numpy choice greedy_action must match."""
    p = np.asarray(probs)
    if not np.isfinite(p).all():
        raise ValueError(f"non-finite action probabilities {p}")
    return int(p.argmax())


def test_greedy_matches_argmax_on_random_sparse_and_tied_vectors():
    rng = np.random.default_rng(4)
    vectors = [[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.5, 0.5], [1.0]]
    for _ in range(2000):
        p = rng.dirichlet(np.ones(N_ACTIONS))
        vectors += [p, p * (rng.random(N_ACTIONS) < 0.5), np.round(p, 1),
                    p[rng.integers(0, N_ACTIONS, N_ACTIONS)]]  # repeats make ties
    for p in vectors:
        got = greedy_action(np.asarray(p))
        assert type(got) is int and got == argmax_action(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        greedy_action(np.array([bad, bad, bad]))
    with pytest.raises(ValueError):
        greedy_action(np.array([0.2, bad, 0.4]))


def test_greedy_rejects_an_empty_vector():
    with pytest.raises(ValueError):
        argmax_action(np.zeros(0))
    with pytest.raises(ValueError):
        greedy_action(np.zeros(0))


class ScriptedNet:
    """A net whose policy head gives each observation row one-hot logits
    for the action ``pick(row)``."""

    def __init__(self, pick):
        self.pick = pick
        self.policy = self

    def run(self, rows):
        return np.eye(N_ACTIONS)[[self.pick(row) for row in rows]], None


def test_hand_built_buy_sell_net_logs_one_trade():
    # scripted policy: buy when flat, sell when long (via the position flag)
    env = make_env([100.0, 110.0], trade_cost_rate=0.001)
    run = evaluate_policy(ScriptedNet(lambda obs: BUY if obs[-2] == 0.0 else SELL), env)
    assert run.actions == [BUY, SELL]
    assert len(run.trades) == 1
    trade = run.trades[0]
    assert trade.buy_price == 100.0
    assert trade.sell_price == 110.0
    assert trade.profit == pytest.approx(110 - 100 - 0.11)
    assert run.position_flags == [1, 0]


def test_evaluation_accounting_identity():
    for seed in range(20):
        env = sawtooth_env()
        run = evaluate_random(env, seed=seed)
        assert run.final_asset - 10_000.0 == pytest.approx(
            sum(t.profit for t in run.trades), abs=1e-9
        )


def test_buy_on_final_row_trade_carries_the_fee():
    # flat until the final row's observation, then buy
    buy_at_end = ScriptedNet(lambda obs: BUY if obs[0] > 1.0 else HOLD)
    env = make_env([100.0, 101.0, 110.0], trade_cost_rate=0.01)
    run = evaluate_policy(buy_at_end, env)
    assert run.actions[-1] == BUY
    assert len(run.trades) == 1
    assert run.trades[0].buy_date == run.trades[0].sell_date
    assert run.trades[0].profit == pytest.approx(-0.01 * 110.0)
    assert run.final_asset - 10_000.0 == pytest.approx(
        sum(t.profit for t in run.trades), abs=1e-9
    )


def test_forced_liquidation_closes_open_trade():
    env = make_env([100.0, 105.0, 112.0])
    run = evaluate_policy(ScriptedNet(lambda obs: BUY), env)
    assert len(run.trades) == 1
    assert run.trades[0].sell_date == run.dates[-1]
    assert run.position_flags == [1, 1, 1]  # liquidation is not an agent action


def test_replayed_position_flags_match_the_env():
    # a run keeps only the executed actions; its flags are derived by replay
    for seed in range(20):
        env = sawtooth_env(n=3 + seed)
        positions, step = [], env.step

        def recording_step(action):
            result = step(action)
            positions.append(result[3]["position"])
            return result

        env.step = recording_step
        assert evaluate_random(env, seed=seed).position_flags == positions


def test_evaluation_csv_roundtrip(tmp_path):
    env = sawtooth_env()
    run = evaluate_random(env, seed=3)
    path = tmp_path / "evaluation.csv"
    run.to_csv(path, stamp="config_hash=abc seed=3")
    back = EvaluationRun.from_csv(path)
    # the CSV holds 12 significant digits of each price and asset value
    assert back == EvaluationRun(
        run.dates, run.actions, [float(f"{p:.12g}") for p in run.prices],
        [float(f"{a:.12g}") for a in run.asset_values])
    assert back.position_flags == run.position_flags
    assert len(back.trades) == len(run.trades)
    for a, b in zip(back.trades, run.trades):
        assert a.buy_date == b.buy_date and a.sell_date == b.sell_date
        assert a.profit == pytest.approx(b.profit, abs=1e-9)
    again = tmp_path / "again.csv"
    back.to_csv(again, stamp="config_hash=abc seed=3")
    assert again.read_bytes() == path.read_bytes()


def test_evaluation_csv_reads_cells_as_ingest_does(tmp_path):
    # a date cell is read by ingest's rule: blanks stripped, basic ISO form
    path = tmp_path / "evaluation.csv"
    path.write_text("date,action,price,asset_value\n"
                    " 2022-01-07 ,buy,100,1000\n20220114,sell,101,1010\n")
    assert EvaluationRun.from_csv(path).dates == [dt.date(2022, 1, 7),
                                                  dt.date(2022, 1, 14)]
    # a short row is an IngestionError naming the file and the row
    for short in ("2022-01-14,sell,101", "2022-01-14,sell", "2022-01-14"):
        path.write_text(f"date,action,price,asset_value\n2022-01-07,buy,100,1000\n{short}\n")
        with pytest.raises(IngestionError, match=re.escape(f"{path}: row 3: ")):
            EvaluationRun.from_csv(path)


def random_reward_history(env: TradingEnv, episodes: int, seed: int = 0) -> list[float]:
    """Per-episode total rewards of the uniform-random policy."""
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(episodes):
        env.reset()
        total = 0.0
        done = False
        while not done:
            _, reward, done, _ = env.step(int(rng.integers(N_ACTIONS)))
            total += reward
        history.append(total)
    return history


def test_random_baseline_reward_history_flat():
    env = sawtooth_env(n=16)
    history = random_reward_history(env, episodes=300, seed=5)
    x = np.arange(300, dtype=float)
    y = np.asarray(history)
    slope = np.polyfit(x, y, 1)[0]
    residuals = y - np.polyval(np.polyfit(x, y, 1), x)
    se = np.sqrt(np.sum(residuals ** 2) / (300 - 2) / np.sum((x - x.mean()) ** 2))
    assert abs(slope) < 2 * se


# ---------------------------------------------------------------------------
# policy tables
# ---------------------------------------------------------------------------

def record_decisions(monkeypatch, net, env, decide_name):
    """The events of decisions on ``net`` in ``env``, in order: ("obs", o)
    for each observation the env returns, ("run", rows, logits) for each
    policy forward and ("probs", p) for each decision, read where
    ``a3c.<decide_name>`` is handed the probabilities."""
    events = []

    def recorded(method, record):
        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            events.append(record(args, out))
            return out
        return call

    env.reset = recorded(env.reset, lambda args, obs: ("obs", obs.copy()))
    env.step = recorded(env.step, lambda args, out: ("obs", out[0].copy()))
    net.policy.run = recorded(net.policy.run,
                              lambda args, out: ("run", args[0].copy(), out[0].copy()))
    monkeypatch.setattr(a3c, decide_name, recorded(
        getattr(a3c, decide_name), lambda args, out: ("probs", args[0].copy())))
    return events


def table_rows_of_decisions(events):
    """(obs, i, table row i, its logits, p) of each decision: the row is the
    latest policy forward's, counted from its first row by the decisions
    since."""
    out, obs, run, i = [], None, None, 0
    for kind, *data in events:
        if kind == "obs":
            obs = data[0]
        elif kind == "run":
            run, i = data, 0
        else:
            rows, logits = run
            out.append((obs, i, rows[i], logits[i], data[0]))
            i += 1
    return out


@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
@pytest.mark.parametrize("decide_name", ["categorical_sample", "greedy_action"])
def test_every_decision_is_the_softmax_row_of_its_table_row(head_kind, decide_name,
                                                            monkeypatch):
    config = TrainConfig(max_episodes=3, update_every=7, seed=4, head_kind=head_kind,
                         latent_dim=4, vqc_depth=1)
    env = sawtooth_env(n=40)
    net = config.build_net(env.observation_dim)
    events = record_decisions(monkeypatch, net, env, decide_name)
    if decide_name == "categorical_sample":
        train(config, lambda: env, lambda: net)
    else:
        net.set_flat(train(config, lambda: sawtooth_env(n=40)).final_theta)
        evaluate_policy(net, env)
    decisions = table_rows_of_decisions(events)
    episodes = config.max_episodes if decide_name == "categorical_sample" else 1
    assert len(decisions) == 40 * episodes
    for obs, _, row, logits, p in decisions:
        assert obs.tobytes() == row.tobytes()
        assert p.tobytes() == diffnet.softmax_row(logits).tobytes()
    assert max(i for _, i, *_ in decisions) >= 2  # tables served runs of holds


def count_policy_forwards(net, log):
    """Append each policy forward's row count to ``log``."""
    run = net.policy.run
    net.policy.run = lambda rows: log.append(len(rows)) or run(rows)


def test_a_buy_a_sell_a_reset_and_a_drop_refill_the_table():
    env = make_env(np.linspace(100.0, 120.0, 24))  # no two weeks observed alike
    net = ActorCriticNet(env.observation_dim, seed=0)
    fills = []
    count_policy_forwards(net, fills)
    table = a3c.PolicyTable(net, env)
    table.probs(env.reset())
    for action, refills in ((HOLD, False), (BUY, True), (HOLD, False), (HOLD, False),
                            (SELL, True), (HOLD, False), (SELL, False)):
        before = len(fills)
        table.probs(env.step(action)[0])
        assert len(fills) - before == refills, action
    obs = env.reset()
    table.probs(obs)
    table.drop()  # as after new parameters: the same observation refills
    table.probs(obs)
    assert fills == [a3c.TABLE_ROWS] * 5


def test_held_observations_that_miss_the_observation_are_refused():
    env = sawtooth_env(n=16)
    obs = env.reset()
    held = env.held_observations
    env.held_observations = lambda limit: held(limit) + 1.0
    table = a3c.PolicyTable(ActorCriticNet(env.observation_dim, seed=0), env)
    with pytest.raises(ValueError, match="held observations do not start"):
        table.probs(obs)


def test_a_push_ends_the_table(monkeypatch):
    # a policy that always holds and an update that runs no head: only the
    # pushes, every third step and at the series end, end a table
    monkeypatch.setattr(a3c, "categorical_sample", lambda probs, rng: HOLD)
    monkeypatch.setattr(a3c, "compute_loss_and_grads", lambda net, *args, **kwargs: (
        0.0, np.zeros(net.store.values.size)))
    env = sawtooth_env(n=16)
    net = ActorCriticNet(env.observation_dim, seed=0)
    events = []
    count_policy_forwards(net, events)
    set_flat = net.set_flat
    net.set_flat = lambda theta: events.append("pull") or set_flat(theta)
    train(TrainConfig(max_episodes=1, update_every=3), lambda: env, lambda: net)
    assert events == ["pull"] + [3, "pull"] * 5 + [1, "pull"]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 20])
def test_a_greedy_rollout_that_never_trades_runs_one_forward_per_table(n):
    net = ScriptedNet(lambda obs: SELL)  # a sell while flat executes as a hold
    runs = []
    count_policy_forwards(net, runs)
    assert evaluate_policy(net, make_env(np.linspace(100.0, 120.0, n))).actions == [HOLD] * n
    assert len(runs) == math.ceil(n / a3c.TABLE_ROWS)
    assert sum(runs) == n


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("head_kind", ["classical", "quantum"])
def test_checkpoint_roundtrip(tmp_path, head_kind):
    net = ActorCriticNet(obs_dim=5, head_kind=head_kind, latent_dim=3,
                         vqc_depth=1, seed=9)
    path = tmp_path / "net.qnet"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.head_kind == head_kind
    assert np.array_equal(back.get_flat(), net.get_flat())
    obs = np.random.default_rng(0).normal(size=5)
    assert np.array_equal(back.policy_probs(obs), net.policy_probs(obs))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.qnet"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)
