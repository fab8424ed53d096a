"""Gradient-tape tests. Every differentiable op is cross-checked against
central finite differences computed through the forward pass alone."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantrl import qsim
from quantrl.a3c import Head
from quantrl.diffnet import (
    AdamOptimizer,
    Dense,
    FlatStore,
    LstmCell,
    Node,
    Param,
    SgdOptimizer,
    Tape,
    categorical_sample,
    clip_global_norm,
    log_softmax,
    pack_arrays,
    unpack_arrays,
)
from quantrl.diffnet import _sigmoid
from quantrl.forecaster import ForecastModel
from quantrl.qsim import VqcParams, run_vqc_batch


def finite_difference(build_loss, params, h=1e-5):
    """Central-difference gradient of build_loss() w.r.t. every Param entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss()
            flat[i] = orig - h
            dn = build_loss()
            flat[i] = orig
            g.ravel()[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def tape_gradient(build_loss_on_tape, params):
    FlatStore(params).zero_grads()
    tape = Tape()
    loss = build_loss_on_tape(tape)
    tape.backward(loss)
    return [p.grad.copy() for p in params]


# ---------------------------------------------------------------------------
# dense / activations
# ---------------------------------------------------------------------------

def test_dense_identity():
    rng = np.random.default_rng(0)
    layer = Dense(2, 2, rng)
    layer.w.value[...] = np.eye(2)
    layer.b.value[...] = 0.0
    out = Tape().dense(layer, Node(np.array([[1.0, 2.0]])))
    assert np.array_equal(out.value, [[1.0, 2.0]])


def test_dense_arithmetic():
    layer = Dense(2, 1, np.random.default_rng(0))
    layer.w.value[...] = [[1.0, 1.0]]
    layer.b.value[...] = [1.0]
    out = Tape().dense(layer, Node(np.array([[2.0, 3.0]])))
    assert out.value[0, 0] == pytest.approx(6.0)


def test_dense_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    layer = Dense(5, 3, rng)
    x = rng.normal(size=(7, 5))
    out = Tape().dense(layer, Node(x))
    want = np.empty((7, 3))
    for i in range(7):
        for j in range(3):
            want[i, j] = sum(layer.w.value[j, k] * x[i, k] for k in range(5)) + layer.b.value[j]
    assert np.allclose(out.value, want, atol=1e-12)


def test_dense_shape_mismatch():
    layer = Dense(3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        Tape().dense(layer, Node(np.zeros((1, 4))))


def _apply_op(op, x):
    """The output of one entry that takes a batch, for the array x of
    3-wide rows (2-step sequences of them for an LSTM and the forecaster):
    the tape's dense op, an LSTM sequence, a quantum ("vqc") or classical
    actor-critic head, the forecaster, or a qsim entry."""
    rng = np.random.default_rng(0)
    params = VqcParams(3, 1, rng.uniform(-1, 1, (1, 3, 2)))
    if op == "dense":
        return Tape().dense(Dense(3, 2, rng), Node(x)).value
    if op == "lstm":
        return LstmCell(3, 2, rng).run(x)[0]
    if op == "forecaster":
        return ForecastModel(3, 2, 2).predict_batch(x)
    if op == "run_vqc_batch":
        return run_vqc_batch(x, params)
    if op in ("vqc_gradients_batch", "parameter_shift_gradients_batch"):
        return getattr(qsim, op)(x, params, np.ones(np.shape(x)))[1]
    head = Head(3, 3, 2, None if op == "classical-head" else 1, rng)
    if op == "vqc":
        head.circuit = VqcParams(3, 1, head.encoder.value)
    return head.run(x)[0]


@pytest.mark.parametrize("op", [
    "dense", "lstm", "vqc", "classical-head", "forecaster", "run_vqc_batch",
    "vqc_gradients_batch", "parameter_shift_gradients_batch"])
def test_ops_take_batches_only(op):
    x = np.array([0.1, -0.2, 0.3])
    # an LSTM and the forecaster take a batch of sequences:
    # [batch, steps, features]
    batch = np.stack([x, -x])[None] if op in ("lstm", "forecaster") else x[None, :]
    assert _apply_op(op, batch).shape[0] == 1
    # one message form for every entry: its name, the shape it takes and
    # the shape it got
    form = r"^[\w-]+ expects a \[batch, (\w+, )*3\] input, got shape \([\d, ]*\)$"
    for bad in (batch[0], batch[..., :2], batch[None]):
        with pytest.raises(ValueError, match=form):
            _apply_op(op, bad)


def test_softmax_symmetry():
    p, logp = log_softmax(np.zeros(3))
    assert np.allclose(p, [1 / 3] * 3, atol=1e-15)
    assert np.allclose(logp, [-math.log(3)] * 3, atol=1e-15)


def test_tanh_zero():
    assert Tape().tanh(Node(np.zeros(1))).value[0] == 0.0


def test_softmax_large_logits_no_overflow():
    out, logp = log_softmax(np.array([1000.0, 0.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)
    # log p stays finite where log(p) of the underflowed entries is -inf
    assert out[1] == 0.0 and logp[1] == -1000.0


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(scale=5, size=4)
        s, logp = log_softmax(v)
        assert abs(s.sum() - 1.0) < 1e-12
        assert np.allclose(logp, np.log(s), rtol=0.0, atol=1e-12)
        shifted, _ = log_softmax(v + 123.456)
        assert np.max(np.abs(s - shifted)) < 1e-12
        assert np.argmax(s) == np.argmax(shifted)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_simplex_property(logits):
    s, _ = log_softmax(np.array(logits))
    assert abs(s.sum() - 1.0) < 1e-12
    assert np.all(s >= 0)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7])
def test_softmax_row_matches_softmax_bit_for_bit(width):
    # row i of log_softmax over a batch has the bits of log_softmax of that
    # row alone: a decision reads its p from a policy table's batch
    rng = np.random.default_rng(width)
    rows = [rng.normal(scale=scale, size=width)
            for scale in (1e-6, 1.0, 10.0, 300.0) for _ in range(400)]
    rows += [np.zeros(width), np.full(width, -2.5),                  # ties
             np.array([1.0, 1.0, -3.0, 0.5, 1.0, 0.0, 1.0])[:width]]
    if width > 1:  # one probability underflows to 0
        underflow = np.append(rng.normal(size=width - 1), -800.0)
        assert log_softmax(underflow)[0][-1] == 0.0
        rows.append(underflow)
    batch = np.array(rows)
    for rows_per_batch in (2, 3, 8, len(batch)):
        for start in range(0, len(batch), rows_per_batch):
            p, logp = log_softmax(batch[start:start + rows_per_batch])
            for i, row in enumerate(batch[start:start + rows_per_batch]):
                alone_p, alone_logp = log_softmax(row[None, :])
                assert p[i].tobytes() == alone_p[0].tobytes()
                assert logp[i].tobytes() == alone_logp[0].tobytes()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_degenerate_distribution():
    rng = np.random.default_rng(0)
    assert all(
        categorical_sample([1.0, 0.0, 0.0], rng) == 0 for _ in range(100)
    )


def test_sample_frequencies_converge():
    rng = np.random.default_rng(123)
    draws = np.array([categorical_sample([0.5, 0.5, 0.0], rng) for _ in range(100_000)])
    freq0 = np.mean(draws == 0)
    assert 0.49 <= freq0 <= 0.51
    assert not np.any(draws == 2)


def test_sample_seed_reproducible():
    a = [categorical_sample([0.3, 0.3, 0.4], np.random.default_rng(9)) for _ in range(50)]
    b = [categorical_sample([0.3, 0.3, 0.4], np.random.default_rng(9)) for _ in range(50)]
    # re-seeding per draw: compare whole sequences drawn from one generator
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    seq1 = [categorical_sample([0.3, 0.3, 0.4], rng1) for _ in range(50)]
    seq2 = [categorical_sample([0.3, 0.3, 0.4], rng2) for _ in range(50)]
    assert a == b and seq1 == seq2


def test_sample_empirical_distribution_close():
    rng = np.random.default_rng(7)
    p = np.array([0.2, 0.5, 0.3])
    draws = np.array([categorical_sample(p, rng) for _ in range(100_000)])
    emp = np.array([np.mean(draws == k) for k in range(3)])
    assert np.max(np.abs(emp - p)) < 0.01


def searchsorted_sample(probs, rng):
    """The numpy sampler categorical_sample must match draw for draw."""
    p = np.asarray(probs, dtype=np.float64)
    c = p.cumsum()
    if not (p.ndim == 1 and p.min() >= 0 and abs(c[-1] - 1.0) <= 1e-9):
        raise ValueError("probs must be a nonnegative vector summing to 1")
    return int(min(c.searchsorted(rng.random(), side="right"), p.size - 1))


def probability_vectors(rng, count=2000):
    """Random, sparse (zero entries anywhere) and tied vectors of 1 to 6
    entries."""
    for _ in range(count):
        n = int(rng.integers(1, 7))
        p = rng.dirichlet(np.ones(n))
        yield p
        sparse = p * (rng.random(n) < 0.5)
        if sparse.sum() > 0:
            yield sparse / sparse.sum()
        yield np.full(n, 1.0 / n)
        tied = np.round(p, 1)
        if tied.sum() > 0:
            yield tied / tied.sum()


def test_sample_matches_searchsorted_draw_for_draw():
    vectors = list(probability_vectors(np.random.default_rng(5)))
    ours, oracle = np.random.default_rng(11), np.random.default_rng(11)
    for p in vectors:
        got = categorical_sample(p, ours)
        assert type(got) is int and got == searchsorted_sample(p, oracle)
    assert ours.bit_generator.state == oracle.bit_generator.state


def test_sample_draw_on_a_running_sum_picks_the_next_index():
    # u equal to a running sum picks the entry after it, as
    # searchsorted(side="right") does; a zero entry in between is skipped
    rng = np.random.default_rng(3)
    shapes = (lambda u: [u, 1.0 - u], lambda u: [0.0, u, 0.0, 1.0 - u],
              lambda u: [u / 2, u / 2, 1.0 - u])
    for _ in range(200):
        for shape in shapes:
            oracle = copy.deepcopy(rng)
            p = shape(copy.deepcopy(rng).random())  # the draw to come
            want = searchsorted_sample(p, oracle)
            assert categorical_sample(p, rng) == want == len(p) - 1
            assert rng.bit_generator.state == oracle.bit_generator.state


class FixedDraw:
    """A generator stand-in whose random() returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_draw_past_a_short_total_picks_the_last_index():
    # rounding may leave the total just under the draw; the last index is
    # taken then, a zero entry included
    for p in ([0.5, 0.5 - 5e-10], [0.5, 0.5 - 5e-10, 0.0]):
        u = FixedDraw(1.0 - 2.0 ** -53)  # the largest Generator.random()
        assert categorical_sample(p, u) == searchsorted_sample(p, u) == len(p) - 1


def test_sample_invalid_distribution():
    # each raises in the numpy oracle too, and before any draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for bad in ([0.5, 0.6], [-0.1, 1.1], [np.nan] * 3, [[0.5, 0.5]], [],
                np.float64(1.0), [1.0 + 2e-9], [0.5, np.nan, 0.5], [np.inf, 0.0],
                [-np.inf, 1.0, 1.0]):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            searchsorted_sample(bad, rng)
        with pytest.raises(ValueError):
            categorical_sample(bad, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def lstm_gradient(cell, head, windows):
    """Every parameter's grad of sum(head(h)) for the final hidden state h
    of ``windows``, by ``LstmCell.backward``."""
    params = cell.parameters() + head.parameters()
    FlatStore(params).zero_grads()
    hidden, saved = cell.run(windows)
    g = np.ones((windows.shape[0], 1))
    head.add_grads(hidden, g)
    cell.backward(saved, g @ head.w.value)
    return [p.grad.copy() for p in params]


def test_lstm_zero_parameters_zero_hidden():
    cell = LstmCell(3, 4, np.random.default_rng(0))
    for p in cell.parameters():
        p.value[...] = 0.0
    h, saved = cell.run(np.array([[[5.0, -2.0, 1.0]]]))
    z, c_prev, gi, gf, go, gg, tc = saved[0]
    assert np.all(h == 0.0)
    assert np.all(tc == 0.0)  # tanh of the cell state


def test_lstm_saturated_forget_gate_preserves_cell():
    # the first step's input opens the input gate and writes the cell; on
    # the later steps the input is zero, so the candidate is 0, the input
    # gate shut and the forget gate saturated: only the forget gate carries
    cell = LstmCell(2, 3, np.random.default_rng(1))
    for p in cell.parameters():
        p.value[...] = 0.0
    loaded = np.array([0.7, -0.4, 0.9])
    cell.b_f.value[...] = 10.0    # forget ~ 1
    cell.b_i.value[...] = -10.0   # input ~ 0 ...
    cell.w_i.value[:, 0] = 20.0   # ... ~ 1 while the first input is 1
    cell.w_g.value[:, 0] = np.arctanh(loaded)
    xs = np.array([[[1.0, 0.0]] + 6 * [[0.0, 0.0]]])
    _, saved = cell.run(xs)
    cells = [c_prev for _, c_prev, *_ in saved[2:]]  # after steps 1-5
    assert len(cells) == 5
    assert np.allclose(cells, loaded[None, None, :], atol=1e-3)


def test_lstm_bptt_matches_finite_differences():
    rng = np.random.default_rng(5)
    cell = LstmCell(3, 4, rng)
    head = Dense(4, 1, rng)
    xs = rng.normal(size=(1, 6, 3))  # a one-row batch of six steps
    params = cell.parameters() + head.parameters()

    got = lstm_gradient(cell, head, xs)
    want = finite_difference(lambda: float(head.apply(cell.run(xs)[0])[0, 0]), params)
    for g, w in zip(got, want):
        denom = np.maximum(np.abs(w), 1e-6)
        assert np.max(np.abs(g - w) / denom) < 1e-4


def test_each_op_records_once(monkeypatch):
    # every op enters the tape through Tape.record, once per output
    calls = []
    record = Tape.record

    def counting(self, value, vjp):
        calls.append(value.shape)
        return record(self, value, vjp)

    monkeypatch.setattr(Tape, "record", counting)
    rng = np.random.default_rng(4)
    layer = Dense(3, 2, rng)
    tape = Tape()
    tape.sum(tape.tanh(tape.dense(layer, Node(rng.normal(size=(5, 3))))))
    assert calls == [(5, 2), (5, 2), ()]


def test_lstm_batched_equals_loop():
    rng = np.random.default_rng(11)
    cell = LstmCell(2, 3, rng)
    xs = rng.normal(size=(4, 3, 2))
    hb, _ = cell.run(xs)
    for i in range(4):
        h, _ = cell.run(xs[i:i + 1])
        assert np.allclose(hb[i], h[0], atol=1e-14)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_at_minimum_gives_zero_grads():
    # loss = 0.5 ||W x - y||^2 with W = I and x = y
    rng = np.random.default_rng(2)
    layer = Dense(3, 3, rng)
    layer.w.value[...] = np.eye(3)
    layer.b.value[...] = 0.0
    x = np.array([[0.3, -1.2, 2.0]])

    tape = Tape()
    out = tape.dense(layer, Node(x))
    err = tape.add_const(out, -x)
    loss = tape.scale(tape.sum(tape.mul(err, err)), 0.5)
    tape.backward(loss)
    assert loss.value == pytest.approx(0.0, abs=1e-30)
    assert np.allclose(layer.w.grad, 0.0, atol=1e-15)
    assert np.allclose(layer.b.grad, 0.0, atol=1e-15)


def test_backward_dense_tanh_matches_hand_chain_rule():
    rng = np.random.default_rng(8)
    layer = Dense(2, 2, rng)
    x = np.array([0.5, -0.25])
    u = np.array([1.3, -0.7])  # contraction weights making the loss scalar

    tape = Tape()
    y = tape.tanh(tape.dense(layer, Node(x[None, :])))
    loss = tape.sum(tape.scale(y, u))
    tape.backward(loss)

    pre = layer.w.value @ x + layer.b.value
    dpre = u * (1 - np.tanh(pre) ** 2)
    assert np.allclose(layer.b.grad, dpre, atol=1e-12)
    assert np.allclose(layer.w.grad, np.outer(dpre, x), atol=1e-12)


def test_backward_without_forward_raises():
    with pytest.raises(ValueError):
        Tape().backward(Node(np.zeros(())))


def test_hybrid_head_matches_finite_differences():
    # dense -> tanh -> VQC -> tanh -> dense, the agent's quantum head
    rng = np.random.default_rng(21)
    n_qubits, depth = 3, 2
    front = Dense(4, n_qubits, rng)
    angles = Param(rng.uniform(-0.5, 0.5, (depth, n_qubits, 2)))
    back = Dense(n_qubits, 2, rng)
    x = rng.uniform(-1, 1, (1, 4))
    u = np.array([0.8, -1.1])
    params = front.parameters() + [angles] + back.parameters()
    head = Head(4, n_qubits, 2, depth, np.random.default_rng(0))  # on the layers above
    head.dense_in, head.encoder, head.dense_out = front, angles, back
    head.circuit = VqcParams(n_qubits, depth, angles.value)

    out, saved = head.run(x)
    head.backward(saved, np.broadcast_to(u, out.shape))
    got = [p.grad.copy() for p in params]
    want = finite_difference(lambda: float(np.sum(head.run(x)[0] * u)), params)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-5


def test_mul_of_a_node_by_itself_matches_finite_differences():
    # mul(h, h) sends h * g into h's grad once per side; h also feeds a
    # second op, so the two adds land on a grad that is already nonzero
    rng = np.random.default_rng(23)
    layer = Dense(3, 4, rng)
    x = rng.normal(size=(2, 3))
    u = rng.normal(size=(2, 4))
    params = layer.parameters()

    def on_tape(t):
        h = t.tanh(t.dense(layer, Node(x)))
        return t.mul(t.sum(t.scale(t.mul(h, h), u)), t.sum(t.scale(h, u)))

    got = tape_gradient(on_tape, params)
    want = finite_difference(lambda: float(on_tape(Tape()).value), params)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-6

    # on a grad that starts at zero, the two adds give 2 x g bit for bit
    tape = Tape()
    err = tape.add_const(Node(x), -1.0)
    tape.backward(tape.sum(tape.scale(tape.mul(err, err), 0.37)))
    assert np.array_equal(err.grad, 2.0 * err.value * 0.37)


def test_randomized_op_gradient_checks():
    """50 random instances across the op set vs finite differences."""
    rng = np.random.default_rng(99)
    for trial in range(50):
        n_in = int(rng.integers(2, 5))
        n_mid = int(rng.integers(2, 5))
        layer1 = Dense(n_in, n_mid, rng)
        layer2 = Dense(n_mid, 3, rng)
        x = rng.normal(size=(1, n_in))
        action = int(rng.integers(3))
        target = rng.normal(size=(1, 3))
        params = layer1.parameters() + layer2.parameters()
        picks = np.eye(3)[[action]]  # a one-hot row: scale then sum picks an entry

        def on_tape(t):
            hid = t.tanh(t.dense(layer1, Node(x)))
            out = t.dense(layer2, hid)
            picked = t.sum(t.scale(t.tanh(out), picks))
            err = t.add_const(out, -target)
            squared = t.sum(t.mul(err, err))
            penalty = t.scale(t.sum(t.mul(hid, hid)), 0.5)
            return t.mul(t.mul(picked, squared), penalty)

        def loss_value():
            t = Tape()
            return float(on_tape(t).value)

        got = tape_gradient(on_tape, params)
        want = finite_difference(loss_value, params)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-5, f"trial {trial}"


# ---------------------------------------------------------------------------
# optimizers / flat params
# ---------------------------------------------------------------------------

def test_sgd_zero_gradient_bit_identical():
    theta = np.array([0.1, -2.5, 3.75])
    out = theta.copy()
    assert SgdOptimizer(3, 0.05).step(out, np.zeros(3)) is None  # steps in place
    assert np.array_equal(out, theta)


def test_adam_zero_gradient_bit_identical():
    theta = np.array([0.1, -2.5, 3.75])
    opt = AdamOptimizer(3, 0.05)
    out = theta.copy()
    for _ in range(3):
        assert opt.step(out, np.zeros(3)) is None
    assert np.array_equal(out, theta)


def test_sgd_worked_example():
    out = np.array([1.0])
    SgdOptimizer(1, 0.1).step(out, np.array([0.5]))
    assert out[0] == pytest.approx(0.95)


def test_adam_first_step_direction():
    opt = AdamOptimizer(2, 0.01)
    theta = np.zeros(2)
    opt.step(theta, np.array([1.0, -1.0]))
    # first Adam step has magnitude ~ lr regardless of gradient scale
    assert theta[0] == pytest.approx(-0.01, rel=1e-6)
    assert theta[1] == pytest.approx(0.01, rel=1e-6)


def test_adam_in_place_step_matches_out_of_place_formula():
    rng = np.random.default_rng(12)
    lr, b1, b2, eps = 0.03, 0.9, 0.999, 1e-8
    theta = rng.normal(size=6)
    want = theta.copy()
    m, v = np.zeros(6), np.zeros(6)
    opt = AdamOptimizer(6, lr)
    for t in range(1, 6):
        grad = rng.normal(size=6)
        opt.step(theta, grad)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat, v_hat = m / (1.0 - b1 ** t), v / (1.0 - b2 ** t)
        want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.array_equal(theta, want)


def test_clip_global_norm():
    g = np.array([3.0, 4.0])
    assert np.allclose(clip_global_norm(g, 5.0), g)
    clipped = clip_global_norm(g, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)


def test_flat_roundtrip():
    rng = np.random.default_rng(4)
    layer = Dense(3, 2, rng)
    cell = LstmCell(2, 2, rng)
    params = layer.parameters() + cell.parameters()
    before = [p.value.copy() for p in params]
    store = FlatStore(params)
    theta = store.values.copy()
    assert np.array_equal(theta, np.concatenate([b.ravel() for b in before]))
    store.set(theta * 2.0)
    assert all(np.array_equal(p.value, 2.0 * b) for p, b in zip(params, before))
    for p in params:
        p.grad += 1.0
    assert np.all(store.grads == 1.0)
    store.zero_grads()
    assert all(np.all(p.grad == 0.0) for p in params)
    for wrong in (theta[:-3], np.append(theta, [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match="flat vector"):
            store.set(wrong)
        assert np.array_equal(store.values, theta * 2.0)  # nothing written


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=7), np.array(2.5)]
    blob = pack_arrays(arrays)
    back = unpack_arrays(blob)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert a.shape == b.shape
        assert np.array_equal(np.asarray(a, dtype=np.float64), b)


def test_unpack_rejects_bad_magic():
    with pytest.raises(ValueError):
        unpack_arrays(b"XXXX" + b"\x00" * 16)


def picking_sigmoid(v):
    """The np.where form _sigmoid must match bit for bit."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def test_sigmoid_is_bit_identical_to_the_picking_form():
    nan = np.float64(np.nan)
    special = np.array([[0.0, -0.0, np.inf, -np.inf, nan, -nan, 800.0, -800.0,
                         1e-300, -1e-300]])
    rng = np.random.default_rng(0)
    for v in [special] + [scale * rng.standard_normal((410, 32))
                          for scale in (0.1, 1.0, 10.0, 100.0, 1000.0)]:
        assert np.array_equal(_sigmoid(v).view(np.int64),
                              picking_sigmoid(v).view(np.int64))


@pytest.mark.filterwarnings("error")
def test_sigmoid_matches_stable_closed_forms_without_overflow():
    v = np.array([[-800.0, -1.0, 0.0, 1.0, 800.0]])
    want = [np.exp(x) / (1.0 + np.exp(x)) if x < 0 else 1.0 / (1.0 + np.exp(-x))
            for x in v[0]]
    got = _sigmoid(v)
    assert got.shape == v.shape
    np.testing.assert_allclose(got[0], want, rtol=1e-15, atol=0.0)
    assert got[0, 0] == 0.0 and got[0, 2] == 0.5 and got[0, 4] == 1.0
