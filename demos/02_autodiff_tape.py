"""The gradient tape underneath both agents and the forecaster.

A forward pass records vector-Jacobian closures on a tape; backward
replays them last-to-first, accumulating into parameter gradients. Every
op takes [batch, features] matrices, which is what keeps trajectory
updates cheap; a single input is a batch of one row.
"""

import numpy as np

from quantrl.diffnet import AdamOptimizer, Dense, FlatStore, LstmCell, Node, Tape

rng = np.random.default_rng(1)

# --- recover a hidden layer from its input/output pairs --------------------
truth = Dense(3, 2, rng)
x = rng.normal(size=(16, 3))            # a whole batch at once
target = np.tanh(x @ truth.w.value.T + truth.b.value)
layer = Dense(3, 2, rng)                # freshly initialized student

store = FlatStore(layer.parameters())  # the weights and grads as two flat vectors
optimizer = AdamOptimizer(store.values.size, 0.05)

for step in range(200):
    store.zero_grads()
    tape = Tape()
    pred = tape.tanh(tape.dense(layer, Node(x)))
    err = tape.add_const(pred, -target)
    loss = tape.scale(tape.sum(tape.square(err)), 1.0 / len(x))
    tape.backward(loss)
    optimizer.step(store.values, store.grads)  # updates the layer in place
    if step % 50 == 0:
        print(f"step {step:3d}  loss {float(loss.value):.5f}")

# --- one LSTM step, and a finite-difference spot check ----------------------
cell = LstmCell(input_size=2, hidden_size=3, rng=rng)
xs = rng.normal(size=(4, 1, 2))  # four steps of a one-row batch


def run_sequence(tape):
    h, c = cell.initial_state(1)
    for step in xs:
        h, c = tape.lstm(cell, step, (h, c))
    return tape.sum(tape.pick(h, [0]))  # scalar: first hidden unit after the sequence


tape = Tape()  # a fresh cell's grads start at zero
out = run_sequence(tape)
tape.backward(out)
analytic = cell.w_f.grad[0, 0]

h = 1e-5
orig = cell.w_f.value[0, 0]
cell.w_f.value[0, 0] = orig + h
up = float(run_sequence(Tape()).value)
cell.w_f.value[0, 0] = orig - h
dn = float(run_sequence(Tape()).value)
cell.w_f.value[0, 0] = orig

print(f"\nBPTT gradient      : {analytic:+.8f}")
print(f"finite differences : {(up - dn) / (2 * h):+.8f}")
