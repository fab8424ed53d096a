"""Reverse-mode gradients two ways: on the tape, and by a hand-written
backward through time.

A forward pass on the tape records vector-Jacobian closures; backward
replays them last-to-first, accumulating into parameter gradients. Every
op takes [batch, features] matrices; a single input is a batch of one row.
The models themselves build no tape: the LSTM cell runs a sequence on
plain arrays, and its backward works BPTT from the arrays that run saved.
The demo exits non-zero if that gradient and finite differences disagree.
"""

import sys

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
    loss = tape.scale(tape.sum(tape.mul(err, err)), 1.0 / len(x))
    tape.backward(loss)
    optimizer.step(store.values, store.grads)  # updates the layer in place
    if step % 50 == 0:
        print(f"step {step:3d}  loss {float(loss.value):.5f}")

# --- BPTT through an LSTM, and a finite-difference spot check ---------------
cell = LstmCell(input_size=2, hidden_size=3, rng=rng)
xs = rng.normal(size=(1, 4, 2))  # a one-row batch of four steps

# the scalar is the first hidden unit after the sequence, so its grad for
# the final hidden state is 1 there and 0 elsewhere
hidden, saved = cell.run(xs)     # a fresh cell's grads start at zero
cell.backward(saved, np.eye(3)[[0]])
analytic = cell.w_f.grad[0, 0]

h = 1e-5
orig = cell.w_f.value[0, 0]
cell.w_f.value[0, 0] = orig + h
up = cell.run(xs)[0][0, 0]
cell.w_f.value[0, 0] = orig - h
dn = cell.run(xs)[0][0, 0]
cell.w_f.value[0, 0] = orig
numeric = (up - dn) / (2 * h)

print(f"\nBPTT gradient      : {analytic:+.8f}")
print(f"finite differences : {numeric:+.8f}")
relative = abs(analytic - numeric) / max(abs(numeric), 1e-12)
if relative > 1e-6:
    sys.exit(f"BPTT and finite differences disagree: relative {relative:.2e} > 1e-6")
