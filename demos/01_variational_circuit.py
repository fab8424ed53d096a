"""Simulate the variational circuit and differentiate it exactly.

The encoder used by the quantum agent heads is a small parameterized
circuit: angle encoding on every qubit, then layers of RY/RZ rotations
with a CNOT entangling ring, measured as per-qubit Pauli-Z expectations.
This walkthrough builds one, reads out its expectations and checks both
exact gradient methods against finite differences: the adjoint sweep the
agents train with, and the parameter-shift rule a quantum device could run.
Every entry point takes a [batch, n_qubits] matrix; one input is a batch
of one row.
"""

import numpy as np

from quantrl import qsim

rng = np.random.default_rng(0)

# --- a 4-qubit, depth-2 circuit on a random input -------------------------
n_qubits, depth = 4, 2
params = qsim.VqcParams(n_qubits, depth, rng.uniform(-0.5, 0.5, (depth, n_qubits, 2)))
x = rng.uniform(-1, 1, (1, n_qubits))  # one input row

expectations = qsim.run_vqc_batch(x, params)
print("input          :", np.round(x[0], 3))
print("<Z_i> readout  :", np.round(expectations[0], 4))

# --- exact gradients: adjoint sweep and parameter-shift rule ---------------
upstream = rng.uniform(-1, 1, (1, n_qubits))  # pretend gradient from a loss
param_grads, input_grads = qsim.vqc_gradients_batch(x, params, upstream)
shift_grads, _ = qsim.parameter_shift_gradients_batch(x, params, upstream)

h = 1e-5
idx = (1, 2, 0)  # layer 1, qubit 2, RY angle
up, dn = params.angles.copy(), params.angles.copy()
up[idx] += h
dn[idx] -= h


def readout(angles):
    return upstream[0] @ qsim.run_vqc_batch(x, qsim.VqcParams(n_qubits, depth, angles))[0]


fd = (readout(up) - readout(dn)) / (2 * h)

print(f"\ndL/dtheta{idx}, finite difference: {fd:+.8f}")
for label, value in (("adjoint", param_grads[idx]), ("parameter shift", shift_grads[idx])):
    print(f"  {label:<16}: {value:+.8f} (off by {abs(value - fd):.1e})")
worst = np.max(np.abs(param_grads - shift_grads))
print(f"adjoint vs parameter shift, every angle: {worst:.1e}")
assert worst < 1e-12, "the two exact gradient methods disagree"

# both methods are exact for rotation gates: a single RY(theta) on |0>
# has <Z> = cos(theta), so the derivative at pi/2 is exactly -1
single = qsim.VqcParams(1, 1, np.array([[[np.pi / 2, 0.0]]]))
grad, _ = qsim.vqc_gradients_batch(np.zeros((1, 1)), single, np.ones((1, 1)))
print(f"\nd<Z>/dtheta at theta=pi/2: {grad[0, 0, 0]:+.12f} (analytic -1)")
