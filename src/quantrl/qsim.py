"""Exact statevector simulation of the RY/RZ/CNOT variational circuit.

Qubit indexing is little-endian: qubit 0 is the least significant bit of
the basis-state index, so for two qubits the amplitude order is
|00>, |01>, |10>, |11> with the *right* digit being qubit 0.

The circuit family is fixed: an angle-encoding layer RY(pi * x_i) on every
qubit, followed by `depth` variational layers of per-qubit RY and RZ
rotations and a CNOT ring CNOT(i, (i+1) mod n). Measurement is the vector
of per-qubit Pauli-Z expectations.

A forward pass builds the encoded state directly: RY on |0...0> gives a
real product state. Up to ``BLOCK_MAX_QUBITS`` qubits, the variational
layers are one 2**n x 2**n matrix that depends only on the angles. It is
built once per distinct angle vector and then reused, so a forward is a
Kronecker product and one matrix product. Larger circuits apply the gates
to the batch directly.

Gradients use the adjoint method (Jones & Gacon 2020): one reverse sweep
gives every parameter and input gradient, exact and in O(B * P * 2**n).
The parameter-shift rule (Schuld et al. 2019), which is what quantum
hardware can run, is kept as the reference implementation and test oracle.

Apart from one cache, everything here is stateless. The block matrices
live in an ``lru_cache`` of ``BLOCK_CACHE_SIZE`` entries keyed on the
angle bytes. So an angle array overwritten in place gets a new key, not a
stale matrix. The cached matrices are read-only, and ``lru_cache`` is
thread-safe, so threads may share entries; two threads that miss together
at worst build the same matrix twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError

MAX_QUBITS = 16
ENCODING_SCALE = np.pi  # post-tanh latents in (-1, 1) map to angles in (-pi, pi)
# A block matrix costs 16 * 4**n bytes (256 KiB at n=7) and a rebuild after
# every parameter update. With A3C's 20-step updates at depth 2, training
# ran faster with the matrix up to n=7 and slower from n=8 on, so larger
# circuits apply the gates to each batch instead.
BLOCK_MAX_QUBITS = 7
BLOCK_CACHE_SIZE = 8    # angle vectors: the policy and value circuits of a few nets


@dataclass
class QuantumState:
    """Complex statevector over ``n_qubits`` (length ``2**n_qubits``)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"statevector for {self.n_qubits} qubits must have length "
                f"{1 << self.n_qubits}, got {self.amplitudes.shape}"
            )

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def z_expectations(self) -> np.ndarray:
        """Per-qubit <Z_i>, each in [-1, 1]."""
        probs = np.abs(self.amplitudes) ** 2
        return probs @ _z_signs(self.n_qubits).T


@dataclass
class VqcParams:
    """Trainable rotation angles, shape [depth][n_qubits][2] (0=RY, 1=RZ)."""

    n_qubits: int = 8
    depth: int = 2
    angles: np.ndarray = field(default=None)

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        if self.angles is None:
            self.angles = np.zeros((self.depth, self.n_qubits, 2))
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if self.angles.shape != (self.depth, self.n_qubits, 2):
            raise ValueError(
                f"angles must have shape {(self.depth, self.n_qubits, 2)}, "
                f"got {self.angles.shape}"
            )
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("angles must be finite")


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def init_zero_state(n_qubits: int) -> QuantumState:
    """State |0...0>."""
    _check_qubit_count(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def _check_qubit(n_qubits: int, qubit: int, what: str = "qubit") -> None:
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"{what} index {qubit} out of range for {n_qubits} qubits")


@lru_cache(maxsize=None)
def _basis_bits(n_qubits: int) -> np.ndarray:
    """bits[q, i] = bit q of basis index i."""
    idx = np.arange(1 << n_qubits)
    return (idx[None, :] >> np.arange(n_qubits)[:, None]) & 1


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int) -> np.ndarray:
    """signs[q, i] = +1 if bit q of basis index i is 0, else -1."""
    return (1.0 - 2.0 * _basis_bits(n_qubits)).astype(np.float64)


@lru_cache(maxsize=None)
def _cnot_perm(n_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    flipped = idx ^ (1 << target)
    control_set = (idx >> control) & 1 == 1
    return np.where(control_set, flipped, idx)


# Batched in-place kernels. `amps` has shape [batch, 2**n]; `theta` is a
# scalar or a length-batch vector of per-row angles.

def _ry_inplace(amps: np.ndarray, n: int, qubit: int, theta) -> None:
    hi = 1 << (n - 1 - qubit)
    lo = 1 << qubit
    a = amps.reshape(amps.shape[0], hi, 2, lo)
    half = 0.5 * np.asarray(theta, dtype=np.float64)
    c, s = np.cos(half), np.sin(half)
    if c.ndim:
        c = c.reshape(-1, 1, 1)
        s = s.reshape(-1, 1, 1)
    a0 = a[:, :, 0, :].copy()
    a1 = a[:, :, 1, :]
    a[:, :, 0, :] = c * a0 - s * a1
    a[:, :, 1, :] = s * a0 + c * a1


def _rz_inplace(amps: np.ndarray, n: int, qubit: int, theta) -> None:
    hi = 1 << (n - 1 - qubit)
    lo = 1 << qubit
    a = amps.reshape(amps.shape[0], hi, 2, lo)
    half = 0.5 * np.asarray(theta, dtype=np.float64)
    phase = np.exp(1j * half)
    if phase.ndim:
        phase = phase.reshape(-1, 1, 1)
    a[:, :, 0, :] *= np.conj(phase)
    a[:, :, 1, :] *= phase


def _cnot_inplace(amps: np.ndarray, n: int, control: int, target: int) -> None:
    amps[:, :] = amps[:, _cnot_perm(n, control, target)]


def apply_ry(state: QuantumState, qubit: int, theta: float) -> QuantumState:
    """RY(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]] on one qubit."""
    _check_qubit(state.n_qubits, qubit)
    amps = state.amplitudes[None, :].copy()
    _ry_inplace(amps, state.n_qubits, qubit, float(theta))
    return QuantumState(state.n_qubits, amps[0])


def apply_rz(state: QuantumState, qubit: int, theta: float) -> QuantumState:
    """Phase rotation diag(exp(-i t/2), exp(+i t/2)) on one qubit."""
    _check_qubit(state.n_qubits, qubit)
    amps = state.amplitudes[None, :].copy()
    _rz_inplace(amps, state.n_qubits, qubit, float(theta))
    return QuantumState(state.n_qubits, amps[0])


def apply_cnot(state: QuantumState, control: int, target: int) -> QuantumState:
    """Flip `target` on basis states where `control` is set."""
    _check_qubit(state.n_qubits, control, "control")
    _check_qubit(state.n_qubits, target, "target")
    if control == target:
        raise ValueError("control and target must differ")
    amps = state.amplitudes[None, :].copy()
    _cnot_inplace(amps, state.n_qubits, control, target)
    return QuantumState(state.n_qubits, amps[0])


def _apply_layers(amps: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    """Rows of amps (real or complex) after the variational layers.

    The first RY sublayer runs in place on amps, so pass an array the
    caller no longer needs. Each RZ sublayer is applied as one diagonal and
    each CNOT ring as one permutation, equal to the gate-by-gate products.
    """
    signs = _z_signs(n)
    for layer in angles:
        for q in range(n):
            _ry_inplace(amps, n, q, layer[q, 0])
        amps = amps * np.exp(-0.5j * (layer[:, 1] @ signs))
        if n > 1:  # a one-qubit ring would be a self-CNOT
            amps = amps[:, _ring_perm(n)]
    return amps


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_matrix(n: int, depth: int, angle_bytes: bytes) -> np.ndarray:
    """Variational block as a read-only [2**n, 2**n] matrix.

    Row i is the image of basis state i, so a batch of row states maps to
    ``states @ block``. Keyed on the angle bytes, not on an array, because
    parameters are overwritten in place between updates.
    """
    angles = np.frombuffer(angle_bytes).reshape(depth, n, 2)
    block = _apply_layers(np.eye(1 << n), n, angles)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def _ring_perm(n_qubits: int) -> np.ndarray:
    """Column permutation of the whole CNOT ring: ``amps[:, perm]``."""
    perm = np.arange(1 << n_qubits)
    for q in range(n_qubits):
        perm = perm[_cnot_perm(n_qubits, q, (q + 1) % n_qubits)]
    return perm


@lru_cache(maxsize=None)
def _ring_inverse(n_qubits: int) -> np.ndarray:
    return np.argsort(_ring_perm(n_qubits))


@lru_cache(maxsize=None)
def _bit_flips(n_qubits: int) -> np.ndarray:
    """flips[q, i] = i with bit q flipped."""
    idx = np.arange(1 << n_qubits)
    return idx[None, :] ^ (1 << np.arange(n_qubits))[:, None]


def _check_batch(inputs: np.ndarray, params: VqcParams) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.n_qubits:
        raise ValueError(
            f"inputs must have shape [batch, {params.n_qubits}], got {x.shape}"
        )
    return x


def _check_gradient_args(
    inputs: np.ndarray, params: VqcParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    x = _check_batch(inputs, params)
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != x.shape:
        raise ValueError(f"upstream must match inputs shape {x.shape}, got {up.shape}")
    return x, up


def _final_states(x: np.ndarray, params: VqcParams) -> np.ndarray:
    """Statevectors after the whole circuit, shape [B, 2**n]."""
    n = params.n_qubits
    # RY(pi x_q) on |0> is the real pair (cos, sin)(pi x_q / 2); the encoded
    # state is their Kronecker product, qubit 0 least significant.
    half = 0.5 * ENCODING_SCALE * x
    pairs = np.stack((np.cos(half), np.sin(half)), axis=-1)      # [B, n, 2]
    encoded = pairs[:, np.arange(n)[:, None], _basis_bits(n)].prod(axis=1)
    if n > BLOCK_MAX_QUBITS:
        return _apply_layers(encoded, n, params.angles)
    return encoded @ _block_matrix(n, params.depth, params.angles.tobytes())


def run_vqc_batch(inputs: np.ndarray, params: VqcParams) -> np.ndarray:
    """Per-qubit Z expectations for a batch of input rows, shape [B, n]."""
    amps = _final_states(_check_batch(inputs, params), params)
    probs = amps.real ** 2 + amps.imag ** 2
    return probs @ _z_signs(params.n_qubits).T


def _y_overlaps(psi: np.ndarray, lam: np.ndarray, n: int) -> np.ndarray:
    """Im<lam|Y_q|psi> per row and qubit, shape [B, n].

    (Y_q psi)_i = -i z_q(i) psi_{i ^ 2**q}, so the imaginary part is
    -sum_i z_q(i) Re(conj(lam_i) psi_{i ^ 2**q}).
    """
    flipped = psi[:, _bit_flips(n)]                               # [B, n, 2**n]
    return -np.einsum("bqi,qi->bq", (lam.conj()[:, None, :] * flipped).real,
                      _z_signs(n))


def vqc_gradients_batch(
    inputs: np.ndarray,
    params: VqcParams,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint-method gradients of sum_b upstream[b] . <Z>(inputs[b]).

    Returns (param_grads with the shape of ``params.angles`` summed over the
    batch, input_grads of shape [B, n]). One reverse sweep (Jones & Gacon
    2020) carries psi and lam = O psi, with O = sum_q upstream_q Z_q, back
    through the circuit. Every gate is exp(-i theta P / 2), so
    dL/dtheta = 2 Re<lam|dG|psi> = Im<lam|P|psi>, read where the sweep
    passes the gate. The gates of one rotation sublayer act on distinct
    qubits and commute with each other's generators, so all of a
    sublayer's derivatives are read at once. Costs O(B * P * 2**n).
    """
    x, up = _check_gradient_args(inputs, params, upstream)
    n = params.n_qubits
    batch = x.shape[0]
    signs = _z_signs(n)
    psi = _final_states(x, params)
    both = np.concatenate((psi, (up @ signs) * psi))    # rows: psi, then lam
    param_grads = np.empty_like(params.angles)
    for layer in reversed(range(params.depth)):
        if n > 1:
            both = both[:, _ring_inverse(n)]
        psi, lam = both[:batch], both[batch:]
        param_grads[layer, :, 1] = signs @ (lam.conj() * psi).imag.sum(axis=0)
        both *= np.exp(0.5j * (params.angles[layer, :, 1] @ signs))  # undo RZs
        # psi and lam are views of both, so the RY derivatives below are read
        # after the RZ undo, as they must be
        param_grads[layer, :, 0] = _y_overlaps(psi, lam, n).sum(axis=0)
        for q in range(n):
            _ry_inplace(both, n, q, -params.angles[layer, q, 0])
    psi, lam = both[:batch], both[batch:]
    input_grads = ENCODING_SCALE * _y_overlaps(psi, lam, n)
    return param_grads, input_grads


def parameter_shift_gradients_batch(
    inputs: np.ndarray,
    params: VqcParams,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift gradients of sum_b upstream[b] . <Z>(inputs[b]).

    The hardware-faithful reference for :func:`vqc_gradients_batch`, with the
    same arguments and return values. Every shifted circuit for every batch
    row is evaluated in a single vectorized pass: row layout is
    (batch, parameter, +/-) with parameters ordered encoding-first. Costs
    O(B * P**2 * 2**n) for P rotation angles.
    """
    x, up = _check_gradient_args(inputs, params, upstream)
    n = params.n_qubits
    depth = params.depth
    batch = x.shape[0]
    n_params = n + depth * n * 2  # encoding angles first, then (layer, qubit, kind)
    rows = batch * n_params * 2

    row_batch = np.repeat(np.arange(batch), n_params * 2)
    row_param = np.tile(np.repeat(np.arange(n_params), 2), batch)
    row_shift = np.tile(np.array([np.pi / 2, -np.pi / 2]), batch * n_params)

    amps = np.zeros((rows, 1 << n), dtype=np.complex128)
    amps[:, 0] = 1.0

    def encoding(q):
        base = ENCODING_SCALE * x[row_batch, q]
        return base + np.where(row_param == q, row_shift, 0.0)

    for q in range(n):
        _ry_inplace(amps, n, q, encoding(q))
    for layer in range(depth):
        for kind, op in ((0, _ry_inplace), (1, _rz_inplace)):
            for q in range(n):
                pidx = n + (layer * n + q) * 2 + kind
                theta = params.angles[layer, q, kind] + np.where(
                    row_param == pidx, row_shift, 0.0
                )
                op(amps, n, q, theta)
        if n > 1:
            for q in range(n):
                _cnot_inplace(amps, n, q, (q + 1) % n)

    probs = np.abs(amps) ** 2
    expect = probs @ _z_signs(n).T                      # [rows, n]
    expect = expect.reshape(batch, n_params, 2, n)
    dexp = 0.5 * (expect[:, :, 0, :] - expect[:, :, 1, :])  # [B, P, n]

    # contract each parameter's Z-derivatives with that row's upstream
    grads = np.einsum("bpn,bn->bp", dexp, up)           # [B, P]
    input_grads = ENCODING_SCALE * grads[:, :n]
    param_grads = grads[:, n:].sum(axis=0).reshape(depth, n, 2)
    return param_grads, input_grads
