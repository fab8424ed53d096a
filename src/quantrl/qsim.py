"""Exact statevector simulation of the RY/RZ/CNOT variational circuit.

Qubit indexing is little-endian: qubit 0 is the least significant bit of
the basis-state index, so for two qubits the amplitude order is
|00>, |01>, |10>, |11> with the *right* digit being qubit 0.

The circuit family is fixed: an angle-encoding layer RY(pi * x_i) on every
qubit, followed by `depth` variational layers of per-qubit RY and RZ
rotations and a CNOT ring CNOT(i, (i+1) mod n). Measurement is the vector
of per-qubit Pauli-Z expectations.

A forward pass folds the first variational layer's RYs into the
encoding: RY(theta)·RY(pi x) = RY(pi x + theta), so the state after them
is still a real product state, built directly as a Kronecker product of
(cos, sin) pairs. Up to ``BLOCK_MAX_QUBITS`` qubits, the rest of the
circuit (layer 1's RZ phases and CNOT ring, then layers 2..depth) is one
matrix that depends only on the angles, stored as a real [2**n, 2 * 2**n]
array of (re, im) pairs. It is built once per distinct angle vector and
then reused, so a forward runs in real arithmetic: ``y = encoded @ block``
and <Z> = ``(y * y) @ Z_pairs``. Larger circuits apply the phases, the
ring and layers 2..depth to the batch directly.

Each RZ sublayer is one diagonal and each CNOT ring one permutation. Up
to ``BLOCK_MAX_QUBITS`` qubits, each RY sublayer is one real 2**n x 2**n
matrix, the Kronecker product of its 2x2 rotations, gathered from the
angles' cos and sin like the encoded state; larger sublayers are applied
qubit by qubit. Block builds and the adjoint sweep share this kernel.

Gradients use the adjoint method (Jones & Gacon 2020): one reverse sweep
gives every parameter and input gradient, exact and in O(B * P * 2**n).
It stops after undoing layer 1's RZ phases, where one read gives both
layer 1's RY gradients and the input gradients. The parameter-shift rule
(Schuld et al. 2019), which is what quantum hardware can run, is kept as
the reference implementation and test oracle. It runs the forward above
twice per angle, at the angle shifted by +-pi/2, and uses nothing of the
adjoint sweep.

``VqcParams`` keeps the angle array it is given, so a caller may build it
once and write the angles in place. Angles are checked for finiteness
where they enter the circuit: when a block matrix is built (a failed build
is not cached) and on the gate path. The parameter-shift oracle inherits
the check from the forward it runs.

Apart from one cache, everything here is stateless. The block matrices
live in an ``lru_cache`` of ``BLOCK_CACHE_SIZE`` entries keyed on the
angle bytes. So an angle array overwritten in place gets a new key, not a
stale matrix. The cached matrices are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError

MAX_QUBITS = 16
ENCODING_SCALE = np.pi  # post-tanh latents in (-1, 1) map to angles in (-pi, pi)
# A block matrix costs 16 * 4**n bytes (256 KiB at n=7) and a rebuild after
# every parameter update. With A3C's 20-step updates at depth 2, a training
# episode on a 120-row sawtooth took 43 ms with the matrix and 58 ms with
# the gates at n=7, but 131 ms against 85 ms at n=8 (2-core x86 host), so
# larger circuits apply the gates to each batch instead. The same cutoff
# picks the RY sublayer kernel: one dense real matrix against n per-qubit
# rotations took 448 against 623 us for 128 rows at n=7, but 1590 against
# 586 us for 40 rows at n=8.
BLOCK_MAX_QUBITS = 7
BLOCK_CACHE_SIZE = 8    # angle vectors: the policy and value circuits of a few nets


@dataclass
class VqcParams:
    """Trainable rotation angles, shape [depth][n_qubits][2] (0=RY, 1=RZ).

    A float64 array is kept, not copied, so writes to it in place reach the
    circuit. Finiteness is checked where the angles enter the circuit.
    """

    n_qubits: int = 8
    depth: int = 2
    angles: np.ndarray = field(default=None)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if self.angles is None:
            self.angles = np.zeros((self.depth, self.n_qubits, 2))
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if self.angles.shape != (self.depth, self.n_qubits, 2):
            raise ValueError(
                f"angles must have shape {(self.depth, self.n_qubits, 2)}, "
                f"got {self.angles.shape}"
            )


@lru_cache(maxsize=None)
def _basis_bits(n_qubits: int) -> np.ndarray:
    """bits[q, i] = bit q of basis index i."""
    idx = np.arange(1 << n_qubits)
    return (idx[None, :] >> np.arange(n_qubits)[:, None]) & 1


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int) -> np.ndarray:
    """signs[q, i] = +1 if bit q of basis index i is 0, else -1."""
    return (1.0 - 2.0 * _basis_bits(n_qubits)).astype(np.float64)


def _ry_inplace(amps: np.ndarray, n: int, qubit: int, theta: float) -> None:
    """RY(theta) on one qubit of every row of ``amps`` [batch, 2**n], in place."""
    hi = 1 << (n - 1 - qubit)
    lo = 1 << qubit
    a = amps.reshape(amps.shape[0], hi, 2, lo)
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    a0 = a[:, :, 0, :].copy()
    a1 = a[:, :, 1, :]
    a[:, :, 0, :] = c * a0 - s * a1
    a[:, :, 1, :] = s * a0 + c * a1


@lru_cache(maxsize=None)
def _sublayer_index(n_qubits: int) -> np.ndarray:
    """index[q, i, j] = q + n * (2 bit_q(i) + bit_q(j)): the column of RY(theta_q)'s
    entry [bit_q(i), bit_q(j)] in a row of cos, -sin, sin, cos, each per qubit."""
    bits = _basis_bits(n_qubits)
    return (np.arange(n_qubits)[:, None, None]
            + n_qubits * (2 * bits[:, :, None] + bits[:, None, :]))


def _ry_sublayer(amps: np.ndarray, n: int, thetas: np.ndarray) -> np.ndarray:
    """Rows after RY(thetas[q]) on every qubit q; use the returned array.

    Up to ``BLOCK_MAX_QUBITS`` qubits the sublayer is one real matrix
    K = R_(n-1) x ... x R_0, built with one gather and one product like
    the folded encoding, and a new ``amps @ K.T`` is returned. Larger
    sublayers are applied qubit by qubit to amps in place.
    """
    if n > BLOCK_MAX_QUBITS:
        for q in range(n):
            _ry_inplace(amps, n, q, thetas[q])
        return amps
    half = 0.5 * thetas
    c, s = np.cos(half), np.sin(half)
    entries = np.concatenate((c, -s, s, c))
    return amps @ np.multiply.reduce(entries.take(_sublayer_index(n)), axis=0).T


def _apply_after_fold(amps: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    """Complex rows after layer 1's RZ phases and CNOT ring, then layers 2..depth.

    amps holds rows (real or complex) after layer 1's RYs, which the
    encoding has folded in; it is not modified. Each RZ sublayer is applied
    as one diagonal and each CNOT ring as one permutation, equal to the
    gate-by-gate products.
    """
    signs = _z_signs(n)
    amps = amps.astype(np.complex128)
    for layer, layer_angles in enumerate(angles):
        if layer:
            amps = _ry_sublayer(amps, n, layer_angles[:, 0])
        amps *= np.exp(-0.5j * (layer_angles[:, 1] @ signs))
        if n > 1:  # a one-qubit ring would be a self-CNOT
            amps = amps.take(_ring_perm(n), axis=1)  # C-ordered, unlike amps[:, perm]
    return amps


def _check_finite(angles: np.ndarray) -> None:
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_matrix(n: int, depth: int, angle_bytes: bytes) -> np.ndarray:
    """Circuit after the folded encoding as a read-only real [2**n, 2 * 2**n].

    Row i is the image of basis state i under layer 1's RZ phases and ring
    and layers 2..depth, stored as (re, im) pairs, so a batch of real row
    states maps to ``states @ block`` in real arithmetic. Keyed on the
    angle bytes, not on an array, because parameters are overwritten in
    place between updates. Non-finite angles raise, and nothing is cached.
    """
    angles = np.frombuffer(angle_bytes).reshape(depth, n, 2)
    _check_finite(angles)
    block = _apply_after_fold(np.eye(1 << n), n, angles)
    block.flags.writeable = False  # the real view below inherits this
    return block.view(np.float64)


@lru_cache(maxsize=None)
def _ring_perm(n_qubits: int) -> np.ndarray:
    """Column permutation of the whole CNOT ring: ``amps[:, perm]``. CNOT(q, t)
    swaps columns i and i ^ 2**t where bit q of i is set; t = (q + 1) mod n."""
    idx = np.arange(1 << n_qubits)
    perm = idx
    for q in range(n_qubits):
        flipped = idx ^ (1 << ((q + 1) % n_qubits))
        perm = perm[np.where((idx >> q) & 1 == 1, flipped, idx)]
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


@lru_cache(maxsize=None)
def _pair_index(n_qubits: int) -> np.ndarray:
    """index[q, i] = q, or n + q if bit q of i is set: the column of qubit
    q's cos or sin factor in basis state i, in a row of cos then sin."""
    return np.arange(n_qubits)[:, None] + n_qubits * _basis_bits(n_qubits)


@lru_cache(maxsize=None)
def _z_pairs(n_qubits: int) -> np.ndarray:
    """Z signs per (re, im) column: ``(y * y) @ pairs`` is <Z> of pair rows y."""
    return np.repeat(_z_signs(n_qubits).T, 2, axis=0)


def _folded_encoding(x: np.ndarray, params: VqcParams) -> np.ndarray:
    """Real product states after RY(pi x_q + theta_q), layer 1's RYs folded
    into the encoding, shape [B, 2**n]."""
    n = params.n_qubits
    angles = ENCODING_SCALE * x
    if params.depth:
        angles = angles + params.angles[0, :, 0]
    # RY(a) on |0> is the real pair (cos, sin)(a / 2); the state is their
    # Kronecker product, qubit 0 least significant.
    half = 0.5 * angles
    pairs = np.concatenate((np.cos(half), np.sin(half)), axis=1)  # [B, 2n]
    return np.multiply.reduce(pairs.take(_pair_index(n), axis=1), axis=1)


def _final_states(x: np.ndarray, params: VqcParams) -> np.ndarray:
    """Statevectors after the whole circuit as (re, im) pairs, shape
    [B, 2 * 2**n]; ``.view(np.complex128)`` gives the amplitudes."""
    n = params.n_qubits
    encoded = _folded_encoding(x, params)
    if n > BLOCK_MAX_QUBITS:
        _check_finite(params.angles)
        return _apply_after_fold(encoded, n, params.angles).view(np.float64)
    return encoded @ _block_matrix(n, params.depth, params.angles.tobytes())


def run_vqc_batch(inputs: np.ndarray, params: VqcParams) -> np.ndarray:
    """Per-qubit Z expectations for a batch of input rows, shape [B, n]."""
    y = _final_states(_check_batch(inputs, params), params)
    return (y * y) @ _z_pairs(params.n_qubits)


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
    psi = _final_states(x, params).view(np.complex128)
    both = np.concatenate((psi, (up @ signs) * psi))    # rows: psi, then lam
    param_grads = np.empty_like(params.angles)
    for layer in reversed(range(params.depth)):
        if n > 1:
            both = both.take(_ring_inverse(n), axis=1)
        psi, lam = both[:batch], both[batch:]
        param_grads[layer, :, 1] = signs @ (lam.conj() * psi).imag.sum(axis=0)
        both *= np.exp(0.5j * (params.angles[layer, :, 1] @ signs))  # undo RZs
        if layer:  # layer 1's RYs are folded into the encoding, read below
            # psi and lam are views of both, so the RY derivatives are read
            # after the RZ undo, as they must be
            param_grads[layer, :, 0] = _y_overlaps(psi, lam, n).sum(axis=0)
            both = _ry_sublayer(both, n, -params.angles[layer, :, 0])
    # both is back at the folded encoding RY(pi x_q + theta_q), so one read
    # gives layer 1's RY gradients and, times pi, the input gradients
    overlaps = _y_overlaps(both[:batch], both[batch:], n)
    if params.depth:
        param_grads[0, :, 0] = overlaps.sum(axis=0)
    return param_grads, ENCODING_SCALE * overlaps


def parameter_shift_gradients_batch(
    inputs: np.ndarray,
    params: VqcParams,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-shift gradients of sum_b upstream[b] . <Z>(inputs[b]).

    The hardware-faithful reference for :func:`vqc_gradients_batch`, with the
    same arguments and return values. Each angle a enters exactly one
    rotation exp(-i a P / 2), so d<Z>/da = [<Z>(a + pi/2) - <Z>(a - pi/2)] / 2
    (Schuld et al. 2019), two runs of :func:`run_vqc_batch` per angle. An
    encoding angle is ``ENCODING_SCALE * x_q``, so it is shifted through
    x_q and its gradient takes that factor. Costs 2 * (n + P) forwards of
    the batch for P variational angles.
    """
    x, up = _check_gradient_args(inputs, params, upstream)
    angles = params.angles

    def shift_rule(x_shift, angle_shift) -> np.ndarray:
        """Per row, upstream . d<Z> for one angle shifted through x or the angles."""
        plus, minus = (run_vqc_batch(x + sign * x_shift, VqcParams(
            params.n_qubits, params.depth, angles + sign * angle_shift)) for sign in (1, -1))
        return 0.5 * ((plus - minus) * up).sum(axis=1)

    x_units = 0.5 * np.pi / ENCODING_SCALE * np.eye(params.n_qubits)
    input_grads = ENCODING_SCALE * np.stack([shift_rule(u, 0.0) for u in x_units], axis=1)
    units = 0.5 * np.pi * np.eye(angles.size).reshape(angles.size, *angles.shape)
    param_grads = np.array([shift_rule(0.0, u).sum() for u in units]).reshape(angles.shape)
    return param_grads, input_grads
