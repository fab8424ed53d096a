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
block matrix that depends only on the angles, stored as a real
[2**n, 2 * 2**n] array of (re, im) pairs, so a forward runs in real
arithmetic: ``y = encoded @ block`` and <Z> = ``(y * y) @ Z_pairs``.
Larger circuits apply the phases, the ring and layers 2..depth to the
batch directly.

Each RZ sublayer is one diagonal and each CNOT ring one permutation. Each
RY sublayer is the Kronecker product of its 2x2 rotations, one real
matrix gathered from the angles' cos and sin like the encoded state. Up
to ``BLOCK_MAX_QUBITS`` qubits it is applied whole; larger sublayers
apply it as two half-width factors, one from each side of the row viewed
as a matrix.

Gradients use the adjoint method (Jones & Gacon 2020): one reverse sweep
gives every parameter and input gradient, exact and in O(B * P * 2**n).
It starts from the forward's final states, which a quantum ``a3c.Head``
keeps from its forward, and stops after undoing layer 1's RZ phases,
where one read gives both layer 1's RY gradients and the input
gradients. The parameter-shift rule (Schuld et al. 2019), which is what
quantum hardware can run, is kept as the reference implementation and
test oracle. It runs the forward above twice per angle, at the angle
shifted by +-pi/2, and uses nothing of the adjoint sweep.

Apart from one cache, everything here is stateless. It holds compiled
circuits: all that depends only on the angles (the encoding's offset,
each layer's RY factors and RZ phases with their undo forms, and the
block matrix), built once per angle vector and read by the forward, the
gate path and the adjoint sweep. It is an ``lru_cache`` of
``BLOCK_CACHE_SIZE`` entries keyed on the angle bytes, so an angle array
that ``VqcParams`` keeps and a caller overwrites in place gets a new key,
not a stale circuit. Every cached array is read-only. Angles are checked
for finiteness once, when their circuit is compiled (a failed compile is
not cached); the parameter-shift oracle inherits the check from the
forward it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_batch

MAX_QUBITS = 16
ENCODING_SCALE = np.pi  # post-tanh latents in (-1, 1) map to angles in (-pi, pi)
# A block matrix costs 16 * 4**n bytes (256 KiB at n=7) and a rebuild after
# every parameter update. With A3C's 20-step updates at depth 2, a training
# episode on a 120-row sawtooth took 43 ms with the matrix and 58 ms with
# the gates at n=7, but 131 ms against 85 ms at n=8 (2-core x86 host), so
# larger circuits apply the gates to each batch instead. The same cutoff
# picks how an RY sublayer's matrix is applied: whole or as two half-width
# factors. Whole against split took 1197 against 59 us for 40 rows at n=8,
# 412 against 74 at n=7 (128 rows), 13 against 20 at n=4 (40 rows; timeit
# minima). Whole matrices up to the cutoff keep block circuits' bits.
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


@lru_cache(maxsize=None)
def _sublayer_index(n_qubits: int) -> np.ndarray:
    """index[q, i, j] = q + n * (2 bit_q(i) + bit_q(j)): the column of RY(theta_q)'s
    entry [bit_q(i), bit_q(j)] in a row of cos, -sin, sin, cos, each per qubit."""
    bits = _basis_bits(n_qubits)
    return (np.arange(n_qubits)[:, None, None]
            + n_qubits * (2 * bits[:, :, None] + bits[:, None, :]))


def _ry_kron(thetas: np.ndarray) -> np.ndarray:
    """K = R_(k-1) x ... x R_0 with R_q = RY(thetas[q]) for k angles, one real
    2**k x 2**k matrix built with one gather and one product like the
    folded encoding."""
    half = 0.5 * thetas
    c, s = np.cos(half), np.sin(half)
    entries = np.concatenate((c, -s, s, c))
    return np.multiply.reduce(entries.take(_sublayer_index(len(thetas))), axis=0)


def _ry_factors(n: int, thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """RY(thetas[q]) on every qubit q as the factors :func:`_ry_sublayer`
    applies: (K,) up to ``BLOCK_MAX_QUBITS`` qubits, (K_lo, K_hi) above it,
    with K = K_hi x K_lo split at lo = n // 2."""
    if n <= BLOCK_MAX_QUBITS:
        return (_ry_kron(thetas),)
    lo = n // 2
    return _ry_kron(thetas[:lo]), _ry_kron(thetas[lo:])


def _ry_sublayer(amps: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """New complex rows ``amps @ K.T`` for an RY sublayer's :func:`_ry_factors`.

    A whole K is applied as it is. A split K = K_hi x K_lo views a row as
    X[i_hi, i_lo] (the low qubits least significant) and maps it to
    K_hi @ X @ K_lo.T (Van Loan 2000): 2**n * (2**lo + 2**(n-lo))
    multiply-adds a row instead of 4**n. X @ K_lo.T is one product over all
    rows; the real K_hi then acts on its (re, im) pairs.
    """
    if len(factors) == 1:
        return amps @ factors[0].T
    k_lo, k_hi = factors
    right = amps.reshape(-1, len(k_lo)) @ k_lo.T
    pairs = right.view(np.float64).reshape(-1, len(k_hi), 2 * len(k_lo))
    return (k_hi @ pairs).view(np.complex128).reshape(amps.shape)


class _Circuit(NamedTuple):
    """What a circuit computes from its angles alone, read-only: the
    encoding's offset and, per layer, the RY factors (none for layer 1,
    folded into the encoding) and RZ phases with their undo forms."""

    offset: np.ndarray | None   # 0.5 * layer 1's RY angles; None at depth 0
    ry: list
    ry_undo: list               # K(-theta) = K(theta).T, C-ordered like _ry_kron(-theta)
    rz: np.ndarray              # [depth, 2**n], a row per layer
    rz_undo: np.ndarray         # conjugates: exp(+i a / 2) = conj(exp(-i a / 2))
    # up to BLOCK_MAX_QUBITS, _block_rows as real [2**n, 2 * 2**n] (re, im)
    # pairs, so a batch of real row states maps to ``states @ block``
    block: np.ndarray | None


def _apply_after_fold(amps: np.ndarray, n: int, ry: list, rz: np.ndarray) -> np.ndarray:
    """Complex rows after layer 1's RZ phases and CNOT ring, then layers 2..depth.

    amps holds rows (real or complex) after layer 1's RYs, which the
    encoding has folded in; it is not modified. ``ry`` and ``rz`` are a
    :class:`_Circuit`'s. Each RZ sublayer is applied as one diagonal and
    each CNOT ring as one permutation, equal to the gate-by-gate products.
    """
    amps = amps.astype(np.complex128)
    for factors, phases in zip(ry, rz):
        if factors:
            amps = _ry_sublayer(amps, factors)
        amps *= phases
        if n > 1:  # a one-qubit ring would be a self-CNOT
            amps = amps.take(_ring_perm(n), axis=1)  # C-ordered, unlike amps[:, perm]
    return amps


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _compiled(n: int, depth: int, angle_bytes: bytes) -> _Circuit:
    """The :class:`_Circuit` of one angle vector. Keyed on the angle bytes,
    not on an array, because parameters are overwritten in place between
    updates. Non-finite angles raise, and nothing is cached."""
    angles = np.frombuffer(angle_bytes).reshape(depth, n, 2)
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    ry = [()] + [_ry_factors(n, a[:, 0]) for a in angles[1:]]
    ry_undo = [tuple(np.ascontiguousarray(k.T) for k in f) for f in ry]
    # each layer's [1, n] @ [n, 2**n] in one batched call: the bits of one
    # vector product per layer, which one [depth, n] matrix product lacks
    rz = np.exp(-0.5j * np.matmul(angles[:, None, :, 1], _z_signs(n))[:, 0])
    rz_undo = rz.conj()
    offset = 0.5 * angles[0, :, 0] if depth else None
    for array in (offset, rz, rz_undo, *[k for f in ry + ry_undo for k in f]):
        if array is not None:
            array.flags.writeable = False
    block = None
    if n <= BLOCK_MAX_QUBITS:
        block = _block_rows(n, ry, rz)
        block.flags.writeable = False  # the real view below inherits this
        block = block.view(np.float64)
    return _Circuit(offset, ry, ry_undo, rz, rz_undo, block)


def _block_rows(n: int, ry: list, rz: np.ndarray) -> np.ndarray:
    """Complex images of the basis states under layer 1's RZ phases and ring
    and layers 2..depth, shape [2**n, 2**n].

    Layer 1 maps basis row i to the phase rz[0][i] in column inv[i], inv
    being the ring's inverse permutation, so layer 2's RY product
    ``rows @ K.T`` is that phase times row inv[i] of K.T: a gather in place
    of a 2**n-cubed product. Each sum of that product adds exact zeros to
    its one nonzero term, so the bits agree, except that where K holds an
    exact zero (an angle of exactly 0) that zero may take the other sign.
    """
    if len(rz) < 2 or n == 1:  # no layer 2, or no ring
        return _apply_after_fold(np.eye(1 << n), n, ry, rz)
    rows = rz[0][:, None] * ry[1][0].T[_ring_inverse(n)]
    rows *= rz[1]
    rows = rows.take(_ring_perm(n), axis=1)
    return _apply_after_fold(rows, n, ry[2:], rz[2:]) if len(rz) > 2 else rows


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


def _check_gradient_args(
    inputs: np.ndarray, params: VqcParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    x = check_batch("vqc", np.asarray(inputs, dtype=np.float64), params.n_qubits)
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


def _folded_encoding(x: np.ndarray, n: int, offset: np.ndarray | None) -> np.ndarray:
    """Real product states after RY(pi x_q + theta_q), layer 1's RYs folded
    into the encoding, shape [B, 2**n]. ``offset`` is 0.5 * theta (None at
    depth 0): x * (pi / 2) + 0.5 * theta has the bits of 0.5 * (pi x + theta)."""
    half = x * (0.5 * ENCODING_SCALE)
    if offset is not None:
        half += offset
    # RY(a) on |0> is the real pair (cos, sin)(a / 2); the state is their
    # Kronecker product, qubit 0 least significant.
    pairs = np.concatenate((np.cos(half), np.sin(half)), axis=1)  # [B, 2n]
    return np.multiply.reduce(pairs.take(_pair_index(n), axis=1), axis=1)


def _final_states(x: np.ndarray, params: VqcParams) -> np.ndarray:
    """Statevectors after the whole circuit as (re, im) pairs, shape
    [B, 2 * 2**n]; ``.view(np.complex128)`` gives the amplitudes."""
    n = params.n_qubits
    circuit = _compiled(n, params.depth, params.angles.tobytes())
    encoded = _folded_encoding(x, n, circuit.offset)
    if circuit.block is None:
        return _apply_after_fold(encoded, n, circuit.ry, circuit.rz).view(np.float64)
    return np.dot(encoded, circuit.block)


def run_vqc_batch(inputs: np.ndarray, params: VqcParams, *,
                  keep_states: bool = False):
    """Per-qubit Z expectations for a batch of input rows, shape [B, n].

    With ``keep_states`` (internal: a quantum ``a3c.Head`` is its caller) it
    returns (expectations, final states), the states being what
    :func:`vqc_gradients_batch` takes for the same inputs and angles.
    """
    x = check_batch("vqc", np.asarray(inputs, dtype=np.float64), params.n_qubits)
    y = _final_states(x, params)
    z = np.dot(y * y, _z_pairs(params.n_qubits))
    return (z, y) if keep_states else z


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
    *,
    states: np.ndarray | None = None,
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

    ``states`` (internal: a quantum ``a3c.Head`` is its caller) are the final
    states that ``run_vqc_batch(inputs, params, keep_states=True)`` returned
    for these angles, so the sweep starts without running the circuit again.
    """
    x, up = _check_gradient_args(inputs, params, upstream)
    n = params.n_qubits
    batch = x.shape[0]
    signs = _z_signs(n)
    circuit = _compiled(n, params.depth, params.angles.tobytes())
    if states is None:
        states = _final_states(x, params)
    psi = states.view(np.complex128)
    both = np.concatenate((psi, np.dot(up, signs) * psi))    # rows: psi, then lam
    param_grads = np.empty_like(params.angles)
    for layer in reversed(range(params.depth)):
        if n > 1:
            both = both.take(_ring_inverse(n), axis=1)
        psi, lam = both[:batch], both[batch:]
        param_grads[layer, :, 1] = signs @ (lam.conj() * psi).imag.sum(axis=0)
        both *= circuit.rz_undo[layer]  # undo the RZs
        if layer:  # layer 1's RYs are folded into the encoding, read below
            # psi and lam are views of both, so the RY derivatives are read
            # after the RZ undo, as they must be
            param_grads[layer, :, 0] = _y_overlaps(psi, lam, n).sum(axis=0)
            both = _ry_sublayer(both, circuit.ry_undo[layer])
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
