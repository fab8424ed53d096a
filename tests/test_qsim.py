"""Statevector simulator tests, checked against dense-matrix and
finite-difference oracles that share no code with the implementation.
The parameter-shift oracle shares the forward on purpose, as a device
would run the circuit itself; it shares nothing with the adjoint sweep
it checks."""

import sys
import threading

import numpy as np
import pytest

from quantrl import qsim
from quantrl.a3c import ActorCriticNet
from quantrl.diffnet import Node, Tape
from quantrl.errors import ConfigError
from quantrl.qsim import (
    VqcParams,
    parameter_shift_gradients_batch,
    run_vqc_batch,
    vqc_gradients_batch,
)


# ---------------------------------------------------------------------------
# dense-matrix oracle: builds the full 2^n x 2^n unitary gate by gate
# ---------------------------------------------------------------------------

def _ry_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _embed_single(gate, qubit, n):
    """kron(I_high, gate, I_low) for little-endian qubit order."""
    return np.kron(
        np.eye(1 << (n - 1 - qubit)), np.kron(gate, np.eye(1 << qubit))
    )


def _cnot_matrix(control, target, n):
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        mat[j, i] = 1.0
    return mat


def dense_oracle_expectations(x, params):
    """Simulate the full circuit with explicit matrix products: each gate's
    full 2^n x 2^n matrix applied to the statevector of |0...0>."""
    n = params.n_qubits
    psi = np.eye(1 << n, dtype=complex)[0]
    for q in range(n):
        psi = _embed_single(_ry_matrix(np.pi * x[q]), q, n) @ psi
    for layer in range(params.depth):
        for q in range(n):
            psi = _embed_single(_ry_matrix(params.angles[layer, q, 0]), q, n) @ psi
        for q in range(n):
            psi = _embed_single(_rz_matrix(params.angles[layer, q, 1]), q, n) @ psi
        if n > 1:
            for q in range(n):
                psi = _cnot_matrix(q, (q + 1) % n, n) @ psi
    probs = np.abs(psi) ** 2
    out = np.empty(n)
    for q in range(n):
        signs = np.array([1.0 if (i >> q) & 1 == 0 else -1.0 for i in range(1 << n)])
        out[q] = probs @ signs
    return out


def random_instance(rng, n=4, depth=2):
    x = rng.uniform(-1, 1, n)
    params = VqcParams(n, depth, rng.uniform(-np.pi, np.pi, (depth, n, 2)))
    return x, params


# ---------------------------------------------------------------------------
# gate kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [0, qsim.MAX_QUBITS + 1, -3])
def test_vqc_params_qubit_count_out_of_range(bad):
    with pytest.raises(ConfigError, match="n_qubits"):
        VqcParams(bad, 1)


@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("n", range(1, qsim.BLOCK_MAX_QUBITS + 3))
def test_ry_sublayer_matches_dense_matrices(n, batch):
    # one real matrix up to the cutoff, two half-width factors above it: an
    # even and an odd split. Every row is a random complex vector, so the
    # kernel is checked as a linear map, not only on normalized states
    rng = np.random.default_rng(100 + n)
    amps = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
    before = amps.copy()
    alternating = rng.uniform(0.1, np.pi, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    for thetas in (alternating, -alternating):
        got = qsim._ry_sublayer(amps, n, thetas)
        assert np.array_equal(amps, before)
        oracle = np.eye(1 << n)
        for q in range(n):
            oracle = _embed_single(_ry_matrix(thetas[q]), q, n) @ oracle
        for row in range(batch):
            assert np.max(np.abs(got[row] - oracle @ amps[row])) < 1e-14
        undone = qsim._ry_sublayer(got, n, -thetas)
        assert np.max(np.abs(undone - amps)) < 1e-14


# ---------------------------------------------------------------------------
# run_vqc_batch
# ---------------------------------------------------------------------------

def test_vqc_encoding_only_zero_input():
    out = run_vqc_batch(np.zeros((1, 1)), VqcParams(1, 0))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_vqc_zero_params_analytic_expectation():
    # encoding RY(pi * x) on |0> gives <Z> = cos(pi x)
    out = run_vqc_batch(np.array([[0.5]]), VqcParams(1, 1))
    assert out[0, 0] == pytest.approx(np.cos(0.5 * np.pi), abs=1e-12)
    out = run_vqc_batch(np.array([[0.3]]), VqcParams(1, 2))
    assert out[0, 0] == pytest.approx(np.cos(0.3 * np.pi), abs=1e-12)


def test_vqc_input_length_validation():
    with pytest.raises(ValueError):
        run_vqc_batch(np.zeros((1, 3)), VqcParams(4, 2))
    with pytest.raises(ValueError):
        run_vqc_batch(np.zeros((2, 3)), VqcParams(4, 2))
    with pytest.raises(ValueError):
        run_vqc_batch(np.zeros(4), VqcParams(4, 2))  # a vector, not a batch


def test_vqc_matches_dense_unitary_oracle():
    rng = np.random.default_rng(11)
    # the edges are the largest circuit with a block matrix and the two
    # smallest without, an even and an odd split of the RY sublayers; depths
    # 1 and 3 check the fold of layer 1 on both paths
    edges = (qsim.BLOCK_MAX_QUBITS, qsim.BLOCK_MAX_QUBITS + 1, qsim.BLOCK_MAX_QUBITS + 2)
    for n, depth in [(n, 2) for n in (1, 2, 3, 4, *edges)] + [
            (n, depth) for depth in (1, 3) for n in edges]:
        for _ in range(5):
            x, params = random_instance(rng, n=n, depth=depth)
            got = run_vqc_batch(x[None, :], params)[0]
            want = dense_oracle_expectations(x, params)
            assert np.max(np.abs(got - want)) < 1e-10


def test_vqc_expectations_bounded():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x, params = random_instance(rng)
        out = run_vqc_batch(x[None, :], params)
        assert np.all(out <= 1.0 + 1e-12) and np.all(out >= -1.0 - 1e-12)


def test_vqc_deterministic_bit_identical():
    rng = np.random.default_rng(9)
    x, params = random_instance(rng)
    assert np.array_equal(run_vqc_batch(x[None, :], params),
                          run_vqc_batch(x[None, :], params))


# ---------------------------------------------------------------------------
# block-matrix cache
# ---------------------------------------------------------------------------

def test_forward_follows_angles_mutated_in_place():
    rng = np.random.default_rng(29)
    x, params = random_instance(rng, n=3, depth=2)
    run_vqc_batch(x[None, :], params)  # fills the cache for the current angles
    for _ in range(3):
        params.angles[...] = rng.uniform(-np.pi, np.pi, params.angles.shape)
        got = run_vqc_batch(x[None, :], params)[0]
        assert np.max(np.abs(got - dense_oracle_expectations(x, params))) < 1e-12


def test_forward_follows_set_flat():
    rng = np.random.default_rng(31)
    net = ActorCriticNet(obs_dim=5, head_kind="quantum", latent_dim=3,
                         vqc_depth=2, seed=2)
    x = rng.uniform(-1, 1, 3)

    def encoder_readout():
        return Tape().vqc(net.policy_encoder, net.policy_circuit, Node(x[None, :])).value[0]

    encoder_readout()  # fills the cache for the current angles
    for _ in range(3):
        net.set_flat(rng.uniform(-np.pi, np.pi, net.get_flat().size))
        want = dense_oracle_expectations(x, VqcParams(3, 2, net.policy_encoder.value))
        assert np.max(np.abs(encoder_readout() - want)) < 1e-12


def test_block_cache_shared_by_threads():
    # The cache is module-wide, so any threads a caller runs share it:
    # threads cycling through more angle vectors than it holds must each
    # read their own circuit.
    rng = np.random.default_rng(41)
    x = rng.uniform(-1, 1, 3)
    params = [VqcParams(3, 2, rng.uniform(-np.pi, np.pi, (2, 3, 2)))
              for _ in range(2 * qsim.BLOCK_CACHE_SIZE)]
    want = [dense_oracle_expectations(x, p) for p in params]
    errors = []

    def worker(offset):
        for i in range(200):
            k = (offset + i) % len(params)
            errors.append(np.max(np.abs(run_vqc_batch(x[None, :], params[k])[0] - want[k])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(3 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(errors) == 800 and max(errors) < 1e-12


def test_cached_block_matrix_is_read_only():
    params = VqcParams(2, 1, np.array([[[0.3, -0.2], [0.1, 0.5]]]))
    run_vqc_batch(np.zeros((1, 2)), params)
    block = qsim._block_matrix(2, 1, params.angles.tobytes())
    assert block.shape == (4, 8) and block.dtype == np.float64  # (re, im) pairs
    for array in (block, block.base):  # the complex matrix the view reads
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


@pytest.mark.parametrize("n", [4, qsim.BLOCK_MAX_QUBITS + 1])
def test_non_finite_angles_raise(n):
    net = ActorCriticNet(obs_dim=5, head_kind="quantum", latent_dim=n,
                         vqc_depth=2, seed=3)
    params = net.parameters()
    offset = sum(p.value.size for p in params[:params.index(net.policy_encoder)])
    theta = net.get_flat()
    theta[offset + 3] = np.nan  # a layer-1 RZ angle of the policy circuit
    net.set_flat(theta)
    for _ in range(2):  # a failed block build is not cached
        with pytest.raises(ValueError, match="finite"):
            net.policy_probs(np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        parameter_shift_gradients_batch(np.zeros((1, n)), net.policy_circuit,
                                        np.ones((1, n)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_single_ry_gradient_is_minus_sine():
    for theta in (np.pi / 2, 0.3, -1.1):
        params = VqcParams(1, 1, np.array([[[theta, 0.0]]]))
        param_grads, _ = vqc_gradients_batch(np.zeros((1, 1)), params, np.ones((1, 1)))
        assert param_grads[0, 0, 0] == pytest.approx(-np.sin(theta), abs=1e-12)


def test_encoding_gradient_has_pi_chain_factor():
    # <Z> = cos(pi x) so d/dx = -pi sin(pi x), with or without a variational
    # layer (at depth 0 nothing is folded into the encoding)
    x = np.array([[0.3]])
    for depth in (0, 1):
        params = VqcParams(1, depth)
        assert run_vqc_batch(x, params)[0, 0] == pytest.approx(np.cos(0.3 * np.pi), abs=1e-12)
        param_grads, input_grads = vqc_gradients_batch(x, params, np.ones((1, 1)))
        assert param_grads.shape == (depth, 1, 2)
        assert input_grads[0, 0] == pytest.approx(-np.pi * np.sin(0.3 * np.pi), abs=1e-12)


def test_zero_upstream_zero_gradients():
    rng = np.random.default_rng(1)
    x, params = random_instance(rng)
    param_grads, input_grads = vqc_gradients_batch(x[None, :], params, np.zeros((1, 4)))
    assert np.all(param_grads == 0.0)
    assert np.all(input_grads == 0.0)


def fd_gradients(x, params, upstream, h=1e-5):
    """Central finite differences through the public run_vqc_batch only."""

    def scalar(xv, angles):
        circuit = VqcParams(params.n_qubits, params.depth, angles)
        return float(upstream @ run_vqc_batch(xv[None, :], circuit)[0])

    param_grads = np.zeros_like(params.angles)
    for idx in np.ndindex(params.angles.shape):
        up = params.angles.copy()
        dn = params.angles.copy()
        up[idx] += h
        dn[idx] -= h
        param_grads[idx] = (scalar(x, up) - scalar(x, dn)) / (2 * h)
    input_grads = np.zeros_like(x)
    for i in range(len(x)):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        input_grads[i] = (scalar(up, params.angles) - scalar(dn, params.angles)) / (2 * h)
    return param_grads, input_grads


def test_parameter_shift_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(10):
        x, params = random_instance(rng)
        upstream = rng.uniform(-1, 1, 4)
        pg, ig = parameter_shift_gradients_batch(x[None, :], params, upstream[None, :])
        fpg, fig = fd_gradients(x, params, upstream)
        assert np.max(np.abs(pg - fpg)) < 1e-6
        assert np.max(np.abs(ig[0] - fig)) < 1e-6


# the last two n are the largest circuit with a block matrix and the smallest
# without; at depth 0 nothing is folded into the encoding
@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, qsim.BLOCK_MAX_QUBITS, qsim.BLOCK_MAX_QUBITS + 1,
                               qsim.BLOCK_MAX_QUBITS + 2])
def test_adjoint_matches_parameter_shift(n, depth, batch):
    rng = np.random.default_rng(1000 * n + 10 * depth + batch)
    params = VqcParams(n, depth, rng.uniform(-np.pi, np.pi, (depth, n, 2)))
    xs = rng.uniform(-1, 1, (batch, n))
    ups = rng.uniform(-1, 1, (batch, n))
    pg, ig = vqc_gradients_batch(xs, params, ups)
    ref_pg, ref_ig = parameter_shift_gradients_batch(xs, params, ups)
    assert ref_pg.shape == params.angles.shape and ref_ig.shape == xs.shape
    assert np.max(np.abs(pg - ref_pg), initial=0.0) < 1e-12  # empty at depth 0
    assert np.max(np.abs(ig - ref_ig)) < 1e-12


def test_batch_gradients_sum_over_rows():
    rng = np.random.default_rng(13)
    params = VqcParams(3, 2, rng.uniform(-1, 1, (2, 3, 2)))
    xs = rng.uniform(-1, 1, (5, 3))
    ups = rng.uniform(-1, 1, (5, 3))
    pg_batch, ig_batch = vqc_gradients_batch(xs, params, ups)
    pg_sum = np.zeros_like(params.angles)
    for i in range(5):
        pg, ig = vqc_gradients_batch(xs[i:i + 1], params, ups[i:i + 1])
        pg_sum += pg
        assert np.allclose(ig_batch[i], ig[0], atol=1e-12)
    assert np.allclose(pg_batch, pg_sum, atol=1e-12)


def test_gradient_shape_validation():
    params = VqcParams(2, 1)
    with pytest.raises(ValueError):
        vqc_gradients_batch(np.zeros((1, 3)), params, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        vqc_gradients_batch(np.zeros((1, 2)), params, np.zeros((1, 3)))
