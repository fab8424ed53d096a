"""Minimal reverse-mode building blocks shared by the agent heads and the
forecaster: dense layers, activations, categorical sampling, an LSTM cell,
a Wengert-list gradient tape, optimizers and the model-file container.

Every op that consumes features takes a [batch, features] matrix and
raises ValueError on any other shape: a trajectory update or a BPTT epoch
is a batch of many rows, and a single decision is a batch of one row.
All math is float64.

Model files (``save_model``/``load_model``) are the one container of the
agent checkpoint (magic b"QNET") and the forecaster (magic b"QLSTM"): the
magic, a uint32 little-endian header length, a JSON header with sorted
keys, then the parameters in parameters() order as a DNP1 blob:

    magic   b"DNP1"
    count   uint32 LE, number of arrays
    per array:
        ndim    uint32 LE
        dims    ndim x uint64 LE
        data    float64 LE, C order

The reader loads a file whole or raises ModelFileError, a ValueError
naming the file: unreadable file, wrong magic, a length past the end, a
header without exactly the expected typed keys, trailing bytes, an array
count or shape unlike the one the header implies, or a non-finite value.
The shapes are compared before the model is built, so no header can make
the reader allocate more than the file holds.
"""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from . import qsim
from .errors import ModelFileError, QuantrlError


class Node:
    """A value and the gradient buffer that ops accumulate into: a traced
    tape value, or a trainable parameter (``Param``).

    A leaf or ``Param`` built with ``Node(...)`` allocates its zero grad at
    once. A tape op's output starts with ``grad = None`` and gets its zero
    grad from ``Tape.backward``, so a forward pass that is never
    differentiated, such as one decision, allocates no grad for it. Nor
    does an input built with ``requires_grad=False``, such as a decision's
    observation or a trajectory's states: ``Tape.dense`` skips the input
    grad of such a node rather than fill one nobody reads. Any other op
    that a backward reaches through it fails on the missing grad.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, requires_grad: bool = True):
        self.value = np.asarray(value, dtype=np.float64)
        # np.zeros takes about a third of np.zeros_like's time on arrays this
        # small
        self.grad = np.zeros(self.value.shape) if requires_grad else None


Param = Node  # the name for a trainable leaf


def _check_batch(op: str, x: np.ndarray, width: int) -> None:
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(
            f"{op} expects a [batch, {width}] input, got shape {x.shape}"
        )


class Tape:
    """Ordered record of a forward pass; backward replays it in reverse.

    Every op returns a Node whose grad is not allocated yet. Calling
    :meth:`backward` gives every op output a zero grad, seeds the loss node
    and sweeps the recorded vector-Jacobian products last-to-first,
    accumulating into the grad of every node and parameter they touch.
    Leaves and parameters keep the grads they allocated when built.
    """

    def __init__(self):
        self._records = []
        self._outputs = []

    def _push(self, vjp) -> None:
        self._records.append(vjp)

    def _output(self, value: np.ndarray) -> Node:
        """An op's result node; its grad is filled in by backward."""
        out = Node.__new__(Node)
        out.value = value
        out.grad = None
        self._outputs.append(out)
        return out

    def backward(self, loss: Node) -> None:
        if not self._records:
            raise ValueError("backward called before any forward op was recorded")
        for node in self._outputs:
            node.grad = np.zeros(node.value.shape)
        loss.grad = loss.grad + 1.0
        for vjp in reversed(self._records):
            vjp()

    # -- ops ---------------------------------------------------------------

    def dense(self, layer: "Dense", x: Node) -> Node:
        _check_batch("dense", x.value, layer.w.value.shape[1])
        # np.dot, then the bias in place: the bits of x @ w.T + b with one
        # temporary fewer
        out = self._output(np.dot(x.value, layer.w.value.T))
        out.value += layer.b.value

        def vjp():
            g = out.grad
            layer.w.grad += g.T @ x.value
            layer.b.grad += g.sum(axis=0)
            if x.grad is not None:
                x.grad += g @ layer.w.value

        self._push(vjp)
        return out

    def tanh(self, x: Node) -> Node:
        out = self._output(np.tanh(x.value))

        def vjp():
            x.grad += (1.0 - out.value * out.value) * out.grad

        self._push(vjp)
        return out

    def softmax(self, x: Node) -> Node:
        out = self._output(softmax(x.value))

        def vjp():
            g = out.grad
            inner = (g * out.value).sum(axis=-1, keepdims=True)
            x.grad += out.value * (g - inner)

        self._push(vjp)
        return out

    def log(self, x: Node) -> Node:
        out = self._output(np.log(x.value))

        def vjp():
            x.grad += out.grad / x.value

        self._push(vjp)
        return out

    def pick(self, x: Node, index) -> Node:
        """Gather x[i, index[i]] for every batch row i."""
        if x.value.ndim != 2:
            raise ValueError(f"pick expects a [batch, n] input, got shape {x.value.shape}")
        idx = np.asarray(index, dtype=np.intp)
        rows = np.arange(x.value.shape[0])
        out = self._output(x.value[rows, idx])

        def vjp():
            np.add.at(x.grad, (rows, idx), out.grad)

        self._push(vjp)
        return out

    def add(self, a: Node, b: Node) -> Node:
        out = self._output(a.value + b.value)

        def vjp():
            a.grad += out.grad
            b.grad += out.grad

        self._push(vjp)
        return out

    def add_const(self, x: Node, c) -> Node:
        out = self._output(x.value + c)

        def vjp():
            x.grad += out.grad

        self._push(vjp)
        return out

    def mul(self, a: Node, b: Node) -> Node:
        out = self._output(a.value * b.value)

        def vjp():
            a.grad += b.value * out.grad
            b.grad += a.value * out.grad

        self._push(vjp)
        return out

    def scale(self, x: Node, c) -> Node:
        out = self._output(x.value * c)

        def vjp():
            x.grad += np.asarray(c) * out.grad

        self._push(vjp)
        return out

    def square(self, x: Node) -> Node:
        out = self._output(x.value * x.value)

        def vjp():
            x.grad += 2.0 * x.value * out.grad

        self._push(vjp)
        return out

    def sum(self, x: Node) -> Node:
        out = self._output(np.asarray(x.value.sum()))

        def vjp():
            x.grad += out.grad

        self._push(vjp)
        return out

    def lstm(self, cell: "LstmCell", x: np.ndarray, state) -> tuple[Node, Node]:
        """One LSTM step over a batch; returns (hidden, cell_state) nodes.
        The step's input ``x`` is a plain [batch, input_size] array: it is
        data, so no gradient is taken for it."""
        h, c = state
        _check_batch("lstm", x, cell.input_size)
        z = np.concatenate([x, h.value], axis=-1)
        gi = _sigmoid(z @ cell.w_i.value.T + cell.b_i.value)
        gf = _sigmoid(z @ cell.w_f.value.T + cell.b_f.value)
        go = _sigmoid(z @ cell.w_o.value.T + cell.b_o.value)
        gg = np.tanh(z @ cell.w_g.value.T + cell.b_g.value)
        c_new = self._output(gf * c.value + gi * gg)
        tc = np.tanh(c_new.value)
        h_new = self._output(go * tc)

        def vjp():
            gh = h_new.grad
            dc = c_new.grad + gh * go * (1.0 - tc * tc)
            dgo = gh * tc * go * (1.0 - go)
            dgi = dc * gg * gi * (1.0 - gi)
            dgf = dc * c.value * gf * (1.0 - gf)
            dgg = dc * gi * (1.0 - gg * gg)
            c.grad += dc * gf
            # only the hidden-state columns of dz = dg @ w, since the input
            # takes no gradient. BLAS may round a narrower product in the
            # last bit unlike the full one sliced, for some shapes
            d = cell.input_size
            h.grad += (
                dgi @ cell.w_i.value[:, d:]
                + dgf @ cell.w_f.value[:, d:]
                + dgo @ cell.w_o.value[:, d:]
                + dgg @ cell.w_g.value[:, d:]
            )
            for param_w, param_b, dg in (
                (cell.w_i, cell.b_i, dgi),
                (cell.w_f, cell.b_f, dgf),
                (cell.w_o, cell.b_o, dgo),
                (cell.w_g, cell.b_g, dgg),
            ):
                param_w.grad += dg.T @ z
                param_b.grad += dg.sum(axis=0)

        self._push(vjp)
        return h_new, c_new

    def vqc(self, angles: Param, circuit: qsim.VqcParams, x: Node) -> Node:
        """Variational-circuit encoder over a batch; backward runs the
        adjoint method. ``circuit`` must hold ``angles.value`` itself, so
        that in-place parameter writes reach it."""
        out = self._output(qsim.run_vqc_batch(x.value, circuit))

        def vjp():
            pg, ig = qsim.vqc_gradients_batch(x.value, circuit, out.grad)
            angles.grad += pg
            x.grad += ig

        self._push(vjp)
        return out


def _sigmoid(v):
    # with e = exp(-|v|), each entry is exactly 1/(1 + e) (v >= 0) or
    # e/(1 + e), and neither exp can overflow. fmin, unlike minimum, drops a
    # NaN, so a NaN reaches the result through the denominator alone, with
    # the sign bit those two forms give it
    return np.exp(np.fmin(v, 0.0)) / (1.0 + np.exp(-np.abs(v)))


def softmax(v) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_row(v: np.ndarray) -> np.ndarray:
    """``softmax`` of one 1-D row of fewer than 8 entries, bit for bit, in
    fewer numpy calls. The shift and the sum are the same IEEE operations
    on Python floats: numpy sums a row that short left to right. The exp
    is one numpy call, and the division one in-place divide by the sum."""
    row = v.tolist()
    top = max(row)
    e = np.exp([x - top for x in row])
    total = 0.0
    for x in e.tolist():
        total += x
    e /= total
    return e


class Dense:
    """Affine layer y = W x + b with uniform(-1/sqrt(fan_in), ..) init."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(n_in)
        self.w = Param(rng.uniform(-bound, bound, (n_out, n_in)))
        self.b = Param(rng.uniform(-bound, bound, n_out))

    def parameters(self) -> list[Param]:
        return [self.w, self.b]

    @staticmethod
    def parameter_shapes(n_in: int, n_out: int) -> list[tuple]:
        """Shapes of parameters() for these sizes, without building."""
        return [(n_out, n_in), (n_out,)]


class LstmCell:
    """Single-layer LSTM cell. Gate weights have shape [H, D+H]; the forget
    bias starts at 1.0 so memory is initially sticky."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(input_size + hidden_size)

        def w():
            return Param(rng.uniform(-bound, bound, (hidden_size, input_size + hidden_size)))

        def b():
            return Param(rng.uniform(-bound, bound, hidden_size))

        self.w_i, self.b_i = w(), b()
        self.w_f, self.b_f = w(), Param(np.ones(hidden_size))
        self.w_o, self.b_o = w(), b()
        self.w_g, self.b_g = w(), b()

    def parameters(self) -> list[Param]:
        return [
            self.w_i, self.b_i, self.w_f, self.b_f,
            self.w_o, self.b_o, self.w_g, self.b_g,
        ]

    @staticmethod
    def parameter_shapes(input_size: int, hidden_size: int) -> list[tuple]:
        """Shapes of parameters() for these sizes, without building."""
        return 4 * [(hidden_size, input_size + hidden_size), (hidden_size,)]

    def initial_state(self, batch: int) -> tuple[Node, Node]:
        shape = (batch, self.hidden_size)
        return Node(np.zeros(shape)), Node(np.zeros(shape))


def categorical_sample(probs, rng: np.random.Generator) -> int:
    """Sample an index from a probability vector with one ``rng.random()``
    draw u: the first index whose running sum exceeds u, or the last index
    if rounding leaves the total at or below u. ValueError unless ``probs``
    is a nonempty, nonnegative 1-D vector summing to 1 within 1e-9.

    The entries are summed and searched as Python floats, cheaper than
    numpy calls on a few entries. ``accumulate`` adds in ``cumsum``'s
    left-to-right order and ``bisect_right`` returns
    ``searchsorted(side="right")``'s index, so the draws are numpy's.
    """
    p = np.asarray(probs, dtype=np.float64)
    ps = p.tolist() if p.ndim == 1 else []
    c = list(accumulate(ps))
    # written so that a NaN anywhere fails the check: it makes the sum NaN
    if not (c and min(ps) >= 0 and abs(c[-1] - 1.0) <= 1e-9):
        raise ValueError("probs must be a nonnegative vector summing to 1")
    return min(bisect_right(c, rng.random()), len(c) - 1)


# -- parameter store --------------------------------------------------------

class FlatStore:
    """One flat value array and one flat grad array for ``params``, in list
    order: the one place where a model, the agent's ``ActorCriticNet`` or
    the ``ForecastModel``, holds its parameters. Every parameter's value
    and grad become views of them, so reading, writing, zeroing or
    optimizer-stepping the whole vector is one numpy call. The values are
    kept and the grads start at zero.

    The views hold only while nothing rebinds a parameter's ``value`` or
    ``grad``: tape ops accumulate into grads in place, optimizers step
    ``values`` in place, and every other write goes through ``value[...]``.
    """

    def __init__(self, params: list[Param]):
        self.values = np.concatenate([p.value.ravel() for p in params])
        self.grads = np.zeros(self.values.size)
        offset = 0
        for p in params:
            end = offset + p.value.size
            p.value = self.values[offset:end].reshape(p.value.shape)
            p.grad = self.grads[offset:end].reshape(p.value.shape)
            offset = end

    def get(self) -> np.ndarray:
        return self.values.copy()

    def set(self, theta: np.ndarray) -> None:
        """Write every parameter; a vector of the wrong size raises
        ValueError before anything is written."""
        if np.shape(theta) != self.values.shape:
            raise ValueError(f"flat vector has shape {np.shape(theta)}, "
                             f"params need {self.values.shape}")
        self.values[...] = theta

    def get_grads(self) -> np.ndarray:
        return self.grads.copy()

    def zero_grads(self) -> None:
        self.grads.fill(0.0)


def clip_global_norm(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
    if norm > max_norm > 0:
        return grad * (max_norm / norm)
    return grad


class SgdOptimizer:
    """Plain theta <- theta - lr * grad, written into ``theta``."""

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        theta -= self.learning_rate * grad


class AdamOptimizer:
    """Adam; ``step`` writes the update into ``theta`` with the IEEE
    operations of ``theta - lr * m_hat / (sqrt(v_hat) + eps)``."""

    def __init__(self, size: int, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        theta -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(kind: str, size: int, learning_rate: float):
    if kind == "adam":
        return AdamOptimizer(size, learning_rate)
    if kind == "sgd":
        return SgdOptimizer(size, learning_rate)
    raise ValueError(f"unknown optimizer kind '{kind}'")


# -- serialization ----------------------------------------------------------

_MAGIC = b"DNP1"


def pack_arrays(arrays: list[np.ndarray]) -> bytes:
    parts = [_MAGIC, struct.pack("<I", len(arrays))]
    for a in arrays:
        a = np.asarray(a, dtype=np.float64)
        parts.append(struct.pack("<I", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}Q", *a.shape))
        parts.append(a.astype("<f8").tobytes(order="C"))
    return b"".join(parts)


def unpack_arrays(blob: bytes) -> list[np.ndarray]:
    """Decode a whole DNP1 blob; ValueError unless every length fits, no
    byte is left over and every value is finite."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a DNP1 parameter blob")
    offset = 4

    def take(n: int) -> int:
        nonlocal offset
        if n > len(blob) - offset:
            raise ValueError(f"truncated: needs {n} more bytes at offset {offset}")
        offset += n
        return offset - n

    (count,) = struct.unpack_from("<I", blob, take(4))
    arrays = []
    for _ in range(count):
        (ndim,) = struct.unpack_from("<I", blob, take(4))
        shape = struct.unpack_from(f"<{ndim}Q", blob, take(8 * ndim))
        size = math.prod(shape)
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=take(8 * size))
        arrays.append(data.reshape(shape).astype(np.float64))
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} trailing bytes after the arrays")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("non-finite parameter values")
    return arrays


def save_model(path, magic: bytes, header: dict, params: list[Param]) -> None:
    """Write a model file: magic, header length, JSON header, DNP1 blob."""
    meta = json.dumps(header, sort_keys=True).encode()
    blob = pack_arrays([p.value for p in params])
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(meta)) + meta + blob)


def load_model(path, magic: bytes, fields: dict, build):
    """Read a model file written by ``save_model`` with the same magic.

    ``fields`` maps each header key to its type, int (a size, at least 1)
    or str; the header must hold exactly these keys. ``build`` is the model
    class: the stored arrays must have the shapes that
    ``build.parameter_shapes(**header)`` lists, and only then does
    ``build(**header)`` make the model whose ``parameters()`` take them.
    """
    try:
        with open(path, "rb") as fh:
            model, arrays = _decode_model(fh.read(), magic, fields, build)
    except (OSError, ValueError, QuantrlError) as exc:  # build() may raise ConfigError
        raise ModelFileError(f"{path}: {exc}") from exc
    for p, a in zip(model.parameters(), arrays):
        p.value[...] = a
    return model


def _decode_model(raw: bytes, magic: bytes, fields: dict, build):
    start = len(magic) + 4
    if raw[:len(magic)] != magic:
        raise ValueError(f"not a {magic.decode()} model file")
    if len(raw) < start:
        raise ValueError("truncated before the header length")
    (meta_len,) = struct.unpack_from("<I", raw, len(magic))
    header = json.loads(raw[start:start + meta_len])
    if not isinstance(header, dict) or header.keys() != fields.keys():
        raise ValueError(f"header {header!r} does not hold the fields {sorted(fields)}")
    for key, kind in fields.items():
        value = header[key]
        if type(value) is not kind or (kind is int and value < 1):
            raise ValueError(f"header field {key} = {value!r} is not a valid "
                             f"{kind.__name__}")
    arrays = unpack_arrays(raw[start + meta_len:])
    shapes = build.parameter_shapes(**header)
    if [a.shape for a in arrays] != shapes:
        raise ValueError(
            f"array shapes {[a.shape for a in arrays]} differ from the header's {shapes}"
        )
    return build(**header), arrays
