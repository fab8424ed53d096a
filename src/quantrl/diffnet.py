"""Minimal reverse-mode building blocks shared by the agent heads and the
forecaster: dense layers, the softmax (``log_softmax``), categorical
sampling, an LSTM cell with a hand-written backward through time, a
Wengert-list gradient tape, optimizers, the flat parameter store and the
model-file container. No production model builds a tape: each runs a
forward on plain arrays, ``run(x) -> (out, saved)``, and a hand-written
``backward(saved, g)``. The tape serves the gradient checks and demo 02;
every op enters it one way, through ``Tape.record``, and every node owns
a grad.

Every op that consumes features takes a [batch, features] matrix, and
an LSTM a [batch, steps, features] sequence, and ``errors.check_batch``
raises ValueError on any other shape: a trajectory update or a BPTT
epoch is a batch of many rows, and the agent's decisions read their rows
from a batch of the observations that the steps ahead of them can return
(``a3c.PolicyTable``), which holds one row at the least. All math is
float64.

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

from .errors import ModelFileError, QuantrlError, check_batch


class Node:
    """A value and its gradient buffer: a traced tape value, or a trainable
    parameter (``Param``). Every node owns a grad, which ops accumulate
    into; no node is exempt from a backward.

    A leaf or ``Param`` built with ``Node(...)`` allocates its zero grad at
    once. A tape op's output gets its zero grad from ``Tape.backward``, so
    a forward pass that is never differentiated allocates no grad for it.
    Outside a tape, a node is a parameter: the models run on plain arrays.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        # np.zeros takes about a third of np.zeros_like's time on arrays this
        # small
        self.grad = np.zeros(self.value.shape)


Param = Node  # the name for a trainable leaf


class Tape:
    """Ordered record of a forward pass; backward replays it in reverse.

    No model builds one: it serves demo 02, which teaches reverse mode with
    it, and the gradient checks of its own ops. It stays in the package
    because the north star names a hand-written gradient tape, and because
    ``perfbench/run.py`` reads ``diffnet.Tape`` on every run, to wrap its
    methods, so it can go only after the benchmark drops that wrap.
    :meth:`record` is the one way an op enters the tape: every op below
    computes its output and hands the tape that value and its
    vector-Jacobian product. Calling
    :meth:`backward` gives every op output a zero grad, seeds the loss node
    and sweeps the recorded vector-Jacobian products last-to-first,
    accumulating into the grad of every node and parameter they touch.
    Leaves and parameters keep the grads they allocated when built.
    """

    def __init__(self):
        self._ops = []  # (output node, vjp) pairs in forward order

    def record(self, value: np.ndarray, vjp) -> Node:
        """An op's output node, holding ``value``; its grad is allocated by
        backward, which calls ``vjp(g)`` with that grad g, and ``vjp`` adds
        the grads it yields to the nodes and parameters the op read."""
        out = Node.__new__(Node)
        out.value = value
        out.grad = None
        self._ops.append((out, vjp))
        return out

    def backward(self, loss: Node) -> None:
        if not self._ops:
            raise ValueError("backward called before any forward op was recorded")
        for out, _ in self._ops:
            out.grad = np.zeros(out.value.shape)
        loss.grad = loss.grad + 1.0
        for out, vjp in reversed(self._ops):
            vjp(out.grad)

    # -- ops ---------------------------------------------------------------

    def dense(self, layer: "Dense", x: Node) -> Node:
        check_batch("dense", x.value, layer.w.value.shape[1])

        def vjp(g):
            layer.add_grads(x.value, g)
            x.grad += g @ layer.w.value

        return self.record(layer.apply(x.value), vjp)

    def tanh(self, x: Node) -> Node:
        y = np.tanh(x.value)

        def vjp(g):
            x.grad += (1.0 - y * y) * g

        return self.record(y, vjp)

    def add_const(self, x: Node, c) -> Node:
        def vjp(g):
            x.grad += g

        return self.record(x.value + c, vjp)

    def mul(self, a: Node, b: Node) -> Node:
        def vjp(g):
            a.grad += b.value * g
            b.grad += a.value * g

        return self.record(a.value * b.value, vjp)

    def scale(self, x: Node, c) -> Node:
        def vjp(g):
            x.grad += np.asarray(c) * g

        return self.record(x.value * c, vjp)

    def sum(self, x: Node) -> Node:
        def vjp(g):
            x.grad += g

        return self.record(np.asarray(x.value.sum()), vjp)


def _sigmoid(v):
    # with e = exp(-|v|), each entry is exactly 1/(1 + e) (v >= 0) or
    # e/(1 + e), and neither exp can overflow. fmin, unlike minimum, drops a
    # NaN, so a NaN reaches the result through the denominator alone, with
    # the sign bit those two forms give it
    return np.exp(np.fmin(v, 0.0)) / (1.0 + np.exp(-np.abs(v)))


def log_softmax(v) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``(p, log p)`` of the logits ``v``, from their shift by the
    row max s = v - max: p = exp(s) / sum(exp(s)) and log p = s -
    log(sum(exp(s))), which stays finite however far one logit leads.
    The package's one softmax: the update (``a3c.compute_loss_and_grads``)
    takes its loss from it, and a policy table (``a3c.PolicyTable``) its
    decisions' p at each fill. Each row's bits are those of that row
    alone."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


class Dense:
    """Affine layer y = W x + b with uniform(-1/sqrt(fan_in), ..) init."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(n_in)
        self.w = Param(rng.uniform(-bound, bound, (n_out, n_in)))
        self.b = Param(rng.uniform(-bound, bound, n_out))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``x @ w.T + b`` for a [batch, n_in] array: np.dot, then the bias
        in place, the bits of that expression with one temporary fewer."""
        out = np.dot(x, self.w.value.T)
        out += self.b.value
        return out

    def add_grads(self, x: np.ndarray, g: np.ndarray) -> None:
        """Accumulate the w and b grads of the output grad ``g`` at input ``x``."""
        self.w.grad += g.T @ x
        self.b.grad += g.sum(axis=0)

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

    def run(self, windows: np.ndarray) -> tuple[np.ndarray, list]:
        """The final [batch, hidden] state of a [batch, steps, input_size]
        sequence run from the zero state, on plain arrays, and each step's
        arrays that ``backward`` reads. ValueError for any other shape."""
        windows = check_batch("lstm", np.asarray(windows, dtype=np.float64),
                              "steps", self.input_size)
        h = c = np.zeros((windows.shape[0], self.hidden_size))
        saved = []
        for t in range(windows.shape[1]):
            z = np.concatenate([windows[:, t, :], h], axis=-1)
            gi = _sigmoid(z @ self.w_i.value.T + self.b_i.value)
            gf = _sigmoid(z @ self.w_f.value.T + self.b_f.value)
            go = _sigmoid(z @ self.w_o.value.T + self.b_o.value)
            gg = np.tanh(z @ self.w_g.value.T + self.b_g.value)
            c_prev, c = c, gf * c + gi * gg
            tc = np.tanh(c)
            h = go * tc
            saved.append((z, c_prev, gi, gf, go, gg, tc))
        return h, saved

    def backward(self, saved: list, gh: np.ndarray) -> None:
        """Backpropagate the final hidden state's grad ``gh`` through time,
        last step first, adding every parameter's grad from the arrays that
        ``run`` saved. The inputs are data and take none; the zero initial
        state takes none either."""
        d = self.input_size
        gates = ((self.w_i, self.b_i), (self.w_f, self.b_f),
                 (self.w_o, self.b_o), (self.w_g, self.b_g))
        gc = 0.0  # the cell state's grad from the step after; none after the last
        for t in reversed(range(len(saved))):
            z, c_prev, gi, gf, go, gg, tc = saved[t]
            dc = gc + gh * go * (1.0 - tc * tc)
            dgs = (dc * gg * gi * (1.0 - gi), dc * c_prev * gf * (1.0 - gf),
                   gh * tc * go * (1.0 - go), dc * gi * (1.0 - gg * gg))
            if t:
                gc = dc * gf
                # only the hidden-state columns of dz = dg @ w, since the
                # input takes no gradient. BLAS may round a narrower product
                # in the last bit unlike the full one sliced, for some shapes
                gh = sum(dg @ w.value[:, d:] for (w, _), dg in zip(gates, dgs))
            for (w, b), dg in zip(gates, dgs):
                w.grad += dg.T @ z
                b.grad += dg.sum(axis=0)


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
    and grad become views of them, so reading (a copy of ``values`` or
    ``grads``), writing (``set``), zeroing (``zero_grads``) or
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

    def set(self, theta: np.ndarray) -> None:
        """Write every parameter; a vector of the wrong size raises
        ValueError before anything is written."""
        if np.shape(theta) != self.values.shape:
            raise ValueError(f"flat vector has shape {np.shape(theta)}, "
                             f"params need {self.values.shape}")
        self.values[...] = theta

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
    """Adam with beta1 0.9, beta2 0.999 and eps 1e-8; ``step`` writes the
    update into ``theta`` with the IEEE operations of
    ``theta - lr * m_hat / (sqrt(v_hat) + eps)``."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        theta -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


OPTIMIZERS = {"adam": AdamOptimizer, "sgd": SgdOptimizer}


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


def save_model(path, magic: bytes, fields: dict, model) -> None:
    """Write a model file: magic, header length, a JSON header of the
    model's values of ``fields`` (what ``load_model`` reads back), then
    its parameters() as a DNP1 blob."""
    meta = json.dumps({key: getattr(model, key) for key in fields}, sort_keys=True).encode()
    blob = pack_arrays([p.value for p in model.parameters()])
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
