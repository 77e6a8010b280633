"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value is a 2-D row-major numpy array. A fresh graph is built on each
forward pass; `backward` walks it once in reverse topological order. All ops
are pure given their inputs, so repeated runs are bit-identical.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import CheckpointError, ContractError, ParseError, ShapeError

CHECKPOINT_MAGIC = b"PSGW"
CHECKPOINT_VERSION = 1

# When set to a list, piecewise ops (relu, clip, group_max) append the bytes of
# their discrete pattern. Finite-difference checks use this to detect entries
# where a kink or routing choice flips under the probe perturbation.
structure_trace = None


def _record_structure(pattern):
    if structure_trace is not None:
        structure_trace.append(pattern.tobytes())


class FullyMaskedRowError(ValueError):
    """A softmax row contained only -inf entries; caller decides the fallback."""


class Tensor:
    __slots__ = ("value", "grad", "parents", "_push", "name")

    def __init__(self, value, parents=(), push=None, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {self.value.shape}")
        self.grad = None
        self.parents = parents
        self._push = push
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


def constant(value):
    """Wrap an array as a leaf that receives no gradient."""
    return Tensor(value)


def _toposort(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(node) into .grad for every node reachable from loss."""
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be scalar (1x1), got {loss.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._push is not None and node.grad is not None:
            node._push(node.grad)


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} x {b.shape}")
    out = Tensor(a.value @ b.value, (a, b))

    def push(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    out._push = push
    return out


def transpose(a):
    out = Tensor(a.value.T.copy(), (a,))
    out._push = lambda g: a._accumulate(g.T)
    return out


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add {a.shape} vs {b.shape}")
    out = Tensor(a.value + b.value, (a, b))

    def push(g):
        a._accumulate(g)
        b._accumulate(g)

    out._push = push
    return out


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub {a.shape} vs {b.shape}")
    out = Tensor(a.value - b.value, (a, b))

    def push(g):
        a._accumulate(g)
        b._accumulate(-g)

    out._push = push
    return out


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul {a.shape} vs {b.shape}")
    out = Tensor(a.value * b.value, (a, b))

    def push(g):
        a._accumulate(g * b.value)
        b._accumulate(g * a.value)

    out._push = push
    return out


def div(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"div {a.shape} vs {b.shape}")
    out = Tensor(a.value / b.value, (a, b))

    def push(g):
        a._accumulate(g / b.value)
        b._accumulate(-g * a.value / (b.value * b.value))

    out._push = push
    return out


def affine(a, scale=1.0, shift=0.0):
    """Elementwise scale*a + shift with constant coefficients.

    `scale` and `shift` may be scalars or arrays broadcastable to a's shape.
    """
    scale = np.asarray(scale, dtype=np.float64)
    out = Tensor(scale * a.value + shift, (a,))
    if scale.ndim == 0:
        out._push = lambda g: a._accumulate(g * float(scale))
    else:
        out._push = lambda g: a._accumulate(g * scale)
    return out


def add_bias(x, b):
    """Add a 1xC bias row to every row of x."""
    if b.shape != (1, x.shape[1]):
        raise ShapeError(f"bias {b.shape} for input {x.shape}")
    out = Tensor(x.value + b.value, (x, b))

    def push(g):
        x._accumulate(g)
        b._accumulate(g.sum(axis=0, keepdims=True))

    out._push = push
    return out


def relu(x):
    _record_structure(x.value > 0.0)
    out = Tensor(np.maximum(x.value, 0.0), (x,))
    out._push = lambda g: x._accumulate(g * (x.value > 0.0))
    return out


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x.value))
    out = Tensor(s, (x,))
    out._push = lambda g: x._accumulate(g * s * (1.0 - s))
    return out


def log(x):
    out = Tensor(np.log(x.value), (x,))
    out._push = lambda g: x._accumulate(g / x.value)
    return out


def clip(x, lo, hi):
    """Clamp values; gradient is zero where the clamp is active."""
    inside = (x.value > lo) & (x.value < hi)
    _record_structure(inside)
    out = Tensor(np.clip(x.value, lo, hi), (x,))
    out._push = lambda g: x._accumulate(g * inside)
    return out


def softmax_rows(x, extra=None):
    """Row softmax; `extra` is an optional constant additive matrix (may hold -inf).

    -inf logits map to exactly zero weight. A row with no finite logit raises
    FullyMaskedRowError; callers apply their own fallback before retrying.
    """
    z = x.value if extra is None else x.value + extra
    m = np.max(z, axis=1, keepdims=True) if z.shape[1] else np.full((z.shape[0], 1), -np.inf)
    if np.any(np.isneginf(m)):
        raise FullyMaskedRowError("softmax row has no finite entry")
    e = np.exp(z - m)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s, (x,))

    def push(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        x._accumulate(s * (g - inner))

    out._push = push
    return out


def attention(q, k, v, heads, mask=None, capture=None):
    """Multi-head scaled dot-product attention of q's rows over k's and v's.

    q is K x d and k, v are M x d. Column block h (width d/heads) of each
    attends on its own, and the heads' outputs are concatenated into K x d.
    `mask` is a constant K x M additive {0, -inf} matrix shared by all heads;
    a row with no finite logit raises FullyMaskedRowError. With zero context
    rows the output is a zero constant. `capture`, if a list, receives one
    K x M weight matrix per head.

    One tape node: the heads run as stacked matmuls under a hand-written
    backward. Each step mirrors the per-head slice / transpose / matmul /
    affine / softmax_rows / matmul / concat_cols chain, operand layout and
    order included, so values and gradients are bit-identical to it.
    """
    rows, d = q.shape
    n = k.shape[0]
    if heads < 1 or d % heads or k.shape[1] != d or v.shape != k.shape:
        raise ShapeError(f"attention q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    if mask is not None and np.shape(mask) != (rows, n):
        raise ShapeError(f"attention mask {np.shape(mask)} for {rows} x {n} logits")
    if n == 0:
        return constant(np.zeros((rows, d)))
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):  # n x d -> heads x n x dh, each head's block C-contiguous
        return np.ascontiguousarray(x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2))

    def merge(x):  # heads x n x dh -> n x d, C-contiguous like concat_cols' output
        return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(x.shape[1], d))

    qh, vh = split(q.value), split(v.value)
    kt = np.ascontiguousarray(split(k.value).transpose(0, 2, 1))
    z = (qh @ kt) * scale
    if mask is not None:
        z = z + mask
    m = z.max(axis=2, keepdims=True)
    if np.any(np.isneginf(m)):
        raise FullyMaskedRowError("softmax row has no finite entry")
    e = np.exp(z - m)
    s = e / e.sum(axis=2, keepdims=True)
    if capture is not None:
        capture.extend(w.copy() for w in s)
    out = Tensor(merge(s @ vh), (q, k, v))

    def push(g):
        g = split(g)
        gs = g @ vh.transpose(0, 2, 1)
        gz = s * (gs - (gs * s).sum(axis=2, keepdims=True)) * scale
        q._accumulate(merge(gz @ kt.transpose(0, 2, 1)))
        k._accumulate(merge((qh.transpose(0, 2, 1) @ gz).transpose(0, 2, 1)))
        v._accumulate(merge(s.transpose(0, 2, 1) @ g))

    out._push = push
    return out


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias):
    """Normalize each row to zero mean / unit variance, then apply affine."""
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ShapeError("layer_norm gain/bias must be 1xC")
    mu = x.value.mean(axis=1, keepdims=True)
    var = ((x.value - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.value - mu) * inv
    out = Tensor(xhat * gain.value + bias.value, (x, gain, bias))

    def push(g):
        dxh = g * gain.value
        n = x.shape[1]
        term = dxh - dxh.mean(axis=1, keepdims=True) - xhat * (dxh * xhat).mean(axis=1, keepdims=True)
        x._accumulate(inv * term)
        gain._accumulate((g * xhat).sum(axis=0, keepdims=True))
        bias._accumulate(g.sum(axis=0, keepdims=True))

    out._push = push
    return out


def concat_cols(tensors):
    widths = [t.shape[1] for t in tensors]
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise ShapeError("concat_cols row mismatch")
    out = Tensor(np.concatenate([t.value for t in tensors], axis=1), tuple(tensors))
    offsets = np.cumsum([0] + widths)

    def push(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            t._accumulate(g[:, a:b])

    out._push = push
    return out


def scatter_add(keys, weights, n, c):
    """n x c zeros with weights[i] added at flat position keys[i] (row * c +
    col). One np.bincount adds them in the order given, starting from 0.0,
    so the bytes equal those of an unbuffered add-at into zeros."""
    return np.bincount(keys.ravel(), weights=weights.ravel(), minlength=n * c).reshape(n, c)


def _row_keys(idx, c):
    return idx[:, None] * c + np.arange(c)


def gather_rows(x, idx):
    """Select rows by (repeatable) non-negative integer index; gradient
    scatter-adds back."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ContractError(f"gather_rows: negative index {idx.min()}")
    out = Tensor(x.value[idx], (x,))

    def push(g):
        x._accumulate(scatter_add(_row_keys(idx, x.shape[1]), g, *x.shape))

    out._push = push
    return out


def segment_mean(x, seg, n_seg):
    """Mean of x's rows per segment id; every segment must be non-empty.

    Summation follows the row order of x, so callers that need exact
    permutation invariance must present rows in a canonical order.
    """
    seg = np.asarray(seg, dtype=np.int64)
    counts = np.bincount(seg, minlength=n_seg).astype(np.float64)
    if np.any(counts == 0):
        raise ContractError("segment_mean: empty segment")
    sums = scatter_add(_row_keys(seg, x.shape[1]), x.value, n_seg, x.shape[1])
    out = Tensor(sums / counts[:, None], (x,))

    def push(g):
        out_g = g / counts[:, None]
        x._accumulate(out_g[seg])

    out._push = push
    return out


def group_max(x, groups, width=None):
    """Row-wise max of x over each index group; empty groups yield zero rows.

    Gradient routes to the argmax element of each group (first on ties).
    """
    width = x.shape[1] if width is None else width
    n = len(groups)
    vals = np.zeros((n, width))
    arg = np.full((n, width), -1, dtype=np.int64)
    for i, g in enumerate(groups):
        if len(g) == 0:
            continue
        block = x.value[np.asarray(g, dtype=np.int64)]
        a = block.argmax(axis=0)
        vals[i] = block[a, np.arange(width)]
        arg[i] = np.asarray(g, dtype=np.int64)[a]
    _record_structure(arg)
    out = Tensor(vals, (x,))

    def push(g):
        routed = arg >= 0  # empty groups route nowhere
        keys = (arg * x.shape[1] + np.arange(width))[routed]
        x._accumulate(scatter_add(keys, g[routed], *x.shape))

    out._push = push
    return out


def sum_all(x):
    out = Tensor([[x.value.sum()]], (x,))
    out._push = lambda g: x._accumulate(np.full(x.shape, g[0, 0]))
    return out


def sum_rows(x):
    """Column vector of per-row sums."""
    out = Tensor(x.value.sum(axis=1, keepdims=True), (x,))
    out._push = lambda g: x._accumulate(np.broadcast_to(g, x.shape))
    return out


def mean_all(x):
    n = x.value.size
    return affine(sum_all(x), 1.0 / n)


# ---------------------------------------------------------------------------
# parameters, linear layers, MLPs


def init_bound(fan_in):
    return np.sqrt(1.0 / fan_in)


class ParamStore:
    """Named parameter leaves plus flat-binary checkpoint I/O."""

    def __init__(self):
        self.params = {}

    def create(self, name, rows, cols, rng, fan_in=None, fill=None):
        """New leaf tensor. Default init is uniform(-b, b) with b = sqrt(1/fan_in);
        `fill` overrides it with a constant (used for norm gains and biases)."""
        if name in self.params:
            raise ContractError(f"duplicate parameter {name!r}")
        if fill is not None:
            value = np.full((rows, cols), float(fill))
        else:
            bound = init_bound(fan_in if fan_in is not None else max(rows, 1))
            value = rng.uniform(-bound, bound, size=(rows, cols))
        t = Tensor(value, name=name)
        self.params[name] = t
        return t

    def __getitem__(self, name):
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return sorted(self.params)

    def grad_of(self, name):
        g = self.params[name].grad
        return np.zeros(self.params[name].shape) if g is None else g

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(self.params)))
            for name in self.names():
                t = self.params[name]
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<II", t.shape[0], t.shape[1]))
                fh.write(np.ascontiguousarray(t.value, dtype="<f8").tobytes())

    @staticmethod
    def read_arrays(path):
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def read_exactly(n):
                # checked against the file size first, so a corrupt length
                # never asks for a huge buffer
                left = size - fh.tell()
                if n > left:
                    raise ParseError(f"truncated checkpoint: wanted {n} bytes, {left} left")
                return fh.read(n)

            if fh.read(4) != CHECKPOINT_MAGIC:
                raise ParseError("bad checkpoint magic")
            version, count = struct.unpack("<II", read_exactly(8))
            if version != CHECKPOINT_VERSION:
                raise ParseError(f"unsupported checkpoint version {version}")
            arrays = {}
            for _ in range(count):
                (nlen,) = struct.unpack("<I", read_exactly(4))
                try:
                    name = read_exactly(nlen).decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError("checkpoint parameter name is not UTF-8") from None
                rows, cols = struct.unpack("<II", read_exactly(8))
                buf = read_exactly(rows * cols * 8)
                arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
            if fh.read(1):
                raise ParseError("trailing bytes after the last checkpoint array")
        return arrays

    def load(self, path):
        arrays = self.read_arrays(path)
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise CheckpointError(
                f"checkpoint parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, arr in arrays.items():
            t = self.params[name]
            if t.shape != arr.shape:
                raise CheckpointError(
                    f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {t.shape}"
                )
            t.value = arr


class Linear:
    """y = x W + b, parameters registered under `prefix`."""

    def __init__(self, store, prefix, fan_in, fan_out, rng):
        self.w = store.create(prefix + ".w", fan_in, fan_out, rng, fan_in=fan_in)
        self.b = store.create(prefix + ".b", 1, fan_out, rng, fan_in=fan_in)

    def __call__(self, x):
        return add_bias(matmul(x, self.w), self.b)


class MLP:
    """Stack of linear layers with per-layer activation ('relu' or 'none')."""

    def __init__(self, store, prefix, widths, activations, rng):
        if len(widths) < 2:
            raise ContractError("MLP needs at least one layer")
        if len(activations) != len(widths) - 1:
            raise ContractError("one activation per layer")
        if any(w <= 0 for w in widths):
            raise ContractError("widths must be positive")
        self.layers = [
            Linear(store, f"{prefix}.{i}", widths[i], widths[i + 1], rng)
            for i in range(len(widths) - 1)
        ]
        self.activations = list(activations)

    def __call__(self, x):
        for layer, act in zip(self.layers, self.activations):
            x = layer(x)
            if act == "relu":
                x = relu(x)
            elif act != "none":
                raise ContractError(f"unknown activation {act!r}")
        return x
