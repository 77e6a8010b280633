"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value is a 2-D numpy array. A fresh graph is built on each forward
pass; `backward` walks it once in reverse topological order. All ops are pure
given their inputs, so repeated runs are bit-identical. Every op hands its
push to the `Tensor` constructor, which alone decides whether it is kept.

Fused ops (`linear` with its optional ReLU, `attention_block`,
`add_layer_norm`, `weighted_bce`, `set_criterion`) are one tape node each,
with a hand-written backward that repeats the arithmetic of the composed
chain it replaces, so values and gradients keep their bytes.
Four rules keep the bytes and bound the memory:

- Ownership. A push hands each parent its gradient through `_take(g)`,
  which keeps g itself as the parent's first `.grad`, so g must be an array
  the push has just allocated and nothing else holds. Pushes that pass on
  their own incoming gradient or a view of it hand over `np.array(...)` of
  it: `add` (both sides), `concat_cols` (each column slice) and `transpose`
  (g.T). Otherwise two nodes share one buffer, and the next `+=` into
  either changes both. `add_layer_norm` hands the one gradient it computes
  to both its inputs, so x gets a copy and y the array itself. The same
  holds for work in place (`linear`'s ReLU, the layer norms,
  `attention_block`): an op writes only into arrays it has allocated
  itself, never into a parent's value or the g its push receives.
- Memory order. BLAS results depend on the operands' layout, not only on
  their values, and a gradient's layout decides the path of every matmul
  that later reads it. A taken gradient keeps the layout it was allocated
  with, and `np.array` copies in the layout it is given, so `transpose`
  hands on an F-ordered copy of g.T. A fused op must hand on each gradient
  in the order (C or F) its chain produced. Made C-ordered, the mask
  features' gradient changes the parameter bytes within 12 default steps.
- Lifetime. A `Tensor` is the value the caller holds and a `Node` on the
  tape, which holds `.grad`, the parents' nodes and the push. A push holds
  the nodes and the arrays it reads, never a parent tensor, so the tape
  keeps nodes and the arrays pushes captured, and a value lives while the
  forward code or a push holds it. `linear` captures its input's and
  weight's values, `matmul` both values and `attention_block` z's, f's and
  the weights'; `sigmoid` and `softmax_rows` keep their own output, and no
  other op reads a parent's value. The forward code drops the rest (see
  `Backbone.__call__`). `backward` releases the tape as it walks it: once a
  node has pushed, its parents become () and its push a sentinel that
  raises ContractError, which frees what the push held, so a step peaks at
  the forward tape, not the tape plus every gradient. Tensors the caller
  holds keep `value` and `.grad`, but a graph is walked once: a second
  `backward` from its root, or through a new graph on a consumed tensor,
  raises. Leaves have no push and are never released. Count a tape with
  `_toposort` before its `backward`. A parameter's `.grad` lives from
  `backward` to `training.Adam.step`, which consumes it: a recorder of
  gradient norms reads them between the two.
- Tape off. Inside `with no_tape():` a tensor's node has no parents, and
  its push, with what the push captured, is dropped at once, so each
  intermediate array is freed as soon as the forward code drops it; the
  CLI's `predict` and `inspect-attn` run this way. Its push becomes a
  sentinel: `backward` from such a tensor, or through a taped graph that
  reaches one, raises ContractError instead of leaving gradients silently
  missing. The values, and the weights `inspect-attn` takes from
  `attention_trace`, are those of the taped pass, byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .errors import CheckpointError, ContractError, ParseError, ShapeError

CHECKPOINT_MAGIC = b"PSGW"
CHECKPOINT_VERSION = 1

# When set to a list, every discrete choice of a pass appends the bytes of its
# pattern: the piecewise ops (linear's ReLU, group_max and the clamps of
# weighted_bce and set_criterion), the candidate sampler's picks and each
# decoder layer's gating mask. Finite-difference checks use this to detect
# entries where a kink or routing choice flips under the probe perturbation.
structure_trace = None
# When set to a list, each masked `attention_block` call appends its heads x K
# x M weights: in the decoder, the gated cross-attention over superpoints by
# layer.
# A caller sets either sink to a list around a pass and to None after it.
attention_trace = None


def record_structure(pattern):
    if structure_trace is not None:
        structure_trace.append(pattern.tobytes())


# False inside `no_tape()`: new nodes then record no parents and no push.
_taping = True


@contextlib.contextmanager
def no_tape():
    """Build tensors without a tape inside the block (the tape-off rule).
    Nests; the previous mode is restored on exit, also on an exception."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def _untaped(g):
    raise ContractError("backward reached a tensor made under no_tape()")


class Node:
    """A tensor's place on the tape: its gradient, the nodes of the tensors
    it was computed from and the push that hands them their gradients. A
    push holds the nodes and the arrays it reads, never a parent tensor."""

    __slots__ = ("grad", "parents", "_push")

    def __init__(self, parents, push):
        self.grad = None
        self.parents = parents
        self._push = push

    def _take(self, g):
        """Add a float64 gradient the push has just allocated; the first one
        becomes .grad without a copy (see the ownership rule above)."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Tensor:
    """A value and its tape node. `parents` are the tensors an op read; the
    node keeps their nodes. `.grad`, `.parents` and `_take` are the node's."""

    __slots__ = ("value", "node", "name")

    def __init__(self, value, parents=(), push=None, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {self.value.shape}")
        if push is not None:
            if _taping:
                parents = tuple([p.node for p in parents])
            else:
                parents, push = (), _untaped
        self.node = Node(parents, push)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def parents(self):
        return self.node.parents

    def _take(self, g):
        self.node._take(g)


def constant(value):
    """Wrap an array as a leaf that receives no gradient."""
    return Tensor(value)


def _toposort(root):
    """The nodes reachable from the tensor root, each after its parents."""
    order, seen, stack = [], set(), [(root.node, False)]
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


def _released(g):
    raise ContractError("tape node reached again after its backward pass")


def backward(loss):
    """Accumulate d(loss)/d(node) into .grad for every node reachable from
    loss, releasing each node once it has pushed (the lifetime rule)."""
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be scalar (1x1), got {loss.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.node.grad = np.ones((1, 1))
    while order:
        node = order.pop()
        if node._push is None:
            continue
        if node.grad is not None:
            node._push(node.grad)
        node.parents = ()
        node._push = _released


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b):
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} x {b.shape}")

    av, bv, an, bn = a.value, b.value, a.node, b.node

    def push(g):
        an._take(g @ bv.T)
        bn._take(av.T @ g)

    return Tensor(av @ bv, (a, b), push)


def transpose(a):
    an = a.node
    return Tensor(a.value.T.copy(), (a,), lambda g: an._take(np.array(g.T)))


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add {a.shape} vs {b.shape}")

    an, bn = a.node, b.node

    def push(g):
        an._take(np.array(g))
        bn._take(np.array(g))

    return Tensor(a.value + b.value, (a, b), push)


def affine(a, scale=1.0, shift=0.0):
    """Elementwise scale*a + shift with constant coefficients.

    `scale` and `shift` may be scalars or arrays broadcastable to a's shape.
    """
    scale, an = np.asarray(scale, dtype=np.float64), a.node
    return Tensor(scale * a.value + shift, (a,), lambda g: an._take(g * scale))


def linear(x, w, b, relu=False):
    """x @ w + b (b a 1xC row) as one node, for matmul(x, w) plus a bias row
    added to every row; x @ w is not kept on the tape. With `relu`, y is
    clamped at 0 in place, its y > 0 pattern is recorded, and the push masks
    g with that pattern first: the bytes of a relu node after the linear one."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear {x.shape} x {w.shape} + {b.shape}")
    xv, wv, xn, wn, bn = x.value, w.value, x.node, w.node, b.node
    y = xv @ wv
    y += b.value
    if relu:
        live = y > 0.0
        record_structure(live)
        np.maximum(y, 0.0, out=y)

    def push(g):
        if relu:
            g = g * live
        bn._take(g.sum(axis=0, keepdims=True))
        xn._take(g @ wv.T)
        wn._take(xv.T @ g)

    return Tensor(y, (x, w, b), push)


def sigmoid(x):
    with np.errstate(over="ignore"):  # exp(-x) is inf below x = -709, and s then 0.0
        s = 1.0 / (1.0 + np.exp(-x.value))
    xn = x.node
    return Tensor(s, (x,), lambda g: xn._take(g * s * (1.0 - s)))


def softmax_rows(x):
    """Row softmax of at least one column. -inf logits map to exactly zero
    weight; a row with no finite logit, or with a +inf one, is NaN."""
    z = x.value
    e = np.exp(z - np.max(z, axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    xn = x.node

    def push(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        xn._take(s * (g - inner))

    return Tensor(s, (x,), push)


def attention_block(z, f, q, k, v, out, heads, mask=None):
    """Multi-head attention of z's rows over f's rows with its projections,
    out(attention(q(z), k(f), v(f))): q, k, v and out are (w, b) pairs of a
    d x d weight and a 1 x d bias, each applied as `linear` applies it.

    z is K x d and f is M x d (f may be z). Column block h (width d/heads) of
    the projections attends on its own, and the heads' outputs are
    concatenated into K x d. `mask` is a constant K x M additive {0, -inf}
    matrix shared by all heads; a row with no finite logit gives NaN weights.
    With zero context rows the attention is zero, so the output is out's
    bias and only out's pair gets a gradient. A call with a mask appends a
    copy of its heads x K x M weights to attention_trace when that is a list.

    One tape node: the heads run as stacked matmuls under a hand-written
    backward that pushes the out projection (bias, weight), the attention,
    then the q, k and v projections (bias, input, weight each). Each step
    mirrors the linear / per-head slice / transpose / matmul / affine /
    softmax_rows / matmul / concat_cols / linear chain, operand layout and
    order included, so values and gradients are bit-identical to it, but
    for one order: the block pushes into f when the walk reaches it, so an
    f read by several blocks sums their pushes in the blocks' walk order.
    The projections are not kept, only their per-head copies.
    """
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = q, k, v, out
    rows, d = z.shape
    n = f.shape[0]
    if heads < 1 or d % heads or f.shape[1] != d or any(
        w.shape != (d, d) or b.shape != (1, d) for w, b in (q, k, v, out)
    ):
        raise ShapeError(f"attention_block z {z.shape}, f {f.shape}, {heads} heads")
    if mask is not None and np.shape(mask) != (rows, n):
        raise ShapeError(f"attention mask {np.shape(mask)} for {rows} x {n} logits")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):  # n x d -> heads x n x dh, each head's block C-contiguous
        return np.ascontiguousarray(x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2))

    def merge(x):  # heads x n x dh -> n x d, C-contiguous like concat_cols' output
        return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(x.shape[1], d))

    def project(x, w, b):
        y = x @ w.value
        y += b.value
        return y

    if n == 0:
        a = np.zeros((rows, d))
    else:
        qh, vh = split(project(z.value, wq, bq)), split(project(f.value, wv, bv))
        kt = project(f.value, wk, bk).reshape(n, heads, dh).transpose(1, 2, 0)
        kt = np.ascontiguousarray(kt)  # heads x dh x n
        # the softmax runs in place in the logits l: s = exp(l - max) / sum
        s = qh @ kt
        s *= scale
        if mask is not None:
            s += mask
        s -= s.max(axis=2, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=2, keepdims=True)
        if mask is not None and attention_trace is not None:
            attention_trace.append(s.copy())
        a = merge(s @ vh)

    # the push holds z's and f's values and the weights, not their tensors
    zv, fv, zn, fn = z.value, f.value, z.node, f.node
    pq, pk, pv, (wov, won, bon) = ((w.value, w.node, b.node) for w, b in (q, k, v, out))

    def push(g):
        bon._take(g.sum(axis=0, keepdims=True))
        won._take(a.T @ g)
        if n == 0:
            return
        ga = split(g @ wov.T)
        gl = ga @ vh.transpose(0, 2, 1)  # gs, then s * (gs - sum(gs * s)) * scale
        inner = (gl * s).sum(axis=2, keepdims=True)
        gl -= inner
        gl *= s
        gl *= scale
        gq = merge(gl @ kt.transpose(0, 2, 1))
        gk = merge((qh.transpose(0, 2, 1) @ gl).transpose(0, 2, 1))
        gv = merge(s.transpose(0, 2, 1) @ ga)
        for xv, xn, (wa, wn, bn), gx in ((zv, zn, pq, gq), (fv, fn, pk, gk), (fv, fn, pv, gv)):
            bn._take(gx.sum(axis=0, keepdims=True))
            xn._take(gx @ wa.T)
            wn._take(xv.T @ gx)

    # the walk reaches f before z, as the chain's v projection did
    parents = (z, wq, bq, wk, bk, f, wv, bv, wo, bo) if n else (wo, bo)
    return Tensor(project(a, wo, bo), parents, push)


LAYER_NORM_EPS = 1e-5


def _layer_norm(v, gain, bias):
    """layer_norm's value for the array v, and its backward: a function of
    the output's gradient g that hands gain and bias theirs and returns v's."""
    if gain.shape != (1, v.shape[1]) or bias.shape != (1, v.shape[1]):
        raise ShapeError("layer_norm gain/bias must be 1xC")
    xhat = v - v.mean(axis=1, keepdims=True)
    out = np.square(xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    gv, gn, bn = gain.value, gain.node, bias.node
    np.multiply(xhat, gv, out=out)
    out += bias.value

    def grad(g):
        # inv * ((dxh - mean(dxh)) - xhat * mean(dxh * xhat)), in the array
        # of dxh * xhat: its layout, C or F, is the one that chain gives
        dxh = g * gv
        mean_dxh = dxh.mean(axis=1, keepdims=True)
        term = dxh * xhat
        np.multiply(xhat, term.mean(axis=1, keepdims=True), out=term)
        dxh -= mean_dxh
        np.subtract(dxh, term, out=term)
        term *= inv
        gn._take((g * xhat).sum(axis=0, keepdims=True))
        bn._take(g.sum(axis=0, keepdims=True))
        return term

    return out, grad


def layer_norm(x, gain, bias):
    """Normalize each row to zero mean / unit variance, then apply affine."""
    out, grad = _layer_norm(x.value, gain, bias)
    xn = x.node
    return Tensor(out, (x, gain, bias), lambda g: xn._take(grad(g)))


def add_layer_norm(x, y, gain, bias):
    """layer_norm(add(x, y), gain, bias) as one node; the sum is not kept.
    Both x and y receive the sum's gradient: x a copy, y the array itself."""
    if x.shape != y.shape:
        raise ShapeError(f"add {x.shape} vs {y.shape}")
    out, grad = _layer_norm(x.value + y.value, gain, bias)
    xn, yn = x.node, y.node

    def push(g):
        term = grad(g)
        xn._take(np.array(term))
        yn._take(term)

    return Tensor(out, (x, y, gain, bias), push)


def concat_cols(tensors):
    widths = [t.shape[1] for t in tensors]
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise ShapeError("concat_cols row mismatch")
    offsets = np.cumsum([0] + widths)
    nodes = [t.node for t in tensors]

    def push(g):
        for n, a, b in zip(nodes, offsets[:-1], offsets[1:]):
            n._take(np.array(g[:, a:b]))

    return Tensor(np.concatenate([t.value for t in tensors], axis=1), tuple(tensors), push)


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
    xn, shape = x.node, x.shape

    def push(g):
        xn._take(scatter_add(_row_keys(idx, shape[1]), g, *shape))

    return Tensor(x.value[idx], (x,), push)


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
    xn = x.node

    def push(g):
        out_g = g / counts[:, None]
        xn._take(out_g[seg])

    return Tensor(sums / counts[:, None], (x,), push)


def group_max(x, groups):
    """Row-wise max of x over each index group; empty groups yield zero rows.

    Gradient routes to the argmax element of each group (first on ties).
    """
    n, width = len(groups), x.shape[1]
    vals = np.zeros((n, width))
    arg = np.full((n, width), -1, dtype=np.int64)
    for i, g in enumerate(groups):
        if len(g) == 0:
            continue
        block = x.value[np.asarray(g, dtype=np.int64)]
        a = block.argmax(axis=0)
        vals[i] = block[a, np.arange(width)]
        arg[i] = np.asarray(g, dtype=np.int64)[a]
    record_structure(arg)
    xn, shape = x.node, x.shape

    def push(g):
        routed = arg >= 0  # empty groups route nowhere
        keys = (arg * width + np.arange(width))[routed]
        xn._take(scatter_add(keys, g[routed], *shape))

    return Tensor(vals, (x,), push)


def _bce(p, pos_w, neg_w, lo, hi):
    """weighted_bce's value, and its gradient with respect to the array p as
    a function of the value's float gradient. Records the clamp."""
    pos_w = np.asarray(pos_w, dtype=np.float64)
    neg_w = np.asarray(neg_w, dtype=np.float64)
    inside = (p > lo) & (p < hi)
    record_structure(inside)
    c = np.clip(p, lo, hi)
    c1 = 1.0 - c
    # + 0.0 turns -0.0 terms into 0.0, as the chain's affine shift did
    value = (pos_w * np.log(c) + 0.0).sum() + (neg_w * np.log(c1) + 0.0).sum()

    def grad(g):
        full = np.full(p.shape, g)
        gc = full * pos_w / c
        gc -= full * neg_w / c1
        return gc * inside

    return value, grad


def weighted_bce(p, pos_w, neg_w, lo, hi):
    """1x1 sum(pos_w * log(c) + neg_w * log(1 - c)) with c = clip(p, lo, hi),
    as one node. The weights are constants broadcastable to p's shape.

    Each step mirrors the clip / log / affine / sum_all / add chain: the
    same expressions in the same order, and the same gradient order (the
    positive term reaches the clip first), so the bytes are those of the
    chain. Like clip, it records where the clamp is inactive."""
    value, grad = _bce(p.value, pos_w, neg_w, lo, hi)
    pn = p.node
    return Tensor([[value]], (p,), lambda g: pn._take(grad(g[0, 0])))


PROB_CLAMP = 1e-7  # mask probabilities enter the BCE clamped to [1e-7, 1 - 1e-7]


def set_criterion(probs, score, mask, rows, onehot, iou, gt, sizes, weights, eps):
    """A supervised layer's matched set loss as one node: the 1x1 weighted sum
    of (cls, score, bce, dice), and those four as floats. cls: mean NLL of
    probs' rows against `onehot`. Over the matched `rows`: score, mean squared
    error against `iou`; bce, mean size-weighted BCE against `gt` (0/1 rows);
    dice, mean soft Dice loss smoothed by eps. With no rows those are 0 and
    probs is the only parent. Repeats the arithmetic, gradient order, memory
    order and recorded clamps (class, then mask) of the chain it replaced."""
    k, n = probs.shape[0], len(rows)
    inside = (probs.value > 1e-12) & (probs.value < 1.0)
    record_structure(inside)
    c = np.clip(probs.value, 1e-12, 1.0)
    # + 0.0 turns a -0.0 into 0.0, as each affine shift of the chain did
    parts = [-1.0 / k * (onehot * np.log(c) + 0.0).sum() + 0.0, 0.0, 0.0, 0.0]
    if n:
        diff, m, w = score.value[rows] - iou[:, None], mask.value[rows], sizes / sizes.sum()
        bce, bce_grad = _bce(m, gt * w, (1.0 - gt) * w, PROB_CLAMP, 1.0 - PROB_CLAMP)
        num = (2.0 * sizes * gt * m + 0.0).sum(axis=1, keepdims=True) + eps
        den = (sizes * m + 0.0).sum(axis=1, keepdims=True) + ((gt @ sizes)[:, None] + eps)
        parts[1:] = [1.0 / n * (diff * diff).sum() + 0.0, -1.0 / n * bce + 0.0,
                     1.0 / n * (1.0 - num / den).sum() + 0.0]
    w_cls, w_score, w_bce, w_dice = weights
    total = (w_cls * parts[0] + w_score * parts[1]) + (w_bce * parts[2] + w_dice * parts[3]) + 0.0
    pn, sn, mn, mshape = probs.node, score.node, mask.node, mask.shape

    def push(g):
        g = g[0, 0]
        pn._take(np.full(c.shape, g * w_cls * (-1.0 / k)) * onehot / c * inside)
        if n:
            d = np.full((n, 1), g * w_score * (1.0 / n)) * diff
            sn._take(scatter_add(_row_keys(rows, 1), d + d, k, 1))
            gq = np.full((n, 1), g * w_dice * (1.0 / n)) * -1.0
            gm = gq / den * (2.0 * sizes * gt) + -gq * num / (den * den) * sizes
            gm += bce_grad(g * w_bce * (-1.0 / n))
            mn._take(scatter_add(_row_keys(rows, mshape[1]), gm, *mshape))

    return Tensor([[total]], (probs, score, mask) if n else (probs,), push), tuple(map(float, parts))


# ---------------------------------------------------------------------------
# parameters, linear layers, MLPs


class ParamStore:
    """Named parameter leaves plus flat-binary checkpoint I/O. A store made
    with draw=False creates zeros for `load` to replace, and draws nothing."""

    def __init__(self, draw=True):
        self.params = {}
        self.draw = draw

    def create(self, name, rows, cols, rng, fan_in=None, fill=None):
        """New leaf tensor. Default init is uniform(-b, b) with b = sqrt(1/fan_in);
        `fill` overrides it with a constant (used for norm gains and biases)."""
        if name in self.params:
            raise ContractError(f"duplicate parameter {name!r}")
        if not self.draw:
            value = np.zeros((rows, cols))
        elif fill is not None:
            value = np.full((rows, cols), float(fill))
        else:
            bound = np.sqrt(1.0 / (fan_in if fan_in is not None else max(rows, 1)))
            value = rng.uniform(-bound, bound, size=(rows, cols))
        t = Tensor(value, name=name)
        self.params[name] = t
        return t

    def __getitem__(self, name):
        return self.params[name]

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
                if name in arrays:
                    raise ParseError(f"checkpoint names parameter {name!r} twice")
                rows, cols = struct.unpack("<II", read_exactly(8))
                buf = read_exactly(rows * cols * 8)
                arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
                if not np.isfinite(arrays[name]).all():
                    raise ParseError(f"checkpoint parameter {name!r} holds a non-finite value")
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
    """y = x W + b, optionally followed by a ReLU, parameters registered
    under `prefix`."""

    def __init__(self, store, prefix, fan_in, fan_out, rng, relu=False):
        self.w = store.create(prefix + ".w", fan_in, fan_out, rng, fan_in=fan_in)
        self.b = store.create(prefix + ".b", 1, fan_out, rng, fan_in=fan_in)
        self.relu = relu

    def __call__(self, x):
        return linear(x, self.w, self.b, self.relu)


class MLP:
    """Stack of linear layers, each but the last followed by a ReLU."""

    def __init__(self, store, prefix, widths, rng):
        if len(widths) < 2:
            raise ContractError("MLP needs at least one layer")
        if any(w <= 0 for w in widths):
            raise ContractError("widths must be positive")
        n = len(widths) - 1
        self.layers = [
            Linear(store, f"{prefix}.{i}", widths[i], widths[i + 1], rng, relu=i < n - 1)
            for i in range(n)
        ]

    def __call__(self, x):
        for layer in self.layers:
            x = layer(x)
        return x
