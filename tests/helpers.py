"""Shared test utilities: finite-difference oracles, per-point loop oracles
for the vectorised I/O and sampling code, the composed oracles of the fused
autodiff ops and the small ops they are built of, the tape-keeping oracle of
`backward`, the loop oracles of the vectorised training step, the forms with
a fresh array for every step of the ops that now work in place, the
per-parameter oracle of the blocked Adam, and tiny scene and model
builders."""

import contextlib

import numpy as np
from numpy.lib.array_utils import byte_bounds

from sceneseg import aggregation, inference, kernels
from sceneseg import autodiff as ad
from sceneseg import scenegen, training
from sceneseg.errors import ContractError, ParseError, ShapeError, read_text


def finite_diff(f, x, h=1e-4):
    """Central-difference gradient of scalar f w.r.t. the array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f()
        x[idx] = orig - h
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def check_param_grad(loss_fn, tensor, entries, h=1e-4, tol=1e-3, structure_fn=None):
    """Compare reverse-mode grads of selected entries against central differences.

    loss_fn() must rebuild the graph and return the loss Tensor. Entries where
    the discrete structure (structure_fn) changes under the perturbation are
    skipped: the loss is not differentiable there. Returns the number checked.
    """
    loss = loss_fn()
    ad.backward(loss)
    grad = tensor.grad if tensor.grad is not None else np.zeros(tensor.shape)
    grad = grad.copy()
    checked = 0
    for idx in entries:
        orig = tensor.value[idx]
        base_struct = structure_fn() if structure_fn else None

        tensor.value[idx] = orig + h
        hi = float(loss_fn().value[0, 0])
        s_hi = structure_fn() if structure_fn else None
        tensor.value[idx] = orig - h
        lo = float(loss_fn().value[0, 0])
        s_lo = structure_fn() if structure_fn else None
        tensor.value[idx] = orig

        if structure_fn and (s_hi != base_struct or s_lo != base_struct):
            continue
        fd = (hi - lo) / (2 * h)
        g = grad[idx]
        err = abs(fd - g) / max(abs(fd), abs(g), 1e-6)
        assert err < tol, f"grad mismatch at {tensor.name}{idx}: ad={g} fd={fd} rel={err}"
        checked += 1
    return checked


# the smallest CLI configuration that runs every stage; 10 training steps
SMALL_CFG = [
    "n_scenes=2",
    "n_objects=2",
    "n_points=600",
    "room_extent=3.0",
    "backbone.base_voxel=0.3",
    "backbone.channels=8",
    "backbone.levels=1",
    "superpoints.coarse_size=0.6",
    "msa.cap=8",
    "msa.k_cand=6",
    "msa.width=8",
    "decoder.k=4",
    "decoder.d=16",
    "decoder.layers=2",
    "decoder.heads=4",
    "train.steps=10",
]


def micro_scene(seed=3, n_points=120, n_objects=1):
    spec = scenegen.SceneSpec(n_objects=n_objects, n_points=n_points, room_extent=3.0)
    return scenegen.generate_scene(seed, spec)


def micro_model(seed=0, k=4, d=16, layers=2):
    """Smallest config that still exercises every sub-block."""
    from sceneseg import aggregation, backbone, decoder, model

    cfg = model.ModelConfig(
        backbone=backbone.BackboneConfig(base_voxel=0.3, channels=8, levels=1),
        agg=aggregation.AggregationConfig(cap=8, k_cand=6, width=8),
        dec=decoder.DecoderConfig(k=k, d=d, layers=layers, heads=4),
        coarse_size=0.6,
        seed=seed,
    )
    return model.SegModel(cfg)


@contextlib.contextmanager
def traced(sink):
    """Set the autodiff sink `sink` ("structure_trace" or "attention_trace")
    to a fresh list for the block, yield it, and reset the sink to None."""
    trace = []
    setattr(ad, sink, trace)
    try:
        yield trace
    finally:
        setattr(ad, sink, None)


def forward_tensors(out):
    """The foreground and every layer's prediction tensors of a ForwardResult."""
    return [out.foreground] + [t for p in out.preds for t in vars(p).values()]


# ---------------------------------------------------------------------------
# loop oracles: the straightforward per-point forms of vectorised code


def rle_encode_loop(mask):
    """inference._rle_encode, one point at a time."""
    mask = np.asarray(mask, dtype=bool)
    runs = []
    cur, count = False, 0
    for v in mask:
        if v == cur:
            count += 1
        else:
            runs.append(count)
            cur, count = v, 1
    runs.append(count)
    return runs


def rle_decode_loop(runs, n):
    """inference._rle_decode, one run at a time."""
    out = np.zeros(n, dtype=bool)
    pos, cur = 0, False
    for r in runs:
        if r < 0:
            raise ParseError(f"negative run length {r}")
        if cur:
            out[pos : pos + r] = True
        pos += r
        cur = not cur
    if pos != n:
        raise ParseError(f"run lengths sum to {pos}, expected {n}")
    return out


def read_predictions_loop(path, n_class):
    """inference.read_predictions, converting one run at a time with int()."""
    lines = read_text(path).splitlines()
    header = lines[0].rsplit(None, 2) if lines else []
    if len(header) != 3 or not header[0].startswith("scene "):
        raise ParseError("missing scene header", line=1)
    scene_id, n_points, n_sp = header[0].removeprefix("scene "), header[1], header[2]
    try:
        n_points, n_sp = int(n_points), int(n_sp)
    except ValueError:
        raise ParseError("non-integer point or superpoint count", line=1) from None
    instances = []
    for ln, text in enumerate(lines[1:], start=2):
        parts = text.split()
        if len(parts) < 4 or parts[0] != "instance":
            raise ParseError("bad instance line", line=ln)
        try:
            class_id, score = int(parts[1]), float(parts[2])
            runs = [int(v) for v in parts[3:]]
        except ValueError:
            raise ParseError("non-numeric instance value", line=ln) from None
        if class_id not in range(n_class) or score in (np.inf, -np.inf) or score != score:
            raise ParseError("class out of range or score not finite", line=ln)
        instances.append(
            inference.InstanceResult(class_id, score, None, rle_decode_loop(runs, n_points))
        )
    return scene_id, n_sp, instances


def box_surface_loop(rng, size, n):
    """scenegen._sample_surface's box branch, one point at a time."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, -0.5, 0.5)
    for i in range(n):
        rest = [a for a in range(3) if a != axis[i]]
        pts[i, axis[i]] = sign[i]
        pts[i, rest[0]] = uv[i, 0]
        pts[i, rest[1]] = uv[i, 1]
    return pts * size


def write_ply_loop(path, scene, color_override=None):
    """scenegen.write_ply, one f-string per point."""
    cols = color_override if color_override is not None else scene.colors
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {scene.n_points}",
        "property float x",
        "property float y",
        "property float z",
        "property float red",
        "property float green",
        "property float blue",
        "property int semantic",
        "property int instance",
        f"comment n_class {scene.n_class}",
        "end_header",
    ]
    for p, c, s, i in zip(scene.positions, cols, scene.semantic, scene.instance):
        lines.append(
            f"{p[0]:.8f} {p[1]:.8f} {p[2]:.8f} {c[0]:.8f} {c[1]:.8f} {c[2]:.8f} {s} {i}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_labels_loop(path, scene):
    """scenegen.write_labels, one write per point."""
    with open(path, "w") as fh:
        fh.write(f"n_class {scene.n_class}\n")
        for s, inst in zip(scene.semantic, scene.instance):
            fh.write(f"{s} {inst}\n")


def read_ply_loop(path):
    """scenegen.read_ply's parse, one line at a time (no validation)."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != "ply":
        raise ParseError("not a PLY file", line=1)
    n_vertex = None
    n_class = 3
    props = []
    body_at = None
    for ln, text in enumerate(raw[1:], start=2):
        t = text.strip()
        if t.startswith("element vertex"):
            n_vertex = int(t.split()[-1])
        elif t.startswith("property"):
            props.append(t.split()[-1])
        elif t.startswith("comment n_class"):
            n_class = int(t.split()[-1])
        elif t == "end_header":
            body_at = ln
            break
    has_labels = "semantic" in props and "instance" in props
    body = raw[body_at : body_at + n_vertex]
    pts = np.empty((n_vertex, 6))
    sem = np.zeros(n_vertex, dtype=np.int64)
    inst = np.full(n_vertex, scenegen.FLOOR_INSTANCE, dtype=np.int64)
    for i, text in enumerate(body):
        parts = text.split()
        if len(parts) != len(props):
            raise ParseError(
                f"expected {len(props)} values, found {len(parts)}", line=body_at + 1 + i
            )
        try:
            pts[i] = [float(v) for v in parts[:6]]
            if has_labels:
                sem[i] = int(parts[props.index("semantic")])
                inst[i] = int(parts[props.index("instance")])
        except ValueError:
            raise ParseError("non-numeric vertex value", line=body_at + 1 + i)
    return scenegen.Scene(points=pts, semantic=sem, instance=inst, n_class=n_class)


def ball_of(positions, pick, rq):
    """N bool: the points within rq of the pick, and always the pick itself."""
    ball = kernels.min_sq_dist_to_set(positions, np.array([pick], dtype=np.int64)) < rq * rq
    ball[pick] = True
    return ball


def coverage_of(positions, indices, rq):
    """n_cand x N bool: the rq-ball membership of each listed point."""
    balls = [ball_of(positions, i, rq) for i in indices]
    return np.array(balls) if balls else np.zeros((0, len(positions)), dtype=bool)


def candidate_sample_quadratic(positions, f, beta, k_cand, rq):
    """aggregation.iterative_candidate_sample recomputing, at every pick, the
    distance to all prior picks and the eligibility from the whole coverage.
    Returns the picks and their coverage (as coverage_of gives it)."""
    positions = np.asarray(positions, dtype=np.float64)
    f = np.asarray(f).ravel()
    indices = []
    coverage = np.zeros((0, len(f)), dtype=bool)
    for _ in range(k_cand):
        ok = aggregation.eligible_points(f, beta) & ~coverage.any(axis=0)
        if not ok.any():
            break
        if not indices:
            pick = int(np.argmax(np.where(ok, f, -np.inf)))
        else:
            d = kernels.min_sq_dist_to_set(positions, np.array(indices, dtype=np.int64))
            pick = int(np.argmax(np.where(ok, d, -np.inf)))
        indices.append(pick)
        coverage = np.concatenate([coverage, ball_of(positions, pick, rq)[None]], axis=0)
    return np.array(indices, dtype=np.int64), coverage


# ---------------------------------------------------------------------------
# the per-point forms that make a fresh array for every step: the oracles of
# the canonical order, the distance rows and the candidate sampler


def lexsort_order(points):
    """Backbone's canonical order as one lexsort over every point column."""
    return np.lexsort(points.T[::-1])


def sq_dists_with_temporaries(positions, center):
    """kernels._sq_dists with eight fresh arrays."""
    dx = positions[:, 0] - center[0]
    dy = positions[:, 1] - center[1]
    dz = positions[:, 2] - center[2]
    return dx * dx + dy * dy + dz * dz


def min_sq_dist_from_inf(positions, indices):
    """kernels.min_sq_dist_to_set with its running minimum started at inf."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    mind = np.full(positions.shape[0], np.inf)
    for c in np.asarray(indices, dtype=np.int64):
        np.minimum(mind, sq_dists_with_temporaries(positions, positions[c]), out=mind)
    return mind


def candidate_sample_where(positions, f, beta, k_cand, rq):
    """aggregation.iterative_candidate_sample masking a fresh score array
    with np.where at every pick, on the distance rows above. Returns the picks
    and their coverage (as coverage_of gives it)."""
    positions = np.asarray(positions, dtype=np.float64)
    f = np.asarray(f).ravel()
    ok = aggregation.eligible_points(f, beta)
    nearest = None
    indices, balls = [], []
    for _ in range(k_cand):
        if not ok.any():
            break
        pick = int(np.argmax(np.where(ok, f if nearest is None else nearest, -np.inf)))
        d = min_sq_dist_from_inf(positions, np.array([pick], dtype=np.int64))
        nearest = d if nearest is None else np.minimum(nearest, d)
        ball = d < rq * rq
        ball[pick] = True
        ok &= ~ball
        indices.append(pick)
        balls.append(ball)
    coverage = np.array(balls) if balls else np.zeros((0, len(f)), dtype=bool)
    return np.array(indices, dtype=np.int64), coverage


# ---------------------------------------------------------------------------
# oracles of the fused attention block and residual norm: the chains they
# replaced, the stacked attention op of those chains, its per-head composed
# chain, and the stacked op with a fresh array for every step


def composed_attention_block(z, f, q, k, v, out, heads, mask=None):
    """ad.attention_block as the chain it replaced: three `linear`s, the
    stacked `attention` node and the out `linear`."""
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = q, k, v, out
    a = attention(ad.linear(z, wq, bq), ad.linear(f, wk, bk), ad.linear(f, wv, bv), heads, mask)
    return ad.linear(a, wo, bo)


def composed_add_layer_norm(x, y, gain, bias):
    """ad.add_layer_norm as the add node and the layer_norm node it replaced."""
    return ad.layer_norm(ad.add(x, y), gain, bias)


def attention(q, k, v, heads, mask=None):
    """The attention node of the chain ad.attention_block replaced: heads
    of q's rows over k's and v's (K x d, M x d, M x d) as stacked matmuls
    under a hand-written backward, bit-identical to composed_attention. With
    zero context rows the output is a zero constant; a masked call appends
    its heads x K x M weights to ad.attention_trace when that is a list."""
    rows, d = q.shape
    n = k.shape[0]
    if heads < 1 or d % heads or k.shape[1] != d or v.shape != k.shape:
        raise ShapeError(f"attention q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    if mask is not None and np.shape(mask) != (rows, n):
        raise ShapeError(f"attention mask {np.shape(mask)} for {rows} x {n} logits")
    if n == 0:
        return ad.constant(np.zeros((rows, d)))
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):  # n x d -> heads x n x dh, each head's block C-contiguous
        return np.ascontiguousarray(x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2))

    def merge(x):  # heads x n x dh -> n x d, C-contiguous like concat_cols' output
        return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(x.shape[1], d))

    qh, vh = split(q.value), split(v.value)
    kt = np.ascontiguousarray(k.value.reshape(n, heads, dh).transpose(1, 2, 0))  # heads x dh x n
    # the softmax runs in place in the logits: s = exp(z - max) / sum
    s = qh @ kt
    s *= scale
    if mask is not None:
        s += mask
    s -= s.max(axis=2, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=2, keepdims=True)
    if mask is not None and ad.attention_trace is not None:
        ad.attention_trace.append(s.copy())

    def push(g):
        g = split(g)
        gz = g @ vh.transpose(0, 2, 1)  # gs, then s * (gs - sum(gs * s)) * scale
        inner = (gz * s).sum(axis=2, keepdims=True)
        gz -= inner
        gz *= s
        gz *= scale
        q._take(merge(gz @ kt.transpose(0, 2, 1)))
        k._take(merge((qh.transpose(0, 2, 1) @ gz).transpose(0, 2, 1)))
        v._take(merge(s.transpose(0, 2, 1) @ g))

    return ad.Tensor(merge(s @ vh), (q, k, v), push)


def attention_with_temporaries(q, k, v, heads, mask=None):
    """attention computing each softmax and backward step into a new
    array, with k copied twice into its heads x dh x M layout."""
    rows, d = q.shape
    if k.shape[0] == 0:
        return ad.constant(np.zeros((rows, d)))
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(x):
        return np.ascontiguousarray(x.reshape(x.shape[0], heads, dh).transpose(1, 0, 2))

    def merge(x):
        return np.ascontiguousarray(x.transpose(1, 0, 2).reshape(x.shape[1], d))

    qh, vh = split(q.value), split(v.value)
    kt = np.ascontiguousarray(split(k.value).transpose(0, 2, 1))
    z = (qh @ kt) * scale
    if mask is not None:
        z = z + mask
    e = np.exp(z - z.max(axis=2, keepdims=True))
    s = e / e.sum(axis=2, keepdims=True)
    if mask is not None and ad.attention_trace is not None:
        ad.attention_trace.append(s.copy())

    def push(g):
        g = split(g)
        gs = g @ vh.transpose(0, 2, 1)
        gz = s * (gs - (gs * s).sum(axis=2, keepdims=True)) * scale
        q._take(merge(gz @ kt.transpose(0, 2, 1)))
        k._take(merge((qh.transpose(0, 2, 1) @ gz).transpose(0, 2, 1)))
        v._take(merge(s.transpose(0, 2, 1) @ g))

    return ad.Tensor(merge(s @ vh), (q, k, v), push)


def layer_norm_with_temporaries(x, gain, bias):
    """ad.layer_norm computing every step into a new array."""
    mu = x.value.mean(axis=1, keepdims=True)
    var = ((x.value - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = (x.value - mu) * inv

    def push(g):
        dxh = g * gain.value
        term = dxh - dxh.mean(axis=1, keepdims=True) - xhat * (dxh * xhat).mean(axis=1, keepdims=True)
        x._take(inv * term)
        gain._take((g * xhat).sum(axis=0, keepdims=True))
        bias._take(g.sum(axis=0, keepdims=True))

    return ad.Tensor(xhat * gain.value + bias.value, (x, gain, bias), push)



def slice_cols(x, a, b):
    """Columns a:b of x as a tape node; the gradient is zero-padded back."""

    def push(g):
        gx = np.zeros_like(x.value)
        gx[:, a:b] = g
        x._take(gx)

    return ad.Tensor(x.value[:, a:b].copy(), (x,), push)


def composed_attention(q, k, v, heads, mask=None):
    """attention built from per-head slice / transpose / matmul / affine /
    softmax_rows / matmul nodes joined by concat_cols; the mask enters as
    the affine's shift."""
    if k.shape[0] == 0:
        return ad.constant(np.zeros(q.shape))
    dh = q.shape[1] // heads
    outs, weights = [], []
    for h in range(heads):
        a, b = h * dh, (h + 1) * dh
        qh, kh, vh = slice_cols(q, a, b), slice_cols(k, a, b), slice_cols(v, a, b)
        logits = ad.affine(
            ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(dh), 0.0 if mask is None else mask
        )
        w = ad.softmax_rows(logits)
        weights.append(w.value)
        outs.append(ad.matmul(w, vh))
    if mask is not None and ad.attention_trace is not None:
        ad.attention_trace.append(np.stack(weights))
    return ad.concat_cols(outs)


# ---------------------------------------------------------------------------
# composed oracles of the fused linear, BCE and set-criterion ops, the small
# ops they are built of, the tape-keeping backward and the copying hand-off


def sub(a, b):
    """a - b as a tape node. Its push passes the incoming gradient on to a,
    so it copies it (the ownership rule of sceneseg.autodiff)."""
    if a.shape != b.shape:
        raise ShapeError(f"sub {a.shape} vs {b.shape}")

    def push(g):
        a._take(np.array(g))
        b._take(-g)

    return ad.Tensor(a.value - b.value, (a, b), push)


def add_bias(x, b):
    """Add a 1xC bias row to every row of x; x's gradient is copied, as in sub."""
    if b.shape != (1, x.shape[1]):
        raise ShapeError(f"bias {b.shape} for input {x.shape}")

    def push(g):
        x._take(np.array(g))
        b._take(g.sum(axis=0, keepdims=True))

    return ad.Tensor(x.value + b.value, (x, b), push)


def relu(x):
    """max(x, 0) as a tape node. Records the x > 0 pattern, as ad.linear's
    ReLU does."""
    ad.record_structure(x.value > 0.0)
    return ad.Tensor(np.maximum(x.value, 0.0), (x,), lambda g: x._take(g * (x.value > 0.0)))


def composed_linear(x, w, b, relu_after=False):
    """ad.linear as matmul then add_bias, and then relu if asked."""
    y = add_bias(ad.matmul(x, w), b)
    return relu(y) if relu_after else y


def composed_linear_layer(layer, x):
    """ad.Linear's call as a linear node and, for a ReLU layer, a relu node."""
    y = ad.linear(x, layer.w, layer.b)
    return relu(y) if layer.relu else y


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul {a.shape} vs {b.shape}")

    def push(g):
        a._take(g * b.value)
        b._take(g * a.value)

    return ad.Tensor(a.value * b.value, (a, b), push)


def div(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"div {a.shape} vs {b.shape}")

    def push(g):
        a._take(g / b.value)
        b._take(-g * a.value / (b.value * b.value))

    return ad.Tensor(a.value / b.value, (a, b), push)


def log(x):
    return ad.Tensor(np.log(x.value), (x,), lambda g: x._take(g / x.value))


def clip(x, lo, hi):
    """Clamp values; gradient is zero where the clamp is active. Records
    where it is inactive, as the fused clamps do."""
    inside = (x.value > lo) & (x.value < hi)
    ad.record_structure(inside)
    return ad.Tensor(np.clip(x.value, lo, hi), (x,), lambda g: x._take(g * inside))


def sum_all(x):
    return ad.Tensor([[x.value.sum()]], (x,), lambda g: x._take(np.full(x.shape, g[0, 0])))


def sum_rows(x):
    """Column vector of per-row sums. Its push hands on a read-only
    broadcast of its gradient, so it copies it."""
    push = lambda g: x._take(np.array(np.broadcast_to(g, x.shape)))
    return ad.Tensor(x.value.sum(axis=1, keepdims=True), (x,), push)


def mean_all(x):
    return ad.affine(sum_all(x), 1.0 / x.value.size)


def composed_weighted_bce(p, pos_w, neg_w, lo, hi):
    """ad.weighted_bce as clip / log / affine / sum_all / add nodes."""
    c = clip(p, lo, hi)
    pos = ad.affine(log(c), scale=pos_w)
    neg = ad.affine(log(ad.affine(c, -1.0, 1.0)), scale=neg_w)
    return ad.add(sum_all(pos), sum_all(neg))


def composed_dice(mask, rows, gt, sizes, eps):
    """The Dice term of ad.set_criterion as gather_rows / affine / sum_rows /
    div / mean_all nodes."""
    p = ad.gather_rows(mask, rows)
    num = ad.affine(sum_rows(ad.affine(p, scale=2.0 * sizes * gt)), 1.0, eps)
    den = ad.affine(sum_rows(ad.affine(p, scale=sizes)), 1.0, (gt @ sizes)[:, None] + eps)
    return mean_all(ad.affine(div(num, den), -1.0, 1.0))


def composed_set_criterion(
    probs, score, mask, rows, onehot, iou, gt, sizes, weights, eps, dice=composed_dice
):
    """ad.set_criterion as the chain it replaced: the classification, score,
    BCE and Dice terms of small nodes, each scaled by its weight in an affine
    node and joined by adds. `dice` builds the Dice term."""
    k, n = probs.shape[0], len(rows)
    l_cls = ad.affine(sum_all(ad.affine(log(clip(probs, 1e-12, 1.0)), scale=onehot)), -1.0 / k)
    if n:
        diff = ad.affine(ad.gather_rows(score, rows), 1.0, -iou[:, None])
        l_score = mean_all(mul(diff, diff))
        w = sizes / sizes.sum()
        p = ad.gather_rows(mask, rows)
        bce = ad.weighted_bce(p, gt * w, (1.0 - gt) * w, ad.PROB_CLAMP, 1.0 - ad.PROB_CLAMP)
        l_bce = ad.affine(bce, -1.0 / n)
        l_dice = dice(mask, rows, gt, sizes, eps)
    else:
        l_score = l_bce = l_dice = ad.constant([[0.0]])
    parts = (l_cls, l_score, l_bce, l_dice)
    scaled = [ad.affine(t, w) for t, w in zip(parts, weights)]
    total = ad.add(ad.add(scaled[0], scaled[1]), ad.add(scaled[2], scaled[3]))
    return total, tuple(float(t.value[0, 0]) for t in parts)


def nodes_of(*tensors):
    """The tape nodes of the given tensors, as an op's node holds its parents."""
    return tuple(t.node for t in tensors)


def shared_grads(nodes):
    """Pairs of distinct nodes whose .grad arrays share memory."""
    spans = sorted(
        (byte_bounds(n.grad), i) for i, n in enumerate(nodes) if n.grad is not None and n.grad.size
    )
    pairs = []
    for k, ((lo, hi), i) in enumerate(spans):
        for (lo2, _), j in spans[k + 1 :]:
            if lo2 >= hi:
                break
            if np.shares_memory(nodes[i].grad, nodes[j].grad):
                pairs.append((nodes[i], nodes[j]))
    return pairs


def backward_keep_tape(loss):
    """ad.backward without releasing the tape: every node keeps its parents,
    its push and its .grad after the walk. Same arithmetic, same push order."""
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be scalar (1x1), got {loss.shape}")
    order = ad._toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._push is not None and node.grad is not None:
            node._push(node.grad)


def take_copy(node, g):
    """Node._take that keeps a copy of g, never g itself: a stand-in for
    `_take` that shows a kept gradient gives the bytes of a copied one."""
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


# ---------------------------------------------------------------------------
# oracles of the vectorised training step


def scatter_add_at(keys, weights, n, c):
    """ad.scatter_add through np.add.at into zeros."""
    out = np.zeros(n * c)
    np.add.at(out, keys.ravel(), weights.ravel())
    return out.reshape(n, c)


def unique_rows_np(cells):
    """scenegen.unique_rows through np.unique along axis 0."""
    coords, inverse = np.unique(cells, axis=0, return_inverse=True)
    return coords, inverse.ravel()


def weighted_bce_rows(pred_rows, gt_rows, weights):
    """Per-row size-weighted BCE between probabilities and binary targets."""
    p = np.clip(pred_rows, ad.PROB_CLAMP, 1.0 - ad.PROB_CLAMP)
    per = -(gt_rows * np.log(p) + (1.0 - gt_rows) * np.log(1.0 - p))
    return per @ weights


def weighted_dice_rows(pred_rows, gt_rows, sizes, eps=training.DICE_EPS):
    num = 2.0 * (pred_rows * gt_rows) @ sizes + eps
    den = pred_rows @ sizes + gt_rows @ sizes + eps
    return 1.0 - num / den


def match_of(pairs):
    """training.hungarian's (query_idx, gt_idx) int64 arrays from
    (query index, gt index) pairs, query indices ascending."""
    q, g = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return q, g


def pairs_of(match):
    """[(query index, gt index), ...] as Python ints from hungarian's pair of
    arrays; its repr is what training.total_loss hashes into `structure`."""
    q, g = match
    return list(zip(q.tolist(), g.tolist()))


def match_cost_loop(pred, gt, sizes, lambda_cls=1.0, lambda_mask=1.0):
    """training.match_cost, one ground-truth column at a time."""
    probs = pred.class_probs.value
    masks = pred.sp_mask.value
    k_gt = len(gt.instance_classes)
    sizes = np.asarray(sizes, dtype=np.float64)
    w = sizes / sizes.sum()
    cost = np.empty((len(probs), k_gt))
    for j in range(k_gt):
        g = gt.superpoint_masks[j].astype(np.float64)
        nll = -np.log(np.maximum(probs[:, gt.instance_classes[j]], 1e-12))
        cost[:, j] = lambda_cls * nll + lambda_mask * (
            weighted_bce_rows(masks, g, w) + weighted_dice_rows(masks, g, sizes)
        )
    return cost


def iou_targets_loop(masks, rows, gt, sizes):
    """training.set_loss's IoU targets, one matched pair at a time; gt holds
    the matched gt masks as booleans."""
    out = np.zeros(len(rows))
    for n, qi in enumerate(rows):
        p = masks[qi] > 0.5
        union = sizes[p | gt[n]].sum()
        out[n] = sizes[p & gt[n]].sum() / union if union > 0 else 0.0
    return out


def dice_loss_per_pair(mask, rows, gt, sizes, eps):
    """composed_dice as one gathered row and one chain of nodes per matched
    pair, summed by a chain of adds."""
    p = ad.gather_rows(mask, rows)
    terms = []
    for n in range(len(rows)):
        row = ad.gather_rows(p, [n])
        num = ad.affine(sum_all(ad.affine(row, scale=2.0 * sizes * gt[n])), 1.0, eps)
        den = ad.affine(sum_all(ad.affine(row, scale=sizes)), 1.0, (gt[n] @ sizes) + eps)
        terms.append(ad.affine(div(num, den), -1.0, 1.0))
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return ad.affine(acc, 1.0 / len(terms))


def loop_set_criterion(probs, score, mask, rows, onehot, iou, gt, sizes, weights, eps):
    """composed_set_criterion on IoU targets from iou_targets_loop, with the
    Dice term from dice_loss_per_pair."""
    iou = iou_targets_loop(mask.value, rows, gt > 0.5, sizes)
    return composed_set_criterion(
        probs, score, mask, rows, onehot, iou, gt, sizes, weights, eps, dice=dice_loss_per_pair
    )


class PerParameterAdam:
    """training.Adam as one fresh-array update per parameter, with its own
    moment arrays: the blocked, in-place Adam's oracle."""

    def __init__(self, store, cfg):
        self.store = store
        self.cfg = cfg
        self.m = {n: np.zeros(store[n].shape) for n in store.names()}
        self.v = {n: np.zeros(store[n].shape) for n in store.names()}
        self.t = 0

    def step(self):
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        self.t += 1
        b1c = 1.0 - b1**self.t
        b2c = 1.0 - b2**self.t
        for name in self.store.names():
            g = self.store.grad_of(name)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            self.store[name].value -= self.cfg.lr * mhat / (np.sqrt(vhat) + eps)
