"""Shared test utilities: finite-difference oracles, per-point loop oracles
for the vectorised I/O and sampling code, the composed oracle of the fused
attention op, the loop oracles of the vectorised training step, and tiny
scene and model builders."""

import numpy as np

from sceneseg import aggregation, inference, kernels
from sceneseg import autodiff as ad
from sceneseg import scenegen, training
from sceneseg.errors import ParseError, read_text


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


def read_predictions_loop(path):
    """inference.read_predictions, converting one run at a time with int()."""
    lines = read_text(path).splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 4 or header[0] != "scene":
        raise ParseError("missing scene header", line=1)
    _, scene_id, n_points, n_sp = header
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


def candidate_sample_quadratic(positions, f, beta, k_cand, rq):
    """aggregation.iterative_candidate_sample recomputing, at every pick, the
    distance to all prior picks and the eligibility from the whole coverage."""
    positions = np.asarray(positions, dtype=np.float64)
    f = np.asarray(f).ravel()
    indices = []
    coverage = np.zeros((0, len(f)), dtype=bool)
    for _ in range(k_cand):
        sofar = aggregation.CandidateSet(np.array(indices, dtype=np.int64), coverage)
        ok = aggregation.eligible_points(f, sofar, beta)
        if not ok.any():
            break
        if not indices:
            pick = int(np.argmax(np.where(ok, f, -np.inf)))
        else:
            d = kernels.min_sq_dist_to_set(positions, np.array(indices, dtype=np.int64))
            pick = int(np.argmax(np.where(ok, d, -np.inf)))
        indices.append(pick)
        ball = kernels.min_sq_dist_to_set(positions, np.array([pick], dtype=np.int64)) < rq * rq
        coverage = np.concatenate([coverage, ball[None]], axis=0)
    return aggregation.CandidateSet(indices=np.array(indices, dtype=np.int64), coverage=coverage)


# ---------------------------------------------------------------------------
# composed oracle of the fused attention op


def slice_cols(x, a, b):
    """Columns a:b of x as a tape node; the gradient is zero-padded back."""
    out = ad.Tensor(x.value[:, a:b].copy(), (x,))

    def push(g):
        gx = np.zeros_like(x.value)
        gx[:, a:b] = g
        x._accumulate(gx)

    out._push = push
    return out


def composed_attention(q, k, v, heads, mask=None, capture=None):
    """ad.attention built from per-head slice / transpose / matmul / affine /
    softmax_rows / matmul nodes joined by concat_cols."""
    if k.shape[0] == 0:
        return ad.constant(np.zeros(q.shape))
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        a, b = h * dh, (h + 1) * dh
        qh, kh, vh = slice_cols(q, a, b), slice_cols(k, a, b), slice_cols(v, a, b)
        logits = ad.affine(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(dh))
        w = ad.softmax_rows(logits, extra=mask)
        if capture is not None:
            capture.append(w.value.copy())
        outs.append(ad.matmul(w, vh))
    return ad.concat_cols(outs)


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
    p = np.clip(pred_rows, training.PROB_CLAMP, 1.0 - training.PROB_CLAMP)
    per = -(gt_rows * np.log(p) + (1.0 - gt_rows) * np.log(1.0 - p))
    return per @ weights


def weighted_dice_rows(pred_rows, gt_rows, sizes, eps=training.DICE_EPS):
    num = 2.0 * (pred_rows * gt_rows) @ sizes + eps
    den = pred_rows @ sizes + gt_rows @ sizes + eps
    return 1.0 - num / den


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


def dice_loss_per_pair(pred, assignment, gt, sizes, eps=training.DICE_EPS):
    """training.dice_loss as one gathered row and one chain of nodes per
    matched pair, summed by a chain of adds."""
    if not assignment.pairs:
        return ad.constant([[0.0]])
    sizes = np.asarray(sizes, dtype=np.float64)
    p = ad.gather_rows(pred.sp_mask, assignment.query_idx)
    g = gt.superpoint_masks[assignment.gt_idx].astype(np.float64)
    terms = []
    for n in range(len(assignment.pairs)):
        row = ad.gather_rows(p, [n])
        num = ad.affine(ad.sum_all(ad.affine(row, scale=2.0 * sizes * g[n])), 1.0, eps)
        den = ad.affine(ad.sum_all(ad.affine(row, scale=sizes)), 1.0, (g[n] @ sizes) + eps)
        terms.append(ad.affine(ad.div(num, den), -1.0, 1.0))
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return ad.affine(acc, 1.0 / len(terms))
