"""Shared test utilities: finite-difference oracles, per-point loop oracles
for the vectorised I/O and sampling code, and tiny scene builders."""

import numpy as np

from sceneseg import aggregation, kernels
from sceneseg import autodiff as ad
from sceneseg import scenegen
from sceneseg.errors import ParseError


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
