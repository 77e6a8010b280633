"""The benchmark's own computations, made apart from sceneseg's code paths.

Every output check compares the program against one of these: the training
objective, the ScanNet-style AP evaluator, the prediction-file and PLY
readers, brute-force sphere queries and the candidate-sampling rule. They are
written for clarity, not speed, and run after the timed loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

PROB_CLAMP = 1e-7  # probabilities inside BCE terms are clipped to [c, 1 - c]
CLASS_FLOOR = 1e-12  # class probabilities are floored before the log
DICE_EPS = 1.0
CELL = 0.25  # superpoint cell edge (m), the default superpoints.coarse_size
AP_THRESHOLDS = [round(0.50 + 0.05 * i, 2) for i in range(10)]


# ---------------------------------------------------------------------------
# scenes and partitions


def read_ply_labels(path):
    """Positions, semantic and instance labels of an ASCII sceneseg PLY."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    props, n = [], None
    for at, line in enumerate(lines):
        words = line.split()
        if words[:2] == ["element", "vertex"]:
            n = int(words[2])
        elif words[:1] == ["property"]:
            props.append(words[-1])
        elif line.strip() == "end_header":
            body = lines[at + 1 : at + 1 + n]
            break
    else:
        raise ValueError(f"{path}: no end_header")
    if len(body) != n:
        raise ValueError(f"{path}: {len(body)} vertex lines, header says {n}")
    table = np.array([row.split() for row in body], dtype=np.float64)
    pos = table[:, [props.index(c) for c in ("x", "y", "z")]]
    sem = table[:, props.index("semantic")].astype(np.int64)
    inst = table[:, props.index("instance")].astype(np.int64)
    return pos, sem, inst


def cells(positions, edge=CELL):
    """Superpoint id of each point (occupied cells in lexicographic order) and
    the point count of each cell."""
    keys = np.floor(np.asarray(positions) / edge).astype(np.int64)
    _, ids, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    return ids.ravel(), sizes


def gt_instances(sem, inst):
    """Class and point mask of each ground-truth instance (ids 0..K-1)."""
    ids = sorted(int(k) for k in set(inst.tolist()) if k >= 0)
    if ids != list(range(len(ids))):
        raise ValueError("instance ids are not contiguous from 0")
    masks = [inst == k for k in ids]
    return [int(sem[m][0]) for m in masks], masks


def gt_superpoint_masks(point_masks, ids, sizes):
    """A cell belongs to an instance when more than half of its points do."""
    return np.array(
        [np.bincount(ids[m], minlength=len(sizes)) * 2 > sizes for m in point_masks],
        dtype=bool,
    ).reshape(len(point_masks), len(sizes))


# ---------------------------------------------------------------------------
# training objective


def _bce(p, g, w):
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -float(np.sum(w * (g * np.log(p) + (1.0 - g) * np.log(1.0 - p))))


def _dice(p, g, sizes):
    return 1.0 - (2.0 * np.sum(sizes * p * g) + DICE_EPS) / (
        np.sum(sizes * p) + np.sum(sizes * g) + DICE_EPS
    )


def layer_loss(probs, iou_score, sp_mask, classes, sp_gt, sizes, tc):
    """Hungarian-matched loss of one decoder stage.

    probs: K x (C+1) class distribution (last slot "no instance"), iou_score:
    K, sp_mask: K x M superpoint probabilities, classes / sp_gt: ground-truth
    class and superpoint mask per instance, sizes: points per superpoint.
    Returns (total, matched (query, gt) pairs)."""
    k, n_class = probs.shape[0], probs.shape[1] - 1
    sizes = sizes.astype(np.float64)
    w = sizes / sizes.sum()
    g = sp_gt.astype(np.float64)
    pairs = []
    if len(classes):
        cost = np.zeros((k, len(classes)))
        for i in range(k):
            for j, c in enumerate(classes):
                nll = -math.log(max(probs[i, c], CLASS_FLOOR))
                cost[i, j] = tc.lambda_cls * nll + tc.lambda_mask * (
                    _bce(sp_mask[i], g[j], w) + _dice(sp_mask[i], g[j], sizes)
                )
        rows, cols = linear_sum_assignment(cost)
        pairs = sorted(zip(rows.tolist(), cols.tolist()))

    target = [n_class] * k
    for i, j in pairs:
        target[i] = classes[j]
    l_cls = -sum(math.log(min(max(probs[i, target[i]], CLASS_FLOOR), 1.0)) for i in range(k)) / k

    l_score = l_bce = l_dice = 0.0
    if pairs:
        for i, j in pairs:
            hit = sp_mask[i] > 0.5
            union = sizes[hit | sp_gt[j]].sum()
            iou = sizes[hit & sp_gt[j]].sum() / union if union > 0 else 0.0
            l_score += (iou_score[i] - iou) ** 2
            l_bce += _bce(sp_mask[i], g[j], w)
            l_dice += _dice(sp_mask[i], g[j], sizes)
        l_score, l_bce, l_dice = (v / len(pairs) for v in (l_score, l_bce, l_dice))
    total = tc.w_cls * l_cls + tc.w_score * l_score + tc.w_bce * l_bce + tc.w_dice * l_dice
    return total, pairs


def objective(layers, fg, is_object, classes, sp_gt, sizes, tc):
    """PSGformer's training loss: the matched loss averaged over the supervised
    decoder stages plus the per-point foreground BCE.

    layers: (probs, iou_score, sp_mask) per stage; fg: per-point foreground
    probability; is_object: per-point instance membership."""
    supervised = layers if tc.deep_supervision else layers[-1:]
    per_layer = [layer_loss(*lay, classes, sp_gt, sizes, tc)[0] for lay in supervised]
    n = len(fg)
    l_fg = _bce(np.asarray(fg).ravel(), is_object.astype(np.float64), np.full(n, 1.0 / n))
    return sum(per_layer) / len(per_layer) + l_fg


# ---------------------------------------------------------------------------
# inference outputs


def rle_decode(runs, n):
    """Alternating run lengths, the first counting False, to a bool mask."""
    if any(r < 0 for r in runs) or sum(runs) != n:
        raise ValueError(f"run lengths sum to {sum(runs)}, expected {n}")
    out = np.zeros(n, dtype=bool)
    at = 0
    for k, r in enumerate(runs):
        if k % 2:
            out[at : at + r] = True
        at += r
    return out


def read_pred_file(path):
    """(n_points, [(class id, score, point mask), ...]) of a .pred.txt file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split()
    if head[0] != "scene" or len(head) != 4:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    n = int(head[2])
    out = []
    for line in lines[1:]:
        words = line.split()
        if words[0] != "instance":
            raise ValueError(f"{path}: bad line {line!r}")
        out.append((int(words[1]), float(words[2]), rle_decode([int(v) for v in words[3:]], n)))
    return n, out


def expected_instances(probs, iou_score, sp_mask, sizes):
    """Ranked (query, class, score, superpoint mask) the NMS-free rule keeps:
    queries whose best class is not "no instance" and whose mask is not
    empty, scored by cbrt(class prob x IoU score x mask score)."""
    n_class = probs.shape[1] - 1
    kept = []
    for q in range(len(probs)):
        if int(np.argmax(probs[q])) == n_class:
            continue
        sp = sp_mask[q] > 0.5
        if not sp.any():
            continue
        c = int(np.argmax(probs[q, :n_class]))
        mask_score = float(np.sum(sp_mask[q][sp] * sizes[sp]) / np.sum(sizes[sp]))
        kept.append((q, c, float(np.cbrt(probs[q, c] * iou_score[q] * mask_score)), sp))
    kept.sort(key=lambda t: (-t[2], t[0]))
    return kept


def average_precision(hits, n_gt):
    """Area under the precision envelope of a ranked hit/miss list."""
    if not hits:
        return 0.0
    tp = fp = 0
    prec, rec = [], []
    for h in hits:
        tp += h
        fp += not h
        prec.append(tp / (tp + fp))
        rec.append(tp / n_gt)
    ap, prev = 0.0, 0.0
    for i in range(len(hits)):
        ap += (rec[i] - prev) * max(prec[i:])
        prev = rec[i]
    return ap


def evaluate(scenes):
    """ScanNet-style AP per (class, threshold), mAP, AP50 and AP25.

    scenes: list of (predictions, gt classes, gt point masks) per scene, with
    predictions as (class id, score, point mask) in file order. Predictions
    of a class are pooled over scenes by descending score (then scene, then
    rank) and matched greedily to the unmatched same-class ground truth of
    highest IoU, which must reach the threshold."""
    gt_count = {}
    for _, classes, _ in scenes:
        for c in classes:
            gt_count[c] = gt_count.get(c, 0) + 1
    ap = {}
    for c in sorted(gt_count):
        pooled = sorted(
            (-score, s, r, mask)
            for s, (preds, _, _) in enumerate(scenes)
            for r, (cls, score, mask) in enumerate(preds)
            if cls == c
        )
        ious = []
        for _, s, _, mask in pooled:
            _, classes, masks = scenes[s]
            row = {}
            for j, gm in enumerate(masks):
                if classes[j] == c:
                    union = np.count_nonzero(mask | gm)
                    row[j] = np.count_nonzero(mask & gm) / union if union else 0.0
            ious.append(row)
        for t in sorted(set(AP_THRESHOLDS) | {0.25}):
            taken = set()
            hits = []
            for (_, s, _, _), row in zip(pooled, ious):
                free = [(v, -j) for j, v in row.items() if (s, j) not in taken and v > 0]
                best = max(free, default=None)
                if best is not None and best[0] >= t:
                    taken.add((s, -best[1]))
                    hits.append(True)
                else:
                    hits.append(False)
            ap[(c, t)] = average_precision(hits, gt_count[c])
    classes = sorted(gt_count)
    mean = lambda ts: float(np.mean([ap[(c, t)] for c in classes for t in ts])) if classes else 0.0
    return ap, mean(AP_THRESHOLDS), mean([0.50]), mean([0.25])


# ---------------------------------------------------------------------------
# local branch geometry


def sq_dists(positions, centre):
    d = positions - centre
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def sphere_group(keypoint, positions, r, cap):
    """Indices within distance r of the keypoint; past `cap`, the cap nearest
    (ties to the lower index); returned in ascending index order."""
    d = sq_dists(positions, keypoint)
    hits = [(float(d[i]), i) for i in np.flatnonzero(d < r * r)]
    return sorted(i for _, i in sorted(hits)[:cap])


def check_candidates(positions, fg, picks, beta, k_cand, rq):
    """Empty string when `picks` follow the iterative candidate rule, else the
    first violation: the first pick has the highest foreground score, every
    pick is foreground (score > beta) and outside every earlier pick's rq
    ball, every later pick is the eligible point farthest from the earlier
    picks, and sampling stops only at k_cand picks or when nothing is left."""
    fg = np.asarray(fg).ravel()
    eligible = fg > beta
    nearest = np.full(len(fg), np.inf)
    for n, p in enumerate(picks):
        if not eligible[p]:
            return f"pick {n} (point {p}) is not eligible"
        score = fg if n == 0 else nearest
        best = np.max(score[eligible])
        if score[p] != best:
            return f"pick {n} (point {p}) scores {score[p]!r}, best eligible {best!r}"
        d = sq_dists(positions, positions[p])
        eligible &= d >= rq * rq
        nearest = np.minimum(nearest, d)
    if len(picks) < k_cand and eligible.any():
        return f"stopped at {len(picks)} picks with {int(eligible.sum())} eligible points left"
    return ""
