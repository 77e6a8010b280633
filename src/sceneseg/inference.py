"""NMS-free ranked inference and the average-precision evaluator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, read_text

MAP_THRESHOLDS = np.arange(0.50, 0.951, 0.05).round(2)


@dataclass
class InstanceResult:
    class_id: int
    final_score: float
    sp_mask: np.ndarray  # M bool
    point_mask: np.ndarray  # N bool


@dataclass
class EvalReport:
    classes: list  # class ids with at least one gt instance
    ap: dict  # (class_id, threshold) -> AP
    map_: float
    ap50: float
    ap25: float


def mask_score(sp_mask_row, sizes):
    """Point-size-weighted mean of the superpoint probabilities above 0.5;
    zero when no entry qualifies."""
    row = np.asarray(sp_mask_row, dtype=np.float64).ravel()
    sizes = np.asarray(sizes, dtype=np.float64)
    keep = row > 0.5
    if not keep.any():
        return 0.0
    return float((row[keep] * sizes[keep]).sum() / sizes[keep].sum())


def final_score(p, s, ms):
    """Cube root of class prob x IoU score x mask score."""
    return float(np.cbrt(p * s * ms))


def propagate_mask(sp_mask, assignment):
    """Superpoint mask -> point mask through the partition assignment."""
    return np.asarray(sp_mask, dtype=bool)[assignment]


def predict(pred, partition, top_k=None, min_score=0.0):
    """Ranked instances from a final-layer prediction.

    Queries whose class argmax is "no instance" or whose binarized mask is
    empty are dropped; the rest are sorted by final score (ties resolved to
    the lower query index). No non-maximum suppression is applied.
    """
    probs = pred.class_probs.value
    scores = pred.iou_score.value.ravel()
    masks = pred.sp_mask.value
    sizes = partition.sizes
    n_class = probs.shape[1] - 1

    results = []
    for i in range(len(probs)):
        if int(np.argmax(probs[i])) == n_class:
            continue
        sp = masks[i] > 0.5
        if not sp.any():
            continue
        cls = int(np.argmax(probs[i, :n_class]))
        score = final_score(probs[i, cls], scores[i], mask_score(masks[i], sizes))
        if score < min_score:
            continue
        results.append(
            (score, i, InstanceResult(cls, score, sp, propagate_mask(sp, partition.assignment)))
        )
    results.sort(key=lambda t: (-t[0], t[1]))
    out = [r for _, _, r in results]
    return out if top_k is None else out[:top_k]


def iou_points(a, b):
    """Intersection over union of two boolean point masks (0 if both empty)."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ContractError("masks must have equal length")
    union = (a | b).sum()
    return float((a & b).sum() / union) if union else 0.0


def _average_precision(tp_flags, n_gt):
    """AP from an ordered hit/miss sequence via rightward-max interpolation."""
    if n_gt == 0:
        return None
    if len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    precision = tp / (tp + fp)
    recall = tp / n_gt
    interp = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for p, r in zip(interp, recall):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def evaluate(preds_per_scene, gts_per_scene, n_class, thresholds=None) -> EvalReport:
    """Greedy score-ordered matching pooled over scenes, per class and
    threshold; classes with no gt instances are excluded from the means."""
    thresholds = MAP_THRESHOLDS if thresholds is None else np.asarray(thresholds)
    scene_ids = sorted(preds_per_scene)
    all_thresholds = sorted(set(thresholds.tolist()) | {0.25, 0.50})

    gt_count = {c: 0 for c in range(n_class)}
    for sid in scene_ids:
        for c in gts_per_scene[sid].instance_classes:
            gt_count[int(c)] += 1
    classes = [c for c in range(n_class) if gt_count[c] > 0]

    ap = {}
    for c in classes:
        pooled = []  # (-score, scene order, rank) for deterministic ordering
        for order, sid in enumerate(scene_ids):
            for rank, inst in enumerate(preds_per_scene[sid]):
                if inst.class_id == c:
                    pooled.append((-inst.final_score, order, rank, sid, inst))
        pooled.sort(key=lambda t: t[:3])
        # IoU of each prediction with every same-class gt instance of its
        # scene, computed once and shared by all thresholds
        candidates = []
        for _, _, _, sid, inst in pooled:
            gt = gts_per_scene[sid]
            js = [j for j in range(len(gt.instance_classes)) if gt.instance_classes[j] == c]
            candidates.append(
                (sid, [(j, iou_points(inst.point_mask, gt.point_masks[j])) for j in js])
            )
        for t in all_thresholds:
            matched = {
                sid: np.zeros(len(gts_per_scene[sid].instance_classes), dtype=bool)
                for sid in scene_ids
            }
            flags = []
            for sid, ious in candidates:
                best_iou, best_j = 0.0, -1
                for j, v in ious:
                    if not matched[sid][j] and v > best_iou:
                        best_iou, best_j = v, j
                if best_j >= 0 and best_iou >= t:
                    matched[sid][best_j] = True
                    flags.append(True)
                else:
                    flags.append(False)
            ap[(c, t)] = _average_precision(flags, gt_count[c])

    def mean_over(ts):
        vals = [ap[(c, t)] for c in classes for t in ts]
        return float(np.mean(vals)) if vals else 0.0

    return EvalReport(
        classes=classes,
        ap=ap,
        map_=mean_over([t for t in thresholds.tolist()]),
        ap50=mean_over([0.50]),
        ap25=mean_over([0.25]),
    )


# ---------------------------------------------------------------------------
# dump formats


def _rle_encode(mask):
    """Run lengths of a boolean mask, alternating and starting with zeros."""
    mask = np.asarray(mask, dtype=bool).ravel()
    bounds = np.concatenate(([0], np.flatnonzero(mask[1:] != mask[:-1]) + 1, [len(mask)]))
    runs = np.diff(bounds).tolist()
    return [0] + runs if len(mask) and mask[0] else runs


def _rle_decode(runs, n, line=None):
    """Boolean mask of n points from _rle_encode's run lengths: an int64
    array, or a sequence of Python ints of any size. Errors name `line`."""
    runs = np.asarray(runs)
    if runs.size and runs.min() < 0:
        raise ParseError(f"negative run length {runs[runs < 0][0]}", line=line)
    # an int64 sum of non-negative runs cannot wrap while size * max < 2**63
    exact = runs.dtype == object or runs.size * int(runs.max(initial=0)) < 2**63
    total = int(runs.sum()) if exact else sum(runs.tolist())
    if total != n:
        raise ParseError(f"run lengths sum to {total}, expected {n}", line=line)
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs.astype(np.int64))


def write_predictions(path, scene_id, n_points, n_superpoints, instances):
    lines = [f"scene {scene_id} {n_points} {n_superpoints}"]
    for inst in instances:
        runs = " ".join(map(str, _rle_encode(inst.point_mask)))
        lines.append(f"instance {inst.class_id} {inst.final_score!r} {runs}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_predictions(path):
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
        parts = text.split(None, 3)
        if len(parts) < 4 or parts[0] != "instance":
            raise ParseError("bad instance line", line=ln)
        try:
            class_id, score = int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError("non-numeric instance value", line=ln) from None
        try:
            runs = np.loadtxt([parts[3]], dtype=np.int64, comments=None, ndmin=1)
        except ValueError:
            raise ParseError("run lengths must be integers within int64", line=ln) from None
        instances.append(
            InstanceResult(
                class_id=class_id,
                final_score=score,
                sp_mask=None,
                point_mask=_rle_decode(runs, n_points, line=ln),
            )
        )
    return scene_id, n_sp, instances


def report_csv(report: EvalReport):
    lines = ["class,threshold,ap"]
    for (c, t), v in sorted(report.ap.items()):
        lines.append(f"{c},{t:.2f},{v:.6f}")
    lines.append(f"all,mAP,{report.map_:.6f}")
    lines.append(f"all,AP50,{report.ap50:.6f}")
    lines.append(f"all,AP25,{report.ap25:.6f}")
    return "\n".join(lines) + "\n"


def report_text(report: EvalReport, class_names=None):
    rows = []
    header = f"{'class':>10} {'AP':>7} {'AP50':>7} {'AP25':>7}"
    rows.append(header)
    rows.append("-" * len(header))
    for c in report.classes:
        name = class_names[c] if class_names and c < len(class_names) else str(c)
        aps = [report.ap[(c, t)] for t in MAP_THRESHOLDS.tolist()]
        rows.append(
            f"{name:>10} {np.mean(aps):7.4f} {report.ap[(c, 0.50)]:7.4f} {report.ap[(c, 0.25)]:7.4f}"
        )
    rows.append("-" * len(header))
    rows.append(f"{'mean':>10} {report.map_:7.4f} {report.ap50:7.4f} {report.ap25:7.4f}")
    return "\n".join(rows) + "\n"
