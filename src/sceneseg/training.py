"""Bipartite matching, the four-term loss, and the optimization loop."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .errors import ContractError, NumericError

PROB_CLAMP = 1e-7
DICE_EPS = 1.0


@dataclass
class Assignment:
    pairs: list  # (query index, gt index), query indices ascending

    @property
    def query_idx(self):
        return np.array([q for q, _ in self.pairs], dtype=np.int64)

    @property
    def gt_idx(self):
        return np.array([g for _, g in self.pairs], dtype=np.int64)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    steps: int = 500
    seed: int = 0
    w_cls: float = 0.5
    w_score: float = 0.5
    w_bce: float = 1.0
    w_dice: float = 1.0
    deep_supervision: bool = True
    lambda_cls: float = 1.0
    lambda_mask: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8


@dataclass
class LossReport:
    cls: float
    score: float
    bce: float
    dice: float
    foreground: float
    total: float
    total_tensor: ad.Tensor = field(repr=False, default=None)
    structure: bytes = b""


def hungarian(cost) -> Assignment:
    """Min-cost one-to-one assignment over min(K, K_gt) pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return Assignment(pairs=[])
    if not np.all(np.isfinite(cost)):
        raise ContractError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    return Assignment(pairs=sorted(zip(rows.tolist(), cols.tolist())))


def match_cost(pred, gt, sizes, lambda_cls=1.0, lambda_mask=1.0):
    """K x K_gt matching cost: class NLL plus size-weighted BCE + Dice, all
    ground-truth columns at once as matrix products."""
    probs = pred.class_probs.value
    masks = pred.sp_mask.value
    sizes = np.asarray(sizes, dtype=np.float64)
    w = sizes / sizes.sum()
    g = gt.superpoint_masks.astype(np.float64)
    p = np.clip(masks, PROB_CLAMP, 1.0 - PROB_CLAMP)
    bce = -(np.log(p) @ (g * w).T + np.log(1.0 - p) @ ((1.0 - g) * w).T)
    num = 2.0 * (masks @ (g * sizes).T) + DICE_EPS
    den = (masks @ sizes)[:, None] + (g @ sizes)[None, :] + DICE_EPS
    nll = -np.log(np.maximum(probs[:, gt.instance_classes], 1e-12))
    return lambda_cls * nll + lambda_mask * (bce + 1.0 - num / den)


def classification_loss(pred, assignment: Assignment, gt, n_class):
    """Mean NLL over all queries; unmatched ones target the "no instance" slot."""
    k = pred.class_probs.shape[0]
    targets = np.full(k, n_class, dtype=np.int64)
    for qi, gi in assignment.pairs:
        targets[qi] = gt.instance_classes[gi]
    onehot = np.zeros((k, n_class + 1))
    onehot[np.arange(k), targets] = 1.0
    logp = ad.log(ad.clip(pred.class_probs, 1e-12, 1.0))
    return ad.affine(ad.sum_all(ad.affine(logp, scale=onehot)), -1.0 / k)


def iou_targets(pred, assignment: Assignment, gt, sizes):
    """Point-weighted IoU of each matched query's binarized mask vs its gt mask.

    These are measured targets for the scoring branch: detached constants."""
    out = np.zeros(len(assignment.pairs))
    sizes = np.asarray(sizes, dtype=np.float64)
    for n, (qi, gi) in enumerate(assignment.pairs):
        p = pred.sp_mask.value[qi] > 0.5
        g = gt.superpoint_masks[gi]
        union = sizes[p | g].sum()
        out[n] = sizes[p & g].sum() / union if union > 0 else 0.0
    return out


def score_loss(pred, assignment: Assignment, gt, sizes):
    if not assignment.pairs:
        return ad.constant([[0.0]])
    t = iou_targets(pred, assignment, gt, sizes)[:, None]
    s = ad.gather_rows(pred.iou_score, assignment.query_idx)
    diff = ad.affine(s, 1.0, -t)
    return ad.mean_all(ad.mul(diff, diff))


def bce_mask_loss(pred, assignment: Assignment, gt, sizes):
    if not assignment.pairs:
        return ad.constant([[0.0]])
    sizes = np.asarray(sizes, dtype=np.float64)
    w = sizes / sizes.sum()
    g = gt.superpoint_masks[assignment.gt_idx].astype(np.float64)
    p = ad.clip(ad.gather_rows(pred.sp_mask, assignment.query_idx), PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = ad.affine(ad.log(p), scale=g * w)
    neg = ad.affine(ad.log(ad.affine(p, -1.0, 1.0)), scale=(1.0 - g) * w)
    total = ad.add(ad.sum_all(pos), ad.sum_all(neg))
    return ad.affine(total, -1.0 / len(assignment.pairs))


def dice_loss(pred, assignment: Assignment, gt, sizes, eps=DICE_EPS):
    """Mean over matched pairs of the size-weighted soft Dice loss."""
    if not assignment.pairs:
        return ad.constant([[0.0]])
    sizes = np.asarray(sizes, dtype=np.float64)
    p = ad.gather_rows(pred.sp_mask, assignment.query_idx)
    g = gt.superpoint_masks[assignment.gt_idx].astype(np.float64)
    num = ad.affine(ad.sum_rows(ad.affine(p, scale=2.0 * sizes * g)), 1.0, eps)
    den = ad.affine(ad.sum_rows(ad.affine(p, scale=sizes)), 1.0, (g @ sizes)[:, None] + eps)
    return ad.mean_all(ad.affine(ad.div(num, den), -1.0, 1.0))


def foreground_loss(fg, scene):
    """BCE of the per-point foreground probability against instance membership."""
    labels = (scene.instance >= 0).astype(np.float64)[:, None]
    p = ad.clip(fg, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = ad.affine(ad.log(p), scale=labels)
    neg = ad.affine(ad.log(ad.affine(p, -1.0, 1.0)), scale=1.0 - labels)
    return ad.affine(ad.add(ad.sum_all(pos), ad.sum_all(neg)), -1.0 / scene.n_points)


def total_loss(preds, gt, sizes, fg, scene, cfg: TrainConfig) -> LossReport:
    """Hungarian-matched weighted loss, averaged across supervised layers,
    plus the foreground term (weight 1)."""
    if not preds:
        raise ContractError("need at least one layer prediction")
    supervised = preds if cfg.deep_supervision else [preds[-1]]
    n_class = preds[-1].class_probs.shape[1] - 1
    h = hashlib.sha256()

    parts = {"cls": [], "score": [], "bce": [], "dice": []}
    layer_totals = []
    for pred in supervised:
        # a poisoned forward pass would otherwise die inside the matcher with
        # an unhelpful message; name the component that would go non-finite
        if not np.all(np.isfinite(pred.class_probs.value)):
            raise NumericError("non-finite loss component 'cls'")
        if not np.all(np.isfinite(pred.sp_mask.value)):
            raise NumericError("non-finite loss component 'bce'")
        if not np.all(np.isfinite(pred.iou_score.value)):
            raise NumericError("non-finite loss component 'score'")
        if len(gt.instance_classes):
            cost = match_cost(pred, gt, sizes, cfg.lambda_cls, cfg.lambda_mask)
            assignment = hungarian(cost)
        else:
            assignment = Assignment(pairs=[])
        h.update(repr(assignment.pairs).encode())
        h.update((pred.sp_mask.value > 0.5).tobytes())
        l_cls = classification_loss(pred, assignment, gt, n_class)
        l_score = score_loss(pred, assignment, gt, sizes)
        l_bce = bce_mask_loss(pred, assignment, gt, sizes)
        l_dice = dice_loss(pred, assignment, gt, sizes)
        for name, t in (("cls", l_cls), ("score", l_score), ("bce", l_bce), ("dice", l_dice)):
            parts[name].append(float(t.value[0, 0]))
        combined = ad.add(
            ad.add(ad.affine(l_cls, cfg.w_cls), ad.affine(l_score, cfg.w_score)),
            ad.add(ad.affine(l_bce, cfg.w_bce), ad.affine(l_dice, cfg.w_dice)),
        )
        layer_totals.append(combined)

    acc = layer_totals[0]
    for t in layer_totals[1:]:
        acc = ad.add(acc, t)
    acc = ad.affine(acc, 1.0 / len(layer_totals))
    l_fg = foreground_loss(fg, scene)
    total = ad.add(acc, l_fg)

    return LossReport(
        cls=float(np.mean(parts["cls"])),
        score=float(np.mean(parts["score"])),
        bce=float(np.mean(parts["bce"])),
        dice=float(np.mean(parts["dice"])),
        foreground=float(l_fg.value[0, 0]),
        total=float(total.value[0, 0]),
        total_tensor=total,
        structure=h.digest(),
    )


class Adam:
    """Per-parameter adaptive moment estimation."""

    def __init__(self, store, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.m = {n: np.zeros(store[n].shape) for n in store.names()}
        self.v = {n: np.zeros(store[n].shape) for n in store.names()}
        self.t = 0

    def step(self):
        cfg = self.cfg
        self.t += 1
        b1c = 1.0 - cfg.beta1**self.t
        b2c = 1.0 - cfg.beta2**self.t
        for name in self.store.names():
            g = self.store.grad_of(name)
            self.m[name] = cfg.beta1 * self.m[name] + (1 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1 - cfg.beta2) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            self.store[name].value -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)


def scene_loss(model, prep, cfg: TrainConfig) -> LossReport:
    out = model.forward(prep)
    return total_loss(out.preds, prep.gt, prep.partition.sizes, out.foreground, prep.scene, cfg)


def fit(model, preps, cfg: TrainConfig, on_step=None):
    """Round-robin gradient descent over the prepared scenes.

    Returns the loss trace as a list of LossReport. Aborts with NumericError
    naming the first non-finite loss component.
    """
    if not preps:
        raise ContractError("need at least one scene")
    opt = Adam(model.store, cfg)
    trace = []
    for step in range(cfg.steps):
        report = scene_loss(model, preps[step % len(preps)], cfg)
        for name in ("cls", "score", "bce", "dice", "foreground", "total"):
            if not np.isfinite(getattr(report, name)):
                raise NumericError(f"non-finite loss component {name!r} at step {step}")
        ad.backward(report.total_tensor)
        opt.step()
        report.total_tensor = None  # drop the graph so the trace stays small
        trace.append(report)
        if on_step is not None:
            on_step(step, report)
    return trace
