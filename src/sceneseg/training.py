"""Bipartite matching, the four-term set loss, and the optimization loop."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericError, at_least, require

DICE_EPS = 1.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-3
    steps: int = 500
    w_cls: float = 0.5
    w_score: float = 0.5
    w_bce: float = 1.0
    w_dice: float = 1.0
    deep_supervision: bool = True
    lambda_cls: float = 1.0
    lambda_mask: float = 1.0

    def __post_init__(self):
        require(self.lr > 0, self, "lr", "> 0")
        at_least(self, steps=0, w_cls=0, w_score=0, w_bce=0, w_dice=0, lambda_cls=0, lambda_mask=0)


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


def hungarian(cost):
    """Min-cost one-to-one assignment over min(K, K_gt) pairs: SciPy's
    (query_idx, gt_idx) int64 arrays, query indices ascending as SciPy
    sorts them; NumericError for an overflowed cost. Imports SciPy lazily."""
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise NumericError("non-finite matching cost")
    return linear_sum_assignment(cost)


def match_cost(pred, gt, sizes, lambda_cls=1.0, lambda_mask=1.0):
    """K x K_gt matching cost: class NLL plus size-weighted BCE + Dice, all
    ground-truth columns at once as matrix products."""
    probs = pred.class_probs.value
    masks = pred.sp_mask.value
    sizes = np.asarray(sizes, dtype=np.float64)
    w = sizes / sizes.sum()
    g = gt.superpoint_masks.astype(np.float64)
    p = np.clip(masks, ad.PROB_CLAMP, 1.0 - ad.PROB_CLAMP)
    bce = -(np.log(p) @ (g * w).T + np.log(1.0 - p) @ ((1.0 - g) * w).T)
    num = 2.0 * (masks @ (g * sizes).T) + DICE_EPS
    den = (masks @ sizes)[:, None] + (g @ sizes)[None, :] + DICE_EPS
    nll = -np.log(np.maximum(probs[:, gt.instance_classes], 1e-12))
    return lambda_cls * nll + lambda_mask * (bce + 1.0 - num / den)


def set_loss(pred, match, gt, sizes, cfg: TrainConfig, eps=DICE_EPS):
    """A layer's ad.set_criterion node and (cls, score, bce, dice) for the
    (query_idx, gt_idx) pair `match`. Unmatched queries target "no instance";
    the score targets are the point-weighted IoUs of the binarized matched
    masks, exact sums of point counts."""
    q, gi = match
    k, slots = pred.class_probs.shape
    targets = np.full(k, slots - 1)
    targets[q] = gt.instance_classes[gi]
    g, sizes = gt.superpoint_masks[gi], np.asarray(sizes, dtype=np.float64)
    binary = pred.sp_mask.value[q] > 0.5
    union = (binary | g) @ sizes
    iou = ((binary & g) @ sizes) / np.where(union > 0, union, 1.0)
    weights = (cfg.w_cls, cfg.w_score, cfg.w_bce, cfg.w_dice)
    return ad.set_criterion(pred.class_probs, pred.iou_score, pred.sp_mask, q,
                            np.eye(slots)[targets], iou, g.astype(np.float64), sizes, weights, eps)


def foreground_loss(fg, scene):
    """BCE of the per-point foreground probability against instance membership."""
    labels = (scene.instance >= 0).astype(np.float64)[:, None]
    total = ad.weighted_bce(fg, labels, 1.0 - labels, ad.PROB_CLAMP, 1.0 - ad.PROB_CLAMP)
    return ad.affine(total, -1.0 / scene.n_points)


def total_loss(preds, gt, sizes, fg, scene, cfg: TrainConfig) -> LossReport:
    """Hungarian-matched weighted loss, averaged across supervised layers,
    plus the foreground term (weight 1)."""
    if not preds:
        raise ContractError("need at least one layer prediction")
    supervised = preds if cfg.deep_supervision else [preds[-1]]
    h = hashlib.sha256()

    parts = {"cls": [], "score": [], "bce": [], "dice": []}
    layer_totals = []
    for pred in supervised:
        q, gi = hungarian(match_cost(pred, gt, sizes, cfg.lambda_cls, cfg.lambda_mask))
        h.update(repr(list(zip(q.tolist(), gi.tolist()))).encode())
        h.update((pred.sp_mask.value > 0.5).tobytes())
        layer_total, components = set_loss(pred, (q, gi), gt, sizes, cfg)
        for part, v in zip(parts.values(), components):
            part.append(v)
        layer_totals.append(layer_total)

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
    """Adaptive moment estimation over cache-sized blocks of parameters.

    The moments live in two flat buffers; `m[name]` and `v[name]` are views
    into them. Whole parameters, in store order, are packed into blocks of
    at most BLOCK elements (a larger parameter is a block of its own). A step
    copies a block's gradients into a scratch row and runs the per-parameter
    update's expressions, in their order, in place, so every byte matches
    `m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    p -= lr (m / b1c) / (sqrt(v / b2c) + eps)`.

    A step consumes the gradients it applies: once a parameter's gradient
    is in the scratch row, its `.grad` is None, so a parameter the next
    loss does not reach gets zeros, not this step's gradient again.
    """

    BLOCK = 16384

    def __init__(self, store, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.t = 0
        spans = []  # [start, end, names] per block
        end = 0
        for name in store.names():
            size = store[name].value.size
            if not spans or end - spans[-1][0] + size > self.BLOCK:
                spans.append([end, end, []])
            end += size
            spans[-1][1] = end
            spans[-1][2].append(name)
        self._m, self._v = np.zeros(end), np.zeros(end)
        scratch = np.empty((2, max((b - a for a, b, _ in spans), default=0)))
        self.m, self.v = {}, {}
        self.blocks = []  # (m, v, gradient row, second row, [(name, its slice of the row)])
        for start, stop, names in spans:
            g, s = scratch[:, : stop - start]
            members, at = [], start
            for name in names:
                shape = store[name].shape
                size = store[name].value.size
                self.m[name] = self._m[at : at + size].reshape(shape)
                self.v[name] = self._v[at : at + size].reshape(shape)
                members.append((name, g[at - start : at - start + size].reshape(shape)))
                at += size
            self.blocks.append((self._m[start:stop], self._v[start:stop], g, s, members))

    def step(self):
        lr, store = self.cfg.lr, self.store
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for m, v, g, s, members in self.blocks:
            for name, row in members:
                row[...] = store.grad_of(name)
                store[name].grad = None
            np.multiply(g, 1 - ADAM_BETA1, out=s)
            m *= ADAM_BETA1
            m += s
            np.multiply(g, 1 - ADAM_BETA2, out=s)
            s *= g
            v *= ADAM_BETA2
            v += s
            np.divide(v, b2c, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, b1c, out=g)
            g *= lr
            g /= s
            for name, row in members:
                store[name].value -= row


def scene_loss(model, prep, cfg: TrainConfig) -> LossReport:
    out = model.forward(prep)
    return total_loss(out.preds, prep.gt, prep.partition.sizes, out.foreground, prep.scene, cfg)


def fit(model, preps, cfg: TrainConfig, on_step=None):
    """Round-robin gradient descent over the prepared scenes.

    Returns the loss trace as a list of LossReport. Raises ContractError
    before the first step when a scene holds an instance class the model has
    no slot for; aborts with NumericError naming the first non-finite
    forward output, matching cost or loss component, and its step.
    """
    if not preps:
        raise ContractError("need at least one scene")
    n_class = model.cfg.dec.n_class
    top = max(p.gt.instance_classes.max(initial=-1) for p in preps)
    if top >= n_class:
        raise ContractError(f"instance class {top} does not fit n_class={n_class}")
    opt = Adam(model.store, cfg)
    trace = []
    for step in range(cfg.steps):
        try:
            report = scene_loss(model, preps[step % len(preps)], cfg)
            for name in ("cls", "score", "bce", "dice", "foreground", "total"):
                if not np.isfinite(getattr(report, name)):
                    raise NumericError(f"non-finite loss component {name!r}")
        except NumericError as exc:
            raise NumericError(f"{exc} at step {step}") from None
        ad.backward(report.total_tensor)
        opt.step()
        report.total_tensor = None  # backward released the tape; drop its spent root
        trace.append(report)
        if on_step is not None:
            on_step(step, report)
    return trace
