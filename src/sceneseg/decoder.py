"""Parallel-fusion masked-attention decoder and prediction head.

K learnable queries are refined layer by layer: a masked cross-attention
branch over superpoint features runs in parallel with an unmasked branch over
local keypoint features; the two are fused through a fully connected layer,
followed by self-attention and an FFN, each with residual + post-norm.

Each layer's predicted superpoint mask, thresholded at tau, becomes the
attention mask of the next layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import at_least, require


@dataclass
class DecoderConfig:
    k: int = 20
    d: int = 64
    layers: int = 6
    heads: int = 8
    tau: float = 0.5
    n_class: int = 3

    def __post_init__(self):
        at_least(self, k=1, d=1, layers=0, heads=1, n_class=1)
        require(self.d % self.heads == 0, self, "heads", f"a divisor of d = {self.d}")
        require(0 < self.tau < 1, self, "tau", "in (0, 1)")


@dataclass
class LayerPrediction:
    class_probs: ad.Tensor  # K x (n_class + 1), rows sum to 1
    iou_score: ad.Tensor  # K x 1 in [0, 1]
    sp_mask: ad.Tensor  # K x M in [0, 1]


def build_attention_mask(prev_mask, tau):
    """{0, -inf} additive mask: 0 where prev_mask >= tau (boundary inclusive).

    A row with no entry above threshold would starve its query, so such rows
    fall back to fully unmasked (all zeros) instead of all -inf. The open
    pattern (np.isfinite of the mask) goes to ad.structure_trace.
    """
    open_ = np.asarray(prev_mask, dtype=np.float64) >= tau
    open_[~open_.any(axis=1)] = True
    ad.record_structure(open_)
    return np.where(open_, 0.0, -np.inf)


class MultiHeadAttention:
    def __init__(self, store, prefix, d, heads, rng):
        self.heads = heads
        self.q = ad.Linear(store, prefix + ".q", d, d, rng)
        self.k = ad.Linear(store, prefix + ".k", d, d, rng)
        self.v = ad.Linear(store, prefix + ".v", d, d, rng)
        self.out = ad.Linear(store, prefix + ".out", d, d, rng)

    def __call__(self, z, f, mask=None):
        """Attention of z's rows over f's rows as one tape node (see
        ad.attention_block); with zero context rows the output is the
        projection bias alone."""
        pairs = [(p.w, p.b) for p in (self.q, self.k, self.v, self.out)]
        return ad.attention_block(z, f, *pairs, self.heads, mask)


class DecoderLayer:
    def __init__(self, store, prefix, cfg: DecoderConfig, local_width, rng):
        d = cfg.d
        self.cross_g = MultiHeadAttention(store, prefix + ".cross_g", d, cfg.heads, rng)
        self.cross_l = MultiHeadAttention(store, prefix + ".cross_l", d, cfg.heads, rng)
        self.local_proj = ad.Linear(store, prefix + ".local_proj", local_width, d, rng)
        self.fuse = ad.Linear(store, prefix + ".fuse", 2 * d, d, rng)
        self.self_attn = MultiHeadAttention(store, prefix + ".self", d, cfg.heads, rng)
        self.ffn = ad.MLP(store, prefix + ".ffn", [d, 4 * d, d], rng)
        # norm affines start at the identity so early layers pass signal through
        self.norms = [
            (
                store.create(f"{prefix}.norm{i}.gain", 1, d, rng, fill=1.0),
                store.create(f"{prefix}.norm{i}.bias", 1, d, rng, fill=0.0),
            )
            for i in range(3)
        ]

    def __call__(self, z, f_g, f_l, mask):
        """One layer; a branch whose features are None (ablated) gives zeros."""
        zeros = np.zeros((z.shape[0], self.fuse.w.shape[1]))
        branch_g = ad.constant(zeros) if f_g is None else self.cross_g(z, f_g, mask=mask)
        branch_l = ad.constant(zeros) if f_l is None else self.cross_l(z, self.local_proj(f_l))
        x = ad.add_layer_norm(z, self.fuse(ad.concat_cols([branch_g, branch_l])), *self.norms[0])
        x = ad.add_layer_norm(x, self.self_attn(x, x), *self.norms[1])
        return ad.add_layer_norm(x, self.ffn(x), *self.norms[2])


class PredictionHead:
    """Class distribution (with an extra "no instance" slot), IoU score, and
    superpoint mask sigmoid(Z S_mask^T) per query, given S_mask^T."""

    def __init__(self, store, cfg: DecoderConfig, rng):
        d = cfg.d
        self.cls = ad.MLP(store, "head.cls", [d, d, cfg.n_class + 1], rng)
        self.score = ad.MLP(store, "head.score", [d, d, 1], rng)

    def __call__(self, z, s_mask_t):
        return LayerPrediction(
            class_probs=ad.softmax_rows(self.cls(z)),
            iou_score=ad.sigmoid(self.score(z)),
            sp_mask=ad.sigmoid(ad.matmul(z, s_mask_t)),
        )


class Decoder:
    def __init__(self, store, cfg: DecoderConfig, local_width, rng):
        self.cfg = cfg
        self.query = store.create("decoder.query", cfg.k, cfg.d, rng, fan_in=cfg.d)
        self.layers = [
            DecoderLayer(store, f"decoder.layer{i}", cfg, local_width, rng)
            for i in range(cfg.layers)
        ]
        self.head = PredictionHead(store, cfg, rng)

    def run(self, f_g, f_l, s_mask):
        """All per-layer predictions (layers + 1 of them, first from the raw
        queries). Unless f_g is None, each layer's cross-attention over
        superpoints is gated by the mask of the prediction before it; a None
        f_g or f_l switches that branch off."""
        z = self.query
        s_mask_t = ad.transpose(s_mask)
        preds = [self.head(z, s_mask_t)]
        for layer in self.layers:
            mask = None if f_g is None else build_attention_mask(preds[-1].sp_mask.value, self.cfg.tau)
            z = layer(z, f_g, f_l, mask)
            preds.append(self.head(z, s_mask_t))
        return preds
