"""Per-point feature extraction via a small voxel encoder-decoder.

Points are embedded from (in-voxel offset, color), mean-pooled onto occupied
voxels, pooled through `levels` rounds of 2x coarser grids, then unpooled with
skip concatenation and broadcast back to points. Everything is differentiable
end-to-end through the autodiff tape.

Rows are processed in a canonical lexicographic order of the raw point rows,
which makes the output exactly permutation-equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad, scenegen
from .errors import ContractError


@dataclass
class BackboneConfig:
    base_voxel: float = 0.1
    channels: int = 32
    levels: int = 2

    def __post_init__(self):
        if self.levels < 1:
            raise ContractError("levels must be >= 1")
        if self.channels < 8:
            raise ContractError("channels must be >= 8")


class Backbone:
    def __init__(self, store: ad.ParamStore, cfg: BackboneConfig, rng):
        c = cfg.channels
        self.cfg = cfg
        self.embed = ad.MLP(store, "backbone.embed", [6, c, c], ["relu", "none"], rng)
        self.down = [
            ad.MLP(store, f"backbone.down{i}", [c, c], ["relu"], rng)
            for i in range(cfg.levels)
        ]
        self.up = [
            ad.MLP(store, f"backbone.up{i}", [2 * c, c], ["relu"], rng)
            for i in range(cfg.levels)
        ]
        self.head = ad.MLP(store, "backbone.head", [2 * c, c], ["none"], rng)
        # output normalization keeps per-point features at unit scale so the
        # downstream attention sees usable variation across superpoints
        self.norm_gain = store.create("backbone.norm.gain", 1, c, rng, fill=1.0)
        self.norm_bias = store.create("backbone.norm.bias", 1, c, rng, fill=0.0)

    def __call__(self, scene):
        """Feature matrix, one row per point, width cfg.channels."""
        if scene.n_points == 0:
            raise ContractError("empty scene")
        cfg = self.cfg

        # canonical processing order: lexicographic over full point rows
        order = np.lexsort(scene.points.T[::-1])
        inv_order = np.empty_like(order)
        inv_order[order] = np.arange(len(order))
        pos = scene.positions[order]
        col = scene.colors[order]

        cells = np.floor(pos / cfg.base_voxel).astype(np.int64)
        cells -= cells.min(axis=0)
        coords, p2v = scenegen.unique_rows(cells)

        offset = pos / cfg.base_voxel - np.floor(pos / cfg.base_voxel)
        point_in = ad.constant(np.concatenate([offset, col], axis=1))
        point_emb = self.embed(point_in)

        feats = [ad.segment_mean(point_emb, p2v, len(coords))]
        maps = []  # child-voxel -> parent-voxel index per level
        level_coords = coords
        for i in range(cfg.levels):
            parent_cells = level_coords >> 1
            parent_coords, child2parent = scenegen.unique_rows(parent_cells)
            pooled = ad.segment_mean(feats[-1], child2parent, len(parent_coords))
            feats.append(self.down[i](pooled))
            maps.append(child2parent)
            level_coords = parent_coords

        x = feats[-1]
        for i in reversed(range(cfg.levels)):
            up = ad.gather_rows(x, maps[i])
            x = self.up[i](ad.concat_cols([feats[i], up]))

        per_point = ad.gather_rows(x, p2v)
        out = self.head(ad.concat_cols([point_emb, per_point]))
        out = ad.layer_norm(out, self.norm_gain, self.norm_bias)
        return ad.gather_rows(out, inv_order)
