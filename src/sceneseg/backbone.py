"""Per-point feature extraction via a small voxel encoder-decoder.

Points are embedded from (in-voxel offset, color), mean-pooled onto occupied
voxels, pooled through `levels` rounds of 2x coarser grids, then unpooled with
skip concatenation and broadcast back to points. Everything is differentiable
end-to-end through the autodiff tape.

Rows are processed in a canonical lexicographic order of the raw point rows,
which makes the output exactly permutation-equivariant. That order and the
voxel maps depend on the points alone: `Backbone.layout` builds them once as
a VoxelLayout, and each forward pass reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad, scenegen
from .errors import ContractError, at_least, require


@dataclass
class BackboneConfig:
    base_voxel: float = 0.1
    channels: int = 32
    levels: int = 2

    def __post_init__(self):
        require(self.base_voxel > 0, self, "base_voxel", "> 0")
        at_least(self, channels=8, levels=1)


def canonical_order(points):
    """np.lexsort(points.T[::-1]) for points without NaN (SegModel.prepare
    refuses them): rows ordered by x, then y, z, r, g, b, then index. One
    argsort (introsort) on x; only the rows whose x ties are lexsorted, keyed
    by their tie run first and their row index last, so each run comes out in
    lexsort order whatever order the argsort left it in."""
    order = np.argsort(points[:, 0])
    sx = points[order, 0]
    tied = np.concatenate([[False], sx[1:] == sx[:-1], [False]])  # sorted rows i - 1, i tie
    if tied.any():
        at = np.flatnonzero(tied[:-1] | tied[1:])
        run = np.cumsum(~tied[:-1])[at]
        rows = order[at]
        keys = points[rows, 1:].T[::-1]
        order[at] = rows[np.lexsort((rows, *keys, run))]
    return order


@dataclass
class VoxelLayout:
    """The backbone's scene-only input, for one scene under the config of the
    backbone that built it: the inverse of the canonical order, the (in-voxel
    offset, colour) rows in that order, each point's voxel and each level's
    child -> parent voxel map, with the voxel count of each level."""

    inv_order: np.ndarray
    point_in: np.ndarray
    p2v: np.ndarray
    n_voxels: int
    maps: list  # (child2parent, n_parents) per level


class Backbone:
    def __init__(self, store: ad.ParamStore, cfg: BackboneConfig, rng):
        c = cfg.channels
        self.cfg = cfg
        self.embed = ad.MLP(store, "backbone.embed", [6, c, c], rng)
        # ".0" keeps the parameter names of a one-layer MLP, so checkpoints keep their bytes
        levels = range(cfg.levels)
        self.down = [ad.Linear(store, f"backbone.down{i}.0", c, c, rng, relu=True) for i in levels]
        self.up = [ad.Linear(store, f"backbone.up{i}.0", 2 * c, c, rng, relu=True) for i in levels]
        self.head = ad.MLP(store, "backbone.head", [2 * c, c], rng)
        # output normalization keeps per-point features at unit scale so the
        # downstream attention sees usable variation across superpoints
        self.norm_gain = store.create("backbone.norm.gain", 1, c, rng, fill=1.0)
        self.norm_bias = store.create("backbone.norm.bias", 1, c, rng, fill=0.0)

    def layout(self, scene) -> VoxelLayout:
        """The scene's VoxelLayout under this backbone's config; it depends
        on the points alone, never on the parameters."""
        if scene.n_points == 0:
            raise ContractError("empty scene")
        cfg = self.cfg

        order = canonical_order(scene.points)
        inv_order = np.empty_like(order)
        inv_order[order] = np.arange(len(order))
        pos = scene.positions[order]
        col = scene.colors[order]

        scaled = pos / cfg.base_voxel
        floor = np.floor(scaled)
        cells = floor.astype(np.int64)
        cells -= cells.min(axis=0)
        coords, p2v = scenegen.unique_rows(cells)

        maps = []  # child-voxel -> parent-voxel index per level
        level_coords = coords
        for _ in range(cfg.levels):
            level_coords, child2parent = scenegen.unique_rows(level_coords >> 1)
            maps.append((child2parent, len(level_coords)))
        return VoxelLayout(inv_order, np.concatenate([scaled - floor, col], axis=1),
                           p2v, len(coords), maps)

    def __call__(self, layout: VoxelLayout):
        """Feature matrix, one row per point of the layout's scene, width
        cfg.channels."""
        point_emb = self.embed(ad.constant(layout.point_in))

        feats = [ad.segment_mean(point_emb, layout.p2v, layout.n_voxels)]
        for down, (child2parent, n_parents) in zip(self.down, layout.maps):
            feats.append(down(ad.segment_mean(feats[-1], child2parent, n_parents)))

        x = feats[-1]
        for i in reversed(range(self.cfg.levels)):
            x = self.up[i](ad.concat_cols([feats[i], ad.gather_rows(x, layout.maps[i][0])]))

        # nothing reads the concat's inputs after it, nor the concat after the
        # head but the head's push: dropped there, a taped pass frees the inputs
        # too, and an untaped pass peaks at four N x C arrays, not five
        out = ad.concat_cols([point_emb, ad.gather_rows(x, layout.p2v)])
        del point_emb, feats, x
        out = self.head(out)
        out = ad.layer_norm(out, self.norm_gain, self.norm_bias)
        return ad.gather_rows(out, layout.inv_order)
