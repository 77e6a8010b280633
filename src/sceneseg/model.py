"""Full pipeline assembly: backbone, both feature branches, decoder."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import aggregation, autodiff as ad, backbone as bb, decoder as dec, scenegen
from .errors import DataError, NumericError, require


def seed_for(global_seed, name):
    """Deterministic per-module seed derived from the one global seed."""
    digest = hashlib.sha256(f"{global_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class ModelConfig:
    backbone: bb.BackboneConfig = field(default_factory=bb.BackboneConfig)
    agg: aggregation.AggregationConfig = field(default_factory=aggregation.AggregationConfig)
    dec: dec.DecoderConfig = field(default_factory=dec.DecoderConfig)
    coarse_size: float = 0.25
    use_local: bool = True
    use_global: bool = True
    seed: int = 0

    def __post_init__(self):
        require(self.coarse_size > 0, self, "coarse_size", "> 0")


@dataclass
class PreparedScene:
    """A scene with its superpoints and ground truth, for the model that
    prepared it. Its first forward keeps that model's VoxelLayout here, so
    the scene must not be edited after that forward, nor handed to a model
    with another config."""

    scene: scenegen.Scene
    partition: scenegen.SuperpointPartition
    gt: scenegen.GroundTruth
    layout: bb.VoxelLayout | None = None


@dataclass
class ForwardResult:
    preds: list  # LayerPrediction per decoder stage (layers + 1)
    foreground: ad.Tensor  # N x 1
    keypoints: np.ndarray  # selected keypoint point-indices


class SegModel:
    def __init__(self, cfg: ModelConfig, checkpoint=None):
        """Parameters drawn from cfg.seed, or read from the checkpoint file
        when one is given, without drawing an init first."""
        self.cfg = cfg
        self.store = ad.ParamStore(draw=checkpoint is None)
        c = cfg.backbone.channels
        rng = lambda name: np.random.default_rng(seed_for(cfg.seed, name))
        self.backbone = bb.Backbone(self.store, cfg.backbone, rng("backbone"))
        self.fg_head = aggregation.ForegroundHead(self.store, c, rng("foreground"))
        self.local = aggregation.LocalAggregator(self.store, c, cfg.agg, rng("local"))
        self.proj = aggregation.GlobalProjector(self.store, c, cfg.dec.d, rng("global"))
        self.decoder = dec.Decoder(self.store, cfg.dec, cfg.agg.width, rng("decoder"))
        if checkpoint is not None:
            self.store.load(checkpoint)

    def prepare(self, scene: scenegen.Scene) -> PreparedScene:
        """Superpoints and ground truth; DataError when a coordinate is too far
        out for its voxel cell index to fit int64 with room to spare."""
        cell = min(self.cfg.coarse_size, self.cfg.backbone.base_voxel)
        reach = np.abs(scene.positions).max(initial=0.0)  # an empty scene is the backbone's to refuse
        if not reach / cell < 2.0**62:
            raise DataError(f"coordinate {reach:g} is {reach / cell:.3g} voxel cells of "
                            f"{cell:g} m from the origin; an int64 cell index needs < 2**62")
        partition = scenegen.build_superpoints(scene, self.cfg.coarse_size)
        return PreparedScene(
            scene=scene, partition=partition, gt=scenegen.ground_truth(scene, partition)
        )

    def forward(self, prep: PreparedScene) -> ForwardResult:
        """The pass's outputs; NumericError names the first non-finite one:
        the foreground, then each stage's class_probs, iou_score and sp_mask."""
        cfg = self.cfg
        scene = prep.scene
        if prep.layout is None:
            prep.layout = self.backbone.layout(scene)
        f_p = self.backbone(prep.layout)
        fg = self.fg_head(f_p)

        keypoints, f_l = np.empty(0, dtype=np.int64), None
        if cfg.use_local:
            keypoints = aggregation.iterative_candidate_sample(
                scene.positions, fg.value, cfg.agg.beta, cfg.agg.k_cand, cfg.agg.rq
            ).indices
            f_l = self.local(f_p, scene.positions, keypoints)

        pooled = aggregation.superpoint_avg_pool(f_p, prep.partition)
        f_g, s_mask = self.proj(pooled)

        preds = self.decoder.run(f_g if cfg.use_global else None, f_l, s_mask)
        outputs = [("foreground", fg)] + [(f"{name} of decoder stage {i}", getattr(p, name))
                                          for i, p in enumerate(preds)
                                          for name in ("class_probs", "iou_score", "sp_mask")]
        for what, t in outputs:
            if not np.isfinite(t.value).all():
                raise NumericError(f"non-finite {what}")
        return ForwardResult(preds=preds, foreground=fg, keypoints=keypoints)
