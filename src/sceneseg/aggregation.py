"""The two parallel feature branches.

Local branch: foreground scoring, iterative candidate filtering, farthest
point sampling and dual-radius sphere queries feeding a shared point MLP with
max pooling, producing one feature row per keypoint.

Global branch: superpoint average pooling of the backbone features plus the
projections that yield the decoder's superpoint features and mask features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .errors import ContractError


@dataclass
class AggregationConfig:
    r1: float = 0.2
    r2: float = 0.4
    rq: float = 0.3
    beta: float = 0.3
    cap: int = 32
    k_cand: int = 32
    width: int = 32  # local feature width (columns of the keypoint features)

    def __post_init__(self):
        if not 0 < self.r1 < self.r2:
            raise ContractError("need 0 < r1 < r2")


@dataclass
class CandidateSet:
    indices: np.ndarray  # ordered keypoint point-indices
    coverage: np.ndarray  # n_cand x N bool, rq-ball membership per candidate


class ForegroundHead:
    """Per-point foreground probability: linear layer + sigmoid."""

    def __init__(self, store, channels, rng):
        self.lin = ad.Linear(store, "foreground.lin", channels, 1, rng)

    def __call__(self, f_p):
        return ad.sigmoid(self.lin(f_p))


def eligible_points(f, candidates: CandidateSet | None, beta):
    """Boolean mask of points that are confidently foreground and not covered
    by any already-selected candidate's rq-ball."""
    f = np.asarray(f).ravel()
    ok = f > beta
    if candidates is not None and len(candidates.indices):
        ok &= ~candidates.coverage.any(axis=0)
    return ok


def iterative_candidate_sample(positions, f, beta, k_cand, rq) -> CandidateSet:
    """Select up to k_cand keypoints: first the highest foreground score, then
    repeatedly the eligible point farthest from all prior picks.

    One distance row per pick keeps both the running distance to the picks
    and the running eligibility (eligible_points, updated incrementally).
    """
    if k_cand < 1:
        raise ContractError("k_cand must be >= 1")
    positions = np.asarray(positions, dtype=np.float64)
    f = np.asarray(f).ravel()
    ok = eligible_points(f, None, beta)
    nearest = None  # squared distance to the closest pick so far
    indices, balls = [], []
    for _ in range(k_cand):
        if not ok.any():
            break
        pick = int(np.argmax(np.where(ok, f if nearest is None else nearest, -np.inf)))
        d = kernels.min_sq_dist_to_set(positions, np.array([pick], dtype=np.int64))
        nearest = d if nearest is None else np.minimum(nearest, d)
        ball = d < rq * rq
        ok &= ~ball
        indices.append(pick)
        balls.append(ball)
    coverage = np.array(balls) if balls else np.zeros((0, len(f)), dtype=bool)
    return CandidateSet(indices=np.array(indices, dtype=np.int64), coverage=coverage)


class LocalAggregator:
    """Dual-radius neighborhood aggregation around keypoints."""

    def __init__(self, store, channels, cfg: AggregationConfig, rng):
        self.cfg = cfg
        w = cfg.width
        # one MLP shared across keypoints and both radii
        self.point_mlp = ad.MLP(store, "local.point", [channels + 3, w, w], ["relu", "none"], rng)
        self.out = ad.Linear(store, "local.out", 2 * w, w, rng)

    def __call__(self, f_p, positions, keypoint_idx):
        """Feature rows for each keypoint (n_key x width); n_key may be 0."""
        cfg = self.cfg
        keypoint_idx = np.asarray(keypoint_idx, dtype=np.int64)
        n_key = len(keypoint_idx)
        if n_key == 0:
            return ad.constant(np.zeros((0, cfg.width)))
        keypts = positions[keypoint_idx]
        summaries = []
        for r in (cfg.r1, cfg.r2):
            groups = kernels.sphere_query_lists(keypts, positions, r, cfg.cap)
            flat = np.concatenate(groups) if any(len(g) for g in groups) else np.empty(0, np.int64)
            if len(flat):
                rel = np.concatenate(
                    [positions[g] - keypts[k] for k, g in enumerate(groups) if len(g)]
                )
                gathered = ad.concat_cols([ad.gather_rows(f_p, flat), ad.constant(rel)])
                hidden = self.point_mlp(gathered)
                # regroup into per-keypoint row ranges of the flat matrix
                offsets = np.cumsum([0] + [len(g) for g in groups])
                ranges = [np.arange(offsets[k], offsets[k + 1]) for k in range(n_key)]
                summaries.append(ad.group_max(hidden, ranges, width=cfg.width))
            else:
                summaries.append(ad.constant(np.zeros((n_key, cfg.width))))
        return self.out(ad.concat_cols(summaries))


def superpoint_avg_pool(f_p, partition):
    """Mean of member point features per superpoint (gradient splits 1/|s|)."""
    if partition.assignment.shape[0] != f_p.shape[0]:
        raise ContractError("partition inconsistent with feature rows")
    return ad.segment_mean(f_p, partition.assignment, partition.n_superpoints)


class GlobalProjector:
    """F_pooled -> superpoint features and mask features, both of width d."""

    def __init__(self, store, channels, d, rng):
        self.proj = ad.Linear(store, "global.proj", channels, d, rng)
        self.mask_mlp = ad.MLP(store, "global.mask", [d, d, d], ["relu", "none"], rng)

    def __call__(self, f_pooled):
        f_g = self.proj(f_pooled)
        s_mask = self.mask_mlp(f_g)
        return f_g, s_mask
