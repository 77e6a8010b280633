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
from .errors import ContractError, at_least, require


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
        require(0 < self.r1 < self.r2, self, "r1", f"in (0, r2 = {self.r2!r})")
        at_least(self, rq=0, cap=1, k_cand=1, width=1)


@dataclass
class CandidateSet:
    indices: np.ndarray  # ordered keypoint point-indices


class ForegroundHead:
    """Per-point foreground probability: linear layer + sigmoid."""

    def __init__(self, store, channels, rng):
        self.lin = ad.Linear(store, "foreground.lin", channels, 1, rng)

    def __call__(self, f_p):
        return ad.sigmoid(self.lin(f_p))


def eligible_points(f, beta):
    """Boolean mask of the points that are confidently foreground, before any
    candidate's rq-ball covers them."""
    return np.asarray(f).ravel() > beta


def iterative_candidate_sample(positions, f, beta, k_cand, rq) -> CandidateSet:
    """Select up to k_cand keypoints: first the highest foreground score, then
    repeatedly the eligible point farthest from all prior picks.

    One distance row per pick updates both the eligibility (eligible_points,
    less each pick's rq-ball, which holds the pick even at rq = 0) and one
    score array: f for the first pick, then the distance to the nearest pick,
    -inf at each pick, where f <= beta or inside the first pick's ball. A
    point a later ball covers keeps its distance, which is below rq * rq
    while an eligible point's is not, so argmax never returns it. Positions
    are finite (SegModel.prepare refuses the rest): no distance is NaN, and
    the running minimum keeps each -inf. The picks go to ad.structure_trace.
    """
    # contiguous once here, so min_sq_dist_to_set copies nothing per pick
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    f = np.asarray(f).ravel()
    ok = eligible_points(f, beta)
    score = np.where(ok, f, -np.inf)
    indices = []
    for _ in range(k_cand):
        if not ok.any():
            break
        pick = int(np.argmax(score))
        d = kernels.min_sq_dist_to_set(positions, np.array([pick], dtype=np.int64))
        ok &= ~(d < rq * rq)
        ok[pick] = False
        if indices:
            np.minimum(score, d, out=score)
            score[pick] = -np.inf
        else:
            score = np.where(ok, d, -np.inf)
        indices.append(pick)
    picks = np.array(indices, dtype=np.int64)
    ad.record_structure(picks)
    return CandidateSet(indices=picks)


class LocalAggregator:
    """Dual-radius neighborhood aggregation around keypoints."""

    def __init__(self, store, channels, cfg: AggregationConfig, rng):
        self.cfg = cfg
        w = cfg.width
        # one MLP shared across keypoints and both radii
        self.point_mlp = ad.MLP(store, "local.point", [channels + 3, w, w], rng)
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
            # each group holds its own keypoint, unless r * r underflows to 0;
            # group_max gives an empty group a zero row
            groups = kernels.sphere_query_lists(keypts, positions, r, cfg.cap)
            flat = np.concatenate(groups)
            rel = np.concatenate([positions[g] - keypts[k] for k, g in enumerate(groups)])
            hidden = self.point_mlp(ad.concat_cols([ad.gather_rows(f_p, flat), ad.constant(rel)]))
            # regroup into per-keypoint row ranges of the flat matrix
            offsets = np.cumsum([0] + [len(g) for g in groups])
            ranges = [np.arange(offsets[k], offsets[k + 1]) for k in range(n_key)]
            summaries.append(ad.group_max(hidden, ranges))
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
        self.mask_mlp = ad.MLP(store, "global.mask", [d, d, d], rng)

    def __call__(self, f_pooled):
        f_g = self.proj(f_pooled)
        s_mask = self.mask_mlp(f_g)
        return f_g, s_mask
