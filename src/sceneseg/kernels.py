"""Geometric hot loops: distance rows and sphere queries.

Pure numpy, one distance row per step; ties always go to the lowest index.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def _sq_dists(positions, center):
    """dx * dx + dy * dy + dz * dz, summed in that order in two arrays."""
    d = positions[:, 0] - center[0]
    d *= d
    t = positions[:, 1] - center[1]
    t *= t
    d += t
    np.subtract(positions[:, 2], center[2], out=t)
    t *= t
    d += t
    return d


def min_sq_dist_to_set(positions, indices):
    """Per-point squared distance to the closest of the listed points."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return np.full(positions.shape[0], np.inf)
    mind = _sq_dists(positions, positions[indices[0]])
    for c in indices[1:]:
        np.minimum(mind, _sq_dists(positions, positions[c]), out=mind)
    return mind


def sphere_query_lists(keypoints, positions, r, cap):
    """Per keypoint, the indices of points with distance < r of it, capped to
    the nearest `cap` (ties to the lowest index), in ascending index order."""
    if r <= 0:
        raise ContractError("sphere_query radius must be positive")
    keypoints = np.ascontiguousarray(keypoints, dtype=np.float64).reshape(-1, 3)
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    try:
        r2 = float(r) ** 2
    except OverflowError:  # every point is in range; the cap keeps the nearest
        r2 = np.inf
    groups = []
    for key in keypoints:
        d2 = _sq_dists(positions, key)
        hits = np.flatnonzero(d2 < r2)
        if len(hits) > cap:
            hits = np.sort(hits[np.argsort(d2[hits], kind="stable")[:cap]])
        groups.append(hits)
    return groups
