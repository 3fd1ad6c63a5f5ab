"""Hard partitions from converged positions.

Converged states place points either on top of each other (within a
cluster) or at least a bandwidth apart (across clusters), so clusters
are recovered as connected components of the "closer than a fraction of
h" graph.  Single linkage matches the pairwise-distance form of that
dichotomy directly; the default merge radius h/3 keeps merged clusters
from bridging the h-separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _diff_sq_blocks, check_bandwidth, check_state, pairwise_sq_blocks

__all__ = ["MergePolicy", "Partition", "extract_clusters", "cluster_summary"]


@dataclass(frozen=True)
class MergePolicy:
    """Linkage radius as a fraction of the bandwidth (tau = factor * h)."""

    merge_radius_factor: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        f = self.merge_radius_factor
        if not (0.0 < f < 0.5):
            raise ValueError(f"merge_radius_factor must lie in (0, 0.5), got {f}")


@dataclass(frozen=True)
class Partition:
    """Cluster ids (contiguous from 1) for each of the n input indices."""

    assignment: np.ndarray
    n_clusters: int

    def __post_init__(self) -> None:
        ids = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", ids)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("assignment must be a non-empty 1-D array")
        present = np.unique(ids)
        if present[0] != 1 or present[-1] != self.n_clusters or present.size != self.n_clusters:
            raise ValueError("cluster ids must be exactly 1..n_clusters")

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters + 1)[1:]


def extract_clusters(final_positions, h, policy: MergePolicy = MergePolicy()) -> Partition:
    """Connected components of the graph linking pairs within factor * h.

    Components are grown by breadth-first search: the lowest unlabelled
    index starts the next component, and each round labels every
    unlabelled point within tau of the current frontier, found from
    row blocks of frontier-to-state squared distances.  Each point is a
    frontier row exactly once, and no edge is materialised even when
    whole clusters have collapsed onto a point.  Component ids follow
    the order of first appearance (index ascending), so the labelling is
    deterministic and permutations of the input only relabel the same
    set family.
    """
    pos = check_state(final_positions)
    h = check_bandwidth(h)
    n = pos.shape[0]
    tau_sq = (policy.merge_radius_factor * h) ** 2

    ids = np.zeros(n, dtype=np.int64)
    n_clusters = 0
    for root in range(n):
        if ids[root]:
            continue
        n_clusters += 1
        ids[root] = n_clusters
        frontier = np.array([root])
        while frontier.size:
            near = np.zeros(n, dtype=bool)
            for _, _, sq in pairwise_sq_blocks(pos[frontier], pos):
                near |= (sq <= tau_sq).any(axis=0)
            frontier = np.flatnonzero(near & (ids == 0))
            ids[frontier] = n_clusters
    return Partition(assignment=ids, n_clusters=n_clusters)


def _diameter(members: np.ndarray) -> float:
    """Largest pairwise distance of a non-empty point set, exactly.

    Takes the maximum over :func:`core._diff_sq_blocks`, whose direct
    coordinate differences resolve the sub-1e-9 spread of a collapsed
    cluster that the norm identity's cancellation would swamp.
    """
    return math.sqrt(max(float(sq.max()) for _, _, sq in _diff_sq_blocks(members)))


def cluster_summary(positions, partition: Partition) -> list[dict]:
    """Per-cluster size, centroid and diameter (for the JSON export)."""
    pos = check_state(positions)
    if partition.n != pos.shape[0]:
        raise ValueError(f"partition labels {partition.n} points, but positions have shape {pos.shape}")
    out = []
    for cid in range(1, partition.n_clusters + 1):
        members = pos[partition.assignment == cid]
        diam = _diameter(members) if len(members) else 0.0
        out.append(
            {
                "cluster_id": cid,
                "size": int(members.shape[0]),
                "centroid": [float(c) for c in members.mean(axis=0)],
                "diameter": diam,
            }
        )
    return out
