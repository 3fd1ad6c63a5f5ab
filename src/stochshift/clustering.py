"""Hard partitions from converged positions.

Converged states place points either on top of each other (within a
cluster) or at least a bandwidth apart (across clusters), so clusters
are recovered as connected components of the "closer than a fraction of
h" graph.  Single linkage matches the pairwise-distance form of that
dichotomy directly; the default merge radius h/3 keeps merged clusters
from bridging the h-separation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK_ENTRIES, _diff_sq_rows, _sorted_unique, check_bandwidth, check_state,
                   pairwise_sq_blocks)

__all__ = ["MergePolicy", "Partition", "extract_clusters", "cluster_summary"]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


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
        present = _sorted_unique(ids)
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
    unlabelled point within tau of the current frontier.  Only points in
    cells near the frontier's (:func:`_cell_grid`) are tested, with the
    identity of :func:`core.pairwise_sq_blocks` and sq <= tau^2.  Each
    point is a frontier row exactly once, and no edge is materialised
    even when whole clusters have collapsed onto a point.  Component ids
    follow the order of first appearance (index ascending), so the
    labelling is deterministic and permutations of the input only
    relabel the same set family.
    """
    pos = check_state(final_positions)
    h = check_bandwidth(h)
    n = pos.shape[0]
    tau_sq = (policy.merge_radius_factor * h) ** 2
    cell, members, start, near_cells = _cell_grid(pos, tau_sq)

    ids = np.zeros(n, dtype=np.int64)
    n_clusters = 0
    for root in range(n):
        if ids[root]:
            continue
        n_clusters += 1
        ids[root] = n_clusters
        frontier = np.array([root])
        while frontier.size:
            cells = near_cells(_sorted_unique(cell[frontier]))
            lens = start[cells + 1] - start[cells]  # the cells' member ranges, concatenated
            cand = members[np.repeat(start[cells] + lens - np.cumsum(lens), lens) + np.arange(lens.sum())]
            cand = cand[ids[cand] == 0]
            linked = np.zeros(cand.size, dtype=bool)
            for _, _, sq in pairwise_sq_blocks(pos[frontier], pos[cand]):
                linked |= (sq <= tau_sq).any(axis=0)
            frontier = cand[linked]
            ids[frontier] = n_clusters
    return Partition(assignment=ids, n_clusters=n_clusters)


def _cell_grid(pos: np.ndarray, tau_sq: float):
    """Cells of side above ``reach``, so pairs the identity may link touch.

    The identity is within (4 d + 7) eps M of the exact squared distance,
    M the largest squared row norm, so a pair it puts at sq <= tau^2 is
    under reach = sqrt(tau^2 + err) apart, err twice that bound.  The
    side adds 1e-9 of reach and 1e-12 of the largest coordinate for
    rounding, so cell coordinates stay below 2^42; far from the origin
    err outgrows tau^2 and the cells grow.  The first min(d, 4)
    coordinates are gridded and a cell is numbered in mixed radix mod
    2^64, which is linear, so a wrap can only merge cells.  Returns each
    point's cell, the point indices grouped by cell (index order) with
    group offsets, and ``near_cells(cells)``: the cells touching one of
    ``cells`` whose members' bounding box comes within reach of its box.
    """
    d = pos.shape[1]
    k = min(d, 4)  # at most 3^4 touching cells
    err = 8.0 * (d + 4) * _EPS * float(np.einsum("ij,ij->i", pos, pos).max())
    side = max(math.sqrt(tau_sq + err) * (1.0 + 1e-9) + 1e-12 * float(np.abs(pos).max()), _TINY)
    key = np.floor((pos[:, :k] - pos[:, :k].min(axis=0)) / side).astype(np.int64) + 1
    radix = int(key.max()) + 2  # every key and key +- 1 is a digit in [0, radix)
    weights = np.array([radix**i % 2**64 for i in range(k)], dtype=np.uint64)
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=k)), dtype=np.int64).view(np.uint64) @ weights
    codes, cell = np.unique(key.view(np.uint64) @ weights, return_inverse=True)
    members = np.argsort(cell, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(cell))))
    lo, hi = (f.reduceat(pos[members], start[:-1]) for f in (np.minimum, np.maximum))
    reach_sq = max(side * side, _TINY)

    def near_cells(cells):
        near = codes[cells][:, None] + steps
        at = np.minimum(np.searchsorted(codes, near), codes.size - 1)
        row, col = np.nonzero(codes[at] == near)
        a, b = cells[row], at[row, col]
        gap = np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
        return _sorted_unique(b[np.einsum("ij,ij->i", gap, gap) <= reach_sq])

    return cell, members, start, near_cells


def _diameter(members: np.ndarray) -> float:
    """Largest pairwise distance of a non-empty point set, exactly.

    The maximum of :func:`core._diff_sq_rows`, whose direct differences
    resolve a collapsed cluster's sub-1e-9 spread.  Distinct rows are
    visited in blocks (8 rows, doubling up to the block rule) by
    decreasing distance r to the centroid.  Two unvisited points are at
    most 2 r apart, r the next row's, and their computed square at most
    4 r^2 (1 + 8 (d + 4) eps) plus the smallest normal float, whatever
    the rounding or underflow.  Once that is at most the best square, or
    r is 0, no unvisited pair can raise the maximum.
    """
    m, d = members.shape
    off = members - members.mean(axis=0)
    r = np.sqrt(np.einsum("ij,ij->i", off, off))
    order = np.lexsort((*members.T, -r))  # decreasing r, then duplicate rows dropped
    order = order[np.concatenate(([True], np.diff(members[order], axis=0).any(axis=1)))]
    cap = max(1, _BLOCK_ENTRIES // (m * d))
    best, lo, rows = 0.0, 0, 8
    while lo < order.size:
        r_next = float(r[order[lo]])
        if r_next == 0.0 or 4.0 * r_next * r_next * (1.0 + 8.0 * (d + 4) * _EPS) + _TINY <= best:
            break
        hi = min(order.size, lo + min(rows, cap))
        best = max(best, float(_diff_sq_rows(members, order[lo:hi]).max()))
        lo, rows = hi, 2 * rows
    return math.sqrt(best)


def cluster_summary(positions, partition: Partition) -> list[dict]:
    """Per-cluster size, centroid and diameter (for the JSON export).

    One stable argsort groups the members, each in index order.
    """
    pos = check_state(positions)
    if partition.n != pos.shape[0]:
        raise ValueError(f"partition labels {partition.n} points, but positions have shape {pos.shape}")
    order = np.argsort(partition.assignment, kind="stable")
    out = []
    for cid, idx in enumerate(np.split(order, np.cumsum(partition.sizes())[:-1]), start=1):
        members = pos[idx]
        out.append(
            {
                "cluster_id": cid,
                "size": int(members.shape[0]),
                "centroid": [float(c) for c in members.mean(axis=0)],
                "diameter": _diameter(members),
            }
        )
    return out
