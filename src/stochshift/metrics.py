"""External clustering evaluation against ground-truth labels.

All five scores are computed from the contingency table n_qr counting
points of cluster q with label r: the purity pair and its geometric
mean, and the average cluster/label purities (mean squared conditional
masses with uniform priors over clusters resp. labels) with their
geometric mean.  Every score lies in (0, 1] and equals 1 exactly for
permutation-like tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .clustering import Partition

__all__ = [
    "ContingencyTable",
    "contingency",
    "purity_cd",
    "purity_dc",
    "g_score",
    "acp",
    "alp",
    "k_score",
    "metrics_report",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Q x R counts n_qr; no all-zero row or column, total N >= 1."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim != 2 or c.size == 0:
            raise ValueError("counts must be a non-empty 2-D array")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        if c.sum() < 1:
            raise ValueError("table must contain at least one point")
        if np.any(c.sum(axis=1) == 0) or np.any(c.sum(axis=0) == 0):
            raise ValueError("table must have no all-zero row or column")

    @property
    def n_clusters(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_labels(self) -> int:
        return int(self.counts.shape[1])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def contingency(partition, labels) -> ContingencyTable:
    """Tabulate cluster-vs-label counts, compacting empty rows/columns.

    ``partition`` is a :class:`Partition` or any integer id sequence;
    ``labels`` is an integer id sequence of the same length.  Ids need
    not be contiguous; they are compacted in ascending id order.
    """
    ids = partition.assignment if isinstance(partition, Partition) else np.asarray(partition)
    labs = np.asarray(labels)
    if ids.ndim != 1 or labs.ndim != 1:
        raise ValueError("partition and labels must be 1-D")
    if ids.shape[0] != labs.shape[0]:
        raise ValueError(f"length mismatch: {ids.shape[0]} assignments vs {labs.shape[0]} labels")
    _, qi = np.unique(ids, return_inverse=True)
    _, ri = np.unique(labs, return_inverse=True)
    counts = np.zeros((qi.max() + 1, ri.max() + 1), dtype=np.int64)
    np.add.at(counts, (qi, ri), 1)
    return ContingencyTable(counts)


def purity_cd(t: ContingencyTable) -> float:
    """Cluster purity: best per-cluster majority rate, (1/N) sum_q max_r n_qr."""
    return float(t.counts.max(axis=1).sum()) / t.total


def purity_dc(t: ContingencyTable) -> float:
    """Label purity: (1/N) sum_r max_q n_qr."""
    return float(t.counts.max(axis=0).sum()) / t.total


def g_score(t: ContingencyTable) -> float:
    """Geometric mean of the purity pair."""
    return sqrt(purity_cd(t) * purity_dc(t))


def acp(t: ContingencyTable) -> float:
    """Average cluster purity: mean over clusters of sum_r P(d_r|c_q)^2."""
    rows = t.counts / t.counts.sum(axis=1, keepdims=True)
    return float(np.einsum("qr,qr->", rows, rows)) / t.n_clusters


def alp(t: ContingencyTable) -> float:
    """Average label purity: mean over labels of sum_q P(c_q|d_r)^2."""
    cols = t.counts / t.counts.sum(axis=0, keepdims=True)
    return float(np.einsum("qr,qr->", cols, cols)) / t.n_labels


def k_score(t: ContingencyTable) -> float:
    """Geometric mean of average cluster and label purity."""
    return sqrt(acp(t) * alp(t))


def metrics_report(partition, labels) -> dict:
    """All scores as the JSON report payload."""
    t = contingency(partition, labels)
    return {
        "acp": acp(t),
        "alp": alp(t),
        "k": k_score(t),
        "pur_cd": purity_cd(t),
        "pur_dc": purity_dc(t),
        "g": g_score(t),
        "num_clusters": t.n_clusters,
        "n": t.total,
    }
