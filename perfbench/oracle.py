"""Reference computations for the benchmark's output checks.

Nothing here imports stochshift.  Each function is written from the
documented definitions (README of the package) with plain numpy and
direct coordinate differences, so a check that compares the program's
output with these values does not share code, or a distance formula,
with what it checks.
"""

from __future__ import annotations

import math

import numpy as np

# rows per block of pairwise work: keeps a block's difference tensor near 16 MB
_BLOCK_ELEMS = 1 << 21


def _row_blocks(n_rows: int, n_cols: int, d: int):
    step = max(1, _BLOCK_ELEMS // max(1, n_cols * d))
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def sq_dists(a: np.ndarray, b: np.ndarray):
    """Yield (lo, hi, squared distances of a[lo:hi] to every row of b)."""
    for lo, hi in _row_blocks(a.shape[0], b.shape[0], a.shape[1]):
        diff = a[lo:hi, None, :] - b[None, :, :]
        yield lo, hi, np.einsum("ijk,ijk->ij", diff, diff)


def weight(alpha: int, t: np.ndarray) -> np.ndarray:
    """G = -k'(t) for k(t) = (1 - t)_+^alpha; uniform on t < 1 for alpha = 1."""
    if alpha == 1:
        return (t < 1.0).astype(np.float64)
    return alpha * np.clip(1.0 - t, 0.0, None) ** (alpha - 1)


def single_linkage(points: np.ndarray, radius: float) -> np.ndarray:
    """Components of the graph joining pairs at distance <= radius.

    Union-find with union by smallest root and path compression, one
    row of neighbours at a time.  Ids run from 1 in order of first
    appearance.
    """
    n = points.shape[0]
    parent = np.arange(n)

    def roots(idx):
        r = parent[idx]
        while True:
            up = parent[r]
            if np.array_equal(up, r):
                return r
            r = up

    r2 = radius * radius
    for lo, _, sq in sq_dists(points, points):
        for row in range(sq.shape[0]):
            nb = np.flatnonzero(sq[row] <= r2)
            rs = np.unique(roots(nb))
            parent[rs] = rs[0]
            parent[nb] = rs[0]
    final = roots(np.arange(n))
    _, first, inverse = np.unique(final, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, first.size + 1)
    return rank[inverse]


def displacements(queries: np.ndarray, sample: np.ndarray, h: float, alpha: int) -> np.ndarray:
    """|m(x) - x| for each query x, m the mean-shift operator on `sample`.

    A query with no sample point in its support does not move (0).
    """
    out = np.empty(queries.shape[0])
    for lo, hi, sq in sq_dists(queries, sample):
        w = weight(alpha, sq / (h * h))
        tot = w.sum(axis=1)
        safe = np.where(tot > 0.0, tot, 1.0)
        moved = (w @ sample) / safe[:, None]
        moved[tot <= 0.0] = queries[lo:hi][tot <= 0.0]
        diff = moved - queries[lo:hi]
        out[lo:hi] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def objective(points: np.ndarray, h: float, alpha: int) -> float:
    """Sum over pairs i <= j of k(|x_i - x_j|^2 / h^2), diagonal included."""
    total = 0.0
    for lo, hi, sq in sq_dists(points, points):
        vals = np.clip(1.0 - sq / (h * h), 0.0, None) ** alpha
        rows = np.arange(lo, hi)[:, None]
        cols = np.arange(points.shape[0])[None, :]
        total += float(vals[cols >= rows].sum())
    return total


def scores(assignment, labels) -> dict:
    """ACP, ALP, K, both purities and G from the cluster x label counts."""
    _, q = np.unique(np.asarray(assignment), return_inverse=True)
    _, r = np.unique(np.asarray(labels), return_inverse=True)
    counts = np.zeros((q.max() + 1, r.max() + 1))
    np.add.at(counts, (q, r), 1.0)
    total = counts.sum()
    rows = counts / counts.sum(axis=1, keepdims=True)
    cols = counts / counts.sum(axis=0, keepdims=True)
    acp = float((rows * rows).sum()) / counts.shape[0]
    alp = float((cols * cols).sum()) / counts.shape[1]
    pur_cd = float(counts.max(axis=1).sum()) / total
    pur_dc = float(counts.max(axis=0).sum()) / total
    return {
        "acp": acp,
        "alp": alp,
        "k": math.sqrt(acp * alp),
        "pur_cd": pur_cd,
        "pur_dc": pur_dc,
        "g": math.sqrt(pur_cd * pur_dc),
        "num_clusters": int(counts.shape[0]),
        "n": int(total),
    }


def cluster_stats(points: np.ndarray, assignment: np.ndarray) -> list[dict]:
    """Size, centroid and diameter (largest pairwise distance) per cluster id."""
    out = []
    for cid in range(1, int(assignment.max()) + 1):
        members = points[assignment == cid]
        diam2 = 0.0
        for _, _, sq in sq_dists(members, members):
            diam2 = max(diam2, float(sq.max()))
        out.append(
            {
                "cluster_id": cid,
                "size": int(members.shape[0]),
                "centroid": members.mean(axis=0),
                "diameter": math.sqrt(diam2),
            }
        )
    return out


def top_k(score_matrix: np.ndarray, k: int) -> np.ndarray:
    """Row i: the k indices j != i with the highest score[j, i].

    Ordered by descending score, ties to the lower index.
    """
    n = score_matrix.shape[0]
    idx = np.arange(n)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        order = np.lexsort((idx, -score_matrix[:, i]))
        out[i] = order[order != i][:k]
    return out


def reference_sms(
    points: np.ndarray,
    h: float,
    alpha: int,
    seed: int,
    tol: float = 1e-6,
    stop_fraction: float = 0.99,
    max_updates: int = 10_000_000,
):
    """Plain SMS loop from the documented rules; returns (final, updates, reason).

    Indices are scalar draws of numpy's Generator(PCG64(seed)).integers(n).
    The drawn point moves to the weighted mean of the current state
    (itself included).  The run stops once ceil(stop_fraction * n) points
    have a last shift below tol and every index has been drawn since the
    last shift at or above tol.
    """
    pts = np.array(points, dtype=np.float64)
    n = pts.shape[0]
    gen = np.random.Generator(np.random.PCG64(seed))
    target = math.ceil(stop_fraction * n)
    last_small = np.zeros(n, dtype=bool)
    seen_since_big = np.zeros(n, dtype=bool)
    n_seen = 0
    for k in range(1, max_updates + 1):
        i = int(gen.integers(n))
        diff = pts - pts[i]
        w = weight(alpha, np.einsum("ij,ij->i", diff, diff) / (h * h))
        new = (w @ pts) / w.sum()
        step = new - pts[i]
        shift = math.sqrt(float(step @ step))
        pts[i] = new
        if shift < tol:
            last_small[i] = True
            if not seen_since_big[i]:
                seen_since_big[i] = True
                n_seen += 1
            if n_seen == n and int(last_small.sum()) >= target:
                return pts, k, "converged"
        else:
            last_small[i] = False
            if n_seen:
                seen_since_big[:] = False
                n_seen = 0
    return pts, max_updates, "max_updates"
