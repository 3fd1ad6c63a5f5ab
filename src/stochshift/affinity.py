"""Score-matrix SMS for embedding data (speaker embeddings and the like).

Instead of an h-ball, each point's neighbourhood is the set of k others
with the highest entries in an externally supplied similarity matrix
(PLDA scores between utterance embeddings are the typical source).  The
update moves the drawn point onto the unweighted mean of those
neighbours, in the original coordinate space.  The spherical
normalisation pipeline (l2 normalise, PCA projection, whitening, l2
renormalise) prepares raw embeddings for such scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .algorithms import _BLOCK, AlgoConfig, _PySteps, _Recorder, _sms_loop
from .core import _row_blocks, check_state

__all__ = ["PreprocessConfig", "spherical_normalize", "top_score_neighbors", "knn_sms_run"]


@dataclass(frozen=True)
class PreprocessConfig:
    """PCA target dimension and whitening regulariser."""

    target_dim: int
    whiten_epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.target_dim < 1:
            raise ValueError("target_dim must be >= 1")
        if self.whiten_epsilon < 0:
            raise ValueError("whiten_epsilon must be >= 0")


def spherical_normalize(points, cfg: PreprocessConfig) -> np.ndarray:
    """l2-normalise, project on top principal directions, whiten, renormalise.

    Returns an (n, q) array of unit rows.  Principal directions come from
    the SVD of the centred normalised data with a deterministic sign
    convention; eigenvalues are regularised by ``whiten_epsilon`` before
    the inverse square root, and a rank-deficient covariance with a zero
    epsilon raises instructing a positive one.
    """
    pts = check_state(points)
    n, d = pts.shape
    q = cfg.target_dim
    if q > d:
        raise ValueError(f"target_dim {q} exceeds data dimension {d}")
    if n < q:
        raise ValueError(f"need at least target_dim={q} points, got {n}")

    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm input row cannot be normalised")
    unit = pts / norms[:, None]

    centered = unit - unit.mean(axis=0)
    if not np.any(centered):
        raise ValueError("all points identical after normalisation; no principal directions")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    # deterministic sign: largest-magnitude loading of each direction positive
    flip = np.sign(vt[np.arange(vt.shape[0]), np.argmax(np.abs(vt), axis=1)])
    vt = vt * flip[:, None]

    eigvals = svals[:q] ** 2 / max(n - 1, 1)
    if cfg.whiten_epsilon == 0.0 and np.any(eigvals <= n * np.finfo(float).eps * max(eigvals.max(), 1.0)):
        raise ValueError(
            "covariance is rank deficient in the retained subspace; "
            "set a positive whiten_epsilon"
        )
    scores = centered @ vt[:q].T
    whitened = scores / np.sqrt(eigvals + cfg.whiten_epsilon)

    out_norms = np.sqrt(np.einsum("ij,ij->i", whitened, whitened))
    if np.any(out_norms == 0.0):
        raise ValueError("a row collapsed to zero in the whitened subspace")
    return whitened / out_norms[:, None]


def _check_scores(scores, n: int) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != (n, n):
        raise ValueError(f"score matrix must be ({n}, {n}), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("score matrix entries must be finite")
    return s


def top_score_neighbors(scores, k: int) -> np.ndarray:
    """For each column i, the k rows j != i with the highest scores[j, i].

    Ties break toward the lower index.  Returns an (n, k) int array of
    neighbour indices, each row sorted by descending score.  The scores
    and k are checked here; then the compiled kernel
    (``_native.top_k``) ranks the columns when it loads, reading the
    matrix once in place, a strided or transposed view too, and keeping
    each column's k best entries so far in a heap.  Otherwise the numpy
    body, the kernel's fallback and test reference, gives the same table:
    row i of the negated transpose, with +inf in place of the self score,
    ranks column i's scores; ``np.partition`` finds each row's k-th best
    value, and only the entries at or above it are sorted, by (row,
    score, index), so the cost is linear in the matrix and not n log n
    per column.  Rows go in blocks under ``core``'s block rule, so the
    temporaries stay O(chunk * n).
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"score matrix must be a square (n, n) array, got shape {s.shape}")
    n = s.shape[0]
    s = _check_scores(s, n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, n-1] = [1, {n - 1}], got {k}")
    lib = _native.load()
    if lib is not None:
        return _native.top_k(lib, s, k)
    out = np.empty((n, k), dtype=np.int64)
    for lo, hi in _row_blocks(n, n):
        cost = -s[:, lo:hi].T
        cost[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # self last: n - 1 finite entries fill k
        kth = np.partition(cost, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(cost <= kth[:, None])  # at least k per row, in row-major order
        order = np.lexsort((cols, cost[rows, cols], rows))
        starts = np.searchsorted(rows, np.arange(hi - lo))  # the lexsort keeps each row's span
        out[lo:hi] = cols[order][starts[:, None] + np.arange(k)]
    return out


def knn_sms_run(points, scores, k: int, cfg: AlgoConfig):
    """SMS over top-k score neighbourhoods; returns (final_points, RunTrace).

    Draws an index uniformly and moves that point onto the unweighted
    mean of its k best-scoring neighbours (self excluded) under the
    static score matrix.  The stopping rule is the SMS one: every index
    drawn, with a below-tolerance shift, since the last above-tolerance
    shift.  The move has no objective, so a config that traces the
    objective or the gradient is rejected, as is a score matrix that is
    not n x n for the n points.

    The neighbours come from :func:`top_score_neighbors`.  The steps run
    in the compiled kernel (``_native.KnnBlockKernel``) when it loads,
    and on the numpy runner otherwise.  Both sum a point's k neighbour
    rows in order and divide by k (the kernel four columns at a time in
    registers, each column still in row order), so both take the same
    steps to the same bits; only the shifts differ in the last bits, as
    numpy's dot product sums in BLAS's order, so a stop decision can
    differ only for a shift within rounding of the tolerance.
    """
    if cfg.trace_objective or cfg.trace_gradient:
        raise ValueError("knn_sms_run has no objective to trace; "
                         "set trace_objective and trace_gradient to False")
    pts = check_state(points).copy()
    n = pts.shape[0]
    if np.shape(scores) != (n, n):
        raise ValueError(f"score matrix must be ({n}, {n}) for {n} points, got {np.shape(scores)}")
    neighbor_sets = top_score_neighbors(scores, k)
    lib = _native.load()
    if lib is not None:
        steps = _native.KnnBlockKernel(lib, pts, neighbor_sets, cfg.move_tolerance, _BLOCK)
    else:
        def move(i):
            # in index order, as the kernel sums; numpy's mean would sum a (k, 1) gather pairwise
            new = np.cumsum(pts[neighbor_sets[i]], axis=0)[-1] / k
            dx = new - pts[i]
            pts[i] = new
            return math.sqrt(dx @ dx), None, None

        steps = _PySteps(move, n, cfg)
    return _sms_loop(pts, cfg, steps, _Recorder("sms", pts, cfg))
