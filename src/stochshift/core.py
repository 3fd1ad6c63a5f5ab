"""State geometry shared by all three algorithms.

A *state* is an ordered sample of n points in R^d, carried as an (n, d)
float array whose row order is stable across updates.  All distance work
is done on squared norms (the profile is evaluated at |u|^2 directly, so
no square roots are needed), and points at squared distance >= h^2
contribute exactly zero weight.

When the compiled kernel loads, :func:`objective_value` and
:func:`full_gradient` run in it (``_native.pair_objective`` and
``_native.shift_rows``) and hold O(n) memory; their numpy bodies are the
fallback and the kernel's test reference.

All-pairs work in numpy walks row blocks under one rule: a block
pairing rows of ``a`` (n_a of them) with n_b entries each holds at most
2^22 float64 values (32 MiB), or one row where a single row is longer:
``rows = max(1, min(n_a, 2^22 // n_b))``.  It governs those numpy
bodies, the numpy batch map of ``algorithms._shift_rows``, cluster
linking and ``theory._band_slack``'s numpy body.
:func:`pairwise_sq_blocks` yields such blocks of squared distances from
the cached-norm identity, for kernel weights and cluster linking;
:func:`_diff_sq_rows` gives exact ones from direct coordinate
differences, for geometry compared against thresholds near zero.  The
band scan of ``theory._band_slack``'s numpy body walks them under the
same rule with n_b = m * d (:func:`_diff_sq_blocks`); cluster diameters
(``clustering._diameter``) call :func:`_diff_sq_rows` on blocks of 8
rows, doubling up to that rule's cap.  Memory is thus O(chunk * n)
with chunk * n <= 2^22, a few such blocks at a time, however large n
is; a state of up to 2048 points is a single identity block.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .kernels import Profile, _value, _weight

__all__ = [
    "check_state",
    "check_bandwidth",
    "objective_value",
    "full_gradient",
    "gradient_max_norm",
    "pairwise_sq_blocks",
]

_BLOCK_ENTRIES = 1 << 22  # float64 entries per pairwise block


def _row_blocks(n_a: int, n_b: int):
    """Yield ``(lo, hi)`` row ranges of an n_a x n_b pairwise job.

    The module's one block rule: each block holds at most _BLOCK_ENTRIES
    entries, ``rows = max(1, min(n_a, _BLOCK_ENTRIES // n_b))``.
    """
    rows = max(1, min(n_a, _BLOCK_ENTRIES // max(n_b, 1)))
    for lo in range(0, n_a, rows):
        yield lo, min(lo + rows, n_a)


def _sorted_unique(a) -> np.ndarray:
    """The distinct values of ``a``, ascending, as ``np.unique(a)`` gives them.

    Sorts and keeps each value that differs from the one before.  A plain
    ``np.unique`` asks ``np.ma.is_masked`` first, which imports
    ``numpy.ma``, a module nothing else in a CLI run loads.
    """
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def pairwise_sq_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(lo, hi, sq)`` with sq[r, j] = ||a[lo + r] - b[j]||^2.

    Row blocks of ``a`` follow the module's block rule.  Entries use the
    cached-norm identity ``|a|^2 - 2 a.b + |b|^2`` and are not clipped:
    cancellation can leave tiny negative values, so callers that need
    non-negative distances clip.  Each ``sq`` is a fresh array the caller
    may overwrite.
    """
    sqn_a = np.einsum("ij,ij->i", a, a)
    sqn_b = sqn_a if b is a else np.einsum("ij,ij->i", b, b)
    for lo, hi in _row_blocks(a.shape[0], b.shape[0]):
        sq = a[lo:hi] @ b.T  # built in place: one block-sized array
        sq *= -2.0
        sq += sqn_a[lo:hi, None]
        sq += sqn_b
        yield lo, hi, sq


def _diff_sq_rows(points: np.ndarray, rows) -> np.ndarray:
    """sq[r, j] = ||p[rows][r] - p[j]||^2, exactly, for a slice or index array ``rows``.

    Each entry squares direct coordinate differences, so coincident
    points measure exactly 0 and nothing cancels near a large offset,
    unlike :func:`pairwise_sq_blocks`.  Entries (i, j) and (j, i) are equal.
    """
    diff = points[rows, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _diff_sq_blocks(points: np.ndarray):
    """Yield ``(lo, hi, sq)``: :func:`_diff_sq_rows` of row blocks under the block rule, n_b = m * d."""
    m, d = points.shape
    for lo, hi in _row_blocks(m, m * d):
        yield lo, hi, _diff_sq_rows(points, slice(lo, hi))


_MAX_SQ_NORM = np.finfo(np.float64).max / 4  # largest squared row norm a state may have


def check_state(points) -> np.ndarray:
    """Validate and coerce a sample to a float64 (n, d) array.

    Each row's squared norm must be at most a quarter of the largest
    float64 (about 4.5e307, so coordinates up to about 6.7e153).  The
    distance identity |a|^2 - 2 a.b + |b|^2 and the traced SMS step's
    x_old + new then keep every intermediate below 4 times that bound,
    which is finite.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"state must be an (n, d) array, got ndim={pts.ndim}")
    n, d = pts.shape
    if n < 1 or d < 1:
        raise ValueError(f"state needs n >= 1 and d >= 1, got shape {pts.shape}")
    if not np.all(np.einsum("ij,ij->i", pts, pts) <= _MAX_SQ_NORM):
        raise ValueError("state coordinates must be finite, with squared row norms at most "
                         f"{_MAX_SQ_NORM:.3g} (a quarter of the largest float64)")
    return pts


def check_bandwidth(h) -> float:
    """Validate a bandwidth: h > 0 with h^2 and 1 / h^2 finite and nonzero."""
    h = float(h)
    if not (h > 0.0 and 0.0 < h * h < np.inf and 1.0 / (h * h) < np.inf):
        raise ValueError(f"bandwidth must be positive with h^2 and 1/h^2 finite and nonzero, got {h}")
    return h


def objective_value(points, h, profile: Profile) -> float:
    """Total pairwise kernel affinity over ordered pairs i <= j.

    The n diagonal terms contribute k(0) = 1 each, so the value is
    bounded by n (n + 1) / 2 and attains that bound iff all points
    coincide.  Single-point moves change this by an O(n) amount, which
    is what the iterative algorithms ascend.  When the kernel loads, its
    ``pair_objective`` sums the pairs i < j (row by row, then the rows);
    otherwise the numpy body below does.
    """
    pts = check_state(points)
    h = check_bandwidth(h)
    n = pts.shape[0]
    total = float(n)  # diagonal: n * k(0)
    lib = _native.load()
    if lib is not None:
        return total + _native.pair_objective(lib, pts, h, profile.alpha)
    inv_h2 = 1.0 / (h * h)
    cols = np.arange(n)[None, :]
    for lo, hi, sq in pairwise_sq_blocks(pts, pts):
        vals = _value(profile.alpha, np.clip(sq, 0.0, None) * inv_h2)
        # keep strictly upper-triangular entries of the full matrix
        total += float(vals[cols > np.arange(lo, hi)[:, None]].sum())
    return total


def full_gradient(points, h, profile: Profile) -> np.ndarray:
    """All n partial gradients of the objective, as an (n, d) array.

    Row i is (2 / h^2) sum_{j != i} G(|x_i - x_j|^2 / h^2) (x_j - x_i),
    which equals (2 W / h^2) (S_h(x_i) - x_i) with W the total weight
    including the self term.  When the kernel loads, the second form is
    computed from ``_native.shift_rows`` mapping the state against itself
    (on the cell grid where MS's map uses one), the form the traced SMS
    step takes its gradient norm in; otherwise the first, below.
    """
    pts = check_state(points)
    h = check_bandwidth(h)
    inv_h2 = 1.0 / (h * h)
    lib = _native.load()
    if lib is not None:
        totals = np.empty(pts.shape[0])
        means = _native.shift_rows(lib, pts, pts, h, profile.alpha, totals)
        return (2.0 * inv_h2 * totals)[:, None] * (means - pts)
    grad = np.empty_like(pts)
    for lo, hi, sq in pairwise_sq_blocks(pts, pts):
        np.clip(sq, 0.0, None, out=sq)
        sq *= inv_h2
        w = _weight(profile.alpha, sq)
        w[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        grad[lo:hi] = (2.0 * inv_h2) * (w @ pts - w.sum(axis=1)[:, None] * pts[lo:hi])
    return grad


def gradient_max_norm(grad: np.ndarray) -> float:
    """Row-wise sup norm: max_i ||grad_i||_2 (zero-size input gives 0)."""
    g = np.asarray(grad, dtype=np.float64)
    if g.size == 0:
        return 0.0
    return float(np.sqrt(np.einsum("ij,ij->i", g, g).max()))
