"""State geometry shared by all three algorithms.

A *state* is an ordered sample of n points in R^d, carried as an (n, d)
float array whose row order is stable across updates.  All distance work
is done on squared norms (the profile is evaluated at |u|^2 directly, so
no square roots are needed), and points at squared distance >= h^2
contribute exactly zero weight.

All-pairs work in the package walks row blocks under one rule: a block
pairing rows of ``a`` (n_a of them) with n_b entries each holds at most
2^22 float64 values (32 MiB), or one row where a single row is longer:
``rows = max(1, min(n_a, 2^22 // n_b))``.
:func:`pairwise_sq_blocks` yields such blocks of squared distances, and
cluster diameters use the same rule with n_b = m * d coordinate
differences.  Memory is thus O(chunk * n) with chunk * n <= 2^22, a few
such blocks at a time, however large n is; a state of up to 2048 points
is a single block.
"""

from __future__ import annotations

import numpy as np

from .kernels import Profile, _value, _weight

__all__ = [
    "check_state",
    "check_bandwidth",
    "neighborhood",
    "mean_shift_operator",
    "objective_value",
    "partial_gradient",
    "full_gradient",
    "gradient_max_norm",
    "kde_value",
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


def check_state(points) -> np.ndarray:
    """Validate and coerce a sample to a float64 (n, d) array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"state must be an (n, d) array, got ndim={pts.ndim}")
    n, d = pts.shape
    if n < 1 or d < 1:
        raise ValueError(f"state needs n >= 1 and d >= 1, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("state coordinates must be finite")
    return pts


def check_bandwidth(h) -> float:
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"bandwidth must be a positive finite real, got {h}")
    return h


def _query(x, points) -> tuple[np.ndarray, np.ndarray]:
    pts = check_state(points)
    xq = np.asarray(x, dtype=np.float64).reshape(-1)
    if xq.shape[0] != pts.shape[1]:
        raise ValueError(f"query has dimension {xq.shape[0]}, state has {pts.shape[1]}")
    if not np.all(np.isfinite(xq)):
        raise ValueError("query coordinates must be finite")
    return xq, pts


def _sq_dists(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    diff = pts - x
    return np.einsum("ij,ij->i", diff, diff)


def neighborhood(x, points, h) -> np.ndarray:
    """Indices i with ||x - x_i|| < h (strict), as a sorted int array."""
    xq, pts = _query(x, points)
    h = check_bandwidth(h)
    return np.flatnonzero(_sq_dists(xq, pts) < h * h)


def mean_shift_operator(x, points, h, profile: Profile) -> np.ndarray:
    """Map x to the G-weighted average of the sample within its h-ball.

    Queries with an empty neighborhood (possible only for probe points
    that are not themselves part of the sample) are their own fixed
    point: x is returned unchanged.  :func:`neighborhood` returns no
    index in that case.
    """
    xq, pts = _query(x, points)
    h = check_bandwidth(h)
    t = _sq_dists(xq, pts) / (h * h)
    w = _weight(profile.alpha, t)
    total = w.sum()
    if total <= 0.0:
        return xq.copy()
    return (w @ pts) / total


def objective_value(points, h, profile: Profile) -> float:
    """Total pairwise kernel affinity over ordered pairs i <= j.

    The n diagonal terms contribute k(0) = 1 each, so the value is
    bounded by n (n + 1) / 2 and attains that bound iff all points
    coincide.  Single-point moves change this by an O(n) amount, which
    is what the iterative algorithms ascend.
    """
    pts = check_state(points)
    h = check_bandwidth(h)
    n = pts.shape[0]
    inv_h2 = 1.0 / (h * h)
    total = float(n)  # diagonal: n * k(0)
    cols = np.arange(n)[None, :]
    for lo, hi, sq in pairwise_sq_blocks(pts, pts):
        vals = _value(profile.alpha, np.clip(sq, 0.0, None) * inv_h2)
        # keep strictly upper-triangular entries of the full matrix
        total += float(vals[cols > np.arange(lo, hi)[:, None]].sum())
    return total


def partial_gradient(points, h, profile: Profile, i: int) -> np.ndarray:
    """Gradient of the pairwise affinity with respect to point i.

    Equals (2 / h^2) * sum_{j != i} G((x_i - x_j) / h) (x_j - x_i), and
    satisfies the identity grad_i = (2 W / h^2) (S_h(x_i) - x_i) with W
    the total neighbourhood weight including the self term.
    """
    pts = check_state(points)
    h = check_bandwidth(h)
    n = pts.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"point index {i} out of range for n={n}")
    diff = pts - pts[i]
    t = np.einsum("ij,ij->i", diff, diff) / (h * h)
    w = _weight(profile.alpha, t)
    w[i] = 0.0
    return (2.0 / (h * h)) * (w @ diff)


def full_gradient(points, h, profile: Profile) -> np.ndarray:
    """All n partial gradients, as an (n, d) array."""
    pts = check_state(points)
    h = check_bandwidth(h)
    inv_h2 = 1.0 / (h * h)
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


def kde_value(x, points, h, profile: Profile) -> float:
    """Kernel density estimate at x, up to the kernel's mass constant.

    Profiles are not normalised to integrate to one (the algorithms only
    use ratios of weights), so this is (1 / (n h^d)) sum_i K((x-x_i)/h)
    with K(0) = 1.
    """
    xq, pts = _query(x, points)
    h = check_bandwidth(h)
    n, d = pts.shape
    vals = _value(profile.alpha, _sq_dists(xq, pts) / (h * h))
    return float(vals.sum()) / (n * h**d)
