"""Truncated polynomial profiles and the kernels/weights they induce.

A profile is a scalar function ``k(t) = (1 - t)_+ ** alpha`` on t >= 0,
non-increasing and convex on [0, 1] and identically zero beyond 1.  It
induces a radially symmetric kernel ``K(u) = k(|u|^2)`` with compact
support (the unit ball) and a weight function ``G(u) = -k'(|u|^2)`` used
by every mean-shift update.  alpha = 2, 3, 4 give the bi-, tri- and
quadweight kernels; alpha = 1 is the Epanechnikov kernel, whose weight
is uniform (1 inside the unit ball, 0 outside).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Profile",
    "EPANECHNIKOV",
    "BIWEIGHT",
    "TRIWEIGHT",
    "QUADWEIGHT",
    "PROFILE_NAMES",
    "profile_from_name",
    "profile_value",
    "profile_derivative",
]


@dataclass(frozen=True)
class Profile:
    """Truncated power profile k(t) = (1 - t)_+ ** alpha, alpha >= 1."""

    alpha: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, (int, np.integer)) or isinstance(self.alpha, bool):
            raise TypeError(f"alpha must be an integer, got {self.alpha!r}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")

    @property
    def name(self) -> str:
        return {1: "epanechnikov", 2: "biweight", 3: "triweight", 4: "quadweight"}.get(
            self.alpha, f"poly{self.alpha}"
        )

    @property
    def smooth(self) -> bool:
        """True when k is C1 at the truncation point (alpha >= 2).

        The Epanechnikov profile (alpha = 1) has k'(1-) = -1 != 0; checks
        that rely on a C1 objective must be gated on this flag.
        """
        return self.alpha >= 2

    @property
    def weight_at_zero(self) -> float:
        """G(0) = -k'(0) = alpha."""
        return float(self.alpha)


EPANECHNIKOV = Profile(1)
BIWEIGHT = Profile(2)
TRIWEIGHT = Profile(3)
QUADWEIGHT = Profile(4)

_NAME_TO_ALPHA = {
    "epanechnikov": 1,
    "uniform-weight": 1,  # alias: its weight function is the uniform one
    "biweight": 2,
    "triweight": 3,
    "quadweight": 4,
}

PROFILE_NAMES = tuple(_NAME_TO_ALPHA)


def profile_from_name(name: str) -> Profile:
    """Resolve a CLI/config profile name to a Profile."""
    key = name.strip().lower()
    if key in _NAME_TO_ALPHA:
        return Profile(_NAME_TO_ALPHA[key])
    if key.startswith("poly"):
        try:
            return Profile(int(key[4:]))
        except ValueError:
            pass
    raise ValueError(
        f"unknown profile {name!r}; expected one of {', '.join(PROFILE_NAMES)} or polyN"
    )


def _check_t(t):
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("profile argument must be finite")
    if np.any(arr < 0.0):
        raise ValueError("profile argument must be non-negative")
    return arr


def _value(alpha: int, t: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - t, 0.0, None) ** alpha


def _weight(alpha: int, t: np.ndarray) -> np.ndarray:
    """G = -k'(t) = alpha * (1 - t)^(alpha - 1) inside the support, 0 for t >= 1.

    For alpha = 1 the (1 - t)^0 factor must be masked off beyond the support.
    """
    if alpha == 1:
        return np.where(t < 1.0, 1.0, 0.0)
    return float(alpha) * np.clip(1.0 - t, 0.0, None) ** (alpha - 1)


def profile_value(p: Profile, t) -> float | np.ndarray:
    """k(t) = (1 - t)_+ ** alpha, vectorized over t >= 0."""
    arr = _check_t(t)
    out = _value(p.alpha, arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def profile_derivative(p: Profile, t) -> float | np.ndarray:
    """k'(t), with k'(t) = 0 for t >= 1 (value at the kink is the outer one)."""
    arr = _check_t(t)
    out = -_weight(p.alpha, arr)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out
