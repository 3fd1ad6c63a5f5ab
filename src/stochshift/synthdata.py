"""Seeded Gaussian-mixture generators for the experiment presets.

Sets 1-4 are the fixed three-component 2-D mixtures (means [1,1],
[-1,-1], [1,-1], isotropic covariance 0.64 I, sizes per set); the sweep
presets (complexity, imbalance, dimension, cluster count) use
covariance 0.6 I and ~250 points per component.  Sampling is PCG64 plus
numpy's ziggurat normal transform, so a spec reproduces bit-identically
for a given numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _sorted_unique

__all__ = ["GmmSpec", "LabeledDataset", "generate", "preset", "parse_preset", "PRESET_KINDS", "MAX_COORDINATES"]

_SET_MEANS = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
_SET_SIZES = {
    "set1": (250, 250, 250),
    "set2": (50, 50, 50),
    "set3": (1500, 1500, 1500),
    "set4": (100, 300, 50),
}
_SWEEP_COV = 0.6
_SWEEP_SIZE = 250
# sub-stream key for drawing random component means, kept distinct from
# the sample stream that uses the bare seed
_MEANS_STREAM = 1

# most coordinates (n * d) a preset may draw: 512 MiB of float64
MAX_COORDINATES = 1 << 26

PRESET_KINDS = ("set1", "set2", "set3", "set4", "complexity", "imbalance", "dim", "numclusters")


@dataclass(frozen=True)
class GmmSpec:
    """Isotropic Gaussian mixture: covariance = covariance_scale * I_d."""

    means: np.ndarray
    covariance_scale: float
    sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        m = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("means must be a finite (R, d) array")
        if len(self.sizes) != m.shape[0]:
            raise ValueError("one size per component required")
        if any(s < 1 for s in self.sizes):
            raise ValueError("component sizes must be >= 1")
        if self.covariance_scale < 0 or not np.isfinite(self.covariance_scale):
            raise ValueError("covariance_scale must be a non-negative finite real")

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    spec: GmmSpec | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_labels(self) -> int:
        return int(_sorted_unique(self.labels).size)


def generate(spec: GmmSpec) -> LabeledDataset:
    """Draw the mixture sample; component r gets label r+1 (1-based)."""
    rng = np.random.default_rng(spec.seed)
    std = float(np.sqrt(spec.covariance_scale))
    blocks = []
    labels = []
    for r, size in enumerate(spec.sizes):
        blocks.append(spec.means[r] + std * rng.standard_normal((size, spec.dim)))
        labels.append(np.full(size, r + 1, dtype=np.int64))
    return LabeledDataset(np.vstack(blocks), np.concatenate(labels), spec)


def preset(name: str, value: float | int | None = None, seed: int = 0) -> GmmSpec:
    """Named experiment preset.

    ``set1`` .. ``set4`` take no value; ``complexity`` takes the
    per-component size, ``imbalance`` the size ratio applied to the
    first component, ``dim`` the sample dimension and ``numclusters``
    the number of components.  Random means in the dim/numclusters
    sweeps come from the preset's own seeded sub-stream, so the returned
    spec is fully determined by (name, value, seed).  Raises ValueError,
    before drawing anything, when the sample would hold more than
    ``MAX_COORDINATES`` coordinates.
    """
    kind = name.strip().lower()
    if kind in _SET_SIZES:
        if value is not None:
            raise ValueError(f"preset {kind!r} takes no parameter")
        return GmmSpec(np.array(_SET_MEANS), 0.64, _SET_SIZES[kind], seed)

    if kind == "complexity":
        m = int(_required(kind, value))
        if m < 1:
            raise ValueError("complexity preset needs a per-component size >= 1")
        _check_size(3 * m, 2)
        return GmmSpec(np.array(_SET_MEANS), _SWEEP_COV, (m, m, m), seed)

    if kind == "imbalance":
        ratio = float(_required(kind, value))
        if not (ratio > 0 and np.isfinite(ratio)):
            raise ValueError(f"imbalance ratio must be a positive finite real, got {ratio}")
        _check_size(_SWEEP_SIZE * ratio + 2 * _SWEEP_SIZE, 2)
        first = max(1, round(_SWEEP_SIZE * ratio))
        return GmmSpec(np.array(_SET_MEANS), _SWEEP_COV, (first, _SWEEP_SIZE, _SWEEP_SIZE), seed)

    if kind == "dim":
        d = int(_required(kind, value))
        if d < 1:
            raise ValueError("dimension must be >= 1")
        _check_size(3 * _SWEEP_SIZE, d)
        rng = np.random.default_rng([seed, _MEANS_STREAM])
        means = rng.choice([-1.0, 1.0], size=(3, d))
        return GmmSpec(means, _SWEEP_COV, (_SWEEP_SIZE,) * 3, seed)

    if kind == "numclusters":
        r = int(_required(kind, value))
        if r < 1:
            raise ValueError("number of clusters must be >= 1")
        _check_size(r * _SWEEP_SIZE, 2)
        rng = np.random.default_rng([seed, _MEANS_STREAM])
        lo, hi = -(r // 2), r // 2
        means = rng.integers(lo, hi + 1, size=(r, 2)).astype(np.float64)
        return GmmSpec(means, _SWEEP_COV, (_SWEEP_SIZE,) * r, seed)

    raise ValueError(f"unknown preset {name!r}; expected one of {', '.join(PRESET_KINDS)}")


def _check_size(n: float, d: int) -> None:
    if n * d > MAX_COORDINATES:
        raise ValueError(f"preset would draw {n:.6g} x {d} coordinates, more than {MAX_COORDINATES}")


def _required(kind: str, value):
    if value is None:
        raise ValueError(f"preset {kind!r} requires a parameter, e.g. {kind}:100")
    return value


def parse_preset(text: str, seed: int = 0) -> GmmSpec:
    """Parse a CLI preset spelling like ``set1`` or ``complexity:100``."""
    if ":" not in text:
        return preset(text, None, seed)
    kind, raw = text.split(":", 1)
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"preset parameter {raw!r} is not a number") from None
    if kind.strip().lower() != "imbalance":
        if not value.is_integer():
            raise ValueError(f"preset {kind!r} needs an integer parameter, got {raw}")
        value = int(value)
    return preset(kind, value, seed)
