"""Wall-clock complexity benchmark and metric sweeps.

The benchmark times each algorithm to convergence on the three-component
complexity preset at increasing per-component sizes, takes medians over
repetitions on a monotonic clock (one warm-up run excluded), and fits a
least-squares slope on log(median time) versus log(n).  Cells whose runs
exceed the timeout are recorded as censored and excluded from the fit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algorithms import ALGORITHMS, AlgoConfig, run
from .clustering import MergePolicy
from .core import check_bandwidth
from .experiments import index_seed, replicate_preset, summarize
from .kernels import EPANECHNIKOV, Profile
from .synthdata import generate, parse_preset, preset

__all__ = ["BenchCell", "BenchResult", "run_benchmark", "run_sweep", "SWEEP_KINDS"]

SWEEP_KINDS = ("imbalance", "dimension", "num_clusters")
_SWEEP_PRESET = {"imbalance": "imbalance", "dimension": "dim", "num_clusters": "numclusters"}


@dataclass
class BenchCell:
    algorithm: str
    per_cluster: int
    n: int
    median: float
    q05: float
    q95: float
    censored: bool
    times: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "per_cluster": self.per_cluster,
            "n": self.n,
            "median_seconds": self.median,
            "q05_seconds": self.q05,
            "q95_seconds": self.q95,
            "censored": self.censored,
            "times": [float(t) for t in self.times],
        }


@dataclass
class BenchResult:
    cells: list[BenchCell]
    slopes: dict[str, float]
    repetitions: int
    seed: int
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "repetitions": self.repetitions,
            "seed": self.seed,
            "slopes": {k: float(v) for k, v in self.slopes.items()},
            "cells": [c.to_json_dict() for c in self.cells],
            "warnings": self.warnings,
        }

    def plot_rows(self) -> list[tuple]:
        """Long-format rows (n, algorithm, median, q05, q95, censored)."""
        return [
            (c.n, c.algorithm, c.median, c.q05, c.q95, int(c.censored))
            for c in self.cells
        ]


def run_benchmark(
    per_cluster_sizes,
    algorithms=("sms", "bms"),
    repetitions: int = 3,
    seed: int = 0,
    profile: Profile = EPANECHNIKOV,
    h: float = 1.0,
    timeout: float = 120.0,
) -> BenchResult:
    """Time each algorithm at each size; fit log-log slopes on medians.

    Requires at least three sizes spanning at least one decade so the
    fit is meaningful.  Each cell runs one warm-up repetition whose time
    is discarded; a repetition exceeding ``timeout`` censors the cell
    and skips its remaining repetitions.
    """
    sizes = sorted(int(s) for s in per_cluster_sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes for a slope fit")
    if sizes[0] < 1:
        raise ValueError("sizes must be positive")
    if sizes[-1] < 10 * sizes[0]:
        raise ValueError("sizes must span at least one decade")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not timeout > 0:  # also rejects NaN, which would never censor
        raise ValueError(f"timeout must be a positive number of seconds, got {timeout}")

    cells: list[BenchCell] = []
    warnings: list[str] = []
    for size in sizes:
        datasets = [
            generate(preset("complexity", size, seed=seed + rep))
            for rep in range(repetitions + 1)
        ]
        n = datasets[0].n
        for algo in algorithms:
            times: list[float] = []
            censored = False
            for rep, data in enumerate(datasets):
                cfg = AlgoConfig(
                    algorithm=algo,
                    profile=profile,
                    h=h,
                    seed=index_seed(seed, rep),
                )
                t0 = time.perf_counter()
                run(data.points, cfg)
                elapsed = time.perf_counter() - t0
                if rep == 0:
                    continue  # warm-up excluded
                times.append(elapsed)
                if elapsed > timeout:
                    censored = True
                    warnings.append(
                        f"{algo} at per_cluster={size}: run exceeded timeout "
                        f"({elapsed:.1f}s > {timeout:.1f}s); cell censored"
                    )
                    break
            arr = np.asarray(times, dtype=np.float64)
            cells.append(
                BenchCell(
                    algorithm=algo,
                    per_cluster=size,
                    n=n,
                    median=float(np.median(arr)),
                    q05=float(np.quantile(arr, 0.05)),
                    q95=float(np.quantile(arr, 0.95)),
                    censored=censored,
                    times=times,
                )
            )

    slopes: dict[str, float] = {}
    for algo in algorithms:
        good = [c for c in cells if c.algorithm == algo and not c.censored]
        if len(good) < 2:
            warnings.append(f"{algo}: fewer than 2 uncensored cells, no slope fitted")
            continue
        xs = np.log([c.n for c in good])
        ys = np.log([c.median for c in good])
        slopes[algo] = float(np.polyfit(xs, ys, 1)[0])
    return BenchResult(cells, slopes, repetitions, seed, warnings)


def run_sweep(
    kind: str,
    values,
    algorithms=("ms", "bms", "sms"),
    repetitions: int = 20,
    seed: int = 0,
    profile: Profile = EPANECHNIKOV,
    h: float = 1.0,
    merge_factor: float = 1.0 / 3.0,
    workers: int = 1,
) -> list[dict]:
    """Metric sweep rows: one per (value, algorithm, metric in {acp, k}).

    Each row carries the median and the 5%/95% quantiles over the
    seeded repetitions, in the long format used by external plotters.
    A bad value, algorithm, bandwidth or merge factor raises ValueError
    before the first replicate runs.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"sweep kind must be one of {SWEEP_KINDS}, got {kind!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep range is empty")
    presets = [f"{_SWEEP_PRESET[kind]}:{value}" for value in values]
    for preset_text in presets:
        parse_preset(preset_text, seed=seed)
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    check_bandwidth(h)
    MergePolicy(merge_factor)
    rows: list[dict] = []
    for value, preset_text in zip(values, presets):
        for algo in algorithms:
            reports = replicate_preset(
                preset_text,
                algo,
                repetitions=repetitions,
                seed=seed,
                merge_factor=merge_factor,
                workers=workers,
                profile=profile,
                h=h,
            )
            stats = summarize(reports, keys=("acp", "k"))
            for metric in ("acp", "k"):
                rows.append(
                    {
                        "sweep_value": value,
                        "algorithm": algo,
                        "metric": metric,
                        "median": stats[metric]["median"],
                        "q05": stats[metric]["q05"],
                        "q95": stats[metric]["q95"],
                    }
                )
    return rows
