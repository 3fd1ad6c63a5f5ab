"""Seeded experiment replication: generate, cluster, score, aggregate.

Repetition r of an experiment uses dataset seed ``seed + r`` and the
index seed ``index_seed(seed, r)``, offset from it by a fixed constant
so index draws never share a bit stream with the sampling that produced
the data.  Runs fan out to a process pool of at most
``min(workers, repetitions, CPUs)`` processes; aggregation is keyed by
repetition index, so results are identical whatever the pool size.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .algorithms import AlgoConfig, run
from .clustering import MergePolicy, extract_clusters
from .metrics import metrics_report
from .synthdata import generate, parse_preset

__all__ = ["RUN_SEED_OFFSET", "index_seed", "run_pipeline", "replicate_preset"]

RUN_SEED_OFFSET = 1_000_003


def index_seed(seed: int, rep: int) -> int:
    """The algorithm's index seed for repetition ``rep`` of base ``seed``."""
    return seed + rep + RUN_SEED_OFFSET


def run_pipeline(points, labels, cfg: AlgoConfig, policy: MergePolicy = MergePolicy()):
    """One full clustering run: algorithm, partition, metrics.

    Returns ``(partition, trace, report)`` where the report contains the
    label-based scores when labels are given (otherwise only cluster
    counts) plus run accounting.
    """
    positions, trace = run(points, cfg)
    partition = extract_clusters(positions, cfg.h, policy)
    if labels is not None:
        report = metrics_report(partition, labels)
    else:
        report = {"num_clusters": partition.n_clusters, "n": partition.n}
    # deterministic accounting only: nothing times a run
    report["total_updates"] = trace.total_updates
    report["updates_per_point"] = trace.updates_per_point
    report["stop_reason"] = trace.stop_reason
    return partition, trace, report


def _replicate_one(args) -> tuple[int, dict]:
    preset_text, algorithm, cfg_kwargs, merge_factor, seed, rep = args
    data = generate(parse_preset(preset_text, seed=seed + rep))
    cfg = AlgoConfig(algorithm=algorithm, seed=index_seed(seed, rep), **cfg_kwargs)
    _, _, report = run_pipeline(
        data.points, data.labels, cfg, MergePolicy(merge_factor)
    )
    report["rep"] = rep
    return rep, report


def replicate_preset(
    preset_text: str,
    algorithm: str,
    repetitions: int = 20,
    seed: int = 0,
    merge_factor: float = 1.0 / 3.0,
    workers: int = 1,
    **cfg_kwargs,
) -> list[dict]:
    """Run ``repetitions`` seeded pipeline replicates of one preset.

    ``cfg_kwargs`` are forwarded to :class:`AlgoConfig` (profile, h,
    tolerances...).  Results come back ordered by repetition index.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = [
        (preset_text, algorithm, cfg_kwargs, merge_factor, seed, rep)
        for rep in range(repetitions)
    ]
    # a fork-started pool starts all max_workers processes at once
    workers = min(workers, repetitions, os.cpu_count() or 1)
    if workers == 1:
        results = [_replicate_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_one, tasks))
    return [rep for _, rep in sorted(results, key=lambda kv: kv[0])]


def summarize(reports: list[dict], keys: tuple[str, ...] = ("acp", "alp", "k", "g", "num_clusters")):
    """Mean/median/quantile summary of replicate metric reports."""
    out = {}
    for key in keys:
        vals = np.asarray([r[key] for r in reports if key in r], dtype=np.float64)
        if vals.size == 0:
            continue
        out[key] = {
            "mean": float(vals.mean()),
            "median": float(np.median(vals)),
            "q05": float(np.quantile(vals, 0.05)),
            "q95": float(np.quantile(vals, 0.95)),
        }
    return out
