"""Seeded experiment replication: generate, cluster, score, aggregate.

Repetition r of an experiment uses dataset seed ``seed + r`` and the
index seed ``index_seed(seed, r)``, offset from it by a fixed constant
so index draws never share a bit stream with the sampling that produced
the data.

Seeded ensembles (:func:`replicate_preset` here, ``theory.verify_preset``)
fan their tasks out through :func:`ordered_map`, on at most
``min(workers, tasks, usable_cpus())`` threads.  Threads suffice because
the runs spend most of their time in compiled-kernel calls, and ctypes
releases the GIL around each one.  Every task draws from its own seeded
generators and results are collected in task order, so they are
identical whatever the number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _native
from .algorithms import AlgoConfig, run
from .clustering import MergePolicy, extract_clusters
from .metrics import metrics_report
from .synthdata import generate, parse_preset

__all__ = ["RUN_SEED_OFFSET", "index_seed", "ordered_map", "run_pipeline", "replicate_preset", "usable_cpus"]

RUN_SEED_OFFSET = 1_000_003


def index_seed(seed: int, rep: int) -> int:
    """The algorithm's index seed for repetition ``rep`` of base ``seed``."""
    return seed + rep + RUN_SEED_OFFSET


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, which ``taskset`` and cpusets narrow.

    Where the OS has no affinity call, ``os.cpu_count()`` (1 if unknown).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered_map(fn, tasks, workers: int | None = None) -> list:
    """``[fn(task) for task in tasks]``, on up to ``min(workers, len(tasks), usable_cpus())`` threads.

    ``workers`` caps the thread count and defaults to no cap.  Results
    come back in task order; an exception raised by a task is raised
    here, the one of the first failing task in order, as the serial loop
    would raise it.  The kernel is loaded before any task starts, so
    threads never race to build it.  Every thread has exited on return.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = list(tasks)
    workers = min(workers or len(tasks), len(tasks), usable_cpus())
    _native.load()
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


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


def replicate_preset(
    preset_text: str,
    algorithm: str,
    repetitions: int = 20,
    seed: int = 0,
    merge_factor: float = 1.0 / 3.0,
    workers: int | None = None,
    **cfg_kwargs,
) -> list[dict]:
    """Run ``repetitions`` seeded pipeline replicates of one preset.

    ``cfg_kwargs`` are forwarded to :class:`AlgoConfig` (profile, h,
    tolerances...).  Replicates run through :func:`ordered_map`, one task
    each, on every usable CPU unless ``workers`` caps the thread count.
    Results come back ordered by repetition index and are identical for
    any ``workers``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    def replicate(rep: int) -> dict:
        data = generate(parse_preset(preset_text, seed=seed + rep))
        cfg = AlgoConfig(algorithm=algorithm, seed=index_seed(seed, rep), **cfg_kwargs)
        _, _, report = run_pipeline(data.points, data.labels, cfg, MergePolicy(merge_factor))
        report["rep"] = rep
        return report

    return ordered_map(replicate, range(repetitions), workers)


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
