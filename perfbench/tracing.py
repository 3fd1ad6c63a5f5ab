"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every module
attribute through which the package (or the benchmark) looks it up,
e.g. both `stochshift.algorithms.sms_run` (used by `algorithms.run`)
and `stochshift.theory.sms_run` (the name theory imported).  Spans are
kept in memory; `layer_metrics()` turns them into per-layer self time
and counts when the round ends.  Nothing inside the package is timed:
a layer's self time is its span minus the spans of traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np


def _sms_counts(args, kwargs, out):
    trace, cfg = out[1], args[1]
    big = np.flatnonzero(trace.shift >= cfg.move_tolerance)
    useful = int(big[-1]) + 1 if big.size else 0
    return {"updates": trace.total_updates, "useful_updates": useful}


def _bms_counts(args, kwargs, out):
    trace = out[1]
    return {"sweeps": trace.n_events, "rows": trace.n_events * trace.initial_points.shape[0]}


def _ms_counts(args, kwargs, out):
    return {"probe_iterations": out[1].total_updates}


def _knn_counts(args, kwargs, out):
    return {"updates": out[1].total_updates}


def _rows(args, kwargs, out):
    return {"rows": int(out[0].shape[0])}


def _records(args, kwargs, out):
    return {"records": args[1].n_events, "bytes": os.path.getsize(args[0])}


def _bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (modules whose attribute is replaced, counter, track memory)
LAYERS = {
    "algorithms.sms_run": (("algorithms", "theory"), _sms_counts, False),
    "algorithms.bms_run": (("algorithms",), _bms_counts, False),
    "algorithms.ms_run": (("algorithms",), _ms_counts, False),
    "clustering.extract_clusters": (("experiments", "theory"), None, False),
    "clustering.cluster_summary": (("cli",), None, True),
    "io.read_dataset_csv": (("io",), _rows, False),
    "io.write_trace_jsonl": (("io",), _records, False),
    "io.write_dataset_csv": (("io",), _bytes, False),
    "io.write_partition_csv": (("io",), _bytes, False),
    "io.write_json": (("io",), _bytes, False),
    "core.objective_value": (("algorithms",), None, False),
    "core.full_gradient": (("theory",), None, False),
    "theory.check_monotone_ascent": (("theory",), None, False),
    "theory.check_partial_gradient_bound": (("theory",), None, False),
    "theory.check_gradient_vanishes": (("theory",), None, False),
    "theory.check_cluster_stability": (("theory",), None, True),
    "theory.check_single_cluster_convergence": (("theory",), None, False),
    "theory.check_critical_characterization": (("theory",), None, False),
    "affinity.spherical_normalize": (("affinity",), None, False),
    "affinity.top_score_neighbors": (("affinity",), None, False),
    "affinity.knn_sms_run": (("affinity",), _knn_counts, False),
    "synthdata.generate": (("synthdata", "experiments", "theory", "cli"), None, False),
    "metrics.metrics_report": (("experiments",), None, False),
    "experiments.run_pipeline": (("experiments", "cli"), None, False),
    "cli.main": (("cli",), None, False),
}


class Tracer:
    """In-memory spans: [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter, memory):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_memory = memory and not tracemalloc.is_tracing()
            if own_memory:
                tracemalloc.start()
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if own_memory:
                    span[4]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                span[4].update(counter(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        for name, (modules, counter, memory) in LAYERS.items():
            owner, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"stochshift.{owner}"), attr)
            traced = self._wrap(name, fn, counter, memory)
            for mod_name in modules:
                mod = importlib.import_module(f"stochshift.{mod_name}")
                if getattr(mod, attr, None) is not fn:
                    print(f"tracing: stochshift.{mod_name}.{attr} is not {name}; not traced there",
                          file=sys.stderr)
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for j, (name, _, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[j]
        return out

    def totals(self, name: str) -> dict[str, float]:
        out = {"calls": 0}
        for span in self.spans:
            if span[0] == name:
                out["calls"] += 1
                for key, val in span[4].items():
                    out[key] = max(out.get(key, 0), val) if key == "peak_bytes" else out.get(key, 0) + val
        return out


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced round (every PER_LAYER name but the overhead).

    A layer the round never called reads 0.
    """
    st = tracer.self_times()
    s = {name: st.get(name, 0.0) for name in LAYERS}
    sms = tracer.totals("algorithms.sms_run")
    bms = tracer.totals("algorithms.bms_run")
    ms = tracer.totals("algorithms.ms_run")
    knn = tracer.totals("affinity.knn_sms_run")
    sms_updates = sms.get("updates", 0)
    sms_useful = sms.get("useful_updates", 0)
    writers = ("io.write_trace_jsonl", "io.write_dataset_csv", "io.write_partition_csv", "io.write_json")
    mb = 1.0 / (1 << 20)
    return {
        "algorithms.sms_run.s": s["algorithms.sms_run"],
        "algorithms.sms_run.updates": sms_updates,
        "algorithms.sms_run.us_per_update": _per(s["algorithms.sms_run"], sms_updates, 1e6),
        "algorithms.sms_run.tail_updates": sms_updates - sms_useful,
        "algorithms.sms_run.useful_share": _per(sms_useful, sms_updates),
        "algorithms.bms_run.s": s["algorithms.bms_run"],
        "algorithms.bms_run.sweeps": bms.get("sweeps", 0),
        "algorithms.bms_run.us_per_row": _per(s["algorithms.bms_run"], bms.get("rows", 0), 1e6),
        "algorithms.ms_run.s": s["algorithms.ms_run"],
        "algorithms.ms_run.probe_iterations": ms.get("probe_iterations", 0),
        "algorithms.ms_run.us_per_probe_iteration": _per(
            s["algorithms.ms_run"], ms.get("probe_iterations", 0), 1e6
        ),
        "clustering.extract_clusters.s": s["clustering.extract_clusters"],
        "clustering.extract_clusters.calls": tracer.totals("clustering.extract_clusters")["calls"],
        "clustering.cluster_summary.s": s["clustering.cluster_summary"],
        "clustering.cluster_summary.peak_mb": tracer.totals("clustering.cluster_summary").get("peak_bytes", 0) * mb,
        "io.read_dataset_csv.s": s["io.read_dataset_csv"],
        "io.read_dataset_csv.rows": tracer.totals("io.read_dataset_csv").get("rows", 0),
        "io.write_trace_jsonl.s": s["io.write_trace_jsonl"],
        "io.write_trace_jsonl.records": tracer.totals("io.write_trace_jsonl").get("records", 0),
        "io.write_dataset_csv.s": s["io.write_dataset_csv"],
        "io.write_partition_csv.s": s["io.write_partition_csv"],
        "io.write_json.s": s["io.write_json"],
        "io.bytes_written": sum(tracer.totals(w).get("bytes", 0) for w in writers),
        "core.objective_value.s": s["core.objective_value"],
        "core.objective_value.calls": tracer.totals("core.objective_value")["calls"],
        "core.full_gradient.s": s["core.full_gradient"],
        "core.full_gradient.calls": tracer.totals("core.full_gradient")["calls"],
        "theory.check_monotone_ascent.s": s["theory.check_monotone_ascent"],
        "theory.check_partial_gradient_bound.s": s["theory.check_partial_gradient_bound"],
        "theory.check_gradient_vanishes.s": s["theory.check_gradient_vanishes"],
        "theory.check_cluster_stability.s": s["theory.check_cluster_stability"],
        "theory.check_cluster_stability.peak_mb": tracer.totals("theory.check_cluster_stability").get("peak_bytes", 0) * mb,
        "theory.check_single_cluster_convergence.s": s["theory.check_single_cluster_convergence"],
        "theory.check_critical_characterization.s": s["theory.check_critical_characterization"],
        "affinity.spherical_normalize.s": s["affinity.spherical_normalize"],
        "affinity.top_score_neighbors.s": s["affinity.top_score_neighbors"],
        "affinity.knn_sms_run.s": s["affinity.knn_sms_run"],
        "affinity.knn_sms_run.updates": knn.get("updates", 0),
        "affinity.knn_sms_run.us_per_update": _per(s["affinity.knn_sms_run"], knn.get("updates", 0), 1e6),
        "synthdata.generate.s": s["synthdata.generate"],
        "synthdata.generate.calls": tracer.totals("synthdata.generate")["calls"],
        "metrics.metrics_report.s": s["metrics.metrics_report"],
        "experiments.run_pipeline.self_s": s["experiments.run_pipeline"],
        "cli.self_s": s["cli.main"],
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced rounds; a value that repeats (a count) passes through."""
    out = {}
    for key in rounds[0]:
        vals = [r[key] for r in rounds]
        out[key] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    return out
