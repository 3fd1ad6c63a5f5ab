"""Replication machinery and the benchmark/sweep helpers."""

import json
import sys
import threading
import time

import pytest

from stochshift import _native, bench, experiments, theory
from stochshift.algorithms import AlgoConfig
from stochshift.bench import run_benchmark, run_sweep
from stochshift.clustering import MergePolicy
from stochshift.experiments import replicate_preset, run_pipeline, summarize
from stochshift.kernels import BIWEIGHT, EPANECHNIKOV
from stochshift.synthdata import generate, preset


class TestRunPipeline:
    def test_labeled_report(self):
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(algorithm="sms", profile=EPANECHNIKOV, h=1.0, seed=1)
        partition, trace, report = run_pipeline(data.points, data.labels, cfg)
        assert report["n"] == data.n
        assert report["num_clusters"] == partition.n_clusters
        assert 0 < report["acp"] <= 1
        assert report["total_updates"] == trace.total_updates

    def test_unlabeled_report(self):
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(algorithm="bms", profile=EPANECHNIKOV, h=1.0)
        _, _, report = run_pipeline(data.points, None, cfg, MergePolicy(0.25))
        assert "acp" not in report
        assert report["num_clusters"] >= 1


class TestReplicatePreset:
    def test_ordered_and_seed_varied(self):
        reports = replicate_preset(
            "set2", "sms", repetitions=3, seed=0, profile=EPANECHNIKOV, h=1.0
        )
        assert [r["rep"] for r in reports] == [0, 1, 2]
        # different dataset draws give different scores
        assert len({round(r["k"], 12) for r in reports}) > 1

    def test_deterministic_across_calls(self):
        a = replicate_preset("set2", "sms", repetitions=2, seed=4, profile=EPANECHNIKOV)
        b = replicate_preset("set2", "sms", repetitions=2, seed=4, profile=EPANECHNIKOV)
        assert [r["acp"] for r in a] == [r["acp"] for r in b]

    def test_worker_pool_matches_serial(self):
        serial = replicate_preset("set2", "sms", repetitions=2, seed=7, workers=1)
        pooled = replicate_preset("set2", "sms", repetitions=2, seed=7, workers=2)
        assert [r["acp"] for r in serial] == [r["acp"] for r in pooled]

    @pytest.mark.parametrize(
        "workers, cpus, pools",
        [(100_000, 2, [2]), (100_000, 8, [3]), (2, 8, [2]), (100_000, None, []), (1, 8, []),
         (None, 8, [3]), (None, 2, [2])],
    )
    def test_pool_size_is_capped(self, monkeypatch, workers, cpus, pools):
        # threads = min(workers, repetitions, CPUs in this process's affinity set);
        # cpus None: no affinity call and an unknown os.cpu_count(), so one CPU
        started = []

        class InlinePool:
            """Records the requested pool size and maps on the calling thread."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", InlinePool)
        if cpus is None:
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        reports = replicate_preset("complexity:10", "bms", repetitions=3, seed=2, workers=workers)
        assert started == pools
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", None)
        assert reports == replicate_preset("complexity:10", "bms", repetitions=3, seed=2, workers=1)

    def test_cpu_count_without_affinity(self, monkeypatch):
        # where the OS has no affinity call, os.cpu_count() stands in
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 6)
        assert experiments.usable_cpus() == 6

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            replicate_preset("complexity:10", "bms", repetitions=2, workers=workers)

    def test_summarize_keys(self):
        reports = replicate_preset("set2", "sms", repetitions=3, seed=1)
        stats = summarize(reports)
        assert set(stats) == {"acp", "alp", "k", "g", "num_clusters"}
        assert stats["acp"]["q05"] <= stats["acp"]["median"] <= stats["acp"]["q95"]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so a 2-worker ensemble really runs on two threads."""
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)


class TestOrderedMap:
    """The thread map behind the seeded ensembles: task order, errors, threads and the kernel load."""

    @staticmethod
    def slow_first(task):
        # earlier tasks finish later, so completion order is the reverse of task order
        time.sleep(0.02 * (3 - task))
        return task * task

    def test_results_in_task_order(self, two_cpus):
        threads = threading.active_count()
        assert experiments.ordered_map(self.slow_first, range(4), 2) == [0, 1, 4, 9]
        assert threading.active_count() == threads

    def test_first_failing_task_raises_as_serially(self, two_cpus):
        def task(i):
            if i == 1:
                time.sleep(0.05)
                raise KeyError("task 1")
            if i == 2:
                raise ValueError("task 2")
            return i

        threads = threading.active_count()
        for workers in (1, 2):
            with pytest.raises(KeyError, match="task 1"):
                experiments.ordered_map(task, range(4), workers)
            assert threading.active_count() == threads

    def test_empty_tasks(self):
        assert experiments.ordered_map(self.slow_first, ()) == []

    def test_kernel_loads_once_before_any_task(self, monkeypatch, two_cpus):
        # two first calls of the cached loader racing on worker threads could build twice
        loads = []
        real_load = _native._load

        def counting_load(what, *args):
            loads.append((what, threading.current_thread() is threading.main_thread()))
            return real_load(what, *args)

        monkeypatch.setattr(_native, "_load", counting_load)
        _native.load.cache_clear()
        try:
            reports = replicate_preset("complexity:10", "sms", repetitions=4, seed=3, workers=2)
        finally:
            _native.load.cache_clear()
        assert [r["rep"] for r in reports] == [0, 1, 2, 3]
        assert [load for load in loads if load[0] == "compiled kernel"] == [("compiled kernel", True)]


class TestWorkerCountInvariance:
    """Ensembles give the same bytes on one thread and on two."""

    @pytest.mark.parametrize("algorithm", ["ms", "bms", "sms"])
    def test_replicate_preset(self, two_cpus, algorithm):
        threads = threading.active_count()
        runs = []
        for workers in (1, 2):
            reports = replicate_preset("imbalance:2", algorithm, repetitions=3, seed=0, workers=workers,
                                       profile=EPANECHNIKOV, h=1.0)
            assert threading.active_count() == threads
            runs.append(json.dumps(reports))
        assert runs[0] == runs[1]

    def test_verify_preset(self, monkeypatch):
        threads = threading.active_count()
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda cpus=cpus: cpus)
            report = theory.verify_preset("set1", BIWEIGHT, n_seeds=4, seed=0)
            assert threading.active_count() == threads
            reports.append(json.dumps(report.to_json_dict()))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["all_passed"]

    def test_more_threads_than_cpus_with_fast_switching(self, monkeypatch):
        # eight threads on any host, switching as often as the interpreter allows: replicates
        # that shared a generator, buffer or cached state would differ from the serial run
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 8)
        serial = replicate_preset("complexity:10", "sms", repetitions=16, seed=5, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = replicate_preset("complexity:10", "sms", repetitions=16, seed=5, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert json.dumps(threaded) == json.dumps(serial)

    def test_replicate_error_surfaces_as_serially(self, monkeypatch, two_cpus):
        real_generate = experiments.generate

        def generate(spec):
            if spec.seed == 2:
                raise RuntimeError("data seed 2")
            return real_generate(spec)

        monkeypatch.setattr(experiments, "generate", generate)
        threads = threading.active_count()
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="data seed 2"):
                replicate_preset("complexity:10", "sms", repetitions=4, seed=0, workers=workers)
            assert threading.active_count() == threads

    def test_verify_error_surfaces_as_serially(self, monkeypatch):
        real_run = theory.sms_run

        def sms_run(points, cfg):
            if cfg.seed == experiments.index_seed(0, 1):
                raise RuntimeError("seed 1")
            return real_run(points, cfg)

        monkeypatch.setattr(theory, "sms_run", sms_run)
        threads = threading.active_count()
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(RuntimeError, match="seed 1"):
                theory.verify_preset("set2", BIWEIGHT, n_seeds=3, seed=0)
            assert threading.active_count() == threads


class TestRunBenchmark:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            run_benchmark([10, 100])
        with pytest.raises(ValueError, match="decade"):
            run_benchmark([10, 20, 30])
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_benchmark([2, 5, 20], algorithms=("kmeans",))

    def test_small_benchmark_cells(self):
        result = run_benchmark([2, 5, 20], algorithms=("bms",), repetitions=2, seed=0)
        assert len(result.cells) == 3
        assert all(c.n == 3 * c.per_cluster for c in result.cells)
        assert all(len(c.times) == 2 for c in result.cells)
        assert "bms" in result.slopes

    def test_censoring_excludes_from_fit(self):
        # every run takes longer than a nanosecond; a timeout of 0 is rejected
        result = run_benchmark(
            [2, 5, 20], algorithms=("bms",), repetitions=1, seed=0, timeout=1e-9
        )
        assert all(c.censored for c in result.cells)
        assert "bms" not in result.slopes
        assert result.warnings


class TestRunSweep:
    def test_rows_long_format(self):
        rows = run_sweep("imbalance", [0.5, 2.0], algorithms=("sms",), repetitions=2, seed=0)
        assert len(rows) == 4
        assert {r["metric"] for r in rows} == {"acp", "k"}
        for r in rows:
            assert r["q05"] <= r["median"] <= r["q95"]

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_sweep("imbalance", [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="sweep kind"):
            run_sweep("bandwidth", [1.0])

    @pytest.mark.parametrize(
        "bad", [{"algorithms": ("sms", "kmeans")}, {"h": 0.0}, {"merge_factor": 0.9}],
        ids=["algorithm", "bandwidth", "merge_factor"],
    )
    def test_bad_argument_rejected_before_any_replicate(self, bad, monkeypatch):
        def replicate(*args, **kwargs):
            raise AssertionError("a replicate ran before the arguments were checked")

        monkeypatch.setattr(bench, "replicate_preset", replicate)
        with pytest.raises(ValueError):
            run_sweep("imbalance", [1.0, 2.0], repetitions=2, **bad)
