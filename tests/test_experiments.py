"""Replication machinery and the benchmark/sweep helpers."""

import pytest

from stochshift import bench, experiments
from stochshift.algorithms import AlgoConfig
from stochshift.bench import run_benchmark, run_sweep
from stochshift.clustering import MergePolicy
from stochshift.experiments import replicate_preset, run_pipeline, summarize
from stochshift.kernels import EPANECHNIKOV
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
        [(100_000, 2, [2]), (100_000, 8, [3]), (2, 8, [2]), (100_000, None, []), (1, 8, [])],
    )
    def test_pool_size_is_capped(self, monkeypatch, workers, cpus, pools):
        started = []

        class InlinePool:
            """Records the requested pool size and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        reports = replicate_preset("complexity:10", "bms", repetitions=3, seed=2, workers=workers)
        assert started == pools
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", None)
        assert reports == replicate_preset("complexity:10", "bms", repetitions=3, seed=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            replicate_preset("complexity:10", "bms", repetitions=2, workers=workers)

    def test_summarize_keys(self):
        reports = replicate_preset("set2", "sms", repetitions=3, seed=1)
        stats = summarize(reports)
        assert set(stats) == {"acp", "alp", "k", "g", "num_clusters"}
        assert stats["acp"]["q05"] <= stats["acp"]["median"] <= stats["acp"]["q95"]


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
