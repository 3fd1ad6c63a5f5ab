"""CLI commands, exit codes, and output file schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochshift
from stochshift import _native
from stochshift.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from stochshift.io import read_dataset_csv, write_dataset_csv


def run_cli(*args):
    return main([str(a) for a in args])


def assert_one_error_line(err, path):
    """``err`` is one ``error: ...`` line naming ``path``, with no traceback."""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"'{path}'" in err, err


class TestSynth:
    def test_writes_preset_csv(self, tmp_path, capsys):
        out = tmp_path / "set1.csv"
        assert run_cli("synth", "--preset", "set1", "--seed", 0, "--out", out) == EXIT_OK
        pts, labels = read_dataset_csv(out)
        assert pts.shape == (750, 2)
        assert np.unique(labels).tolist() == [1, 2, 3]
        assert "n=750 d=2 labels=3" in capsys.readouterr().out

    def test_complexity_preset_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("synth", "--preset", "complexity:10", "--out", out) == EXIT_OK
        pts, _ = read_dataset_csv(out)
        assert pts.shape[0] == 30

    def test_invalid_preset_usage_error(self, tmp_path):
        code = run_cli("synth", "--preset", "set9", "--out", tmp_path / "x.csv")
        assert code == EXIT_USAGE

    def test_infinite_imbalance_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("synth", "--preset", "imbalance:inf", "--out", out) == EXIT_USAGE
        assert not out.exists()


class TestCluster:
    def test_two_far_gaussians_perfect_metrics(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = np.vstack(
            [rng.normal(size=(40, 2)) * 0.05, rng.normal(size=(40, 2)) * 0.05 + 10.0]
        )
        labels = np.repeat([1, 2], 40)
        data_path = tmp_path / "data.csv"
        write_dataset_csv(data_path, pts, labels)
        out_dir = tmp_path / "run"
        code = run_cli(
            "cluster", "--input", data_path, "--algo", "sms", "--h", 1.0,
            "--seed", 5, "--out", out_dir,
        )
        assert code == EXIT_OK
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["schema"] == "metrics-report/1"
        assert metrics["num_clusters"] == 2
        for key in ("acp", "alp", "k", "g", "pur_cd", "pur_dc"):
            assert metrics[key] == 1.0
        partition_lines = (out_dir / "partition.csv").read_text().splitlines()
        assert partition_lines[0] == "index,cluster_id"
        assert len(partition_lines) == 81
        assert (out_dir / "trace.jsonl").exists()

    def test_single_point_input(self, tmp_path):
        data_path = tmp_path / "one.csv"
        write_dataset_csv(data_path, np.array([[0.0, 0.0]]))
        out_dir = tmp_path / "run"
        assert run_cli("cluster", "--input", data_path, "--out", out_dir) == EXIT_OK
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["num_clusters"] == 1
        assert metrics["stop_reason"] == "converged"
        final, _ = read_dataset_csv(out_dir / "final_state.csv")
        np.testing.assert_array_equal(final, [[0.0, 0.0]])
        clusters = json.loads((out_dir / "clusters.json").read_text())
        assert clusters["schema"] == "cluster-summary/1"
        assert clusters["clusters"][0]["size"] == 1

    def test_deterministic_outputs(self, tmp_path):
        data_path = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        write_dataset_csv(data_path, rng.normal(size=(60, 2)), np.repeat([1, 2], 30))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "cluster", "--input", data_path, "--algo", "sms", "--seed", 9, "--out", out
            ) == EXIT_OK
        assert (a / "partition.csv").read_bytes() == (b / "partition.csv").read_bytes()
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()

    @pytest.mark.parametrize("algo", ["ms", "bms"])
    @pytest.mark.parametrize("preset", ["set1", "set2"])
    def test_kernel_and_numpy_paths_write_the_same_bytes(self, tmp_path, monkeypatch, preset, algo):
        if _native.load() is None:
            pytest.skip("the kernel could not be built here (no gcc?)")
        data_path = tmp_path / "d.csv"
        assert run_cli("synth", "--preset", preset, "--seed", 0, "--out", data_path) == EXIT_OK
        kernel, numpy = tmp_path / "kernel", tmp_path / "numpy"
        assert run_cli("cluster", "--input", data_path, "--algo", algo, "--out", kernel) == EXIT_OK
        monkeypatch.setattr(_native, "load", lambda: None)
        assert run_cli("cluster", "--input", data_path, "--algo", algo, "--out", numpy) == EXIT_OK
        for name in ("partition.csv", "metrics.json"):
            assert (kernel / name).read_bytes() == (numpy / name).read_bytes(), name

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0\nnot-a-number\n")
        assert run_cli("cluster", "--input", bad, "--out", tmp_path / "o") == EXIT_DATA

    def test_missing_input_is_data_error(self, tmp_path):
        assert run_cli(
            "cluster", "--input", tmp_path / "absent.csv", "--out", tmp_path / "o"
        ) == EXIT_DATA

    def test_bad_algo_usage(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data_path, np.zeros((2, 1)))
        assert run_cli(
            "cluster", "--input", data_path, "--algo", "kmeans", "--out", tmp_path / "o"
        ) == EXIT_USAGE

    def test_ms_trace_objective_usage_error(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data_path, np.zeros((2, 1)))
        out = tmp_path / "o"
        assert run_cli(
            "cluster", "--input", data_path, "--algo", "ms", "--trace-objective", "--out", out
        ) == EXIT_USAGE
        assert not out.exists()

    def test_repeated_column_data_error(self, tmp_path):
        data_path = tmp_path / "d.csv"
        data_path.write_text("x0,label,label\n0.5,1,1\n1.5,2,2\n")
        assert run_cli("cluster", "--input", data_path, "--out", tmp_path / "o") == EXIT_DATA

    def test_label_beyond_int64_data_error(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_text("x0,label\n0.5,1\n1.5,9223372036854775808\n")
        assert run_cli("cluster", "--input", data_path, "--out", tmp_path / "o") == EXIT_DATA
        assert "d.csv:3: label 9223372036854775808 is outside the int64 range" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["sms", "bms"])
    def test_overflowing_coordinates_data_error(self, tmp_path, algo):
        # each coordinate is finite, but its square is not
        data_path = tmp_path / "d.csv"
        data_path.write_text("x0,x1\n1e200,0\n0,1\n")
        assert run_cli("cluster", "--input", data_path, "--algo", algo, "--out", tmp_path / "o") == EXIT_DATA

    def test_coordinates_near_1e154_data_error(self, tmp_path):
        # squares are finite, but the distance identity's -2 a.b is not
        data_path = tmp_path / "d.csv"
        data_path.write_text("x0,x1\n1e154,0\n1e154,5\n")
        assert run_cli("cluster", "--input", data_path, "--out", tmp_path / "o") == EXIT_DATA


# a fresh interpreter, so modules an earlier test imported do not count
FRESH_CLUSTER_AND_VERIFY = """
import sys
from stochshift.cli import main
assert main(["synth", "--preset", "set1", "--out", "d.csv"]) == 0
assert main(["cluster", "--input", "d.csv", "--out", "out"]) == 0
assert "numpy.ma" not in sys.modules, "cluster"
assert "multiprocessing" not in sys.modules, "cluster"
assert main(["verify", "--preset", "set1", "--seeds", "1", "--out", "v.json"]) == 0
assert "numpy.ma" not in sys.modules, "verify"
assert "multiprocessing" not in sys.modules, "verify"
"""


def test_cluster_and_verify_leave_numpy_ma_unloaded(tmp_path):
    # np.unique asks np.ma.is_masked, whose import alone costs a CLI run about 12 ms;
    # ensembles fan out on threads, so no command imports multiprocessing (about 6 ms)
    src = str(Path(stochshift.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_CLUSTER_AND_VERIFY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestBench:
    def test_too_few_sizes_usage_error(self, tmp_path):
        assert run_cli("bench", "--sizes", "10", "--out", tmp_path) == EXIT_USAGE

    def test_no_decade_span_usage_error(self, tmp_path):
        assert run_cli("bench", "--sizes", "10,20,30", "--out", tmp_path) == EXIT_USAGE

    def test_small_bench_outputs(self, tmp_path):
        out_dir = tmp_path / "bench"
        code = run_cli(
            "bench", "--sizes", "2,5,20", "--algos", "bms", "--reps", 2,
            "--seed", 0, "--out", out_dir,
        )
        assert code == EXIT_OK
        payload = json.loads((out_dir / "bench.json").read_text())
        assert payload["schema"] == "bench-result/1"
        assert "bms" in payload["slopes"]
        plot = (out_dir / "bench_plot.csv").read_text().splitlines()
        assert plot[0] == "n,algorithm,median_seconds,q05_seconds,q95_seconds,censored"
        assert len(plot) == 4


class TestVerify:
    def test_infinite_imbalance_usage_error(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--preset", "imbalance:inf", "--out", out) == EXIT_USAGE
        assert not out.exists()

    def test_small_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--preset", "set2", "--profile", "biweight",
            "--seeds", 1, "--out", out,
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        stdout = capsys.readouterr().out
        assert "monotone_ascent: pass" in stdout

    def test_negative_controls_nonzero_exit(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--preset", "set2", "--profile", "biweight",
            "--seeds", 1, "--negative-controls", "--out", out,
        )
        assert code == EXIT_VERIFY
        payload = json.loads(out.read_text())
        negatives = [c for c in payload["checks"] if c["name"].startswith("negative_")]
        assert negatives and all(c["status"] == "fail" for c in negatives)

    def test_epanechnikov_skips_c1_checks(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "verify", "--preset", "set2", "--profile", "epanechnikov",
            "--seeds", 1, "--out", out,
        )
        assert code == EXIT_OK
        assert "critical_characterization: skipped" in capsys.readouterr().out


class TestSweep:
    def test_imbalance_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--kind", "imbalance", "--range", "0.5,1", "--algos", "sms",
            "--reps", 2, "--seed", 0, "--out", out,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_value,algorithm,metric,median,q05,q95"
        assert len(lines) == 1 + 2 * 2  # two values x two metrics
        assert lines[1].startswith("0.5,sms,acp,")

    def test_range_syntax_inclusive(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--kind", "num_clusters", "--range", "2..3", "--algos", "sms",
            "--reps", 1, "--out", out,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("2,sms,acp,")

    def test_empty_range_usage_error(self, tmp_path):
        assert run_cli(
            "sweep", "--kind", "imbalance", "--range", ",", "--out", tmp_path / "s.csv"
        ) == EXIT_USAGE

    def test_infinite_imbalance_usage_error(self, tmp_path):
        assert run_cli(
            "sweep", "--kind", "imbalance", "--range", "inf", "--out", tmp_path / "s.csv"
        ) == EXIT_USAGE

    def test_unknown_kind_usage_error(self, tmp_path):
        assert run_cli(
            "sweep", "--kind", "bandwidth", "--range", "1,2", "--out", tmp_path / "s.csv"
        ) == EXIT_USAGE


class TestUsage:
    def test_no_command(self):
        assert run_cli() == EXIT_USAGE

    def test_unknown_flag(self, tmp_path):
        assert run_cli("synth", "--nope", "--out", tmp_path / "x.csv") == EXIT_USAGE

    @pytest.mark.parametrize(
        "args",
        [
            ("synth", "--preset", "set1", "--seed", -1),
            ("cluster", "--input", "absent.csv", "--seed", -1),
            ("bench", "--reps", 0),
            ("bench", "--seed", -1),
            ("verify", "--seed", -1),
            ("verify", "--preset", "set2", "--seeds", 0),
            ("sweep", "--kind", "imbalance", "--range", "1", "--reps", 0),
            ("sweep", "--kind", "imbalance", "--range", "1", "--seed", -1),
            ("sweep", "--kind", "imbalance", "--range", "1", "--workers", 0),
            ("verify", "--h", 0, "--seeds", 1),
            ("verify", "--h", "nan", "--seeds", 1),
            ("verify", "--h", 1e-200, "--seeds", 1),
            ("cluster", "--input", "absent.csv", "--h", 1e-200),
            ("cluster", "--input", "absent.csv", "--h", 1e200),
            ("sweep", "--kind", "imbalance", "--range", "1", "--h", 0),
            ("sweep", "--kind", "imbalance", "--range", "1", "--merge-factor", 0.9),
            ("sweep", "--kind", "imbalance", "--range", "1", "--algos", "sms,kmeans"),
            ("sweep", "--kind", "imbalance", "--range", "1", "--algos", ","),
            ("bench", "--algos", ","),
            ("sweep", "--kind", "dimension", "--range", "2,0.5"),
            ("sweep", "--kind", "dimension", "--range", "0"),
            ("sweep", "--kind", "imbalance", "--range", "0"),
            ("sweep", "--kind", "num_clusters", "--range", "0..1"),
            ("bench", "--timeout", 0),
            ("bench", "--timeout", -1),
            ("bench", "--timeout", "nan"),
        ],
        ids=lambda args: " ".join(map(str, args)),
    )
    def test_out_of_range_count_or_seed(self, tmp_path, args):
        assert run_cli(*args, "--out", tmp_path / "o") == EXIT_USAGE

    @pytest.mark.parametrize("args", [
        ("synth", "--preset", "set1"),
        ("verify", "--preset", "set2", "--seeds", 1),
        ("sweep", "--kind", "imbalance", "--range", "1", "--algos", "sms", "--reps", 1),
    ], ids=lambda args: args[0])
    def test_output_under_a_missing_directory(self, tmp_path, capsys, args):
        out = tmp_path / "missing" / "out"
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr().err, out)

    @pytest.mark.parametrize("args", [
        ("cluster", "--input", "data.csv"),
        # bench makes a missing output directory, so only a file in the path stops it
        ("bench", "--sizes", "1,2,10", "--algos", "sms", "--reps", 1),
    ], ids=lambda args: args[0])
    def test_output_directory_under_a_file(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--preset", "complexity:5", "--out", "data.csv") == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "data.csv" / "out"
        assert run_cli(*args, "--out", out) == EXIT_USAGE
        assert_one_error_line(capsys.readouterr().err, out)
