"""File formats: dataset CSV, partition CSV, traces, score matrices."""

import json

import numpy as np
import pytest

from stochshift.algorithms import AlgoConfig, run
from stochshift.clustering import Partition
from stochshift.io import (
    DataError,
    read_dataset_csv,
    read_score_matrix,
    write_dataset_csv,
    write_json,
    write_partition_csv,
    write_score_matrix,
    write_trace_jsonl,
)
from stochshift.kernels import Profile


class TestDatasetCsv:
    def test_roundtrip_with_labels(self, tmp_path):
        pts = np.array([[0.25, -1.5], [3.0, 2.0]])
        labels = np.array([1, 2])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, pts, labels)
        got_pts, got_labels = read_dataset_csv(path)
        np.testing.assert_array_equal(got_pts, pts)
        np.testing.assert_array_equal(got_labels, labels)
        assert path.read_text().splitlines()[0] == "x0,x1,label"

    def test_roundtrip_without_labels(self, tmp_path):
        pts = np.array([[1.0], [2.0]])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, pts)
        got_pts, got_labels = read_dataset_csv(path)
        np.testing.assert_array_equal(got_pts, pts)
        assert got_labels is None

    def test_label_column_any_position(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,x0\n1,0.5\n2,1.5\n")
        pts, labels = read_dataset_csv(path)
        np.testing.assert_array_equal(pts, [[0.5], [1.5]])
        np.testing.assert_array_equal(labels, [1, 2])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n0.5,1\nnot-a-number,2\n")
        with pytest.raises(DataError, match=r"bad\.csv:3"):
            read_dataset_csv(path)
        # blank lines count toward the reported line number
        path.write_text("x0,x1\n\n\n1.0,2.0\n\n3.0,abc\n")
        with pytest.raises(DataError, match=r"bad\.csv:6:"):
            read_dataset_csv(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            read_dataset_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_dataset_csv(tmp_path / "nope.csv")

    def test_exact_float_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, pts)
        got, _ = read_dataset_csv(path)
        np.testing.assert_array_equal(got, pts)


class TestPartitionCsv:
    def test_golden_bytes(self, tmp_path):
        part = Partition(np.array([1, 1, 2]), 2)
        path = tmp_path / "partition.csv"
        write_partition_csv(path, part)
        assert path.read_text() == "index,cluster_id\n0,1\n1,1\n2,2\n"


class TestTraceJsonl:
    @pytest.mark.parametrize(
        "algorithm, trace_gradient, keys, first_k",
        [
            ("sms", True, {"L", "grad_norm", "i", "k", "shift"}, 1),
            ("bms", False, {"L", "i", "k", "shift"}, 4),
            ("ms", False, {"i", "k", "shift"}, 4),
        ],
        ids=["sms", "bms", "ms"],
    )
    def test_record_fields(self, tmp_path, algorithm, trace_gradient, keys, first_k):
        pts = np.array([[0.0], [0.4], [0.9], [3.0]])
        cfg = AlgoConfig(
            algorithm=algorithm,
            profile=Profile(2),
            seed=0,
            max_updates=200,
            trace_objective=True,
            trace_gradient=trace_gradient,
        )
        _, trace = run(pts, cfg)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, trace)
        lines = path.read_text().splitlines()
        assert len(lines) == trace.n_events > 1
        for j, line in enumerate(lines):
            i = int(trace.moved_index[j])
            expected = {
                "k": int(trace.update_count[j]),
                "i": i if i >= 0 else None,
                "shift": float(trace.shift[j]),
            }
            if trace.objective is not None:
                expected["L"] = float(trace.objective[j])
            if trace.grad_norm is not None:
                expected["grad_norm"] = float(trace.grad_norm[j])
            assert line == json.dumps(expected, sort_keys=True)
        first = json.loads(lines[0])
        assert set(first) == keys
        assert first["k"] == first_k


class TestJson:
    def test_schema_tag_and_stable_bytes(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        payload = {"b": 1.5, "a": [1, 2]}
        write_json(path_a, payload, schema="metrics-report")
        write_json(path_b, dict(reversed(payload.items())), schema="metrics-report")
        assert path_a.read_bytes() == path_b.read_bytes()
        assert json.loads(path_a.read_text())["schema"] == "metrics-report/1"


class TestScoreMatrix:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(7, 7))
        path = tmp_path / "scores.bin"
        write_score_matrix(path, s)
        got = read_score_matrix(path)
        np.testing.assert_array_equal(got, s)

    def test_binary_layout(self, tmp_path):
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "scores.bin"
        write_score_matrix(path, s)
        raw = path.read_bytes()
        assert len(raw) == 8 + 4 * 8
        assert int.from_bytes(raw[:8], "little") == 2
        np.testing.assert_array_equal(np.frombuffer(raw[8:], dtype="<f8"), [1.0, 2.0, 3.0, 4.0])

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(5, 5))
        path = tmp_path / "scores.csv"
        write_score_matrix(path, s)
        got = read_score_matrix(path)
        np.testing.assert_array_equal(got, s)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "scores.bin"
        write_score_matrix(path, np.zeros((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="expected"):
            read_score_matrix(path)

    def test_non_square_rejected(self, tmp_path):
        with pytest.raises(DataError, match="square"):
            write_score_matrix(tmp_path / "s.bin", np.zeros((2, 3)))
