"""File formats: dataset CSV, partition CSV, traces, score matrices."""

import ctypes
import json
import re
import shutil
import subprocess

import numpy as np
import pytest

from stochshift import _native
from stochshift.algorithms import AlgoConfig, RunTrace, run
from stochshift.clustering import Partition
from stochshift.io import (
    _TRACE_CHUNK,
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


@pytest.fixture
def fmt():
    """The compiled formatter library, or a skip where g++ cannot build it."""
    lib = _native.load_format()
    if lib is None:
        pytest.skip("the formatter could not be built here (no g++?)")
    return lib


def python_bytes(write, path, *args, monkeypatch):
    """The bytes ``write`` gives with the formatter unavailable: the Python writers."""
    with monkeypatch.context() as m:
        m.setattr(_native, "load_format", lambda: None)
        write(path, *args)
    return path.read_bytes()


def edge_floats() -> np.ndarray:
    """Values where float spelling goes wrong: layout switches, exponent widths, subnormals, extremes."""
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    powers += [1e-4, 1e16, 1e-5, 1e15, 123456789012345678.0, 0.1, 1 / 3, 2 / 3, 0.5, 100.0, 1.0]
    powers += [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    near = np.array(powers)
    up = near[near < np.finfo(np.float64).max]  # whose upward neighbour is finite
    near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(up, np.inf)])
    return np.concatenate([near, -near, [0.0, -0.0]])


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

    @pytest.mark.parametrize("header", ["x0,label,label", "x0,x0,label", "label,x0,x0"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n0.5,1,2\n")
        with pytest.raises(DataError, match="repeated column name"):
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


class TestCompiledFormatter:
    """The formatter library against ``repr`` and the Python writers, its reference."""

    def test_floats_spelled_as_repr(self, fmt):
        bits = np.random.default_rng(0).integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
        x = np.concatenate([bits.view(np.float64), edge_floats()])
        x = x[np.isfinite(x)]
        assert x.size > 1_000_000
        got = bytes(_native.csv_rows(fmt, x[:, None], None)).decode()
        expected = [repr(v) for v in x.tolist()]
        if got != "\n".join(expected) + "\n":
            bad = [(e, g) for e, g in zip(expected, got.split("\n")) if e != g]
            pytest.fail(f"spelled unlike repr (repr, got): {bad[:5]}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_left_to_python(self, fmt, value):
        assert _native.csv_rows(fmt, np.array([[1.0, value]]), None) is None
        assert _native.trace_lines(fmt, np.array([value]), np.array([0]), np.array([1])) is None
        assert _native.trace_lines(fmt, np.array([0.5]), np.array([0]), np.array([1]), np.array([value])) is None

    def test_too_small_buffer_is_refused(self, fmt):
        x = np.array([1.5, -2.25e-7, 3.0])
        moved, count = np.array([-1, 7, 2]), np.array([1, 2, 3])
        calls = {
            "csv_rows": lambda buf, cap: fmt.csv_rows(3, 1, x.ctypes.data, None, buf.ctypes.data, cap),
            "trace_lines": lambda buf, cap: fmt.trace_lines(3, x.ctypes.data, None, moved.ctypes.data,
                                                            count.ctypes.data, x.ctypes.data, buf.ctypes.data, cap),
        }
        for name, call in calls.items():
            full = call(np.empty(4096, dtype=np.uint8), 4096)
            assert full > 0, name
            for cap in range(full):
                buf = np.full(cap + 64, 0xA5, dtype=np.uint8)
                assert call(buf, cap) == -1, (name, cap)
                assert np.all(buf[cap:] == 0xA5), (name, cap)  # nothing written past the capacity
            assert call(np.empty(full, dtype=np.uint8), full) == full, name

    def test_bound_too_small_raises(self, fmt, monkeypatch):
        # the wrappers size the buffer from the widest spelling; a bound
        # that is too small must fail loudly, not write a short file
        monkeypatch.setattr(_native, "FLOAT_WIDTH", 2)
        monkeypatch.setattr(_native, "INT_WIDTH", 0)
        with pytest.raises(RuntimeError, match="buffer"):
            _native.csv_rows(fmt, np.array([[-1.2345678901234567e-308] * 4]), None)
        with pytest.raises(RuntimeError, match="buffer"):
            _native.trace_lines(fmt, np.array([-1.2345678901234567e-308] * 4), np.zeros(4), np.ones(4))

    def test_prototypes_match_cpp_definitions(self, fmt):
        source = _native._FORMAT_SOURCE.read_text()
        exported = re.findall(r'^extern "C" int64_t (\w+)\(([^)]*)\)', source, flags=re.M)
        assert sorted(name for name, _ in exported) == ["csv_rows", "trace_lines"]
        for name, params in exported:
            func = getattr(fmt, name)
            params = [p.split() for p in params.split(",")]
            assert len(params) == len(func.argtypes), name
            for param, argtype in zip(params, func.argtypes):
                pointer = any("*" in word for word in param)
                assert argtype is (ctypes.c_void_p if pointer else ctypes.c_int64), (name, param)
            assert func.restype is ctypes.c_int64, name


@pytest.mark.skipif(shutil.which(_native._FORMAT_COMPILER) is None, reason="no C++ compiler")
def test_formatter_compiles_without_warnings(tmp_path):
    cmd = [_native._FORMAT_COMPILER, *_native._FORMAT_FLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "f.so"), str(_native._FORMAT_SOURCE), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=_native._COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr


class TestCsvParity:
    """The compiled and Python CSV writers give the same bytes."""

    @pytest.mark.parametrize("labels", [False, True])
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_dataset_csv(self, fmt, tmp_path, monkeypatch, d, labels):
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(50, d)) * 10.0 ** rng.integers(-8, 18, size=(50, d))
        pts.flat[:4] = [0.0, -0.0, 1e16, 1e-5][: pts.size]
        lab = rng.integers(-3, 10**12, size=50) if labels else None
        path = tmp_path / "data.csv"
        write_dataset_csv(path, pts, lab)
        assert path.read_bytes() == python_bytes(write_dataset_csv, tmp_path / "py.csv", pts, lab,
                                                 monkeypatch=monkeypatch)

    def test_rows_past_one_chunk(self, fmt, tmp_path, monkeypatch):
        pts = np.random.default_rng(5).normal(size=(_TRACE_CHUNK // 2 + 7, 3))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, pts, np.arange(pts.shape[0]))
        assert path.read_bytes() == python_bytes(write_dataset_csv, tmp_path / "py.csv", pts,
                                                 np.arange(pts.shape[0]), monkeypatch=monkeypatch)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_spelled_by_repr(self, fmt, tmp_path, value):
        path = tmp_path / "data.csv"
        write_dataset_csv(path, np.array([[1.0, value], [0.5, 2.0]]))
        assert path.read_text() == f"x0,x1\n1.0,{value!r}\n0.5,2.0\n"

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_score_matrix_csv(self, fmt, tmp_path, monkeypatch, n):
        s = np.random.default_rng(n).normal(size=(n, n))
        path = tmp_path / "scores.csv"
        write_score_matrix(path, s)
        assert path.read_bytes() == python_bytes(write_score_matrix, tmp_path / "py.csv", s,
                                                 monkeypatch=monkeypatch)


class TestPartitionCsv:
    def test_golden_bytes(self, tmp_path):
        part = Partition(np.array([1, 1, 2]), 2)
        path = tmp_path / "partition.csv"
        write_partition_csv(path, part)
        assert path.read_text() == "index,cluster_id\n0,1\n1,1\n2,2\n"


class TestTraceJsonl:
    @pytest.mark.parametrize(
        "algorithm, trace_objective, trace_gradient, keys, first_k",
        [
            ("sms", True, True, {"L", "grad_norm", "i", "k", "shift"}, 1),
            ("bms", True, False, {"L", "i", "k", "shift"}, 4),
            ("ms", False, False, {"i", "k", "shift"}, 4),
        ],
        ids=["sms", "bms", "ms"],
    )
    def test_record_fields(self, tmp_path, algorithm, trace_objective, trace_gradient, keys, first_k):
        pts = np.array([[0.0], [0.4], [0.9], [3.0]])
        cfg = AlgoConfig(
            algorithm=algorithm,
            profile=Profile(2),
            seed=0,
            max_updates=200,
            trace_objective=trace_objective,
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


def synthetic_trace(n: int, objective: bool, gradient: bool) -> RunTrace:
    """A trace of n events whose floats span the spellings and whose indices include batch events."""
    rng = np.random.default_rng(n)
    floats = rng.exponential(size=(3, n)) * 10.0 ** rng.integers(-12, 20, size=(3, n))
    floats[:, ::7] = rng.integers(0, 2**64, size=(3, len(range(0, n, 7))), dtype=np.uint64).view(np.float64)
    floats[~np.isfinite(floats)] = -0.0
    return RunTrace(
        algorithm="sms",
        moved_index=rng.integers(-1, 4500, size=n),
        shift=floats[0],
        initial_points=np.zeros((1, 1)),
        final_points=np.zeros((1, 1)),
        update_count=np.cumsum(rng.integers(1, 5, size=n)),
        objective=floats[1] if objective else None,
        grad_norm=floats[2] if gradient else None,
    )


class TestTraceParity:
    """The compiled and Python trace writers give the same bytes."""

    @pytest.mark.parametrize(
        "algorithm, trace_objective, trace_gradient",
        [("sms", False, False), ("sms", True, False), ("sms", False, True), ("sms", True, True),
         ("bms", False, False), ("bms", True, False), ("ms", False, False)],
        ids=["sms", "sms-L", "sms-grad", "sms-L-grad", "bms", "bms-L", "ms"],
    )
    def test_runs(self, fmt, tmp_path, monkeypatch, algorithm, trace_objective, trace_gradient):
        rng = np.random.default_rng(4)
        pts = np.concatenate([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 4.0])
        cfg = AlgoConfig(algorithm=algorithm, seed=3, trace_objective=trace_objective,
                         trace_gradient=trace_gradient)
        _, trace = run(pts, cfg)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, trace)
        assert path.read_bytes() == python_bytes(write_trace_jsonl, tmp_path / "py.jsonl", trace,
                                                 monkeypatch=monkeypatch)
        if algorithm != "sms":
            assert all(json.loads(line)["i"] is None for line in path.read_text().splitlines())

    @pytest.mark.parametrize("n_events", [0, 1, _TRACE_CHUNK, _TRACE_CHUNK + 1])
    @pytest.mark.parametrize("columns", ["plain", "objective", "both"])
    def test_chunk_edges(self, fmt, tmp_path, monkeypatch, n_events, columns):
        trace = synthetic_trace(n_events, columns != "plain", columns == "both")
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, trace)
        text = path.read_bytes()
        assert text == python_bytes(write_trace_jsonl, tmp_path / "py.jsonl", trace, monkeypatch=monkeypatch)
        assert text.count(b"\n") == n_events
        if n_events:
            assert b'"i": null' in text or n_events == 1

    def test_non_finite_chunk_spelled_by_json(self, fmt, tmp_path):
        # the chunk holding NaN or an infinity is written in Python; the others in C
        trace = synthetic_trace(_TRACE_CHUNK + 5, True, False)
        trace.shift[_TRACE_CHUNK + 1] = np.nan
        trace.objective[_TRACE_CHUNK + 2] = np.inf
        trace.objective[_TRACE_CHUNK + 3] = -np.inf
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(path, trace)
        lines = path.read_text().splitlines()
        for j in [0, _TRACE_CHUNK - 1, *range(_TRACE_CHUNK, _TRACE_CHUNK + 5)]:
            i = int(trace.moved_index[j])
            record = {"L": float(trace.objective[j]), "i": i if i >= 0 else None,
                      "k": int(trace.update_count[j]), "shift": float(trace.shift[j])}
            assert lines[j] == json.dumps(record, sort_keys=True)
        assert '"shift": NaN' in lines[_TRACE_CHUNK + 1]
        assert '"L": Infinity' in lines[_TRACE_CHUNK + 2] and '"L": -Infinity' in lines[_TRACE_CHUNK + 3]


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

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="cannot parse"):
            read_score_matrix(path)
