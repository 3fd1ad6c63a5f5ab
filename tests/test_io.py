"""File formats: dataset CSV, partition CSV, traces, score matrices."""

import ctypes
import json
import os
import re
import shutil
import subprocess

import numpy as np
import pytest

from stochshift import _native
from stochshift import io as io_mod
from stochshift.algorithms import AlgoConfig, RunTrace, run
from stochshift.clustering import Partition
from stochshift.io import (
    _TRACE_CHUNK,
    _TRACE_KINDS,
    DataError,
    _csv_texts,
    _render_rows,
    _trace_texts,
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

    @pytest.mark.parametrize("points, labels", [
        pytest.param(np.zeros((5, 2)), np.arange(6), id="more-labels-than-rows"),
        pytest.param(np.zeros((5, 2)), np.arange(4), id="fewer-labels-than-rows"),
        pytest.param(np.zeros(5), None, id="one-dimensional-points"),
        pytest.param(np.zeros((5, 2)), np.full(5, 1.5), id="float-labels"),
    ])
    def test_bad_shapes_rejected_before_writing(self, tmp_path, points, labels):
        path = tmp_path / "data.csv"
        path.write_text("kept\n")
        with pytest.raises(DataError, match="must be"):
            write_dataset_csv(path, points, labels)
        assert path.read_text() == "kept\n"  # the file was not opened

    @pytest.mark.parametrize("label", ["9223372036854775808", "-9223372036854775809"])
    def test_label_beyond_int64_reports_line(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"x0,label\n0.5,-9223372036854775808\n\n1.5,{label}\n")
        with pytest.raises(DataError, match=f"data.csv:4: label {label} is outside the int64 range"):
            read_dataset_csv(path)

    def test_exact_float_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, pts)
        got, _ = read_dataset_csv(path)
        np.testing.assert_array_equal(got, pts)


def compiled(lib, texts, kinds, columns, n, chunk=None) -> bytes:
    return b"".join(bytes(b) for b in _native.put_rows(lib, texts, kinds, columns, n, chunk or max(n, 1)))


def rendered(texts, kinds, columns, n, chunk=None) -> bytes:
    return b"".join(_render_rows(texts, kinds, columns, n, chunk or max(n, 1)))


# the layouts io writes, as (texts, kinds): a trace line with every key,
# one with the untraced keys, a labelled 2-D dataset row and a partition row
TRACE_KEYS = ["L", "grad_norm", "i", "k", "shift"]
LAYOUTS = {
    "trace": (_trace_texts(TRACE_KEYS), [_TRACE_KINDS[key] for key in TRACE_KEYS]),
    "trace-plain": (_trace_texts(TRACE_KEYS[2:]), [_TRACE_KINDS[key] for key in TRACE_KEYS[2:]]),
    "dataset": (_csv_texts(3), [_native.FLOAT, _native.FLOAT, _native.INT]),
    "partition": (_csv_texts(2), [_native.INT, _native.INT]),
}


def layout_columns(kinds, n: int, seed: int = 0) -> list[np.ndarray]:
    """n values per kind: floats at every scale, every ninth not finite or extreme, and integers of every width."""
    rng = np.random.default_rng(seed)
    extremes = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308]
    columns = []
    for kind in kinds:
        if kind in (_native.FLOAT, _native.JSON_FLOAT):
            col = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
            col[::9] = np.resize(extremes, col[::9].size)
            columns.append(col)
        else:
            columns.append(rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True) >> rng.integers(0, 63, size=n))
    return columns


class TestCompiledFormatter:
    """The formatter library against ``repr`` and the Python renderer, its reference."""

    def test_floats_spelled_as_repr(self, fmt):
        bits = np.random.default_rng(0).integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
        x = np.concatenate([bits.view(np.float64), edge_floats()])
        x = x[np.isfinite(x)]
        assert x.size > 1_000_000
        got = compiled(fmt, ["", "\n"], [_native.FLOAT], [x], x.size).decode()
        expected = [repr(v) for v in x.tolist()]
        if got != "\n".join(expected) + "\n":
            bad = [(e, g) for e, g in zip(expected, got.split("\n")) if e != g]
            pytest.fail(f"spelled unlike repr (repr, got): {bad[:5]}")

    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf], ids=["nan", "-nan", "inf", "-inf"])
    def test_non_finite_spelled_like_python(self, fmt, value):
        x = np.array([1.0, value, 0.5])
        for kind, spell in [(_native.FLOAT, repr), (_native.JSON_FLOAT, json.dumps)]:
            args = ["<", ">\n"], [kind], [x], 3
            assert compiled(fmt, *args) == rendered(*args), kind
            assert compiled(fmt, *args).decode().split("\n")[1] == f"<{spell(float(value))}>", kind

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_layouts_match_python(self, fmt, name):
        texts, kinds = LAYOUTS[name]
        columns = layout_columns(kinds, 2000)
        assert compiled(fmt, texts, kinds, columns, 2000, 333) == rendered(texts, kinds, columns, 2000, 333)

    def test_texts_with_format_characters(self, fmt):
        texts = ['%s{"', '%%"}', "%d%", "{0}\n"]
        kinds = [_native.JSON_FLOAT, _native.INT_OR_NULL, _native.FLOAT]
        columns = [np.array([0.5, np.nan]), np.array([-1, 7]), np.array([np.inf, 1e16])]
        got = compiled(fmt, texts, kinds, columns, 2)
        assert got == rendered(texts, kinds, columns, 2)
        assert got == b'%s{"0.5%%"}null%d%inf{0}\n%s{"NaN%%"}7%d%1e+16{0}\n'

    def test_strided_columns(self, fmt):
        # the dataset writer hands the columns of an (n, d) array as strided views
        x = np.arange(12.0).reshape(4, 3)
        texts, kinds, columns = _csv_texts(2), [_native.FLOAT, _native.FLOAT], [x[::-1, 2], x[:, 0]]
        assert compiled(fmt, texts, kinds, columns, 4) == b"11.0,0.0\n8.0,3.0\n5.0,6.0\n2.0,9.0\n"

    def test_too_small_buffer_is_refused(self, fmt):
        for name in ["trace", "dataset"]:
            texts, kinds = LAYOUTS[name]
            columns = [np.ascontiguousarray(c) for c in layout_columns(kinds, 3)]
            text = "".join(texts).encode()
            ends = np.cumsum([len(t.encode()) for t in texts], dtype=np.int64)
            addresses = (ctypes.c_void_p * len(columns))(*[c.ctypes.data for c in columns])
            strides, kinds = np.full(len(columns), 8, dtype=np.int64), np.array(kinds, dtype=np.int64)

            def call(buf, cap):
                return fmt.put_rows(0, 3, len(columns), addresses, strides.ctypes.data, kinds.ctypes.data, text,
                                    ends.ctypes.data, buf.ctypes.data, cap)

            full = call(np.empty(4096, dtype=np.uint8), 4096)
            assert full > 0, name
            for cap in range(full):
                buf = np.full(cap + 64, 0xA5, dtype=np.uint8)
                assert call(buf, cap) == -1, (name, cap)
                assert np.all(buf[cap:] == 0xA5), (name, cap)  # nothing written past the capacity
            assert call(np.empty(full, dtype=np.uint8), full) == full, name

    def test_bound_too_small_raises(self, fmt, monkeypatch):
        # put_rows sizes the buffer from the texts and the widest value of
        # each kind; a bound that is too small must fail loudly, not write a short file
        monkeypatch.setattr(_native, "WIDTHS", (2, 2, 0, 0))
        for texts, kinds in LAYOUTS.values():
            with pytest.raises(RuntimeError, match="buffer"):
                compiled(fmt, texts, kinds, layout_columns(kinds, 4), 4)

    def test_prototypes_match_cpp_definitions(self, fmt):
        source = _native._FORMAT_SOURCE.read_text()
        exported = re.findall(r'^extern "C" int64_t (\w+)\(([^)]*)\)', source, flags=re.M)
        assert [name for name, _ in exported] == ["put_rows"]
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


SANITIZER_FLAGS = ["-std=c++17", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]

# renders each layout of LAYOUTS into heap buffers of exactly the needed
# size and of every smaller size, then prints the extreme values of the
# SPECIALS layout: every value in its row, once per float kind
SANITIZER_DRIVER = r"""
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

extern "C" int64_t put_rows(int64_t first, int64_t n, int64_t ncols, const char *const *cols,
                            const int64_t *strides, const int64_t *kinds, const char *text,
                            const int64_t *text_end, char *buf, int64_t cap);

struct Layout { int64_t ncols; const int64_t *kinds; const char *text; const int64_t *ends; };
%(layouts)s

const int64_t N = 3;
const double FLOATS[N] = {-1.2345678901234567e-308, 0.1, -0.0};
const int64_t INTS[N] = {std::numeric_limits<int64_t>::min(), -1, 7};

int64_t render(const Layout &l, const char *const *cols, const int64_t *strides, int64_t n, char *buf,
               int64_t cap) {
    return put_rows(0, n, l.ncols, cols, strides, l.kinds, l.text, l.ends, buf, cap);
}

int check(const Layout &l) {
    const char *cols[8];
    int64_t strides[8];
    for (int64_t j = 0; j < l.ncols; ++j) {
        cols[j] = l.kinds[j] >= 2 ? (const char *)INTS : (const char *)FLOATS;
        strides[j] = 8;
    }
    static char big[1 << 16];
    int64_t full = render(l, cols, strides, N, big, sizeof big);
    if (full <= 0) return 1;
    for (int64_t cap = 0; cap < full; ++cap) {
        char *buf = new char[cap];
        int64_t got = render(l, cols, strides, N, buf, cap);
        delete[] buf;
        if (got != -1) return 2;
    }
    char *buf = new char[full];
    int64_t got = render(l, cols, strides, N, buf, full);
    int same = got == full && std::memcmp(buf, big, full) == 0;
    delete[] buf;
    return same ? 0 : 3;
}

int main() {
    for (const Layout &l : LAYOUTS)
        if (int bad = check(l)) {
            std::printf("layout %%d failed: %%d\n", int(&l - LAYOUTS), bad);
            return 1;
        }
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {0.0, -0.0, 5e-324, std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::quiet_NaN(), inf, -inf};
    const int64_t count = sizeof values / sizeof *values;
    const char *cols[count];
    int64_t strides[count];
    for (int64_t j = 0; j < count; ++j) {
        cols[j] = (const char *)(values + j);
        strides[j] = 0;
    }
    for (const Layout &l : SPECIALS) {
        char *buf = new char[4096];
        int64_t got = render(l, cols, strides, 1, buf, 4096);
        if (got < 0) return 4;
        std::fwrite(buf, 1, got, stdout);
        delete[] buf;
    }
    return 0;
}
"""


def c_layouts(name: str, layouts) -> str:
    """C++ definitions of ``Layout name[]`` holding the (texts, kinds) of ``layouts``."""
    defs, entries = [], []
    for j, (texts, kinds) in enumerate(layouts):
        pieces = [t.encode() for t in texts]
        text = "".join(f"\\{b:03o}" for b in b"".join(pieces))
        ends = ", ".join(str(e) for e in np.cumsum([len(p) for p in pieces]))
        defs.append(f'const int64_t {name}_kinds{j}[] = {{{", ".join(map(str, kinds)) or "0"}}};\n'
                    f'const int64_t {name}_ends{j}[] = {{{ends}}};\n'
                    f'const char {name}_text{j}[] = "{text}";')
        entries.append(f"{{{len(kinds)}, {name}_kinds{j}, {name}_text{j}, {name}_ends{j}}}")
    return "\n".join(defs) + f"\nconst Layout {name}[] = {{{', '.join(entries)}}};"


@pytest.mark.skipif(shutil.which(_native._FORMAT_COMPILER) is None, reason="no C++ compiler")
def test_formatter_under_sanitizers(tmp_path):
    # a build with AddressSanitizer catches any write past a buffer of exactly the capacity given
    def compile_(*sources):
        cmd = [_native._FORMAT_COMPILER, *SANITIZER_FLAGS, "-o", str(tmp_path / "driver"), *map(str, sources)]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=_native._COMPILE_TIMEOUT_S)

    (tmp_path / "empty.cpp").write_text("int main() { return 0; }\n")
    if compile_(tmp_path / "empty.cpp").returncode != 0:
        pytest.skip("no sanitizer runtime for the C++ compiler")
    specials = [(["", *[" "] * 6, "\n"], [kind] * 7) for kind in (_native.FLOAT, _native.JSON_FLOAT)]
    driver = tmp_path / "driver.cpp"
    driver.write_text(SANITIZER_DRIVER % {"layouts": c_layouts("LAYOUTS", LAYOUTS.values()) + "\n"
                                          + c_layouts("SPECIALS", specials)})
    built = compile_(driver, _native._FORMAT_SOURCE)
    assert built.returncode == 0, built.stderr
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0:abort_on_error=0", UBSAN_OPTIONS="print_stacktrace=1")
    done = subprocess.run([str(tmp_path / "driver")], capture_output=True, timeout=120, env=env)
    assert done.returncode == 0, done.stdout.decode() + done.stderr.decode()
    values = [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
    expected = b"".join(rendered(texts, kinds, [np.array([v]) for v in values], 1) for texts, kinds in specials)
    assert done.stdout == expected
    assert done.stdout.split(b"\n")[:2] == [b"0.0 -0.0 5e-324 1.7976931348623157e+308 nan inf -inf",
                                             b"0.0 -0.0 5e-324 1.7976931348623157e+308 NaN Infinity -Infinity"]


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

    @pytest.mark.parametrize("n", [1, 4500, _TRACE_CHUNK + 1])
    def test_compiled_matches_python(self, fmt, tmp_path, monkeypatch, n):
        ids = np.random.default_rng(n).integers(1, 40, size=n)
        part = Partition(np.unique(ids, return_inverse=True)[1] + 1, np.unique(ids).size)
        path = tmp_path / "partition.csv"
        write_partition_csv(path, part)
        text = path.read_bytes()
        assert text == python_bytes(write_partition_csv, tmp_path / "py.csv", part, monkeypatch=monkeypatch)
        assert text.count(b"\n") == n + 1


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
        # the library spells NaN and the infinities as json.dumps does
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


def test_library_renders_every_chunk(fmt, tmp_path, monkeypatch):
    # while the library loads, no chunk goes to the Python renderer, not even one off the finite values
    def no_python(*args):
        raise AssertionError("a chunk was rendered in Python")

    monkeypatch.setattr(io_mod, "_render_rows", no_python)
    trace = synthetic_trace(_TRACE_CHUNK + 5, True, True)
    trace.shift[3], trace.objective[_TRACE_CHUNK + 1], trace.grad_norm[0] = np.nan, np.inf, -np.inf
    write_trace_jsonl(tmp_path / "trace.jsonl", trace)
    write_dataset_csv(tmp_path / "data.csv", np.array([[np.nan, -np.inf], [np.inf, 0.5]]), np.array([1, 2]))
    write_partition_csv(tmp_path / "partition.csv", Partition(np.array([1, 2, 1]), 2))
    write_score_matrix(tmp_path / "scores.csv", np.full((3, 3), np.nan))
    assert (tmp_path / "data.csv").read_text() == "x0,x1,label\nnan,-inf,1\ninf,0.5,2\n"
    assert '"grad_norm": -Infinity' in (tmp_path / "trace.jsonl").read_text().splitlines()[0]


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
    @pytest.mark.parametrize("n", [0, 7])
    def test_binary_roundtrip(self, tmp_path, n):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(n, n))
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

    @pytest.mark.parametrize("n", [0, 5])
    def test_csv_roundtrip(self, tmp_path, n):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(n, n))
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
