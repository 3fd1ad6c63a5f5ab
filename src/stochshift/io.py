"""File formats: dataset/partition CSV, JSON reports, traces, score matrices.

All outputs are deterministic byte-for-byte given the same inputs: CSV
fields use ``repr``-exact float formatting and JSON is dumped with
sorted keys.  JSON payloads carry a ``schema`` tag (``<name>/1``).

``trace.jsonl`` and the float CSVs (datasets and score matrices) are
formatted in chunks by the compiled formatter (``_native.load_format``),
loaded on the first such write.  Where it is unavailable, or a chunk
holds a value that is not finite, the chunk is formatted here in
Python, which is also the formatter's reference: the bytes are the same
either way.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from . import _native
from .algorithms import RunTrace
from .clustering import Partition
from .core import check_state

__all__ = [
    "DataError",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_partition_csv",
    "write_trace_jsonl",
    "write_json",
    "write_score_matrix",
    "read_score_matrix",
]


class DataError(ValueError):
    """Malformed input data (bad CSV, shape mismatch, unreadable matrix)."""


_TRACE_CHUNK = 1 << 14  # events (or CSV values) formatted per batch


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows(pts: np.ndarray, labels) -> bytes:
    """The Python writer of CSV rows, and the compiled formatter's reference."""
    lines = []
    for i in range(pts.shape[0]):
        row = [_fmt(v) for v in pts[i]]
        if labels is not None:
            row.append(str(int(labels[i])))
        lines.append(",".join(row) + "\n")
    return "".join(lines).encode()


def _write_csv(path, header: str | None, pts: np.ndarray, labels=None) -> None:
    """``"\n".join([header] + rows) + "\n"`` for the float rows of ``pts``, each ended by its label if given."""
    lib = _native.load_format()
    n, d = pts.shape
    step = max(1, _TRACE_CHUNK // max(d, 1))
    with open(path, "wb") as fh:
        if header is not None or n == 0:
            fh.write((header or "").encode() + b"\n")
        for lo in range(0, n, step):
            rows, lab = pts[lo : lo + step], None if labels is None else labels[lo : lo + step]
            text = None if lib is None else _native.csv_rows(lib, rows, lab)
            fh.write(_csv_rows(rows, lab) if text is None else text)


def write_dataset_csv(path, points, labels=None) -> None:
    """Coordinate columns x0..x{d-1}, then an integer ``label`` column."""
    pts = np.asarray(points, dtype=np.float64)
    header = [f"x{j}" for j in range(pts.shape[1])]
    if labels is not None:
        header.append("label")
    _write_csv(path, ",".join(header), pts, labels)


def read_dataset_csv(path):
    """Parse a dataset CSV; returns ``(points, labels_or_None)``.

    Every column is a coordinate except an optional integer column named
    ``label`` (any position).  Column names must be distinct.  Parse
    failures report the line number; coordinates that
    :func:`core.check_state` rejects (not finite, or a row whose squared
    norm overflows) raise ``DataError`` too.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # (line number, text) of the non-blank lines, numbered before filtering
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in lines[0][1].split(",")]
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise DataError(f"{path}: repeated column name(s) {', '.join(map(repr, repeated))}")
    label_col = header.index("label") if "label" in header else None
    coord_cols = [j for j in range(len(header)) if j != label_col]
    if not coord_cols:
        raise DataError(f"{path}: no coordinate columns")

    rows, labels = [], []
    for lineno, line in lines[1:]:
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            rows.append([float(parts[j]) for j in coord_cols])
            if label_col is not None:
                labels.append(int(parts[label_col]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        points = check_state(rows)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return points, (np.asarray(labels, dtype=np.int64) if label_col is not None else None)


def write_partition_csv(path, partition: Partition) -> None:
    lines = ["index,cluster_id"]
    lines += [f"{i},{int(cid)}" for i, cid in enumerate(partition.assignment)]
    Path(path).write_text("\n".join(lines) + "\n")


def _trace_lines(chunk: dict) -> bytes:
    """The Python writer of trace lines, and the compiled formatter's reference.

    ``chunk`` maps the present keys, in sorted order, to their columns.
    Each value is spelled as json.dumps spells it, from one call per
    column.
    """
    line = "{" + ", ".join(f'"{key}": %s' for key in chunk) + "}\n"
    tokens = []
    for key, col in chunk.items():
        values = col.tolist()
        if key == "i":
            values = [None if v < 0 else v for v in values]
        tokens.append(json.dumps(values)[1:-1].split(", "))
    return "".join(map(line.__mod__, zip(*tokens))).encode()


def write_trace_jsonl(path, trace: RunTrace) -> None:
    """One JSON line per event: ``{"L"?, "grad_norm"?, "i", "k", "shift"}``.

    Each line is byte-for-byte ``json.dumps(record, sort_keys=True)`` of
    the event's record: floats as ``repr`` spells them, and a batch
    event's ``i`` (moved index -1) as ``null``.  ``L`` and ``grad_norm``
    appear when traced.  The columns are formatted straight to lines in
    chunks of ``_TRACE_CHUNK`` events, by the compiled formatter
    (shortest round-trip digits laid out by ``repr``'s rules) when it
    loads, else, and for a chunk holding a value that is not finite
    (``NaN``, ``Infinity``), by ``_trace_lines`` in Python.
    """
    columns = {
        "L": trace.objective,
        "grad_norm": trace.grad_norm,
        "i": trace.moved_index,
        "k": trace.update_count,
        "shift": trace.shift,
    }
    columns = {key: col for key, col in columns.items() if col is not None}
    lib = _native.load_format()
    with open(path, "wb") as fh:
        for lo in range(0, trace.n_events, _TRACE_CHUNK):
            chunk = {key: col[lo : lo + _TRACE_CHUNK] for key, col in columns.items()}
            text = None
            if lib is not None:
                text = _native.trace_lines(lib, chunk["shift"], chunk["i"], chunk["k"],
                                           chunk.get("L"), chunk.get("grad_norm"))
            fh.write(_trace_lines(chunk) if text is None else text)


def write_json(path, payload: dict, schema: str | None = None) -> None:
    out = dict(payload)
    if schema is not None:
        out["schema"] = f"{schema}/1"
    Path(path).write_text(json.dumps(out, sort_keys=True, indent=2) + "\n")


def write_score_matrix(path, scores) -> None:
    """Dense CSV for ``.csv`` paths, else the binary row-major format.

    Binary layout: 8-byte little-endian unsigned n, then n*n little-endian
    float64 values in row-major order.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DataError(f"score matrix must be square, got shape {s.shape}")
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_csv(path, None, s)
        return
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", s.shape[0]))
        fh.write(np.ascontiguousarray(s, dtype="<f8").tobytes())


def read_score_matrix(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            rows = [
                [float(v) for v in line.split(",")]
                for line in path.read_text().splitlines()
                if line.strip()
            ]
            s = np.asarray(rows, dtype=np.float64)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot parse score CSV {path}: {exc}") from exc
    else:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        if len(raw) < 8:
            raise DataError(f"{path}: truncated score matrix header")
        (n,) = struct.unpack("<Q", raw[:8])
        expected = 8 + 8 * n * n
        if len(raw) != expected:
            raise DataError(f"{path}: expected {expected} bytes for n={n}, got {len(raw)}")
        s = np.frombuffer(raw[8:], dtype="<f8").reshape(n, n).astype(np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DataError(f"{path}: score matrix must be square, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError(f"{path}: score matrix entries must be finite")
    return s
