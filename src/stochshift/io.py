"""File formats: dataset/partition CSV, JSON reports, traces, score matrices.

All outputs are deterministic byte-for-byte given the same inputs: CSV
fields use ``repr``-exact float formatting and JSON is dumped with
sorted keys.  JSON payloads carry a ``schema`` tag (``<name>/1``).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_dataset_csv(path, points, labels=None) -> None:
    """Coordinate columns x0..x{d-1}, then an integer ``label`` column."""
    pts = np.asarray(points, dtype=np.float64)
    path = Path(path)
    header = [f"x{j}" for j in range(pts.shape[1])]
    if labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i in range(pts.shape[0]):
        row = [_fmt(v) for v in pts[i]]
        if labels is not None:
            row.append(str(int(labels[i])))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


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


_TRACE_CHUNK = 1 << 14  # events formatted per batch of lines


def write_trace_jsonl(path, trace: RunTrace) -> None:
    """One JSON line per event: ``{"L"?, "grad_norm"?, "i", "k", "shift"}``.

    The trace columns are formatted straight to lines, keys in sorted
    order, so each line is byte-for-byte ``json.dumps(record,
    sort_keys=True)`` of the event's record: floats by ``repr``, and a
    batch event's ``i`` (moved index -1) as ``null``.  ``L`` and
    ``grad_norm`` appear when traced.
    """
    columns = {
        "L": trace.objective,
        "grad_norm": trace.grad_norm,
        "i": trace.moved_index,
        "k": trace.update_count,
        "shift": trace.shift,
    }
    columns = {key: col for key, col in columns.items() if col is not None}
    line = "{" + ", ".join(f'"{key}": %s' for key in columns) + "}\n"
    with open(path, "w") as fh:
        for lo in range(0, trace.n_events, _TRACE_CHUNK):
            tokens = []
            for key, col in columns.items():
                values = col[lo : lo + _TRACE_CHUNK].tolist()
                if key == "i":
                    values = [None if v < 0 else v for v in values]
                # each value as json.dumps writes it, from one call per column
                tokens.append(json.dumps(values)[1:-1].split(", "))
            fh.writelines(map(line.__mod__, zip(*tokens)))


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
        lines = [",".join(_fmt(v) for v in row) for row in s]
        path.write_text("\n".join(lines) + "\n")
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
