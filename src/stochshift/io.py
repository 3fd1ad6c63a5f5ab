"""File formats: dataset/partition CSV, JSON reports, traces, score matrices.

All outputs are deterministic byte-for-byte given the same inputs: CSV
fields use ``repr``-exact float formatting and JSON is dumped with
sorted keys.  JSON payloads carry a ``schema`` tag (``<name>/1``).

Each text file of rows (``trace.jsonl``, the dataset, partition and
score-matrix CSVs) is stated once here as a layout: the literal texts
around its columns and each column's kind (``_native.FLOAT`` and the
others).  The compiled formatter (``_native.put_rows``, loaded on the
first such write) renders the rows in chunks.  Where it is unavailable,
``_render_rows`` renders the same layout in Python; it is also the
formatter's reference, and the bytes are the same either way.
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


_TRACE_CHUNK = 1 << 14  # rows (or CSV floats) rendered per chunk


# how the Python renderer spells a column's (non-empty) list of values, by kind
_SPELL = {
    _native.FLOAT: lambda values: list(map(repr, values)),
    _native.JSON_FLOAT: lambda values: json.dumps(values)[1:-1].split(", "),
    _native.INT: lambda values: list(map(str, values)),
    _native.INT_OR_NULL: lambda values: ["null" if v < 0 else str(v) for v in values],
}


def _render_rows(texts, kinds, columns, n: int, chunk: int):
    """The Python renderer of rows, and the compiled formatter's reference.

    Yields the bytes of ``chunk`` rows at a time, laid out as
    ``_native.put_rows`` lays them out.
    """
    line = "%s".join(t.replace("%", "%%") for t in texts)
    for lo in range(0, n, chunk):
        tokens = [_SPELL[kind](col[lo : lo + chunk].tolist()) for kind, col in zip(kinds, columns)]
        rows = map(line.__mod__, zip(*tokens)) if tokens else [line] * min(chunk, n - lo)
        yield "".join(rows).encode()


def _write_rows(path, header: str | None, texts, kinds, columns, n: int, chunk: int = _TRACE_CHUNK) -> None:
    """Write the ``header`` line, if given, then the n rows of ``columns`` in the layout ``texts``, ``kinds``."""
    lib = _native.load_format()
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode() + b"\n")
        if lib is None:
            fh.writelines(_render_rows(texts, kinds, columns, n, chunk))
        else:
            fh.writelines(_native.put_rows(lib, texts, kinds, columns, n, chunk))


def _csv_texts(ncols: int) -> list[str]:
    """The texts of a CSV row of ``ncols`` fields: joined by ',', ended by a newline."""
    return ["", *[","] * (ncols - 1), "\n"] if ncols else ["\n"]


def _write_csv(path, header: str | None, pts: np.ndarray, labels=None) -> None:
    """``"\n".join([header] + rows) + "\n"`` for the float rows of ``pts``, each ended by its label if given."""
    n, d = pts.shape
    columns = [pts[:, j] for j in range(d)] + ([] if labels is None else [labels])
    kinds = [_native.FLOAT] * d + ([] if labels is None else [_native.INT])
    if header is None and n == 0:
        header = ""
    _write_rows(path, header, _csv_texts(len(kinds)), kinds, columns, n, max(1, _TRACE_CHUNK // max(d, 1)))


def write_dataset_csv(path, points, labels=None) -> None:
    """Coordinate columns x0..x{d-1}, then an integer ``label`` column.

    ``points`` must be (n, d) and ``labels`` None or n integers; either
    mismatch raises ``DataError`` before the file is opened.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DataError(f"points must be an (n, d) array, got shape {pts.shape}")
    header = [f"x{j}" for j in range(pts.shape[1])]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != pts.shape[:1] or not np.can_cast(labels.dtype, np.int64):
            raise DataError(f"labels must be {pts.shape[0]} integers (int64), "
                            f"got {labels.dtype} of shape {labels.shape}")
        labels = labels.astype(np.int64, copy=False)
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
        if labels and not -(2**63) <= labels[-1] < 2**63:
            raise DataError(f"{path}:{lineno}: label {labels[-1]} is outside the int64 range")
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        points = check_state(rows)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return points, (np.asarray(labels, dtype=np.int64) if label_col is not None else None)


def write_partition_csv(path, partition: Partition) -> None:
    """``index,cluster_id``, then one row per input index."""
    n = partition.n
    _write_rows(path, "index,cluster_id", _csv_texts(2), [_native.INT, _native.INT],
                [np.arange(n), partition.assignment], n)


# the kind of each trace key's column
_TRACE_KINDS = {"L": _native.JSON_FLOAT, "grad_norm": _native.JSON_FLOAT, "i": _native.INT_OR_NULL,
                "k": _native.INT, "shift": _native.JSON_FLOAT}


def _trace_texts(keys) -> list[str]:
    """The texts of ``json.dumps(record, sort_keys=True)`` for records with the sorted ``keys``."""
    return [("{" if j == 0 else ", ") + f'"{key}": ' for j, key in enumerate(keys)] + ["}\n"]


def write_trace_jsonl(path, trace: RunTrace) -> None:
    """One JSON line per event: ``{"L"?, "grad_norm"?, "i", "k", "shift"}``.

    Each line is byte-for-byte ``json.dumps(record, sort_keys=True)`` of
    the event's record: floats as ``repr`` spells them (``NaN`` and
    ``Infinity`` off the finite values), and a batch event's ``i``
    (moved index -1) as ``null``.  ``L`` and ``grad_norm`` appear when
    traced.
    """
    columns = {
        "L": trace.objective,
        "grad_norm": trace.grad_norm,
        "i": trace.moved_index,
        "k": trace.update_count,
        "shift": trace.shift,
    }
    columns = {key: col for key, col in columns.items() if col is not None}
    _write_rows(path, None, _trace_texts(columns), [_TRACE_KINDS[key] for key in columns],
                list(columns.values()), trace.n_events)


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
            # no data lines (the writer's n = 0 file is one newline) is the empty matrix
            s = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, 0))
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
