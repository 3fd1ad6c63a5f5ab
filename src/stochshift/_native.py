"""The package's compiled libraries, built on first use with the system compilers.

Two sources ship with the package.  ``_kernel.c`` exports ``sms_block``,
the distance SMS block runner behind :class:`SmsBlockKernel`,
``knn_block``, the score-matrix SMS block runner behind
:class:`KnnBlockKernel`, ``shift_rows``, the mean-shift batch map
behind :func:`shift_rows`, which ``algorithms._shift_rows`` runs for MS
and ``core.full_gradient`` runs, with the rows' weight totals, on a
state against itself, and ``bms_sweeps``, the blurring mean-shift
sweeps behind :func:`bms_sweeps`, which ``algorithms._bms_sweeps`` runs
for BMS.  Two half-pair reductions serve the theory checks:
``pair_objective`` behind :func:`pair_objective`, the pair sum of
``core.objective_value``, and ``band_slack`` behind :func:`band_slack`,
the exact-distance band scan of ``theory._band_slack``; they return
doubles.  ``top_k``, behind :func:`top_k`, ranks the columns of a score
matrix for ``affinity.top_score_neighbors``, reading any strided view in
place.  The two block runners share one stop rule in C and its state
and checks here (:class:`_BlockRunner`).  ``_format.cpp`` exports ``put_rows``,
behind :func:`put_rows`, which renders rows of typed columns between
literal texts; ``io`` states each of its text layouts (``trace.jsonl``,
the dataset, partition and score-matrix CSVs) as such texts and column
kinds.  Floats are spelled as ``repr`` spells them, from the shortest
round-trip digits of C++17's ``std::to_chars``.

The kernel's exports declare each array as a typed pointer (double or
int64_t).  Every array reaches them through ``_ptr``, which checks it
once (dtype, C-contiguity and, where C writes through it, writeability)
and binds it to that pointer; the block runners bind their buffers when
built, so each block binds only its index block.  The one exception is
the score matrix of :func:`top_k`, read through its element strides.
The formatter takes untyped pointers, as it reads columns of mixed kinds
through strides.

``load()`` (the kernel, with gcc) and ``load_format()`` (the formatter,
with g++) each compile their source once into a shared library in the
user cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``, else a
per-user directory under the system temporary directory), under a file
name keyed by the source's name and a hash of its text and the flags
(``build`` keeps the newest few of each source), and load it with
ctypes, its exports' prototypes set from one table, ``_PROTOTYPES``.
The two are separate libraries, so a machine without g++ still runs
the kernel.  First uses in concurrent processes each compile to a
private temporary name and publish with an atomic ``os.replace``.
Within one process the cache is not locked, so threads must not make
the first call: ``experiments.ordered_map`` calls ``load()`` before it
starts any.  The flags are portable: no ``-ffast-math``, which would
reorder the sums, and no ``-march=native``.

Any failure (no compiler, no source, a failed compile, an unwritable
cache or one another user owns, a library that does not load) makes the
loader log the reason once at WARNING on the ``stochshift`` logger and
return None.  Callers then run the numpy path instead of the kernel (the
numpy bodies of ``algorithms``, ``core.objective_value``,
``core.full_gradient``, ``theory._band_slack`` and
``affinity.top_score_neighbors``), or
``io``'s Python row renderer instead of the formatter; each is also
the reference its compiled twin is tested against.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
_COMPILER = "gcc"
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_FORMAT_SOURCE = Path(__file__).with_name("_format.cpp")
_FORMAT_COMPILER = "g++"
_FORMAT_FLAGS = ("-std=c++17", "-O2", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 120
_KEEP_BUILDS = 4
_log = logging.getLogger("stochshift")


def _cache_dirs() -> list[Path]:
    """Where the libraries may live, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return [Path(base) / "stochshift", Path(tempfile.gettempdir()) / f"stochshift-{uid}"]


def library_path(cache_dir: Path, source: Path, flags: tuple[str, ...]) -> Path:
    """The library's file name in ``cache_dir``: the source's name, then a hash of its text and the flags.

    The compiler is not hashed: each source has one, by its language,
    and a library already built is used without one.
    """
    key = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode()).hexdigest()[:16]
    return Path(cache_dir) / f"{source.stem.lstrip('_')}-{key}.so"


def build(cache_dir: Path, source: Path, compiler: str, flags: tuple[str, ...]) -> Path:
    """Return the library compiled from ``source`` in ``cache_dir``, compiling it if absent.

    Raises OSError when the source or the compiler is missing or the
    directory cannot be made or is not the user's own, and
    ``subprocess.SubprocessError`` when the compile fails; no
    half-written library is left behind.  A compile deletes the source's
    libraries older than the ``_KEEP_BUILDS`` newest, which are enough
    for two revisions run by turns never to recompile.
    """
    target = library_path(cache_dir, source, flags)
    cache_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
    if hasattr(os, "getuid") and cache_dir.stat().st_uid != os.getuid():
        # never load code from a directory another user controls
        raise PermissionError(f"{cache_dir} is owned by another user")
    if target.is_file():
        return target
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run([compiler, *flags, "-o", tmp, str(source), "-lm"], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=_COMPILE_TIMEOUT_S)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    with contextlib.suppress(OSError):  # housekeeping: a file a concurrent build pruned first fails no build
        builds = sorted(cache_dir.glob(target.name.rsplit("-", 1)[0] + "-*.so"),
                        key=lambda path: path.stat().st_mtime_ns, reverse=True)
        for path in builds[_KEEP_BUILDS:]:
            path.unlink()
    return target


# the kernel's array types by dtype; C's double and int64_t; an untyped pointer
_F64, _I64 = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
_POINTERS = {np.dtype(np.float64): _F64, np.dtype(np.int64): _I64}
_f, _i, _p = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p

# each library's exports: restype and argtypes, in the order of the C
# definition.  The kernel's arrays are typed pointers, bound by _ptr; the
# formatter reads mixed columns through char * and strides, so it takes
# untyped ones.
_PROTOTYPES = {
    "kernel": {
        # pts, sqn, n, d, idx, m, h2, alpha, tol, stamp, state, shifts, deltas, grads, scratch
        "sms_block": (_i, [_F64, _F64, _i, _i, _I64, _i, _f, _i, _f, _I64, _I64, _F64, _F64, _F64, _F64]),
        # pts, n, d, nb, k, idx, m, tol, stamp, state, shifts
        "knn_block": (_i, [_F64, _i, _i, _I64, _i, _I64, _i, _f, _I64, _I64, _F64]),
        # q, sqq, m, s, sqs, n, d, h2, alpha, out, totals (NULL for MS)
        "shift_rows": (None, [_F64, _F64, _i, _F64, _F64, _i, _i, _f, _i, _F64, _F64]),
        # pts, n, d, h2, alpha, tol, max_sweeps, shifts, scratch
        "bms_sweeps": (_i, [_F64, _i, _i, _f, _i, _f, _i, _F64, _F64]),
        # pts, sqn, n, d, h2, alpha; returns the sum over pairs i < j of k(t_ij)
        "pair_objective": (_f, [_F64, _F64, _i, _i, _f, _i]),
        # pts, n, d, lo, hi; returns the least max(lo - d_ij, d_ij - hi) over pairs i < j
        "band_slack": (_f, [_F64, _i, _i, _f, _f]),
        # scores, n, row and column strides in elements, k, out, scratch; scores may be any strided view
        "top_k": (None, [_F64, _i, _i, _i, _i, _I64, _F64]),
    },
    # first, n, ncols, cols, strides, kinds, text, text_end, buf, cap
    "format": {"put_rows": (_i, [_i, _i, _i, _p, _p, _p, _p, _p, _p, _i])},
}


def _open(path: Path, prototypes: dict):
    """The library at ``path`` with ``prototypes`` set; raises OSError if it does not load."""
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in prototypes.items():
        func = getattr(lib, name)
        func.restype, func.argtypes = restype, argtypes
    return lib


def _load(what: str, fallback: str, prototypes: dict, source: Path, compiler: str, flags: tuple[str, ...]):
    """The library built from ``source``, opened, or None with one warning naming every reason."""
    reasons = []
    for cache_dir in _cache_dirs():
        try:
            return _open(build(cache_dir, source, compiler, flags), prototypes)
        except (OSError, subprocess.SubprocessError) as exc:
            reasons.append(f"{cache_dir}: {exc}")
    _log.warning("%s unavailable, %s (%s)", what, fallback, "; ".join(reasons))
    return None


@functools.cache
def load():
    """The loaded kernel library, or None (with one warning) when it cannot be built or loaded."""
    return _load("compiled kernel", "running on numpy", _PROTOTYPES["kernel"], _SOURCE, _COMPILER, _FLAGS)


@functools.cache
def load_format():
    """The loaded formatter library, or None (with one warning) when it cannot be built or loaded.

    Called by ``io`` on its first text write, so runs that write no
    trace or CSV never build or load it.
    """
    return _load("compiled formatter", "writing text in Python", _PROTOTYPES["format"], _FORMAT_SOURCE,
                 _FORMAT_COMPILER, _FORMAT_FLAGS)


def _ptr(a: np.ndarray, dtype, writes: bool = True):
    """``a`` as the kernel's typed pointer, once checked: ``dtype``, C-contiguous and, if ``writes``, writeable.

    The one place an array is checked on its way to the kernel; the
    pointer holds a reference to ``a``, so it stays valid while kept.
    """
    if a.dtype != dtype or not a.flags.c_contiguous or (writes and not a.flags.writeable):
        need = "a writeable C-contiguous" if writes else "a C-contiguous"
        raise ValueError(f"the kernel needs {need} {np.dtype(dtype)} array, got {a.dtype} {a.shape}")
    return a.ctypes.data_as(_POINTERS[a.dtype])


class _BlockRunner:
    """What the two compiled SMS runners share: the state, the stop rule and ``run``.

    The compiled twins of ``algorithms._PySteps``, driven by the same
    ``algorithms._sms_loop``.  Each holds the state it moves in place,
    the last block's ``shifts`` and the stop-rule state (the points'
    epoch stamps, the epoch and its coverage count, which carry over
    between blocks).  Every buffer is checked by ``_ptr`` and bound once,
    here and in the subclass, to the pointer type its export declares in
    ``_PROTOTYPES``.  A subclass sets ``_export``, its library function,
    and the arguments before (``_before``) and after (``_after``) the
    index block and its length, so a block checks and binds only its
    indices.
    """

    def __init__(self, pts: np.ndarray, block: int):
        if pts.ndim != 2:
            raise ValueError(f"the kernel needs an (n, d) state, got shape {pts.shape}")
        self.pts = pts
        self.shifts = np.empty(block)
        self._n, self._d = pts.shape
        self._state = np.zeros(3, dtype=np.int64)  # epoch, covered, converged
        self._pts = _ptr(pts, np.float64)
        # the points' epoch stamps, the state and the shifts, in the order both exports take them
        self._stop = (_ptr(np.full(self._n, -1, dtype=np.int64), np.int64), _ptr(self._state, np.int64),
                      _ptr(self.shifts, np.float64))

    def run(self, idx: np.ndarray) -> tuple[int, bool]:
        """Apply the steps of ``idx`` until the stop rule fires; returns (steps, converged)."""
        if idx.dtype != np.int64 or idx.ndim != 1 or idx.shape[0] > self.shifts.shape[0]:
            raise ValueError("index block must be a 1-d int64 array no longer than the shift buffer")
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self._n):
            raise ValueError("index out of range")
        steps = self._export(*self._before, _ptr(np.ascontiguousarray(idx), np.int64, writes=False),
                             idx.shape[0], *self._after)
        return int(steps), bool(self._state[2])


class SmsBlockKernel(_BlockRunner):
    """Runs blocks of distance SMS steps on one state in place.

    Holds the cached squared norms beside the shared state.  As in
    ``_PySteps``, ``deltas`` (objective increments) and ``grads``
    (partial-gradient norms) of the last block are None, and handed to
    the library as NULL, unless ``trace_objective`` and
    ``trace_gradient`` ask for them.
    """

    def __init__(self, lib, pts: np.ndarray, h: float, alpha: int, tol: float, block: int,
                 trace_objective: bool, trace_gradient: bool):
        super().__init__(pts, block)
        self.deltas = np.empty(block) if trace_objective else None
        self.grads = np.empty(block) if trace_gradient else None
        sqn = np.einsum("ij,ij->i", pts, pts)
        self._before = (self._pts, _ptr(sqn, np.float64), self._n, self._d)
        traced = (None if a is None else _ptr(a, np.float64) for a in (self.deltas, self.grads))
        self._after = (h * h, int(alpha), float(tol), *self._stop, *traced,
                       _ptr(np.empty(2 * self._d + self._n), np.float64))
        self._export = lib.sms_block


class KnnBlockKernel(_BlockRunner):
    """Runs blocks of score-matrix SMS steps on one state in place.

    A step moves point i onto the mean of the rows ``neighbors[i]``.  The
    (n, k) int64 table is checked here, because the library reads the
    rows it names unchecked: every entry must lie in [0, n), and row i
    must not hold i.  The move has no objective, so ``deltas`` and
    ``grads`` are None.
    """

    deltas = grads = None

    def __init__(self, lib, pts: np.ndarray, neighbors: np.ndarray, tol: float, block: int):
        super().__init__(pts, block)
        nb = np.asarray(neighbors)
        if nb.dtype != np.int64 or nb.ndim != 2 or nb.shape[0] != self._n or nb.shape[1] < 1:
            raise ValueError(f"neighbour table must be a ({self._n}, k) int64 array with k >= 1, "
                             f"got {nb.dtype} {nb.shape}")
        if int(nb.min()) < 0 or int(nb.max()) >= self._n:
            raise ValueError(f"neighbour index out of range [0, {self._n})")
        if np.any(nb == np.arange(self._n)[:, None]):
            raise ValueError("a point is listed among its own neighbours")
        self._before = (self._pts, self._n, self._d, _ptr(np.ascontiguousarray(nb), np.int64, writes=False),
                        nb.shape[1])
        self._after = (float(tol), *self._stop)
        self._export = lib.knn_block


def _state(pts: np.ndarray) -> np.ndarray:
    """``pts`` as a C-contiguous float64 (n, d) array; raises ValueError for any other shape."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"the kernel needs an (n, d) state, got shape {pts.shape}")
    return pts


def shift_rows(lib, queries: np.ndarray, sample: np.ndarray, h: float, alpha: int,
               totals: np.ndarray | None = None) -> np.ndarray:
    """The compiled twin of the numpy body of ``algorithms._shift_rows``: the moved rows.

    When ``totals``, an (m,) float64 array, is given, row r's weight
    total W is written into it (``core.full_gradient``); MS passes none.
    The squared norms of the distance identity are numpy's, as in
    ``core.pairwise_sq_blocks``, taken once when the queries are the
    sample.  Shapes are checked here and every array passes ``_ptr``, so
    every pointer handed to the library is valid for the call.
    """
    same = queries is sample
    queries = _state(queries)
    sample = queries if same else _state(sample)
    if queries.shape[1] != sample.shape[1]:
        raise ValueError("the kernel needs (m, d) queries and an (n, d) sample")
    (m, d), n = queries.shape, sample.shape[0]
    if totals is not None and totals.shape != (m,):
        raise ValueError(f"totals must hold one value per query row, got shape {totals.shape}")
    sqq = np.einsum("ij,ij->i", queries, queries)
    sqs = sqq if same else np.einsum("ij,ij->i", sample, sample)
    q, sqq, s, sqs = (_ptr(a, np.float64, writes=False) for a in (queries, sqq, sample, sqs))
    out = np.empty((m, d))
    lib.shift_rows(q, sqq, m, s, sqs, n, d, h * h, int(alpha), _ptr(out, np.float64),
                   None if totals is None else _ptr(totals, np.float64))
    return out


def pair_objective(lib, pts: np.ndarray, h: float, alpha: int) -> float:
    """The compiled pair part of ``core.objective_value``: the sum over pairs i < j of k(t_ij)."""
    pts = _state(pts)
    n, d = pts.shape
    sqn = np.einsum("ij,ij->i", pts, pts)
    return float(lib.pair_objective(_ptr(pts, np.float64, writes=False), _ptr(sqn, np.float64, writes=False),
                                    n, d, h * h, int(alpha)))


def band_slack(lib, pts: np.ndarray, lo: float, hi: float) -> float:
    """The compiled twin of ``theory._band_slack``: min over pairs of max(lo - d_ij, d_ij - hi), +inf without one."""
    pts = _state(pts)
    n, d = pts.shape
    return float(lib.band_slack(_ptr(pts, np.float64, writes=False), n, d, float(lo), float(hi)))


def top_k(lib, scores: np.ndarray, k: int) -> np.ndarray:
    """The compiled twin of the numpy body of ``affinity.top_score_neighbors``: the (n, k) neighbour table.

    ``scores`` is read in place through its strides, so a transposed or
    strided float64 view is not copied; only a view whose strides are not
    whole, aligned elements is.  The caller has checked that every score
    is finite (``affinity._check_scores``); the shape and k are checked
    here, as the library fills exactly k entries of each column from its
    n - 1 others.
    """
    n = scores.shape[0]
    if scores.dtype != np.float64 or scores.shape != (n, n) or not 1 <= k <= n - 1:
        raise ValueError(f"the kernel needs an (n, n) float64 score matrix and 1 <= k <= n - 1, "
                         f"got {scores.dtype} {scores.shape} and k = {k}")
    size = scores.itemsize
    if not scores.flags.aligned or any(stride % size for stride in scores.strides):
        scores = np.ascontiguousarray(scores)
    out = np.empty((n, k), dtype=np.int64)
    lib.top_k(scores.ctypes.data_as(_F64), n, scores.strides[0] // size, scores.strides[1] // size, int(k),
              _ptr(out, np.int64), _ptr(np.empty(n * (k + 1)), np.float64))
    return out


def bms_sweeps(lib, pts: np.ndarray, h: float, alpha: int, tol: float, max_sweeps: int) -> np.ndarray:
    """Up to ``max_sweeps`` BMS sweeps on ``pts`` in place; returns their largest row shifts.

    The compiled twin of the numpy sweeps of ``algorithms._bms_sweeps``:
    the sweeps end after the first whose largest shift is below ``tol``.
    The state's shape is checked and the scratch sized here, and every
    array passes ``_ptr``, so every pointer handed to the library is
    valid for the call.
    """
    if pts.ndim != 2:
        raise ValueError(f"the kernel needs an (n, d) state, got shape {pts.shape}")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    state = _ptr(pts, np.float64)  # checked before the library is touched
    n, d = pts.shape
    shifts = np.empty(max_sweeps)
    done = lib.bms_sweeps(state, n, d, h * h, int(alpha), tol, max_sweeps, _ptr(shifts, np.float64),
                          _ptr(np.empty(n * d + 2 * n), np.float64))
    return shifts[:done]


# column kinds of put_rows, in _format.cpp's order: a float64 spelled by
# repr, a float64 spelled by json.dumps (they differ only off the finite
# values: nan and inf against NaN and Infinity), an int64, and an int64
# spelled null when negative
FLOAT, JSON_FLOAT, INT, INT_OR_NULL = range(4)
# the widest value of each kind: "-1.2345678901234567e-308", "-9223372036854775808"
WIDTHS = (24, 24, 20, 20)


def put_rows(lib, texts, kinds, columns, n: int, chunk: int):
    """The compiled twin of ``io._render_rows``: the bytes of n rows, ``chunk`` rows at a time.

    Row r is ``texts[0]``, the value of ``columns[0]`` at r, ``texts[1]``,
    ..., ``texts[-1]``; each column holds n values, spelled by its entry
    of ``kinds``.  Yields one uint8 array per chunk.  The buffer holds
    ``chunk`` rows of the texts and the widest value of each kind; the
    library refuses to write past it, which raises RuntimeError here.
    Dtypes and lengths are fixed here, and the columns are held until
    the last chunk, so every pointer handed to the library is valid for
    each call.
    """
    if len(texts) != len(kinds) + 1 or len(columns) != len(kinds):
        raise ValueError("a layout needs one text per column and one ending the row")
    cols = [np.asarray(c, dtype=np.int64 if kind >= INT else np.float64) for c, kind in zip(columns, kinds)]
    if any(c.shape != (n,) for c in cols):
        raise ValueError(f"every column must hold n = {n} values")
    pieces = [t.encode() for t in texts]
    text, ends = b"".join(pieces), np.cumsum([len(t) for t in pieces], dtype=np.int64)
    addresses = (ctypes.c_void_p * len(cols))(*[c.ctypes.data for c in cols])
    strides = np.array([c.strides[0] for c in cols], dtype=np.int64)
    kinds = np.array(kinds, dtype=np.int64)
    width = len(text) + sum(WIDTHS[k] for k in kinds)
    for lo in range(0, n, chunk):
        rows = min(chunk, n - lo)
        capacity = rows * width
        buf = np.empty(capacity, dtype=np.uint8)
        size = lib.put_rows(lo, rows, len(cols), addresses, strides.ctypes.data, kinds.ctypes.data, text,
                            ends.ctypes.data, buf.ctypes.data, capacity)
        if size < 0:
            raise RuntimeError(f"formatted text would pass its {capacity}-byte buffer")
        yield buf[:size]
