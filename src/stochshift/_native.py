"""The package's compiled libraries, built on first use with the system compilers.

Two sources ship with the package.  ``_kernel.c`` exports ``sms_block``,
the distance SMS block runner behind :class:`SmsBlockKernel`,
``knn_block``, the score-matrix SMS block runner behind
:class:`KnnBlockKernel`, and ``shift_rows``, the mean-shift batch map
behind :func:`shift_rows`, which ``algorithms._shift_rows`` runs for MS,
and ``bms_sweeps``, the blurring mean-shift sweeps behind
:func:`bms_sweeps`, which ``algorithms._bms_sweeps`` runs for BMS.  The
two block runners share one stop rule in C and its state and checks
here (:class:`_BlockRunner`).  ``_format.cpp`` exports ``trace_lines``
and ``csv_rows``, behind :func:`trace_lines` and :func:`csv_rows`, which
``io`` writes ``trace.jsonl`` and its CSVs with: floats spelled as
``repr`` spells them, from the shortest round-trip digits of C++17's
``std::to_chars``.

``load()`` (the kernel, with gcc) and ``load_format()`` (the formatter,
with g++) each compile their source once into a shared library in the
user cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``, else a
per-user directory under the system temporary directory), under a file
name keyed by the source's name and a hash of its text and the flags,
and load it with ctypes.  The two are separate libraries, so a machine
without g++ still runs the kernel.  Concurrent first uses (``sweep
--workers``) each compile to a private temporary name and publish with
an atomic ``os.replace``.  The flags are portable: no ``-ffast-math``,
which would reorder the sums, and no ``-march=native``.

Any failure (no compiler, no source, a failed compile, an unwritable
cache or one another user owns, a library that does not load) makes the
loader log the reason once at WARNING on the ``stochshift`` logger and
return None.  Callers then run the numpy path instead of the kernel, or
``io``'s Python writers instead of the formatter; each is also the
reference its compiled twin is tested against.
"""

from __future__ import annotations

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
_log = logging.getLogger("stochshift")


def _cache_dirs() -> list[Path]:
    """Where the libraries may live, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return [Path(base) / "stochshift", Path(tempfile.gettempdir()) / f"stochshift-{uid}"]


def library_path(cache_dir: Path, source: Path | None = None, flags: tuple[str, ...] | None = None) -> Path:
    """The library's file name in ``cache_dir``: the source's name, then a hash of its text and the flags.

    ``source`` and ``flags`` default to the kernel's.  The compiler is
    not hashed: each source has one, by its language, and a library
    already built is used without one.
    """
    source = _SOURCE if source is None else Path(source)
    flags = _FLAGS if flags is None else flags
    key = hashlib.sha256(source.read_bytes() + "\0".join(flags).encode()).hexdigest()[:16]
    return Path(cache_dir) / f"{source.stem.lstrip('_')}-{key}.so"


def build(cache_dir: Path, source: Path | None = None, compiler: str | None = None,
          flags: tuple[str, ...] | None = None) -> Path:
    """Return the compiled library in ``cache_dir``, compiling it if absent.

    ``source``, ``compiler`` and ``flags`` default to the kernel's.
    Raises OSError when the source or the compiler is missing or the
    directory cannot be made or is not the user's own, and
    ``subprocess.SubprocessError`` when the compile fails; no
    half-written library is left behind.
    """
    source = _SOURCE if source is None else Path(source)
    compiler = _COMPILER if compiler is None else compiler
    flags = _FLAGS if flags is None else flags
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
    return target


def _open(path: Path):
    """The library at ``path`` with its prototypes set; raises OSError if it does not load."""
    lib = ctypes.CDLL(str(path))
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    rows = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    vec = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    lib.sms_block.restype = i64
    lib.sms_block.argtypes = [
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # pts
        f64,  # sqn
        i64, i64,  # n, d
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),  # idx
        i64,  # m
        ctypes.c_double, i64,  # h2, alpha
        ctypes.c_double,  # tol
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),  # stamp
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),  # state
        f64, f64, f64,  # shifts, deltas, grads
        i64, i64,  # trace_objective, trace_gradient
        f64,  # scratch
    ]
    lib.knn_block.restype = i64
    lib.knn_block.argtypes = [
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # pts
        i64, i64,  # n, d
        np.ctypeslib.ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS"),  # nb
        i64,  # k
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),  # idx
        i64,  # m
        ctypes.c_double,  # tol
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),  # stamp
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),  # state
        f64, f64,  # shifts, scratch
    ]
    lib.shift_rows.restype = None
    lib.shift_rows.argtypes = [
        rows, vec, i64,  # q, sqq, m
        rows, vec, i64,  # s, sqs, n
        i64,  # d
        ctypes.c_double, i64,  # h2, alpha
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # out
    ]
    lib.bms_sweeps.restype = i64
    lib.bms_sweeps.argtypes = [
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # pts
        i64, i64,  # n, d
        ctypes.c_double, i64,  # h2, alpha
        ctypes.c_double, i64,  # tol, max_sweeps
        f64, f64,  # shifts, sqn
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE"),  # next
    ]
    return lib


def _load(what: str, fallback: str, opener, source: Path, compiler: str, flags: tuple[str, ...]):
    """``opener`` of the library built from ``source``, or None with one warning naming every reason."""
    reasons = []
    for cache_dir in _cache_dirs():
        try:
            return opener(build(cache_dir, source, compiler, flags))
        except (OSError, subprocess.SubprocessError) as exc:
            reasons.append(f"{cache_dir}: {exc}")
    _log.warning("%s unavailable, %s (%s)", what, fallback, "; ".join(reasons))
    return None


@functools.cache
def load():
    """The loaded kernel library, or None (with one warning) when it cannot be built or loaded."""
    return _load("compiled kernel", "running on numpy", _open, _SOURCE, _COMPILER, _FLAGS)


def _open_format(path: Path):
    """The formatter library at ``path`` with its prototypes set; raises OSError if it does not load."""
    lib = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.trace_lines.restype = i64
    lib.trace_lines.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64]  # n, L, grad, i, k, shift, buf, cap
    lib.csv_rows.restype = i64
    lib.csv_rows.argtypes = [i64, i64, ptr, ptr, ptr, i64]  # n, d, x, labels, buf, cap
    return lib


@functools.cache
def load_format():
    """The loaded formatter library, or None (with one warning) when it cannot be built or loaded.

    Called by ``io`` on its first text write, so runs that write no
    trace or CSV never build or load it.
    """
    return _load("compiled formatter", "writing text in Python", _open_format, _FORMAT_SOURCE,
                 _FORMAT_COMPILER, _FORMAT_FLAGS)


class _BlockRunner:
    """What the two compiled SMS runners share: the state, the stop rule and ``run``.

    The compiled twins of ``algorithms._PySteps``, driven by the same
    ``algorithms._sms_loop``.  Each holds the state it moves in place,
    the last block's ``shifts`` and the stop-rule state (the points'
    epoch stamps, the epoch and its coverage count, which carry over
    between blocks); sizes, dtypes and contiguity are fixed here, so
    every pointer handed to the library is valid for the call.  A
    subclass's ``_block(idx)`` runs one checked index block in C.
    """

    def __init__(self, lib, pts: np.ndarray, block: int):
        if pts.dtype != np.float64 or pts.ndim != 2 or not pts.flags.c_contiguous:
            raise ValueError("the kernel needs a C-contiguous float64 (n, d) state")
        self.pts = pts
        self.shifts = np.empty(block)
        self._lib = lib
        self._n, self._d = pts.shape
        self._stamp = np.full(self._n, -1, dtype=np.int64)
        self._state = np.zeros(3, dtype=np.int64)  # epoch, covered, converged

    def run(self, idx: np.ndarray) -> tuple[int, bool]:
        """Apply the steps of ``idx`` until the stop rule fires; returns (steps, converged)."""
        if idx.dtype != np.int64 or idx.ndim != 1 or idx.shape[0] > self.shifts.shape[0]:
            raise ValueError("index block must be a 1-d int64 array no longer than the shift buffer")
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self._n):
            raise ValueError("index out of range")
        steps = self._block(np.ascontiguousarray(idx))
        return int(steps), bool(self._state[2])


class SmsBlockKernel(_BlockRunner):
    """Runs blocks of distance SMS steps on one state in place.

    Holds the cached squared norms beside the shared state.  As in
    ``_PySteps``, ``deltas`` (objective increments) and ``grads``
    (partial-gradient norms) are None unless ``trace_objective`` and
    ``trace_gradient`` ask for them; the library is always handed both
    buffers and writes only the traced ones.
    """

    def __init__(self, lib, pts: np.ndarray, h: float, alpha: int, tol: float, block: int,
                 trace_objective: bool, trace_gradient: bool):
        super().__init__(lib, pts, block)
        # the last block's increments and gradient norms
        self._deltas, self._grads = np.empty((2, block))
        self.deltas = self._deltas if trace_objective else None
        self.grads = self._grads if trace_gradient else None
        self._trace = int(bool(trace_objective)), int(bool(trace_gradient))
        self._h2, self._alpha, self._tol = h * h, int(alpha), float(tol)
        self._sqn = np.einsum("ij,ij->i", pts, pts)
        self._scratch = np.empty(2 * self._d + self._n)

    def _block(self, idx: np.ndarray) -> int:
        return self._lib.sms_block(self.pts, self._sqn, self._n, self._d, idx, idx.shape[0], self._h2,
                                   self._alpha, self._tol, self._stamp, self._state, self.shifts,
                                   self._deltas, self._grads, *self._trace, self._scratch)


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
        super().__init__(lib, pts, block)
        nb = np.asarray(neighbors)
        if nb.dtype != np.int64 or nb.ndim != 2 or nb.shape[0] != self._n or nb.shape[1] < 1:
            raise ValueError(f"neighbour table must be a ({self._n}, k) int64 array with k >= 1, "
                             f"got {nb.dtype} {nb.shape}")
        if int(nb.min()) < 0 or int(nb.max()) >= self._n:
            raise ValueError(f"neighbour index out of range [0, {self._n})")
        if np.any(nb == np.arange(self._n)[:, None]):
            raise ValueError("a point is listed among its own neighbours")
        self._nb = np.ascontiguousarray(nb)
        self._k = nb.shape[1]
        self._tol = float(tol)
        self._scratch = np.empty(self._d)

    def _block(self, idx: np.ndarray) -> int:
        return self._lib.knn_block(self.pts, self._n, self._d, self._nb, self._k, idx, idx.shape[0],
                                   self._tol, self._stamp, self._state, self.shifts, self._scratch)


def shift_rows(lib, queries: np.ndarray, sample: np.ndarray, h: float, alpha: int) -> np.ndarray:
    """The compiled twin of the numpy body of ``algorithms._shift_rows``: the moved rows.

    The squared norms of the distance identity are numpy's, as in
    ``core.pairwise_sq_blocks``; sizes, dtypes and contiguity are fixed
    here, so every pointer handed to the library is valid for the call.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    sample = np.ascontiguousarray(sample, dtype=np.float64)
    if queries.ndim != 2 or sample.ndim != 2 or queries.shape[1] != sample.shape[1]:
        raise ValueError("the kernel needs (m, d) queries and an (n, d) sample")
    sqq = np.einsum("ij,ij->i", queries, queries)
    sqs = np.einsum("ij,ij->i", sample, sample)
    (m, d), n = queries.shape, sample.shape[0]
    out = np.empty((m, d))
    lib.shift_rows(queries, sqq, m, sample, sqs, n, d, h * h, int(alpha), out)
    return out


def bms_sweeps(lib, pts: np.ndarray, h: float, alpha: int, tol: float, max_sweeps: int) -> np.ndarray:
    """Up to ``max_sweeps`` BMS sweeps on ``pts`` in place; returns their largest row shifts.

    The compiled twin of the numpy sweeps of ``algorithms._bms_sweeps``:
    the sweeps end after the first whose largest shift is below ``tol``.
    The state's dtype, shape and contiguity are checked and the scratch
    sized here, so every pointer handed to the library is valid for the
    call.
    """
    if pts.dtype != np.float64 or pts.ndim != 2 or not pts.flags.c_contiguous or not pts.flags.writeable:
        raise ValueError("the kernel needs a writeable C-contiguous float64 (n, d) state")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    n, d = pts.shape
    shifts = np.empty(max_sweeps)
    done = lib.bms_sweeps(pts, n, d, h * h, int(alpha), tol, max_sweeps, shifts, np.empty(n), np.empty((n, d)))
    return shifts[:done]


# spelled lengths: "-1.2345678901234567e-308" and "-9223372036854775808"
FLOAT_WIDTH, INT_WIDTH = 24, 20


def _filled(size: int, capacity: int) -> int:
    if size == -1:
        raise RuntimeError(f"formatted text would pass its {capacity}-byte buffer")
    return size


def trace_lines(lib, shift, moved, count, objective=None, grad_norm=None) -> np.ndarray | None:
    """The compiled twin of ``io``'s Python trace lines: the bytes of one chunk's lines.

    ``objective`` and ``grad_norm`` may be None (columns not traced).
    Returns None when a float is not finite, which json.dumps spells as
    ``NaN`` or ``Infinity``: the caller writes that chunk in Python.
    The buffer holds n of the widest line the present columns can give;
    the library refuses to write past it, which raises RuntimeError
    here.  Dtypes, lengths and contiguity are fixed here, so every
    pointer handed to the library is valid for the call.
    """
    floats = [None if c is None else np.ascontiguousarray(c, dtype=np.float64) for c in (objective, grad_norm, shift)]
    ints = [np.ascontiguousarray(c, dtype=np.int64) for c in (moved, count)]
    n = floats[2].shape[0]
    if any(c is not None and c.shape != (n,) for c in floats + ints):
        raise ValueError("trace columns must be 1-d and of one length")
    widest = len('{"i": , "k": , "shift": }\n') + 2 * INT_WIDTH + FLOAT_WIDTH
    widest += sum(len(f'"{key}": , ') + FLOAT_WIDTH for key, c in zip(("L", "grad_norm"), floats) if c is not None)
    capacity = n * widest
    buf = np.empty(capacity, dtype=np.uint8)
    L, grad, shift = (None if c is None else c.ctypes.data for c in floats)
    size = lib.trace_lines(n, L, grad, ints[0].ctypes.data, ints[1].ctypes.data, shift, buf.ctypes.data, capacity)
    return None if size == -2 else buf[: _filled(size, capacity)]


def csv_rows(lib, x, labels) -> np.ndarray | None:
    """The compiled twin of ``io``'s Python CSV rows: the bytes of the rows of ``x`` (and ``labels``).

    ``x`` is (n, d) and ``labels`` None or n integers, written as a last
    column.  Returns None when a value is not finite, or when
    ``labels`` is not n integers: the caller writes those rows in Python.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != x.shape[:1] or labels.dtype.kind != "i":
            return None
        labels = np.ascontiguousarray(labels, dtype=np.int64)
    n, d = x.shape
    capacity = n * (d * (FLOAT_WIDTH + 1) + INT_WIDTH + 1)
    buf = np.empty(capacity, dtype=np.uint8)
    size = lib.csv_rows(n, d, x.ctypes.data, None if labels is None else labels.ctypes.data,
                        buf.ctypes.data, capacity)
    return None if size == -2 else buf[: _filled(size, capacity)]
