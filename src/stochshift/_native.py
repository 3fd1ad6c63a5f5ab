"""The package's compiled libraries, built on first use with the system compilers.

Two sources ship with the package.  ``_kernel.c`` exports ``sms_block``,
the distance SMS block runner behind :class:`SmsBlockKernel`,
``knn_block``, the score-matrix SMS block runner behind
:class:`KnnBlockKernel`, and ``shift_rows``, the mean-shift batch map
behind :func:`shift_rows`, which ``algorithms._shift_rows`` runs for MS,
and ``bms_sweeps``, the blurring mean-shift sweeps behind
:func:`bms_sweeps`, which ``algorithms._bms_sweeps`` runs for BMS.  The
two block runners share one stop rule in C and its state and checks
here (:class:`_BlockRunner`).  ``_format.cpp`` exports ``put_rows``,
behind :func:`put_rows`, which renders rows of typed columns between
literal texts; ``io`` states each of its text layouts (``trace.jsonl``,
the dataset, partition and score-matrix CSVs) as such texts and column
kinds.  Floats are spelled as ``repr`` spells them, from the shortest
round-trip digits of C++17's ``std::to_chars``.

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
``io``'s Python row renderer instead of the formatter; each is also
the reference its compiled twin is tested against.
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
    """The formatter library at ``path`` with its prototype set; raises OSError if it does not load."""
    lib = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.put_rows.restype = i64
    # first, n, ncols, cols, strides, kinds, text, text_end, buf, cap
    lib.put_rows.argtypes = [i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64]
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
