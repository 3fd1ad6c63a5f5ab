"""MS, BMS and SMS iteration drivers with stopping rules and tracing.

The three drivers share the same update arithmetic:

* ``ms_run``   - every probe point independently iterates the mean-shift
  operator against the *fixed* original sample until its displacement
  falls below the tolerance.
* ``bms_run``  - synchronous sweeps: all n new positions are computed
  from the same input state, then the state is replaced wholesale.
* ``sms_run``  - one uniformly random point per step moves against the
  *current* (blurred) state.

SMS has one driver, ``_sms_loop``, shared with the score-matrix variant
``affinity.knn_sms_run``.  It owns the index stream, the budget check,
the stopping rule, snapshots, timing and the ``RunTrace``.  A variant
supplies only a ``move(i)`` callable: it updates row i of the state in
place and returns ``(shift, delta, grad)``, the moved distance, the
objective increment and the pre-move partial-gradient norm, with None
for whatever is not traced.  The driver accumulates the objective from
the increments when its recorder traces it.

Pairwise work walks row blocks from ``core.pairwise_sq_blocks``.

Budgets are counted in point-updates so the three are unit-consistent:
one SMS step is 1 update, one BMS sweep is n updates, one MS inner
iteration is 1 update per active probe.  Index draws come from a named,
versioned generator (numpy PCG64) so traces reproduce exactly for a
given seed; floating-point reductions use a fixed index-ascending order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_bandwidth, check_state, objective_value, pairwise_sq_blocks
from .kernels import EPANECHNIKOV, Profile, _derivative

__all__ = [
    "ALGORITHMS",
    "AlgoConfig",
    "RunTrace",
    "RandomIndexStream",
    "sms_step",
    "sms_run",
    "bms_sweep",
    "bms_run",
    "ms_run",
    "run",
]

ALGORITHMS = ("ms", "bms", "sms")


@dataclass(frozen=True)
class AlgoConfig:
    """Hyperparameters shared by the three drivers.

    ``max_updates`` and ``move_tolerance`` follow the experiment defaults
    (1e7 updates, shift < 1e-6).  ``sms_stop_fraction`` is the fraction of
    points whose last shift must be below tolerance before SMS may stop;
    SMS additionally requires every index to have been drawn since the
    last above-tolerance shift, so stale shift values can never trigger
    a premature stop.
    """

    algorithm: str = "sms"
    profile: Profile = EPANECHNIKOV
    h: float = 1.0
    max_updates: int = 10_000_000
    move_tolerance: float = 1e-6
    sms_stop_fraction: float = 0.99
    seed: int = 0
    trace_objective: bool = False
    trace_gradient: bool = False
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        check_bandwidth(self.h)
        if self.max_updates < 1:
            raise ValueError("max_updates must be positive")
        if not (self.move_tolerance > 0 and np.isfinite(self.move_tolerance)):
            raise ValueError("move_tolerance must be a positive finite real")
        if not (0.0 < self.sms_stop_fraction <= 1.0):
            raise ValueError("sms_stop_fraction must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be positive when given")


class RandomIndexStream:
    """Seeded stream of i.i.d. uniform indices over range(n).

    Backed by numpy's PCG64 bit generator: the same seed yields the same
    index sequence on every platform, and draws never depend on the
    state being clustered.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def draw(self, n: int) -> int:
        return int(self._gen.integers(n))


class _Recorder:
    """Growable per-update record arrays (index, shift, objective, grad)."""

    def __init__(self, with_objective: bool, with_gradient: bool):
        self._cap = 1024
        self._m = 0
        self.index = np.empty(self._cap, dtype=np.int64)
        self.shift = np.empty(self._cap, dtype=np.float64)
        self.objective = np.empty(self._cap, dtype=np.float64) if with_objective else None
        self.delta = np.empty(self._cap, dtype=np.float64) if with_objective else None
        self.grad_norm = np.empty(self._cap, dtype=np.float64) if with_gradient else None

    def append(
        self,
        idx: int,
        shift: float,
        objective: float | None,
        grad: float | None,
        delta: float | None = None,
    ) -> None:
        if self._m == self._cap:
            self._cap *= 2
            self.index = np.resize(self.index, self._cap)
            self.shift = np.resize(self.shift, self._cap)
            if self.objective is not None:
                self.objective = np.resize(self.objective, self._cap)
                self.delta = np.resize(self.delta, self._cap)
            if self.grad_norm is not None:
                self.grad_norm = np.resize(self.grad_norm, self._cap)
        self.index[self._m] = idx
        self.shift[self._m] = shift
        if self.objective is not None:
            self.objective[self._m] = objective
            self.delta[self._m] = delta if delta is not None else np.nan
        if self.grad_norm is not None:
            self.grad_norm[self._m] = grad
        self._m += 1

    def trimmed(self):
        return (
            self.index[: self._m].copy(),
            self.shift[: self._m].copy(),
            None if self.objective is None else self.objective[: self._m].copy(),
            None if self.delta is None else self.delta[: self._m].copy(),
            None if self.grad_norm is None else self.grad_norm[: self._m].copy(),
        )


@dataclass
class RunTrace:
    """Per-update history of one driver run.

    ``moved_index`` holds the drawn index for SMS steps and -1 for batch
    events (one BMS sweep, one MS batch iteration); ``shift`` is the
    moved point's displacement for SMS and the maximal per-point
    displacement for batch events.  ``objective`` (when traced) is the
    state's pairwise affinity *after* the event, with the starting value
    in ``initial_objective``; it is non-decreasing along SMS and BMS
    traces.  For SMS the per-step increment is also kept in
    ``objective_delta``, computed in a cancellation-free product form so
    increments far below the objective's rounding unit stay accurate.
    ``grad_norm`` (when traced, SMS only) is the moved point's
    partial-gradient norm at the pre-move state.
    """

    algorithm: str
    moved_index: np.ndarray
    shift: np.ndarray
    objective: np.ndarray | None
    objective_delta: np.ndarray | None
    grad_norm: np.ndarray | None
    initial_objective: float | None
    initial_points: np.ndarray
    final_points: np.ndarray
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    total_updates: int = 0
    duration: float = 0.0
    stop_reason: str = "converged"
    isolated_probes: int = 0
    # MS only: probe indices whose per-point budget ran out before converging
    unconverged: np.ndarray | None = None
    # MS only: cumulative update count after each batch iteration
    ms_update_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_events(self) -> int:
        return int(self.moved_index.shape[0])

    @property
    def updates_per_point(self) -> float:
        return self.total_updates / self.initial_points.shape[0]

    def records(self):
        """Yield one dict per recorded event (the JSON-lines layout)."""
        counts = self.update_counts()
        for j in range(self.n_events):
            rec = {
                "k": int(counts[j]),
                "i": int(self.moved_index[j]) if self.moved_index[j] >= 0 else None,
                "shift": float(self.shift[j]),
            }
            if self.objective is not None:
                rec["L"] = float(self.objective[j])
            if self.grad_norm is not None:
                rec["grad_norm"] = float(self.grad_norm[j])
            yield rec

    def update_counts(self) -> np.ndarray:
        """Cumulative point-update count after each recorded event."""
        if self.algorithm == "sms":
            return np.arange(1, self.n_events + 1, dtype=np.int64)
        n = self.initial_points.shape[0]
        if self.algorithm == "bms":
            return n * np.arange(1, self.n_events + 1, dtype=np.int64)
        return self.ms_update_counts


def _weights(alpha: int, sq: np.ndarray, h2: float):
    """Weights G(sq / h^2) and their totals over the last axis of sq.

    The uniform (alpha = 1) weight stays a bool support mask with integer
    counts as totals.  Float weights from ``-_derivative`` give the same
    sums, but their clip, scale, negation and float sum are extra passes
    that would dominate an Epanechnikov SMS move.
    """
    if alpha == 1:
        w = sq < h2
        # a single row is counted without `axis`, which is far cheaper
        return w, np.count_nonzero(w, axis=None if w.ndim == 1 else -1)
    w = -_derivative(alpha, np.clip(sq, 0.0, None) * (1.0 / h2))
    return w, w.sum(axis=-1)


def _move_once(pts, sqn, i, h2, alpha, sqbuf):
    """One mean-shift move of point i against the current state.

    Returns (new_position, squared_dists_to_old_position, total_weight).
    Squared distances come from the dot-product identity with per-row
    cached squared norms; the cached entries are exact (recomputed after
    every move), only the combination can see cancellation, which is
    harmless under the compact-support weights.
    """
    np.multiply(pts @ pts[i], -2.0, out=sqbuf)
    sqbuf += sqn
    sqbuf += sqn[i]
    w, total = _weights(alpha, sqbuf, h2)
    total = float(total)
    return (w @ pts) / total, sqbuf, total


def sms_step(points, cfg: AlgoConfig, rng: RandomIndexStream):
    """One stochastic update: draw i uniformly and move x_i.

    Returns ``(new_points, moved_index, shift_magnitude)``; the input
    array is left untouched.  The drawn point is averaged together with
    its own weight, so an isolated point is its own fixed point.
    """
    pts = check_state(points).copy()
    n = pts.shape[0]
    i = rng.draw(n)
    sqn = np.einsum("ij,ij->i", pts, pts)
    new, _, _ = _move_once(pts, sqn, i, cfg.h * cfg.h, cfg.profile.alpha, np.empty(n))
    dx = new - pts[i]
    pts[i] = new
    return pts, i, math.sqrt(dx @ dx)


def _sms_loop(pts, cfg: AlgoConfig, move, rec: _Recorder):
    """The SMS driver shared by :func:`sms_run` and ``knn_sms_run``.

    Draws indices, calls ``move(i)``, records, snapshots and applies the
    stopping rule; returns ``(pts, RunTrace)``.  ``move(i)`` must update
    row i of ``pts`` in place and return ``(shift, delta, grad)``.  The
    objective is traced when ``rec`` records it.
    """
    n = pts.shape[0]
    if cfg.max_updates < n:
        raise ValueError(f"max_updates={cfg.max_updates} must be >= n={n}")
    rng = RandomIndexStream(cfg.seed)
    tol = cfg.move_tolerance
    every = cfg.snapshot_every
    initial = pts.copy()
    snapshots: list[tuple[int, np.ndarray]] = [] if every is None else [(0, pts.copy())]
    objective = objective_value(pts, cfg.h, cfg.profile) if rec.objective is not None else None
    initial_objective = objective

    # last-shift bookkeeping: `small` marks points whose most recent
    # shift was below tolerance; coverage-since-last-big-shift is kept
    # O(1) per step with an epoch stamp instead of clearing a flag array.
    small = np.zeros(n, dtype=bool)
    n_small = 0
    target = int(np.ceil(cfg.sms_stop_fraction * n))
    stamp = np.full(n, -1, dtype=np.int64)
    epoch = 0
    covered = 0

    t0 = time.perf_counter()
    k = 0
    stop_reason = "max_updates"
    while k < cfg.max_updates:
        i = rng.draw(n)
        shift, delta, grad = move(i)
        if delta is not None:
            objective += delta
        k += 1
        rec.append(i, shift, objective, grad, delta)
        if every is not None and k % every == 0:
            snapshots.append((k, pts.copy()))

        if shift < tol:
            if stamp[i] != epoch:
                stamp[i] = epoch
                covered += 1
            if not small[i]:
                small[i] = True
                n_small += 1
            if n_small >= target and covered == n:
                stop_reason = "converged"
                break
        else:
            epoch += 1
            covered = 0
            if small[i]:
                small[i] = False
                n_small -= 1

    duration = time.perf_counter() - t0
    if every is not None and snapshots[-1][0] != k:
        snapshots.append((k, pts.copy()))
    idx, shifts, obj, deltas, grads = rec.trimmed()
    trace = RunTrace(
        algorithm="sms",
        moved_index=idx,
        shift=shifts,
        objective=obj,
        objective_delta=deltas,
        grad_norm=grads,
        initial_objective=initial_objective,
        initial_points=initial,
        final_points=pts.copy(),
        snapshots=snapshots,
        total_updates=k,
        duration=duration,
        stop_reason=stop_reason,
    )
    return pts, trace


def sms_run(points, cfg: AlgoConfig):
    """Run SMS until the stopping rule fires or the budget is spent.

    Stopping: at least ``ceil(sms_stop_fraction * n)`` points have a
    last recorded shift below ``move_tolerance`` AND every index has
    been drawn at least once after the most recent above-tolerance
    shift.  Returns ``(final_points, RunTrace)``.
    """
    pts = check_state(points).copy()
    n = pts.shape[0]
    h2 = cfg.h * cfg.h
    inv_h2 = 1.0 / h2
    two_inv_h2 = 2.0 * inv_h2
    alpha = cfg.profile.alpha
    sqn = np.einsum("ij,ij->i", pts, pts)
    sqbuf = np.empty(n)
    newbuf = np.empty(n)
    diffbuf = np.empty(n)

    def move(i):
        x_old = pts[i]  # a view; row i is written only after its last use
        new, sq_old, total = _move_once(pts, sqn, i, h2, alpha, sqbuf)
        dx = new - x_old
        shift = math.sqrt(dx @ dx)
        grad = (two_inv_h2 * total) * shift if cfg.trace_gradient else None
        delta = None
        if cfg.trace_objective:
            # squared distances to the moved point's new position
            np.multiply(pts @ new, -2.0, out=newbuf)
            np.add(newbuf, sqn, out=newbuf)
            np.add(newbuf, new @ new, out=newbuf)
            # k(t_new) - k(t_old) summed over j != i, in the factorised
            # form (b_new - b_old) * sum_p b_new^p b_old^(a-1-p) with the
            # in-support base difference t_old - t_new expanded as an
            # inner product, so tiny increments keep relative accuracy
            # instead of cancelling against O(1) profile values.
            b_old = np.clip(1.0 - sq_old * inv_h2, 0.0, None)
            b_new = np.clip(1.0 - newbuf * inv_h2, 0.0, None)
            np.multiply(pts @ dx, 2.0, out=diffbuf)
            np.subtract(diffbuf, float(dx @ (x_old + new)), out=diffbuf)
            np.multiply(diffbuf, inv_h2, out=diffbuf)
            dbase = np.where((b_old > 0.0) & (b_new > 0.0), diffbuf, b_new - b_old)
            if alpha == 1:
                terms = dbase
            elif alpha == 2:
                terms = dbase * (b_new + b_old)
            else:
                poly = sum(b_new**p * b_old ** (alpha - 1 - p) for p in range(alpha))
                terms = dbase * poly
            terms[i] = 0.0
            delta = float(terms.sum())
        pts[i] = new
        sqn[i] = new @ new
        return shift, delta, grad

    return _sms_loop(pts, cfg, move, _Recorder(cfg.trace_objective, cfg.trace_gradient))


def bms_sweep(points, cfg: AlgoConfig):
    """One synchronous sweep: all n new positions from the same state.

    Returns ``(new_points, max_shift)``.  The denominator is always
    positive because the self term contributes G(0) > 0.
    """
    pts = check_state(points)
    h2 = cfg.h * cfg.h
    new = np.empty_like(pts)
    for lo, hi, sq in pairwise_sq_blocks(pts, pts):
        w, totals = _weights(cfg.profile.alpha, sq, h2)
        new[lo:hi] = (w @ pts) / totals[:, None]
    diff = new - pts
    max_shift = float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))
    return new, max_shift


def bms_run(points, cfg: AlgoConfig):
    """Repeat synchronous sweeps until the maximal shift converges."""
    pts = check_state(points).copy()
    n = pts.shape[0]
    if cfg.max_updates < n:
        raise ValueError(f"max_updates={cfg.max_updates} must be >= n={n}")
    max_sweeps = cfg.max_updates // n
    rec = _Recorder(cfg.trace_objective, False)
    initial = pts.copy()
    initial_objective = objective_value(pts, cfg.h, cfg.profile) if cfg.trace_objective else None
    snapshots: list[tuple[int, np.ndarray]] = []
    if cfg.snapshot_every is not None:
        snapshots.append((0, pts.copy()))

    t0 = time.perf_counter()
    updates = 0
    stop_reason = "max_updates"
    for _ in range(max_sweeps):
        pts, max_shift = bms_sweep(pts, cfg)
        updates += n
        obj = objective_value(pts, cfg.h, cfg.profile) if cfg.trace_objective else None
        rec.append(-1, max_shift, obj, None)
        if cfg.snapshot_every is not None:
            snapshots.append((updates, pts.copy()))
        if max_shift < cfg.move_tolerance:
            stop_reason = "converged"
            break
    duration = time.perf_counter() - t0

    idx, shifts, obj_arr, _, _ = rec.trimmed()
    trace = RunTrace(
        algorithm="bms",
        moved_index=idx,
        shift=shifts,
        objective=obj_arr,
        objective_delta=None,
        grad_norm=None,
        initial_objective=initial_objective,
        initial_points=initial,
        final_points=pts.copy(),
        snapshots=snapshots,
        total_updates=updates,
        duration=duration,
        stop_reason=stop_reason,
    )
    return pts, trace


def ms_run(points, cfg: AlgoConfig):
    """Classic mean-shift: probes iterate against the fixed sample.

    Every probe point starts at its sample position and repeatedly
    applies the mean-shift operator computed on the *original* state
    until its displacement drops below tolerance or its per-point budget
    (``max_updates // n``) is exhausted.  Returns ``(modes, RunTrace)``
    with the n limit positions in input order.
    """
    sample = check_state(points)
    n = sample.shape[0]
    if cfg.max_updates < n:
        raise ValueError(f"max_updates={cfg.max_updates} must be >= n={n}")
    per_point_cap = max(1, cfg.max_updates // n)
    h2 = cfg.h * cfg.h

    probes = sample.copy()
    active = np.arange(n)
    rec = _Recorder(False, False)
    counts = []
    snapshots: list[tuple[int, np.ndarray]] = []
    if cfg.snapshot_every is not None:
        snapshots.append((0, probes.copy()))
    isolated = 0

    t0 = time.perf_counter()
    updates = 0
    for _ in range(per_point_cap):
        if active.size == 0:
            break
        moved = probes[active]
        new = np.empty_like(moved)
        for lo, hi, sq in pairwise_sq_blocks(moved, sample):
            w, totals = _weights(cfg.profile.alpha, sq, h2)
            empty = totals <= 0
            if np.any(empty):
                isolated += int(empty.sum())
                totals[empty] = 1
            out = (w @ sample) / totals[:, None]
            out[empty] = moved[lo:hi][empty]
            new[lo:hi] = out
        diff = new - moved
        shifts = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        probes[active] = new
        updates += int(active.size)
        rec.append(-1, float(shifts.max()), None, None)
        counts.append(updates)
        if cfg.snapshot_every is not None:
            snapshots.append((updates, probes.copy()))
        active = active[shifts >= cfg.move_tolerance]
    duration = time.perf_counter() - t0

    idx, shift_arr, _, _, _ = rec.trimmed()
    trace = RunTrace(
        algorithm="ms",
        moved_index=idx,
        shift=shift_arr,
        objective=None,
        objective_delta=None,
        grad_norm=None,
        initial_objective=None,
        initial_points=sample.copy(),
        final_points=probes.copy(),
        snapshots=snapshots,
        total_updates=updates,
        duration=duration,
        stop_reason="converged" if active.size == 0 else "max_updates",
        isolated_probes=isolated,
        unconverged=active.copy(),
        ms_update_counts=np.asarray(counts, dtype=np.int64),
    )
    return probes, trace


def run(points, cfg: AlgoConfig):
    """Dispatch on ``cfg.algorithm``; returns ``(positions, RunTrace)``."""
    if cfg.algorithm == "sms":
        return sms_run(points, cfg)
    if cfg.algorithm == "bms":
        return bms_run(points, cfg)
    return ms_run(points, cfg)
