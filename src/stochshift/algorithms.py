"""MS, BMS and SMS iteration drivers with stopping rules and tracing.

The three drivers share the same update arithmetic:

* ``ms_run``   - every probe point independently iterates the mean-shift
  operator against the *fixed* original sample until its displacement
  falls below the tolerance.
* ``bms_run``  - synchronous sweeps: all n new positions are computed
  from the same input state, then the state is replaced wholesale.
* ``sms_run``  - one uniformly random point per step moves against the
  *current* (blurred) state.

The drivers differ only in their update and stop rules; every run
records through one ``_Recorder``, which checks the budget, copies the
state, evaluates the starting objective and takes the snapshots (at
multiples of ``snapshot_every`` for SMS, after every batch event when
it is set); nothing times a run.  ``event()`` records one batch event (a
BMS sweep, an MS iteration; moved index -1), as a row of the update
count, moved index, shift and, when traced, the objective, and
``events()`` one block of SMS steps, as rows of the same columns but the
update count, with the increment and the partial-gradient norm: the
s-th SMS step is update s, so ``finish()`` builds that column once.  A
traced SMS objective is the running sum of the moves' increments; a
batch event evaluates ``objective_value`` afresh.

``_sms_loop`` is the one SMS loop.  ``_index_blocks`` draws the index
stream in blocks of at most ``_BLOCK`` (the same stream however it is
split) that also end at every multiple of ``snapshot_every`` and at the
budget.  A runner applies each block with the stop rule, keeping its
state between blocks, and the loop records the block.  The stop rule:
a step with shift >= tol starts a new epoch, one below tol stamps its
point into the current epoch, and the run stops once all n points carry
the current epoch's stamp.  The runners
share ``run(idx) -> (steps, converged)`` and the step buffers
``shifts``, ``deltas`` and ``grads`` (None when untraced):

* ``_PySteps`` calls a ``move(i)`` that updates row i in place and
  returns ``(shift, delta, grad)``: ``_sms_move`` or the
  neighbour-mean move of ``affinity.knn_sms_run``.
* ``_native.SmsBlockKernel`` runs distance SMS in C, traced or not,
  averaging the same points as ``_sms_move`` and taking the increment
  and the gradient norm in its form (see ``_kernel.c``).
  ``sms_run`` uses it whenever it loads.
* ``_native.KnnBlockKernel`` runs the neighbour-mean move in C, to the
  same positions as numpy's in every d: both sum the k rows in index
  order.  ``knn_sms_run`` uses it whenever it loads.

The two compiled runners share one stop rule in C.  ``_PySteps`` is
their fallback and their test reference.

MS and BMS share one batch map, ``_shift_rows``: BMS maps the state
against itself, MS its active probes against the fixed sample.  Its
numpy body walks ``core.pairwise_sq_blocks``, the one such walk here,
and is the test reference of both compiled paths.  Whenever the kernel
loads, MS's map runs ``_native.shift_rows`` (a cell grid on the sample
wherever SMS steps on one, a plain loop otherwise), and BMS runs
``_native.bms_sweeps`` through ``_bms_sweeps``: many sweeps per call,
each unordered pair evaluated once a sweep (``bms_run`` says why no grid).
``_shift_rows``' docstring states how far the two paths agree.

Budgets are counted in point-updates so the three are unit-consistent:
one SMS step is 1 update, one BMS sweep is n updates, one MS inner
iteration is 1 update per active probe.  Index draws come from a named,
versioned generator (numpy PCG64) so traces reproduce exactly for a
given seed; floating-point reductions use a fixed index-ascending order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .core import check_bandwidth, check_state, objective_value, pairwise_sq_blocks
from .kernels import EPANECHNIKOV, Profile, _weight

__all__ = [
    "ALGORITHMS",
    "AlgoConfig",
    "RunTrace",
    "RandomIndexStream",
    "sms_run",
    "bms_run",
    "ms_run",
    "run",
]

ALGORITHMS = ("ms", "bms", "sms")
_BLOCK = 4096  # SMS index draws per block
_SWEEPS = 256  # BMS sweeps per kernel call when nothing is recorded between them


@dataclass(frozen=True)
class AlgoConfig:
    """Hyperparameters shared by the three drivers.

    ``max_updates`` and ``move_tolerance`` follow the experiment defaults
    (1e7 updates, shift < 1e-6).  SMS stops once every index has been
    drawn, with a below-tolerance shift, since the last above-tolerance
    shift of any point.  ``trace_objective`` is for SMS and BMS and
    ``trace_gradient`` for SMS only; a driver that would ignore one
    rejects it.
    """

    algorithm: str = "sms"
    profile: Profile = EPANECHNIKOV
    h: float = 1.0
    max_updates: int = 10_000_000
    move_tolerance: float = 1e-6
    seed: int = 0
    trace_objective: bool = False
    trace_gradient: bool = False
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        check_bandwidth(self.h)
        for name in ("max_updates", "seed", "snapshot_every"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, (int, np.integer)) or isinstance(value, bool)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.max_updates < 1:
            raise ValueError("max_updates must be positive")
        if not (self.move_tolerance > 0 and np.isfinite(self.move_tolerance)):
            raise ValueError("move_tolerance must be a positive finite real")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be positive when given")
        if self.algorithm == "ms" and self.trace_objective:
            raise ValueError("ms does not trace the objective; set trace_objective to False")
        if self.algorithm != "sms" and self.trace_gradient:
            raise ValueError(f"{self.algorithm} does not trace the gradient; set trace_gradient to False")


class RandomIndexStream:
    """Seeded stream of i.i.d. uniform indices over range(n).

    Backed by numpy's PCG64 bit generator: the same seed yields the same
    index sequence on every platform, and draws never depend on the
    state being clustered.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def draw_block(self, n: int, m: int) -> np.ndarray:
        """The next m draws, as an int64 array; blocks of any lengths split one stream."""
        return self._gen.integers(n, size=m)


@dataclass
class RunTrace:
    """Per-event history of one driver run, one column entry per event.

    An event is one SMS step, one BMS sweep or one MS batch iteration.
    ``update_count`` is the cumulative point-update count after each
    event; ``moved_index`` holds the drawn index for SMS steps and -1
    for batch events; ``shift`` is the moved point's displacement for
    SMS and the maximal per-point displacement for batch events.
    ``objective`` (when traced) is the state's pairwise affinity *after*
    the event, with the starting value in ``initial_objective``; it is
    non-decreasing along SMS and BMS traces.  For SMS the per-step
    increment is also kept in ``objective_delta``, computed in a
    cancellation-free product form so increments far below the
    objective's rounding unit stay accurate.  ``grad_norm`` (when
    traced, SMS only) is the moved point's partial-gradient norm at the
    pre-move state.  ``unconverged`` (MS only) lists the probes whose
    per-point budget ran out before their shift fell below tolerance.
    """

    algorithm: str
    moved_index: np.ndarray
    shift: np.ndarray
    initial_points: np.ndarray
    final_points: np.ndarray
    update_count: np.ndarray | None = None
    objective: np.ndarray | None = None
    objective_delta: np.ndarray | None = None
    grad_norm: np.ndarray | None = None
    initial_objective: float | None = None
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)
    total_updates: int = 0
    stop_reason: str = "converged"
    unconverged: np.ndarray | None = None

    @property
    def n_events(self) -> int:
        return int(self.moved_index.shape[0])

    @property
    def updates_per_point(self) -> float:
        return self.total_updates / self.initial_points.shape[0]


class _Recorder:
    """The one builder of a ``RunTrace``; see the module docstring."""

    def __init__(self, algorithm: str, pts, cfg: AlgoConfig, objective=False, gradient=False):
        n = pts.shape[0]
        if cfg.max_updates < n:
            raise ValueError(f"max_updates={cfg.max_updates} must be >= n={n}")
        self.algorithm = algorithm
        self.cfg = cfg
        self.initial = pts.copy()
        self.every = cfg.snapshot_every
        self.snapshots = [] if self.every is None else [(0, pts.copy())]
        self.initial_objective = objective_value(pts, cfg.h, cfg.profile) if objective else None
        self.objective_now = self.initial_objective
        self.updates = 0
        self.update_count = array("q")
        self.moved_index = array("q")
        self.shift = array("d")
        self.objective = array("d") if objective else None
        self.objective_delta = array("d") if objective else None
        self.grad_norm = array("d") if gradient else None

    def event(self, pts, shift: float, count: int) -> None:
        """Record a batch event (BMS sweep, MS iteration) of ``count`` updates that left ``pts``."""
        self.updates += count
        self.update_count.append(self.updates)
        self.moved_index.append(-1)
        self.shift.append(shift)
        if self.objective is not None:
            self.objective.append(objective_value(pts, self.cfg.h, self.cfg.profile))
        if self.every is not None:
            self.snapshots.append((self.updates, pts.copy()))

    def events(self, pts, idx: np.ndarray, steps) -> None:
        """Record a block of SMS steps: the moved indices ``idx`` and the buffers of ``steps``.

        The objective is the running sum of the increments in step order,
        bit-equal to adding them one by one.  A block ends at a multiple
        of ``snapshot_every`` or before it, so at most its last step
        takes a snapshot.
        """
        m = idx.shape[0]
        self.moved_index.frombytes(idx.astype(np.int64, copy=False).tobytes())
        self.shift.frombytes(steps.shifts[:m].tobytes())
        if self.objective is not None:
            deltas = steps.deltas[:m]
            running = np.cumsum(np.concatenate(([self.objective_now], deltas)))[1:]
            self.objective_now = float(running[-1])
            self.objective.frombytes(running.tobytes())
            self.objective_delta.frombytes(deltas.tobytes())
        if self.grad_norm is not None:
            self.grad_norm.frombytes(steps.grads[:m].tobytes())
        self.updates += m
        if self.every is not None and self.updates % self.every == 0:
            self.snapshots.append((self.updates, pts.copy()))

    def finish(self, pts, stop_reason: str, **extra) -> RunTrace:
        """Append the final snapshot and build the trace; ``extra`` is MS's."""
        if self.every is not None and self.snapshots[-1][0] != self.updates:
            self.snapshots.append((self.updates, pts.copy()))

        def column(values):  # a view of the array's buffer, not a copy
            return None if values is None else np.asarray(values)

        return RunTrace(
            algorithm=self.algorithm,
            moved_index=column(self.moved_index),
            shift=column(self.shift),
            initial_points=self.initial,
            final_points=pts.copy(),
            # SMS steps record no count: the column is 1..updates, built once here
            update_count=column(self.update_count) if self.update_count
            else np.arange(1, self.updates + 1, dtype=np.int64),
            objective=column(self.objective),
            # increments exist only where the moves supplied them (SMS)
            objective_delta=column(self.objective_delta) if self.objective_delta else None,
            grad_norm=column(self.grad_norm),
            initial_objective=self.initial_objective,
            snapshots=self.snapshots,
            total_updates=self.updates,
            stop_reason=stop_reason,
            **extra,
        )


def _sms_move(pts: np.ndarray, cfg: AlgoConfig):
    """The SMS distance move on ``pts``: returns ``move(i)`` for ``_PySteps``.

    ``move(i)`` moves point i onto the weighted mean of the current state
    in place and returns ``(shift, delta, grad)``; the objective
    increment and the gradient norm are computed only when ``cfg``
    traces them.  The drawn point is averaged together with its own
    weight, so an isolated point is its own fixed point.  Squared
    distances come from the dot-product identity with per-row cached
    squared norms; the cached entries are exact (recomputed after every
    move), only the combination can see cancellation, which is harmless
    under the compact-support weights.
    """
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
        np.multiply(pts @ x_old, -2.0, out=sqbuf)
        np.add(sqbuf, sqn, out=sqbuf)
        np.add(sqbuf, sqn[i], out=sqbuf)
        if alpha == 1:
            w = sqbuf < h2
            total = float(np.count_nonzero(w))  # counting a bool mask is cheaper than a float sum
        else:
            w = _weight(alpha, np.clip(sqbuf, 0.0, None) * inv_h2)
            total = float(w.sum())
        new = (w @ pts) / total
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
            b_old = np.clip(1.0 - sqbuf * inv_h2, 0.0, None)
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

    return move


def _index_blocks(n: int, cfg: AlgoConfig):
    """The run's index stream, split into blocks as the module docstring says; the split changes no index."""
    rng = RandomIndexStream(cfg.seed)
    every = cfg.snapshot_every
    done = 0
    while done < cfg.max_updates:
        m = min(_BLOCK, cfg.max_updates - done)
        if every is not None:
            m = min(m, every - done % every)
        yield rng.draw_block(n, m)
        done += m


class _PySteps:
    """The numpy SMS runner: ``_native.SmsBlockKernel``'s interface over a ``move(i)``.

    ``deltas`` and ``grads`` exist when ``cfg`` traces the objective and
    the gradient; ``move(i)`` must then supply them.
    """

    def __init__(self, move, n: int, cfg: AlgoConfig):
        self.move = move
        self.tol = cfg.move_tolerance
        self.shifts = np.empty(_BLOCK)
        self.deltas = np.empty(_BLOCK) if cfg.trace_objective else None
        self.grads = np.empty(_BLOCK) if cfg.trace_gradient else None
        # coverage since the last above-tolerance shift is kept O(1) per
        # step with an epoch stamp instead of clearing a flag array
        self.stamp = [-1] * n
        self.n, self.epoch, self.covered = n, 0, 0

    def run(self, idx: np.ndarray) -> tuple[int, bool]:
        """Apply the steps of ``idx`` until the stop rule fires; returns (steps, converged)."""
        for s, i in enumerate(idx.tolist()):
            shift, delta, grad = self.move(i)
            self.shifts[s] = shift
            if self.deltas is not None:
                self.deltas[s] = delta
            if self.grads is not None:
                self.grads[s] = grad
            if shift < self.tol:
                if self.stamp[i] != self.epoch:
                    self.stamp[i] = self.epoch
                    self.covered += 1
                    if self.covered == self.n:
                        return s + 1, True
            else:
                self.epoch += 1
                self.covered = 0
        return idx.shape[0], False


def _sms_loop(pts, cfg: AlgoConfig, steps, rec: _Recorder):
    """The one SMS loop, shared by :func:`sms_run` and ``knn_sms_run``.

    Runs each index block through ``steps``, a ``_PySteps``, an
    ``_native.SmsBlockKernel`` or an ``_native.KnnBlockKernel``, records it through ``rec`` and stops
    when the stop rule fires; returns ``(pts, RunTrace)``.
    """
    for block in _index_blocks(pts.shape[0], cfg):
        m, converged = steps.run(block)
        rec.events(pts, block[:m], steps)
        if converged:
            return pts, rec.finish(pts, "converged")
    return pts, rec.finish(pts, "max_updates")


def sms_run(points, cfg: AlgoConfig):
    """Run SMS until the stopping rule fires or the budget is spent.

    Stopping: every index has been drawn, with a shift below
    ``move_tolerance``, since the most recent above-tolerance shift.
    Runs, traced or not, use the compiled kernel when it is available
    and the numpy path otherwise; both take the same steps.  Returns
    ``(final_points, RunTrace)``.
    """
    pts = check_state(points).copy()
    n = pts.shape[0]
    rec = _Recorder("sms", pts, cfg, cfg.trace_objective, cfg.trace_gradient)
    lib = _native.load()
    if lib is None:
        steps = _PySteps(_sms_move(pts, cfg), n, cfg)
    else:
        steps = _native.SmsBlockKernel(lib, pts, cfg.h, cfg.profile.alpha, cfg.move_tolerance, _BLOCK,
                                       cfg.trace_objective, cfg.trace_gradient)
    return _sms_loop(pts, cfg, steps, rec)


def _shift_rows(queries: np.ndarray, sample: np.ndarray, cfg: AlgoConfig):
    """Move each query row onto the G-weighted mean of ``sample``; returns ``(new, shifts)``.

    When the kernel loads, ``_native.shift_rows`` does the work: it
    queries a cell grid built on the sample in 2-D with n >= 128, for
    every profile, and runs a plain loop over the sample otherwise.
    Without it the numpy body below does it; it is also the test
    reference of the kernel's map and of its BMS sweeps
    (``_native.bms_sweeps``).

    In the numpy body the uniform (alpha = 1) weight is written into the
    distance block in place as 0.0 / 1.0, whose float row sums are exact
    counts; for alpha >= 2 the clip and the 1 / h^2 scale are done in
    place too.  A row with no weight stays at its query.  In BMS the self
    term G(0) > 0 rules that out unless the norm identity rounds a
    point's own squared distance up to h^2, once h^2 nears the identity's
    rounding error (h around 1e-8 at unit-scale coordinates).

    The paths average the same sample points except where the identity
    rounds a distance within rounding of h differently, and sum them in
    different orders (BLAS against cells or index order).  Over
    MS and BMS runs the rule, with s the largest absolute coordinate of
    the final state: update counts, stop reasons, ``unconverged`` and
    partitions are identical; final positions agree within 1e-12 s;
    mid-run shifts and snapshots within 1e-12 s for alpha = 1 and
    1e-10 s for alpha >= 2, where a collapse amplifies the rounding
    before it closes again.  Far from the origin the identity rounds by
    about eps |x|^2, a few hundredths of h^2 at coordinates around 1e7 h,
    and the two paths can then part ways.
    """
    lib = _native.load()
    if lib is not None:
        new = _native.shift_rows(lib, queries, sample, cfg.h, cfg.profile.alpha)
    else:
        h2 = cfg.h * cfg.h
        alpha = cfg.profile.alpha
        new = queries.copy()
        for lo, hi, sq in pairwise_sq_blocks(queries, sample):
            if alpha == 1:
                w = np.less(sq, h2, out=sq)
            else:
                np.clip(sq, 0.0, None, out=sq)
                sq *= 1.0 / h2
                w = _weight(alpha, sq)
            totals = w.sum(axis=1)[:, None]
            np.divide(w @ sample, totals, out=new[lo:hi], where=totals > 0)
    diff = new - queries
    return new, np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _bms_sweeps(pts: np.ndarray, cfg: AlgoConfig, sweeps: int) -> np.ndarray:
    """Run up to ``sweeps`` BMS sweeps on ``pts`` in place; returns their largest row shifts.

    The sweeps end after the first whose largest shift is below the
    tolerance.  Whenever the kernel loads, ``_native.bms_sweeps`` runs
    them in one call; otherwise each is ``_shift_rows``' numpy map of
    the state against itself.
    """
    lib = _native.load()
    if lib is not None:
        return _native.bms_sweeps(lib, pts, cfg.h, cfg.profile.alpha, cfg.move_tolerance, sweeps)
    maxima = []
    for _ in range(sweeps):
        new, shifts = _shift_rows(pts, pts, cfg)
        pts[...] = new
        maxima.append(float(shifts.max()))
        if maxima[-1] < cfg.move_tolerance:
            break
    return np.array(maxima)


def bms_run(points, cfg: AlgoConfig):
    """Repeat synchronous sweeps until the maximal shift converges.

    In the kernel a sweep evaluates each unordered pair once, n (n + 1) / 2
    pairs, quadratic as in Cheng's BMS, and not on the cell grid MS and SMS
    query: acceptance criterion 7 requires BMS wall time to grow as about
    n^2 (a log-log slope in [1.6, 2.4] over n = 30 to 3000), and gridded
    sweeps read a slope of about 1.0.  Untraced runs without snapshots
    hand the kernel up to ``_SWEEPS`` sweeps per call, so a small run pays
    the Python overhead of one call, not of every sweep.
    """
    pts = check_state(points).copy()  # once: a sweep keeps each row a convex combination of rows
    n = pts.shape[0]
    rec = _Recorder("bms", pts, cfg, cfg.trace_objective)
    # a traced objective and the snapshots read the state after every sweep
    per_call = 1 if cfg.trace_objective or cfg.snapshot_every is not None else _SWEEPS
    left = cfg.max_updates // n
    stop_reason = "max_updates"
    while left > 0:
        shifts = _bms_sweeps(pts, cfg, min(per_call, left))
        for shift in shifts.tolist():
            rec.event(pts, shift, n)
        left -= shifts.size
        if shifts[-1] < cfg.move_tolerance:
            stop_reason = "converged"
            break
    return pts, rec.finish(pts, stop_reason)


def ms_run(points, cfg: AlgoConfig):
    """Classic mean-shift: probes iterate against the fixed sample.

    Every probe point starts at its sample position and repeatedly
    applies ``_shift_rows`` against the *original* state until its
    displacement drops below tolerance or its per-point budget
    (``max_updates // n``) is exhausted.  A probe always keeps a sample
    point strictly within h: it starts on one, and with weights w_j > 0
    only within h of its position x, summing to W, its move to the
    weighted mean y gives sum_j w_j |y - x_j|^2 <= sum_j w_j |x - x_j|^2
    < W h^2, so some x_j lies within h of y.  Returns
    ``(modes, RunTrace)`` with the n limit positions in input order and
    the probes still moving in ``RunTrace.unconverged``.  The map runs
    in the compiled kernel when it is available and in numpy otherwise.
    """
    sample = check_state(points)
    n = sample.shape[0]
    probes = sample.copy()
    rec = _Recorder("ms", sample, cfg)
    active = np.arange(n)
    for _ in range(cfg.max_updates // n):
        if active.size == 0:
            break
        new, shifts = _shift_rows(probes[active], sample, cfg)
        probes[active] = new
        rec.event(probes, float(shifts.max()), int(active.size))
        active = active[shifts >= cfg.move_tolerance]
    stop_reason = "converged" if active.size == 0 else "max_updates"
    return probes, rec.finish(probes, stop_reason, unconverged=active.copy())


def run(points, cfg: AlgoConfig):
    """Dispatch on ``cfg.algorithm``; returns ``(positions, RunTrace)``."""
    if cfg.algorithm == "sms":
        return sms_run(points, cfg)
    if cfg.algorithm == "bms":
        return bms_run(points, cfg)
    return ms_run(points, cfg)
