"""Driver behaviour: steps, sweeps, runs, stopping, tracing, determinism."""

import ctypes
import hashlib
import math
import os
import re
import shutil
import subprocess
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from stochshift import _native
from stochshift.affinity import knn_sms_run
from stochshift.algorithms import (
    AlgoConfig,
    RandomIndexStream,
    _shift_rows,
    _sms_move,
    bms_run,
    ms_run,
    run,
    sms_run,
)
from stochshift.clustering import MergePolicy, extract_clusters
from stochshift.core import full_gradient, objective_value
from stochshift.experiments import index_seed
from stochshift.io import write_trace_jsonl
from stochshift.kernels import EPANECHNIKOV, Profile
from stochshift.synthdata import generate, parse_preset, preset
from stochshift.theory import check_gradient_vanishes, check_monotone_ascent, check_partial_gradient_bound

P2 = Profile(2)


def seed_with_first_draw(n, want, limit=200):
    for seed in range(limit):
        if RandomIndexStream(seed).draw_block(n, 1)[0] == want:
            return seed
    raise AssertionError("no seed found")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgoConfig(algorithm="kmeans")
        with pytest.raises(ValueError):
            AlgoConfig(h=0.0)
        with pytest.raises(ValueError):
            AlgoConfig(move_tolerance=-1.0)
        # integer fields take Python or numpy integers, never floats or bools
        for bad in ({"seed": 1.5}, {"max_updates": 1e3}, {"snapshot_every": 2.5}, {"seed": True}):
            with pytest.raises(TypeError, match=f"{next(iter(bad))} must be an integer"):
                AlgoConfig(**bad)
        assert AlgoConfig(seed=np.int64(3), max_updates=np.int32(10), snapshot_every=np.uint8(2)).seed == 3

    @pytest.mark.parametrize(
        "algorithm, flag",
        [("ms", "trace_objective"), ("ms", "trace_gradient"), ("bms", "trace_gradient")],
    )
    def test_trace_switch_the_driver_ignores_rejected(self, algorithm, flag):
        with pytest.raises(ValueError, match=f"{algorithm} does not trace"):
            AlgoConfig(algorithm=algorithm, **{flag: True})

    def test_budget_below_n_rejected(self):
        cfg = AlgoConfig(max_updates=2)
        with pytest.raises(ValueError, match="max_updates"):
            sms_run(np.zeros((5, 1)), cfg)


@pytest.mark.parametrize("call", [
    lambda pts: sms_run(pts, AlgoConfig()),
    lambda pts: bms_run(pts, AlgoConfig(algorithm="bms")),
    lambda pts: ms_run(pts, AlgoConfig(algorithm="ms")),
    lambda pts: extract_clusters(pts, 1.0),
], ids=["sms", "bms", "ms", "extract_clusters"])
def test_squared_norms_past_a_quarter_of_the_float_range_rejected(call):
    # squares are finite, but the distance identity's -2 a.b overflows:
    # SMS used to move both points to (1e154, 0.615), 5 h apart
    with pytest.raises(ValueError, match="squared row norms"):
        call(np.array([[1e154, 0.0], [1e154, 5.0]]))
    # a squared norm just below a quarter of the largest float64 is accepted
    edge = np.array([[np.sqrt(np.finfo(np.float64).max / 4) * (1 - 1e-15), 0.0], [0.0, 0.0]])
    call(edge)


class TestRandomIndexStream:
    def test_identical_seed_identical_sequence(self):
        a = RandomIndexStream(42)
        b = RandomIndexStream(42)
        assert [a.draw_block(10, 1)[0] for _ in range(50)] == b.draw_block(10, 50).tolist()

    def test_range(self):
        s = RandomIndexStream(1)
        assert all(0 <= i < 7 for i in s.draw_block(7, 200))

    @pytest.mark.parametrize("n", [150, 750, 4500])
    def test_block_draws_equal_scalar_draws(self, n):
        # however the stream is split, down to single draws, it is one block of the same length
        whole, singles, blocks = (RandomIndexStream(1000003) for _ in range(3))
        expected = whole.draw_block(n, 5009).tolist()
        assert [int(singles.draw_block(n, 1)[0]) for _ in range(20)] == expected[:20]
        got = [blocks.draw_block(n, m) for m in (1, 7, 4096, 904, 1)]
        assert np.concatenate(got).tolist() == expected


class TestSmsStep:
    """One step of ``_sms_move``, the numpy runner's move, at an index the stream draws."""

    def test_two_point_epanechnikov(self):
        pts = np.array([[0.0], [0.5]])
        cfg = AlgoConfig(profile=EPANECHNIKOV, h=1.0)
        i = int(RandomIndexStream(seed_with_first_draw(2, 0)).draw_block(2, 1)[0])
        shift, _, _ = _sms_move(pts, cfg)(i)
        assert i == 0
        np.testing.assert_allclose(pts, [[0.25], [0.5]])
        assert shift == pytest.approx(0.25)

    def test_touches_exactly_one_point(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        new = pts.copy()
        i = int(RandomIndexStream(5).draw_block(20, 1)[0])
        _sms_move(new, AlgoConfig(profile=P2, h=1.0))(i)
        others = np.delete(np.arange(20), i)
        np.testing.assert_array_equal(new[others], pts[others])

    def test_coincident_fixed_point(self):
        pts = np.tile([[1.0, 1.0]], (4, 1))
        new = pts.copy()
        shift, _, _ = _sms_move(new, AlgoConfig(profile=P2))(int(RandomIndexStream(0).draw_block(4, 1)[0]))
        np.testing.assert_array_equal(new, pts)
        assert shift == 0.0

    def test_separated_fixed_point(self):
        pts = np.array([[0.0], [5.0]])
        new = pts.copy()
        shift, _, _ = _sms_move(new, AlgoConfig(profile=P2))(int(RandomIndexStream(0).draw_block(2, 1)[0]))
        np.testing.assert_array_equal(new, pts)
        assert shift == 0.0

    def test_matches_operator_and_gradient_form(self):
        # x_new = S_h(x_i) = x_i + (h^2 / 2) grad_i / sum_j G_ij
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(9, 2))
        h = 0.8
        cfg = AlgoConfig(profile=P2, h=h)
        new = pts.copy()
        i = int(RandomIndexStream(seed_with_first_draw(9, 4)).draw_block(9, 1)[0])
        _sms_move(new, cfg)(i)
        assert i == 4
        for runner in ("default", "numpy"):
            with pytest.MonkeyPatch.context() as mp:
                use_runner(runner, mp)
                np.testing.assert_allclose(new[4], _shift_rows(pts[4][None], pts, cfg)[0][0], atol=1e-12)
        diff = pts - pts[4]
        t = np.einsum("ij,ij->i", diff, diff) / (h * h)
        total = (2.0 * np.clip(1.0 - t, 0.0, None)).sum()
        grad_form = pts[4] + (h * h / 2.0) / total * full_gradient(pts, h, P2)[4]
        np.testing.assert_allclose(new[4], grad_form, atol=1e-12)


def one_sweep(pts, cfg):
    """One synchronous BMS sweep: ``bms_run`` on a budget of n updates; returns ``(new, trace)``.

    Checks that the run is one event whose shift is the largest row move.
    """
    new, trace = bms_run(pts, replace(cfg, algorithm="bms", max_updates=pts.shape[0]))
    assert_one_batch_event(pts, new, trace)
    return new, trace


def assert_one_batch_event(start, final, trace):
    assert trace.n_events == 1
    moves = np.sqrt(np.einsum("ij,ij->i", final - start, final - start))
    assert trace.shift[0] == pytest.approx(moves.max(), rel=1e-14, abs=0.0)


class TestBmsSweep:
    def test_two_point_collapse(self):
        pts = np.array([[0.0], [0.5]])
        new, trace = one_sweep(pts, AlgoConfig(profile=EPANECHNIKOV, h=1.0))
        np.testing.assert_allclose(new, [[0.25], [0.25]])
        assert trace.shift[0] == pytest.approx(0.25)

    def test_critical_state_unchanged(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        new, trace = one_sweep(pts, AlgoConfig(profile=P2, h=1.0))
        np.testing.assert_array_equal(new, pts)
        assert trace.shift[0] == 0.0

    def test_collinear_strict_neighbors(self):
        pts = np.array([[0.0], [0.4], [0.8]])
        new, _ = one_sweep(pts, AlgoConfig(profile=EPANECHNIKOV, h=0.5))
        np.testing.assert_allclose(new, [[0.2], [0.4], [0.6]])

    def test_synchronous_update_uses_input_state(self):
        # sequential updating would give a different second coordinate
        pts = np.array([[0.0], [0.4], [0.8]])
        cfg = AlgoConfig(profile=EPANECHNIKOV, h=0.5)
        new, _ = one_sweep(pts, cfg)
        sequential = pts.copy()
        for i in range(3):
            sequential[i] = _shift_rows(sequential[i][None], sequential, cfg)[0][0]
        assert not np.allclose(new, sequential)


class TestBmsSweepNumpy(TestBmsSweep):
    """The same sweeps on the numpy map."""

    @pytest.fixture(autouse=True)
    def numpy_map(self, monkeypatch):
        monkeypatch.setattr(_native, "load", lambda: None)


class TestMsRun:
    def test_single_point(self):
        modes, trace = ms_run(np.array([[2.0, 3.0]]), AlgoConfig(algorithm="ms"))
        np.testing.assert_array_equal(modes, [[2.0, 3.0]])
        assert trace.stop_reason == "converged"

    def test_two_points_within_h(self):
        modes, _ = ms_run(np.array([[0.0], [0.5]]), AlgoConfig(algorithm="ms", profile=EPANECHNIKOV))
        np.testing.assert_allclose(modes, [[0.25], [0.25]])

    def test_two_points_apart(self):
        pts = np.array([[0.0], [5.0]])
        modes, _ = ms_run(pts, AlgoConfig(algorithm="ms", profile=P2))
        np.testing.assert_array_equal(modes, pts)

    def test_modes_in_input_order(self):
        data = generate(preset("set2", seed=0))
        modes, trace = ms_run(data.points, AlgoConfig(algorithm="ms", profile=EPANECHNIKOV))
        assert modes.shape == data.points.shape
        assert trace.total_updates >= data.n

    def test_unconverged_probes_moved_in_every_iteration(self):
        # a budget of two iterations per probe: the unconverged ones are
        # those that moved by tol or more in both
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(algorithm="ms", max_updates=2 * data.n, snapshot_every=1)
        _, trace = ms_run(data.points, cfg)
        (k0, s0), (k1, s1), (k2, s2) = trace.snapshots

        def moved(a, b):
            diff = b - a
            return np.sqrt(np.einsum("ij,ij->i", diff, diff)) >= cfg.move_tolerance

        first = moved(s0, s1)
        expected = np.flatnonzero(first & moved(s1, s2))
        assert (k0, k1, k2) == (0, data.n, data.n + int(first.sum()))
        assert trace.stop_reason == "max_updates" and expected.size > 0
        np.testing.assert_array_equal(trace.unconverged, expected)

    @pytest.mark.parametrize("h", [0.3, 1.0])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_probes_keep_a_sample_point_within_h(self, alpha, h):
        # a probe starts on a sample point and the weighted mean of its
        # neighbours keeps one strictly within h, so no total is ever zero
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(algorithm="ms", profile=Profile(alpha), h=h, snapshot_every=1)
        _, trace = ms_run(data.points, cfg)
        assert trace.stop_reason == "converged"
        for _, snap in trace.snapshots:
            diff = snap[:, None, :] - data.points[None, :, :]
            nearest = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
            assert np.all(nearest < h * h)


class TestSmsRun:
    def test_critical_start_stops_after_coverage(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        cfg = AlgoConfig(profile=P2, seed=1)
        final, trace = sms_run(pts, cfg)
        np.testing.assert_array_equal(final, pts)
        assert trace.stop_reason == "converged"
        assert np.all(trace.shift == 0.0)
        # every index drawn at least once
        assert set(trace.moved_index.tolist()) == {0, 1, 2}

    def test_two_point_common_limit(self):
        pts = np.array([[0.0], [0.5]])
        final, trace = sms_run(pts, AlgoConfig(profile=EPANECHNIKOV, h=1.0, seed=7))
        assert trace.stop_reason == "converged"
        assert abs(final[0, 0] - final[1, 0]) < 1e-5
        assert 0.0 <= final[0, 0] <= 0.5

    def test_small_diameter_collapses(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.2, 0.2, size=(12, 2))
        final, trace = sms_run(pts, AlgoConfig(profile=P2, h=1.0, seed=3))
        diff = final[:, None, :] - final[None, :, :]
        assert np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).max() < 1e-4

    def test_budget_exhaustion_reported(self):
        data = generate(preset("set2", seed=1))
        cfg = AlgoConfig(profile=EPANECHNIKOV, max_updates=data.n, seed=0)
        _, trace = sms_run(data.points, cfg)
        assert trace.stop_reason == "max_updates"
        assert trace.total_updates == data.n

    def test_prefix_matches_functional_steps(self):
        data = generate(preset("set2", seed=2))
        cfg = AlgoConfig(profile=EPANECHNIKOV, h=1.0, seed=11, max_updates=data.n)
        _, trace = sms_run(data.points, cfg)
        move = _sms_move(data.points.copy(), cfg)
        for j, i in enumerate(RandomIndexStream(11).draw_block(data.n, 25).tolist()):
            shift, _, _ = move(i)
            assert i == trace.moved_index[j]
            assert shift == pytest.approx(trace.shift[j], abs=1e-12)

    def test_ascent_with_explicit_constant(self):
        data = generate(preset("set2", seed=3))
        cfg = AlgoConfig(profile=P2, h=1.0, seed=5, trace_objective=True)
        _, trace = sms_run(data.points, cfg)
        values = np.concatenate(([trace.initial_objective], trace.objective))
        deltas = np.diff(values)
        c = 2.0 * P2.weight_at_zero / 1.0
        tol = 1e-9 * max(1.0, trace.initial_objective)
        assert np.all(deltas >= c * trace.shift**2 - tol)

    def test_traced_objective_matches_recomputation(self):
        data = generate(preset("set2", seed=4))
        cfg = AlgoConfig(profile=P2, h=1.0, seed=6, max_updates=400, trace_objective=True)
        final, trace = sms_run(data.points, cfg)
        recomputed = objective_value(final, 1.0, P2)
        assert trace.objective[-1] == pytest.approx(recomputed, rel=1e-9)

    def test_traced_run_across_index_blocks(self):
        # snapshot_every=5000 cuts the 4096-draw blocks to 4096, 904 and a
        # block that the stop rule ends after 860 of its steps
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(profile=P2, seed=1000003, trace_objective=True, trace_gradient=True,
                         snapshot_every=5000)
        _, trace = sms_run(data.points, cfg)
        total = trace.total_updates
        assert (trace.stop_reason, total) == ("converged", 5860)
        np.testing.assert_array_equal(trace.update_count, np.arange(1, total + 1))
        assert [k for k, _ in trace.snapshots] == [0, 5000, total]

        value, running = trace.initial_objective, []
        for delta in trace.objective_delta.tolist():
            value += delta
            running.append(value)
        np.testing.assert_array_equal(trace.objective, running)
        objective = np.concatenate(([trace.initial_objective], trace.objective))
        for k, snap in trace.snapshots:
            assert objective_value(snap, cfg.h, P2) == pytest.approx(objective[k], rel=1e-9)

        assert trace.grad_norm.shape == (total,)
        for k, snap in trace.snapshots[:-1]:  # the step after a snapshot moves from it
            grad = full_gradient(snap, cfg.h, P2)[trace.moved_index[k]]
            assert trace.grad_norm[k] == pytest.approx(np.sqrt(grad @ grad), rel=1e-9, abs=1e-12)

    def test_snapshots_and_counts(self):
        data = generate(preset("set2", seed=5))
        cfg = AlgoConfig(profile=EPANECHNIKOV, seed=8, max_updates=300, snapshot_every=100)
        _, trace = sms_run(data.points, cfg)
        ks = [k for k, _ in trace.snapshots]
        assert ks[0] == 0 and ks[-1] == trace.total_updates
        assert trace.updates_per_point == pytest.approx(trace.total_updates / data.n)


TRACES = {
    "traced": {"trace_objective": True, "trace_gradient": True},
    "objective": {"trace_objective": True},
    "gradient": {"trace_gradient": True},
}


def assert_within(actual, desired, tol):
    """|actual - desired| <= tol elementwise, for a tolerance per element."""
    tol = np.broadcast_to(tol, np.shape(actual))
    excess = np.abs(actual - desired) - tol
    worst = int(np.argmax(excess))
    assert excess[worst] <= 0, f"entry {worst}: {actual[worst]!r} vs {desired[worst]!r}, tolerance {tol[worst]!r}"


def assert_within_floors(run, ref, initial_objective, cfg):
    """The floors of ``assert_same_run`` on (final state, shifts, increments, gradient norms) of the same steps.

    ``ref`` holds the reference's values; an increment or gradient column
    that ``ref`` does not trace is not compared.
    """
    final, shift, delta, grad = run
    ref_final, ref_shift, ref_delta, ref_grad = ref
    # positions and shifts within 1e-12 of the state's scale
    atol = 1e-12 * np.abs(ref_final).max()
    np.testing.assert_allclose(final, ref_final, rtol=0, atol=atol)
    np.testing.assert_allclose(shift, ref_shift, rtol=0, atol=atol)
    if ref_delta is not None:
        l0 = max(1.0, abs(initial_objective))
        assert_within(delta, ref_delta, 1e-12 * (l0 + np.abs(ref_delta)))
    if ref_grad is not None:
        floor = 2.0 / (cfg.h * cfg.h) * cfg.profile.alpha * ref_final.shape[0] * atol
        assert_within(grad, ref_grad, 1e-12 * ref_grad + floor)


def assert_same_starting_objective(trace, ref):
    """Both traces hold a starting objective or neither; the kernel's pair sum is numpy's within 1e-12 L0."""
    assert (trace.initial_objective is None) == (ref.initial_objective is None)
    if ref.initial_objective is not None:
        assert abs(trace.initial_objective - ref.initial_objective) <= 1e-12 * max(1.0, abs(ref.initial_objective))


def assert_same_run(points, cfg, monkeypatch):
    """The compiled SMS path takes the numpy path's steps, to rounding.

    The two paths sum in different orders (BLAS and pairwise sums against
    index order), so values agree to a floor set by the state and the
    objective, not to a flat relative error, which a value near zero
    cannot meet.  With s = max |final state| and L0 = max(1, |initial
    objective|): positions, shifts and snapshots within 1e-12 s;
    increments within 1e-12 (L0 + |increment|); gradient norms within
    1e-12 grad + (2 / h^2) alpha n 1e-12 s, the shift floor carried
    through grad = (2 / h^2) W shift with W <= alpha n; starting
    objectives (the kernel's pair sum against numpy's) within 1e-12 L0,
    and objectives within 1e-11 L0.  Long alpha >= 2 runs on other seeds can exceed these floors
    mid-run, where the collapse amplifies rounding (README, "Compiled SMS
    loop"); the untraced kernel does the same, and the cases here do not.
    """
    final, trace = sms_run(points, cfg)
    with monkeypatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        ref_final, ref = sms_run(points, cfg)
    np.testing.assert_array_equal(trace.moved_index, ref.moved_index)
    np.testing.assert_array_equal(trace.update_count, ref.update_count)
    assert (trace.total_updates, trace.stop_reason) == (ref.total_updates, ref.stop_reason)
    assert [k for k, _ in trace.snapshots] == [k for k, _ in ref.snapshots]
    assert_same_starting_objective(trace, ref)
    for column in ("objective", "objective_delta", "grad_norm"):
        assert (getattr(trace, column) is None) == (getattr(ref, column) is None), column
    assert_within_floors((final, trace.shift, trace.objective_delta, trace.grad_norm),
                         (ref_final, ref.shift, ref.objective_delta, ref.grad_norm), ref.initial_objective, cfg)
    atol = 1e-12 * np.abs(ref_final).max()
    for (_, snap), (_, ref_snap) in zip(trace.snapshots, ref.snapshots):
        np.testing.assert_allclose(snap, ref_snap, rtol=0, atol=atol)
    if ref.objective is not None:
        assert_within(trace.objective, ref.objective, 1e-11 * max(1.0, abs(ref.initial_objective)))
    policy = MergePolicy(1.0 / 3.0)
    np.testing.assert_array_equal(
        extract_clusters(final, cfg.h, policy).assignment,
        extract_clusters(ref_final, cfg.h, policy).assignment,
    )
    return trace


# MS and BMS cases on the default runner (the kernel when it loads) and on
# the numpy fallback; the default case keeps the plain id
RUNNER_CASES = [("ms", "default"), ("bms", "default"), ("ms", "numpy"), ("bms", "numpy")]
RUNNER_IDS = ["ms", "bms", "ms-numpy", "bms-numpy"]


def use_runner(runner, monkeypatch):
    if runner == "numpy":
        monkeypatch.setattr(_native, "load", lambda: None)


@pytest.fixture
def needs_kernel():
    if _native.load() is None:
        pytest.skip("the kernel could not be built here (no gcc?)")


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledSms:
    """The C kernel of untraced SMS against the numpy path, its reference."""

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("name", ["set1", "set2"])
    def test_presets_match_numpy_path(self, name, alpha, monkeypatch):
        data = generate(preset(name, seed=0))
        trace = assert_same_run(data.points, AlgoConfig(profile=Profile(alpha), seed=1000003), monkeypatch)
        assert trace.stop_reason == "converged"

    def test_generic_dimension(self, monkeypatch):
        data = generate(parse_preset("dim:5", seed=0))
        assert assert_same_run(data.points, AlgoConfig(seed=7), monkeypatch).stop_reason == "converged"

    def test_snapshots_split_blocks(self, monkeypatch):
        data = generate(preset("set2", seed=1))
        trace = assert_same_run(data.points, AlgoConfig(seed=4, snapshot_every=37), monkeypatch)
        ks = [k for k, _ in trace.snapshots]
        assert ks[:-1] == list(range(0, trace.total_updates, 37))

    def test_budget_ends_mid_block(self, monkeypatch):
        data = generate(preset("set1", seed=0))
        trace = assert_same_run(data.points, AlgoConfig(seed=2, max_updates=5000), monkeypatch)
        assert (trace.stop_reason, trace.total_updates) == ("max_updates", 5000)

    @pytest.mark.parametrize("layout", ["small", "far_apart"])
    def test_inputs_the_grid_leaves_to_the_plain_loop(self, layout, monkeypatch):
        # the d=2 kernel sums over a grid of cells, at every profile, only
        # for n >= 128 and a spread of not too many cells
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=0.5, size=(100 if layout == "small" else 200, 2))
        if layout == "far_apart":
            pts[::2] += 1000.0
        assert assert_same_run(pts, AlgoConfig(seed=1), monkeypatch).stop_reason == "converged"

    @pytest.mark.parametrize("missing", ["_COMPILER", "_SOURCE", "_FORMAT_COMPILER", "_FORMAT_SOURCE"])
    def test_failed_build_falls_back(self, missing, monkeypatch, tmp_path, caplog):
        # the kernel (gcc) and the formatter (g++) are built and fall back on their own
        formatter = missing.startswith("_FORMAT")
        loader = _native.load_format if formatter else _native.load
        compiled_format = _native.load_format()
        caplog.clear()
        kernel_steps = []
        kernel_run = _native.SmsBlockKernel.run

        def counted(self, idx):
            m, converged = kernel_run(self, idx)
            kernel_steps.append(m)
            return m, converged

        monkeypatch.setattr(_native.SmsBlockKernel, "run", counted)
        monkeypatch.setattr(_native, missing, tmp_path / "missing")
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [tmp_path / "cache"])
        loader.cache_clear()
        try:
            assert loader() is None
            data = generate(preset("set2", seed=3))
            _, trace = sms_run(data.points, AlgoConfig(seed=5, trace_objective=True))
            for algorithm in ("ms", "bms"):
                run(data.points, AlgoConfig(algorithm=algorithm))
            write_trace_jsonl(tmp_path / "fallback.jsonl", trace)
        finally:
            loader.cache_clear()
        assert trace.stop_reason == "converged"
        assert not any((tmp_path / "cache").glob("*"))  # no half-written library
        # the fallback is reported once, with its reason
        records = [r for r in caplog.records if r.name == "stochshift"]
        assert [r.levelname for r in records] == ["WARNING"]
        what = "compiled formatter" if formatter else "compiled kernel"
        assert f"{what} unavailable" in records[0].message
        assert str(tmp_path / "missing") in records[0].message
        # the other library still runs: SMS in the kernel when only the formatter is missing
        assert sum(kernel_steps) == (trace.total_updates if formatter else 0)
        if formatter and compiled_format is not None:
            monkeypatch.setattr(_native, "load_format", lambda: compiled_format)
            write_trace_jsonl(tmp_path / "compiled.jsonl", trace)
            assert (tmp_path / "fallback.jsonl").read_bytes() == (tmp_path / "compiled.jsonl").read_bytes()

    def test_library_names_keyed_by_source_and_flags(self, tmp_path):
        # the kernel's name is the one it has always had, so a cached kernel is reused
        key = hashlib.sha256(_native._SOURCE.read_bytes() + "\0".join(_native._FLAGS).encode()).hexdigest()[:16]
        assert _native.library_path(tmp_path, _native._SOURCE, _native._FLAGS) == tmp_path / f"kernel-{key}.so"
        formatter = _native.library_path(tmp_path, _native._FORMAT_SOURCE, _native._FORMAT_FLAGS)
        assert formatter.name.startswith("format-") and formatter.suffix == ".so"
        assert _native.library_path(tmp_path, _native._FORMAT_SOURCE, _native._FORMAT_FLAGS[1:]) != formatter
        edited = tmp_path / "_format.cpp"
        edited.write_bytes(_native._FORMAT_SOURCE.read_bytes() + b"\n")
        assert _native.library_path(tmp_path, edited, _native._FORMAT_FLAGS) != formatter

    def test_cache_of_another_user_is_refused(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [tmp_path])
        monkeypatch.setattr(_native.os, "getuid", lambda: tmp_path.stat().st_uid + 1)
        _native.load.cache_clear()
        try:
            assert _native.load() is None
        finally:
            _native.load.cache_clear()
        assert list(tmp_path.iterdir()) == []
        assert "is owned by another user" in caplog.text

    def test_second_build_compiles_nothing(self, tmp_path):
        path = _native.build(tmp_path, _native._SOURCE, _native._COMPILER, _native._FLAGS)
        assert path == _native.library_path(tmp_path, _native._SOURCE, _native._FLAGS)
        assert _native.build(tmp_path, _native._SOURCE, str(tmp_path / "no-such-gcc"), _native._FLAGS) == path
        assert list(tmp_path.iterdir()) == [path]
        assert _native._open(path, _native._PROTOTYPES["kernel"]) is not None

    def test_build_keeps_the_newest_libraries_of_its_source(self, tmp_path):
        # six flag sets name six libraries of one source; each compile
        # deletes that source's builds older than the newest four, and
        # leaves another source's library and an in-flight compile alone
        source = tmp_path / "src" / "_kernel.c"
        source.parent.mkdir()
        source.write_text("int variant(void) { return VARIANT; }\n")
        cache = tmp_path / "cache"
        cache.mkdir()
        others = [cache / "format-0123456789abcdef.so", cache / "kernel-0123456789abcdef.so.a1b2c3.tmp"]
        for other in others:
            other.write_bytes(b"")
        built = []
        for k in range(6):
            built.append(_native.build(cache, source, _native._COMPILER, ("-fPIC", "-shared", f"-DVARIANT={k}")))
            assert sorted(cache.glob("kernel-*.so")) == sorted(built[-_native._KEEP_BUILDS:])
        assert len(set(built)) == 6 and all(other.exists() for other in others)
        rebuilt = _native.build(cache, source, str(tmp_path / "no-such-gcc"), ("-fPIC", "-shared", "-DVARIANT=5"))
        assert rebuilt == built[-1]


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledTracedSms:
    """The C kernel of traced SMS against the numpy path, its reference."""

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("name", ["set1", "set2"])
    def test_presets_match_numpy_path(self, name, alpha, monkeypatch):
        data = generate(preset(name, seed=0))
        cfg = AlgoConfig(profile=Profile(alpha), seed=1000003, **TRACES["traced"])
        assert assert_same_run(data.points, cfg, monkeypatch).stop_reason == "converged"

    def test_generic_dimension(self, monkeypatch):
        data = generate(parse_preset("dim:5", seed=0))
        cfg = AlgoConfig(seed=7, **TRACES["traced"])
        assert assert_same_run(data.points, cfg, monkeypatch).stop_reason == "converged"

    @pytest.mark.parametrize("trace", ["objective", "gradient"])
    def test_one_column_with_snapshots(self, trace, monkeypatch):
        data = generate(preset("set2", seed=1))
        cfg = AlgoConfig(profile=P2, seed=4, snapshot_every=37, **TRACES[trace])
        run = assert_same_run(data.points, cfg, monkeypatch)
        assert [k for k, _ in run.snapshots][:-1] == list(range(0, run.total_updates, 37))

    def test_budget_ends_mid_block(self, monkeypatch):
        data = generate(preset("set1", seed=0))
        cfg = AlgoConfig(seed=2, max_updates=5000, **TRACES["traced"])
        trace = assert_same_run(data.points, cfg, monkeypatch)
        assert (trace.stop_reason, trace.total_updates) == ("max_updates", 5000)

    @pytest.mark.parametrize("name, alpha", [(name, alpha) for name in ("set1", "dim:5") for alpha in (1, 2, 3)])
    def test_same_bits_as_untraced_plain_loop(self, name, alpha):
        # tracing never changes a run: a traced step only adds work after
        # its move, on the grid (set1) as in the plain loop (dim:5), so
        # traced and untraced runs are bit-identical at every alpha
        data = generate(parse_preset(name, seed=0))
        cfg = AlgoConfig(profile=Profile(alpha), seed=1000004, snapshot_every=997)
        final, trace = sms_run(data.points, cfg)
        traced_final, traced = sms_run(data.points, replace(cfg, **TRACES["traced"]))
        np.testing.assert_array_equal(traced_final, final)
        np.testing.assert_array_equal(traced.moved_index, trace.moved_index)
        np.testing.assert_array_equal(traced.shift, trace.shift)
        assert [k for k, _ in traced.snapshots] == [k for k, _ in trace.snapshots]
        for (_, snap), (_, ref_snap) in zip(traced.snapshots, trace.snapshots):
            np.testing.assert_array_equal(snap, ref_snap)

    def test_runs_in_the_kernel(self, monkeypatch):
        steps = []
        kernel_run = _native.SmsBlockKernel.run

        def counted(self, idx):
            m, converged = kernel_run(self, idx)
            steps.append(m)
            return m, converged

        monkeypatch.setattr(_native.SmsBlockKernel, "run", counted)
        data = generate(preset("set2", seed=0))
        _, trace = sms_run(data.points, AlgoConfig(profile=P2, seed=3, **TRACES["traced"]))
        assert sum(steps) == trace.total_updates > 0


def assert_same_batch_run(points, cfg, monkeypatch):
    """The compiled batch map takes the numpy path's MS iterations or BMS sweeps, to rounding.

    The rule, with s the largest absolute coordinate of the final state:
    * identical: update counts, moved indices, stop reasons, snapshot
      update counts, ``unconverged`` and partitions;
    * final positions within 1e-12 s;
    * mid-run values (shifts and snapshots) within 1e-12 s for alpha = 1
      and within 1e-10 s for alpha >= 2, whose weights vary with the
      distance, so a collapse amplifies the rounding of the two summation
      orders (BLAS against cells or index order) before it closes again.
      Over 192 MS and BMS parity runs (set1-set4, imbalance:0.5,
      imbalance:2 and dim:5, five data seeds, two for set3, alpha 1-3,
      one BLAS thread) the largest mid-run gaps were 2.0e-13 s at
      alpha = 1 (set3, BMS) and 1.3e-11 s at alpha >= 2 (dim:5,
      alpha = 3, BMS; MS, on the sample grid in 2-D, reached 1.3e-12 s
      on set3 at alpha = 3), and the largest final gap 1.7e-13 s (set3,
      alpha = 1, BMS);
    * traced BMS objectives under the mid-run factor times L, the largest
      objective of the run, and the starting objective (the kernel's pair
      sum against numpy's) within 1e-12 of max(1, itself).
    """
    final, trace = run(points, cfg)
    with monkeypatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        ref_final, ref = run(points, cfg)
    np.testing.assert_array_equal(trace.update_count, ref.update_count)
    np.testing.assert_array_equal(trace.moved_index, ref.moved_index)
    assert (trace.total_updates, trace.stop_reason) == (ref.total_updates, ref.stop_reason)
    np.testing.assert_array_equal(trace.unconverged, ref.unconverged)
    assert [k for k, _ in trace.snapshots] == [k for k, _ in ref.snapshots]
    scale = np.abs(ref_final).max()
    np.testing.assert_allclose(final, ref_final, rtol=0, atol=1e-12 * scale)
    factor = 1e-12 if cfg.profile.alpha == 1 else 1e-10
    np.testing.assert_allclose(trace.shift, ref.shift, rtol=0, atol=factor * scale)
    for (_, snap), (_, ref_snap) in zip(trace.snapshots, ref.snapshots):
        np.testing.assert_allclose(snap, ref_snap, rtol=0, atol=factor * scale)
    assert_same_starting_objective(trace, ref)
    assert (trace.objective is None) == (ref.objective is None)
    if ref.objective is not None:
        np.testing.assert_allclose(trace.objective, ref.objective, rtol=0, atol=factor * np.abs(ref.objective).max())
    policy = MergePolicy(1.0 / 3.0)
    np.testing.assert_array_equal(
        extract_clusters(final, cfg.h, policy).assignment,
        extract_clusters(ref_final, cfg.h, policy).assignment,
    )
    return trace


PLAIN_LOOP_LAYOUTS = ["small", "far_apart", "offset", "tiny_h"]


def plain_loop_input(layout):
    """A sample and bandwidth that the kernel's grid leaves to the plain loop.

    The d=2 map queries a grid of cells, at every profile, only for a
    sample of n >= 128 (small), a spread of not too many cells
    (far_apart, tiny_h) and rounding margins that stay within a query's
    reach (offset).  At a +1e7 offset the identity rounds squared
    distances by about eps |x|^2 = 0.02 h^2, so both paths decide pairs
    near the support boundary by rounding: the offset sample has two
    groups with no pair near it.
    """
    rng = np.random.default_rng(3)
    if layout == "tiny_h":
        return generate(preset("set2", seed=0)).points, 1e-8
    if layout == "offset":
        pts = rng.normal(scale=0.05, size=(200, 2)) + 1e7
        pts[::2] += 10.0
        return pts, 1.0
    pts = rng.normal(scale=0.5, size=(100 if layout == "small" else 200, 2))
    if layout == "far_apart":
        pts[::2] += 1000.0
    return pts, 1.0


BATCH_PRESETS = ["set1", "set2", "set4", "imbalance:0.5", "imbalance:2", "dim:5"]


def count_kernel_rows(algorithm, monkeypatch):
    """Run set2 and return (rows mapped by the kernel, trace): MS's probe rows, BMS's rows times sweeps."""
    rows = []
    kernel_map, kernel_sweeps = _native.shift_rows, _native.bms_sweeps

    def counted_map(lib, queries, sample, h, alpha):
        rows.append(queries.shape[0])
        return kernel_map(lib, queries, sample, h, alpha)

    def counted_sweeps(lib, pts, *args):
        shifts = kernel_sweeps(lib, pts, *args)
        rows.append(pts.shape[0] * shifts.size)
        return shifts

    monkeypatch.setattr(_native, "shift_rows", counted_map)
    monkeypatch.setattr(_native, "bms_sweeps", counted_sweeps)
    data = generate(preset("set2", seed=0))
    _, trace = run(data.points, AlgoConfig(algorithm=algorithm))
    return sum(rows), trace


@pytest.mark.usefixtures("needs_kernel")
class TestCompiledBatchMap:
    """The C batch map behind MS and the C sweeps behind BMS against the numpy map, their reference."""

    @pytest.mark.parametrize("name", BATCH_PRESETS)
    def test_presets_match_numpy_path(self, name, monkeypatch):
        data = generate(parse_preset(name, seed=0))
        trace = assert_same_batch_run(data.points, AlgoConfig(algorithm="ms"), monkeypatch)
        assert trace.stop_reason == "converged"

    # every preset with data seed 0, and five data seeds on set1 and imbalance:2
    @pytest.mark.parametrize("name, seed", [(name, 0) for name in BATCH_PRESETS]
                             + [(name, seed) for name in ("set1", "imbalance:2") for seed in (1, 2, 3, 4)])
    def test_bms_presets_match_numpy_path(self, name, seed, monkeypatch):
        data = generate(parse_preset(name, seed=seed))
        trace = assert_same_batch_run(data.points, AlgoConfig(algorithm="bms"), monkeypatch)
        assert trace.stop_reason == "converged"

    def test_budget_runs_out_on_the_largest_preset(self, monkeypatch):
        data = generate(preset("set3", seed=0))
        cfg = AlgoConfig(algorithm="ms", max_updates=4 * data.n)
        trace = assert_same_batch_run(data.points, cfg, monkeypatch)
        assert trace.stop_reason == "max_updates" and trace.unconverged.size > 0

    @pytest.mark.parametrize("sweeps", [1, 3])
    def test_bms_budget_runs_out(self, sweeps, monkeypatch):
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(algorithm="bms", max_updates=sweeps * data.n)
        trace = assert_same_batch_run(data.points, cfg, monkeypatch)
        assert (trace.n_events, trace.stop_reason) == (sweeps, "max_updates")

    @pytest.mark.parametrize("record", [{}, {"snapshot_every": 1}, {"trace_objective": True}],
                             ids=["untraced", "snapshots", "traced"])
    def test_bms_kernel_calls(self, record, monkeypatch):
        # an untraced run hands the kernel all its sweeps in one call; a
        # run that records the state after every sweep makes one call each
        sweeps = []
        kernel_sweeps = _native.bms_sweeps

        def counted(lib, pts, *args):
            shifts = kernel_sweeps(lib, pts, *args)
            sweeps.append(shifts.size)
            return shifts

        monkeypatch.setattr(_native, "bms_sweeps", counted)
        data = generate(preset("set2", seed=0))
        _, trace = bms_run(data.points, AlgoConfig(algorithm="bms", **record))
        assert sum(sweeps) == trace.n_events > 1
        assert len(sweeps) == (trace.n_events if record else 1)

    @pytest.mark.parametrize("state", [np.zeros((4, 2), dtype=np.float32), np.zeros((2, 4)).T,
                                       np.zeros(4), np.zeros((4, 2))[::2]],
                             ids=["float32", "fortran", "one_d", "strided"])
    def test_bms_sweeps_rejects_a_state_it_cannot_take(self, state):
        with pytest.raises(ValueError):
            _native.bms_sweeps(_native.load(), state, 1.0, 1, 1e-6, 1)

    # MS on the sample grid: set2 (n = 450) and set4, and imbalance:2 and set1 (n = 750-1000)
    @pytest.mark.parametrize("name, alpha", [("set2", 2), ("set2", 3), ("set4", 2), ("imbalance:2", 2),
                                             ("set1", 3)])
    def test_smooth_profiles_match_numpy_path(self, name, alpha, monkeypatch):
        data = generate(parse_preset(name, seed=0))
        cfg = AlgoConfig(algorithm="ms", profile=Profile(alpha))
        assert assert_same_batch_run(data.points, cfg, monkeypatch).stop_reason == "converged"

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_bms_smooth_profiles_match_numpy_path(self, alpha, monkeypatch):
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(algorithm="bms", profile=Profile(alpha))
        assert assert_same_batch_run(data.points, cfg, monkeypatch).stop_reason == "converged"

    def test_snapshots(self, monkeypatch):
        data = generate(preset("set2", seed=2))
        trace = assert_same_batch_run(data.points, AlgoConfig(algorithm="ms", snapshot_every=1), monkeypatch)
        assert len(trace.snapshots) == trace.n_events + 1

    def test_bms_snapshots(self, monkeypatch):
        data = generate(preset("set2", seed=2))
        trace = assert_same_batch_run(data.points, AlgoConfig(algorithm="bms", snapshot_every=1), monkeypatch)
        assert len(trace.snapshots) == trace.n_events + 1

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_bms_traced_objective(self, alpha, monkeypatch):
        data = generate(preset("set1", seed=1))
        cfg = AlgoConfig(algorithm="bms", profile=Profile(alpha), trace_objective=True)
        trace = assert_same_batch_run(data.points, cfg, monkeypatch)
        assert trace.objective.shape == (trace.n_events,)

    @pytest.mark.parametrize("layout", PLAIN_LOOP_LAYOUTS)
    def test_inputs_the_grid_leaves_to_the_plain_loop(self, layout, monkeypatch):
        pts, h = plain_loop_input(layout)
        assert assert_same_batch_run(pts, AlgoConfig(algorithm="ms", h=h), monkeypatch).stop_reason == "converged"

    @pytest.mark.parametrize("layout", PLAIN_LOOP_LAYOUTS)
    def test_bms_layouts_match_numpy_path(self, layout, monkeypatch):
        pts, h = plain_loop_input(layout)
        assert assert_same_batch_run(pts, AlgoConfig(algorithm="bms", h=h), monkeypatch).stop_reason == "converged"

    def test_runs_in_the_kernel(self, monkeypatch):
        rows, trace = count_kernel_rows("ms", monkeypatch)
        assert rows == trace.total_updates > 0

    def test_bms_runs_in_the_kernel(self, monkeypatch):
        rows, trace = count_kernel_rows("bms", monkeypatch)
        assert rows == trace.total_updates > 0


def plain_dot(a, b):
    """The dot product of two coordinate lists, summed from 0.0 in coordinate order."""
    s = 0.0
    for u, v in zip(a, b):
        s += u * v
    return s


def plain_weight(sq, h2, inv_h2, alpha):
    """The kernel's weight of a squared distance: 1[sq < h^2], or alpha (1 - sq / h^2)_+^(alpha - 1)."""
    if alpha == 1:
        return 1.0 if sq < h2 else 0.0
    b = 1.0 - (sq if sq > 0.0 else 0.0) * inv_h2
    b = b if b > 0.0 else 0.0
    p = b
    for _ in range(2, alpha):
        p *= b
    return float(alpha) * p


def index_order_sweep(pts, h, alpha):
    """One BMS sweep as a plain loop in Python floats; returns ``(new, largest shift)``.

    Row r sums, for j = 0..n-1 in order, the weight of the squared
    distance ((x_j . x_r) * -2 + |x_j|^2) + |x_r|^2 (each dot product and
    norm summed from 0.0 in coordinate order) and the weighted point,
    skipping zero weights; it moves to the sum over the total, or stays
    when the total is 0.  Every operation is one IEEE double operation,
    so this pins the bits of the kernel's sweep without BLAS.
    """
    x = pts.tolist()
    n, d, h2 = len(x), len(x[0]), h * h
    inv_h2 = 1.0 / h2

    sqn = [plain_dot(p, p) for p in x]
    new, top = [], 0.0
    for r in range(n):
        acc, total = [0.0] * d, 0.0
        for j in range(n):
            w = plain_weight((plain_dot(x[j], x[r]) * -2.0 + sqn[j]) + sqn[r], h2, inv_h2, alpha)
            if w != 0.0:
                acc = [a + w * p for a, p in zip(acc, x[j])]
                total += w
        row = [a / total for a in acc] if total > 0.0 else list(x[r])
        shift2 = 0.0
        for v, old in zip(row, x[r]):
            shift2 += (v - old) * (v - old)
        top = max(top, math.sqrt(shift2))
        new.append(row)
    return np.array(new), top


def index_order_state(layout, d):
    """About 40 points in d dimensions: a set2 (d <= 2) or dim:5 subsample, altered by ``layout``.

    ``negative_zero`` sets a quarter of the coordinates to -0.0 and
    ``isolated`` moves one point far from the rest, so its pairs all
    weigh 0.
    """
    source = generate(preset("set2", seed=0) if d <= 2 else parse_preset("dim:5", seed=0)).points
    pts = np.ascontiguousarray(source[::3][:41, :d])
    if layout == "negative_zero":
        pts[::4, 0] = -0.0
        pts[1::4, -1] = -0.0
    elif layout == "isolated":
        pts[7] += 100.0
    return pts


@pytest.mark.usefixtures("needs_kernel")
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("layout", ["subsample", "negative_zero", "isolated"])
def test_bms_kernel_sweep_is_the_index_order_sweep_to_the_bit(layout, d, alpha):
    # the kernel evaluates each unordered pair once, yet every row must
    # sum the plain loop's terms in index order: the same bits, signed zeros included
    pts = index_order_state(layout, d)
    ref, ref_top = index_order_sweep(pts, 1.5, alpha)
    shifts = _native.bms_sweeps(_native.load(), pts, 1.5, alpha, 0.0, 1)
    np.testing.assert_array_equal(pts.view(np.int64), ref.view(np.int64))
    assert np.array([ref_top]).view(np.int64) == shifts.view(np.int64)


def index_order_traced_step(x, sqn, i, h, alpha):
    """One traced SMS step of point i as the kernel's plain loop, in Python floats; returns (shift, delta, grad).

    Moves x[i] (x a list of d-lists, sqn their squared norms, both
    updated in place) onto the weighted mean over j = 0..n-1 in order,
    with the weights of ``plain_weight``, and sets sqn[i] to the new
    position's squared norm.  The gradient norm is (2 / h^2) W |dx| and
    the increment sums, for j != i in order, the kernel's
    cancellation-free term (b_new - b_old) sum_p b_new^p b_old^(alpha-1-p),
    with the base difference ((x_j . dx) * 2 - dx . (x_old + new)) / h^2
    where both bases are positive.  Every operation is one IEEE double
    operation, so this pins the bits of every traced plain-loop step.
    """
    n, d, h2 = len(x), len(x[0]), h * h
    inv_h2 = 1.0 / h2

    old, sqx = list(x[i]), sqn[i]
    sq = [(plain_dot(x[j], old) * -2.0 + sqn[j]) + sqx for j in range(n)]
    acc, total = [0.0] * d, 0.0
    for j in range(n):
        w = plain_weight(sq[j], h2, inv_h2, alpha)
        if w != 0.0:
            acc = [a + w * p for a, p in zip(acc, x[j])]
            total += w
    new = [a / total for a in acc]
    dx = [v - o for v, o in zip(new, old)]
    shift = math.sqrt(plain_dot(dx, dx))
    x[i], sqn[i] = new, plain_dot(new, new)
    cross = 0.0
    for k in range(d):
        cross += dx[k] * (old[k] + new[k])
    delta = 0.0
    for j in range(n):
        if j == i:
            continue
        b_old = 1.0 - sq[j] * inv_h2
        b_new = 1.0 - ((plain_dot(x[j], new) * -2.0 + sqn[j]) + sqn[i]) * inv_h2
        b_old = b_old if b_old > 0.0 else 0.0
        b_new = b_new if b_new > 0.0 else 0.0
        dbase = (plain_dot(x[j], dx) * 2.0 - cross) * inv_h2 if b_old > 0.0 and b_new > 0.0 else b_new - b_old
        poly, b_old_p = 1.0, 1.0
        for _ in range(1, alpha):
            b_old_p *= b_old
            poly = poly * b_new + b_old_p
        delta += dbase * poly
    return shift, delta, (2.0 * inv_h2 * total) * shift


def assert_kernel_block_is_index_order(pts, idx, h, alpha):
    """One traced kernel block of the steps idx on pts against ``index_order_traced_step``, bit for bit."""
    x = pts.tolist()
    sqn = np.einsum("ij,ij->i", pts, pts).tolist()  # the kernel's starting norms
    want = [index_order_traced_step(x, sqn, i, h, alpha) for i in idx]
    kernel = _native.SmsBlockKernel(_native.load(), pts, h, alpha, 0.0, len(idx), True, True)
    assert kernel.run(np.array(idx, dtype=np.int64)) == (len(idx), False)
    shift, delta, grad = (np.array(column) for column in zip(*want))
    np.testing.assert_array_equal(pts.view(np.int64), np.array(x).view(np.int64))
    np.testing.assert_array_equal(kernel.shifts.view(np.int64), shift.view(np.int64))
    np.testing.assert_array_equal(kernel.deltas.view(np.int64), delta.view(np.int64))
    np.testing.assert_array_equal(kernel.grads.view(np.int64), grad.view(np.int64))


def exact_step(x, sqn, i, h, alpha):
    """One traced SMS step of point i in exact rationals; returns (new position, shift, increment, gradient norm).

    x (a list of d-lists) and sqn (their squared norms as the kernel
    caches them) are left unchanged.  Which points count is decided in
    Python floats as ``index_order_traced_step`` decides it: a point
    weighs when ``plain_weight`` of its identity distance is nonzero, and
    a base b = (1 - t)_+ of the increment counts when the identity's
    1 - sq / h^2 is positive.  A counted base is then exact,
    1 - |x_j - at|^2 / h^2 clamped at 0, so the weights, the mean, the
    total W, the increment sum_{j != i} b_new^alpha - b_old^alpha and the
    gradient norm (2 / h^2) W |dx| are rounded only once, to floats.
    """
    h2 = h * h
    inv_h2, exact_h2 = 1.0 / h2, Fraction(h2)

    def identity(j, at, sq_at):
        return (plain_dot(x[j], at) * -2.0 + sqn[j]) + sq_at

    def base(j, at):
        return max(1 - sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(x[j], at)) / exact_h2, Fraction(0))

    old = x[i]
    acc, total = [Fraction(0)] * len(old), Fraction(0)
    for j in range(len(x)):
        if plain_weight(identity(j, old, sqn[i]), h2, inv_h2, alpha) != 0.0:
            w = 1 if alpha == 1 else alpha * base(j, old) ** (alpha - 1)
            acc = [a + w * Fraction(p) for a, p in zip(acc, x[j])]
            total += w
    new = [float(a / total) for a in acc]
    shift = math.sqrt(float(sum((Fraction(v) - Fraction(o)) ** 2 for v, o in zip(new, old))))
    sq_new = plain_dot(new, new)
    delta = Fraction(0)
    for j in range(len(x)):
        if j != i:
            b_old = base(j, old) if 1.0 - identity(j, old, sqn[i]) * inv_h2 > 0.0 else 0
            b_new = base(j, new) if 1.0 - identity(j, new, sq_new) * inv_h2 > 0.0 else 0
            delta += b_new**alpha - b_old**alpha
    return new, shift, float(delta), 2.0 * inv_h2 * float(total) * shift


def assert_steps_are_exact(pts, idx, h, alpha, traced=True):
    """Each step of one kernel block of idx on pts against ``exact_step`` from the kernel's own state.

    The state before step s is the one a block of idx[:s] leaves, from
    the same start (so the same grid, its sums carried through those
    steps), and step s is the last of a block of idx[:s + 1].  With s the
    largest absolute coordinate: positions and shifts within 1e-14 s;
    increments within 1e-13 (1 + |increment|), inside assert_same_run's
    1e-12 (L0 + |increment|) with L0 >= 1; gradient norms within
    1e-12 grad + (2 / h^2) alpha n 1e-14 s, the shift bound carried through
    grad = (2 / h^2) W shift.  The largest errors over the cases here were
    6.2e-16 s, 1.3e-14 and 8e-17 of the gradient bound.  Returns the cells
    (side h / 4, from the block's lower-left corner) of each moved point
    before and after its step.
    """
    def block(steps):
        state = pts.copy()
        kernel = _native.SmsBlockKernel(_native.load(), state, h, alpha, 0.0, len(idx), traced, traced)
        assert kernel.run(np.array(steps, dtype=np.int64)) == (len(steps), False)
        return state, kernel

    side, corner = math.sqrt(h * h) / 4.0, pts.min(axis=0)
    scale = np.abs(pts).max()
    moves = []
    for s, i in enumerate(idx):
        before, _ = block(idx[:s])
        after, kernel = block(idx[:s + 1])
        x = before.tolist()
        sqn = np.einsum("ij,ij->i", pts, pts).tolist()  # the kernel's starting norms
        for j in set(idx[:s]):
            sqn[j] = plain_dot(x[j], x[j])  # and those of the points it moved
        new, shift, delta, grad = exact_step(x, sqn, i, h, alpha)
        assert_within(after[i], np.array(new), 1e-14 * scale)
        assert_within(kernel.shifts[s:s + 1], np.array([shift]), 1e-14 * scale)
        if traced:
            assert_within(kernel.deltas[s:s + 1], np.array([delta]), 1e-13 * (1.0 + abs(delta)))
            floor = 2.0 / (h * h) * alpha * pts.shape[0] * 1e-14 * scale
            assert_within(kernel.grads[s:s + 1], np.array([grad]), 1e-12 * grad + floor)
        moves.append(tuple(np.floor((np.array([x[i], new]) - corner) / side).astype(int).tolist()))
    return moves


@pytest.mark.usefixtures("needs_kernel")
@pytest.mark.parametrize("h", [1.0, 0.7])
@pytest.mark.parametrize("alpha, traced", [(1, True), (2, True), (3, True), (2, False)])
def test_gridded_steps_are_the_exact_steps(alpha, traced, h):
    # in 2-D with n >= 128 every step runs on the grid, part of it from
    # cell moments.  At h = 0.7 the tests sq < h^2 and 1 - sq / h^2 > 0
    # part just below the boundary
    below = math.nextafter(0.7 * 0.7, 0.0)
    assert below < 0.7 * 0.7 and not 1.0 - below * (1.0 / (0.7 * 0.7)) > 0.0
    data = generate(preset("set2", seed=0))
    pts, _ = sms_run(data.points, AlgoConfig(profile=Profile(alpha), h=h, seed=3, max_updates=300))
    assert pts.shape[0] >= 128
    idx = RandomIndexStream(11).draw_block(pts.shape[0], 40).tolist()
    # points on the h-sphere around the first step's point, so the
    # identity's rounding decides whether they weigh
    first = idx[0]
    others = [j for j in range(pts.shape[0]) if j not in idx][:4]
    for j, (u, v) in zip(others, [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)]):
        pts[j] = pts[first] + h * np.array([u, v])
    moves = assert_steps_are_exact(pts, idx, h, alpha, traced)
    assert any(before != after for before, after in moves), "no step changed cell"


@pytest.mark.usefixtures("needs_kernel")
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_collapsed_cluster_steps_are_exact(alpha):
    # a cluster collapsed into a few cells: its cells lie inside both balls
    # of its points' steps, so alpha <= 2 takes them whole from their moments
    g = np.random.default_rng(7)
    pts = np.concatenate([g.normal(0.3, 0.03, size=(170, 2)), g.uniform(-4.0, 4.0, size=(30, 2))])
    cells = np.floor((pts[:170] - pts.min(axis=0)) / 0.25)
    assert len(np.unique(cells, axis=0)) <= 4
    assert_steps_are_exact(pts, RandomIndexStream(3).draw_block(200, 40).tolist(), 1.0, alpha)


@pytest.mark.usefixtures("needs_kernel")
@pytest.mark.parametrize("alpha", [1, 2])
def test_traced_collapsed_run_passes_the_theory_checks(alpha):
    # set4 collapses into clusters holding most of the state, the run
    # verify makes on its first seed
    data = generate(preset("set4", seed=0))
    cfg = AlgoConfig(profile=Profile(alpha), seed=index_seed(0, 0), trace_objective=True, trace_gradient=True)
    trace = sms_run(data.points, cfg)[1]
    assert trace.stop_reason == "converged"
    for check in (check_monotone_ascent, check_partial_gradient_bound, check_gradient_vanishes):
        result = check(trace, cfg)
        assert result.status == "pass", result


@pytest.mark.usefixtures("needs_kernel")
@pytest.mark.parametrize("state, alpha, traced", [("set1", 2, True), ("set1", 2, False), ("crowded", 1, True),
                                                  ("crowded", 3, True), ("crowded", 2, False)])
def test_pruned_runs_are_the_plain_loop_runs(state, alpha, traced):
    # whole runs to convergence: the gridded step, which leaves out the
    # cells its near test rules out, against the all-points loop, under
    # assert_same_run's bounds.  One point 1e4 bandwidths off makes the grid
    # refuse the state (it would need about 1.6e9 cells), so the kernel
    # runs the plain loop there; that point is never drawn and adds +0.0
    if state == "set1":
        pts = generate(preset("set1", seed=0)).points
    else:
        # 3/4 of the points in one blob, which collapses into a few cells
        g = np.random.default_rng(5)
        pts = np.concatenate([g.normal(0.0, 0.4, size=(150, 2)), g.uniform(-6.0, 6.0, size=(50, 2))])
    cfg = AlgoConfig(profile=Profile(alpha), seed=1, trace_objective=traced, trace_gradient=traced)
    final, trace = sms_run(pts, cfg)
    assert trace.stop_reason == "converged"
    far = np.concatenate([pts, [[1e4, 1e4]]])
    m = trace.total_updates
    kernel = _native.SmsBlockKernel(_native.load(), far, 1.0, alpha, 0.0, m, traced, traced)
    assert kernel.run(trace.moved_index.astype(np.int64)) == (m, False)
    assert_within_floors((final, trace.shift, trace.objective_delta, trace.grad_norm),
                         (far[:-1], kernel.shifts, kernel.deltas, kernel.grads), trace.initial_objective, cfg)
    policy = MergePolicy(1.0 / 3.0)
    np.testing.assert_array_equal(extract_clusters(final, 1.0, policy).assignment,
                                  extract_clusters(far[:-1], 1.0, policy).assignment)


@pytest.mark.usefixtures("needs_kernel")
@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("layout", ["offset", "below_grid_min_n"])
def test_traced_steps_the_grid_refuses_are_the_plain_loop(layout, alpha):
    # far from the origin the grid's margins pass a query's reach, and
    # below GRID_MIN_N points it is not built: the plain loop runs, to its bits
    grid_min_n = int(re.search(r"#define GRID_MIN_N (\d+)", _native._SOURCE.read_text()).group(1))
    pts = np.ascontiguousarray(generate(preset("set1", seed=0)).points)
    if layout == "offset":
        pts += 1e7
    else:
        pts = pts[::5][:grid_min_n - 1].copy()
        assert pts.shape[0] == grid_min_n - 1
    idx = RandomIndexStream(5).draw_block(pts.shape[0], 12).tolist()
    assert_kernel_block_is_index_order(pts, idx, 1.0, alpha)


@pytest.mark.skipif(shutil.which(_native._COMPILER) is None, reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    # an unused helper or variable left in the kernel fails here
    cmd = [_native._COMPILER, *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "k.so"), str(_native._SOURCE), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=_native._COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr


def kernel_exports():
    """(return type, name, parameters) of each export, from its definition in the kernel's source."""
    return re.findall(r"^(int64_t|double|void)\s+(\w+)\s*\(([^)]*)\)", _native._SOURCE.read_text(), flags=re.M)


KERNEL_SANITIZER_FLAGS = ["-O1", "-g", "-ffp-contract=off", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]

# calls every export of the kernel on heap buffers of exactly the sizes
# the _native wrappers allocate: a block of indices as long as its shift
# buffer and its increment and gradient buffers when traced (NULL when
# not), sms_block's scratch of 2d + n doubles, bms_sweeps' n x d + 2n,
# shift_rows' m x d out and m totals (or NULL, as MS hands it), and
# top_k's n x k table and n (k + 1) doubles of scratch, on n x n score
# matrices; knn_block takes no scratch, and runs with d = 1, 4, 5 and 9,
# so with whole groups of four columns and with columns left over;
# pair_objective and band_slack read their state only, on states of one
# point, two points and d = 5 among others.  The
# test declares the exports from their definitions in the kernel's source
# (kernel_exports), so a call that no longer matches one fails to compile.
KERNEL_SANITIZER_DRIVER = r"""
#include <stdio.h>
#include <stdlib.h>

enum { BLOCK = 700 };
static uint64_t rng = 12345;

static double uniform(void)
{
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (double)(rng >> 11) / 9007199254740992.0;
}

static double *doubles(int64_t count) { return malloc((size_t)count * sizeof(double)); }
static int64_t *ints(int64_t count) { return malloc((size_t)count * sizeof(int64_t)); }

/* n points in d dimensions, in three groups of the given width gap apart */
static double *spread(int64_t n, int64_t d, double gap, double width)
{
    double *p = doubles(n * d);
    for (int64_t i = 0; i < n * d; i++)
        p[i] = (double)(i / d % 3) * gap + width * uniform();
    return p;
}

/* three groups a few bandwidths apart */
static double *points(int64_t n, int64_t d) { return spread(n, d, 4.0, 1.0); }

static double *norms(const double *p, int64_t n, int64_t d)
{
    double *sq = doubles(n);
    for (int64_t i = 0; i < n; i++) {
        sq[i] = 0.0;
        for (int64_t c = 0; c < d; c++)
            sq[i] += p[i * d + c] * p[i * d + c];
    }
    return sq;
}

static int64_t *draws(int64_t m, int64_t n)
{
    int64_t *idx = ints(m);
    for (int64_t s = 0; s < m; s++)
        idx[s] = (int64_t)(uniform() * (double)n);
    return idx;
}

/* two blocks of SMS steps on pts, so the stop-rule state carries over;
 * an untraced column gets no buffer (NULL), as the wrapper hands it */
static int sms_on(double *pts, int64_t n, int64_t d, int64_t alpha, int64_t trace_objective,
                  int64_t trace_gradient)
{
    double *sqn = norms(pts, n, d);
    int64_t *stamp = ints(n), *state = ints(3);
    double *shifts = doubles(BLOCK), *scratch = doubles(2 * d + n);
    double *deltas = trace_objective ? doubles(BLOCK) : NULL, *grads = trace_gradient ? doubles(BLOCK) : NULL;
    for (int64_t i = 0; i < n; i++)
        stamp[i] = -1;
    state[0] = state[1] = state[2] = 0;
    int bad = 0;
    for (int b = 0; b < 2 && !bad; b++) {
        int64_t *idx = draws(BLOCK, n);
        const int64_t steps = sms_block(pts, sqn, n, d, idx, BLOCK, 1.0, alpha, 1e-6, stamp, state, shifts,
                                        deltas, grads, scratch);
        bad = steps < 1 || steps > BLOCK;
        free(idx);
    }
    free(pts), free(sqn), free(stamp), free(state), free(shifts), free(deltas), free(grads), free(scratch);
    return bad;
}

static int sms(int64_t n, int64_t d, int64_t alpha, int64_t trace_objective, int64_t trace_gradient)
{
    return sms_on(points(n, d), n, d, alpha, trace_objective, trace_gradient);
}

static int knn(int64_t n, int64_t d, int64_t k)
{
    double *pts = points(n, d);
    int64_t *nb = ints(n * k), *idx = draws(BLOCK, n), *stamp = ints(n), *state = ints(3);
    double *shifts = doubles(BLOCK);
    for (int64_t i = 0; i < n; i++) {
        stamp[i] = -1;
        for (int64_t r = 0; r < k; r++)
            nb[i * k + r] = (i + 1 + r) % n;
    }
    state[0] = state[1] = state[2] = 0;
    const int64_t steps = knn_block(pts, n, d, nb, k, idx, BLOCK, 1e-6, stamp, state, shifts);
    free(pts), free(nb), free(idx), free(stamp), free(state), free(shifts);
    return steps < 1 || steps > BLOCK;
}

/* top_k on an n x n matrix of values drawn from levels levels, so ties
 * are common; every column must list k distinct others by descending
 * score */
static int topk(int64_t n, int64_t k, int64_t levels)
{
    double *s = doubles(n * n), *scratch = doubles(n * (k + 1));
    int64_t *out = ints(n * k);
    for (int64_t e = 0; e < n * n; e++)
        s[e] = (double)(int64_t)(uniform() * (double)levels);
    top_k(s, n, k, out, scratch);
    int bad = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t r = 0; r < k; r++) {
            const int64_t j = out[i * k + r];
            if (j < 0 || j >= n || j == i) {
                bad = 1;
                continue;
            }
            for (int64_t q = 0; q < r; q++)
                bad |= out[i * k + q] == j || s[out[i * k + q] * n + i] < s[j * n + i];
        }
    free(s), free(scratch), free(out);
    return bad;
}

static int map(int64_t m, int64_t n, int64_t d, int64_t alpha)
{
    double *q = points(m, d), *s = points(n, d), *out = doubles(m * d);
    double *sqq = norms(q, m, d), *sqs = norms(s, n, d);
    shift_rows(q, sqq, m, s, sqs, n, d, 1.0, alpha, out, NULL);
    free(q), free(s), free(out), free(sqq), free(sqs);
    return 0;
}

/* the state against itself with its weight totals, as core.full_gradient
 * maps it; every total holds at least the self weight */
static int self_map(int64_t n, int64_t d, int64_t alpha)
{
    double *p = points(n, d), *out = doubles(n * d), *totals = doubles(n), *sq = norms(p, n, d);
    shift_rows(p, sq, n, p, sq, n, d, 1.0, alpha, out, totals);
    int bad = 0;
    for (int64_t r = 0; r < n; r++)
        bad |= !(totals[r] > 0.0);
    free(p), free(out), free(totals), free(sq);
    return bad;
}

/* the objective's pair sum lies in [0, n (n - 1) / 2], and the band slack
 * is +inf exactly when there is no pair */
static int pairs(int64_t n, int64_t d, int64_t alpha)
{
    double *p = points(n, d), *sq = norms(p, n, d);
    const double sum = pair_objective(p, sq, n, d, 1.0, alpha), slack = band_slack(p, n, d, 0.3, 0.7);
    const int bad = !(sum >= 0.0 && sum <= (double)n * (double)(n - 1) / 2.0) || (n < 2) != (slack == 1.0 / 0.0);
    free(p), free(sq);
    return bad;
}

static int sweeps(int64_t n, int64_t d, int64_t alpha, int64_t max_sweeps)
{
    double *pts = points(n, d), *shifts = doubles(max_sweeps), *scratch = doubles(n * d + 2 * n);
    const int64_t done = bms_sweeps(pts, n, d, 1.0, alpha, 1e-6, max_sweeps, shifts, scratch);
    free(pts), free(shifts), free(scratch);
    return done < 1 || done > max_sweeps;
}

int main(void)
{
    /* the gridded step: d = 2 and n >= 128, every alpha, traced or not.
     * A width of 0.2 puts each group in one cell, and with no gap every
     * point in one cell, a collapsed state whose steps take the cell whole
     * from its moments; a gap of 0.3 and a width of 0.05 put the groups in
     * neighbouring cells within one ball, so the first step of each point
     * crosses cells */
    int bad = 0;
    for (int64_t alpha = 1; alpha <= 3; alpha++) {
        for (int64_t traced = 0; traced < 4; traced++) { /* plain, objective, gradient, both */
            bad |= sms(130, 2, alpha, traced & 1, traced >> 1) << 5;
            bad |= sms_on(spread(130, 2, 0.0, 0.2), 130, 2, alpha, traced & 1, traced >> 1) << 5;
        }
        bad |= sms_on(spread(128, 2, 4.0, 0.2), 128, 2, alpha, 1, 1) << 5;
        bad |= sms_on(spread(128, 2, 0.3, 0.05), 128, 2, alpha, 1, 1) << 5;
    }
    for (int64_t alpha = 1; alpha <= 3; alpha++)
        for (int64_t d = 1; d <= 5; d += d == 1 ? 1 : 3) /* d = 1, 2, 5 */
            for (int64_t traced = 0; traced < 4; traced++) /* plain, objective, gradient, both */
                bad |= sms(100, d, alpha, traced & 1, traced >> 1) << 1;
    bad |= knn(50, 3, 5) << 2;
    bad |= knn(40, 1, 39) << 2;
    bad |= knn(50, 4, 10) << 2; /* one whole group of four columns */
    bad |= knn(50, 5, 10) << 2; /* a group and one column left over */
    bad |= knn(30, 9, 1) << 2;
    bad |= topk(2, 1, 1000) << 7;
    bad |= topk(2, 1, 1) << 7; /* a tie */
    bad |= topk(40, 5, 3) << 7;
    bad |= topk(40, 39, 2) << 7; /* k = n - 1 */
    bad |= topk(30, 7, 4) << 7;
    bad |= topk(25, 24, 1) << 7; /* all equal */
    for (int64_t alpha = 1; alpha <= 3; alpha++)
        bad |= map(60, 300, 2, alpha) << 3; /* the grid, from moments at alpha = 2 */
    bad |= map(60, 100, 2, 1) << 3; /* the plain loop */
    bad |= map(60, 150, 5, 2) << 3;
    for (int64_t alpha = 1; alpha <= 3; alpha++) {
        bad |= self_map(300, 2, alpha) << 3; /* the grid */
        bad |= self_map(60, 5, alpha) << 3;  /* the plain loop */
        bad |= self_map(1, 2, alpha) << 3;
        bad |= self_map(2, 2, alpha) << 3;
        bad |= pairs(300, 2, alpha) << 6;
        bad |= pairs(60, 5, alpha) << 6;
        bad |= pairs(1, 2, alpha) << 6;
        bad |= pairs(2, 1, alpha) << 6;
    }
    bad |= sweeps(100, 2, 1, 5) << 4;
    bad |= sweeps(101, 2, 1, 5) << 4; /* the d = 2, alpha = 1 path at odd n */
    bad |= sweeps(60, 5, 2, 3) << 4;
    bad |= sweeps(1, 2, 1, 3) << 4; /* a row with no partner */
    bad |= sweeps(40, 1, 1, 3) << 4;
    bad |= sweeps(45, 5, 3, 3) << 4;
    bad |= sweeps(50, 2, 2, 1) << 4;
    printf("%d\n", bad);
    return bad;
}
"""


@pytest.mark.skipif(shutil.which(_native._COMPILER) is None, reason="no C compiler")
def test_kernel_under_sanitizers(tmp_path):
    # a build with AddressSanitizer catches any access past a buffer the wrappers size
    def compile_(*sources):
        cmd = [_native._COMPILER, *KERNEL_SANITIZER_FLAGS, "-o", str(tmp_path / "driver"), *map(str, sources), "-lm"]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=_native._COMPILE_TIMEOUT_S)

    (tmp_path / "empty.c").write_text("int main(void) { return 0; }\n")
    if compile_(tmp_path / "empty.c").returncode != 0:
        pytest.skip("no sanitizer runtime for the C compiler")
    driver = tmp_path / "driver.c"
    declarations = "".join(f"{restype} {name}({params});\n" for restype, name, params in kernel_exports())
    driver.write_text("#include <stdint.h>\n" + declarations + KERNEL_SANITIZER_DRIVER)
    built = compile_(driver, _native._SOURCE)
    assert built.returncode == 0, built.stderr
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0:abort_on_error=0", UBSAN_OPTIONS="print_stacktrace=1")
    done = subprocess.run([str(tmp_path / "driver")], capture_output=True, timeout=120, env=env)
    assert (done.returncode, done.stdout) == (0, b"0\n"), done.stdout.decode() + done.stderr.decode()


def test_kernel_prototype_matches_c_definition():
    # ctypes passes whatever argtypes says; a parameter added to or dropped
    # from the C side alone would shift every later argument unnoticed
    lib = _native.load()
    if lib is None:
        pytest.skip("the kernel could not be built here (no gcc?)")
    exported = kernel_exports()
    prototypes = _native._PROTOTYPES["kernel"]
    assert sorted(name for _, name, _ in exported) == sorted(prototypes)
    scalars = {"double": ctypes.c_double, "int64_t": ctypes.c_int64}
    restypes = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}
    for restype, name, params in exported:
        func = getattr(lib, name)
        assert (func.restype, list(func.argtypes)) == prototypes[name], name
        params = params.split(",")
        assert len(params) == len(func.argtypes), name
        for param, argtype in zip(params, func.argtypes):
            ctype = param.replace("const", "").split()[0]
            if "*" in param:
                assert argtype._type_ is scalars[ctype], (name, param)
            else:
                assert argtype is scalars[ctype], (name, param)
        assert func.restype is restypes[restype], name


class NoCalls:
    """A library stand-in that fails on any use: the checks must all come before the kernel."""

    def __getattr__(self, name):
        raise AssertionError(f"kernel function {name} reached")


def read_only(a):
    a.flags.writeable = False
    return a


# states the kernel writes through but cannot take
BAD_STATES = {
    "read_only": lambda pts: read_only(pts.copy()),
    "float32": lambda pts: pts.astype(np.float32),
    "fortran": lambda pts: np.asfortranarray(pts),
    "strided": lambda pts: np.repeat(pts, 2, axis=0)[::2],
}


@pytest.mark.parametrize("wrapper, state", [(w, state) for w in ("sms", "knn", "bms") for state in BAD_STATES]
                         + [("knn", "int32_table")])
def test_wrappers_reject_arrays_before_the_kernel(wrapper, state):
    # every array reaches the library through one check, so an array of the
    # wrong dtype, order or writeability is refused before any call
    pts = np.random.default_rng(1).normal(size=(12, 3))
    nb = (np.arange(12)[:, None] + np.arange(1, 4)) % 12
    if state == "int32_table":
        nb = nb.astype(np.int32)
    else:
        pts = BAD_STATES[state](pts)
    with pytest.raises(ValueError):
        if wrapper == "sms":
            _native.SmsBlockKernel(NoCalls(), pts, 1.0, 1, 1e-6, 4096, False, False)
        elif wrapper == "knn":
            _native.KnnBlockKernel(NoCalls(), pts, nb, 1e-6, 4096)
        else:
            _native.bms_sweeps(NoCalls(), pts, 1.0, 1, 1e-6, 1)


def assert_stop_rule(trace, n, tol):
    """The run stopped at the first step covering all n indices since the last big shift.

    The steps with shift >= tol split the run into segments; every
    segment before the last misses an index, and a converged run ends at
    the step where its last segment first covers all n.
    """
    big = np.flatnonzero(trace.shift >= tol)
    starts = np.concatenate(([0], big + 1))
    ends = np.concatenate((big, [trace.n_events]))
    for lo, hi in zip(starts[:-1], ends[:-1]):
        assert np.unique(trace.moved_index[lo:hi]).size < n
    _, first = np.unique(trace.moved_index[starts[-1]:], return_index=True)
    assert trace.total_updates == trace.n_events
    if trace.stop_reason == "converged":
        assert first.size == n
        assert starts[-1] + first.max() + 1 == trace.total_updates
    else:
        assert trace.stop_reason == "max_updates"
        assert first.size < n


class TestStopRule:
    """Both SMS runners stop as soon as coverage since the last big shift completes."""

    def test_compiled_run(self):
        if _native.load() is None:
            pytest.skip("the kernel could not be built here (no gcc?)")
        data = generate(preset("set1", seed=0))
        cfg = AlgoConfig(seed=1000003)
        _, trace = sms_run(data.points, cfg)
        assert trace.stop_reason == "converged"
        assert_stop_rule(trace, data.n, cfg.move_tolerance)

    def test_numpy_run(self, monkeypatch):
        monkeypatch.setattr(_native, "load", lambda: None)
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(seed=3)
        _, trace = sms_run(data.points, cfg)
        assert trace.stop_reason == "converged"
        assert_stop_rule(trace, data.n, cfg.move_tolerance)

    def test_traced_biweight_run(self):
        data = generate(preset("set2", seed=0))
        cfg = AlgoConfig(profile=P2, seed=1000003, trace_objective=True, trace_gradient=True)
        _, trace = sms_run(data.points, cfg)
        assert trace.stop_reason == "converged"
        assert_stop_rule(trace, data.n, cfg.move_tolerance)

    @staticmethod
    def assert_score_matrix_run():
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        cfg = AlgoConfig(seed=4)
        _, trace = knn_sms_run(pts, -np.einsum("ijk,ijk->ij", diff, diff), 5, cfg)
        assert trace.stop_reason == "converged"
        assert_stop_rule(trace, pts.shape[0], cfg.move_tolerance)

    def test_score_matrix_run(self):
        self.assert_score_matrix_run()  # the kernel, when it loads

    def test_score_matrix_numpy_run(self, monkeypatch):
        monkeypatch.setattr(_native, "load", lambda: None)
        self.assert_score_matrix_run()

    def test_budget_spent_before_coverage(self):
        data = generate(preset("set1", seed=0))
        cfg = AlgoConfig(seed=2, max_updates=900)
        _, trace = sms_run(data.points, cfg)
        assert (trace.stop_reason, trace.total_updates) == ("max_updates", 900)
        assert_stop_rule(trace, data.n, cfg.move_tolerance)


class TestHullShrinkage:
    @pytest.mark.parametrize("algo", ["sms", "bms"])
    def test_projection_widths_monotone(self, algo):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(40, 2))
        cfg = AlgoConfig(
            algorithm=algo, profile=EPANECHNIKOV, h=1.0, seed=2,
            max_updates=4000, snapshot_every=40,
        )
        _, trace = run(pts, cfg)
        dirs = np.vstack([np.eye(2), rng.normal(size=(4, 2))])
        dirs /= np.sqrt(np.einsum("ij,ij->i", dirs, dirs))[:, None]
        prev = None
        for _, snap in trace.snapshots:
            proj = snap @ dirs.T
            width_hi, width_lo = proj.max(axis=0), proj.min(axis=0)
            if prev is not None:
                assert np.all(width_hi <= prev[0] + 1e-9)
                assert np.all(width_lo >= prev[1] - 1e-9)
            prev = (width_hi, width_lo)


class TestDeterminism:
    @pytest.mark.parametrize("algo", ["ms", "bms", "sms"])
    def test_repeat_run_bit_identical(self, algo):
        data = generate(preset("set2", seed=6))
        cfg = AlgoConfig(
            algorithm=algo, profile=EPANECHNIKOV, h=1.0, seed=21,
            max_updates=20000, trace_objective=(algo != "ms"),
        )
        out1, tr1 = run(data.points, cfg)
        out2, tr2 = run(data.points, cfg)
        np.testing.assert_array_equal(out1, out2)
        np.testing.assert_array_equal(tr1.moved_index, tr2.moved_index)
        np.testing.assert_array_equal(tr1.shift, tr2.shift)
        if tr1.objective is not None:
            np.testing.assert_array_equal(tr1.objective, tr2.objective)
        assert tr1.total_updates == tr2.total_updates
        assert tr1.stop_reason == tr2.stop_reason


class TestBmsRun:
    def test_critical_start_single_sweep(self):
        pts = np.array([[0.0], [3.0]])
        final, trace = bms_run(pts, AlgoConfig(algorithm="bms", profile=P2))
        np.testing.assert_array_equal(final, pts)
        assert trace.n_events == 1
        assert trace.total_updates == 2

    def test_two_points_one_sweep_to_coincide(self):
        final, trace = bms_run(
            np.array([[0.0], [0.5]]), AlgoConfig(algorithm="bms", profile=EPANECHNIKOV)
        )
        np.testing.assert_allclose(final, [[0.25], [0.25]])
        assert trace.stop_reason == "converged"

    def test_objective_non_decreasing_on_preset(self):
        data = generate(preset("set2", seed=7))
        cfg = AlgoConfig(algorithm="bms", profile=EPANECHNIKOV, trace_objective=True)
        _, trace = bms_run(data.points, cfg)
        values = np.concatenate(([trace.initial_objective], trace.objective))
        assert np.all(np.diff(values) >= -1e-9 * max(1.0, values[0]))
        assert trace.total_updates == data.n * trace.n_events

    @pytest.mark.parametrize("algorithm, runner", RUNNER_CASES, ids=RUNNER_IDS)
    def test_tiny_bandwidth_keeps_weightless_rows(self, algorithm, runner, monkeypatch):
        # at h = 1e-8 the norm identity rounds some points' own squared
        # distance past h^2; those rows have no weight and must stay put
        use_runner(runner, monkeypatch)
        data = generate(preset("set2", seed=0))
        final, trace = run(data.points, AlgoConfig(algorithm=algorithm, profile=EPANECHNIKOV, h=1e-8))
        np.testing.assert_array_equal(final, data.points)
        assert trace.stop_reason == "converged"


def peak_traced_bytes(call, *args):
    """``call(*args)``'s peak of traced allocations and its result, as ``(peak, result)``."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call, runner", [
    (lambda pts: bms_run(pts, AlgoConfig(algorithm="bms", max_updates=pts.shape[0])), "default"),
    (lambda pts: bms_run(pts, AlgoConfig(algorithm="bms", max_updates=pts.shape[0])), "numpy"),
    (lambda pts: ms_run(pts, AlgoConfig(algorithm="ms", max_updates=pts.shape[0])), "default"),
    (lambda pts: ms_run(pts, AlgoConfig(algorithm="ms", max_updates=pts.shape[0])), "numpy"),
], ids=["bms_sweep", "bms_sweep-numpy", "ms_run", "ms_run-numpy"])
def test_batch_map_peak_memory_is_one_distance_block(call, runner, monkeypatch):
    # n = 1000 rows fit one n x n block (8 MB); the numpy path writes the
    # uniform weight into it, so no second block-sized array may appear,
    # and the kernel holds no block at all.  A budget of n updates is one
    # BMS sweep or one MS iteration.
    use_runner(runner, monkeypatch)
    pts = generate(parse_preset("imbalance:2", seed=0)).points
    n = pts.shape[0]
    peak, (final, trace) = peak_traced_bytes(call, pts)
    assert peak < 1.25 * 8 * n * n, f"peak {peak / 2**20:.1f} MiB at n={n}"
    assert_one_batch_event(pts, final, trace)


def test_biweight_batch_map_peak_memory_is_three_distance_blocks(monkeypatch):
    # the numpy alpha >= 2 map clips and scales the distance block in
    # place; only the weight formula's own two temporaries remain
    monkeypatch.setattr(_native, "load", lambda: None)
    pts = generate(parse_preset("imbalance:2", seed=0)).points
    n = pts.shape[0]
    peak, (final, trace) = peak_traced_bytes(bms_run, pts, AlgoConfig(algorithm="bms", profile=P2, max_updates=n))
    assert peak < 3.25 * 8 * n * n, f"peak {peak / 2**20:.1f} MiB at n={n}"
    assert_one_batch_event(pts, final, trace)
