"""Driver behaviour: steps, sweeps, runs, stopping, tracing, determinism."""

import ctypes
import re
import shutil
import subprocess

import numpy as np
import pytest

from stochshift import _native
from stochshift.affinity import knn_sms_run
from stochshift.algorithms import (
    AlgoConfig,
    RandomIndexStream,
    bms_run,
    bms_sweep,
    ms_run,
    run,
    sms_run,
    sms_step,
)
from stochshift.clustering import MergePolicy, extract_clusters
from stochshift.core import mean_shift_operator, objective_value, partial_gradient
from stochshift.kernels import EPANECHNIKOV, Profile
from stochshift.synthdata import generate, parse_preset, preset

P2 = Profile(2)


def seed_with_first_draw(n, want, limit=200):
    for seed in range(limit):
        if RandomIndexStream(seed).draw(n) == want:
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


class TestRandomIndexStream:
    def test_identical_seed_identical_sequence(self):
        a = RandomIndexStream(42)
        b = RandomIndexStream(42)
        assert [a.draw(10) for _ in range(50)] == [b.draw(10) for _ in range(50)]

    def test_range(self):
        s = RandomIndexStream(1)
        assert all(0 <= s.draw(7) < 7 for _ in range(200))

    @pytest.mark.parametrize("n", [150, 750, 4500])
    def test_block_draws_equal_scalar_draws(self, n):
        scalar, blocks = RandomIndexStream(1000003), RandomIndexStream(1000003)
        expected = [scalar.draw(n) for _ in range(5009)]
        got = [blocks.draw_block(n, m) for m in (1, 7, 4096, 904)] + [[blocks.draw(n)]]
        assert np.concatenate(got).tolist() == expected


class TestSmsStep:
    def test_two_point_epanechnikov(self):
        pts = np.array([[0.0], [0.5]])
        cfg = AlgoConfig(profile=EPANECHNIKOV, h=1.0)
        seed = seed_with_first_draw(2, 0)
        new, i, shift = sms_step(pts, cfg, RandomIndexStream(seed))
        assert i == 0
        np.testing.assert_allclose(new, [[0.25], [0.5]])
        assert shift == pytest.approx(0.25)

    def test_touches_exactly_one_point(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        cfg = AlgoConfig(profile=P2, h=1.0)
        new, i, _ = sms_step(pts, cfg, RandomIndexStream(5))
        others = np.delete(np.arange(20), i)
        np.testing.assert_array_equal(new[others], pts[others])

    def test_coincident_fixed_point(self):
        pts = np.tile([[1.0, 1.0]], (4, 1))
        new, _, shift = sms_step(pts, AlgoConfig(profile=P2), RandomIndexStream(0))
        np.testing.assert_array_equal(new, pts)
        assert shift == 0.0

    def test_separated_fixed_point(self):
        pts = np.array([[0.0], [5.0]])
        new, _, shift = sms_step(pts, AlgoConfig(profile=P2), RandomIndexStream(0))
        np.testing.assert_array_equal(new, pts)
        assert shift == 0.0

    def test_matches_operator_and_gradient_form(self):
        # x_new = S_h(x_i) = x_i + (h^2 / 2) grad_i / sum_j G_ij
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(9, 2))
        h = 0.8
        cfg = AlgoConfig(profile=P2, h=h)
        seed = seed_with_first_draw(9, 4)
        new, i, _ = sms_step(pts, cfg, RandomIndexStream(seed))
        assert i == 4
        op = mean_shift_operator(pts[4], pts, h, P2)
        np.testing.assert_allclose(new[4], op, atol=1e-12)
        diff = pts - pts[4]
        t = np.einsum("ij,ij->i", diff, diff) / (h * h)
        total = (2.0 * np.clip(1.0 - t, 0.0, None)).sum()
        grad_form = pts[4] + (h * h / 2.0) / total * partial_gradient(pts, h, P2, 4)
        np.testing.assert_allclose(new[4], grad_form, atol=1e-12)


class TestBmsSweep:
    def test_two_point_collapse(self):
        pts = np.array([[0.0], [0.5]])
        new, max_shift = bms_sweep(pts, AlgoConfig(profile=EPANECHNIKOV, h=1.0))
        np.testing.assert_allclose(new, [[0.25], [0.25]])
        assert max_shift == pytest.approx(0.25)

    def test_critical_state_unchanged(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        new, max_shift = bms_sweep(pts, AlgoConfig(profile=P2, h=1.0))
        np.testing.assert_array_equal(new, pts)
        assert max_shift == 0.0

    def test_collinear_strict_neighbors(self):
        pts = np.array([[0.0], [0.4], [0.8]])
        new, _ = bms_sweep(pts, AlgoConfig(profile=EPANECHNIKOV, h=0.5))
        np.testing.assert_allclose(new, [[0.2], [0.4], [0.6]])

    def test_synchronous_update_uses_input_state(self):
        # sequential updating would give a different second coordinate
        pts = np.array([[0.0], [0.4], [0.8]])
        new, _ = bms_sweep(pts, AlgoConfig(profile=EPANECHNIKOV, h=0.5))
        sequential = pts.copy()
        for i in range(3):
            sequential[i] = mean_shift_operator(sequential[i], sequential, 0.5, EPANECHNIKOV)
        assert not np.allclose(new, sequential)


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
        pts = data.points.copy()
        stream = RandomIndexStream(11)
        for j in range(25):
            pts, i, shift = sms_step(pts, cfg, stream)
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
            grad = partial_gradient(snap, cfg.h, P2, int(trace.moved_index[k]))
            assert trace.grad_norm[k] == pytest.approx(np.sqrt(grad @ grad), rel=1e-9, abs=1e-12)

    def test_snapshots_and_counts(self):
        data = generate(preset("set2", seed=5))
        cfg = AlgoConfig(profile=EPANECHNIKOV, seed=8, max_updates=300, snapshot_every=100)
        _, trace = sms_run(data.points, cfg)
        ks = [k for k, _ in trace.snapshots]
        assert ks[0] == 0 and ks[-1] == trace.total_updates
        assert trace.updates_per_point == pytest.approx(trace.total_updates / data.n)


def assert_same_run(points, cfg, monkeypatch):
    """The compiled SMS path takes the numpy path's steps, to rounding."""
    final, trace = sms_run(points, cfg)
    with monkeypatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        ref_final, ref = sms_run(points, cfg)
    np.testing.assert_array_equal(trace.moved_index, ref.moved_index)
    np.testing.assert_array_equal(trace.update_count, ref.update_count)
    assert (trace.total_updates, trace.stop_reason) == (ref.total_updates, ref.stop_reason)
    assert [k for k, _ in trace.snapshots] == [k for k, _ in ref.snapshots]
    # positions and shifts within 1e-12 of the state's scale
    atol = 1e-12 * np.abs(ref_final).max()
    np.testing.assert_allclose(final, ref_final, rtol=0, atol=atol)
    np.testing.assert_allclose(trace.shift, ref.shift, rtol=0, atol=atol)
    for (_, snap), (_, ref_snap) in zip(trace.snapshots, ref.snapshots):
        np.testing.assert_allclose(snap, ref_snap, rtol=0, atol=atol)
    policy = MergePolicy(1.0 / 3.0)
    np.testing.assert_array_equal(
        extract_clusters(final, cfg.h, policy).assignment,
        extract_clusters(ref_final, cfg.h, policy).assignment,
    )
    return trace


class TestCompiledSms:
    """The C kernel of untraced SMS against the numpy path, its reference."""

    @pytest.fixture(autouse=True)
    def kernel_available(self):
        if _native.load() is None:
            pytest.skip("the SMS kernel could not be built here (no gcc?)")

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
        # the uniform-weight d=2 kernel sums over a grid of cells only for
        # n >= 128 and a spread of not too many cells
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=0.5, size=(100 if layout == "small" else 200, 2))
        if layout == "far_apart":
            pts[::2] += 1000.0
        assert assert_same_run(pts, AlgoConfig(seed=1), monkeypatch).stop_reason == "converged"

    @pytest.mark.parametrize("missing", ["_COMPILER", "_SOURCE"])
    def test_failed_build_falls_back(self, missing, monkeypatch, tmp_path):
        monkeypatch.setattr(_native, missing, tmp_path / "missing")
        monkeypatch.setattr(_native, "_cache_dirs", lambda: [tmp_path / "cache"])
        _native.load.cache_clear()
        try:
            assert _native.load() is None
            data = generate(preset("set2", seed=3))
            _, trace = sms_run(data.points, AlgoConfig(seed=5))
        finally:
            _native.load.cache_clear()
        assert trace.stop_reason == "converged"
        assert not any((tmp_path / "cache").glob("*"))  # no half-written library

    def test_second_build_compiles_nothing(self, monkeypatch, tmp_path):
        path = _native.build(tmp_path)
        assert path == _native.library_path(tmp_path)
        monkeypatch.setattr(_native, "_COMPILER", str(tmp_path / "no-such-gcc"))
        assert _native.build(tmp_path) == path
        assert list(tmp_path.iterdir()) == [path]
        assert _native._open(path) is not None


@pytest.mark.skipif(shutil.which(_native._COMPILER) is None, reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    # an unused helper or variable left in the kernel fails here
    cmd = [_native._COMPILER, *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "k.so"), str(_native._SOURCE), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=_native._COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr


def test_kernel_prototype_matches_c_definition():
    # ctypes passes whatever argtypes says; a parameter added to or dropped
    # from the C side alone would shift every later argument unnoticed
    lib = _native.load()
    if lib is None:
        pytest.skip("the SMS kernel could not be built here (no gcc?)")
    source = _native._SOURCE.read_text()
    params = re.search(r"\bint64_t\s+sms_block\s*\(([^)]*)\)", source).group(1).split(",")
    argtypes = lib.sms_block.argtypes
    assert len(params) == len(argtypes)
    pointees = {"double": np.float64, "int64_t": np.int64}
    scalars = {"double": ctypes.c_double, "int64_t": ctypes.c_int64}
    for param, argtype in zip(params, argtypes):
        ctype = param.replace("const", "").split()[0]
        if "*" in param:
            assert np.dtype(argtype._dtype_) == pointees[ctype], param
        else:
            assert argtype is scalars[ctype], param
    assert lib.sms_block.restype is ctypes.c_int64


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
            pytest.skip("the SMS kernel could not be built here (no gcc?)")
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

    def test_score_matrix_run(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        cfg = AlgoConfig(seed=4)
        _, trace = knn_sms_run(pts, -np.einsum("ijk,ijk->ij", diff, diff), 5, cfg)
        assert trace.stop_reason == "converged"
        assert_stop_rule(trace, pts.shape[0], cfg.move_tolerance)

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
