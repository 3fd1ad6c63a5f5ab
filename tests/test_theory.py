"""Theory checks: positive harnesses, negative controls, gating."""

import tracemalloc

import numpy as np
import pytest

from stochshift import _native, theory
from stochshift.algorithms import AlgoConfig, RunTrace, sms_run
from stochshift.clustering import extract_clusters
from stochshift.kernels import EPANECHNIKOV, Profile
from stochshift.synthdata import generate, parse_preset
from stochshift.theory import (
    check_cluster_stability,
    check_critical_characterization,
    check_gradient_vanishes,
    check_monotone_ascent,
    check_partial_gradient_bound,
    check_single_cluster_convergence,
    negative_controls,
    verify_preset,
    _band_slack,
    _constructed_states,
    _critical_trials,
    _random_ball_state,
)

P2 = Profile(2)
REPORT_ORDER = ["monotone_ascent", "partial_gradient_bound", "gradient_vanishes",
                "cluster_stability", "single_cluster_convergence", "critical_characterization"]


def traced_run(seed, preset_text="set2", profile=P2):
    data = generate(parse_preset(preset_text, seed=seed))
    cfg = AlgoConfig(
        algorithm="sms",
        profile=profile,
        h=1.0,
        seed=seed + 1000,
        trace_objective=True,
        trace_gradient=profile.smooth,
        snapshot_every=data.n,
    )
    _, trace = sms_run(data.points, cfg)
    return trace, cfg


class TestPositiveChecks:
    def test_monotone_ascent_passes(self):
        trace, cfg = traced_run(0)
        res = check_monotone_ascent(trace, cfg)
        assert res.status == "pass"
        assert res.worst_slack >= -res.detail["tolerance"]

    def test_ascent_vacuous_on_zero_steps(self):
        pts = np.array([[0.0], [5.0]])
        cfg = AlgoConfig(profile=P2, trace_objective=True)
        _, trace = sms_run(pts, cfg)
        trimmed_cfg = cfg
        res = check_monotone_ascent(trace, trimmed_cfg)
        assert res.status == "pass"

    def test_gradient_bound_passes(self):
        trace, cfg = traced_run(1)
        res = check_partial_gradient_bound(trace, cfg)
        assert res.status == "pass"
        assert res.worst_slack >= 0.0

    def test_gradient_vanishes_after_convergence(self):
        trace, cfg = traced_run(2)
        res = check_gradient_vanishes(trace, cfg)
        assert res.status == "pass"
        assert res.detail["final_gradient_norm"] < res.detail["epsilon"]

    def test_cluster_stability_on_converged_run(self):
        trace, cfg = traced_run(3)
        res = check_cluster_stability(trace, 1.0, 1.0 / 3.0)
        assert res.status == "pass"
        assert res.detail["partition_settled"]

    def test_single_cluster_convergence(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.2, 0.2, size=(20, 2))
        cfg = AlgoConfig(profile=P2, h=1.0, seed=9)
        res = check_single_cluster_convergence(pts, cfg)
        assert res.status == "pass"
        assert res.detail["final_max_distance"] < 10 * cfg.move_tolerance

    def test_single_cluster_convergence_far_from_origin(self):
        # criterion 4's ball states, moved by +1000: the norm identity
        # would measure the collapsed state as ~2e-5 wide
        for i in range(20):
            state = _random_ball_state(20, 2, 0.4, seed=500 + i) + 1000.0
            res = check_single_cluster_convergence(state, AlgoConfig(profile=P2, h=1.0, seed=900 + i))
            assert res.status == "pass", (i, res.detail)

    def test_single_point_passes_immediately(self):
        res = check_single_cluster_convergence(np.array([[1.0, 1.0]]), AlgoConfig(profile=P2))
        assert res.status == "pass"

    def test_assumption_unmet_reported(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        res = check_single_cluster_convergence(pts, AlgoConfig(profile=P2, h=1.0))
        assert res.status == "skipped"
        assert res.detail["reason"] == "assumption unmet"


class TestCriticalCharacterization:
    def test_constructed_states_agree(self):
        for state in _constructed_states(1.0):
            res = check_critical_characterization(state, 1.0, P2)
            assert res.status == "pass", res.detail

    def test_directions(self):
        coincident_plus_far = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        res = check_critical_characterization(coincident_plus_far, 1.0, P2)
        assert res.detail["gradient_zero"] and res.detail["geometry_critical"]

        inside_band = np.array([[0.0, 0.0], [0.5, 0.0]])
        res = check_critical_characterization(inside_band, 1.0, P2)
        assert not res.detail["gradient_zero"] and not res.detail["geometry_critical"]

    def test_coincident_pairs_agree(self):
        # three exactly coincident pairs; the norm identity would put a
        # pair up to ~1e-7 apart and call a critical state non-critical
        rng = np.random.default_rng(0)
        for _ in range(200):
            state = np.repeat(rng.uniform(-5.0, 5.0, size=(3, 2)), 2, axis=0)
            res = check_critical_characterization(state, 1.0, P2)
            assert res.status == "pass", (state, res.detail)

    def test_random_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            state = rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 10)), 2))
            assert check_critical_characterization(state, 1.0, P2).status == "pass"


class TestPreconditions:
    def test_missing_objective(self):
        data = generate(parse_preset("set2", seed=8))
        cfg = AlgoConfig(profile=P2, max_updates=200, seed=0)
        _, trace = sms_run(data.points, cfg)
        with pytest.raises(ValueError, match="objective"):
            check_monotone_ascent(trace, cfg)

    def test_too_few_snapshots(self):
        data = generate(parse_preset("set2", seed=8))
        cfg = AlgoConfig(profile=P2, max_updates=200, seed=0)
        _, trace = sms_run(data.points, cfg)
        with pytest.raises(ValueError, match="snapshot"):
            check_cluster_stability(trace, 1.0, 1.0 / 3.0)

    def test_bad_tau(self):
        trace, _ = traced_run(9)
        with pytest.raises(ValueError, match="tau"):
            check_cluster_stability(trace, 1.0, 0.7)


def frozen_trace(state):
    """A trace whose last two snapshots are both ``state``."""
    return RunTrace(
        algorithm="sms",
        moved_index=np.zeros(0, dtype=np.int64),
        shift=np.zeros(0),
        objective=None,
        objective_delta=None,
        grad_norm=None,
        initial_objective=None,
        initial_points=state,
        final_points=state.copy(),
        snapshots=[(0, state.copy()), (1, state.copy())],
    )


class TestBoundedMemory:
    """Pairwise checks walk row blocks instead of an n x n matrix."""

    N = 4000  # several row blocks; a dense distance matrix would be 128 MB

    def two_groups(self):
        state = np.zeros((self.N, 2))
        state[self.N // 2 :] = [5.0, 0.0]
        return state

    def test_cluster_stability_peak_memory(self):
        trace = frozen_trace(self.two_groups())
        tracemalloc.start()
        try:
            result = check_cluster_stability(trace, 1.0, 1.0 / 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == "pass"
        assert result.worst_slack == 1.0 / 3.0
        assert result.detail["n_clusters"] == 2
        assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"

    @staticmethod
    def traced_peak(fn):
        """``(fn(), peak traced bytes)``."""
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_critical_characterization_peak_memory(self):
        state = self.two_groups()
        result, peak = self.traced_peak(lambda: check_critical_characterization(state, 1.0, P2))
        assert result.status == "pass"
        assert result.detail["gradient_zero"] and result.detail["geometry_critical"]
        assert peak < 144e6, f"peak {peak / 1e6:.0f} MB"

    def test_extract_clusters_peak_memory(self):
        state = self.two_groups()
        part, peak = self.traced_peak(lambda: extract_clusters(state, 1.0))
        assert part.n_clusters == 2
        assert peak < 80e6, f"peak {peak / 1e6:.0f} MB"

    def test_band_pair_in_last_block_is_found(self):
        state = self.two_groups()
        state[-1] = [5.5, 0.0]
        result = check_cluster_stability(frozen_trace(state), 1.0, 1.0 / 3.0)
        assert result.status == "fail"
        assert result.worst_slack == pytest.approx(-1.0 / 6.0)
        assert check_critical_characterization(state, 1.0, P2).detail["geometry_critical"] is False


class TestNegativeControls:
    def test_all_controls_fail(self):
        controls = negative_controls(P2, 1.0)
        names = {c.name for c in controls}
        assert names == {
            "negative_ascent",
            "negative_gradient_bound",
            "negative_gradient_vanishes",
            "negative_cluster_stability",
        }
        for control in controls:
            assert control.status == "fail", control.name


class TestSuite:
    def test_small_suite_passes(self):
        report = verify_preset("set2", P2, n_seeds=2, seed=0)
        assert report.all_passed
        assert [c.name for c in report.checks] == REPORT_ORDER
        payload = report.to_json_dict()
        assert payload["schema"] == "theory-report/1"
        assert [c["pass"] for c in payload["checks"]] == [True] * 6
        stat = next(c for c in report.checks if c.name == "cluster_stability")
        assert stat.detail["n_trials"] == 2
        assert "pass_fraction" in stat.detail

    def test_epanechnikov_gates_c1_checks(self):
        report = verify_preset("set2", EPANECHNIKOV, n_seeds=1, seed=0)
        assert [c.name for c in report.checks] == REPORT_ORDER
        assert [c["pass"] for c in report.to_json_dict()["checks"]] == [True, None, None, True, True, None]
        by_name = {c.name: c for c in report.checks}
        for gated in ("partial_gradient_bound", "gradient_vanishes", "critical_characterization"):
            assert by_name[gated].status == "skipped"
            assert by_name[gated].detail["reason"] == "profile assumption"
        assert by_name["monotone_ascent"].status == "pass"

    def test_no_seeds_rejected(self):
        # a report over no runs would pass every check vacuously
        with pytest.raises(ValueError, match="n_seeds"):
            verify_preset("set2", P2, n_seeds=0)

    @pytest.mark.parametrize(
        "preset_text, h", [("set9", 1.0), ("imbalance:1e12", 1.0), ("set2", 0.0), ("set2", 1e-200)]
    )
    def test_bad_input_rejected_before_first_run(self, monkeypatch, preset_text, h):
        def no_run(*args, **kwargs):
            raise AssertionError("ran SMS before validating the input")

        monkeypatch.setattr(theory, "sms_run", no_run)
        monkeypatch.setattr(theory, "generate", no_run)
        with pytest.raises(ValueError):
            verify_preset(preset_text, P2, n_seeds=1, h=h)

    def test_suite_with_negative_controls_reports_failures(self):
        report = verify_preset("set2", P2, n_seeds=1, seed=0, include_negative=True)
        assert not report.all_passed
        assert any(c.name.startswith("negative_") and c.status == "fail" for c in report.checks)


def numpy_body(fn, *args):
    """``fn(*args)`` with the kernel unavailable: the numpy body, the compiled path's reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        return fn(*args)


class TestCompiledBandScan:
    """The kernel's ``band_slack`` and gradient against the numpy bodies, decision for decision."""

    @pytest.fixture(autouse=True)
    def needs_kernel(self):
        if _native.load() is None:
            pytest.skip("the kernel could not be built here (no gcc?)")

    def test_band_slack_is_the_numpy_bits(self):
        # both bands the checks use, on spread, converged, coincident and
        # constructed 2-D states, and one with a pair in the band
        trace, _ = traced_run(3)
        rng = np.random.default_rng(1)
        states = [trace.initial_points, trace.final_points, rng.uniform(-1.5, 1.5, size=(40, 2)),
                  np.repeat(rng.uniform(-5.0, 5.0, size=(3, 2)), 2, axis=0) + 1e3, *_constructed_states(1.0)]
        for state in states:
            for lo, hi in ((1.0 / 3.0, 1.0 - 1.0 / 3.0), (1e-12, 1.0 - 1e-12)):
                assert _band_slack(state, lo, hi) == numpy_body(_band_slack, state, lo, hi), (state.shape, lo)

    def test_no_pair_gives_inf(self):
        state = np.array([[0.3, -0.2]])
        assert _band_slack(state, 0.1, 0.9) == numpy_body(_band_slack, state, 0.1, 0.9) == np.inf

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_critical_decisions_match_numpy_bodies(self, alpha):
        decisions = ("gradient_zero", "geometry_critical")
        for seed in range(20):
            for trial in _critical_trials(1.0, Profile(alpha), seed):
                res = check_critical_characterization(*trial)
                ref = numpy_body(check_critical_characterization, *trial)
                assert [res.detail[k] for k in decisions] == [ref.detail[k] for k in decisions], (seed, trial[0])

    def test_negative_controls_fail_on_the_numpy_body(self):
        # the kernel's run of the same controls is TestNegativeControls
        numpy_body(TestNegativeControls.test_all_controls_fail, None)

    @pytest.mark.parametrize("check", [TestBoundedMemory.test_cluster_stability_peak_memory,
                                       TestBoundedMemory.test_critical_characterization_peak_memory,
                                       TestBoundedMemory.test_band_pair_in_last_block_is_found])
    def test_numpy_body_walks_row_blocks(self, check):
        # with the kernel loaded, TestBoundedMemory measures the kernel's scan
        numpy_body(check, TestBoundedMemory())
