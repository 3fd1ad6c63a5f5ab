"""Preset definitions and seeded mixture sampling."""

import tracemalloc

import numpy as np
import pytest

from stochshift import synthdata
from stochshift.synthdata import GmmSpec, generate, parse_preset, preset


class TestGmmSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GmmSpec(np.zeros((2, 2)), 1.0, (5,))
        with pytest.raises(ValueError):
            GmmSpec(np.zeros((1, 2)), 1.0, (0,))
        with pytest.raises(ValueError):
            GmmSpec(np.zeros((1, 2)), -1.0, (3,))


class TestGenerate:
    def test_deterministic(self):
        spec = preset("set2", seed=5)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_scale_degenerate(self):
        spec = GmmSpec(np.array([[1.0, 2.0], [-3.0, 0.0]]), 0.0, (4, 2), seed=0)
        data = generate(spec)
        np.testing.assert_array_equal(data.points[:4], np.tile([1.0, 2.0], (4, 1)))
        np.testing.assert_array_equal(data.points[4:], np.tile([-3.0, 0.0], (2, 1)))

    def test_one_point_per_component(self):
        data = generate(GmmSpec(np.zeros((3, 2)), 1.0, (1, 1, 1), seed=1))
        assert data.n == 3
        assert data.labels.tolist() == [1, 2, 3]

    def test_set1_sample_means_within_standard_error(self):
        data = generate(preset("set1", seed=11))
        bound = 3.0 * np.sqrt(0.64 / 250.0)
        for r, mean in enumerate(((1, 1), (-1, -1), (1, -1)), start=1):
            got = data.points[data.labels == r].mean(axis=0)
            assert np.all(np.abs(got - np.asarray(mean)) < bound)

    def test_component_covariance_close_to_isotropic(self):
        data = generate(preset("set1", seed=28))
        for r in (1, 2, 3):
            pts = data.points[data.labels == r]
            cov = np.cov(pts.T)
            err = np.linalg.norm(cov - 0.64 * np.eye(2), ord=2)
            assert err <= 0.2 * 0.64


class TestPresets:
    def test_set_sizes_and_cov(self):
        expected = {
            "set1": (250, 250, 250),
            "set2": (50, 50, 50),
            "set3": (1500, 1500, 1500),
            "set4": (100, 300, 50),
        }
        for name, sizes in expected.items():
            spec = preset(name)
            assert spec.sizes == sizes
            assert spec.covariance_scale == 0.64
            np.testing.assert_array_equal(spec.means, [[1, 1], [-1, -1], [1, -1]])

    def test_complexity(self):
        spec = preset("complexity", 10)
        assert spec.sizes == (10, 10, 10)
        assert spec.covariance_scale == 0.6
        assert generate(spec).n == 30

    def test_imbalance_scaling_and_rounding(self):
        assert preset("imbalance", 2.0).sizes == (500, 250, 250)
        assert preset("imbalance", 0.1).sizes == (25, 250, 250)
        assert preset("imbalance", 0.001).sizes == (1, 250, 250)

    @pytest.mark.parametrize("ratio", [float("inf"), float("-inf"), float("nan"), 0.0, -1.0])
    def test_imbalance_ratio_not_positive_finite_rejected(self, ratio):
        with pytest.raises(ValueError, match="imbalance ratio"):
            preset("imbalance", ratio)
        with pytest.raises(ValueError, match="imbalance ratio"):
            parse_preset(f"imbalance:{ratio}")

    @pytest.mark.parametrize(
        "text", ["imbalance:1e12", "complexity:1000000000000", "dim:1000000000000", "numclusters:1000000000000"]
    )
    def test_huge_preset_rejected_before_drawing(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="coordinates"):
                parse_preset(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"

    def test_largest_dim_within_bound_accepted(self):
        d = synthdata.MAX_COORDINATES // 750
        assert preset("dim", d).dim == d
        with pytest.raises(ValueError, match="coordinates"):
            preset("dim", d + 1)

    def test_dim_means_are_sign_vectors(self):
        spec = preset("dim", 5, seed=3)
        assert spec.means.shape == (3, 5)
        assert np.all(np.isin(spec.means, (-1.0, 1.0)))
        assert spec.covariance_scale == 0.6
        assert spec.sizes == (250, 250, 250)

    def test_numclusters_means_grid(self):
        spec = preset("numclusters", 8, seed=2)
        assert spec.means.shape == (8, 2)
        assert np.all(spec.means == np.round(spec.means))
        assert np.all(np.abs(spec.means) <= 4)
        assert spec.sizes == (250,) * 8

    def test_preset_mean_draws_deterministic(self):
        a = preset("dim", 7, seed=9)
        b = preset("dim", 7, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        c = preset("dim", 7, seed=10)
        assert not np.array_equal(a.means, c.means)

    def test_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("set9")
        with pytest.raises(ValueError, match="requires a parameter"):
            preset("complexity")
        with pytest.raises(ValueError):
            preset("set1", 4)

    def test_parse_preset(self):
        assert parse_preset("set1").sizes == (250, 250, 250)
        assert parse_preset("complexity:100").sizes == (100, 100, 100)
        assert parse_preset("imbalance:0.5").sizes == (125, 250, 250)
        assert parse_preset("dim:4").dim == 4
