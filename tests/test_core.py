"""State operations: neighborhoods, operator, objective, gradients, KDE."""

import numpy as np
import pytest

from stochshift.core import (
    full_gradient,
    gradient_max_norm,
    kde_value,
    mean_shift_operator,
    neighborhood,
    objective_value,
    partial_gradient,
)
from stochshift.kernels import EPANECHNIKOV, Profile

P2 = Profile(2)


def fd_gradient(points, h, profile, step=1e-6):
    """Central finite differences of the objective, the independent oracle."""
    pts = np.asarray(points, dtype=np.float64)
    grad = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        for j in range(pts.shape[1]):
            plus = pts.copy()
            minus = pts.copy()
            plus[i, j] += step
            minus[i, j] -= step
            grad[i, j] = (
                objective_value(plus, h, profile) - objective_value(minus, h, profile)
            ) / (2 * step)
    return grad


class TestNeighborhood:
    def test_hand_example(self):
        pts = np.array([[-0.5], [0.5], [2.0]])
        assert neighborhood([0.0], pts, 1.0).tolist() == [0, 1]

    def test_self_at_distance_zero(self):
        assert neighborhood([0.0], np.array([[0.0]]), 1.0).tolist() == [0]

    def test_strict_inequality_at_h(self):
        assert neighborhood([0.0], np.array([[1.0]]), 1.0).size == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            neighborhood([0.0, 0.0], np.array([[1.0]]), 1.0)


class TestMeanShiftOperator:
    def test_epanechnikov_plain_mean(self):
        pts = np.array([[-0.5], [0.5], [2.0]])
        np.testing.assert_allclose(mean_shift_operator([0.0], pts, 1.0, EPANECHNIKOV), [0.0])

    def test_biweight_weighted_mean(self):
        pts = np.array([[0.0], [0.5]])
        out = mean_shift_operator([0.0], pts, 1.0, P2)
        np.testing.assert_allclose(out, [1.5 * 0.5 / 3.5])

    def test_single_point_fixed(self):
        pts = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(mean_shift_operator([1.0, 2.0], pts, 1.0, P2), [1.0, 2.0])

    def test_isolated_query_returned_unchanged(self):
        pts = np.array([[5.0]])
        assert neighborhood([0.0], pts, 1.0).size == 0
        np.testing.assert_array_equal(mean_shift_operator([0.0], pts, 1.0, P2), [0.0])

    def test_output_in_neighborhood_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.uniform(-1, 1, size=(rng.integers(2, 12), 2))
            x = rng.uniform(-1, 1, size=2)
            idx = neighborhood(x, pts, 1.0)
            if idx.size == 0:
                continue
            out = mean_shift_operator(x, pts, 1.0, P2)
            lo = pts[idx].min(axis=0) - 1e-12
            hi = pts[idx].max(axis=0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestShiftVector:
    """The mean-shift vector S_h(x) - x."""

    def test_hand_example(self):
        pts = np.array([[0.0], [0.5]])
        x = np.array([0.0])
        np.testing.assert_allclose(mean_shift_operator(x, pts, 1.0, P2) - x, [1.5 * 0.5 / 3.5])

    def test_zero_at_barycenter(self):
        pts = np.array([[-0.3], [0.3]])
        x = np.array([0.0])
        np.testing.assert_allclose(mean_shift_operator(x, pts, 1.0, EPANECHNIKOV) - x, [0.0], atol=1e-15)

    def test_isolated_zero(self):
        x = np.array([0.0])
        np.testing.assert_array_equal(mean_shift_operator(x, np.array([[9.0]]), 1.0, P2) - x, [0.0])


class TestObjective:
    def test_two_coincident(self):
        assert objective_value(np.zeros((2, 1)), 1.0, P2) == pytest.approx(3.0, abs=0)

    def test_two_far(self):
        assert objective_value(np.array([[0.0], [5.0]]), 1.0, P2) == pytest.approx(2.0, abs=0)

    def test_hand_value(self):
        assert objective_value(np.array([[0.0], [0.5]]), 1.0, P2) == pytest.approx(2.5625)

    def test_upper_bound_attained_only_when_coincident(self):
        rng = np.random.default_rng(3)
        n = 6
        bound = n * (n + 1) / 2
        assert objective_value(np.ones((n, 2)), 1.0, P2) == pytest.approx(bound)
        spread = rng.uniform(0, 2, size=(n, 2))
        assert objective_value(spread, 1.0, P2) < bound


class TestGradients:
    def test_partial_hand_value(self):
        pts = np.array([[0.0], [0.5]])
        np.testing.assert_allclose(partial_gradient(pts, 1.0, P2, 0), [1.5])
        np.testing.assert_allclose(partial_gradient(pts, 1.0, P2, 1), [-1.5])

    def test_full_matches_partials(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1.5, size=(8, 2))
        g = full_gradient(pts, 0.9, P2)
        for i in range(8):
            np.testing.assert_allclose(g[i], partial_gradient(pts, 0.9, P2, i), atol=1e-12)

    def test_exact_zero_at_critical_states(self):
        coincident = np.tile([[0.7, -0.2]], (4, 1))
        assert gradient_max_norm(full_gradient(coincident, 1.0, P2)) == 0.0
        separated = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert gradient_max_norm(full_gradient(separated, 1.0, P2)) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_gradient(np.zeros((2, 1)), 1.0, P2, 2)

    def test_identity_with_shift_vector(self):
        # grad_i = (2 sum_j G / h^2) * (S_h(x_i) - x_i), including the self weight
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(rng.integers(2, 10), 2))
            h = rng.uniform(0.5, 1.5)
            for i in range(pts.shape[0]):
                diff = pts - pts[i]
                t = np.einsum("ij,ij->i", diff, diff) / (h * h)
                w = -(-2.0) * np.clip(1.0 - t, 0.0, None)  # biweight G values
                total = w.sum()
                lhs = partial_gradient(pts, h, P2, i)
                rhs = (2.0 * total / (h * h)) * (mean_shift_operator(pts[i], pts, h, P2) - pts[i])
                scale = max(1.0, np.abs(lhs).max())
                assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_finite_difference_equivalence(self, alpha):
        rng = np.random.default_rng(alpha)
        profile = Profile(alpha)
        for _ in range(10):
            pts = rng.uniform(0, 1.5, size=(rng.integers(2, 11), 2))
            g = full_gradient(pts, 1.0, profile)
            fd = fd_gradient(pts, 1.0, profile)
            scale = max(1.0, np.abs(g).max())
            assert np.abs(fd - g).max() <= 1e-4 * scale


class TestKde:
    def test_single_sample_at_point(self):
        assert kde_value([0.0], np.array([[0.0]]), 1.0, P2) == 1.0

    def test_zero_outside_support(self):
        assert kde_value([5.0], np.array([[0.0], [1.0]]), 1.0, P2) == 0.0

    def test_hand_value(self):
        val = kde_value([0.0], np.array([[0.0], [1.0]]), 2.0, P2)
        assert val == pytest.approx(0.390625)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kde_value([0.0, 0.0], np.array([[1.0]]), 1.0, P2)

    def test_shift_parallel_to_kde_gradient(self):
        # the shift points along the density gradient for smooth profiles
        rng = np.random.default_rng(19)
        step = 1e-6
        checked = 0
        while checked < 15:
            pts = rng.uniform(-1, 1, size=(8, 2))
            x = rng.uniform(-0.8, 0.8, size=2)
            sv = mean_shift_operator(x, pts, 1.0, P2) - x
            fd = np.array(
                [
                    (
                        kde_value(x + dx, pts, 1.0, P2) - kde_value(x - dx, pts, 1.0, P2)
                    )
                    / (2 * step)
                    for dx in (np.array([step, 0.0]), np.array([0.0, step]))
                ]
            )
            ns, nf = np.linalg.norm(sv), np.linalg.norm(fd)
            if ns < 1e-8 or nf < 1e-8:
                continue
            cosine = float(sv @ fd / (ns * nf))
            assert cosine >= 1.0 - 1e-6
            checked += 1
