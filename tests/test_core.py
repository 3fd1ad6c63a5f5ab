"""State operations: the h-ball, the mean-shift operator, objective, gradients, KDE."""

import numpy as np
import pytest

from stochshift import _native
from stochshift.algorithms import AlgoConfig, _shift_rows, sms_run
from stochshift.core import _sorted_unique, full_gradient, gradient_max_norm, objective_value
from stochshift.kernels import EPANECHNIKOV, Profile
from stochshift.synthdata import generate, parse_preset

P2 = Profile(2)


def numpy_body(fn, *args):
    """``fn(*args)`` with the kernel unavailable: the numpy body, the compiled path's reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        return fn(*args)


def mean_shift(x, points, h, profile):
    """S_h(x) from ``_shift_rows``, the one batch map, on the default runner (the kernel if it loads) and numpy."""
    cfg = AlgoConfig(profile=profile, h=h)
    query = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return [_shift_rows(query, points, cfg)[0][0], numpy_body(_shift_rows, query, points, cfg)[0][0]]


def kde_sum(x, points, h, profile):
    """sum_i K((x - x_i) / h), the KDE at x times n h^d, read off ``objective_value`` with x appended as a row."""
    with_x = np.vstack([points, np.asarray(x, dtype=np.float64)])
    return objective_value(with_x, h, profile) - objective_value(points, h, profile) - 1.0


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


@pytest.mark.parametrize("values", [
    pytest.param([], id="empty"),
    pytest.param([7], id="one"),
    pytest.param([3, 3, 3], id="all-equal"),
    pytest.param([[4, -1], [4, 2], [-1, 0]], id="2-d"),
    pytest.param(np.random.default_rng(0).integers(-5, 6, size=200), id="random"),
])
def test_sorted_unique_is_np_unique(values):
    values = np.asarray(values, dtype=np.int64)
    out = _sorted_unique(values)
    assert out.dtype == values.dtype
    np.testing.assert_array_equal(out, np.unique(values))


class TestNeighborhood:
    """The h-ball that S_h averages, seen through the uniform weight: a plain mean over it."""

    def test_hand_example(self):
        pts = np.array([[-0.5], [0.5], [2.0]])
        for out in mean_shift([0.0], pts, 1.0, EPANECHNIKOV):
            np.testing.assert_array_equal(out, [0.0])  # the mean of rows 0 and 1, not of all three

    def test_self_at_distance_zero(self):
        # the query's own row counts: without it the mean would be 0.6
        for out in mean_shift([0.0], np.array([[0.0], [0.6]]), 1.0, EPANECHNIKOV):
            np.testing.assert_allclose(out, [0.3], rtol=1e-15)

    def test_strict_inequality_at_h(self):
        # a row exactly h away has no weight: with it the mean would be 0.5
        for out in mean_shift([0.0], np.array([[0.0], [1.0]]), 1.0, EPANECHNIKOV):
            np.testing.assert_array_equal(out, [0.0])


class TestMeanShiftOperator:
    def test_epanechnikov_plain_mean(self):
        pts = np.array([[-0.5], [0.5], [2.0]])
        for out in mean_shift([0.0], pts, 1.0, EPANECHNIKOV):
            np.testing.assert_allclose(out, [0.0])

    def test_biweight_weighted_mean(self):
        pts = np.array([[0.0], [0.5]])
        for out in mean_shift([0.0], pts, 1.0, P2):
            np.testing.assert_allclose(out, [1.5 * 0.5 / 3.5])

    def test_single_point_fixed(self):
        pts = np.array([[1.0, 2.0]])
        for out in mean_shift([1.0, 2.0], pts, 1.0, P2):
            np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_isolated_query_returned_unchanged(self):
        pts = np.array([[5.0]])
        for out in mean_shift([0.0], pts, 1.0, P2):
            np.testing.assert_array_equal(out, [0.0])

    def test_output_in_neighborhood_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.uniform(-1, 1, size=(rng.integers(2, 12), 2))
            x = rng.uniform(-1, 1, size=2)
            idx = np.flatnonzero(np.einsum("ij,ij->i", pts - x, pts - x) < 1.0)
            if idx.size == 0:
                continue
            lo = pts[idx].min(axis=0) - 1e-12
            hi = pts[idx].max(axis=0) + 1e-12
            for out in mean_shift(x, pts, 1.0, P2):
                assert np.all(out >= lo) and np.all(out <= hi)


class TestShiftVector:
    """The mean-shift vector S_h(x) - x."""

    def test_hand_example(self):
        pts = np.array([[0.0], [0.5]])
        x = np.array([0.0])
        for out in mean_shift(x, pts, 1.0, P2):
            np.testing.assert_allclose(out - x, [1.5 * 0.5 / 3.5])

    def test_zero_at_barycenter(self):
        pts = np.array([[-0.3], [0.3]])
        x = np.array([0.0])
        for out in mean_shift(x, pts, 1.0, EPANECHNIKOV):
            np.testing.assert_allclose(out - x, [0.0], atol=1e-15)

    def test_isolated_zero(self):
        x = np.array([0.0])
        for out in mean_shift(x, np.array([[9.0]]), 1.0, P2):
            np.testing.assert_array_equal(out - x, [0.0])


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
        np.testing.assert_allclose(full_gradient(pts, 1.0, P2), [[1.5], [-1.5]])

    def test_full_matches_partials(self):
        # each row against (2 / h^2) sum_{j != i} G_ij (x_j - x_i) from direct differences
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1.5, size=(8, 2))
        g = full_gradient(pts, 0.9, P2)
        for i in range(8):
            diff = pts - pts[i]
            w = 2.0 * np.clip(1.0 - np.einsum("ij,ij->i", diff, diff) / 0.81, 0.0, None)  # biweight G
            np.testing.assert_allclose(g[i], (2.0 / 0.81) * (w @ diff), atol=1e-12)

    def test_exact_zero_at_critical_states(self):
        coincident = np.tile([[0.7, -0.2]], (4, 1))
        assert gradient_max_norm(full_gradient(coincident, 1.0, P2)) == 0.0
        separated = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert gradient_max_norm(full_gradient(separated, 1.0, P2)) == 0.0

    def test_identity_with_shift_vector(self):
        # grad_i = (2 sum_j G / h^2) * (S_h(x_i) - x_i), including the self weight
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(rng.integers(2, 10), 2))
            h = rng.uniform(0.5, 1.5)
            grad = full_gradient(pts, h, P2)
            for i in range(pts.shape[0]):
                diff = pts - pts[i]
                t = np.einsum("ij,ij->i", diff, diff) / (h * h)
                w = -(-2.0) * np.clip(1.0 - t, 0.0, None)  # biweight G values
                total = w.sum()
                lhs = grad[i]
                scale = max(1.0, np.abs(lhs).max())
                for out in mean_shift(pts[i], pts, h, P2):
                    rhs = (2.0 * total / (h * h)) * (out - pts[i])
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
    """The KDE at x, times n h^d: ``kde_sum``, the objective's gain from appending x."""

    def test_single_sample_at_point(self):
        assert kde_sum([0.0], np.array([[0.0]]), 1.0, P2) == 1.0

    def test_zero_outside_support(self):
        assert kde_sum([5.0], np.array([[0.0], [1.0]]), 1.0, P2) == 0.0

    def test_hand_value(self):
        val = kde_sum([0.0], np.array([[0.0], [1.0]]), 2.0, P2) / (2 * 2.0)
        assert val == pytest.approx(0.390625)

    def test_shift_parallel_to_kde_gradient(self):
        # the shift points along the density gradient for smooth profiles
        rng = np.random.default_rng(19)
        step = 1e-6
        checked = 0
        while checked < 15:
            pts = rng.uniform(-1, 1, size=(8, 2))
            x = rng.uniform(-0.8, 0.8, size=2)
            fd = np.array(
                [
                    (kde_sum(x + dx, pts, 1.0, P2) - kde_sum(x - dx, pts, 1.0, P2)) / (2 * step)
                    for dx in (np.array([step, 0.0]), np.array([0.0, step]))
                ]
            )
            svs = [out - x for out in mean_shift(x, pts, 1.0, P2)]
            nf = np.linalg.norm(fd)
            if min(np.linalg.norm(sv) for sv in svs) < 1e-8 or nf < 1e-8:
                continue
            for sv in svs:
                cosine = float(sv @ fd / (np.linalg.norm(sv) * nf))
                assert cosine >= 1.0 - 1e-6
            checked += 1


class TestCompiledReductions:
    """The kernel's objective (``pair_objective``) and gradient (``shift_rows`` with totals) against the numpy bodies."""

    @pytest.fixture(autouse=True)
    def needs_kernel(self):
        if _native.load() is None:
            pytest.skip("the kernel could not be built here (no gcc?)")

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("name", ["set1", "set2", "set4", "imbalance:2", "dim:5"])
    def test_presets_match_numpy_bodies(self, name, alpha):
        # the initial state and the converged one (2-D: on the sample grid;
        # dim:5: the plain loop) and an n < 128 state (the plain loop).  The
        # gradient's unit is verify's: max(1, sup norm of the state's
        # starting gradient), since a converged state's gradient is
        # rounding noise of either summation order
        profile = Profile(alpha)
        data = generate(parse_preset(name, seed=0))
        final = sms_run(data.points, AlgoConfig(profile=profile, seed=1))[0]
        small = data.points[:100]
        for state, start in ((data.points, data.points), (final, data.points), (small, small)):
            ref = numpy_body(objective_value, state, 1.0, profile)
            assert abs(objective_value(state, 1.0, profile) - ref) <= 1e-12 * ref
            scale = max(1.0, np.abs(numpy_body(full_gradient, start, 1.0, profile)).max())
            gap = np.abs(full_gradient(state, 1.0, profile) - numpy_body(full_gradient, state, 1.0, profile)).max()
            assert gap <= 1e-12 * scale, (state.shape, gap / scale)

    @pytest.mark.parametrize("check", [TestObjective.test_two_coincident, TestObjective.test_two_far,
                                       TestGradients.test_exact_zero_at_critical_states])
    def test_exact_values_hold_on_the_numpy_body(self, check):
        # the same checks run on the kernel in their own classes
        numpy_body(check, None)
