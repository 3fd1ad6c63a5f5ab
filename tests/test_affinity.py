"""Spherical normalisation and score-matrix SMS."""

import numpy as np
import pytest

from stochshift.affinity import (
    PreprocessConfig,
    knn_sms_run,
    spherical_normalize,
    top_score_neighbors,
)
from stochshift.algorithms import AlgoConfig, RandomIndexStream, sms_step
from stochshift.core import neighborhood
from stochshift.kernels import EPANECHNIKOV


class TestSphericalNormalize:
    def test_unit_output_norms(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 6))
        out = spherical_normalize(pts, PreprocessConfig(target_dim=3))
        assert out.shape == (40, 3)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_full_dimension_keeps_unit_norms(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 4))
        out = spherical_normalize(pts, PreprocessConfig(target_dim=4, whiten_epsilon=1e-9))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_line_through_origin_collapses_to_signs(self):
        ts = np.array([-3.0, -1.5, -0.2, 0.4, 1.0, 2.5])
        pts = np.outer(ts, [2.0, 1.0])
        out = spherical_normalize(pts, PreprocessConfig(target_dim=1))
        assert set(np.round(out.ravel(), 12)) <= {-1.0, 1.0}
        # both signs occur: the sample splits along the line
        assert len(set(np.sign(out.ravel()))) == 2

    def test_zero_norm_row_rejected(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm"):
            spherical_normalize(pts, PreprocessConfig(target_dim=1))

    def test_rank_deficient_requires_epsilon(self):
        # after l2 normalisation the data spans one direction only
        pts = np.outer(np.array([1.0, 2.0, 3.0, 4.0]), [1.0, 1.0])
        pts[2:] *= -1
        with pytest.raises(ValueError, match="whiten_epsilon"):
            spherical_normalize(pts, PreprocessConfig(target_dim=2))
        out = spherical_normalize(pts, PreprocessConfig(target_dim=2, whiten_epsilon=1e-6))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            spherical_normalize(np.ones((2, 5)), PreprocessConfig(target_dim=3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(target_dim=0)
        with pytest.raises(ValueError):
            PreprocessConfig(target_dim=2, whiten_epsilon=-1.0)


class TestTopScoreNeighbors:
    def test_highest_scores_win(self):
        scores = np.array(
            [
                [0.0, 5.0, 1.0],
                [9.0, 0.0, 2.0],
                [4.0, 7.0, 0.0],
            ]
        )
        # column i holds scores s(phi_j, phi_i)
        nbrs = top_score_neighbors(scores, 1)
        assert nbrs[0].tolist() == [1]  # s(1,0)=9 beats s(2,0)=4
        assert nbrs[1].tolist() == [2]  # s(2,1)=7 beats s(0,1)=5
        assert nbrs[2].tolist() == [1]  # s(1,2)=2 beats s(0,2)=1

    def test_all_equal_scores_tie_to_lowest_indices(self):
        scores = np.zeros((5, 5))
        nbrs = top_score_neighbors(scores, 3)
        assert nbrs[0].tolist() == [1, 2, 3]
        assert nbrs[2].tolist() == [0, 1, 3]

    def test_self_excluded(self):
        scores = np.full((4, 4), -1.0)
        np.fill_diagonal(scores, 100.0)
        nbrs = top_score_neighbors(scores, 2)
        for i in range(4):
            assert i not in nbrs[i]

    def test_k_range(self):
        with pytest.raises(ValueError, match="k must"):
            top_score_neighbors(np.zeros((3, 3)), 3)
        with pytest.raises(ValueError, match="k must"):
            top_score_neighbors(np.zeros((3, 3)), 0)

    def test_square_required(self):
        with pytest.raises(ValueError, match="score matrix"):
            top_score_neighbors(np.zeros((3, 4)), 1)


class TestKnnSmsRun:
    def test_two_points_converge_to_common_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        scores = np.zeros((2, 2))
        cfg = AlgoConfig(seed=3, max_updates=1000)
        final, trace = knn_sms_run(pts, scores, 1, cfg)
        assert trace.stop_reason == "converged"
        np.testing.assert_allclose(final[0], final[1], atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        scores = rng.normal(size=(12, 12))
        cfg = AlgoConfig(seed=17, max_updates=5000)
        f1, t1 = knn_sms_run(pts, scores, 4, cfg)
        f2, t2 = knn_sms_run(pts, scores, 4, cfg)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(t1.moved_index, t2.moved_index)

    def test_moved_point_in_neighbor_hull(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(10, 2))
        scores = rng.normal(size=(10, 10))
        sets = top_score_neighbors(scores, 3)
        cfg = AlgoConfig(seed=1, max_updates=10)
        stream_probe = RandomIndexStream(1)
        first = stream_probe.draw(10)
        final, trace = knn_sms_run(pts, scores, 3, AlgoConfig(seed=1, max_updates=10))
        assert trace.moved_index[0] == first
        moved = final if trace.total_updates == 1 else None
        nbr_pts = pts[sets[first]]
        lo, hi = nbr_pts.min(axis=0) - 1e-12, nbr_pts.max(axis=0) + 1e-12
        # reconstruct the first update alone
        expected = nbr_pts.mean(axis=0)
        assert np.all(expected >= lo) and np.all(expected <= hi)

    def test_distance_scores_select_ball_minus_self(self):
        # with scores = -squared distance the top-k set is the h-ball
        # neighbourhood without the centre, cross-checking the geometry path
        pts = np.array([[0.0], [0.1], [0.2], [5.0]])
        diff = pts[:, None, :] - pts[None, :, :]
        scores = -np.einsum("ijk,ijk->ij", diff, diff)
        i = 1
        ball = set(neighborhood(pts[i], pts, 0.5).tolist()) - {i}
        sets = top_score_neighbors(scores, len(ball))
        assert set(sets[i].tolist()) == ball

    def test_step_agrees_with_uniform_sms_at_barycenter(self):
        # when the drawn point already sits at the mean of its ball the
        # self-inclusive uniform update and the self-excluding kNN update agree
        pts = np.array([[0.0], [-0.2], [0.2], [9.0]])
        diff = pts[:, None, :] - pts[None, :, :]
        scores = -np.einsum("ijk,ijk->ij", diff, diff)
        seed = next(
            s for s in range(100) if RandomIndexStream(s).draw(4) == 0
        )
        cfg = AlgoConfig(profile=EPANECHNIKOV, h=0.5, seed=seed, max_updates=4)
        stepped, i, shift = sms_step(pts, cfg, RandomIndexStream(seed))
        assert i == 0 and shift == pytest.approx(0.0)
        final, trace = knn_sms_run(pts, scores, 2, AlgoConfig(seed=seed, max_updates=4))
        assert trace.moved_index[0] == 0
        np.testing.assert_allclose(final[0], stepped[0], atol=1e-15)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="max_updates"):
            knn_sms_run(np.zeros((5, 1)), np.zeros((5, 5)), 1, AlgoConfig(max_updates=3))

    @pytest.mark.parametrize("m", [20, 40])
    def test_score_matrix_of_another_size_rejected(self, m):
        # checked before the first step, not met as a bad index mid-run
        pts = np.random.default_rng(5).normal(size=(30, 3))
        scores = np.random.default_rng(6).normal(size=(m, m))
        with pytest.raises(ValueError, match="for 30 points"):
            knn_sms_run(pts, scores, 3, AlgoConfig())

    @pytest.mark.parametrize("flag", ["trace_objective", "trace_gradient"])
    def test_traced_config_rejected(self, flag):
        # the neighbour-mean move has no objective, so a trace would be all None
        pts = np.random.default_rng(4).normal(size=(30, 3))
        pts /= np.sqrt(np.einsum("ij,ij->i", pts, pts))[:, None]
        with pytest.raises(ValueError, match="trace"):
            knn_sms_run(pts, pts @ pts.T, 3, AlgoConfig(**{flag: True}))
