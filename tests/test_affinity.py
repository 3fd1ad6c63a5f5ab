"""Spherical normalisation and score-matrix SMS."""

import numpy as np
import pytest

from stochshift import _native
from stochshift.affinity import (
    PreprocessConfig,
    knn_sms_run,
    spherical_normalize,
    top_score_neighbors,
)
from stochshift.algorithms import AlgoConfig, RandomIndexStream, _sms_move
from stochshift.kernels import EPANECHNIKOV
from stochshift.synthdata import generate, parse_preset


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


def sorting_loop(s, k):
    """The rule, as one stable sort per column: descending score, ties to the lower index, self excluded."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty((s.shape[0], k), dtype=np.int64)
    for i in range(s.shape[0]):
        order = np.argsort(-s[:, i], kind="stable")
        out[i] = order[order != i][:k]
    return out


def numpy_body(scores, k):
    """``top_score_neighbors`` on its numpy body, the compiled kernel's fallback and reference."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        return top_score_neighbors(scores, k)


def assert_same_table(scores, k):
    """The table of the path under test is the numpy body's and the sorting loop's."""
    out = top_score_neighbors(scores, k)
    assert out.dtype == np.int64 and out.shape == (np.shape(scores)[0], k)
    np.testing.assert_array_equal(out, numpy_body(scores, k))
    np.testing.assert_array_equal(out, sorting_loop(scores, k))


def signed_zeros(n, seed):
    """An (n, n) matrix of -1, -0.0, 0.0 and 1, so most ties are between the two zeros."""
    return np.random.default_rng(seed).choice([-1.0, -0.0, 0.0, 1.0], size=(n, n), p=[0.1, 0.4, 0.4, 0.1])


class TestTopScoreNeighbors:
    """On the compiled kernel when it loads; ``TestTopScoreNeighborsOnNumpy`` runs every test again on the numpy body."""

    def test_kernel_called_when_it_loads(self, monkeypatch):
        calls = []
        kernel_top_k = _native.top_k
        monkeypatch.setattr(_native, "top_k", lambda *a: calls.append(1) or kernel_top_k(*a))
        top_score_neighbors(np.zeros((3, 3)), 1)
        assert len(calls) == (_native.load() is not None)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.zeros((4, 4))
        scores[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            top_score_neighbors(scores, 2)

    def test_matches_sorting_loop_on_tie_heavy_matrices(self):
        # few distinct values force ties across the k-th place
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n))
            assert_same_table(rng.integers(-2, 3, size=(n, n)).astype(np.float64), k)

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros_tie(self, seed):
        # -0.0 and 0.0 are the same score, so they tie to the lower index
        scores = signed_zeros(25, seed)
        for k in (1, 5, 24):
            assert_same_table(scores, k)

    @pytest.mark.parametrize("value", [0.0, -0.0, 3.5, -1e300])
    def test_all_equal_matrices(self, value):
        n = 7
        for k in range(1, n):
            assert_same_table(np.full((n, n), value), k)
            np.testing.assert_array_equal(top_score_neighbors(np.full((n, n), value), k)[3],
                                          [0, 1, 2, 4, 5, 6][:k])

    @pytest.mark.parametrize("scores", [[[0.0, 1.0], [2.0, 3.0]], [[5.0, 5.0], [5.0, 5.0]], [[1.0, -0.0], [0.0, 2.0]]])
    def test_two_points(self, scores):
        np.testing.assert_array_equal(top_score_neighbors(np.array(scores), 1), [[1], [0]])

    @pytest.mark.parametrize("n", [3, 30])
    def test_every_other_point(self, n):
        # k = n - 1 ranks all n - 1 others of each column
        rng = np.random.default_rng(n)
        assert_same_table(rng.normal(size=(n, n)), n - 1)
        assert_same_table(rng.integers(-1, 2, size=(n, n)).astype(np.float64), n - 1)
        assert_same_table(signed_zeros(n, 0), n - 1)

    @pytest.mark.parametrize("view", ["transposed", "strided", "reversed", "broadcast", "unaligned"])
    def test_views(self, view):
        # the kernel reads a C-ordered, aligned matrix and the wrapper copies
        # any other view into one; every view gives the table of the same
        # values in a fresh C-contiguous array
        n = 23
        rng = np.random.default_rng(7)
        base = rng.integers(-3, 4, size=(3 * n, 2 * n)).astype(np.float64)
        if view == "transposed":
            scores = base[:n, :n].copy().T
        elif view == "strided":
            scores = base[::3, ::2]
        elif view == "reversed":
            scores = base[n - 1::-1, 2 * n - 1:n - 1:-1]
        elif view == "broadcast":
            scores = np.broadcast_to(base[:n, :1], (n, n))
        else:
            raw = np.zeros(n * n * 8 + 1, dtype=np.uint8)[1:].view(np.float64).reshape(n, n)
            raw[...] = base[:n, :n]
            assert not raw.flags.aligned
            scores = raw
        assert scores.shape == (n, n) and not (scores.flags.c_contiguous and scores.flags.aligned)
        for k in (1, 4, n - 1):
            np.testing.assert_array_equal(top_score_neighbors(scores, k), numpy_body(scores.copy(), k))
            assert_same_table(scores, k)

    def test_float32_scores(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(30, 30)).astype(np.float32)
        scores[::4] = scores[1::4]  # ties between rows
        for k in (1, 6, 29):
            assert_same_table(scores, k)
            np.testing.assert_array_equal(top_score_neighbors(scores, k),
                                          top_score_neighbors(scores.astype(np.float64), k))

    def test_scalar_scores_rejected(self):
        with pytest.raises(ValueError, match=r"score matrix must be a square \(n, n\) array, got shape \(\)"):
            top_score_neighbors(3.0, 1)


class TestTopScoreNeighborsOnNumpy(TestTopScoreNeighbors):
    """Every test of ``TestTopScoreNeighbors`` again, with the kernel unavailable: the numpy body."""

    @pytest.fixture(autouse=True)
    def numpy_path(self, monkeypatch):
        monkeypatch.setattr(_native, "load", lambda: None)


class TestCompiledTopK:
    """The wrapper's own checks, which the library relies on."""

    @pytest.mark.parametrize("scores, k", [
        pytest.param(np.zeros((3, 3), dtype=np.float32), 1, id="float32"),
        pytest.param(np.zeros((3, 4)), 1, id="not-square"),
        pytest.param(np.zeros((3, 3)), 3, id="k-too-high"),
        pytest.param(np.zeros((3, 3)), 0, id="k-zero"),
        pytest.param(np.zeros((1, 1)), 1, id="one-point"),
    ])
    def test_rejected_before_the_library(self, scores, k):
        class NoCalls:
            def __getattr__(self, name):
                raise AssertionError(f"kernel function {name} reached")

        with pytest.raises(ValueError, match="the kernel needs"):
            _native.top_k(NoCalls(), scores, k)


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
        first = int(RandomIndexStream(1).draw_block(10, 1)[0])
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
        # neighbourhood without the centre
        pts = np.array([[0.0], [0.1], [0.2], [5.0]])
        diff = pts[:, None, :] - pts[None, :, :]
        scores = -np.einsum("ijk,ijk->ij", diff, diff)
        i = 1
        ball = {0, 2}  # the rows within 0.5 of row 1, itself left out
        sets = top_score_neighbors(scores, len(ball))
        assert set(sets[i].tolist()) == ball

    def test_step_agrees_with_uniform_sms_at_barycenter(self):
        # when the drawn point already sits at the mean of its ball the
        # self-inclusive uniform update and the self-excluding kNN update agree
        pts = np.array([[0.0], [-0.2], [0.2], [9.0]])
        diff = pts[:, None, :] - pts[None, :, :]
        scores = -np.einsum("ijk,ijk->ij", diff, diff)
        seed = next(
            s for s in range(100) if RandomIndexStream(s).draw_block(4, 1)[0] == 0
        )
        cfg = AlgoConfig(profile=EPANECHNIKOV, h=0.5, seed=seed, max_updates=4)
        stepped = pts.copy()
        i = int(RandomIndexStream(seed).draw_block(4, 1)[0])
        shift, _, _ = _sms_move(stepped, cfg)(i)
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


def embedding(name, target_dim, step):
    """Every step-th point of preset ``name`` (data seed 0), spherically normalised, and its cosine scores."""
    pts = generate(parse_preset(name, seed=0)).points[::step]
    z = spherical_normalize(pts, PreprocessConfig(target_dim=target_dim))
    return z, z @ z.T


def assert_same_knn_run(points, scores, k, cfg, monkeypatch):
    """The compiled score-matrix runner takes the numpy runner's steps, to the same bits.

    For d >= 2 both sum a point's k neighbour rows in order and divide by
    k, so update counts, moved indices, stop reasons and final positions
    are identical.  The shifts are index-order sums in C and BLAS dot
    products in numpy, so they agree within 4 eps relative, and a stop
    decision can differ only for a shift within rounding of the
    tolerance; the runs here have none.
    """
    blocks = []
    kernel_run = _native.KnnBlockKernel.run

    def counted(self, idx):
        blocks.append(idx.shape[0])
        return kernel_run(self, idx)

    with monkeypatch.context() as m:
        m.setattr(_native.KnnBlockKernel, "run", counted)
        final, trace = knn_sms_run(points, scores, k, cfg)
    assert blocks, "the run did not reach the kernel"
    with monkeypatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        ref_final, ref = knn_sms_run(points, scores, k, cfg)
    np.testing.assert_array_equal(trace.update_count, ref.update_count)
    np.testing.assert_array_equal(trace.moved_index, ref.moved_index)
    assert (trace.total_updates, trace.stop_reason) == (ref.total_updates, ref.stop_reason)
    np.testing.assert_array_equal(final, ref_final)
    np.testing.assert_allclose(trace.shift, ref.shift, rtol=4 * np.finfo(np.float64).eps, atol=0)
    return trace


class TestCompiledKnnSms:
    """The C runner of score-matrix SMS against the numpy runner, its reference."""

    @pytest.fixture(autouse=True)
    def needs_kernel(self):
        if _native.load() is None:
            pytest.skip("the kernel could not be built here (no gcc?)")

    # subsamples keep the numpy reference runs short; a 2-D embedding
    # does not settle within 1e7 updates, so its budget is capped
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name, target_dim, step, budget, reason", [
        pytest.param("dim:16", 8, 5, 10_000_000, "converged", id="dim:16"),
        pytest.param("dim:5", 4, 10, 10_000_000, "converged", id="dim:5"),
        pytest.param("set1", 2, 5, 10_000, "max_updates", id="set1-2d"),
    ])
    def test_embeddings_match_numpy_runner(self, name, target_dim, step, budget, reason, seed, monkeypatch):
        z, scores = embedding(name, target_dim, step)
        trace = assert_same_knn_run(z, scores, 10, AlgoConfig(seed=seed, max_updates=budget), monkeypatch)
        assert trace.stop_reason == reason

    @pytest.mark.parametrize("k", [3, 8, 13])
    def test_one_column_matches_numpy_runner(self, k, monkeypatch):
        # numpy's mean would sum a (k, 1) gather of k >= 8 rows pairwise; the
        # numpy runner sums in index order, as the kernel does
        pts = np.random.default_rng(9).normal(size=(40, 1))
        diff = pts - pts.T
        trace = assert_same_knn_run(pts, -diff * diff, k, AlgoConfig(seed=2), monkeypatch)
        assert trace.stop_reason == "converged"

    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("d", [1, 3, 4, 5, 8, 9, 16])
    def test_column_groups_match_numpy_runner(self, d, k, monkeypatch):
        # the kernel sums whole groups of four columns in registers and the
        # d mod 4 left over one at a time, each column in neighbour order
        rng = np.random.default_rng(100 * d + k)
        pts = rng.normal(size=(40, d)) + 3.0 * rng.integers(0, 3, size=(40, 1))
        diff = pts[:, None, :] - pts[None, :, :]
        scores = -np.einsum("ijk,ijk->ij", diff, diff)
        assert_same_knn_run(pts, scores, k, AlgoConfig(seed=d + k, max_updates=20_000), monkeypatch)

    @pytest.mark.parametrize("table", ["too_high", "negative", "self", "short", "int32", "empty"])
    def test_bad_neighbour_table_rejected_before_the_kernel(self, table):
        class NoCalls:
            def __getattr__(self, name):
                raise AssertionError(f"kernel function {name} reached")

        n = 12
        pts = np.random.default_rng(1).normal(size=(n, 3))
        nb = (np.arange(n)[:, None] + np.arange(1, 4)) % n
        if table == "too_high":
            nb[5, 1] = n
        elif table == "negative":
            nb[0, 0] = -1
        elif table == "self":
            nb[7, 2] = 7
        elif table == "short":
            nb = nb[:-1]
        elif table == "int32":
            nb = nb.astype(np.int32)
        elif table == "empty":
            nb = nb[:, :0]
        with pytest.raises(ValueError, match="neighbour"):
            _native.KnnBlockKernel(NoCalls(), pts, nb, 1e-6, 4096)
