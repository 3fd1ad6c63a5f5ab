"""Cluster extraction from converged positions."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochshift import clustering
from stochshift.algorithms import AlgoConfig, run
from stochshift.clustering import MergePolicy, Partition, _diameter, cluster_summary, extract_clusters
from stochshift.core import _diff_sq_blocks, pairwise_sq_blocks
from stochshift.kernels import EPANECHNIKOV
from stochshift.synthdata import generate, parse_preset


class TestMergePolicy:
    def test_default_third(self):
        assert MergePolicy().merge_radius_factor == pytest.approx(1 / 3)

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.9, -0.1])
    def test_factor_bounds(self, bad):
        with pytest.raises(ValueError):
            MergePolicy(bad)


class TestPartition:
    def test_invariants(self):
        p = Partition(np.array([1, 1, 2]), 2)
        assert p.n == 3
        assert p.sizes().tolist() == [2, 1]

    def test_rejects_non_contiguous_ids(self):
        with pytest.raises(ValueError):
            Partition(np.array([1, 3]), 3)
        with pytest.raises(ValueError):
            Partition(np.array([0, 1]), 2)


class TestExtractClusters:
    def test_hand_example(self):
        pos = np.array([[0.0], [0.1], [5.0], [5.05]])
        part = extract_clusters(pos, 1.0)
        assert part.assignment.tolist() == [1, 1, 2, 2]
        assert part.n_clusters == 2

    def test_all_identical_single_cluster(self):
        part = extract_clusters(np.tile([[2.0, 2.0]], (6, 1)), 1.0)
        assert part.n_clusters == 1

    def test_far_apart_singletons(self):
        pos = np.array([[0.0], [2.0], [4.0], [6.0]])
        part = extract_clusters(pos, 1.0)
        assert part.n_clusters == 4
        assert part.assignment.tolist() == [1, 2, 3, 4]

    def test_single_linkage_chains(self):
        # consecutive gaps below tau chain into one component even though
        # the endpoints are far apart
        pos = np.arange(0.0, 3.0, 0.25)[:, None]
        part = extract_clusters(pos, 1.0, MergePolicy(0.3))
        assert part.n_clusters == 1

    def test_boundary_inclusive(self):
        tau = 1.0 / 3.0
        pos = np.array([[0.0], [tau]])
        part = extract_clusters(pos, 1.0)
        assert part.n_clusters == 1

    def test_ids_by_first_appearance(self):
        pos = np.array([[10.0], [0.0], [10.01], [0.02]])
        part = extract_clusters(pos, 1.0)
        assert part.assignment.tolist() == [1, 2, 1, 2]

    def test_large_collapsed_blocks(self):
        rng = np.random.default_rng(0)
        blob1 = np.full((1200, 2), 0.0) + rng.normal(scale=1e-9, size=(1200, 2))
        blob2 = np.full((800, 2), 5.0) + rng.normal(scale=1e-9, size=(800, 2))
        part = extract_clusters(np.vstack([blob1, blob2]), 1.0)
        assert part.n_clusters == 2
        assert part.sizes().tolist() == [1200, 800]


def union_find_clusters(pos, tau_sq):
    """Reference single linkage: union-find over the distance identity's rule.

    Each point unions the j with sq <= tau_sq in its row of
    core.pairwise_sq_blocks over all n points (its closed
    tau-neighbourhood); ids are numbered by first appearance.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    parent = np.arange(n)

    def roots(idx):
        r = parent[idx]
        while np.any(parent[r] != r):
            r = parent[r]
        return r

    for _, _, sq in pairwise_sq_blocks(pos, pos):
        for near in sq <= tau_sq:
            r = np.unique(roots(np.flatnonzero(near)))
            parent[r] = r[0]
    ids = np.zeros(n, dtype=np.int64)
    first = {}
    for i, r in enumerate(roots(np.arange(n)).tolist()):
        ids[i] = first.setdefault(r, len(first) + 1)
    return ids


class TestAgainstUnionFind:
    # tau = 0.25 * 4 = 1 exactly, so dyadic coordinates give exact distances
    POLICY, H = MergePolicy(0.25), 4.0

    def test_frontier_spanning_several_row_blocks(self):
        rng = np.random.default_rng(5)
        blob_a = rng.normal(scale=1e-9, size=(2950, 2))
        blob_b = [10.0, 0.0] + rng.normal(scale=1e-9, size=(1540, 2))
        chain = np.column_stack([np.arange(0.5, 10.0, 1.0), np.zeros(10)])  # gaps of exactly tau
        lone = np.column_stack([100.0 + 3.0 * np.arange(10), np.full(10, 50.0)])
        short_chain = np.column_stack([np.arange(50.0, 53.0), np.full(3, -20.0)])
        near_miss = [[0.0, 1.0 + 2.0**-20], [-5.0, 0.0], [-5.0, 1.0 + 2.0**-20]]
        rest = np.vstack([blob_a[1:], chain[1:], blob_b, lone, short_chain, near_miss])
        # the root is in blob A and the chain's first link is the last row of
        # the second frontier, so the chain grows only from its last block
        pos = np.vstack([blob_a[:1], rest[rng.permutation(rest.shape[0])], chain[:1]])
        assert pos.shape[0] >= 4500
        part = extract_clusters(pos, self.H, self.POLICY)
        expected = union_find_clusters(pos, 1.0)
        np.testing.assert_array_equal(part.assignment, expected)
        assert part.n_clusters == 1 + 10 + 1 + 3
        assert sorted(part.sizes().tolist())[-1] == 2950 + 10 + 1540

    @given(
        coords=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_small_integer_states(self, coords):
        # integer points: coincident points and pairs at exactly tau are common
        pos = np.asarray(coords, dtype=np.float64)
        part = extract_clusters(pos, self.H, self.POLICY)
        np.testing.assert_array_equal(part.assignment, union_find_clusters(pos, 1.0))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance_as_set_family(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    coords = data.draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    pos = np.asarray(coords)[:, None]
    perm = np.array(data.draw(st.permutations(range(n))))
    base = extract_clusters(pos, 1.0).assignment
    shuffled = extract_clusters(pos[perm], 1.0).assignment
    # same family of index sets after undoing the permutation
    family_base = {frozenset(np.flatnonzero(base == c).tolist()) for c in np.unique(base)}
    undo = np.empty(n, dtype=int)
    undo[perm] = np.arange(n)
    relabeled = shuffled[undo[np.arange(n)]]
    family_perm = {
        frozenset(np.flatnonzero(relabeled == c).tolist()) for c in np.unique(relabeled)
    }
    assert family_base == family_perm


@functools.lru_cache(maxsize=None)
def final_state(name, algo):
    """Final positions of one default run (h = 1, index seed 0) on a preset's data seed 0."""
    points = generate(parse_preset(name, seed=0)).points
    final, _ = run(points, AlgoConfig(algorithm=algo, profile=EPANECHNIKOV, h=1.0, seed=0))
    final.setflags(write=False)
    return final


PRESETS = ["set1", "set2", "set3", "set4", "imbalance:2", "dim:5"]
TAU_SQ = (1.0 / 3.0) ** 2  # the default policy at h = 1


class TestGridAgainstUnionFind:
    """The cell-grid search gives the partition of the all-pairs identity rule."""

    @pytest.mark.parametrize("algo", ["ms", "bms", "sms"])
    @pytest.mark.parametrize("name", PRESETS)
    def test_final_states(self, name, algo):
        state = final_state(name, algo)
        part = extract_clusters(state, 1.0)
        np.testing.assert_array_equal(part.assignment, union_find_clusters(state, TAU_SQ))

    @pytest.mark.parametrize("algo", ["ms", "bms", "sms"])
    @pytest.mark.parametrize("name", PRESETS)
    def test_permuted_final_states(self, name, algo):
        state = final_state(name, algo)
        perm = np.random.default_rng(sum(map(ord, name + algo))).permutation(state.shape[0])
        part = extract_clusters(state[perm], 1.0)
        np.testing.assert_array_equal(part.assignment, union_find_clusters(state[perm], TAU_SQ))

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    @pytest.mark.parametrize("algo", ["ms", "bms", "sms"])
    def test_far_from_the_origin(self, algo, offset):
        # the identity's rounding outgrows tau^2 near 1e7, so the cells grow
        state = final_state("set1", algo) + offset
        part = extract_clusters(state, 1.0)
        np.testing.assert_array_equal(part.assignment, union_find_clusters(state, TAU_SQ))
        assert part.n_clusters == extract_clusters(final_state("set1", algo), 1.0).n_clusters

    @pytest.mark.parametrize("name", ["set1", "dim:5"])
    def test_spread_data(self, name):
        # frontiers cross many cells, and dim:5 leaves hundreds of clusters
        points = generate(parse_preset(name, seed=0)).points
        part = extract_clusters(points, 1.0)
        np.testing.assert_array_equal(part.assignment, union_find_clusters(points, TAU_SQ))

    def test_linked_pairs_lie_in_searched_cells(self):
        # near 1e7 the identity's rounding (about eps |x|^2 = 0.04) links
        # pairs more than tau apart; the cells must grow to hold them
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.uniform(0.3, 0.4, size=300))
        pos = np.column_stack([x, rng.uniform(0.0, 0.02, size=300)]) + 1e7
        cell, _, _, near_cells = clustering._cell_grid(pos, TAU_SQ)
        beyond_tau = 0
        for lo, _, sq in pairwise_sq_blocks(pos, pos):
            for i, j in zip(*np.nonzero(sq <= TAU_SQ)):
                assert cell[j] in near_cells(np.array([cell[lo + i]]))
                diff = pos[lo + i] - pos[j]
                beyond_tau += diff @ diff > TAU_SQ
        assert beyond_tau > 0

    def test_cell_numbers_that_wrap(self):
        # integer points: exact distances; a spread of 2e6 over cells of
        # side about 1 needs about 1.5e25 numbers in four dimensions, past 2^64
        rng = np.random.default_rng(11)
        steps = np.zeros((200, 4), dtype=np.int64)
        steps[np.arange(200), rng.integers(0, 4, size=200)] = rng.choice([-1, 1], size=200)
        walk = np.cumsum(steps, axis=0)  # unit steps: one chain at gaps of exactly tau
        pts = np.vstack([rng.integers(-10**6, 10**6, size=(300, 4)), walk, walk[:40] + 2])
        pts = pts[rng.permutation(pts.shape[0])].astype(np.float64)
        part = extract_clusters(pts, 3.0)  # tau = 1
        np.testing.assert_array_equal(part.assignment, union_find_clusters(pts, 1.0))
        assert part.sizes().max() >= 200


def brute_diameter(points):
    return math.sqrt(max(float(sq.max()) for _, _, sq in _diff_sq_blocks(points)))


def diameter_cases():
    rng = np.random.default_rng(3)
    t = 2.0 * np.pi * np.arange(360) / 360
    k = np.arange(500) + 0.5
    polar, azimuth = np.arccos(1.0 - 2.0 * k / 500), np.pi * (1.0 + 5.0**0.5) * k
    return {
        "circle": np.column_stack([np.cos(t), np.sin(t)]),
        "sphere": np.column_stack(
            [np.cos(azimuth) * np.sin(polar), np.sin(azimuth) * np.sin(polar), np.cos(polar)]
        ),
        "duplicates": np.repeat(rng.normal(size=(3, 2)), 50, axis=0)[rng.permutation(150)],
        "all_equal": np.tile([[0.25, -4.0]], (40, 1)),
        "single": np.array([[0.3, -0.7]]),
        "spread_1e-10": [1.0, -2.0] + rng.normal(scale=1e-10, size=(400, 2)),
        "d1": rng.normal(size=(300, 1)),
        "d5": rng.normal(size=(300, 5)),
        "d5_spread_1e-10": rng.normal(scale=1e-10, size=(300, 5)),
    }


class TestDiameter:
    """The pruned diameter equals the all-pairs maximum, to the bit."""

    @pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
    @pytest.mark.parametrize("case", sorted(diameter_cases()))
    def test_equals_all_pairs(self, case, offset):
        points = diameter_cases()[case] + offset
        assert _diameter(points) == brute_diameter(points)

    @pytest.mark.parametrize("algo", ["ms", "bms", "sms"])
    def test_final_state_clusters(self, algo):
        state = final_state("set3", algo)
        part = extract_clusters(state, 1.0)
        for cid in range(1, part.n_clusters + 1):
            members = state[part.assignment == cid]
            assert _diameter(members) == brute_diameter(members)

    def test_collapsed_cluster_visits_few_rows(self, monkeypatch):
        rows = []
        exact = clustering._diff_sq_rows
        monkeypatch.setattr(clustering, "_diff_sq_rows", lambda p, r: rows.append(len(r)) or exact(p, r))
        members = [1.0, -2.0] + np.random.default_rng(4).normal(scale=1e-10, size=(3000, 2))
        assert _diameter(members) == brute_diameter(members)
        assert sum(rows) <= 64


class TestDiameterShrinkage:
    def test_longer_budget_never_grows_cluster_diameters(self):
        # same seed means the longer run replays the shorter run's updates
        # (draws are state-independent), then keeps contracting
        from stochshift.algorithms import AlgoConfig, sms_run
        from stochshift.kernels import EPANECHNIKOV
        from stochshift.synthdata import generate, preset

        data = generate(preset("set2", seed=3))
        diameters = []
        for budget in (5 * data.n, 50 * data.n):
            cfg = AlgoConfig(
                algorithm="sms", profile=EPANECHNIKOV, h=1.0, seed=12, max_updates=budget
            )
            final, _ = sms_run(data.points, cfg)
            part = extract_clusters(final, 1.0)
            worst = 0.0
            for cid in range(1, part.n_clusters + 1):
                members = final[part.assignment == cid]
                diff = members[:, None, :] - members[None, :, :]
                worst = max(worst, float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max())))
            diameters.append(worst)
        assert diameters[1] <= diameters[0] + 1e-9


class TestSummary:
    def test_summary_fields(self):
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        part = extract_clusters(pos, 1.0)
        summary = cluster_summary(pos, part)
        assert [s["size"] for s in summary] == [2, 1]
        assert summary[0]["diameter"] == pytest.approx(0.1)
        assert summary[1]["centroid"] == [5.0, 5.0]

    def test_partition_of_another_length_rejected(self):
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        with pytest.raises(ValueError, match=r"partition labels 2 points, but positions have shape \(3, 2\)"):
            cluster_summary(pos, Partition(np.array([1, 2]), 2))

    def test_diameter_peak_memory_on_collapsed_cluster(self):
        n = 4000
        pos = np.tile([[1.0, -2.0]], (n, 1))
        pos[-1] += [3e-10, 4e-10]
        part = Partition(np.ones(n, dtype=np.int64), 1)
        tracemalloc.start()
        try:
            summary = cluster_summary(pos, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary[0]["size"] == n
        diff = pos[-1] - pos[0]
        assert summary[0]["diameter"] == float(np.sqrt(diff @ diff))
        assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"


class TestCollapsedPeakMemory:
    """Extraction and summary of a collapsed state hold no distance block.

    The all-pairs forms peaked near the 80 MB and 200 MB that
    test_theory.py and TestSummary still allow.
    """

    N = 4000

    @staticmethod
    def traced_peak(fn):
        """``(fn(), peak traced bytes)``."""
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def collapsed(self):
        return [1.0, -2.0] + np.random.default_rng(6).normal(scale=1e-10, size=(self.N, 2))

    def test_extract_clusters(self):
        state = self.collapsed()
        part, peak = self.traced_peak(lambda: extract_clusters(state, 1.0))
        assert part.n_clusters == 1
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_cluster_summary(self):
        state = self.collapsed()
        part = Partition(np.ones(self.N, dtype=np.int64), 1)
        summary, peak = self.traced_peak(lambda: cluster_summary(state, part))
        assert summary[0]["diameter"] == brute_diameter(state)
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
