"""Cluster extraction from converged positions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochshift.clustering import MergePolicy, Partition, cluster_summary, extract_clusters


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
    """Reference single linkage: union-find over direct 2-D differences.

    Each point unions its closed tau-neighbourhood; ids are numbered by
    first appearance.
    """
    n = pos.shape[0]
    parent = np.arange(n)

    def roots(idx):
        r = parent[idx]
        while np.any(parent[r] != r):
            r = parent[r]
        return r

    for i in range(n):
        diff = pos - pos[i]
        near = np.flatnonzero(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] <= tau_sq)
        r = np.unique(roots(near))
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
