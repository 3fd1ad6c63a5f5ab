"""Purity metrics against brute-force oracles written from the definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochshift.metrics import (
    ContingencyTable,
    acp,
    alp,
    contingency,
    g_score,
    k_score,
    metrics_report,
    purity_cd,
    purity_dc,
)


# ---- independent oracles: plain-python transcription of the formulas ----

def brute_purity_cd(counts):
    total = sum(sum(row) for row in counts)
    return sum(max(row) for row in counts) / total


def brute_purity_dc(counts):
    cols = list(zip(*counts))
    total = sum(sum(col) for col in cols)
    return sum(max(col) for col in cols) / total


def brute_acp(counts):
    q = len(counts)
    acc = 0.0
    for row in counts:
        rowsum = sum(row)
        acc += sum((v / rowsum) ** 2 for v in row)
    return acc / q


def brute_alp(counts):
    return brute_acp([list(col) for col in zip(*counts)])


def brute_g(counts):
    return math.sqrt(brute_purity_cd(counts) * brute_purity_dc(counts))


def brute_k(counts):
    return math.sqrt(brute_acp(counts) * brute_alp(counts))


def random_table(rng, max_side=6, max_count=30):
    while True:
        q = int(rng.integers(1, max_side + 1))
        r = int(rng.integers(1, max_side + 1))
        counts = rng.integers(0, max_count + 1, size=(q, r))
        if counts.sum() >= 1 and np.all(counts.sum(1) > 0) and np.all(counts.sum(0) > 0):
            return counts


HAND = ContingencyTable(np.array([[3, 1], [0, 4]]))
PERFECT = ContingencyTable(np.array([[2, 0], [0, 2]]))
MERGED = ContingencyTable(np.array([[2, 2]]))


class TestHandValues:
    def test_purities(self):
        assert purity_cd(HAND) == pytest.approx(0.875, abs=0)
        assert purity_dc(HAND) == pytest.approx(0.875, abs=0)
        assert purity_cd(PERFECT) == 1.0
        assert purity_cd(MERGED) == pytest.approx(0.5)

    def test_g(self):
        assert g_score(HAND) == pytest.approx(0.875)
        assert g_score(PERFECT) == 1.0

    def test_acp(self):
        assert acp(HAND) == pytest.approx(0.8125, abs=0)
        assert acp(PERFECT) == 1.0
        assert acp(MERGED) == pytest.approx(0.5)

    def test_alp(self):
        assert alp(HAND) == pytest.approx(0.84, abs=1e-15)
        assert alp(PERFECT) == 1.0

    def test_k(self):
        assert k_score(HAND) == pytest.approx(math.sqrt(0.8125 * 0.84))
        assert k_score(PERFECT) == 1.0


class TestOracleEquivalence:
    def test_random_tables(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            counts = random_table(rng)
            t = ContingencyTable(counts)
            listed = counts.tolist()
            assert purity_cd(t) == pytest.approx(brute_purity_cd(listed), rel=1e-12)
            assert purity_dc(t) == pytest.approx(brute_purity_dc(listed), rel=1e-12)
            assert acp(t) == pytest.approx(brute_acp(listed), rel=1e-12)
            assert alp(t) == pytest.approx(brute_alp(listed), rel=1e-12)
            assert g_score(t) == pytest.approx(brute_g(listed), rel=1e-12)
            assert k_score(t) == pytest.approx(brute_k(listed), rel=1e-12)


@st.composite
def tables(draw):
    q = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=5))
    counts = np.array(
        draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=25), min_size=r, max_size=r),
                min_size=q,
                max_size=q,
            )
        )
    )
    if counts.sum() == 0 or np.any(counts.sum(1) == 0) or np.any(counts.sum(0) == 0):
        counts = counts + 1
    return ContingencyTable(counts)


class TestProperties:
    @given(t=tables())
    @settings(max_examples=200, deadline=None)
    def test_range_and_duality(self, t):
        for score in (purity_cd, purity_dc, g_score, acp, alp, k_score):
            assert 0.0 < score(t) <= 1.0
        transposed = ContingencyTable(t.counts.T)
        assert alp(t) == pytest.approx(acp(transposed), rel=1e-12)
        assert purity_dc(t) == pytest.approx(purity_cd(transposed), rel=1e-12)

    @given(t=tables(), factor=st.integers(min_value=2, max_value=9))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, t, factor):
        scaled = ContingencyTable(t.counts * factor)
        assert acp(scaled) == pytest.approx(acp(t), rel=1e-12)
        assert alp(scaled) == pytest.approx(alp(t), rel=1e-12)
        assert g_score(scaled) == pytest.approx(g_score(t), rel=1e-12)
        assert k_score(scaled) == pytest.approx(k_score(t), rel=1e-12)

    @given(t=tables(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_acp_refinement_grows_total_purity(self, t, data):
        # Splitting one cluster row into two never decreases the total of
        # per-cluster purity terms (Q * ACP): the size-weighted mean of the
        # split rows' inner sums dominates the original row's inner sum by
        # convexity, and each term is at most 1.  The unweighted uniform-
        # prior ACP itself is NOT monotone under splits (e.g. [[1,0],[5,5]]
        # with (5,5) -> (4,4)+(1,1) drops it from 0.75 to 2/3).
        counts = t.counts
        row_idx = data.draw(st.integers(min_value=0, max_value=counts.shape[0] - 1))
        row = counts[row_idx]
        if row.sum() < 2:
            return
        split_a = np.array([data.draw(st.integers(min_value=0, max_value=int(v))) for v in row])
        split_b = row - split_a
        if split_a.sum() == 0 or split_b.sum() == 0:
            return
        refined = np.vstack([np.delete(counts, row_idx, axis=0), split_a, split_b])
        t_ref = ContingencyTable(refined)
        total_before = t.n_clusters * acp(t)
        total_after = t_ref.n_clusters * acp(t_ref)
        assert total_after >= total_before - 1e-12

    def test_uniform_prior_acp_not_split_monotone(self):
        # documents the counterexample above
        before = ContingencyTable(np.array([[1, 0], [5, 5]]))
        after = ContingencyTable(np.array([[1, 0], [4, 4], [1, 1]]))
        assert acp(before) == pytest.approx(0.75)
        assert acp(after) == pytest.approx(2 / 3)

    def test_score_one_iff_permutation_like(self):
        perm = ContingencyTable(np.array([[0, 3, 0], [5, 0, 0], [0, 0, 2]]))
        for score in (purity_cd, purity_dc, g_score, acp, alp, k_score):
            assert score(perm) == 1.0
        messy = ContingencyTable(np.array([[3, 1], [1, 3]]))
        for score in (purity_cd, purity_dc, g_score, acp, alp, k_score):
            assert score(messy) < 1.0


class TestContingencyBuilder:
    def test_diagonal(self):
        t = contingency([1, 1, 2, 2], [1, 1, 2, 2])
        np.testing.assert_array_equal(t.counts, [[2, 0], [0, 2]])

    def test_single_cluster(self):
        t = contingency([1, 1, 1, 1], [1, 1, 2, 2])
        np.testing.assert_array_equal(t.counts, [[2, 2]])

    def test_hand_tabulation(self):
        assignment = [1, 1, 2, 2, 2, 2, 2, 2]
        labels = [1, 1, 1, 2, 2, 2, 2, 2]
        t = contingency(assignment, labels)
        np.testing.assert_array_equal(t.counts, [[2, 0], [1, 5]])

    def test_compaction_of_sparse_ids(self):
        t = contingency([5, 5, 9], [2, 2, 7])
        np.testing.assert_array_equal(t.counts, [[2, 0], [0, 1]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            contingency([1, 2], [1])

    def test_report_payload(self):
        rep = metrics_report([1, 1, 2, 2], [1, 1, 2, 2])
        assert rep["acp"] == 1.0 and rep["g"] == 1.0
        assert rep["num_clusters"] == 2 and rep["n"] == 4


class TestTableValidation:
    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            ContingencyTable(np.array([[1, 1], [0, 0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ContingencyTable(np.array([[1, -1]]))
