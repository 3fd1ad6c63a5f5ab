"""Profile/kernel/weight values and their analytic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochshift.kernels import (
    EPANECHNIKOV,
    PROFILE_NAMES,
    Profile,
    profile_derivative,
    profile_from_name,
    profile_value,
)

PROFILES = [Profile(1), Profile(2), Profile(3), Profile(4)]


class TestProfileValue:
    def test_value_at_zero_is_one(self):
        for p in PROFILES:
            assert profile_value(p, 0.0) == 1.0

    def test_biweight_hand_value(self):
        assert profile_value(Profile(2), 0.25) == pytest.approx(0.5625, abs=0)

    def test_truncation_beyond_one(self):
        assert profile_value(EPANECHNIKOV, 1.5) == 0.0
        assert profile_value(Profile(3), 7.0) == 0.0

    def test_vectorized(self):
        vals = profile_value(Profile(2), np.array([0.0, 0.25, 2.0]))
        np.testing.assert_allclose(vals, [1.0, 0.5625, 0.0])

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            profile_value(Profile(2), bad)


class TestProfileDerivative:
    def test_hand_values(self):
        assert profile_derivative(Profile(2), 0.0) == -2.0
        assert profile_derivative(Profile(3), 0.5) == pytest.approx(-0.75, abs=0)
        assert profile_derivative(EPANECHNIKOV, 0.5) == -1.0

    def test_zero_beyond_truncation(self):
        for p in PROFILES:
            assert profile_derivative(p, 1.0) == 0.0
            assert profile_derivative(p, 3.0) == 0.0

    @pytest.mark.parametrize("p", PROFILES)
    def test_finite_difference_oracle(self, p):
        eps = 1e-5
        for t in np.arange(0.1, 0.95, 0.1):
            central = (profile_value(p, t + eps) - profile_value(p, t - eps)) / (2 * eps)
            assert abs(profile_derivative(p, t) - central) <= 1e-6


class TestKernelAndWeight:
    """The kernel K(u) = k(|u|^2) and the weight G(u) = -k'(|u|^2)."""

    def test_kernel_examples(self):
        assert profile_value(Profile(2), 0.0) == 1.0  # u = 0
        assert profile_value(Profile(2), 0.5**2) == pytest.approx(0.5625)
        for p in PROFILES:
            assert profile_value(p, 2.0**2) == 0.0

    def test_weight_examples(self):
        assert -profile_derivative(Profile(2), 0.0) == 2.0
        assert -profile_derivative(Profile(2), 0.5**2) == pytest.approx(1.5)
        assert -profile_derivative(EPANECHNIKOV, 0.7**2) == 1.0
        assert -profile_derivative(EPANECHNIKOV, 1.3**2) == 0.0

    def test_weight_nonnegative_rowwise(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(50, 3))
        w = -profile_derivative(Profile(3), np.einsum("ij,ij->i", u, u))
        assert np.all(w >= 0.0)

    @pytest.mark.parametrize("p", PROFILES)
    def test_weight_non_increasing_in_radius(self, p):
        radii = np.linspace(0.0, 1.5, 40)
        w = -profile_derivative(p, radii**2)
        assert np.all(w[:-1] >= w[1:] - 1e-15)

    def test_non_finite_input(self):
        for fn in (profile_value, profile_derivative):
            with pytest.raises(ValueError, match="finite"):
                fn(Profile(2), np.array([0.5, np.nan]))


@given(
    alpha=st.integers(min_value=1, max_value=5),
    t1=st.floats(min_value=0.0, max_value=4.0),
    t2=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=300, deadline=None)
def test_profile_monotone_non_increasing(alpha, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    p = Profile(alpha)
    assert profile_value(p, lo) >= profile_value(p, hi)


@given(
    alpha=st.integers(min_value=1, max_value=5),
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_profile_convex_on_unit_interval(alpha, t1, t2, lam):
    p = Profile(alpha)
    mixed = profile_value(p, lam * t1 + (1 - lam) * t2)
    assert mixed <= lam * profile_value(p, t1) + (1 - lam) * profile_value(p, t2) + 1e-12


class TestNames:
    def test_name_table(self):
        assert profile_from_name("biweight").alpha == 2
        assert profile_from_name("triweight").alpha == 3
        assert profile_from_name("quadweight").alpha == 4
        assert profile_from_name("epanechnikov").alpha == 1
        assert profile_from_name("uniform-weight").alpha == 1
        assert profile_from_name("poly6").alpha == 6

    def test_all_listed_names_resolve(self):
        for name in PROFILE_NAMES:
            profile_from_name(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown profile"):
            profile_from_name("gaussian")

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            Profile(0)
        with pytest.raises(TypeError):
            Profile(2.5)

    def test_smooth_flag(self):
        assert not EPANECHNIKOV.smooth
        assert Profile(2).smooth
