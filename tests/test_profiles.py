import numpy as np
import pytest
from hypothesis import given, strategies as st

from liouville_lab.profiles import (
    BUMP_MASS,
    bump,
    bump_incomplete,
    bump_prime,
    smooth_step_down,
    smooth_step_down_prime,
)


def test_bump_reference_values():
    assert bump(np.array(0.0)) == pytest.approx(1.0, abs=0)
    assert bump(np.array(1.0)) == 0.0
    assert bump(np.array(-1.0)) == 0.0
    assert bump(np.array(2.5)) == 0.0
    # e^{1 - 1/(1 - 1/4)} = e^{-1/3}
    assert bump(np.array(0.5)) == pytest.approx(np.exp(-1.0 / 3.0), rel=1e-15)


def test_bump_mass_frozen_oracle():
    # 64-node Gauss-Legendre value of the full integral, pinned
    assert bump_incomplete(np.array(1.0)) == pytest.approx(BUMP_MASS, abs=1e-11)
    u = np.linspace(-1.0, 1.0, 200001)
    trapz = np.trapezoid(bump(u), u)
    assert trapz == pytest.approx(BUMP_MASS, abs=1e-9)


def test_bump_prime_matches_finite_differences():
    u = np.linspace(-0.95, 0.95, 101)
    h = 1e-6
    fd = (bump(u + h) - bump(u - h)) / (2 * h)
    assert np.max(np.abs(fd - bump_prime(u))) < 1e-7


def test_smooth_step_down_plateaus_and_ramp():
    s = np.array([-3.0, 0.0, 1.0, 2.0, 5.0])
    out = smooth_step_down(s)
    np.testing.assert_array_equal(out[:3], 1.0)
    np.testing.assert_array_equal(out[3:], 0.0)
    mid = smooth_step_down(np.array(1.5))
    assert 0.0 < mid < 1.0


def test_smooth_step_down_prime_matches_finite_differences():
    s = np.linspace(0.5, 2.5, 101)
    h = 1e-5
    fd = (smooth_step_down(s + h) - smooth_step_down(s - h)) / (2 * h)
    # the transition has third derivatives of order 1e3, so central
    # differences carry an O(h^2 f''') truncation floor
    assert np.max(np.abs(fd - smooth_step_down_prime(s))) < 5e-6


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_bump_range_and_support(u):
    val = float(bump(np.array(u)))
    assert 0.0 <= val <= 1.0
    if abs(u) >= 1.0:
        assert val == 0.0


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_bump_even_symmetry(u):
    assert float(bump(np.array(u))) == float(bump(np.array(-u)))


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_smooth_step_down_monotone_range(s):
    val = float(smooth_step_down(np.array(s)))
    later = float(smooth_step_down(np.array(s + 0.25)))
    assert 0.0 <= val <= 1.0
    assert later <= val + 1e-15


def test_smooth_step_down_exact_range_and_monotone_near_ends():
    # the falsifying example once gave -7.9e-13 from quadrature round-off
    assert smooth_step_down(np.array(1.9921875)) >= 0.0
    s = np.linspace(0.9, 2.1, 120001)
    out = smooth_step_down(s)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.all(np.diff(out) <= 0.0)
