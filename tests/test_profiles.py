import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liouville_lab.profiles import (
    BUMP_MASS,
    bump,
    bump_incomplete,
    bump_pair,
    smooth_step_down,
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
    assert np.max(np.abs(fd - bump_pair(u)[1])) < 1e-7


def _reference_bump(u):
    """b and b' written out entry by entry on a gathered copy of |u| < 1."""
    u = np.asarray(u, dtype=float)
    value, slope = np.zeros_like(u), np.zeros_like(u)
    m = np.abs(u) < 1.0
    w = u[m]
    s = 1.0 - w * w
    value[m] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    slope[m] = -2.0 * w / (s * s) * np.exp(1.0 - 1.0 / s)
    return value, slope


@pytest.mark.parametrize(
    "u",
    [
        np.array(0.0),
        np.array(1.0),
        np.array(-0.5),
        np.array(np.nan),
        np.array([-1.0, -0.999, -0.3, 0.0, 0.3, 0.999, 1.0, 1.5, np.nan]),
        # every entry inside, the path without a gather and a scatter
        np.linspace(-0.99, 0.99, 64).reshape(8, 8),
        np.linspace(-0.99, 0.99, 64).reshape(8, 8).T,
        np.zeros((0, 3)),
        np.random.default_rng(3).uniform(-1.3, 1.3, (5, 200)),
    ],
    ids=["zero", "one", "half", "nan", "edges", "inside", "inside_t", "empty", "random"],
)
def test_bump_pair_equals_bump_and_bump_prime_bitwise(u):
    want_value, want_slope = _reference_bump(u)
    value, slope = bump_pair(u)
    for got, want in ((value, want_value), (slope, want_slope), (bump(u), want_value)):
        assert got.shape == u.shape
        np.testing.assert_array_equal(got, want)
    assert not np.isnan(value).any() and not np.isnan(slope).any()


def _entrywise_bump(x: float) -> tuple[float, float]:
    """b(x) and b'(x) of one entry through one-entry ufunc calls, zero
    unless |x| < 1."""
    if not abs(x) < 1.0:
        return 0.0, 0.0
    w = np.array([x])
    s = np.subtract(1.0, np.multiply(w, w))
    b = np.exp(np.subtract(1.0, np.divide(1.0, s)))
    db = np.divide(np.multiply(w, -2.0), np.multiply(s, s))
    return float(b[0]), float(np.multiply(db, b)[0])


@pytest.mark.parametrize(
    "u",
    [
        np.array(0.25),
        np.array(1.0),
        np.array(np.inf),
        np.array(np.nan),
        # inside, exact +-1, just outside where exp(1 - 1/s) overflows,
        # far outside, NaN, +-inf and entries whose b underflows to 0
        np.array([
            [0.5, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-9, 3.0, np.nan, np.inf],
            [-np.inf, 0.999999, -0.0, 1e-300, -0.75, 1.0 - 1e-16, -2.0, 0.1],
        ]),
        np.random.default_rng(5).uniform(-1.2, 1.2, (8, 300)),
        np.random.default_rng(6).uniform(-0.9, 0.9, (8, 300)).T,
    ],
    ids=["inside_0d", "one_0d", "inf_0d", "nan_0d", "mixed", "random", "inside_t"],
)
def test_bump_in_place_equals_entrywise_evaluation_without_warnings(u):
    want = np.array([_entrywise_bump(x) for x in u.ravel()]).reshape(u.shape + (2,))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        value, slope = bump_pair(u)
        alone = bump(u)
    for got, expected in ((value, want[..., 0]), (slope, want[..., 1]), (alone, want[..., 0])):
        assert got.shape == u.shape
        np.testing.assert_array_equal(got, expected)
        # bitwise, so the sign of a zero counts too
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_smooth_step_down_plateaus_and_ramp():
    s = np.array([-3.0, 0.0, 1.0, 2.0, 5.0])
    out = smooth_step_down(s)
    np.testing.assert_array_equal(out[:3], 1.0)
    np.testing.assert_array_equal(out[3:], 0.0)
    mid = smooth_step_down(np.array(1.5))
    assert 0.0 < mid < 1.0


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
