"""Self-tests of the closed-form pair flows in tests/oracles.py."""

import numpy as np
import pytest
from oracles import exact_pair_flow

from liouville_lab.dynamics import FLAG_OK, IntegratorConfig, flow_batch
from liouville_lab.potentials import free_potential, harmonic, repulsive_power

FAMILIES = {
    "free": free_potential,
    "harmonic": lambda d: harmonic(d, strength=0.7),
    "coulomb": lambda d: repulsive_power(d, exponent=1.0),
}
# relative angular momentum |r ^ u| below which a row counts as head-on
HEAD_ON = 1e-3


def _rows(d, count=2000):
    """Pairs uniform in criterion 7's box (half-widths 1.5), then head-on
    and nearly head-on pairs: |r ^ u| = 0, 1e-12, 1e-8 and 1e-4 with the
    pair closing, and the same pairs opening."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.5, 1.5, (count, 2, d))
    v = rng.uniform(-1.5, 1.5, (count, 2, d))
    if d == 1:
        return x, v
    tilts = np.array([0.0, 1e-12, 1e-8, 1e-4])
    hx = np.zeros((8, 2, d))
    hv = np.zeros((8, 2, d))
    hx[:, 0, 0], hx[:, 1, 0] = 0.5, -0.5
    # u = (-/+ 2, tilt) at r = (1, 0): |r ^ u| = tilt
    hv[:, 0, 0] = np.repeat([-1.0, 1.0], 4)
    hv[:, 1, 0] = -hv[:, 0, 0]
    hv[:, 0, 1] = np.tile(tilts, 2)
    return np.concatenate([x, hx]), np.concatenate([v, hv])


def _angular_momentum(x, v):
    """sum_i x_i ^ v_i of every row, as antisymmetric (d, d) matrices."""
    xv = np.einsum("nia,nib->nab", x, v)
    return xv - np.swapaxes(xv, 1, 2)


def _energy(x, v, potential):
    return 0.5 * np.sum(v * v, axis=(1, 2)) + potential.value_batch(x[:, 0] - x[:, 1])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3], ids=["d1", "d2", "d3"])
def test_exact_pair_flow_keeps_energy_and_angular_momentum(d, family):
    potential = FAMILIES[family](d)
    x, v = _rows(d)
    r, u = x[:, 0] - x[:, 1], v[:, 0] - v[:, 1]
    spin = np.sqrt(np.maximum(np.sum(r * r, 1) * np.sum(u * u, 1) - np.sum(r * u, 1) ** 2, 0))
    # every row of d = 1 is head-on, and the eight built ones are in d > 1
    assert np.sum(spin < HEAD_ON) >= (len(x) if d == 1 else 8)
    for t in (1.0, -0.7):
        xt, vt = exact_pair_flow(x, v, potential, t)
        e0, et = _energy(x, v, potential), _energy(xt, vt, potential)
        assert np.max(np.abs(et - e0) / e0) < 1e-12
        j0, jt = _angular_momentum(x, v), _angular_momentum(xt, vt)
        scale = np.maximum(1.0, np.max(np.abs(j0), axis=(1, 2)))
        assert np.max(np.max(np.abs(jt - j0), axis=(1, 2)) / scale) < 1e-12
    # the exactly head-on rows stay on their line
    if d > 1:
        xt, _ = exact_pair_flow(x[-8:], v[-8:], potential, 1.0)
        assert np.all(xt[[0, 4], :, 1:] == 0.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3], ids=["d1", "d2", "d3"])
def test_exact_pair_flow_group_law(d, family):
    potential = FAMILIES[family](d)
    x, v = _rows(d)
    whole = exact_pair_flow(x, v, potential, 1.0)
    legs = exact_pair_flow(*exact_pair_flow(x, v, potential, 0.4), potential, 0.6)
    for got, want in zip(legs, whole):
        assert np.max(np.abs(got - want)) < 1e-11
    start = exact_pair_flow(x, v, potential, 0.0)
    for got, want in zip(start, (x, v)):
        assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("family", ["harmonic", "coulomb"])
@pytest.mark.parametrize("d", [1, 2, 3], ids=["d1", "d2", "d3"])
def test_flow_batch_error_against_exact_pair_flow_is_second_order(d, family):
    # velocity Verlet's global error is O(dt^2): halving dt divides the
    # median row error by 4
    potential = FAMILIES[family](d)
    x, v = _rows(d)
    t = 0.5
    exact, _ = exact_pair_flow(x, v, potential, t)
    medians = []
    for dt in (2e-3, 1e-3):
        xt, _, flags = flow_batch(x, v, potential, t, IntegratorConfig(dt=dt))
        assert np.all(flags == FLAG_OK)
        medians.append(np.median(np.max(np.abs(xt - exact), axis=(1, 2))))
    assert medians[0] / medians[1] == pytest.approx(4.0, rel=0.01)


@pytest.mark.parametrize("d", [1, 2, 3], ids=["d1", "d2", "d3"])
def test_flow_batch_free_flow_is_the_exact_pair_flow(d):
    x, v = _rows(d)
    potential = free_potential(d)
    xt, vt, _ = flow_batch(x, v, potential, 1.3, IntegratorConfig())
    want_x, want_v = exact_pair_flow(x, v, potential, 1.3)
    np.testing.assert_allclose(xt, want_x, rtol=0, atol=1e-14)
    np.testing.assert_allclose(vt, want_v, rtol=0, atol=1e-14)


def test_exact_pair_flow_refuses_what_it_cannot_solve():
    x = np.ones((1, 2, 2))
    with pytest.raises(ValueError, match="no exact pair flow"):
        exact_pair_flow(x, x, repulsive_power(2, exponent=0.5), 0.1)
    with pytest.raises(ValueError, match="pairs"):
        exact_pair_flow(np.ones((1, 3, 2)), np.ones((1, 3, 2)), harmonic(2), 0.1)
