import math

import numpy as np
import pytest

from liouville_lab.dynamics import (
    FLAG_OK,
    FLAG_SINGULAR,
    FLAG_SUBSTEP_LIMIT,
    Configuration,
    IntegratorConfig,
    energy,
    flow_batch,
    flow_map,
    integrate,
    min_pair_distance,
    reversed_velocities,
    step,
    total_momentum,
    vector_field,
)
from liouville_lab.errors import DomainError, SingularityError, SubstepLimitError
from liouville_lab.potentials import free_potential, gaussian_well, harmonic, repulsive_power


def harmonic_pair_closed_form(cfg: Configuration, t: float, strength: float = 1.0):
    """Exact two-body solution: relative coordinate oscillates at sqrt(2k)."""
    om = math.sqrt(2.0 * strength)
    r0 = cfg.x[0] - cfg.x[1]
    w0 = cfg.v[0] - cfg.v[1]
    xc = 0.5 * (cfg.x[0] + cfg.x[1])
    vc = 0.5 * (cfg.v[0] + cfg.v[1])
    rt = r0 * math.cos(om * t) + w0 * math.sin(om * t) / om
    wt = -om * r0 * math.sin(om * t) + w0 * math.cos(om * t)
    xct = xc + t * vc
    x = np.stack([xct + 0.5 * rt, xct - 0.5 * rt])
    v = np.stack([vc + 0.5 * wt, vc - 0.5 * wt])
    return Configuration(x, v)


@pytest.fixture
def two_body():
    return Configuration(
        x=np.array([[0.3, -0.2], [-0.5, 0.4]]),
        v=np.array([[0.1, 0.5], [-0.3, 0.2]]),
    )


def phase_gap(a: Configuration, b: Configuration) -> float:
    return max(np.max(np.abs(a.x - b.x)), np.max(np.abs(a.v - b.v)))


def test_verlet_matches_two_body_oracle(two_body):
    pot = harmonic(2)
    icfg = IntegratorConfig(dt=1e-3)
    got = flow_map(two_body, 1.0, pot, icfg)
    want = harmonic_pair_closed_form(two_body, 1.0)
    err = phase_gap(got, want)
    assert 1e-9 < err < 1.2e-7


def test_verlet_error_is_second_order(two_body):
    pot = harmonic(2)
    want = harmonic_pair_closed_form(two_body, 1.0)
    errs = [
        phase_gap(flow_map(two_body, 1.0, pot, IntegratorConfig(dt=dt)), want)
        for dt in (2e-3, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_rk4_reaches_roundoff_on_two_body(two_body):
    pot = harmonic(2)
    got = flow_map(two_body, 1.0, pot, IntegratorConfig(scheme="rk4", dt=1e-3))
    want = harmonic_pair_closed_form(two_body, 1.0)
    assert phase_gap(got, want) < 1e-12


def test_rk4_step_reuses_incoming_forces(two_body):
    # the incoming acceleration is k1, so a step costs 4 force evaluations
    # (k2, k3, k4 and the outgoing acceleration) after the initial one
    class Counting:
        def __init__(self, base):
            self.base = base
            self.calls = 0

        def gradient_batch(self, r):
            self.calls += 1
            return self.base.gradient_batch(r)

    pot = Counting(harmonic(2))
    flow_map(two_body, 1.0, pot, IntegratorConfig(scheme="rk4", dt=0.1))
    assert pot.calls == 1 + 4 * 10


def test_verlet_time_reversibility(two_body):
    pot = gaussian_well(2, depth=1.3, width=0.8)
    icfg = IntegratorConfig(dt=1e-3)
    fwd = flow_map(two_body, 2.0, pot, icfg)
    back = flow_map(reversed_velocities(fwd), 2.0, pot, icfg)
    assert phase_gap(reversed_velocities(back), two_body) < 1e-12


def test_energy_and_momentum_conservation(two_body):
    pot = gaussian_well(2, depth=1.3, width=0.8)
    icfg = IntegratorConfig(dt=1e-3)
    t = 3.0
    out = flow_map(two_body, t, pot, icfg)
    assert abs(energy(out, pot) - energy(two_body, pot)) < 1e-6
    assert np.max(np.abs(total_momentum(out) - total_momentum(two_body))) < 1e-10 * t


def test_free_flow_is_exact(two_body):
    pot = free_potential(2)
    x, v, flags = flow_batch(two_body.x[None], two_body.v[None], pot, 1.7, IntegratorConfig(dt=1e-3))
    np.testing.assert_array_equal(x[0], two_body.x + 1.7 * two_body.v)
    np.testing.assert_array_equal(v[0], two_body.v)
    assert np.all(flags == FLAG_OK)


def test_fixed_grid_flow_composes_bitwise(two_body):
    pot = harmonic(2)
    icfg = IntegratorConfig(dt=1e-3)
    direct = flow_map(two_body, 0.6, pot, icfg)
    composed = flow_map(flow_map(two_body, 0.25, pot, icfg), 0.35, pot, icfg)
    np.testing.assert_array_equal(direct.x, composed.x)
    np.testing.assert_array_equal(direct.v, composed.v)


def test_single_step_matches_flow_of_one_dt(two_body):
    pot = harmonic(2)
    a = step(two_body, pot, 1e-3)
    b = flow_map(two_body, 1e-3, pot, IntegratorConfig(dt=1e-3))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.v, b.v)


def test_vector_field_returns_rhs(two_body):
    pot = harmonic(2)
    dx, dv = vector_field(two_body, pot)
    np.testing.assert_array_equal(dx, two_body.v)
    r = two_body.x[0] - two_body.x[1]
    np.testing.assert_allclose(dv[0], -r, atol=1e-14)
    np.testing.assert_allclose(dv[1], r, atol=1e-14)


def test_trajectory_recording_and_csv(two_body, tmp_path):
    pot = harmonic(2)
    traj = integrate(two_body, pot, 0.01, IntegratorConfig(dt=1e-3))
    assert traj.times.size == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.01, abs=1e-12)
    assert traj.energies.shape == (11,)
    s0 = traj.state(0)
    np.testing.assert_array_equal(s0.x, two_body.x)

    path = tmp_path / "traj.csv"
    traj.to_csv(path, stride=3)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x_1_1,x_1_2,x_2_1,x_2_2,v_1_1,v_1_2,v_2_1,v_2_2,E,dmin"
    # stride 3 over 11 rows keeps 0,3,6,9 plus the forced final row
    assert len(lines) == 1 + 5
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(DomainError):
        traj.to_csv(path, stride=0)


def test_adaptive_close_encounter_conserves_energy():
    pot = repulsive_power(2, exponent=1.0)
    cfg = Configuration(
        x=np.array([[-1.0, 0.02], [1.0, -0.02]]),
        v=np.array([[2.0, 0.0], [-2.0, 0.0]]),
    )
    icfg = IntegratorConfig(dt=1e-3, adaptive=True, reference_distance=0.5)
    out = flow_map(cfg, 1.0, pot, icfg)
    rel = abs(energy(out, pot) - energy(cfg, pot)) / abs(energy(cfg, pot))
    assert rel < 1e-4
    # the encounter is over and the particles have separated again
    assert min_pair_distance(out) > 1.0


def test_adaptive_substep_budget_flags_rows():
    pot = repulsive_power(2, exponent=1.0)
    x = np.array([[[-1.0, 0.02], [1.0, -0.02]]])
    v = np.array([[[2.0, 0.0], [-2.0, 0.0]]])
    icfg = IntegratorConfig(dt=1e-3, adaptive=True, max_substeps=5)
    _, _, flags = flow_batch(x, v, pot, 1.0, icfg)
    assert flags[0] == FLAG_SUBSTEP_LIMIT
    with pytest.raises(SubstepLimitError):
        flow_map(Configuration(x[0], v[0]), 1.0, pot, icfg)


def test_fixed_step_budget_raises():
    pot = harmonic(2)
    cfg = Configuration(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(SubstepLimitError):
        flow_map(cfg, 1.0, pot, IntegratorConfig(dt=1e-3, max_substeps=10))


def test_coincident_rows_freeze_with_singular_flag():
    pot = repulsive_power(2, exponent=1.0)
    x = np.array(
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[-1.0, 0.0], [1.0, 0.0]],
        ]
    )
    v = np.array(
        [
            [[0.5, 0.0], [-0.5, 0.0]],
            [[0.1, 0.0], [-0.1, 0.0]],
        ]
    )
    xo, vo, flags = flow_batch(x, v, pot, 0.2, IntegratorConfig(dt=1e-3))
    assert flags[0] == FLAG_SINGULAR
    assert flags[1] == FLAG_OK
    np.testing.assert_array_equal(xo[0], x[0])
    np.testing.assert_array_equal(vo[0], v[0])
    assert not np.array_equal(xo[1], x[1])


def test_singularity_guards_on_scalar_interface():
    pot = repulsive_power(2, exponent=1.0)
    cfg = Configuration(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(SingularityError):
        vector_field(cfg, pot)
    with pytest.raises(SingularityError):
        step(cfg, pot, 1e-3)


def test_configuration_and_integrator_validation():
    with pytest.raises(DomainError):
        Configuration(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(DomainError):
        Configuration(np.zeros(4), np.zeros(4))
    with pytest.raises(DomainError):
        IntegratorConfig(scheme="euler")
    with pytest.raises(DomainError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(velocity_damping=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(velocity_damping=1.5)
    with pytest.raises(DomainError):
        IntegratorConfig(reference_distance=-1.0)


def test_configuration_arrays_are_frozen(two_body):
    with pytest.raises(ValueError):
        two_body.x[0, 0] = 99.0


def test_velocity_damping_dissipates(two_body):
    pot = harmonic(2)
    out = flow_map(two_body, 1.0, pot, IntegratorConfig(dt=1e-3, velocity_damping=0.99))
    assert energy(out, pot) < energy(two_body, pot)
