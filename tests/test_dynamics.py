import math
from dataclasses import replace

import numpy as np
import pytest

from liouville_lab import dynamics
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
    total_momentum,
    _forces,
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


THREE_BODY = Configuration(
    x=np.array([[0.3, -0.2], [-0.5, 0.4], [0.6, 0.7]]),
    v=np.array([[0.1, 0.5], [-0.3, 0.2], [0.2, -0.4]]),
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


FORCES_PER_STEP = {"velocity_verlet": 1, "rk4": 4}


class Counting:
    """A potential without a kind that counts its gradient_batch calls."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def gradient_batch(self, r):
        self.calls += 1
        return self.base.gradient_batch(r)


def test_rk4_step_reuses_incoming_forces(two_body):
    # the incoming acceleration is k1, so a step costs 4 force evaluations
    # (k2, k3, k4 and the outgoing acceleration) after the initial one
    pot = Counting(harmonic(2))
    flow_map(two_body, 1.0, pot, IntegratorConfig(scheme="rk4", dt=0.1))
    assert pot.calls == 1 + 4 * 10
    # one force evaluation is one gradient_batch call for every pair
    pot = Counting(harmonic(2))
    flow_map(THREE_BODY, 1.0, pot, IntegratorConfig(scheme="rk4", dt=0.1))
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


def test_forces_return_rhs(two_body):
    acc, dmin = _forces(two_body.x[None], harmonic(2))
    r = two_body.x[0] - two_body.x[1]
    np.testing.assert_allclose(acc[0, 0], -r, atol=1e-14)
    np.testing.assert_allclose(acc[0, 1], r, atol=1e-14)
    assert dmin[0] == pytest.approx(np.linalg.norm(r))


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


@pytest.mark.parametrize("scheme", ["velocity_verlet", "rk4"])
@pytest.mark.parametrize("cfg", [pytest.param("two", id="n2"), pytest.param("three", id="n3")])
def test_integrate_records_the_flow_bitwise(scheme, cfg, two_body):
    cfg = two_body if cfg == "two" else THREE_BODY
    pot = gaussian_well(2, depth=1.3, width=0.8)
    icfg = IntegratorConfig(scheme=scheme, dt=1e-3)
    # 12 whole steps and a remainder step
    traj = integrate(cfg, pot, -0.0125, icfg)
    assert traj.times.size == 14
    for k in range(1, traj.times.size):
        want = flow_map(cfg, float(traj.times[k]), pot, icfg)
        np.testing.assert_array_equal(traj.x[k], want.x)
        np.testing.assert_array_equal(traj.v[k], want.v)


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


@pytest.mark.parametrize("t, steps", [(0.01, 10), (0.0105, 11)])
def test_fixed_step_budget_counts_steps_taken(t, steps, two_body):
    # 0.01 is ten whole steps with no remainder step; 0.0105 takes one
    pot = harmonic(2)
    flow_map(two_body, t, pot, IntegratorConfig(dt=1e-3, max_substeps=steps))
    with pytest.raises(SubstepLimitError, match=f"{steps} fixed steps"):
        flow_map(two_body, t, pot, IntegratorConfig(dt=1e-3, max_substeps=steps - 1))


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
        flow_map(cfg, 1e-3, pot, IntegratorConfig(dt=1e-3))


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


# -- bitwise oracle: the row-major (N, n, d) integrator, one row at a time


def _reference_forces(x, potential):
    N, n, _ = x.shape
    acc = np.zeros_like(x)
    dmin = np.full(N, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            rij = x[:, i, :] - x[:, j, :]
            g = potential.gradient_batch(rij)
            acc[:, i, :] -= g
            acc[:, j, :] += g
            np.minimum(dmin, np.sqrt(np.sum(rij * rij, axis=-1)), out=dmin)
    return acc, dmin


def _reference_verlet(x, v, acc, potential, dt, damping):
    v_half = v + 0.5 * dt * acc
    x_new = x + dt * v_half
    acc_new, dmin_new = _reference_forces(x_new, potential)
    v_new = v_half + 0.5 * dt * acc_new
    if damping != 1.0:
        v_new = damping * v_new
    return x_new, v_new, acc_new, dmin_new


def _reference_rk4(x, v, acc, potential, dt, damping):
    k1v = acc
    k2v, _ = _reference_forces(x + 0.5 * dt * v, potential)
    x3 = x + 0.5 * dt * (v + 0.5 * dt * k1v)
    k3v, _ = _reference_forces(x3, potential)
    x4 = x + dt * (v + 0.5 * dt * k2v)
    k4v, _ = _reference_forces(x4, potential)
    x_new = x + dt * v + dt * dt / 6.0 * (k1v + k2v + k3v)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if damping != 1.0:
        v_new = damping * v_new
    acc_new, dmin_new = _reference_forces(x_new, potential)
    return x_new, v_new, acc_new, dmin_new


def _reference_flow_row(x, v, potential, t, icfg):
    """Flow one (n, d) state; returns (x, v, flag) with the state frozen
    at the step that raised the flag."""
    step = _reference_verlet if icfg.scheme == "velocity_verlet" else _reference_rk4
    damping = icfg.velocity_damping
    x, v = x[None], v[None]
    acc, dmin = _reference_forces(x, potential)
    if dmin[0] < 1e-12:
        return x[0], v[0], FLAG_SINGULAR
    sgn = 1.0 if t > 0 else -1.0
    if icfg.adaptive:
        remaining = np.array([abs(t)])
        for taken in range(1, icfg.max_substeps + 1):
            h = icfg.dt * np.minimum(1.0, (dmin / icfg.reference_distance) ** 1.5)
            last = h >= remaining
            h = np.where(last, remaining, h)
            x, v, acc, dmin = step(x, v, acc, potential, (sgn * h)[:, None, None], damping)
            remaining = remaining - h
            if dmin[0] < 1e-12:
                return x[0], v[0], FLAG_SINGULAR
            if last[0]:
                return x[0], v[0], FLAG_OK
        return x[0], v[0], FLAG_SUBSTEP_LIMIT
    nsteps = int(math.floor(abs(t) / icfg.dt + 1e-12))
    rem = t - sgn * nsteps * icfg.dt
    sizes = [sgn * icfg.dt] * nsteps + ([rem] if abs(rem) > 1e-9 * max(1.0, abs(t)) else [])
    for h in sizes:
        x, v, acc, dmin = step(x, v, acc, potential, h, damping)
        if dmin[0] < 1e-12:
            return x[0], v[0], FLAG_SINGULAR
    return x[0], v[0], FLAG_OK


def _assert_matches_reference(x, v, potential, t, icfg):
    got = flow_batch(x, v, potential, t, icfg)
    rows = [_reference_flow_row(x[k], v[k], potential, t, icfg) for k in range(x.shape[0])]
    np.testing.assert_array_equal(got[0], np.stack([r[0] for r in rows]))
    np.testing.assert_array_equal(got[1], np.stack([r[1] for r in rows]))
    np.testing.assert_array_equal(got[2], np.array([r[2] for r in rows], dtype=np.int8))
    return got[2]


class Untagged:
    """A potential without a kind, so that flow_batch steps even free flow."""

    def __init__(self, base):
        self.base = base

    def gradient_batch(self, r):
        return self.base.gradient_batch(r)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [0.0305, -0.0305])
@pytest.mark.parametrize("damping", [1.0, 0.99])
@pytest.mark.parametrize("scheme", ["velocity_verlet", "rk4"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_flow_batch_matches_row_major_reference_bitwise(adaptive, scheme, damping, t, n):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, (12, n, 2))
    v = rng.uniform(-1.0, 1.0, (12, n, 2))
    x[3, 1] = x[3, 0]  # coincident at the start
    # a head-on pair that closes to 2e-3 within the run
    x[5, 0], x[5, 1] = [-0.03, 0.001], [0.03, -0.001]
    v[5, 0], v[5, 1] = [2.0, 0.0], [-2.0, 0.0]
    icfg = IntegratorConfig(
        scheme=scheme, dt=1e-3, adaptive=adaptive, velocity_damping=damping, max_substeps=40,
    )
    flags = _assert_matches_reference(x, v, repulsive_power(2, exponent=1.0), t, icfg)
    assert flags[3] == FLAG_SINGULAR
    # 31 steps cover |t|; the encounter needs more than 40 adaptive substeps
    assert flags[5] == (FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK)


@pytest.mark.parametrize("scheme", ["velocity_verlet", "rk4"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_flagged_rows_freeze_like_the_reference(adaptive, scheme):
    # force-free flow on a dyadic grid is exact: row 1 closes 2 dt per step
    # and meets at step 10, row 2 sits below reference_distance and crawls
    dt = 2.0**-10
    x = np.zeros((4, 2, 2))
    v = np.zeros((4, 2, 2))
    x[:, 0, 0], x[:, 1, 0] = -0.5, 0.5
    v[[0, 3], 0, 1] = 1.0
    x[1, 0, 0], x[1, 1, 0] = -10 * dt, 10 * dt
    v[1, 0, 0], v[1, 1, 0] = 1.0, -1.0
    x[2, 1, 0] = x[2, 0, 0] + 2.0**-24
    icfg = IntegratorConfig(
        scheme=scheme, dt=dt, adaptive=adaptive, reference_distance=2.0**-20, max_substeps=40,
    )
    flags = _assert_matches_reference(x, v, Untagged(free_potential(2)), 0.02, icfg)
    xo, _, _ = flow_batch(x, v, Untagged(free_potential(2)), 0.02, icfg)
    assert flags[1] == FLAG_SINGULAR
    np.testing.assert_array_equal(xo[1, 0], xo[1, 1])
    assert flags[2] == (FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK)
    assert flags[0] == flags[3] == FLAG_OK


@pytest.mark.parametrize("kind", ["harmonic", "repulsive_power"])
@pytest.mark.parametrize("scheme", ["velocity_verlet", "rk4"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_nan_rows_are_singular_in_both_runners(adaptive, scheme, kind):
    # one flag rule: a NaN min pair distance is a coincidence at once, so an
    # adaptive run does not step a NaN row until its budget runs out
    pot = harmonic(2) if kind == "harmonic" else repulsive_power(2, exponent=1.0)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, (5, 2, 2))
    v = rng.uniform(-1.0, 1.0, (5, 2, 2))
    x[2, 1, 0] = np.nan
    icfg = IntegratorConfig(scheme=scheme, dt=1e-3, adaptive=adaptive, max_substeps=2000)
    xo, vo, flags = flow_batch(x, v, pot, 0.0305, icfg)
    assert flags[2] == FLAG_SINGULAR
    others = [0, 1, 3, 4]
    rows = [_reference_flow_row(x[k], v[k], pot, 0.0305, icfg) for k in others]
    np.testing.assert_array_equal(xo[others], np.stack([r[0] for r in rows]))
    np.testing.assert_array_equal(vo[others], np.stack([r[1] for r in rows]))
    np.testing.assert_array_equal(flags[others], np.array([r[2] for r in rows], dtype=np.int8))


# -- flows that pause at stops: one batch, stepped leg by leg


def _flow_by_legs(x, v, potential, t, stops, icfg):
    """(x, v, flags) at each stop and at t from one flow_batch call per
    leg; a row keeps the first flag any leg gave it."""
    out, now = [], 0.0
    flags = np.zeros(x.shape[0], dtype=np.int8)
    for end in [*stops, t]:
        x, v, leg_flags = flow_batch(x, v, potential, end - now, icfg)
        now = end
        flags = np.where(flags == FLAG_OK, leg_flags, flags)
        out.append((x, v, flags))
    return out


def _assert_stops_match_legs(x, v, potential, t, stops, icfg):
    """One flow_batch call with stops equals flowing leg by leg: at every
    stop (positions, velocities and the batch's forces) and at t, bitwise
    on unflagged rows, with equal flags; returns the final flags."""
    seen = []

    def observe(stop, batch):
        xs, vs, flags = batch.result()
        acc = np.full_like(xs, np.nan)
        acc[batch.idx] = np.moveaxis(batch.A, -1, 0)
        seen.append((stop, xs, vs, acc, flags))

    x_end, v_end, flags_end = flow_batch(x, v, potential, t, icfg, stops=stops, observe=observe)
    assert [stop for stop, *_ in seen] == list(stops)
    got = [state for _, *state in seen] + [(x_end, v_end, None, flags_end)]
    for (xs, vs, acc, flags), (wx, wv, wflags) in zip(got, _flow_by_legs(x, v, potential, t, stops, icfg)):
        np.testing.assert_array_equal(flags, wflags)
        ok = flags == FLAG_OK
        np.testing.assert_array_equal(xs[ok], wx[ok])
        np.testing.assert_array_equal(vs[ok], wv[ok])
        if acc is not None:
            np.testing.assert_array_equal(acc[ok], _forces(wx, potential)[0][ok])
    return flags_end


@pytest.mark.parametrize("t", [0.0305, -0.0305])
@pytest.mark.parametrize("damping", [1.0, 0.99])
@pytest.mark.parametrize("scheme", ["velocity_verlet", "rk4"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_stops_match_flowing_leg_by_leg_bitwise(adaptive, scheme, damping, t):
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (16, 2, 2))
    v = rng.uniform(-1.0, 1.0, (16, 2, 2))
    # head-on pairs that close to about 2e-3 in the third leg and need more
    # than 12 adaptive substeps there
    for row in (4, 9):
        x[row, 0], x[row, 1] = [-0.03, 0.001 * row], [0.03, -0.001 * row]
        v[row, 0], v[row, 1] = [2.0, 0.0], [-2.0, 0.0]
    # off-grid legs, a repeated stop (a leg of length 0) and a last leg
    stops = [s * np.sign(t) for s in (0.0041, 0.0123, 0.0123, 0.0199, 0.0305)]
    icfg = IntegratorConfig(
        scheme=scheme, dt=1e-3, adaptive=adaptive, velocity_damping=damping, max_substeps=12,
    )
    pot = repulsive_power(2, exponent=1.0)
    flags = _assert_stops_match_legs(x, v, pot, t, stops, icfg)
    limited = FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK
    assert flags[4] == flags[9] == limited
    assert np.count_nonzero(flags == FLAG_OK) >= 10
    # with room for every substep no row is frozen, and parked rows still
    # come back in input order
    flags = _assert_stops_match_legs(x, v, pot, t, stops, replace(icfg, max_substeps=10_000))
    assert not flags.any()


@pytest.mark.parametrize("t", [1.7, -1.7])
def test_stops_keep_the_free_closed_form(t, two_body):
    # the free flow advances x + leg v leg by leg, observed or not
    pot, icfg = free_potential(2), IntegratorConfig(dt=1e-3)
    x, v = np.stack([two_body.x, THREE_BODY.x[:2]]), np.stack([two_body.v, THREE_BODY.v[:2]])
    stops = [s * np.sign(t) for s in (0.3, 0.3, 1.1)]
    assert not _assert_stops_match_legs(x, v, pot, t, stops, icfg).any()
    x_end, _, _ = flow_batch(x, v, pot, t, icfg, stops=stops)
    np.testing.assert_array_equal(x_end, _flow_by_legs(x, v, pot, t, stops, icfg)[-1][0])


@pytest.mark.parametrize("scheme", ["velocity_verlet", "rk4"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_stops_freeze_a_row_that_collides_mid_walk(adaptive, scheme):
    # force-free flow on a dyadic grid is exact: row 3 closes 2 dt per step
    # and meets at step 10, inside the third leg; row 0 starts coincident,
    # so its retirement moves row 3 to the batch's first column
    dt = 2.0**-10
    x = np.zeros((4, 2, 2))
    v = np.zeros((4, 2, 2))
    x[:, 0, 0], x[:, 1, 0] = -0.5, 0.5
    v[[1, 2], 0, 1] = 1.0
    x[3, 0, 0], x[3, 1, 0] = -10 * dt, 10 * dt
    v[3, 0, 0], v[3, 1, 0] = 1.0, -1.0
    x[0, 1] = x[0, 0]
    icfg = IntegratorConfig(
        scheme=scheme, dt=dt, adaptive=adaptive, reference_distance=2.0**-20, max_substeps=40,
    )
    potential = Untagged(free_potential(2))
    stops = [0.0, 3 * dt, 3 * dt, 12 * dt]
    flags = _assert_stops_match_legs(x, v, potential, 0.02, stops, icfg)
    assert list(flags) == [FLAG_SINGULAR, FLAG_OK, FLAG_OK, FLAG_SINGULAR]
    # both froze where their leg-by-leg flows froze
    xo, vo, _ = flow_batch(x, v, potential, 0.02, icfg, stops=stops)
    wx, wv, _ = _flow_by_legs(x, v, potential, 0.02, stops, icfg)[-1]
    np.testing.assert_array_equal(xo, wx)
    np.testing.assert_array_equal(vo, wv)
    np.testing.assert_array_equal(xo[3, 0], xo[3, 1])


@pytest.mark.parametrize(
    "scheme, adaptive",
    [("velocity_verlet", False), ("velocity_verlet", True), ("rk4", False)],
)
def test_stops_add_no_force_evaluations(scheme, adaptive, monkeypatch):
    # a walk costs the evaluations of its steps plus one at the start: the
    # forces of a leg's last step serve the next leg and the observer
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (50, 2, 2))
    v = rng.uniform(-1.0, 1.0, (50, 2, 2))
    icfg = IntegratorConfig(scheme=scheme, dt=1e-3, adaptive=adaptive)
    stops = list(np.linspace(0.0, 0.05, 33))
    steps = []
    step = dynamics._Batch.step

    def counted_step(batch, h):
        steps.append(h)
        step(batch, h)

    monkeypatch.setattr(dynamics._Batch, "step", counted_step)
    walk = Counting(repulsive_power(2, exponent=1.0))
    flow_batch(x, v, walk, 0.05, icfg, stops=stops, observe=lambda stop, batch: None)
    walk_steps = len(steps)
    assert walk.calls == 1 + FORCES_PER_STEP[scheme] * walk_steps
    # and it takes the steps of its legs flowed one by one
    steps.clear()
    now = 0.0
    for end in [*stops, 0.05]:
        x, v, _ = flow_batch(x, v, walk.base, end - now, icfg)
        now = end
    assert walk_steps == len(steps) > 32
