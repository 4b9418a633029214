import math

import numpy as np
import pytest

from liouville_lab import dynamics, potentials
from liouville_lab.dynamics import (
    FLAG_OK,
    FLAG_SINGULAR,
    FLAG_SUBSTEP_LIMIT,
    IntegratorConfig,
    flow_batch,
    integrate,
    _energy_batch,
    _forces,
)
from liouville_lab.errors import DomainError, SingularityError, SubstepLimitError
from liouville_lab.potentials import (
    MollifiedPotential,
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    gaussian_well,
    harmonic,
    repulsive_power,
)

# a configuration is a pair (x, v) of (n, d) arrays, flowed as a one-row batch


def flow_one(x, v, t, potential, icfg):
    """Flow one configuration by t; the row must come back unflagged."""
    xo, vo, flags = flow_batch(x[None], v[None], potential, t, icfg)
    assert flags[0] == FLAG_OK
    return xo[0], vo[0]


def energy(x, v, potential) -> float:
    return float(_energy_batch(x[None], v[None], potential)[0])


def harmonic_pair_closed_form(x, v, t: float, strength: float = 1.0):
    """Exact two-body solution: relative coordinate oscillates at sqrt(2k)."""
    om = math.sqrt(2.0 * strength)
    r0 = x[0] - x[1]
    w0 = v[0] - v[1]
    xc = 0.5 * (x[0] + x[1])
    vc = 0.5 * (v[0] + v[1])
    rt = r0 * math.cos(om * t) + w0 * math.sin(om * t) / om
    wt = -om * r0 * math.sin(om * t) + w0 * math.cos(om * t)
    xct = xc + t * vc
    return (
        np.stack([xct + 0.5 * rt, xct - 0.5 * rt]),
        np.stack([vc + 0.5 * wt, vc - 0.5 * wt]),
    )


@pytest.fixture
def two_body():
    return (
        np.array([[0.3, -0.2], [-0.5, 0.4]]),
        np.array([[0.1, 0.5], [-0.3, 0.2]]),
    )


THREE_BODY = (
    np.array([[0.3, -0.2], [-0.5, 0.4], [0.6, 0.7]]),
    np.array([[0.1, 0.5], [-0.3, 0.2], [0.2, -0.4]]),
)


def phase_gap(a, b) -> float:
    return max(np.max(np.abs(a[0] - b[0])), np.max(np.abs(a[1] - b[1])))


def test_verlet_matches_two_body_oracle(two_body):
    pot = harmonic(2)
    icfg = IntegratorConfig(dt=1e-3)
    got = flow_one(*two_body, 1.0, pot, icfg)
    want = harmonic_pair_closed_form(*two_body, 1.0)
    err = phase_gap(got, want)
    assert 1e-9 < err < 1.2e-7


def test_verlet_error_is_second_order(two_body):
    pot = harmonic(2)
    want = harmonic_pair_closed_form(*two_body, 1.0)
    errs = [
        phase_gap(flow_one(*two_body, 1.0, pot, IntegratorConfig(dt=dt)), want)
        for dt in (2e-3, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


class Counting:
    """A potential of its own kind, so always stepped, that counts its
    gradient_batch calls."""

    kind = "counting"

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def gradient_batch(self, r, radii=None):
        self.calls += 1
        return self.base.gradient_batch(r, radii)


def test_verlet_step_costs_one_force_evaluation(two_body):
    # the forces at the new x serve the next step's first kick, so a step
    # costs one evaluation after the initial one, and one evaluation is
    # one gradient_batch call for every pair
    for cfg in (two_body, THREE_BODY):
        pot = Counting(harmonic(2))
        flow_one(*cfg, 1.0, pot, IntegratorConfig(dt=0.1))
        assert pot.calls == 1 + 10


def _potential(kind):
    """The d = 2 pair potentials the estimators flow: smooth, singular,
    and a mollification level of the singular one."""
    if kind == "harmonic":
        return harmonic(2)
    if kind == "gaussian_well":
        return gaussian_well(2, depth=1.3, width=0.8)
    if kind == "repulsive_power":
        return repulsive_power(2, exponent=1.0)
    return MollifiedPotential(
        repulsive_power(2, exponent=0.5), MollifierKernel(d=2, power=3), ShrinkFunction(), 2
    )


POTENTIALS = ["harmonic", "gaussian_well", "repulsive_power", "mollified"]
BODIES = [pytest.param(2, id="n2"), pytest.param(3, id="n3")]


@pytest.mark.parametrize("n", BODIES)
@pytest.mark.parametrize("kind", POTENTIALS)
def test_verlet_time_reversibility(kind, n):
    # the identical-level uniqueness gate needs the backward run to retrace
    # the forward one
    x, v = THREE_BODY[0][:n], THREE_BODY[1][:n]
    pot = _potential(kind)
    icfg = IntegratorConfig(dt=1e-3)
    fx, fv = flow_one(x, v, 2.0, pot, icfg)
    bx, bv = flow_one(fx, -fv, 2.0, pot, icfg)
    assert phase_gap((bx, -bv), (x, v)) < 1e-12


@pytest.mark.parametrize("n", BODIES)
@pytest.mark.parametrize("kind", POTENTIALS)
def test_verlet_flow_preserves_phase_volume(kind, n):
    # the weights vol/N assume J = 1: det of the central-difference
    # Jacobian of the 50-step map is 1, and velocity damping c scales it
    # by c per velocity component and step, which the difference resolves
    pot = _potential(kind)
    z0 = np.concatenate([THREE_BODY[0][:n].ravel(), THREE_BODY[1][:n].ravel()])
    D, eps = z0.size, 1e-6
    z = np.concatenate([z0 + eps * np.eye(D), z0 - eps * np.eye(D)])
    for damping, want in ((1.0, 1.0), (0.99, 0.99 ** (D // 2 * 50))):
        icfg = IntegratorConfig(dt=1e-2, velocity_damping=damping)
        x, v, flags = flow_batch(
            z[:, : D // 2].reshape(-1, n, 2), z[:, D // 2 :].reshape(-1, n, 2), pot, 0.5, icfg
        )
        assert not flags.any()
        out = np.concatenate([x.reshape(2 * D, -1), v.reshape(2 * D, -1)], axis=1)
        jac = (out[:D] - out[D:]).T / (2.0 * eps)
        assert abs(np.linalg.det(jac) / want - 1.0) < 1e-7


def test_energy_and_momentum_conservation(two_body):
    pot = gaussian_well(2, depth=1.3, width=0.8)
    icfg = IntegratorConfig(dt=1e-3)
    t = 3.0
    x, v = flow_one(*two_body, t, pot, icfg)
    assert abs(energy(x, v, pot) - energy(*two_body, pot)) < 1e-6
    assert np.max(np.abs(np.sum(v, axis=0) - np.sum(two_body[1], axis=0))) < 1e-10 * t


def test_free_flow_is_exact(two_body):
    pot = free_potential(2)
    x0, v0 = two_body
    x, v, flags = flow_batch(x0[None], v0[None], pot, 1.7, IntegratorConfig(dt=1e-3))
    np.testing.assert_array_equal(x[0], x0 + 1.7 * v0)
    np.testing.assert_array_equal(v[0], v0)
    assert np.all(flags == FLAG_OK)


def test_fixed_grid_flow_composes_bitwise(two_body):
    pot = harmonic(2)
    icfg = IntegratorConfig(dt=1e-3)
    direct = flow_one(*two_body, 0.6, pot, icfg)
    composed = flow_one(*flow_one(*two_body, 0.25, pot, icfg), 0.35, pot, icfg)
    np.testing.assert_array_equal(direct[0], composed[0])
    np.testing.assert_array_equal(direct[1], composed[1])


def test_forces_return_rhs(two_body):
    x = two_body[0]
    acc, dmin = _forces(x[None], harmonic(2))
    r = x[0] - x[1]
    np.testing.assert_allclose(acc[0, 0], -r, atol=1e-14)
    np.testing.assert_allclose(acc[0, 1], r, atol=1e-14)
    assert dmin[0] == pytest.approx(np.linalg.norm(r))


def test_trajectory_recording_and_csv(two_body, tmp_path):
    pot = harmonic(2)
    traj = integrate(*two_body, pot, 0.01, IntegratorConfig(dt=1e-3))
    assert traj.times.size == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.01, abs=1e-12)
    assert traj.energies.shape == (11,)
    np.testing.assert_array_equal(traj.x[0], two_body[0])

    path = tmp_path / "traj.csv"
    traj.to_csv(path, stride=3)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x_1_1,x_1_2,x_2_1,x_2_2,v_1_1,v_1_2,v_2_1,v_2_2,E,dmin"
    # stride 3 over 11 rows keeps 0,3,6,9 plus the forced final row
    assert len(lines) == 1 + 5
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(DomainError):
        traj.to_csv(path, stride=0)


def _recorded_step_by_step(x0, v0, potential, t, icfg):
    """(times, x, v, min distances) of a one-row flow, appended step by
    step from its hook and stacked at the end."""
    times, xs, vs, dmins = [], [], [], []

    def record(tk, batch):
        times.append(tk)
        xs.append(batch.X[..., 0].copy())
        vs.append(batch.V[..., 0].copy())
        dmins.append(batch.dmin[0])

    dynamics._flow(x0[None], v0[None], potential, t, icfg, hook=record)
    return np.asarray(times), np.stack(xs), np.stack(vs), np.asarray(dmins)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_integrate_is_bitwise_the_step_by_step_record(adaptive, monkeypatch):
    pot = repulsive_power(2, exponent=1.0)
    x0 = np.array([[-0.2, 0.02], [0.2, -0.02]])
    v0 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    t = 0.02
    # every step shrinks to dt (dmin / 2)^1.5 < dt / 9 near the encounter
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 2.0)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive)
    traj = integrate(x0, v0, pot, t, icfg)
    times, x, v, dmins = _recorded_step_by_step(x0, v0, pot, t, icfg)
    if adaptive:
        # the buffers start with a row per fixed step and the start, 22
        # here, and doubled at least twice
        assert times.size > 4 * (int(t / icfg.dt) + 2)
    else:
        assert times.size == 21
    for got, want in zip(
        (traj.times, traj.x, traj.v, traj.min_distances, traj.energies),
        (times, x, v, dmins, _energy_batch(x, v, pot)),
    ):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_trajectory_csv_is_bytewise_the_per_value_format(tmp_path):
    # nan, +-inf and -0.0 print as the per-value f-string prints them
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1.0 / 3.0, -1e300]
    rng = np.random.default_rng(3)
    traj = dynamics.Trajectory(
        times=np.array(special),
        x=rng.standard_normal((8, 2, 2)) * np.array(special)[::-1, None, None],
        v=np.array(special)[np.arange(32).reshape(8, 2, 2) % 8],
        energies=np.array(special)[::-1],
        min_distances=rng.standard_normal(8),
    )
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = np.column_stack(
        [traj.times, traj.x.reshape(8, 4), traj.v.reshape(8, 4), traj.energies, traj.min_distances]
    )
    header = "t,x_1_1,x_1_2,x_2_1,x_2_2,v_1_1,v_1_2,v_2_1,v_2_2,E,dmin\n"
    body = "".join(",".join(f"{val:.17g}" for val in row) + "\n" for row in rows)
    assert path.read_bytes() == (header + body).encode("utf-8")
    for text in ("nan", "inf", "-inf", "-0,"):
        assert text in body


@pytest.mark.parametrize(
    "cfg, kind, adaptive",
    [
        pytest.param("two", "gaussian_well", False, id="n2"),
        pytest.param("three", "gaussian_well", False, id="n3"),
        pytest.param("three", "repulsive_power", True, id="adaptive-repulsive_power-n3"),
    ],
)
def test_integrate_records_the_flow_bitwise(cfg, kind, adaptive, two_body, monkeypatch):
    x0, v0 = two_body if cfg == "two" else THREE_BODY
    pot = _potential(kind)
    # every pair starts within REFERENCE_DISTANCE, so adaptive steps shrink
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 2.0)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive)
    # 12 whole steps and a remainder step
    traj = integrate(x0, v0, pot, -0.0125, icfg)
    if adaptive:
        # a flow to an adaptive row's time need not take its steps, which
        # are clipped to what is left; the whole flow does
        assert np.all(np.abs(np.diff(traj.times)) < icfg.dt)
        assert traj.times[-1] == -0.0125
        rows = [traj.times.size - 1]
    else:
        assert traj.times.size == 14
        rows = range(1, traj.times.size)
    for k in rows:
        x, v = flow_one(x0, v0, -0.0125 if adaptive else float(traj.times[k]), pot, icfg)
        np.testing.assert_array_equal(traj.x[k], x)
        np.testing.assert_array_equal(traj.v[k], v)
    # the recorded distances and energies are those of the recorded states
    n = x0.shape[0]
    for k in range(traj.times.size):
        radii = [np.sqrt(np.sum(r * r)) for r in (traj.x[k, i] - traj.x[k, j]
                 for i in range(n) for j in range(i + 1, n))]
        assert traj.min_distances[k] == min(radii)
    np.testing.assert_array_equal(traj.energies, _energy_batch(traj.x, traj.v, pot))


def test_adaptive_close_encounter_conserves_energy(monkeypatch):
    pot = repulsive_power(2, exponent=1.0)
    x0 = np.array([[-1.0, 0.02], [1.0, -0.02]])
    v0 = np.array([[2.0, 0.0], [-2.0, 0.0]])
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 0.5)
    icfg = IntegratorConfig(dt=1e-3, adaptive=True)
    x, v = flow_one(x0, v0, 1.0, pot, icfg)
    rel = abs(energy(x, v, pot) - energy(x0, v0, pot)) / abs(energy(x0, v0, pot))
    assert rel < 1e-4
    # the encounter is over and the particles have separated again
    assert _forces(x[None], pot)[1][0] > 1.0


def test_adaptive_substep_budget_flags_rows(monkeypatch):
    pot = repulsive_power(2, exponent=1.0)
    x = np.array([[[-1.0, 0.02], [1.0, -0.02]]])
    v = np.array([[[2.0, 0.0], [-2.0, 0.0]]])
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 5)
    icfg = IntegratorConfig(dt=1e-3, adaptive=True)
    _, _, flags = flow_batch(x, v, pot, 1.0, icfg)
    assert flags[0] == FLAG_SUBSTEP_LIMIT
    # the one-configuration recorder raises instead
    with pytest.raises(SubstepLimitError):
        integrate(x[0], v[0], pot, 1.0, icfg)


def test_fixed_step_budget_raises(monkeypatch):
    pot = harmonic(2)
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 10)
    with pytest.raises(SubstepLimitError):
        flow_batch(np.zeros((1, 2, 2)), np.ones((1, 2, 2)), pot, 1.0, IntegratorConfig(dt=1e-3))


@pytest.mark.parametrize("t, steps", [(0.01, 10), (0.0105, 11)])
def test_fixed_step_budget_counts_steps_taken(t, steps, two_body, monkeypatch):
    # 0.01 is ten whole steps with no remainder step; 0.0105 takes one
    pot = harmonic(2)
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", steps)
    flow_one(*two_body, t, pot, IntegratorConfig(dt=1e-3))
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", steps - 1)
    with pytest.raises(SubstepLimitError, match=f"{steps} fixed steps"):
        flow_one(*two_body, t, pot, IntegratorConfig(dt=1e-3))


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
    icfg = IntegratorConfig(dt=1e-3)
    _, _, flags = flow_batch(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), pot, 1e-3, icfg)
    assert flags[0] == FLAG_SINGULAR
    # the one-configuration recorder raises instead
    with pytest.raises(SingularityError):
        integrate(np.zeros((2, 2)), np.zeros((2, 2)), pot, 1e-3, icfg)


def test_configuration_and_integrator_validation():
    icfg = IntegratorConfig()
    with pytest.raises(DomainError):
        flow_batch(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)), harmonic(2), 1.0, icfg)
    with pytest.raises(DomainError):
        integrate(np.zeros(4), np.zeros(4), harmonic(2), 1.0, icfg)
    # velocity Verlet is the one stepper
    for scheme in ("euler", "rk4"):
        with pytest.raises(DomainError, match="unknown scheme"):
            IntegratorConfig(scheme=scheme)
    with pytest.raises(DomainError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(velocity_damping=0.0)
    with pytest.raises(DomainError):
        IntegratorConfig(velocity_damping=1.5)


def test_velocity_damping_dissipates(two_body):
    pot = harmonic(2)
    x, v = flow_one(*two_body, 1.0, pot, IntegratorConfig(dt=1e-3, velocity_damping=0.99))
    assert energy(x, v, pot) < energy(*two_body, pot)


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


def _reference_flow_row(x, v, potential, t, icfg):
    """Flow one (n, d) state; returns (x, v, flag) with the state frozen
    at the step that raised the flag."""
    damping = icfg.velocity_damping
    x, v = x[None], v[None]
    acc, dmin = _reference_forces(x, potential)
    if dmin[0] < 1e-12:
        return x[0], v[0], FLAG_SINGULAR
    sgn = 1.0 if t > 0 else -1.0
    if icfg.adaptive:
        remaining = np.array([abs(t)])
        for taken in range(1, dynamics.MAX_SUBSTEPS + 1):
            h = icfg.dt * np.minimum(1.0, (dmin / dynamics.REFERENCE_DISTANCE) ** 1.5)
            last = h >= remaining
            h = np.where(last, remaining, h)
            x, v, acc, dmin = _reference_verlet(
                x, v, acc, potential, (sgn * h)[:, None, None], damping
            )
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
        x, v, acc, dmin = _reference_verlet(x, v, acc, potential, h, damping)
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
    """A potential of a kind other than free, so that flow_batch steps even
    free flow."""

    kind = "untagged"

    def __init__(self, base):
        self.base = base

    def gradient_batch(self, r, radii=None):
        return self.base.gradient_batch(r, radii)


@pytest.mark.parametrize("d", [1, 2, 3], ids=["d1", "d2", "d3"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [0.0305, -0.0305])
@pytest.mark.parametrize("damping", [1.0, 0.99])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_flow_batch_matches_row_major_reference_bitwise(adaptive, damping, t, n, d, monkeypatch):
    # d = 1 and d = 3 take the other branches of the pair distance sum
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, (12, n, d))
    v = rng.uniform(-1.0, 1.0, (12, n, d))
    x[3, 1] = x[3, 0]  # coincident at the start
    # a head-on pair that closes to 2e-3 within the run (exactly head-on in d = 1)
    x[5, :2] = 0.0
    v[5, :2] = 0.0
    x[5, 0, :2], x[5, 1, :2] = [-0.03, 0.001][:d], [0.03, -0.001][:d]
    v[5, 0, 0], v[5, 1, 0] = 2.0, -2.0
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 40)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive, velocity_damping=damping)
    flags = _assert_matches_reference(x, v, repulsive_power(d, exponent=1.0), t, icfg)
    assert flags[3] == FLAG_SINGULAR
    # 31 steps cover |t|; the encounter needs more than 40 adaptive substeps
    assert flags[5] == (FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_flagged_rows_freeze_like_the_reference(adaptive, monkeypatch):
    # force-free flow on a dyadic grid is exact: row 1 closes 2 dt per step
    # and meets at step 10, row 2 sits below REFERENCE_DISTANCE and crawls
    dt = 2.0**-10
    x = np.zeros((4, 2, 2))
    v = np.zeros((4, 2, 2))
    x[:, 0, 0], x[:, 1, 0] = -0.5, 0.5
    v[[0, 3], 0, 1] = 1.0
    x[1, 0, 0], x[1, 1, 0] = -10 * dt, 10 * dt
    v[1, 0, 0], v[1, 1, 0] = 1.0, -1.0
    x[2, 1, 0] = x[2, 0, 0] + 2.0**-24
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 2.0**-20)
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 40)
    icfg = IntegratorConfig(dt=dt, adaptive=adaptive)
    flags = _assert_matches_reference(x, v, Untagged(free_potential(2)), 0.02, icfg)
    xo, _, _ = flow_batch(x, v, Untagged(free_potential(2)), 0.02, icfg)
    assert flags[1] == FLAG_SINGULAR
    np.testing.assert_array_equal(xo[1, 0], xo[1, 1])
    assert flags[2] == (FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK)
    assert flags[0] == flags[3] == FLAG_OK


@pytest.mark.parametrize("kind", ["harmonic", "repulsive_power"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_nan_rows_are_singular_in_both_runners(adaptive, kind, monkeypatch):
    # one flag rule: a NaN min pair distance is a coincidence at once, so an
    # adaptive run does not step a NaN row until its budget runs out
    pot = harmonic(2) if kind == "harmonic" else repulsive_power(2, exponent=1.0)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, (5, 2, 2))
    v = rng.uniform(-1.0, 1.0, (5, 2, 2))
    x[2, 1, 0] = np.nan
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 2000)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive)
    xo, vo, flags = flow_batch(x, v, pot, 0.0305, icfg)
    assert flags[2] == FLAG_SINGULAR
    others = [0, 1, 3, 4]
    rows = [_reference_flow_row(x[k], v[k], pot, 0.0305, icfg) for k in others]
    np.testing.assert_array_equal(xo[others], np.stack([r[0] for r in rows]))
    np.testing.assert_array_equal(vo[others], np.stack([r[1] for r in rows]))
    np.testing.assert_array_equal(flags[others], np.array([r[2] for r in rows], dtype=np.int8))


@pytest.mark.parametrize("damping", [1.0, 0.99], ids=["undamped", "damped"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_flow_without_stops_runs_in_blocks_bitwise(adaptive, damping, monkeypatch):
    # with blocks of 5 rows, 23 rows of n = 3 run as five flows, the last of
    # 3 rows; each row is stepped on its own and every active row of a leg
    # has taken the same substeps, so states and flags are bitwise those of
    # one flow: a coincident row, a NaN row and a head-on encounter that
    # needs more than the 40 adaptive substeps the budget allows, where
    # steps shrink below pair distances of 0.1
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (23, 3, 2))
    v = rng.uniform(-1.0, 1.0, (23, 3, 2))
    x[3, 1] = x[3, 0]
    x[8, 2, 1] = np.nan
    x[12], v[12] = [[-0.03, 0.001], [0.03, -0.001], [0.9, 0.9]], [[2.0, 0.0], [-2.0, 0.0], [0.0, 0.0]]
    pot = repulsive_power(2, exponent=1.0)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive, velocity_damping=damping)
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 40)
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 0.1)
    want = dynamics._flow(x, v, pot, 0.0305, icfg)
    rows, flow = [], dynamics._flow
    monkeypatch.setattr(dynamics, "_flow", lambda x, *args: rows.append(len(x)) or flow(x, *args))
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 5)
    got = flow_batch(x, v, pot, 0.0305, icfg)
    assert rows == [5, 5, 5, 5, 3]
    for part, whole in zip(got, want):
        assert part.dtype == whole.dtype
        np.testing.assert_array_equal(part, whole)
    flags = got[2]
    assert flags[3] == flags[8] == FLAG_SINGULAR
    assert flags[12] == (FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK)
    assert np.count_nonzero(flags == FLAG_OK) >= 20
    # a flow with stops runs in the same blocks, with the same bits
    rows.clear()
    want = flow(x, v, pot, 0.0305, icfg, None, [0.01])
    got = flow_batch(x, v, pot, 0.0305, icfg, stops=[0.01])
    assert rows == [5, 5, 5, 5, 3]
    for part, whole in zip(got, want):
        np.testing.assert_array_equal(part, whole)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_paused_flow_in_blocks_observes_each_block_at_each_stop(adaptive, monkeypatch):
    # 23 rows in blocks of 5: each block pauses at every stop in turn, so
    # the observer sees every block once at each stop, and each stop's
    # blocks, in row order, are bitwise the rows of one block there
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (23, 3, 2))
    v = rng.uniform(-1.0, 1.0, (23, 3, 2))
    x[3, 1] = x[3, 0]
    x[12], v[12] = [[-0.03, 0.001], [0.03, -0.001], [0.9, 0.9]], [[2.0, 0.0], [-2.0, 0.0], [0.0, 0.0]]
    pot = repulsive_power(2, exponent=1.0)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive)
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 12)
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 0.1)
    stops = [0.0041, 0.0123, 0.0123, 0.0199, 0.0305]

    def observer(seen):
        def observe(stop, batch):
            seen.append((stop, batch.N, *batch.result()))
        return observe

    whole, parts = [], []
    want = flow_batch(x, v, pot, 0.0305, icfg, stops=stops, observe=observer(whole))
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 5)
    got = flow_batch(x, v, pot, 0.0305, icfg, stops=stops, observe=observer(parts))
    assert [seen[:2] for seen in whole] == [(stop, 23) for stop in stops]
    assert [seen[:2] for seen in parts] == [(stop, n) for n in (5, 5, 5, 5, 3) for stop in stops]
    for part, ref in zip(got, want):
        np.testing.assert_array_equal(part, ref)
    for k, (_, _, *state) in enumerate(whole):
        blocks = [seen[2:] for seen in parts[k :: len(stops)]]
        for part, ref in zip(zip(*blocks), state):
            assert np.concatenate(part).tobytes() == ref.tobytes()
    assert want[2][3] == FLAG_SINGULAR
    assert want[2][12] == (FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK)


@pytest.mark.parametrize("t", [
    np.inf, -np.inf, np.nan, np.array([0.1, np.inf, 0.0]), np.array([-0.1, -np.inf, -0.2]),
], ids=["inf", "-inf", "nan", "row-inf", "row--inf"])
@pytest.mark.parametrize("potential, adaptive", [
    (repulsive_power(2, exponent=1.0), False),
    (repulsive_power(2, exponent=1.0), True),
    (free_potential(2), False),
], ids=["fixed", "adaptive", "free"])
def test_non_finite_times_refused_before_any_flow(t, potential, adaptive, monkeypatch):
    # an infinite time once overflowed the fixed step plan, ran every
    # adaptive leg to the substep budget, or left the free flow's rows NaN
    # without a flag
    flows = []
    monkeypatch.setattr(dynamics, "_flow", lambda *args, **kwargs: flows.append(args))
    x = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 2, 2))
    with pytest.raises(DomainError, match="must be finite"):
        flow_batch(x, x, potential, t, IntegratorConfig(adaptive=adaptive))
    if np.ndim(t) == 0:
        with pytest.raises(DomainError, match="must be finite"):
            integrate(x[0], x[0], potential, t, IntegratorConfig(adaptive=adaptive))
    assert not flows


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
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_stops_match_flowing_leg_by_leg_bitwise(adaptive, damping, t, monkeypatch):
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
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 12)
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive, velocity_damping=damping)
    pot = repulsive_power(2, exponent=1.0)
    flags = _assert_stops_match_legs(x, v, pot, t, stops, icfg)
    limited = FLAG_SUBSTEP_LIMIT if adaptive else FLAG_OK
    assert flags[4] == flags[9] == limited
    assert np.count_nonzero(flags == FLAG_OK) >= 10
    # with room for every substep no row is frozen, and parked rows still
    # come back in input order
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 10_000)
    flags = _assert_stops_match_legs(x, v, pot, t, stops, icfg)
    assert not flags.any()


@pytest.mark.parametrize("t", [1.7, -1.7])
def test_stops_keep_the_free_closed_form(t, two_body):
    # the free flow advances x + leg v leg by leg, observed or not
    pot, icfg = free_potential(2), IntegratorConfig(dt=1e-3)
    x = np.stack([two_body[0], THREE_BODY[0][:2]])
    v = np.stack([two_body[1], THREE_BODY[1][:2]])
    stops = [s * np.sign(t) for s in (0.3, 0.3, 1.1)]
    assert not _assert_stops_match_legs(x, v, pot, t, stops, icfg).any()
    x_end, _, _ = flow_batch(x, v, pot, t, icfg, stops=stops)
    np.testing.assert_array_equal(x_end, _flow_by_legs(x, v, pot, t, stops, icfg)[-1][0])


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_stops_freeze_a_row_that_collides_mid_walk(adaptive, monkeypatch):
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
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 2.0**-20)
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 40)
    icfg = IntegratorConfig(dt=dt, adaptive=adaptive)
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


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_stops_add_no_force_evaluations(adaptive, monkeypatch):
    # a walk costs the evaluations of its steps plus one at the start: the
    # forces of a leg's last step serve the next leg and the observer
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (50, 2, 2))
    v = rng.uniform(-1.0, 1.0, (50, 2, 2))
    icfg = IntegratorConfig(dt=1e-3, adaptive=adaptive)
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
    assert walk.calls == 1 + walk_steps
    # and it takes the steps of its legs flowed one by one
    steps.clear()
    now = 0.0
    for end in [*stops, 0.05]:
        x, v, _ = flow_batch(x, v, walk.base, end - now, icfg)
        now = end
    assert walk_steps == len(steps) > 32


def test_retired_rows_stay_in_the_batch(monkeypatch):
    # adaptive legs of 4 substeps park rows that finish early and retire
    # others while rows are parked; every row keeps its column throughout
    rng = np.random.default_rng(7)
    x, v = rng.uniform(-1.0, 1.0, (2, 300, 2, 2))
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 4)
    icfg = IntegratorConfig(dt=1e-2, adaptive=True)
    parked_at_retirement = []
    retire = dynamics._Batch.retire

    def watched_retire(batch, mask, flag):
        if mask.any():
            parked_at_retirement.append(batch.live - batch.m)
        retire(batch, mask, flag)

    monkeypatch.setattr(dynamics._Batch, "retire", watched_retire)
    seen, marks = [], []

    def observe(stop, batch):
        assert sorted(batch._idx) == list(range(batch.N))
        if not marks:
            # each row's input index, registered to ride along with it
            marks.append(batch.track(batch._idx.astype(float)))
        seen.append((batch._idx.copy(), marks[0].copy(), batch.live, batch.flags.copy()))

    stops = np.linspace(0.02, 0.34, 17)
    _, _, flags = flow_batch(
        x, v, repulsive_power(2, exponent=1.0), 0.34, icfg, stops=stops, observe=observe,
    )
    assert len(seen) == 17 and max(parked_at_retirement) > 0
    idx, mark, live, last_flags = seen[-1]
    np.testing.assert_array_equal(last_flags, flags)
    # the retired block holds exactly the flagged rows
    retired = np.flatnonzero(flags)
    assert 0 < retired.size < 30
    assert sorted(idx[live:]) == list(retired)
    # and the tracked array still holds each retired row's value
    per_row = np.full(flags.size, -1.0)
    per_row[idx] = mark
    np.testing.assert_array_equal(per_row[retired], retired)


# -- a ladder of mollified levels flowed in one batch


def _assert_flows_equal(got, want):
    for part, whole in zip(got, want):
        assert part.dtype == whole.dtype
        np.testing.assert_array_equal(part, whole)


def _ladder_members():
    base = repulsive_power(2, exponent=0.5)
    shrink = ShrinkFunction()
    return [MollifiedPotential(base, MollifierKernel(d=2, power=p), shrink, level)
            for level, p in ((3, 3), (4, 3), (4, 5))]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_ladder_flow_equals_separate_flows_bitwise(adaptive, n, monkeypatch):
    # three members of 7 rows each, blocks of 5 rows, so that blocks cut
    # across members; one member's rows hold a coincident row and a close
    # encounter that takes the direct quadrature below the table
    rng = np.random.default_rng(60 + n)
    N = 7
    x = rng.uniform(-1.0, 1.0, (3 * N, n, 2))
    v = rng.uniform(-1.0, 1.0, (3 * N, n, 2))
    x[N + 2, 1] = x[N + 2, 0]
    x[2 * N + 4, 1] = x[2 * N + 4, 0] + 5e-4
    v[2 * N + 4, 1] = v[2 * N + 4, 0]
    icfg = IntegratorConfig(dt=2e-3, adaptive=adaptive)
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 5)
    members = _ladder_members()
    got = flow_batch(x, v, potentials.MollifiedLadder(members), 0.05, icfg)
    alone = _ladder_members()
    want = [flow_batch(x[j * N : (j + 1) * N], v[j * N : (j + 1) * N], pot, 0.05, icfg)
            for j, pot in enumerate(alone)]
    _assert_flows_equal(got, [np.concatenate(part) for part in zip(*want)])
    assert got[2][N + 2] == FLAG_SINGULAR and np.count_nonzero(got[2]) == 1
    assert [m.fallback_rows for m in members] == [m.fallback_rows for m in alone]
    assert alone[2].fallback_rows > 0


def test_ladder_flow_refuses_rows_that_do_not_split_into_its_members():
    x = np.zeros((4, 2, 2))
    with pytest.raises(DomainError, match="multiple of 3"):
        flow_batch(x, x, potentials.MollifiedLadder(_ladder_members()), 0.1, IntegratorConfig())


# -- one flow time per row


def _per_row_case():
    rng = np.random.default_rng(70)
    x = rng.uniform(-1.0, 1.0, (12, 3, 2))
    v = rng.uniform(-1.0, 1.0, (12, 3, 2))
    x[4, 1] = x[4, 0]
    x[5, 2] = x[5, 0]
    # times off the step grid, a whole number of steps, and none at all,
    # for the coincident rows too
    t = np.array([0.0137, 0.02, 0.0, 0.0071, 0.009, 0.0, 0.03, 0.0233, 0.001, 0.0015, 0.0, 0.02])
    return x, v, t


@pytest.mark.parametrize("potential", [repulsive_power(2, exponent=1.0), free_potential(2)],
                         ids=["repulsive", "free"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_per_row_times_equal_per_row_flows_bitwise(adaptive, sign, potential, monkeypatch):
    x, v, t = _per_row_case()
    t = sign * t
    icfg = IntegratorConfig(dt=2e-3, adaptive=adaptive)
    monkeypatch.setattr(dynamics, "REFERENCE_DISTANCE", 2.0)
    want = [flow_batch(x[i : i + 1], v[i : i + 1], potential, t[i], icfg) for i in range(len(t))]
    want = [np.concatenate(part) for part in zip(*want)]
    _assert_flows_equal(flow_batch(x, v, potential, t, icfg), want)
    # the coincident row with a time is flagged; the one with none is not
    if potential.kind != "free":
        assert want[2][4] == FLAG_SINGULAR and want[2][5] == FLAG_OK
    # and in blocks of 5 rows
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 5)
    _assert_flows_equal(flow_batch(x, v, potential, t, icfg), want)


def test_per_row_times_with_a_ladder_equal_separate_flows_bitwise():
    x, v, t = _per_row_case()
    x, v, t = x[:9], v[:9], -t[:9]
    icfg = IntegratorConfig(dt=2e-3)
    got = flow_batch(x, v, potentials.MollifiedLadder(_ladder_members()), t, icfg)
    want = [flow_batch(x[i : i + 1], v[i : i + 1], pot, t[i], icfg)
            for pot, i in zip(np.repeat(_ladder_members(), 3), range(9))]
    _assert_flows_equal(got, [np.concatenate(part) for part in zip(*want)])


@pytest.mark.parametrize("t, stops", [
    ([0.1, -0.1, 0.0], ()),
    ([0.1, 0.2, np.nan], ()),
    ([0.1, 0.2], ()),
    ([0.1, 0.2, 0.3], (0.05,)),
], ids=["mixed-signs", "nan", "length", "stops"])
def test_per_row_times_refused(t, stops):
    x = np.zeros((3, 2, 2))
    with pytest.raises(DomainError):
        flow_batch(x, x, repulsive_power(2, exponent=1.0), np.array(t), IntegratorConfig(),
                   stops=stops)
