import csv
import json
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from liouville_lab import dynamics, potentials, transport, verification
from liouville_lab.dynamics import FLAG_OK, IntegratorConfig, _forces, flow_batch
from liouville_lab.errors import CoverageError, DomainError
from liouville_lab.estimates import MCEstimate
from liouville_lab.potentials import (
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    harmonic,
    piecewise_radial,
    repulsive_power,
)
from liouville_lab.profiles import bump_pair
from liouville_lab.rng import rng_for
from liouville_lab.transport import (
    BetaFunction,
    InitialDatum,
    PhaseBox,
    TestFunction,
    random_test_function,
    residual_window,
    sample_ensemble,
    shipped_beta_family,
    smoothed_clamp,
    tanh_squash,
)
from liouville_lab.verification import (
    DELTA_STEPS,
    FLAGGED_FRACTION_LIMIT,
    GRADIENT_ANNULUS,
    GRADIENT_SAMPLES,
    KICK,
    WEAK_ODE_NODES,
    CheckReport,
    check_collision_scaling,
    check_energy_invariance,
    check_gradient_l1_decreasing,
    check_group_property,
    check_measure_preservation,
    check_mollification_cauchy,
    check_renormalization_suite,
    check_time_continuity,
    check_uniqueness_monotone,
    check_weak_ode,
    default_observable_for,
    flow_axiom_suite,
    require_checks,
    require_radii,
    write_reports_jsonl,
    write_summary_csv,
    _Sample,
    _simpson_defects,
)

SEED = 424242
ICFG = IntegratorConfig(dt=1e-3)
BOX = PhaseBox.centered(2, 2, 1.5, 1.5)


# ---------------------------------------------------------------------------
# report container and writers


def make_report(**overrides) -> CheckReport:
    kwargs = dict(
        check_name="demo",
        potential="harmonic(k=1,d=2)",
        seed=1,
        sample_count=100,
        statistic=0.5,
        std_error=0.1,
        bias_bound=0.05,
        tolerance=0.2,
        flagged_fraction=0.0,
        runtime_seconds=0.1,
        details={"arr": np.arange(3.0)},
    )
    kwargs.update(overrides)
    return CheckReport.build(**kwargs)


def test_pass_rule_combines_tolerance_noise_and_bias():
    # budget = 0.2 + 3 * 0.1 + 0.05 = 0.55
    assert make_report(statistic=0.55).passed
    assert not make_report(statistic=0.5500001).passed
    assert not make_report(statistic=0.0, flagged_fraction=2 * FLAGGED_FRACTION_LIMIT).passed
    assert make_report(statistic=0.0, flagged_fraction=FLAGGED_FRACTION_LIMIT).passed


def test_report_json_schema():
    r = make_report()
    d = r.to_json_dict()
    assert set(d) == {
        "check_name", "potential", "seed", "N", "statistic", "std_error",
        "bias_bound", "tolerance", "flagged_fraction", "pass",
        "runtime_seconds", "details",
    }
    assert d["N"] == 100
    assert d["pass"] is True
    assert d["details"]["arr"] == [0.0, 1.0, 2.0]
    json.dumps(d)  # everything must serialize


def test_summary_line_format():
    assert make_report().summary_line().startswith("pass: demo [harmonic(k=1,d=2)]")
    assert make_report(statistic=9.0).summary_line().startswith("FAIL: demo")


def test_summary_line_appends_support_visits():
    visits = {"support_visits": {"start": 412, "end": 398}}
    line = make_report(details=visits).summary_line()
    assert line.startswith("pass: demo [harmonic(k=1,d=2)]")
    assert line.endswith(" budget=5.500e-01 support_visits=412/398")
    assert "support_visits" not in make_report().summary_line()


def test_report_writers(tmp_path):
    reports = [make_report(), make_report(check_name="other", statistic=9.0)]
    jl = tmp_path / "reports.jsonl"
    write_reports_jsonl(reports, jl)
    lines = jl.read_text().strip().split("\n")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["check_name"] == "demo" and first["pass"] is True
    assert json.loads(lines[1])["pass"] is False

    cs = tmp_path / "summary.csv"
    write_summary_csv(reports, cs)
    with open(cs, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check_name", "potential", "N", "statistic", "tolerance", "pass"]
    assert rows[1][0] == "demo" and rows[1][5] == "true"
    assert rows[2][0] == "other" and rows[2][5] == "false"


# ---------------------------------------------------------------------------
# default observables


def test_default_observable_fits_box_and_is_deterministic():
    pot = harmonic(2)
    phi = default_observable_for(pot, BOX, seed=5)
    lo, hi = phi.support_bounds()
    assert BOX.contains(lo, hi)
    again = default_observable_for(pot, BOX, seed=5)
    np.testing.assert_array_equal(phi.centers, again.centers)
    other = default_observable_for(pot, BOX, seed=6)
    assert not np.array_equal(phi.centers, other.centers)


def test_default_observable_separates_particles_for_confining():
    pot = repulsive_power(2, exponent=1.0)  # confining in d = 2
    phi = default_observable_for(pot, BOX, seed=5)
    lo, hi = phi.support_bounds()
    assert BOX.contains(lo, hi)
    assert phi.min_support_pair_distance() > 0.1


# ---------------------------------------------------------------------------
# flow-axiom checks on the harmonic potential, small N


def test_measure_preservation_passes_and_control_fails():
    ok = check_measure_preservation(harmonic(2), BOX, 0.3, 8000, SEED, ICFG)
    assert ok.passed
    assert ok.check_name == "measure_preservation"
    assert ok.flagged_fraction == 0.0
    bad = check_measure_preservation(
        harmonic(2), BOX, 0.3, 8000, SEED, ICFG, negative_control=True
    )
    assert not bad.passed
    assert bad.check_name == "measure_preservation_control"


def test_measure_preservation_rejects_uncovered_observable():
    # backward free-flow preimages of a velocity-wide observable leave the box
    phi = TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0,
        centers=np.zeros(8), widths=np.full(8, 1.3),
    )
    with pytest.raises(CoverageError):
        check_measure_preservation(
            free_potential(2), BOX, 3.0, 1000, SEED, ICFG, phi=phi
        )


def test_measure_preservation_rejects_unvisited_observable():
    # one of 4000 samples reaches the edge of the default observable's
    # support at t=0 and none at t=0.1: the statistic underflowed to
    # 3e-258 with a zero standard error and read as a failed check
    with pytest.raises(CoverageError, match="not visited: 1 of 4000"):
        check_measure_preservation(harmonic(2), BOX, 0.1, 4000, 11, ICFG)


def test_measure_preservation_reports_support_visits():
    report = check_measure_preservation(harmonic(2), BOX, 0.3, 8000, SEED, ICFG)
    visits = report.details["support_visits"]
    assert visits["start"] > 0 and visits["end"] > 0
    # no sample comes near a support of (0.05 / 1.5)^8 of the box: the
    # check passes on nothing, and the details say so
    tiny = TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0,
        centers=np.zeros(8), widths=np.full(8, 0.05),
    )
    empty = check_measure_preservation(harmonic(2), BOX, 0.3, 1000, SEED, ICFG, phi=tiny)
    assert empty.statistic == 0.0 and empty.std_error == 0.0 and empty.passed
    assert empty.details["support_visits"] == {"start": 0, "end": 0}


def test_measure_preservation_needs_two_samples():
    # one sample has no standard error: it read nan and failed, and an
    # infinite one would widen the budget until any statistic passed
    with pytest.raises(DomainError, match="at least two samples, got 1"):
        check_measure_preservation(harmonic(2), BOX, 0.3, 1, SEED, ICFG)


def test_measure_preservation_observable_is_sized_with_n():
    # n = 2 keeps its observable: a bump on the box shrunk to 0.6
    lows, highs = 0.6 * BOX.lows, 0.6 * BOX.highs
    inner = PhaseBox(lows=lows, highs=highs, d=2, n=2)
    ref = random_test_function(
        2, 2, inner, t_center=0.0, t_width=1.0, rng=rng_for(5, "observable")
    )
    phi = default_observable_for(harmonic(2), BOX, seed=5)
    np.testing.assert_array_equal(phi.centers, ref.centers)
    np.testing.assert_array_equal(phi.widths, ref.widths)
    # the three-body verify config at seed 30: with n = 2's shrink factor one
    # sample of 100k reached only the support's edge and the check raised
    box = PhaseBox.centered(2, 3, 2.0, 2.0)
    report = check_measure_preservation(harmonic(2), box, 0.05, 100_000, 30, ICFG)
    assert report.passed
    visits = report.details["support_visits"]
    assert visits["start"] >= 20 and visits["end"] >= 20


def test_measure_preservation_probes_the_undamped_preimage_for_the_control():
    # the control probed its preimage under damping, which contracts the
    # velocities that the inverse of the damped map expands, so on this box
    # the positive raised and the control passed the probe
    pot = harmonic(2)
    phi = default_observable_for(pot, PhaseBox.centered(2, 2, 2.0, 2.0), 1)
    box = PhaseBox.centered(2, 2, 2.0, 1.1)
    for control in (False, True):
        with pytest.raises(CoverageError, match="preimage"):
            check_measure_preservation(
                pot, box, 0.05, 20_000, 1, ICFG, phi=phi, negative_control=control
            )


SEPARATED = TestFunction(
    d=2, n=2, t_center=0.0, t_width=1.0,
    centers=np.array([-0.48, 0.0, 0.48, 0.0, 0.0, 0.0, 0.0, 0.0]),
    widths=np.array([0.3, 0.6, 0.3, 0.6, 0.9, 0.9, 0.9, 0.9]),
)


@pytest.mark.parametrize("control", [False, True], ids=["positive", "control"])
@pytest.mark.parametrize(
    "pot, box, icfg, phi",
    [
        (harmonic(2), PhaseBox.centered(2, 2, 2.0, 2.0), ICFG, None),
        (repulsive_power(2, exponent=1.0), BOX, replace(ICFG, adaptive=True), SEPARATED),
        (potentials.gaussian_well(2, depth=1.3, width=0.8),
         PhaseBox.centered(2, 3, 2.0, 2.0), ICFG, None),
    ],
    ids=["harmonic", "repulsive_adaptive", "gaussian_well_n3"],
)
def test_measure_preservation_equals_flowing_every_sample(
    monkeypatch, pot, box, icfg, phi, control
):
    # the samples may_reach rules out are not flowed; the report is bitwise
    # that of flowing them all
    got = check_measure_preservation(
        pot, box, 0.05, 20_000, SEED, icfg, phi=phi, negative_control=control
    )
    monkeypatch.setattr(
        transport, "may_reach", lambda phi, x, *args: np.ones(x.shape[0], dtype=bool)
    )
    want = check_measure_preservation(
        pot, box, 0.05, 20_000, SEED, icfg, phi=phi, negative_control=control
    )
    assert want.details.pop("flowed_rows") == 20_000
    assert 0 < got.details.pop("flowed_rows") < 5_000
    assert got.details["support_visits"]["end"] > 0
    assert _hex_fields(got) == _hex_fields(want)


def test_measure_preservation_with_every_sample_ruled_out(monkeypatch):
    # a short horizon and a small observable: no sample can reach it, and
    # the samples' flow runs on zero rows
    rows = []
    flow = verification.flow_batch

    def counted(x, v, *args, **kwargs):
        rows.append(x.shape[0])
        return flow(x, v, *args, **kwargs)

    monkeypatch.setattr(verification, "flow_batch", counted)
    tiny = TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0,
        centers=np.zeros(8), widths=np.full(8, 0.05),
    )
    report = check_measure_preservation(harmonic(2), BOX, 0.01, 100, SEED, ICFG, phi=tiny)
    # the coverage probes, then the samples
    assert rows == [verification.PREIMAGE_PROBES, 0]
    assert report.details["flowed_rows"] == 0
    assert report.statistic == 0.0 and report.std_error == 0.0 and report.passed
    assert report.flagged_fraction == 0.0
    assert report.details["support_visits"] == {"start": 0, "end": 0}


def test_measure_preservation_rejects_colliding_observable_when_confining():
    phi = TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0,
        centers=np.zeros(8), widths=np.full(8, 0.5),
    )
    # the rule of transport.require_collision_margin, which the weak
    # residuals share
    with pytest.raises(CoverageError, match="collision margin"):
        check_measure_preservation(
            repulsive_power(2, exponent=1.0), BOX, 0.1, 1000, SEED, ICFG, phi=phi
        )


def test_time_continuity_passes_and_control_fails():
    ok = check_time_continuity(harmonic(2), BOX, 0.5, 2000, SEED, ICFG)
    assert ok.passed
    assert ok.statistic <= 1.05
    bad = check_time_continuity(
        harmonic(2), BOX, 0.5, 2000, SEED, ICFG, negative_control=True
    )
    assert not bad.passed


def test_group_property_passes_and_control_fails():
    ok = check_group_property(harmonic(2), BOX, 1.0, 2000, SEED, ICFG)
    assert ok.passed
    # the direct end stops at the walk's nodes and the composed one at 0.4 t,
    # so on a fixed grid they take different remainder steps: a real gap
    assert 0.0 < ok.statistic
    assert ok.details["s"] == 0.4 and ok.details["t"] == 0.6
    bad = check_group_property(harmonic(2), BOX, 1.0, 2000, SEED, ICFG, negative_control=True)
    assert not bad.passed
    # one kick of particle 1 at s, on the composed path only: the gap is
    # what the flow makes of the kick, not the kick itself
    assert bad.statistic > 1e4 * bad.tolerance
    assert abs(bad.statistic - KICK) > 1e-3


def test_energy_invariance_passes_and_control_fails():
    ok = check_energy_invariance(harmonic(2), BOX, 1.0, 2000, SEED, ICFG)
    assert ok.passed
    bad = check_energy_invariance(
        harmonic(2), BOX, 1.0, 2000, SEED, ICFG, negative_control=True
    )
    assert not bad.passed


def _walk_by_legs(start, potential, t_final, icfg):
    """The Simpson walk of the weak-ODE defect from the (x, v, ok) state
    start, from one flow_batch call per leg and the forces recomputed at
    every node, row-major and in input order: per row the worst
    component of the full-grid sum and of its gap to the half-grid sum,
    and the state at every node.  A flagged row's sums are not its
    walk's, which reads 0 there."""
    x, v, ok = start
    times = np.linspace(0.0, t_final, WEAK_ODE_NODES)
    w_full = transport.simpson_weights(WEAK_ODE_NODES, 0.0, t_final)
    w_half = transport.simpson_weights((WEAK_ODE_NODES + 1) // 2, 0.0, t_final)
    full = np.zeros((x.shape[0], 2) + x.shape[1:])
    half = np.zeros_like(full)
    states = []
    now = 0.0
    for k, tk in enumerate(times):
        x, v, flags = flow_batch(x, v, potential, tk - now, icfg)
        now, ok = tk, ok & (flags == FLAG_OK)
        states.append((x, v, ok))
        chi, slope = bump_pair(np.asarray((tk - t_final / 2.0) / (t_final / 2.0)))
        chi, chi_p = float(chi), float(slope) / (t_final / 2.0)
        acc, _ = _forces(x, potential)
        terms = np.stack([x * chi_p + v * chi, v * chi_p + acc * chi], axis=1)
        full += w_full[k] * terms
        if k % 2 == 0:
            half += w_half[k // 2] * terms
    per_full = np.max(np.abs(full), axis=(1, 2, 3))
    return per_full, np.max(np.abs(full - half), axis=(1, 2, 3)), states


def _every_sample(potential, box, count, seed):
    """All `count` samples of the per-sample checks as an (x, v, ok)
    state, their initial energies, the energy level and the mask of the
    samples below it."""
    datum = InitialDatum(kind="constant", center=np.zeros(2 * box.n * box.d), width=1.0)
    e0 = sample_ensemble(box, count, datum, seed)
    energies = dynamics._energy_batch(e0.x, e0.v, potential)
    level = float(np.quantile(energies, verification.ENERGY_QUANTILE))
    return (e0.x, e0.v, np.ones(count, dtype=bool)), energies, level, energies < level


@pytest.mark.parametrize(
    "potential, box, t_final, icfg, budget, gap, flagged",
    [
        # DELTA_STEPS dt = 0.01 is 1.28 node gaps of t / 128
        (harmonic(2), BOX, 1.0, ICFG, None, 1, False),
        # adaptive steps park rows that finish a leg early, which reorders
        # the batch rows and the sums that ride along with them; 2 substeps
        # per leg flag 1.1% of the compared rows, which retire while others
        # are parked.  0.01 is 5.12 node gaps of 0.25 / 128
        (repulsive_power(2, exponent=1.0), PhaseBox.centered(2, 2, 1.5, 1.5), 0.25,
         IntegratorConfig(dt=1e-3, adaptive=True), 2, 5, True),
    ],
    ids=["harmonic", "repulsive_adaptive"],
)
def test_weak_ode_statistic_is_the_worst_selected_defect(
    potential, box, t_final, icfg, budget, gap, flagged, monkeypatch
):
    if budget is not None:
        monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", budget)
    sample = _Sample(potential, box, 400, SEED)
    assert sample.start[0].shape[0] == sample.rows == 360
    want, _, states = _walk_by_legs(sample.start, potential, t_final, icfg)
    ok = states[-1][2]
    per_sample, _, walk_states = _simpson_defects(sample, t_final, icfg)
    # the walk keeps the states at 0.5 t, at 0.5 t + delta and at t
    mid = (WEAK_ODE_NODES - 1) // 2
    for got, ref in zip(walk_states, [states[mid], states[mid + gap], states[-1]]):
        np.testing.assert_array_equal(got[2], ref[2])
        np.testing.assert_array_equal(got[0][ref[2]], ref[0][ref[2]])
        np.testing.assert_array_equal(got[1][ref[2]], ref[1][ref[2]])
    assert (0.0 < np.mean(~ok) < 0.05) if flagged else np.all(ok)
    np.testing.assert_array_equal(per_sample[ok], want[ok])
    report = check_weak_ode(potential, box, t_final, 400, SEED, icfg)
    assert report.statistic == np.max(want[ok])
    assert report.flagged_fraction == np.mean(~ok)
    assert report.details["flowed_rows"] == 360 and report.sample_count == 400
    assert "initial_identity_defect" not in report.details
    continuity = check_time_continuity(potential, box, t_final, 400, SEED, icfg)
    assert continuity.details["delta"] == gap * t_final / (WEAK_ODE_NODES - 1)


@pytest.mark.parametrize(
    "potential, t_final, icfg, budget",
    [
        (harmonic(2), 1.0, ICFG, None),
        (repulsive_power(2, exponent=1.0), 0.25, IntegratorConfig(dt=1e-3, adaptive=True), 2),
    ],
    ids=["harmonic", "repulsive_adaptive"],
)
def test_simpson_defects_in_blocks_equal_one_walk_bitwise(
    potential, t_final, icfg, budget, monkeypatch
):
    # a walk of 360 rows in blocks of 50: its defects and the states at
    # every kept node come back in row order, bitwise one walk's
    if budget is not None:
        monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", budget)
    sample = _Sample(potential, BOX, 400, SEED)
    want = _simpson_defects(sample, t_final, icfg)
    monkeypatch.setattr(transport, "SAMPLE_BLOCK", 50)
    got = _simpson_defects(sample, t_final, icfg)
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a, b)
    assert len(got[2]) == len(want[2]) == 3
    for got_state, want_state in zip(got[2], want[2]):
        for a, b in zip(got_state, want_state):
            assert a.shape[0] == sample.rows
            np.testing.assert_array_equal(a, b)
    assert (not want[2][-1][2].all()) == (budget is not None)


def test_weak_ode_passes_and_control_fails():
    ok = check_weak_ode(harmonic(2), BOX, 1.0, 2000, SEED, ICFG)
    assert ok.passed
    bad = check_weak_ode(harmonic(2), BOX, 1.0, 2000, SEED, ICFG, negative_control=True)
    assert not bad.passed


def test_flow_axiom_suite_refuses_a_dt_past_the_walk_node_spacing():
    # at dt = 0.1 > t / 128 the walk would step by the node spacing, so its
    # checks would read a finer flow than the configured one
    box = PhaseBox.centered(2, 2, 2.0, 2.0)
    for name in ("time_continuity", "group_property", "weak_ode"):
        with pytest.raises(DomainError, match="node spacing"):
            flow_axiom_suite(
                harmonic(2), box, 200, 1, IntegratorConfig(dt=0.1), t=1.0,
                checks=[name], with_controls=False,
            )
    # dt = t / 128 is the coarsest step the walk takes as configured
    (report,) = flow_axiom_suite(
        harmonic(2), box, 200, 1, IntegratorConfig(dt=1.0 / 128), t=1.0,
        checks=["time_continuity"], with_controls=False,
    )
    assert report.details["delta"] == DELTA_STEPS / 128


HORIZON_RUNS = {
    "per_sample": lambda t: flow_axiom_suite(
        harmonic(2), BOX, 50, SEED, ICFG, t=t, checks=["energy_invariance"],
    ),
    "measure_preservation": lambda t: check_measure_preservation(
        harmonic(2), BOX, t, 50, SEED, ICFG
    ),
    "mollification_cauchy": lambda t: check_mollification_cauchy(
        repulsive_power(2, exponent=0.5), MollifierKernel(d=2), ShrinkFunction(),
        BOX, t, 20, SEED, ICFG,
    ),
    "uniqueness_monotone": lambda t: check_uniqueness_monotone(**uniqueness_kwargs(horizon=t)),
}


@pytest.mark.parametrize(
    "name, t",
    [(name, t) for name in HORIZON_RUNS for t in (0.0, -0.5)]
    + [("uniqueness_monotone", t) for t in (1e-5, math.nan, math.inf)],
)
def test_checks_refuse_a_horizon_that_holds_by_construction(name, t):
    # at t = 0 these checks and their controls pass with statistic 0, and a
    # negative t flows backward; the uniqueness check would snap each of
    # these horizons, and one shorter than a step per snapshot, to one step
    # of dt between snapshots, and an infinite one overflowed the snapping
    with pytest.raises(DomainError, match="t > 0"):
        HORIZON_RUNS[name](t)


def test_require_checks():
    assert require_checks(("weak_ode", "group_property")) == ["weak_ode", "group_property"]
    for names in ([], ["weak_ode", "weak_ode"], ["does_not_exist"], [None, "x"]):
        with pytest.raises(DomainError):
            require_checks(names)


def test_flow_axiom_suite_shape_and_verdicts():
    reports = flow_axiom_suite(
        harmonic(2), BOX, 1500, SEED, ICFG, t=1.0,
        measure_t=0.2, measure_count=8000,
    )
    assert len(reports) == 10
    names = [r.check_name for r in reports]
    assert names[:5] == [
        "time_continuity", "measure_preservation", "group_property",
        "energy_invariance", "weak_ode",
    ]
    assert all(n.endswith("_control") for n in names[5:])
    assert all(r.passed for r in reports[:5])
    assert not any(r.passed for r in reports[5:])


def test_flow_axiom_suite_group_law_direct_leg_is_its_own_path():
    # adaptive steps shrink with each path's pair distances, so a direct
    # leg that stopped at s would retrace the composition and read 0.0
    icfg = IntegratorConfig(dt=1e-3, adaptive=True)
    (report,) = flow_axiom_suite(
        harmonic(2), BOX, 300, SEED, icfg, t=0.25, with_controls=False,
        checks=["group_property"],
    )
    assert report.passed
    assert report.statistic > 0.0
    # an unknown name, no name and a repeated name all check nothing new
    for checks in (["no_such_check"], [], ["weak_ode", "group_property", "weak_ode"]):
        with pytest.raises(DomainError):
            flow_axiom_suite(harmonic(2), BOX, 300, SEED, icfg, checks=checks)


PER_SAMPLE_CHECKS = {
    "time_continuity": check_time_continuity,
    "group_property": check_group_property,
    "energy_invariance": check_energy_invariance,
    "weak_ode": check_weak_ode,
}


def _hex_fields(report):
    return [
        report.check_name, report.passed, report.sample_count,
        *(float(getattr(report, k)).hex() for k in
          ("statistic", "std_error", "bias_bound", "tolerance", "flagged_fraction")),
        json.dumps(report.to_json_dict()["details"], sort_keys=True),
    ]


@pytest.mark.parametrize(
    "potential, icfg",
    [(harmonic(2), ICFG), (repulsive_power(2, exponent=1.0), IntegratorConfig(adaptive=True))],
    ids=["harmonic", "repulsive_adaptive"],
)
def test_standalone_checks_are_the_suite_reports(potential, icfg):
    suite = flow_axiom_suite(
        potential, BOX, 300, SEED, icfg, t=0.25, checks=list(PER_SAMPLE_CHECKS),
    )
    by_name = {r.check_name: r for r in suite}
    for name, check in PER_SAMPLE_CHECKS.items():
        for control in (False, True):
            got = check(potential, BOX, 0.25, 300, SEED, icfg, negative_control=control)
            want = by_name[name + ("_control" if control else "")]
            assert _hex_fields(got) == _hex_fields(want)


@pytest.mark.parametrize(
    "potential, icfg",
    [(harmonic(2), ICFG), (repulsive_power(2, exponent=1.0), IntegratorConfig(adaptive=True))],
    ids=["fixed", "adaptive"],
)
def test_flow_axiom_suite_in_blocks_equals_one_block_bitwise(potential, icfg, monkeypatch):
    # every walk, leg and preservation flow runs in blocks of 97 rows, each
    # block pausing at every stop, with the same reports
    def suite():
        return flow_axiom_suite(potential, BOX, 300, SEED, icfg, t=0.25, measure_count=2000)

    want = suite()
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 97)
    got = suite()
    assert [_hex_fields(r) for r in got] == [_hex_fields(r) for r in want]
    assert max(r.details.get("flowed_rows", 0) for r in got) > 97


def _reference_reports(potential, box, count, seed, icfg, t):
    """The per-sample reports, controls included, from flowing all `count`
    samples leg by leg and reading only the rows below the energy level."""
    start, energies, level, below = _every_sample(potential, box, count, seed)
    damped = replace(icfg, velocity_damping=0.99)
    walks = {control: _walk_by_legs(start, potential, t, damped if control else icfg)
             for control in (False, True)}
    states = walks[False][2]
    gap = verification._delta_nodes(t, icfg.dt)
    delta = gap * t / (WEAK_ODE_NODES - 1)

    def advance(state, leg):
        x, v, flags = flow_batch(state[0], state[1], potential, leg, icfg)
        return x, v, state[2] & (flags == FLAG_OK)

    def phase_speed(x, v):
        acc, _ = _forces(x, potential)
        return np.sqrt(np.sum(v**2, axis=(1, 2)) + np.sum(acc**2, axis=(1, 2)))

    mid = advance(start, 0.4 * t)
    composed = advance(mid, 0.6 * t)
    kicked_v = mid[1].copy()
    kicked_v[:, 0] += KICK
    kicked = advance((mid[0], kicked_v, mid[2]), 0.6 * t)
    out = {}
    for control in (False, True):
        suffix = "_control" if control else ""

        def add(name, values, ok, details, std_error=0.0, where=True):
            selected = ok & below & where
            out[name + suffix] = CheckReport.build(
                name + suffix, potential.describe(), seed, count,
                np.max(values[selected]), std_error, 0.0, verification.TOLERANCES[name],
                np.mean(~ok[below]), 0.0,
                {**details, "energy_level": level, "flowed_rows": int(np.count_nonzero(below))},
            )

        middle = (WEAK_ODE_NODES - 1) // 2
        (xa, va, _), (xb, vb, ok) = states[middle], states[middle + gap]
        xb = xb + 0.5 if control else xb
        move = np.sqrt(np.sum((xb - xa) ** 2, axis=(1, 2)) + np.sum((vb - va) ** 2, axis=(1, 2)))
        speed = np.maximum(phase_speed(xa, va), phase_speed(xb, vb))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = move / (delta * speed)
        add("time_continuity", ratio, ok, {"t": 0.5 * t, "delta": delta}, where=speed > 0)
        x_comp, v_comp, ok_comp = kicked if control else composed
        x_direct, v_direct, ok_direct = states[-1]
        gaps = np.maximum(
            np.max(np.abs(x_comp - x_direct), axis=(1, 2)),
            np.max(np.abs(v_comp - v_direct), axis=(1, 2)),
        )
        add("group_property", gaps, ok_comp & ok_direct, {"s": 0.4 * t, "t": 0.6 * t})
        per_sample, per_half, walk_states = walks[control]
        ok = walk_states[-1][2]
        add("weak_ode", per_sample, ok, {"t_final": t, "nodes": WEAK_ODE_NODES},
            std_error=np.max(per_half[ok & below]) / 15.0)
        x, v, ok = walk_states[-1] if control else composed
        drift = np.abs(dynamics._energy_batch(x, v, potential) - energies) / np.maximum(
            1.0, np.abs(energies)
        )
        add("energy_invariance", drift, ok, {"t": t})
    return out


@pytest.mark.parametrize("with_controls", [False, True], ids=["positives", "with_controls"])
@pytest.mark.parametrize(
    "potential, box, icfg",
    [(harmonic(2), PhaseBox.centered(2, 2, 2.0, 2.0), ICFG),
     (repulsive_power(2, exponent=1.0), BOX, IntegratorConfig(adaptive=True))],
    ids=["harmonic", "repulsive_adaptive"],
)
def test_per_sample_reports_equal_flowing_every_sample(potential, box, icfg, with_controls):
    # the suite flows only the rows below the energy level; the reports are
    # bitwise those of flowing all of them and reading the rows below
    reports = flow_axiom_suite(
        potential, box, 300, SEED, icfg, t=0.25, checks=list(PER_SAMPLE_CHECKS),
        with_controls=with_controls,
    )
    want = _reference_reports(potential, box, 300, SEED, icfg, 0.25)
    assert len(reports) == 4 * (1 + with_controls)
    for report in reports:
        assert report.details["flowed_rows"] == 270
        assert _hex_fields(report) == _hex_fields(want[report.check_name])


def test_per_sample_flags_count_among_the_compared_rows(monkeypatch):
    # with 4 substeps per leg the walk flags 16 of 400 samples, every one
    # above the energy level: weak_ode and time continuity failed at a
    # flagged fraction of 0.04 when every sample counted, and now pass.
    # With 2 substeps 4 of the 360 compared rows are flagged, 1.1%, and
    # both fail on that alone
    pot, box = repulsive_power(2, exponent=1.0), PhaseBox.centered(2, 2, 1.5, 1.5)
    checks = ["time_continuity", "weak_ode"]
    for budget, flagged, passed in ((4, 0, True), (2, 4, False)):
        monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", budget)
        icfg = IntegratorConfig(dt=1e-3, adaptive=True)
        start, _, _, below = _every_sample(pot, box, 400, SEED)
        _, _, states = _walk_by_legs(start, pot, 0.25, icfg)
        ok = states[-1][2]
        assert np.count_nonzero(~ok & below) == flagged
        assert np.count_nonzero(~ok & ~below) > 0.01 * 400
        for report in flow_axiom_suite(
            pot, box, 400, SEED, icfg, t=0.25, checks=checks, with_controls=False
        ):
            assert report.details["flowed_rows"] == 360
            assert report.flagged_fraction == flagged / 360
            budget_sum = report.tolerance + 3.0 * report.std_error + report.bias_bound
            assert report.statistic <= budget_sum
            assert report.passed is passed


@pytest.mark.parametrize(
    "potential, icfg",
    [(harmonic(2), ICFG), (repulsive_power(2, exponent=1.0), IntegratorConfig(adaptive=True))],
    ids=["harmonic", "repulsive_adaptive"],
)
def test_per_sample_checks_without_a_compared_row_fail(potential, icfg):
    # one sample is its own energy level, so no sample lies below it: every
    # walk and leg runs on zero rows, and each report fails with an
    # infinite statistic and a finite flagged fraction
    reports = flow_axiom_suite(
        potential, BOX, 1, SEED, icfg, t=0.25, checks=list(PER_SAMPLE_CHECKS),
    )
    assert len(reports) == 8
    for report in reports:
        assert report.sample_count == 1 and report.details["flowed_rows"] == 0
        assert report.statistic == math.inf and not report.passed
        assert report.flagged_fraction == 0.0 and report.std_error == 0.0


def test_suite_flows_each_sample_once_per_damping():
    # per compared row: one undamped and one damped walk of 128 legs of two
    # steps (t / 128 = 1.95 dt), each with the start, 257; the mid leg 0.1,
    # 101; two composed legs 0.15, 151 each; the phase speeds at both
    # continuity states for the positive and the control, 4.  The rows
    # above the energy level are not flowed
    pot = CountingPotential(harmonic(2))
    reports = flow_axiom_suite(
        pot, BOX, 200, SEED, ICFG, t=0.25, checks=list(PER_SAMPLE_CHECKS)
    )
    assert {r.details["flowed_rows"] for r in reports} == {180}
    assert sum(pot.rows) == 921 * 180


def test_suite_probes_the_preimage_once_for_positive_and_control(monkeypatch):
    backward = []
    flow = verification.flow_batch

    def counted(x, v, potential, t, *args, **kwargs):
        if t < 0.0:
            backward.append(x.shape[0])
        return flow(x, v, potential, t, *args, **kwargs)

    monkeypatch.setattr(verification, "flow_batch", counted)
    box = PhaseBox.centered(2, 2, 2.0, 2.0)
    suite = flow_axiom_suite(
        harmonic(2), box, 100, SEED, ICFG, measure_t=0.05, measure_count=4000,
        checks=["measure_preservation"],
    )
    assert backward == [verification.PREIMAGE_PROBES]
    # a standalone check still probes, and reports what the suite did
    for report in suite:
        control = report.check_name.endswith("_control")
        alone = check_measure_preservation(
            harmonic(2), box, 0.05, 4000, SEED, ICFG, negative_control=control
        )
        assert _hex_fields(alone) == _hex_fields(report)
    assert backward == [verification.PREIMAGE_PROBES] * 3
    # a suite whose probe fails leaves every later standalone check probing
    wide = TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0, centers=np.zeros(8), widths=np.full(8, 1.3),
    )
    with pytest.raises(CoverageError):
        flow_axiom_suite(
            free_potential(2), BOX, 100, SEED, ICFG, observable=wide, measure_t=3.0,
            checks=["measure_preservation"],
        )
    backward.clear()
    for _ in range(2):
        check_measure_preservation(harmonic(2), box, 0.05, 4000, SEED, ICFG)
    assert backward == [verification.PREIMAGE_PROBES] * 2


# ---------------------------------------------------------------------------
# mollification convergence, small N


def test_mollification_cauchy_passes_and_control_fails():
    base = repulsive_power(2, exponent=0.5)
    kernel = MollifierKernel(d=2, power=3)
    shrink = ShrinkFunction()
    icfg = IntegratorConfig(dt=2e-3)
    cauchy, indep = check_mollification_cauchy(
        base, kernel, shrink, BOX, t=0.2, count=250, seed=SEED, icfg=icfg,
        levels=(3, 4, 5),
    )
    assert cauchy.check_name == "mollification_cauchy"
    assert cauchy.passed
    gaps = cauchy.details["gap_means"]
    assert len(gaps) == 2 and gaps[1] < gaps[0]
    assert indep.check_name == "mollification_kernel_independence"
    assert indep.passed

    bad, _ = check_mollification_cauchy(
        base, kernel, shrink, BOX, t=0.2, count=250, seed=SEED, icfg=icfg,
        levels=(3, 4, 5), negative_control=True,
    )
    assert not bad.passed


@pytest.mark.parametrize("levels", [(3, 4), (3,), (4, 4, 4), (5, 4, 3)])
def test_mollification_cauchy_needs_three_increasing_levels(levels):
    # the gap ordering compares two consecutive gaps, so three flows; equal
    # levels give gaps of exactly 0 and falling ones reverse the ladder
    with pytest.raises(DomainError, match="strictly increasing"):
        check_mollification_cauchy(
            repulsive_power(2, exponent=0.5), MollifierKernel(d=2, power=3),
            ShrinkFunction(), BOX, t=0.2, count=50, seed=SEED,
            icfg=IntegratorConfig(dt=2e-3), levels=levels,
        )


def test_mollification_cauchy_needs_two_samples():
    # one sample has no standard error for either mean
    with pytest.raises(DomainError, match="two samples"):
        check_mollification_cauchy(
            repulsive_power(2, exponent=0.5), MollifierKernel(d=2, power=3),
            ShrinkFunction(), PhaseBox.centered(2, 2, 1.2, 1.2), t=0.2, count=1,
            seed=3, icfg=IntegratorConfig(dt=2e-3), levels=(3, 4, 5),
        )


# ---------------------------------------------------------------------------
# renormalized residuals, free transport for speed


def test_renormalization_suite_passes_and_control_fails():
    box = PhaseBox.centered(2, 2, 1.0, 1.0)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.7)
    phi = TestFunction(
        d=2, n=2, t_center=0.5, t_width=0.45,
        centers=np.zeros(8), widths=np.full(8, 0.85),
    )
    betas = [tanh_squash(1.0), smoothed_clamp(1.0)]
    reports = check_renormalization_suite(
        free_potential(2), box, datum, betas, count=40_000, seed=SEED, icfg=ICFG, phi=phi,
    )
    assert [r.check_name for r in reports] == [
        "renormalized_residual[identity]",
        "renormalized_residual[tanh(scale=1)]",
        "renormalized_residual[smoothed_clamp(m=1)]",
    ]
    assert all(r.passed for r in reports)

    controls = check_renormalization_suite(
        free_potential(2), box, datum, betas, count=40_000, seed=SEED,
        icfg=ICFG, phi=phi, negative_control=True,
    )
    assert all(r.check_name.endswith("_control") for r in controls)
    assert not any(r.passed for r in controls)


RESIDUAL_BOX = PhaseBox.centered(2, 2, 1.2, 1.2)
RESIDUAL_DATUM = InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
RESIDUAL_PHI = TestFunction(
    d=2, n=2, t_center=0.3, t_width=0.45,
    centers=np.zeros(8), widths=np.full(8, 0.9),
)
RESIDUAL_ICFG = IntegratorConfig(dt=1e-2)


def residual_reference(pot, count, negative_control):
    """The suite's estimates by hand: every sample stepped leg by leg, the
    forces recomputed at each node, the t = 0 boundary term added last."""
    e0 = sample_ensemble(RESIDUAL_BOX, count, RESIDUAL_DATUM, SEED)
    phi = RESIDUAL_PHI
    a, b = residual_window(phi)
    times = np.linspace(a, b, transport.RESIDUAL_NODES)
    w_full = transport.simpson_weights(times.size, a, b)
    w_half = transport.simpson_weights((times.size + 1) // 2, a, b)
    factor = (lambda t: 1.0 + 3.0 * (t - a)) if negative_control else (lambda t: 1.0)
    # every row is stepped; only the carried rows are paired
    kept = np.flatnonzero(e0.values)
    full, half = np.zeros(kept.size), np.zeros(kept.size)
    x_all, v_all, flags, now = e0.x, e0.v, np.zeros(e0.size, dtype=np.int8), 0.0
    for k, tk in enumerate(times):
        x_all, v_all, leg_flags = flow_batch(x_all, v_all, pot, tk - now, RESIDUAL_ICFG)
        flags, now = np.maximum(flags, leg_flags), tk
        x, v = x_all[kept], v_all[kept]
        cols = np.flatnonzero(phi.support_mask(tk, x, v))
        terms = phi.transport_pairing(tk, x, v, _forces(x, pot)[0], cols) * factor(tk)
        full[cols] += w_full[k] * terms
        if k % 2 == 0:
            half[cols] += w_half[k // 2] * terms
    assert phi.time_window[0] < 0.0 == times[0]
    term0 = phi.value(0.0, e0.x[kept], e0.v[kept]) * factor(0.0)
    full += term0
    half += term0
    ok = flags == FLAG_OK
    out = []
    for g in [None, *shipped_beta_family(1.0)]:
        weights = e0.values[kept] if g is None else g(e0.values[kept])
        xi, coarse = (np.zeros(e0.size) for _ in range(2))
        xi[kept], coarse[kept] = weights * full, weights * half
        xi, coarse = (np.where(ok, e0.weight * arr, 0.0) for arr in (xi, coarse))
        mc = MCEstimate.from_samples(
            xi, bias_bound=transport.DT_BIAS_COEFFICIENT * RESIDUAL_ICFG.dt**2 * np.sum(np.abs(xi)),
            sample_count=int(np.sum(ok)),
        )
        quad_err = abs(float(np.sum(coarse)) - mc.estimate) / 15.0
        out.append(replace(mc, std_error=math.hypot(mc.std_error, quad_err)))
    return e0, out


def per_node_reference(pot, count, negative_control):
    """(estimate, std_error) of each map by the per-node, per-map formula:
    sum_k S_k g(t_k, f0) Dphi(t_k, Y(t_k)) + g(0, f0) phi(0, z) with a
    value map g(t, f0) of its own per report, evaluated at every node.
    The control map is beta((1 + 3 (t - a)) f0), a the window's start."""
    e0 = sample_ensemble(RESIDUAL_BOX, count, RESIDUAL_DATUM, SEED)
    phi = RESIDUAL_PHI
    a, b = residual_window(phi)
    times = np.linspace(a, b, transport.RESIDUAL_NODES)
    w_full = transport.simpson_weights(times.size, a, b)
    w_half = transport.simpson_weights((times.size + 1) // 2, a, b)
    scale = (lambda t: 1.0 + 3.0 * (t - a)) if negative_control else (lambda t: 1.0)
    maps = [lambda t, f: scale(t) * f] + [
        lambda t, f, beta=beta: beta(scale(t) * f) for beta in shipped_beta_family(1.0)
    ]
    full = np.zeros((len(maps), e0.size))
    half = np.zeros((len(maps), e0.size))
    assert phi.time_window[0] < 0.0 == times[0]
    for m, g in enumerate(maps):
        full[m] += g(0.0, e0.values) * phi.value(0.0, e0.x, e0.v)
    half[:] = full
    x, v, flags, now = e0.x, e0.v, np.zeros(e0.size, dtype=np.int8), 0.0
    for k, tk in enumerate(times):
        x, v, leg_flags = flow_batch(x, v, pot, tk - now, RESIDUAL_ICFG)
        flags, now = np.maximum(flags, leg_flags), tk
        rows = np.flatnonzero(phi.support_mask(tk, x, v))
        pairing = phi.transport_pairing(tk, x, v, _forces(x, pot)[0], rows)
        for m, g in enumerate(maps):
            term = g(tk, e0.values[rows]) * pairing
            full[m, rows] += w_full[k] * term
            if k % 2 == 0:
                half[m, rows] += w_half[k // 2] * term
    ok = flags == FLAG_OK
    out = []
    for m in range(len(maps)):
        mc = MCEstimate.from_samples(np.where(ok, e0.weight * full[m], 0.0))
        coarse = float(np.sum(np.where(ok, e0.weight * half[m], 0.0)))
        out.append((mc.estimate, np.hypot(mc.std_error, abs(coarse - mc.estimate) / 15.0)))
    return out


@pytest.mark.parametrize("control", [False, True], ids=["positive", "control"])
@pytest.mark.parametrize(
    "pot", [free_potential(2), piecewise_radial(2, 0.8, -0.6, 0.4)], ids=lambda p: p.kind
)
def test_renormalization_suite_reweights_the_per_node_formula(pot, control):
    # one bracket per row, weighted once per map, is the per-node sum of
    # every map's terms up to rounding
    reports = check_renormalization_suite(
        pot, RESIDUAL_BOX, RESIDUAL_DATUM, shipped_beta_family(1.0), 3000, SEED,
        RESIDUAL_ICFG, phi=RESIDUAL_PHI, negative_control=control,
    )
    expected = per_node_reference(pot, 3000, control)
    # the control's time factor multiplies the bracket, so only the
    # identity control keeps the per-node form; a beta control weights the
    # corrupted bracket by beta(f0) where the formula took beta of c(t) f0
    compared = reports if not control else reports[:1]
    for r, (estimate, std_error) in zip(compared, expected):
        assert r.statistic == pytest.approx(abs(estimate), rel=1e-11, abs=0.0), r.check_name
        assert r.std_error == pytest.approx(std_error, rel=1e-11, abs=0.0), r.check_name
    if control:
        for r, (estimate, _) in zip(reports[1:], expected[1:]):
            assert r.statistic != abs(estimate), r.check_name


@pytest.mark.parametrize("control", [False, True], ids=["positive", "control"])
@pytest.mark.parametrize(
    "pot", [free_potential(2), piecewise_radial(2, 0.8, -0.6, 0.4)], ids=lambda p: p.kind
)
def test_renormalization_suite_flows_only_carried_rows_bitwise(pot, control):
    # the window opens before t = 0, so the phi(0, z) term is covered too
    e0, expected = residual_reference(pot, 3000, control)
    carried = int(np.count_nonzero(e0.values))
    assert 0 < carried < e0.size
    reports = check_renormalization_suite(
        pot, RESIDUAL_BOX, RESIDUAL_DATUM, shipped_beta_family(1.0), 3000, SEED,
        RESIDUAL_ICFG, phi=RESIDUAL_PHI, negative_control=control,
    )
    assert len(reports) == len(expected) == 5
    for r, ref in zip(reports, expected):
        assert r.statistic == abs(ref.estimate), r.check_name
        assert r.std_error == ref.std_error, r.check_name
        assert r.bias_bound == ref.bias_bound, r.check_name
        assert r.sample_count == ref.sample_count == 3000, r.check_name
        assert r.details["carried_rows"] == carried
        # the beta reports reweight the identity report's per-row defect
        assert r.details["reweighted_defect"] == (r is not reports[0])


@pytest.mark.parametrize("control", [False, True], ids=["positive", "control"])
@pytest.mark.parametrize(
    "pot", [free_potential(2), piecewise_radial(2, 0.8, -0.6, 0.4)], ids=lambda p: p.kind
)
def test_renormalization_suite_is_the_full_sample_path_bitwise(pot, control, monkeypatch):
    # the suite draws the sample 300 rows at a time, keeps only its carried
    # rows and walks only those may_reach keeps (about half of them under
    # the closed-form free flow, all under piecewise_radial); its reports are
    # those of weak_residual_suite on the whole sample_ensemble, and of a
    # walk of every carried row, bit for bit.  RESIDUAL_PHI's window opens
    # before 0, so the phi(0, z) term runs
    count, betas = 3000, shipped_beta_family(1.0)
    e0 = sample_ensemble(RESIDUAL_BOX, count, RESIDUAL_DATUM, SEED)
    carried = int(np.count_nonzero(e0.values))
    a, _ = residual_window(RESIDUAL_PHI)
    factor = (lambda t: 1.0 + 3.0 * (t - a)) if control else None
    estimates = transport.weak_residual_suite(
        e0, pot, RESIDUAL_PHI, [None, *betas], RESIDUAL_ICFG, factor
    )
    monkeypatch.setattr(transport, "SAMPLE_BLOCK", 300)

    def suite():
        return check_renormalization_suite(
            pot, RESIDUAL_BOX, RESIDUAL_DATUM, betas, count, SEED, RESIDUAL_ICFG,
            phi=RESIDUAL_PHI, negative_control=control,
        )

    reports = suite()
    names = ["identity"] + [b.name for b in betas]
    suffix = "_control" if control else ""
    for m, (r, est) in enumerate(zip(reports, estimates, strict=True)):
        details = {k: val for k, val in est.details.items() if k != "seconds"}
        want = CheckReport.build(
            f"renormalized_residual[{names[m]}]{suffix}", pot.describe(), SEED,
            est.sample_count, abs(est.estimate), est.std_error, est.bias_bound, 0.0,
            est.details["flagged_fraction"], 0.0,
            {**details, "carried_rows": carried, "reweighted_defect": m > 0},
        )
        assert _hex_fields(r) == _hex_fields(want), r.check_name
    flowed = reports[0].details["flowed_rows"]
    assert 0 < flowed < carried if pot.kind == "free" else flowed == carried
    monkeypatch.setattr(transport, "may_reach", lambda phi, x, *args: np.ones(len(x), dtype=bool))
    for r, every in zip(reports, suite(), strict=True):
        assert every.details["flowed_rows"] == carried
        every = replace(every, details={**every.details, "flowed_rows": flowed})
        assert _hex_fields(every) == _hex_fields(r), r.check_name


def test_renormalization_suite_peaks_below_80_bytes_a_row():
    # the sample is drawn in blocks and only its carried rows outlive them,
    # 23% of the rows in the renormalized_residual box, each with an
    # index, x, v, f0 and two brackets: 96 bytes, 22 a row.  The walk
    # steps only the carried rows that can reach supp phi, 22% of them
    # under the closed-form free flow, each with its start and end states,
    # the batch buffers and the pairing temporaries, about 500 bytes: 25 a
    # row.  After the walk the statistics take one count-length buffer and
    # np.std's temporary, 16 bytes a row, and one block's temporaries add
    # about 8 at 200k samples: 55 to 71 bytes a row, where the whole
    # sample alone would take 72 and the full-sample suite peaks near 160
    count = 200_000
    peak = _traced_peak(
        lambda: check_renormalization_suite(
            free_potential(2), RESIDUAL_BOX, RESIDUAL_DATUM, shipped_beta_family(1.0), count,
            SEED, RESIDUAL_ICFG,
        )
    )
    assert peak < 80 * count


class CountingPotential:
    """A pair potential that records the row count of every gradient call."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []

    def gradient_batch(self, r, radii=None):
        self.rows.append(r.shape[0])
        return self.inner.gradient_batch(r, radii)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_renormalization_suite_walks_one_flow(monkeypatch):
    steps = []
    step = dynamics._Batch.step

    def counted_step(batch, h):
        steps.append(h)
        step(batch, h)

    monkeypatch.setattr(dynamics._Batch, "step", counted_step)
    pot = CountingPotential(piecewise_radial(2, 0.8, -0.6, 0.4))
    (report,) = check_renormalization_suite(
        pot, RESIDUAL_BOX, RESIDUAL_DATUM, [], 3000, SEED, RESIDUAL_ICFG, phi=RESIDUAL_PHI,
    )
    carried = report.details["carried_rows"]
    assert 0 < carried < 3000
    # one force pass at the start and one per Verlet step, each over every
    # carried row: no pass per leg, and the nodes read the last step's forces
    assert len(steps) > 64
    assert pot.rows == [carried] * (1 + len(steps))


def test_renormalization_suite_without_carried_rows_reads_zero():
    # a datum of (0.05 / 1.2)^8 of the box: none of 50 samples carries mass
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.05)
    reports = check_renormalization_suite(
        piecewise_radial(2, 0.8, -0.6, 0.4), RESIDUAL_BOX, datum,
        shipped_beta_family(1.0), 50, SEED, RESIDUAL_ICFG, phi=RESIDUAL_PHI,
    )
    for r in reports:
        assert r.details["carried_rows"] == 0
        assert (r.statistic, r.std_error, r.bias_bound) == (0.0, 0.0, 0.0)
        assert r.sample_count == 50 and r.flagged_fraction == 0.0 and r.passed


def test_renormalization_suite_requires_beta_fixing_zero():
    shifted = BetaFunction(name="shifted_tanh", fn=lambda x: np.tanh(x) + 0.1)
    with pytest.raises(DomainError, match="shifted_tanh"):
        check_renormalization_suite(
            free_potential(2), RESIDUAL_BOX, RESIDUAL_DATUM,
            [tanh_squash(1.0), shifted], 100, SEED, RESIDUAL_ICFG, phi=RESIDUAL_PHI,
        )


def test_renormalization_suite_runtime_shares_are_measured():
    pot = piecewise_radial(2, 0.8, -0.6, 0.4)
    started = time.perf_counter()
    reports = check_renormalization_suite(
        pot, RESIDUAL_BOX, RESIDUAL_DATUM, shipped_beta_family(1.0), 3000, SEED,
        RESIDUAL_ICFG, phi=RESIDUAL_PHI,
    )
    wall = time.perf_counter() - started
    shares = [r.runtime_seconds for r in reports]
    # the identity carries sampling and the flow, each beta only its own terms
    assert all(0.0 < s < shares[0] for s in shares[1:])
    assert sum(shares) <= wall
    assert sum(shares) == pytest.approx(wall, rel=0.05, abs=0.01)


# ---------------------------------------------------------------------------
# uniqueness functional, small N


def uniqueness_kwargs(**over):
    kwargs = dict(
        base=repulsive_power(2, exponent=0.5, strength=0.5),
        kernel=MollifierKernel(d=2, power=3),
        shrink=ShrinkFunction(),
        box=BOX,
        datum=InitialDatum(kind="bump", center=np.zeros(8), width=0.8),
        level_pair=(3, 4),
        horizon=0.25,
        count=200,
        seed=SEED,
        icfg=IntegratorConfig(dt=2e-3),
        times_count=5,
    )
    kwargs.update(over)
    return kwargs


def test_uniqueness_monotone_adjacent_levels_pass():
    report = check_uniqueness_monotone(**uniqueness_kwargs())
    assert report.passed
    assert report.details["levels"] == [3, 4]
    assert len(report.details["functional"]) == 5


def test_uniqueness_monotone_identical_levels_are_exact():
    report = check_uniqueness_monotone(**uniqueness_kwargs(level_pair=(3, 3)))
    assert report.passed
    assert max(abs(f) for f in report.details["functional"]) < 1e-20


def test_uniqueness_monotone_in_blocks_equals_one_block_bitwise(monkeypatch):
    # the forward flow with its snapshots and the backward flow of every
    # snapshot run in blocks of 37 rows, with the same report
    want = check_uniqueness_monotone(**uniqueness_kwargs())
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 37)
    got = check_uniqueness_monotone(**uniqueness_kwargs())
    assert _hex_fields(got) == _hex_fields(want)


def test_uniqueness_monotone_control_fails():
    # a tighter box and more samples give the injected source enough
    # statistical power to beat the paired-increment noise
    report = check_uniqueness_monotone(
        **uniqueness_kwargs(
            box=PhaseBox.centered(2, 2, 1.0, 1.0),
            datum=InitialDatum(kind="bump", center=np.zeros(8), width=0.8),
            count=800,
            horizon=0.3,
            negative_control=True,
        )
    )
    assert not report.passed
    assert report.check_name == "uniqueness_monotone_control"


def test_uniqueness_monotone_needs_compact_datum():
    datum = InitialDatum(kind="constant", center=np.zeros(8), width=1.0)
    with pytest.raises(DomainError):
        check_uniqueness_monotone(**uniqueness_kwargs(datum=datum))


@pytest.mark.parametrize("times_count", [0, 1])
def test_uniqueness_monotone_needs_two_times(times_count):
    # an increment of F needs two snapshot times
    with pytest.raises(DomainError):
        check_uniqueness_monotone(**uniqueness_kwargs(times_count=times_count))


def test_collision_scaling_fits_the_slope_through_the_transport_module(monkeypatch):
    # an exact mu^2 law fits slope 2 = d - 1 for d = 3 and fails d = 2; the
    # term is looked up on the transport module, where tracing wraps it, and
    # one call sweeps every radius
    calls = []

    def squared(box, count, datum, seed, mus):
        calls.append(list(mus))
        return [MCEstimate(estimate=mu**2, std_error=0.1 * mu**2, sample_count=10) for mu in mus]

    monkeypatch.setattr(transport, "collision_boundary_term", squared)
    mus = [0.4, 0.2, 0.1]
    for d, passed in ((3, True), (2, False)):
        box = PhaseBox.centered(d=d, n=3, x_half=1.0, v_half=1.0)
        datum = InitialDatum(kind="constant", center=np.zeros(6 * d), width=1.0)
        calls.clear()
        rep = check_collision_scaling(free_potential(d), box, datum, 100, 1, mus)
        assert calls == [mus]
        assert rep.check_name == "collision_scaling_slope"
        assert rep.details["fitted_slope"] == pytest.approx(2.0, abs=1e-12)
        assert rep.details["expected_slope"] == d - 1
        assert rep.details["terms"] == [mu**2 for mu in mus]
        assert rep.details["std_errors"] == [0.1 * mu**2 for mu in mus]
        assert rep.statistic == pytest.approx(abs(2.0 - (d - 1)), abs=1e-12)
        assert rep.passed is passed


def test_collision_scaling_raises_on_an_empty_radius():
    # 200 rows leave mu = 0.2 and 0.001 without a sample; a zero term has no
    # logarithm to fit
    box = PhaseBox.centered(d=3, n=2, x_half=1.0, v_half=1.0)
    datum = InitialDatum(kind="constant", center=np.zeros(12), width=1.0)
    with pytest.raises(CoverageError, match=r"mu = 0\.2, 0\.001"):
        check_collision_scaling(free_potential(3), box, datum, 200, 1, [0.4, 0.2, 0.001])
    # fewer than two radii fit no slope
    for mus in ([0.001], []):
        with pytest.raises(DomainError, match="at least two cutoff radii"):
            check_collision_scaling(free_potential(3), box, datum, 200, 1, mus)


def test_collision_scaling_needs_two_distinct_positive_radii():
    # a repeated radius leaves the log-log fit rank deficient: mu = [0.2, 0.2]
    # once fitted a slope of -1.06 and failed for a reason no check names
    box = PhaseBox.centered(2, 2, 1.0, 1.0)
    datum = InitialDatum(kind="constant", center=np.zeros(8), width=1.0)
    for mus in ([0.2, 0.2], [0.4, 0.4, 0.4], [0.4, -0.2], [0.4, float("nan")]):
        with pytest.raises(DomainError, match="at least two cutoff radii that differ"):
            check_collision_scaling(free_potential(2), box, datum, 2000, 1, mus)
    assert require_radii((0.4, 0.2, 0.4)) == [0.4, 0.2, 0.4]


@pytest.mark.parametrize("count", [0, -3])
def test_collision_scaling_refuses_a_count_below_one(count):
    box = PhaseBox.centered(2, 2, 1.0, 1.0)
    datum = InitialDatum(kind="constant", center=np.zeros(8), width=1.0)
    with pytest.raises(DomainError, match="sample count must be >= 1"):
        check_collision_scaling(free_potential(2), box, datum, count, 1, [0.4, 0.2])


def _traced_peak(call):
    """The traced allocation peak of call(), in bytes above the start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_collision_scaling_peaks_below_two_doubles_a_row_three_a_hit_plus_two_blocks():
    # the sample is drawn and reduced in blocks of SAMPLE_BLOCK rows: only
    # the hits within the largest radius outlive a block, with their index,
    # pair distance and carried weight, and each radius fills one reused
    # buffer that np.std copies once, so the peak stays under 2 doubles a
    # row, 3 a hit and two blocks of 12 doubles a row, far below the
    # 200k x 12 doubles of the whole sample
    count = 200_000
    box = PhaseBox.centered(d=3, n=2, x_half=1.0, v_half=1.0)
    datum = InitialDatum(kind="constant", center=np.zeros(12), width=1.0)
    mus = [0.4, 0.2, 0.1, 0.05]
    hits = transport.collision_boundary_term(box, count, datum, 14, mus)[0].sample_count
    assert 0 < hits < count // 10
    peak = _traced_peak(
        lambda: check_collision_scaling(free_potential(3), box, datum, count, 14, mus)
    )
    assert peak < 2 * 8 * count + 3 * 8 * hits + 2 * transport.SAMPLE_BLOCK * 12 * 8


def test_measure_preservation_peaks_below_56_bytes_a_row():
    # the sample is drawn in blocks and only the rows may_reach keeps are
    # flowed and evaluated, so what grows with the count is the statistic's
    # count-length terms with np.std's temporaries; the flowed rows' states
    # and one block's temporaries must fit in the rest at 200k samples, where
    # the whole sample alone would take 64 bytes a row (this reads 28)
    count = 200_000
    box = PhaseBox.centered(2, 2, 2.0, 2.0)
    peak = _traced_peak(
        lambda: check_measure_preservation(harmonic(2), box, 0.05, count, SEED, ICFG)
    )
    assert peak < 56 * count


def test_measure_preservation_does_not_depend_on_the_block_size(monkeypatch):
    # 12,000 samples in one block and in blocks of 1,000 rows, with more
    # than 1,000 rows flowed: the sample, the rows may_reach keeps and their
    # flow are the same, and so is the report
    box = PhaseBox.centered(2, 3, 2.0, 2.0)
    pot = potentials.gaussian_well(2, depth=1.3, width=0.8)
    want = check_measure_preservation(pot, box, 0.05, 12_000, SEED, ICFG)
    monkeypatch.setattr(dynamics, "SAMPLE_BLOCK", 1_000)
    got = check_measure_preservation(pot, box, 0.05, 12_000, SEED, ICFG)
    assert got.details == want.details and got.details["flowed_rows"] > 1_000
    assert got.details["support_visits"]["end"] > 0
    assert _hex_fields(got) == _hex_fields(want)


def test_gradient_l1_decreasing_holds_the_worst_ratio_to_1_05(monkeypatch):
    # the errors are looked up on the potentials module, where tracing wraps
    # it; every level reads the fixed annulus and sample count
    base = repulsive_power(d=2, exponent=0.5)
    kernel, shrink = MollifierKernel(d=2), ShrinkFunction()
    fixed = (*GRADIENT_ANNULUS, GRADIENT_SAMPLES)
    for errors, passed in (([1.0, 0.25, 0.26], True), ([1.0, 0.25, 0.27], False)):
        table = dict(zip((3, 4, 5), errors))
        calls = []

        def error(b, k, s, level, r_in, r_out, n_samples, seed):
            calls.append((r_in, r_out, n_samples))
            return MCEstimate(estimate=table[level], std_error=0.01 * table[level])

        monkeypatch.setattr(potentials, "gradient_l1_error", error)
        rep = check_gradient_l1_decreasing(base, kernel, shrink, [3, 4, 5], 1)
        assert calls == [fixed] * 3 and fixed == (0.5, 2.0, 20_000)
        assert rep.check_name == "gradient_l1_decreasing"
        assert rep.sample_count == GRADIENT_SAMPLES
        assert rep.statistic == max(errors[1] / errors[0], errors[2] / errors[1])
        assert rep.tolerance == 1.05 and rep.std_error == rep.bias_bound == 0.0
        assert rep.details["errors"] == errors
        assert rep.details["std_errors"] == [0.01 * e for e in errors]
        assert rep.passed is passed
    for levels in ([3], [3, 3], [4, 3]):
        with pytest.raises(DomainError):
            check_gradient_l1_decreasing(base, kernel, shrink, levels, 1)
