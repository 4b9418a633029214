import csv
import json
import time

import numpy as np
import pytest

from liouville_lab.dynamics import IntegratorConfig
from liouville_lab.errors import CoverageError, DomainError
from liouville_lab.potentials import (
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    harmonic,
    piecewise_radial,
    repulsive_power,
)
from liouville_lab.transport import (
    BetaFunction,
    InitialDatum,
    PhaseBox,
    TestFunction,
    evolve_series,
    residual_window,
    sample_ensemble,
    shipped_beta_family,
    simpson_times,
    smoothed_clamp,
    tanh_squash,
    weak_residual_suite,
)
from liouville_lab.verification import (
    FLAGGED_FRACTION_LIMIT,
    CheckReport,
    check_energy_invariance,
    check_group_property,
    check_measure_preservation,
    check_mollification_cauchy,
    check_renormalization_suite,
    check_time_continuity,
    check_uniqueness_monotone,
    check_weak_ode,
    default_observable_for,
    flow_axiom_suite,
    write_reports_jsonl,
    write_summary_csv,
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


def test_measure_preservation_rejects_colliding_observable_when_confining():
    phi = TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0,
        centers=np.zeros(8), widths=np.full(8, 0.5),
    )
    with pytest.raises(CoverageError):
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
    ok = check_group_property(harmonic(2), BOX, 0.4, 0.6, 2000, SEED, ICFG)
    assert ok.passed
    # fixed-grid composition is exact, not merely within tolerance
    assert ok.statistic == 0.0
    bad = check_group_property(
        harmonic(2), BOX, 0.4, 0.6, 2000, SEED, ICFG, negative_control=True
    )
    assert not bad.passed
    assert bad.statistic >= 0.04


def test_energy_invariance_passes_and_control_fails():
    ok = check_energy_invariance(harmonic(2), BOX, 1.0, 2000, SEED, ICFG)
    assert ok.passed
    bad = check_energy_invariance(
        harmonic(2), BOX, 1.0, 2000, SEED, ICFG, negative_control=True
    )
    assert not bad.passed


def test_weak_ode_passes_and_control_fails():
    ok = check_weak_ode(harmonic(2), BOX, 1.0, 2000, SEED, ICFG)
    assert ok.passed
    assert ok.details["initial_identity_defect"] == 0.0
    bad = check_weak_ode(harmonic(2), BOX, 1.0, 2000, SEED, ICFG, negative_control=True)
    assert not bad.passed
    with pytest.raises(DomainError):
        check_weak_ode(harmonic(2), BOX, 1.0, 100, SEED, ICFG, nodes=10)


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
    with pytest.raises(DomainError):
        flow_axiom_suite(harmonic(2), BOX, 300, SEED, icfg, checks=["no_such_check"])


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
    # 33 nodes are pre-asymptotic for an order-one window and break the
    # Richardson error estimate; 65 is the smallest reliable count
    reports = check_renormalization_suite(
        free_potential(2), box, datum, betas, count=40_000, seed=SEED,
        icfg=ICFG, phi=phi, nodes=65,
    )
    assert [r.check_name for r in reports] == [
        "renormalized_residual[identity]",
        "renormalized_residual[tanh(scale=1)]",
        "renormalized_residual[smoothed_clamp(m=1)]",
    ]
    assert all(r.passed for r in reports)

    controls = check_renormalization_suite(
        free_potential(2), box, datum, betas, count=40_000, seed=SEED,
        icfg=ICFG, phi=phi, nodes=65, negative_control=True,
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
    """The suite's estimates by hand: every sample flowed, one full pass."""
    e0 = sample_ensemble(RESIDUAL_BOX, count, RESIDUAL_DATUM, SEED)
    series = evolve_series(e0, pot, simpson_times(RESIDUAL_PHI, 65), RESIDUAL_ICFG)
    if negative_control:
        a, _ = residual_window(RESIDUAL_PHI)
        series = [e.with_values((1.0 + 3.0 * (e.time - a)) * e.values) for e in series]
    maps = [None] + shipped_beta_family(1.0)
    return e0, weak_residual_suite(
        series, pot, RESIDUAL_PHI, maps, count=65, step_size=RESIDUAL_ICFG.dt
    )


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


class CountingPotential:
    """A pair potential that records the row count of every gradient call."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []

    def gradient_batch(self, r):
        self.rows.append(r.shape[0])
        return self.inner.gradient_batch(r)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_renormalization_suite_forces_see_only_carried_rows():
    pot = CountingPotential(piecewise_radial(2, 0.8, -0.6, 0.4))
    (report,) = check_renormalization_suite(
        pot, RESIDUAL_BOX, RESIDUAL_DATUM, [], 3000, SEED, RESIDUAL_ICFG, phi=RESIDUAL_PHI,
    )
    carried = report.details["carried_rows"]
    assert 0 < carried < 3000
    # each flow leg starts with a force pass over every carried row; the
    # estimator evaluates forces only on carried rows inside supp phi
    assert max(pot.rows) == carried


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
