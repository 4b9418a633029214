"""End-to-end acceptance runs, one test per shipped guarantee.

Each test exercises a full pipeline (sampling, integration, residual or
check report) at the advertised sample sizes and asserts both the
stated tolerance and the stated wall-clock budget, so a plain
`pytest -v tests/test_acceptance.py` doubles as the acceptance report.
All runs are deterministic via fixed seeds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from liouville_lab import verification as V
from liouville_lab.dynamics import (
    Configuration,
    IntegratorConfig,
    energy,
    flow_map,
    reversed_velocities,
    total_momentum,
)
from liouville_lab.potentials import (
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    gaussian_well,
    harmonic,
    piecewise_radial,
    repulsive_power,
)
from liouville_lab.rng import rng_for
from liouville_lab.transport import (
    InitialDatum,
    PhaseBox,
    TestFunction,
    random_test_function,
    sample_ensemble,
    shipped_beta_family,
    truncate,
    weak_residual_suite,
)

VERLET = IntegratorConfig(scheme="velocity_verlet", dt=1e-3)


@contextmanager
def runtime_budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds {seconds:.0f}s budget"


def test_criterion_1_weak_identity_free_transport():
    # 10 randomly placed test functions against a transported bump; the
    # residual of the time-space pairing must vanish within Monte Carlo noise.
    with runtime_budget(30.0):
        box = PhaseBox.centered(d=2, n=2, x_half=1.5, v_half=1.5)
        datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
        pot = free_potential(2)
        ensemble = sample_ensemble(box, 100_000, datum, seed=1)
        # the test functions share one time window, so one flow serves all
        phis = [
            random_test_function(
                2, 2, box, t_center=0.5, t_width=0.45,
                rng=rng_for(1, f"acceptance-phi-{j}"),
            )
            for j in range(10)
        ]
        estimates = weak_residual_suite(ensemble, pot, phis, [None], VERLET, nodes=65)
        for j, (est,) in enumerate(estimates):
            assert abs(est.estimate) < 3.0 * est.std_error, f"phi {j}"


def test_criterion_2_renormalized_residuals_both_potentials():
    # All four shipped bounded renormalizers (and the identity) must leave
    # the weak identity intact on a smooth and on a kink-gradient potential.
    with runtime_budget(300.0):
        box = PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
        datum = InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
        betas = shipped_beta_family(1.0)
        for pot in (harmonic(2, 1.0), piecewise_radial(2, 0.8, -0.6, 0.4)):
            reports = V.check_renormalization_suite(
                pot, box, datum, betas, count=100_000, seed=5, icfg=VERLET
            )
            assert len(reports) == 1 + len(betas)
            for r in reports:
                assert r.passed, f"{pot.kind}: {r.summary_line()}"


def test_criterion_3_collision_boundary_scaling():
    # The pair-collision boundary term must scale like mu^(d-1) under a
    # uniform phase-space density, for both planar and spatial particles.
    with runtime_budget(120.0):
        mus = [0.4, 0.2, 0.1, 0.05]
        for d in (2, 3):
            box = PhaseBox.centered(d=d, n=2, x_half=1.0, v_half=1.0)
            datum = InitialDatum(kind="constant", center=np.zeros(4 * d), width=1.0)
            # |slope - (d - 1)| against 0.3
            report = V.check_collision_scaling(
                free_potential(d), box, datum, 1_000_000, 14, mus
            )
            assert report.passed, f"d={d}: {report.summary_line()}"
            assert report.tolerance == 0.3 and report.std_error == report.bias_bound == 0.0


def test_criterion_4_uniqueness_functional_monotone():
    # The contracting-cutoff functional of the difference between adjacent
    # regularization levels of a confining potential never increases, and
    # is exactly zero when both levels coincide.
    with runtime_budget(300.0):
        base = repulsive_power(d=2, exponent=1.0)
        kernel = MollifierKernel(d=2, power=3)
        shrink = ShrinkFunction()
        box = PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
        datum = InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
        icfg = IntegratorConfig(scheme="velocity_verlet", dt=2e-3)

        adjacent = V.check_uniqueness_monotone(
            base, kernel, shrink, box, datum, (4, 5), horizon=0.5,
            count=2500, seed=9, icfg=icfg,
        )
        assert adjacent.passed, adjacent.summary_line()
        assert len(adjacent.details["functional"]) == 10

        identical = V.check_uniqueness_monotone(
            base, kernel, shrink, box, datum, (4, 4), horizon=0.5,
            count=1200, seed=9, icfg=icfg,
        )
        assert identical.passed, identical.summary_line()
        assert np.max(np.abs(identical.details["functional"])) < 1e-20


def test_criterion_5_truncation_ladder_bitwise():
    # Composing clamps at heights p >= m collapses to the lower clamp with
    # no floating-point drift at all.
    with runtime_budget(5.0):
        values = rng_for(99, "acceptance-ladder").uniform(-3.0, 3.0, size=1_000_000)
        m, p = 0.7, 1.3
        t_m = truncate(values, m)
        np.testing.assert_array_equal(truncate(truncate(values, p), m), t_m)
        np.testing.assert_array_equal(truncate(t_m, p), t_m)


def test_criterion_6_mollification_convergence():
    # Regularized gradients converge to the true gradient in L1 on an
    # annulus, level by level; regularized flows form a Cauchy sequence
    # whose limit does not depend on the smoothing kernel.
    with runtime_budget(600.0):
        base = repulsive_power(d=2, exponent=0.5)
        kernel = MollifierKernel(d=2)
        shrink = ShrinkFunction()

        # shared-seed estimates; every fine/coarse ratio against 1.05, the
        # slack that absorbs Monte Carlo jitter
        gradient = V.check_gradient_l1_decreasing(
            base, kernel, shrink, (3, 4, 5, 6), 0.5, 2.0, n_samples=20_000, seed=12
        )
        assert gradient.passed, gradient.summary_line()
        assert gradient.tolerance == 1.05 and gradient.std_error == gradient.bias_bound == 0.0
        errors = gradient.details["errors"]
        assert errors[-1] < errors[0], f"gradient errors not decreasing: {errors}"

        box = PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
        icfg = IntegratorConfig(scheme="velocity_verlet", dt=2e-3)
        cauchy, independence = V.check_mollification_cauchy(
            base, kernel, shrink, box, t=0.4, count=1200, seed=3, icfg=icfg,
            levels=(3, 4, 5, 6),
        )
        assert cauchy.passed, cauchy.summary_line()
        assert independence.passed, independence.summary_line()
        # kernel swap at the finest level moves the flow by < 2x the finest gap
        assert independence.statistic < 2.0 * independence.details["finest_gap"]


def test_criterion_7_flow_axioms_with_negative_controls():
    # Time continuity, measure preservation, the group law, energy
    # invariance, and the weak derivative identity all hold at scale on a
    # smooth and on a confining potential, and every check rejects its
    # built-in corruption.  One flow_axiom_suite call per case shares the
    # sample and its flow among the per-sample checks.
    with runtime_budget(600.0):
        separated_observable = TestFunction(
            d=2, n=2, t_center=0.0, t_width=1.0,
            centers=np.array([-0.48, 0.0, 0.48, 0.0, 0.0, 0.0, 0.0, 0.0]),
            widths=np.array([0.3, 0.6, 0.3, 0.6, 0.9, 0.9, 0.9, 0.9]),
        )
        cases = [
            (
                harmonic(d=2, strength=1.0),
                PhaseBox.centered(d=2, n=2, x_half=2.0, v_half=2.0),
                VERLET,
                11,
                dict(measure_t=0.25),
            ),
            (
                repulsive_power(d=2, exponent=1.0),
                PhaseBox.centered(d=2, n=2, x_half=1.5, v_half=1.5),
                IntegratorConfig(scheme="velocity_verlet", dt=1e-3, adaptive=True),
                7,
                dict(measure_t=0.05, observable=separated_observable),
            ),
        ]
        for pot, box, icfg, seed, measure_kwargs in cases:
            reports = V.flow_axiom_suite(
                pot, box, count=100_000, seed=seed, icfg=icfg, t=1.0, **measure_kwargs
            )
            assert len(reports) == 2 * len(V.CHECK_NAMES)
            for r in reports:
                if r.check_name.endswith("_control"):
                    assert not r.passed, f"{pot.kind}: control slipped: {r.summary_line()}"
                else:
                    assert r.passed, f"{pot.kind}: {r.summary_line()}"


def test_criterion_8_product_renormalization():
    # The product of two transported densities, formed through the
    # polarization identity, is itself a weak solution.
    with runtime_budget(120.0):
        def polarized_product(a, b):
            return 0.25 * ((a + b) ** 2 - (a - b) ** 2)

        box = PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
        f = InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
        g = InitialDatum(kind="clipped_polynomial", center=np.zeros(8), width=0.9)
        phi = TestFunction(
            d=2, n=2, t_center=0.5, t_width=0.45,
            centers=np.zeros(8), widths=np.full(8, 0.85),
        )
        for pot in (free_potential(2), harmonic(2, 1.0)):
            ensemble = sample_ensemble(box, 100_000, f, seed=21)
            # second solution on the same samples: carry the product of both
            # initial values, which the flow leaves unchanged along each path
            g_values = g.evaluate(ensemble.phase_flat())
            pv = polarized_product(ensemble.values, g_values)
            np.testing.assert_allclose(pv, ensemble.values * g_values, atol=1e-12)
            ((est,),) = weak_residual_suite(
                ensemble.with_values(pv), pot, [phi], [None], VERLET, nodes=65
            )
            assert abs(est.estimate) < 3.0 * est.std_error, pot.kind


def test_criterion_9_dynamics_quality_gates():
    two_body = Configuration(
        x=np.array([[0.3, -0.2], [-0.5, 0.4]]),
        v=np.array([[0.1, 0.5], [-0.3, 0.2]]),
    )
    smooth = gaussian_well(2, depth=1.0, width=1.5)

    # energy drift over a long horizon
    drifted = flow_map(two_body, 10.0, smooth, VERLET)
    assert abs(energy(drifted, smooth) - energy(two_body, smooth)) < 1e-6

    # second-order convergence against the closed-form harmonic pair
    pot = harmonic(2)
    om = math.sqrt(2.0)
    r0 = two_body.x[0] - two_body.x[1]
    w0 = two_body.v[0] - two_body.v[1]
    xc = 0.5 * (two_body.x[0] + two_body.x[1]) + 0.5 * (two_body.v[0] + two_body.v[1])
    rt = r0 * math.cos(om) + w0 * math.sin(om) / om
    exact_x0 = xc + 0.5 * rt

    def endpoint_error(dt: float) -> float:
        got = flow_map(two_body, 1.0, pot, IntegratorConfig(dt=dt))
        return float(np.max(np.abs(got.x[0] - exact_x0)))

    ratio = endpoint_error(2e-3) / endpoint_error(1e-3)
    assert 3.0 < ratio < 5.0

    # exact step reversibility
    fwd = flow_map(two_body, 2.0, smooth, VERLET)
    back = flow_map(reversed_velocities(fwd), 2.0, smooth, VERLET)
    round_trip = reversed_velocities(back)
    assert np.max(np.abs(round_trip.x - two_body.x)) < 1e-12
    assert np.max(np.abs(round_trip.v - two_body.v)) < 1e-12

    # momentum conservation per unit time
    t = 3.0
    out = flow_map(two_body, t, smooth, VERLET)
    assert np.max(np.abs(total_momentum(out) - total_momentum(two_body))) < 1e-10 * t
