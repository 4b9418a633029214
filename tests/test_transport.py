import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_lab import transport
from liouville_lab.dynamics import IntegratorConfig
from liouville_lab.errors import AlignmentError, CoverageError, DomainError
from liouville_lab.potentials import free_potential, harmonic, repulsive_power
from liouville_lab.profiles import bump, bump_prime, smooth_step_down_prime
from liouville_lab.transport import (
    MAX_ABS_BUMP_PRIME,
    MAX_ABS_POLY_PRIME,
    MAX_ABS_STEP_PRIME,
    EnergyCutoff,
    Ensemble,
    InitialDatum,
    PhaseBox,
    ResidualTerms,
    TestFunction,
    TruncationLevel,
    arctan_squash,
    collision_boundary_term,
    level_difference_series,
    nonneg_squash,
    push_forward,
    random_test_function,
    rational_squash,
    residual_window,
    sample_ensemble,
    shipped_beta_family,
    simpson_times,
    simpson_weights,
    smoothed_clamp,
    tanh_squash,
    truncate,
    weak_residual_statistics,
    weak_residual_suite,
)


def make_phi(d=2, n=2, t_center=0.5, t_width=0.45, scale=0.9):
    m = 2 * n * d
    return TestFunction(
        d=d,
        n=n,
        t_center=t_center,
        t_width=t_width,
        centers=np.zeros(m),
        widths=np.full(m, scale),
    )


# ---------------------------------------------------------------------------
# geometry containers


def test_phase_box_basics():
    box = PhaseBox.centered(2, 2, 1.5, 2.0)
    assert box.volume == pytest.approx((3.0**4) * (4.0**4))
    assert box.contains(np.full(8, -1.0), np.full(8, 1.0))
    assert not box.contains(np.full(8, -1.0), np.full(8, 1.9))
    rng = np.random.default_rng(0)
    z = box.sample(rng, 500)
    assert z.shape == (500, 8)
    assert np.all(z >= box.lows) and np.all(z <= box.highs)
    with pytest.raises(DomainError):
        PhaseBox.centered(2, 2, 0.0, 1.0)
    with pytest.raises(DomainError):
        PhaseBox(lows=np.zeros(8), highs=np.zeros(8), d=2, n=2)


def test_initial_datum_kinds_and_bounds():
    with pytest.raises(DomainError):
        InitialDatum(kind="delta", center=np.zeros(4), width=1.0)
    with pytest.raises(DomainError):
        InitialDatum(kind="bump", center=np.zeros(4), width=0.0)
    d_bump = InitialDatum(kind="bump", center=np.zeros(4), width=0.8)
    lo, hi = d_bump.support_bounds()
    np.testing.assert_allclose(lo, -0.8)
    np.testing.assert_allclose(hi, 0.8)
    d_ind = InitialDatum(kind="smoothed_indicator", center=np.zeros(4), width=0.5)
    lo, hi = d_ind.support_bounds()
    np.testing.assert_allclose(hi, 1.0)  # transition ends at two widths
    d_const = InitialDatum(kind="constant", center=np.zeros(4), width=1.0)
    assert d_const.support_bounds() is None
    assert not d_const.has_compact_support
    np.testing.assert_array_equal(d_const.evaluate(np.zeros((3, 4))), 1.0)
    with pytest.raises(DomainError):
        d_bump.evaluate(np.zeros((3, 5)))


@pytest.mark.parametrize("kind", ["bump", "smoothed_indicator", "clipped_polynomial"])
def test_initial_datum_lipschitz_bound_holds(kind):
    datum = InitialDatum(kind=kind, center=np.zeros(4), width=np.array([0.5, 0.8, 1.0, 1.3]), amplitude=1.7)
    lip = datum.lipschitz_bound()
    rng = np.random.default_rng(3)
    z1 = rng.uniform(-2, 2, size=(4000, 4))
    z2 = z1 + rng.normal(scale=0.05, size=z1.shape)
    gap = np.abs(datum.evaluate(z1) - datum.evaluate(z2))
    dist = np.linalg.norm(z1 - z2, axis=1)
    assert np.all(gap <= lip * dist * (1 + 1e-12))


def test_profile_prime_constants_are_sharp_bounds():
    u = np.linspace(-1.0, 1.0, 2_000_001)
    grid_max = np.max(np.abs(bump_prime(u)))
    assert grid_max <= MAX_ABS_BUMP_PRIME + 1e-12
    assert grid_max > MAX_ABS_BUMP_PRIME - 1e-5
    s = np.linspace(0.0, 3.0, 2_000_001)
    step_max = np.max(np.abs(smooth_step_down_prime(s)))
    assert step_max <= MAX_ABS_STEP_PRIME + 1e-12
    assert step_max > MAX_ABS_STEP_PRIME - 1e-5
    # clipped polynomial (1 - u^2)^2 has derivative extrema at u = 1/sqrt(3)
    poly_exact = 8.0 / (3.0 * math.sqrt(3.0))
    assert MAX_ABS_POLY_PRIME == pytest.approx(poly_exact, rel=1e-12)


# ---------------------------------------------------------------------------
# ensembles


def test_sample_ensemble_invariants():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e = sample_ensemble(box, 4000, datum, seed=7)
    assert e.size == 4000 and e.n == 2 and e.d == 2
    assert np.sum(e.weights) == pytest.approx(box.volume, rel=1e-12)
    np.testing.assert_array_equal(e.values, datum.evaluate(e.phase_flat()))
    assert e.flagged_fraction == 0.0
    assert e.time == 0.0
    with pytest.raises(DomainError):
        sample_ensemble(box, 0, datum, seed=7)
    with pytest.raises(DomainError):
        e.with_values(np.zeros(10))


def test_sample_ensemble_is_deterministic():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    a = sample_ensemble(box, 100, datum, seed=7)
    b = sample_ensemble(box, 100, datum, seed=7)
    c = sample_ensemble(box, 100, datum, seed=8)
    np.testing.assert_array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_push_forward_carries_values_and_time():
    box = PhaseBox.centered(2, 2, 1.0, 1.0)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.6)
    e = sample_ensemble(box, 200, datum, seed=1)
    out = push_forward(e, free_potential(2), 0.7, IntegratorConfig(dt=1e-2))
    assert out.time == pytest.approx(0.7)
    np.testing.assert_array_equal(out.values, e.values)
    np.testing.assert_array_equal(out.x, e.x + 0.7 * e.v)


# ---------------------------------------------------------------------------
# test functions


def test_test_function_gradients_match_finite_differences():
    phi = TestFunction(
        d=2,
        n=2,
        t_center=0.4,
        t_width=0.6,
        centers=np.array([0.1, -0.2, 0.3, 0.0, -0.1, 0.2, 0.0, 0.1]),
        widths=np.array([0.9, 1.1, 0.8, 1.0, 1.2, 0.7, 0.9, 1.0]),
    )
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.4, 0.4, size=(40, 2, 2))
    v = rng.uniform(-0.4, 0.4, size=(40, 2, 2))
    t = 0.55
    val, dt_got, gx, gv = phi.value_and_gradients(t, x, v)
    np.testing.assert_allclose(val, phi.value(t, x, v), rtol=1e-14)
    h = 1e-6
    fd_t = (phi.value(t + h, x, v) - phi.value(t - h, x, v)) / (2 * h)
    np.testing.assert_allclose(dt_got, fd_t, atol=1e-8)
    for i in range(2):
        for k in range(2):
            dx = np.zeros_like(x)
            dx[:, i, k] = h
            fd = (phi.value(t, x + dx, v) - phi.value(t, x - dx, v)) / (2 * h)
            np.testing.assert_allclose(gx[:, i, k], fd, atol=1e-8)
            fdv = (phi.value(t, x, v + dx) - phi.value(t, x, v - dx)) / (2 * h)
            np.testing.assert_allclose(gv[:, i, k], fdv, atol=1e-8)


def test_support_mask_bounds_value_support():
    phi = make_phi(scale=0.8)
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.2, 1.2, size=(3000, 2, 2))
    v = rng.uniform(-1.2, 1.2, size=(3000, 2, 2))
    vals = phi.value(0.5, x, v)
    mask = phi.support_mask(0.5, x, v)
    assert np.all(vals[~mask] == 0.0)
    assert np.all(mask[vals > 0.0])
    assert not phi.support_mask(2.0, x, v).any()  # outside the time window
    # exactly the open box |z - c| < w, boundary points excluded
    x[:10, 1, 0] = 0.8
    v[10:20, 0, 1] = -0.8
    z = np.concatenate([x.reshape(3000, 4), v.reshape(3000, 4)], axis=1)
    expected = np.all(np.abs(z - phi.centers) < phi.widths, axis=1)
    np.testing.assert_array_equal(phi.support_mask(0.5, x, v), expected)
    assert phi.support_mask(0.5, x[:0], v[:0]).shape == (0,)


def _value_on_every_row(phi, t, x, v):
    """phi(t, x, v) with the bump product evaluated on every row."""
    N = x.shape[0]
    z = np.concatenate([x.reshape(N, -1), v.reshape(N, -1)], axis=1)
    tval = float(bump(np.asarray((t - phi.t_center) / phi.t_width)))
    return tval * np.prod(bump((z - phi.centers) / phi.widths), axis=1)


def test_value_on_support_rows_equals_every_row_bitwise():
    phi = make_phi(scale=0.8)
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, size=(4000, 2, 2))
    v = rng.uniform(-1.0, 1.0, size=(4000, 2, 2))
    # rows exactly on the support boundary |z - c| == w, and NaN rows
    x[:10, 1, 0] = phi.centers[2] + phi.widths[2]
    v[10:20, 0, 1] = phi.centers[5] - phi.widths[5]
    x[20, 0, 0] = np.nan
    z = np.concatenate([x.reshape(4000, 4), v.reshape(4000, 4)], axis=1)
    assert np.all(np.abs(z[:10, 2] - phi.centers[2]) == phi.widths[2])
    assert np.all(np.abs(z[10:20, 5] - phi.centers[5]) == phi.widths[5])
    inside = phi.support_mask(0.3, x, v)
    assert 0 < np.count_nonzero(inside) < 4000
    for t in (0.3, 0.5, 2.0):  # the last lies outside the time window
        got = phi.value(t, x, v)
        np.testing.assert_array_equal(got, _value_on_every_row(phi, t, x, v))
    assert np.all(phi.value(2.0, x, v) == 0.0)
    assert phi.value(0.3, x[:0], v[:0]).shape == (0,)
    assert phi.value(0.3, x[:1], v[:1])[0] == _value_on_every_row(phi, 0.3, x[:1], v[:1])[0]


def test_test_function_validation_and_window():
    with pytest.raises(DomainError):
        TestFunction(d=2, n=2, t_center=0.0, t_width=1.0, centers=np.zeros(5), widths=np.ones(5))
    with pytest.raises(DomainError):
        TestFunction(d=2, n=2, t_center=0.0, t_width=0.0, centers=np.zeros(8), widths=np.ones(8))
    phi = make_phi(t_center=0.3, t_width=0.5)
    assert phi.time_window == (pytest.approx(-0.2), pytest.approx(0.8))
    assert residual_window(phi) == (pytest.approx(0.0), pytest.approx(0.8))
    late = make_phi(t_center=-2.0, t_width=0.5)
    with pytest.raises(DomainError):
        residual_window(late)


def test_min_support_pair_distance():
    centers = np.array([-0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    widths = np.full(8, 0.2)
    phi = TestFunction(d=2, n=2, t_center=0.5, t_width=0.5, centers=centers, widths=widths)
    assert phi.min_support_pair_distance() == pytest.approx(0.6)
    overlapping = make_phi()
    assert overlapping.min_support_pair_distance() == 0.0


def test_random_test_function_stays_inside_box():
    box = PhaseBox.centered(2, 2, 1.5, 2.0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        phi = random_test_function(2, 2, box, t_center=0.5, t_width=0.4, rng=rng)
        lo, hi = phi.support_bounds()
        assert box.contains(lo, hi)


# ---------------------------------------------------------------------------
# renormalizers


def test_truncation_ladder_is_bitwise():
    rng = np.random.default_rng(11)
    values = rng.normal(scale=3.0, size=100_000)
    m, p = 0.7, 1.3
    t_m = truncate(values, m)
    np.testing.assert_array_equal(truncate(truncate(values, p), m), t_m)
    np.testing.assert_array_equal(truncate(t_m, p), t_m)
    with pytest.raises(DomainError):
        TruncationLevel(0.0)


@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=40)
def test_truncation_ladder_property(m, extra):
    p = m + extra
    rng = np.random.default_rng(17)
    values = rng.normal(scale=2.0 * p, size=512)
    t_m = truncate(values, m)
    assert np.array_equal(truncate(truncate(values, p), m), t_m)
    assert np.array_equal(truncate(t_m, p), t_m)


@pytest.mark.parametrize(
    "beta",
    shipped_beta_family(0.8) + [nonneg_squash(0.5)],
    ids=lambda b: b.name,
)
def test_beta_lipschitz_constants_hold(beta):
    rng = np.random.default_rng(13)
    x = rng.normal(scale=2.0, size=20000)
    y = x + rng.normal(scale=0.1, size=x.size)
    gap = np.abs(beta(x) - beta(y))
    assert np.all(gap <= beta.lipschitz * np.abs(x - y) * (1 + 1e-12))


@pytest.mark.parametrize("m", [0.3, 1.0, 4.0])
def test_shipped_betas_map_zero_to_zero(m):
    # the renormalization suite flows only rows with f0 != 0, which is
    # exact only when every renormalizer fixes 0
    for beta in shipped_beta_family(m) + [nonneg_squash(m)]:
        assert beta(np.zeros(1))[0] == 0.0, beta.name


def test_smoothed_clamp_shape():
    beta = smoothed_clamp(1.0)
    x = np.linspace(-3, 3, 1001)
    out = beta(x)
    assert np.max(np.abs(out)) <= 1.0
    inner = np.abs(x) <= 0.99  # identity region ends at m - delta
    np.testing.assert_array_equal(out[inner], x[inner])
    np.testing.assert_allclose(beta(-x), -out, atol=0)
    with pytest.raises(DomainError):
        smoothed_clamp(-1.0)
    with pytest.raises(DomainError):
        smoothed_clamp(1.0, delta=2.0)


def test_squash_families_bounded_and_odd():
    x = np.linspace(-50, 50, 1001)
    for beta, bound in [
        (arctan_squash(0.7), 0.7 * math.pi / 2),
        (tanh_squash(0.7), 0.7),
        (rational_squash(0.7), 0.35),
    ]:
        out = beta(x)
        assert np.max(np.abs(out)) <= bound + 1e-12
        np.testing.assert_allclose(beta(-x), -out, atol=1e-15)
    nn = nonneg_squash(0.5)
    out = nn(x)
    assert np.all(out >= 0.0) and np.max(out) < 1.0
    assert nn(np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# quadrature


def test_simpson_weights_integrate_cubics_exactly():
    a, b = 0.2, 1.4
    t = np.linspace(a, b, 9)
    w = simpson_weights(9, a, b)
    assert np.sum(w) == pytest.approx(b - a, rel=1e-14)
    f = t**3 - 2.0 * t**2 + t
    exact = (
        (b**4 - a**4) / 4.0 - 2.0 * (b**3 - a**3) / 3.0 + (b**2 - a**2) / 2.0
    )
    assert np.sum(w * f) == pytest.approx(exact, rel=1e-13)
    with pytest.raises(DomainError):
        simpson_weights(4, a, b)
    with pytest.raises(DomainError):
        simpson_weights(1, a, b)


def test_simpson_times_validation():
    phi = make_phi(t_center=0.5, t_width=0.45)
    times = simpson_times(phi, 9)
    assert times[0] == pytest.approx(0.05)
    assert times[-1] == pytest.approx(0.95)
    with pytest.raises(DomainError):
        simpson_times(phi, 8)
    with pytest.raises(DomainError):
        simpson_times(phi, 7)  # odd but not 4m + 1


# ---------------------------------------------------------------------------
# weak residuals


def free_setup(count=4000, seed=29, phi_seed=3):
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e = sample_ensemble(box, count, datum, seed=seed)
    rng = np.random.default_rng(phi_seed)
    phi = random_test_function(2, 2, box, t_center=0.5, t_width=0.45, rng=rng)
    return box, datum, e, phi


def test_weak_residual_vanishes_for_exact_transport():
    _, _, e, phi = free_setup()
    ((est,),) = weak_residual_suite(
        e, free_potential(2), [phi], [None], IntegratorConfig(dt=1e-2), nodes=33
    )
    assert abs(est.estimate) <= 3.0 * est.std_error
    assert est.details["flagged_fraction"] == 0.0


def test_weak_residual_flags_a_non_solution():
    # a tight box concentrates samples where datum and phi overlap,
    # which is what gives the control statistical power at small N
    box = PhaseBox.centered(2, 2, 1.0, 1.0)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.7)
    e = sample_ensemble(box, 10_000, datum, seed=29)
    phi = make_phi(scale=0.85)
    a, _ = residual_window(phi)
    corrupted = lambda t, f: (1.0 + 6.0 * (t - a)) * f  # noqa: E731
    ((est,),) = weak_residual_suite(
        e, free_potential(2), [phi], [corrupted], IntegratorConfig(dt=1e-2), nodes=33
    )
    assert abs(est.estimate) > 3.0 * est.std_error


def test_weak_residual_suite_takes_several_value_maps_in_one_pass():
    _, _, e, phi = free_setup()
    tanh = tanh_squash(1.0)
    ((ident, squashed),) = weak_residual_suite(
        e, free_potential(2), [phi], [None, lambda t, f: tanh(f)],
        IntegratorConfig(dt=1e-2), nodes=33,
    )
    for est in (ident, squashed):
        assert abs(est.estimate) <= 3.0 * est.std_error
    assert squashed.estimate != ident.estimate


def test_weak_residual_suite_equals_one_call_per_test_function_bitwise():
    box, _, e, _ = free_setup(count=3000)
    pot = harmonic(2, 1.0)
    icfg = IntegratorConfig(dt=1e-2)
    rng = np.random.default_rng(11)
    phis = [random_test_function(2, 2, box, t_center=0.5, t_width=0.45, rng=rng) for _ in range(3)]
    maps = [None, lambda t, f: arctan_squash(1.0)(f)]
    together = weak_residual_suite(e, pot, phis, maps, icfg, nodes=33)
    assert len(together) == 3
    for phi, ests in zip(phis, together):
        (alone,) = weak_residual_suite(e, pot, [phi], maps, icfg, nodes=33)
        for est, ref in zip(ests, alone):
            assert (est.estimate, est.std_error, est.bias_bound, est.sample_count) == (
                ref.estimate, ref.std_error, ref.bias_bound, ref.sample_count
            )
    # the test functions are not interchangeable: each has its own defect
    assert len({ests[0].estimate for ests in together}) == 3


def test_weak_residual_suite_rejects_test_functions_with_different_windows():
    _, _, e, phi = free_setup(count=100)
    later = replace(phi, t_center=phi.t_center + 0.1)
    with pytest.raises(DomainError, match="one time window"):
        weak_residual_suite(e, free_potential(2), [phi, later], [None], IntegratorConfig(dt=1e-2))
    with pytest.raises(DomainError):
        weak_residual_suite(e, free_potential(2), [], [None], IntegratorConfig(dt=1e-2))


def test_weak_residual_suite_time_validation():
    _, _, e, phi = free_setup(count=100)
    pot, icfg = free_potential(2), IntegratorConfig(dt=1e-2)
    started = push_forward(e, pot, 0.5, icfg)
    with pytest.raises(DomainError, match="t = 0"):
        weak_residual_suite(started, pot, [phi], [None], icfg, nodes=9)
    ended = replace(phi, t_center=-1.0, t_width=0.5)
    with pytest.raises(DomainError, match="ends before t = 0"):
        weak_residual_suite(e, pot, [ended], [None], icfg, nodes=9)
    with pytest.raises(DomainError, match="4 m"):
        weak_residual_suite(e, pot, [phi], [None], icfg, nodes=8)


def test_weak_residual_alignment_errors():
    _, _, e, phi = free_setup(count=100)
    terms = ResidualTerms(e, free_potential(2), phi, [None], count=9)
    rows = np.arange(e.size)
    node = lambda k, t: terms.add(k, t, e.x, e.v, np.zeros_like(e.x), e.values, rows)  # noqa: E731
    with pytest.raises(AlignmentError):
        node(0, terms.times[0] + 0.01)
    for k, tk in enumerate(terms.times):
        node(k, tk)
    with pytest.raises(AlignmentError):
        node(terms.times.size, terms.times[-1])


def test_weak_residual_suite_flows_only_rows_carrying_mass(monkeypatch):
    box, _, e, phi = free_setup(count=600)
    e = e.with_values(np.where(np.arange(e.size) % 3 == 0, 0.0, e.values))
    pot, icfg = harmonic(2, 1.0), IntegratorConfig(dt=1e-2)
    # the every-row reference: one ResidualTerms fed from a flow of all rows
    ref = ResidualTerms(e, pot, phi, [None], count=17)
    rows, k = np.arange(e.size), iter(range(ref.times.size))

    def add_node(tk, batch):
        x, v, forces = (np.moveaxis(arr, -1, 0) for arr in (batch.X, batch.V, batch.A))
        ref.add(next(k), tk, x, v, forces, e.values[batch.idx], rows[batch.idx])

    flow = transport.flow_batch
    flow(e.x, e.v, pot, ref.times[-1], icfg, stops=ref.times, observe=add_node)
    (want,) = weak_residual_statistics(ref, icfg.dt)
    flowed = []
    monkeypatch.setattr(
        transport, "flow_batch", lambda x, *a, **k: flowed.append(len(x)) or flow(x, *a, **k)
    )
    ((got,),) = weak_residual_suite(e, pot, [phi], [None], icfg, nodes=17)
    assert flowed == [np.count_nonzero(e.values)] and flowed[0] < e.size
    assert got.sample_count == e.size
    assert (got.estimate, got.std_error, got.bias_bound) == (
        want.estimate, want.std_error, want.bias_bound
    )


def test_weak_residual_suite_hands_value_maps_the_node_times():
    _, _, e, phi = free_setup()
    early = replace(phi, t_center=0.2)  # window [0, 0.65]: a t = 0 boundary term
    seen = []

    def record(t, f):
        seen.append((t, f.copy()))
        return f

    ((est,),) = weak_residual_suite(
        e, free_potential(2), [early], [record], IntegratorConfig(dt=1e-2), nodes=9
    )
    times = simpson_times(early, 9)
    assert seen[0][0] == 0.0 == times[0]
    assert set(t for t, _ in seen) <= set(times)
    assert len(set(t for t, _ in seen)) > times.size // 2
    carried = set(e.values[e.values != 0.0])
    assert all(set(f) <= carried for _, f in seen)
    (ident,) = weak_residual_suite(
        e, free_potential(2), [early], [None], IntegratorConfig(dt=1e-2), nodes=9
    )[0]
    assert est.estimate == ident.estimate


def test_weak_residual_rejects_non_compact_datum():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="constant", center=np.zeros(8), width=1.0)
    e = sample_ensemble(box, 100, datum, seed=1)
    with pytest.raises(CoverageError):
        weak_residual_suite(
            e, free_potential(2), [make_phi()], [None], IntegratorConfig(dt=1e-2), nodes=5
        )


def test_weak_residual_rejects_datum_leaking_out_of_box():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.full(8, 1.0), width=0.8)
    e = sample_ensemble(box, 100, datum, seed=1)
    with pytest.raises(CoverageError):
        weak_residual_suite(
            e, free_potential(2), [make_phi()], [None], IntegratorConfig(dt=1e-2), nodes=5
        )


def test_weak_residual_rejects_collision_adjacent_support_when_confining():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e = sample_ensemble(box, 100, datum, seed=1)
    pot = repulsive_power(2, exponent=1.0)  # confining in d = 2
    phi = make_phi()  # particle supports overlap: pair distance 0
    with pytest.raises(CoverageError, match="collision margin"):
        weak_residual_suite(e, pot, [phi], [None], IntegratorConfig(dt=1e-3), nodes=5)


# ---------------------------------------------------------------------------
# collision boundary term


def test_collision_boundary_term_hand_computed():
    box = PhaseBox.centered(2, 2, 2.0, 2.0)
    x = np.array(
        [
            [[0.0, 0.0], [0.3, 0.0]],   # rel_x 0.3, inside mu
            [[0.0, 0.0], [0.0, 0.9]],   # rel_x 0.9, outside
            [[0.1, 0.0], [0.1, 0.4]],   # rel_x 0.4, inside
        ]
    )
    v = np.array(
        [
            [[1.0, 0.0], [0.0, 0.0]],   # rel_v 1.0
            [[0.0, 2.0], [0.0, 0.0]],   # rel_v 2.0
            [[0.0, 0.0], [0.0, -3.0]],  # rel_v 3.0
        ]
    )
    e = Ensemble(
        x=x,
        v=v,
        weights=np.full(3, 2.0),
        values=np.array([0.5, 1.0, -1.0]),
        flags=np.zeros(3, dtype=np.int8),
        box=box,
        seed=0,
    )
    est = collision_boundary_term(e, mu=0.5)
    # (2 * 0.5 * 1.0 + 2 * 1.0 * 3.0) / 0.5
    assert est.estimate == pytest.approx((1.0 + 6.0) / 0.5)
    assert est.sample_count == 2
    assert est.details["hit_fraction"] == pytest.approx(2.0 / 3.0)
    with pytest.raises(DomainError):
        collision_boundary_term(e, mu=0.0)
    with pytest.raises(DomainError):
        collision_boundary_term(e, mu=0.5, pair=(0, 2))
    with pytest.raises(DomainError):
        collision_boundary_term(e, mu=0.5, pair=(1, 1))


def test_sample_and_collision_term_are_bitwise_the_textbook_formulas():
    # the box is scaled into the drawn buffer in place
    lows = np.array([-1.3, -0.2, 0.5, -2.0, -0.7, 0.1, -3.0, 1.0])
    widths = np.array([2.1, 0.4, 1.7, 3.3, 1.1, 0.9, 5.0, 0.3])
    box = PhaseBox(lows=lows, highs=lows + widths, d=2, n=2)
    u = np.random.default_rng(7).random((1000, 8))
    textbook = box.lows + u * (box.highs - box.lows)
    assert np.array_equal(box.sample(np.random.default_rng(7), 1000), textbook)
    # the pair memo of an n = 3 ensemble with flagged rows, visited pair by
    # pair, against the per-call formula
    e = sample_ensemble(
        PhaseBox.centered(3, 3, 1.0, 1.0),
        2000,
        InitialDatum(kind="bump", center=np.zeros(18), width=0.9),
        seed=5,
    )
    e = replace(e, flags=np.where(np.arange(e.size) % 7 == 3, 1, 0).astype(np.int8))
    for pair in ((0, 1), (0, 2), (0, 1)):
        i, j = pair
        for mu in (0.8, 0.4, 0.2):
            rel_x = np.linalg.norm(e.x[:, i, :] - e.x[:, j, :], axis=-1)
            rel_v = np.linalg.norm(e.v[:, i, :] - e.v[:, j, :], axis=-1)
            inside = (rel_x <= mu) & (e.flags == 0)
            xi = np.where(inside, e.weights * np.abs(e.values) * rel_v / mu, 0.0)
            est = collision_boundary_term(e, mu, pair=pair)
            assert est.estimate == float(np.sum(xi))
            assert est.std_error == float(np.std(xi, ddof=1) * math.sqrt(e.size))
            assert est.sample_count == int(np.sum(inside)) > 0
    # new values make a new ensemble with its own memo
    halved = e.with_values(0.5 * e.values)
    full = collision_boundary_term(e, 0.4).estimate
    assert collision_boundary_term(halved, 0.4).estimate == 0.5 * full


# ---------------------------------------------------------------------------
# energy cutoff and level-difference series


def test_energy_cutoff_values_and_domain():
    pot = harmonic(2)
    cut = EnergyCutoff.for_potential(pot, n=2, radius=6.0, horizon=1.0)
    assert cut.speed_constant > 0
    x = np.zeros((1, 2, 2))
    v = np.zeros((1, 2, 2))
    assert cut.value_batch(0.5, x, v, pot)[0] == pytest.approx(1.0)
    fast = np.full((1, 2, 2), 20.0)  # kinetic energy far above 2 R^2
    assert cut.value_batch(0.5, x, fast, pot)[0] == 0.0
    with pytest.raises(DomainError):
        cut.value_batch(-0.1, x, v, pot)
    with pytest.raises(DomainError):
        cut.value_batch(1.1, x, v, pot)
    with pytest.raises(DomainError):
        EnergyCutoff(radius=0.0, horizon=1.0, speed_constant=1.0)


def test_level_difference_series_retraces_one_paused_forward_flow(monkeypatch):
    base = repulsive_power(2, exponent=0.5, strength=0.5)
    from liouville_lab.potentials import MollifiedPotential, MollifierKernel, ShrinkFunction

    kernel = MollifierKernel(d=2, power=3)
    shrink = ShrinkFunction()

    def make_potential(level):
        return MollifiedPotential(base, kernel, shrink, level)

    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e0 = sample_ensemble(box, 400, datum, seed=21)
    icfg = IntegratorConfig(dt=2e-3)
    times = [0.1, 0.2, 0.3]
    # the every-row reference: one push_forward per leg
    legs, e = [], e0
    for tk in times:
        e = push_forward(e, make_potential(4), tk - e.time, icfg)
        legs.append(e)
    calls = []
    flow = transport.flow_batch

    def counted_flow(*args, **kwargs):
        calls.append(args[3])
        return flow(*args, **kwargs)

    monkeypatch.setattr(transport, "flow_batch", counted_flow)
    series, disps = level_difference_series(
        e0, make_potential, 4, 4, nonneg_squash(0.5), times, icfg
    )
    # one forward flow pausing at every snapshot, one backward flow per snapshot
    assert calls == [0.3, -0.1, -0.2, -0.3]
    assert len(series) == 3 and len(disps) == 3
    for e, leg in zip(series, legs):
        assert e.time == leg.time
        np.testing.assert_array_equal(e.x, leg.x)
        np.testing.assert_array_equal(e.v, leg.v)
    # identical levels retrace bitwise under the reversible stepper
    assert max(float(np.max(d)) for d in disps) < 1e-12


def test_level_difference_series_requires_datum():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e0 = sample_ensemble(box, 10, datum, seed=21)
    stripped = replace(e0, datum=None)
    with pytest.raises(DomainError):
        level_difference_series(
            stripped, lambda lvl: free_potential(2), 3, 4, nonneg_squash(0.5), [0.1],
            IntegratorConfig(dt=1e-2),
        )
