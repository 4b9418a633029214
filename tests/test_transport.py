import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_lab import dynamics, transport
from liouville_lab.dynamics import FLAG_OK, FLAG_SINGULAR, IntegratorConfig, _forces, flow_batch
from liouville_lab.errors import CoverageError, DomainError
from liouville_lab.estimates import MCEstimate
from liouville_lab.potentials import (
    MollifiedPotential,
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    gaussian_well,
    harmonic,
    piecewise_radial,
    repulsive_power,
)
from liouville_lab.profiles import bump, bump_pair
from liouville_lab.transport import (
    MAX_ABS_BUMP_PRIME,
    MAX_ABS_POLY_PRIME,
    BetaFunction,
    EnergyCutoff,
    Ensemble,
    InitialDatum,
    PhaseBox,
    TestFunction,
    arctan_squash,
    collision_boundary_term,
    level_difference_series,
    may_reach,
    nonneg_squash,
    random_test_function,
    rational_squash,
    residual_window,
    sample_ensemble,
    shipped_beta_family,
    simpson_walk,
    simpson_weights,
    smoothed_clamp,
    tanh_squash,
    truncate,
    weak_residual_suite,
)
from liouville_lab.transport import _phase_block


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


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntegratorConfig(dt=NAN),
        lambda: PhaseBox.centered(2, 2, NAN, 1.0),
        lambda: PhaseBox.centered(2, 2, 1.0, NAN),
        lambda: PhaseBox(lows=np.zeros(8), highs=np.full(8, NAN), d=2, n=2),
        lambda: InitialDatum(kind="bump", center=np.zeros(8), width=NAN),
        lambda: TestFunction(
            d=2, n=2, t_center=0.0, t_width=1.0, centers=np.zeros(8), widths=np.full(8, NAN)
        ),
        lambda: TestFunction(
            d=2, n=2, t_center=0.0, t_width=NAN, centers=np.zeros(8), widths=np.ones(8)
        ),
        lambda: EnergyCutoff(radius=NAN, horizon=1.0, speed_constant=1.0),
        lambda: EnergyCutoff(radius=1.0, horizon=NAN, speed_constant=1.0),
        lambda: EnergyCutoff(radius=1.0, horizon=1.0, speed_constant=NAN),
        lambda: truncate(np.ones(3), NAN),
        lambda: smoothed_clamp(NAN),
        lambda: harmonic(2, NAN),
        lambda: repulsive_power(2, exponent=NAN),
        lambda: repulsive_power(2, exponent=1.0, strength=NAN),
        lambda: gaussian_well(2, depth=NAN),
        lambda: gaussian_well(2, width=NAN),
        lambda: piecewise_radial(2, NAN, -0.5, 0.5),
    ],
    ids=[
        "dt", "box_x_half", "box_v_half", "box_extent", "datum_width", "phi_widths",
        "phi_t_width", "cutoff_radius", "cutoff_horizon", "cutoff_rate", "truncate",
        "smoothed_clamp", "harmonic", "repulsive_exponent", "repulsive_strength",
        "gaussian_depth", "gaussian_width", "piecewise_jump_radius",
    ],
)
def test_positivity_rules_refuse_nan(build):
    # NaN > 0 is false, so `not x > 0` refuses it where `x <= 0` would not
    with pytest.raises(DomainError, match="positive"):
        build()


def test_initial_datum_kinds_and_bounds():
    with pytest.raises(DomainError):
        InitialDatum(kind="delta", center=np.zeros(4), width=1.0)
    with pytest.raises(DomainError):
        InitialDatum(kind="bump", center=np.zeros(4), width=0.0)
    d_bump = InitialDatum(kind="bump", center=np.zeros(4), width=0.8)
    lo, hi = d_bump.support_bounds()
    np.testing.assert_allclose(lo, -0.8)
    np.testing.assert_allclose(hi, 0.8)
    d_const = InitialDatum(kind="constant", center=np.zeros(4), width=1.0)
    assert d_const.support_bounds() is None
    assert not d_const.has_compact_support
    z = np.zeros((3, 4))
    z[1, 2] = np.nan  # a NaN row reads 0 for every kind
    np.testing.assert_array_equal(d_const.evaluate(z), [1.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        d_bump.evaluate(np.zeros((3, 5)))


@pytest.mark.parametrize("kind", ["bump", "clipped_polynomial"])
def test_initial_datum_lipschitz_bound_holds(kind):
    datum = InitialDatum(kind=kind, center=np.zeros(4), width=np.array([0.5, 0.8, 1.0, 1.3]))
    lip = datum.lipschitz_bound()
    rng = np.random.default_rng(3)
    z1 = rng.uniform(-2, 2, size=(4000, 4))
    z2 = z1 + rng.normal(scale=0.05, size=z1.shape)
    gap = np.abs(datum.evaluate(z1) - datum.evaluate(z2))
    dist = np.linalg.norm(z1 - z2, axis=1)
    assert np.all(gap <= lip * dist * (1 + 1e-12))


@pytest.mark.parametrize("kind", ["bump", "clipped_polynomial"])
def test_initial_datum_evaluates_support_rows_as_every_entry_formula_bitwise(kind):
    center = np.array([0.3, -0.2, 0.1, 0.7])
    width = np.array([0.5, 0.8, 1.0, 1.3])
    datum = InitialDatum(kind=kind, center=center, width=width)

    def every_entry(z):
        u = (z - center) / width
        if kind == "bump":
            axis = bump(u)
        else:
            axis = np.maximum(0.0, 1.0 - u * u) ** 2
        return np.prod(axis, axis=1)

    lo, hi = datum.support_bounds()
    rng = np.random.default_rng(5)
    inner = center + 0.5 * (hi - center) * rng.uniform(-1.0, 1.0, size=(40, 4))
    # rows on a support edge and one ulp inside it, one axis at a time
    edges = []
    for k in range(4):
        for bound in (lo[k], hi[k], np.nextafter(lo[k], hi[k]), np.nextafter(hi[k], lo[k])):
            row = inner[k].copy()
            row[k] = bound
            edges.append(row)
    z = np.concatenate([rng.uniform(lo - 0.3, hi + 0.3, size=(4000, 4)), inner, edges])
    got = datum.evaluate(z)
    assert got.tobytes() == every_entry(z).tobytes()
    assert 0 < np.count_nonzero(got) < got.size
    nan_rows = z[:8].copy()
    nan_rows[np.arange(8), np.arange(8) % 4] = np.nan
    assert np.all(datum.evaluate(nan_rows) == 0.0)
    assert datum.evaluate(np.empty((0, 4))).shape == (0,)


@pytest.mark.parametrize("kind", ["bump", "clipped_polynomial"])
def test_initial_datum_temporaries_are_a_few_vectors_over_the_rows(kind):
    # the product is taken one axis factor at a time, so no (rows, 2 n d)
    # block is built: in the renormalization suite's box, where 23% of the
    # rows lie in the support, the peak is near 23 B a row
    z = PhaseBox.centered(2, 2, 1.2, 1.2).sample(np.random.default_rng(1), 100_000)
    datum = InitialDatum(kind=kind, center=np.zeros(8), width=1.0)
    tracemalloc.start()
    try:
        datum.evaluate(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * z.shape[0]


def test_profile_prime_constants_are_sharp_bounds():
    u = np.linspace(-1.0, 1.0, 2_000_001)
    grid_max = np.max(np.abs(bump_pair(u)[1]))
    assert grid_max <= MAX_ABS_BUMP_PRIME + 1e-12
    assert grid_max > MAX_ABS_BUMP_PRIME - 1e-5
    # clipped polynomial (1 - u^2)^2 has derivative extrema at u = 1/sqrt(3)
    poly_exact = 8.0 / (3.0 * math.sqrt(3.0))
    assert MAX_ABS_POLY_PRIME == pytest.approx(poly_exact, rel=1e-12)


# ---------------------------------------------------------------------------
# ensembles


def test_sample_ensemble_invariants():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e = sample_ensemble(box, 4000, datum, seed=7)
    # the t = 0 sample only: flows return their states as arrays
    assert [f.name for f in fields(Ensemble)] == ["x", "v", "values", "box", "datum"]
    assert e.size == 4000
    assert e.weight == box.volume / e.size
    assert e.weight * e.size == pytest.approx(box.volume, rel=1e-15)
    assert e.with_values(2.0 * e.values).weight == e.weight
    np.testing.assert_array_equal(e.values, datum.evaluate(e.phase_flat()))
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


REACH_CASES = {
    "free": (free_potential(2), IntegratorConfig(dt=1e-2)),
    "harmonic": (harmonic(2), IntegratorConfig(dt=1e-2)),
    "repulsive_fixed": (repulsive_power(2, exponent=1.0), IntegratorConfig(dt=1e-2)),
    "repulsive_adaptive": (
        repulsive_power(2, exponent=1.0), IntegratorConfig(dt=1e-2, adaptive=True)
    ),
    "gaussian_well": (gaussian_well(2, depth=1.3, width=0.8), IntegratorConfig(dt=1e-2)),
    "piecewise_radial": (piecewise_radial(2, 0.8, -0.6, 0.4), IntegratorConfig(dt=1e-2)),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("damping", [1.0, 0.99])
# 7 steps and a remainder step, and 15 steps
@pytest.mark.parametrize("t", [0.075, -0.075, 0.15, -0.15])
@pytest.mark.parametrize("case", list(REACH_CASES))
def test_may_reach_rules_out_only_rows_that_stay_outside(case, t, damping, n):
    # every row is flowed anyway: a row ruled out must start and end
    # outside supp phi, unflagged
    pot, icfg = REACH_CASES[case]
    icfg = replace(icfg, velocity_damping=damping)
    box = PhaseBox.centered(2, n, 1.5, 1.5)
    rng = np.random.default_rng(17)
    phi = random_test_function(2, n, box, t_center=0.0, t_width=1.0, rng=rng)
    z = box.sample(rng, 4000)
    x, v = z[:, : 2 * n].reshape(-1, n, 2), z[:, 2 * n :].reshape(-1, n, 2)
    reach = may_reach(phi, x, v, pot, t, icfg)
    assert reach.dtype == bool and reach.shape == (4000,)
    out = ~reach
    assert 0 < np.count_nonzero(out) < 4000
    x1, v1, flags = flow_batch(x, v, pot, t, icfg)
    assert np.all(flags[out] == FLAG_OK)
    assert not phi.support_mask(0.0, x[out], v[out]).any()
    assert not phi.support_mask(0.0, x1[out], v1[out]).any()


def _textbook_may_reach(phi, x, v, potential, t, icfg):
    """may_reach's bound on (n d, N) arrays of all the rows at once."""
    X, V = np.moveaxis(x, 0, -1), np.moveaxis(v, 0, -1)
    n, d, N = X.shape
    nd = n * d
    pos, vel = X.reshape(nd, N), V.reshape(nd, N)
    tau = abs(t)
    centers, widths = phi.centers[:, None], phi.widths[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n > 1:
            radii = np.stack(
                [np.sqrt(np.sum((X[i] - X[j]) ** 2, axis=0))
                 for i in range(n) for j in range(i + 1, n)]
            )
            dmin, dmax = radii.min(axis=0), radii.max(axis=0)
            force = (n - 1) * potential.force_bound(0.5 * dmin, 2.0 * dmax + 1.0)
        else:
            dmin, force = np.full(N, np.inf), np.zeros(N)
        speed = np.sqrt(np.max(np.sum(V * V, axis=1), axis=0))
        spread = 0.5 * tau * tau * force
        safe = (
            np.isfinite(pos).all(axis=0) & np.isfinite(speed) & np.isfinite(force)
            & (2.0 * tau * speed + 2.0 * spread <= 0.5 * dmin)
            & (0.5 * dmin > dynamics.COINCIDENCE_THRESHOLD)
        )
        if icfg.adaptive:
            shortest = icfg.dt * np.minimum(1.0, (0.5 * dmin / dynamics.REFERENCE_DISTANCE) ** 1.5)
            safe &= tau / shortest + 2.0 <= dynamics.MAX_SUBSTEPS
        half_drift = 0.5 * t * vel
        pos_gap = np.abs(pos + half_drift - centers[:nd]) - np.abs(half_drift) - widths[:nd]
        if icfg.velocity_damping == 1.0:
            vel_gap = np.abs(vel - centers[nd:]) - widths[nd:]
        else:
            vel_gap = np.abs(0.5 * vel - centers[nd:]) - 0.5 * np.abs(vel) - widths[nd:]
        scale = (
            np.max(np.abs(pos), axis=0) + np.max(np.abs(vel), axis=0) * (1.0 + tau)
            + spread + tau * force + float(np.max(np.abs(phi.centers) + phi.widths))
        )
        pad = transport.REACH_SLACK * scale
        misses = (np.max(pos_gap, axis=0) >= spread + pad) | (
            np.max(vel_gap, axis=0) >= tau * force + pad
        )
        return ~(safe & misses)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("damping", [1.0, 0.99])
@pytest.mark.parametrize("case", ["harmonic", "repulsive_adaptive", "gaussian_well"])
def test_may_reach_folds_the_axes_bitwise_as_the_whole_array_formula(case, damping, n, monkeypatch):
    # the gaps and coordinates are folded one axis at a time, in blocks of
    # 700 rows here: the mask is that of the formula on (n d, N) arrays,
    # rows with NaN and infinite coordinates included
    pot, icfg = REACH_CASES[case]
    icfg = replace(icfg, velocity_damping=damping)
    box = PhaseBox.centered(2, n, 1.5, 1.5)
    rng = np.random.default_rng(23)
    phi = random_test_function(2, n, box, t_center=0.0, t_width=1.0, rng=rng)
    z = box.sample(rng, 2000)
    x, v = z[:, : 2 * n].reshape(-1, n, 2), z[:, 2 * n :].reshape(-1, n, 2)
    x[5, 0, 1], v[9, -1, 0], x[11, -1, 0] = np.nan, np.inf, -np.inf
    monkeypatch.setattr(transport, "SAMPLE_BLOCK", 700)
    for t in (0.075, -0.15):
        want = _textbook_may_reach(phi, x, v, pot, t, icfg)
        assert 0 < np.count_nonzero(want) < 2000 and want[[5, 9, 11]].all()
        np.testing.assert_array_equal(may_reach(phi, x, v, pot, t, icfg), want)


def test_may_reach_keeps_rows_it_cannot_bound(monkeypatch):
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    rng = np.random.default_rng(3)
    phi = random_test_function(2, 2, box, t_center=0.0, t_width=1.0, rng=rng)
    z = box.sample(rng, 500)
    x, v = z[:, :4].reshape(-1, 2, 2), z[:, 4:].reshape(-1, 2, 2)
    icfg = IntegratorConfig(dt=1e-2)
    assert not may_reach(phi, x, v, harmonic(2), 0.05, icfg).all()
    # a mollified potential has no force bound
    base = repulsive_power(2, exponent=1.0)
    mollified = MollifiedPotential(base, MollifierKernel(d=2, power=3), ShrinkFunction(), 2)
    assert may_reach(phi, x, v, mollified, 0.05, icfg).all()
    # NaN or infinite coordinates
    x[0, 0, 0], v[1, 1, 1] = np.nan, np.inf
    assert may_reach(phi, x, v, harmonic(2), 0.05, icfg)[:2].all()
    # a resting pair inside the coincidence threshold, which a stepped
    # (damped) free flow flags
    x[2, 1], v[2] = x[2, 0] + 1e-13, 0.0
    damped = IntegratorConfig(dt=1e-2, velocity_damping=0.99)
    assert flow_batch(x[2:3], v[2:3], free_potential(2), 0.05, damped)[2][0] != FLAG_OK
    assert may_reach(phi, x[2:3], v[2:3], free_potential(2), 0.05, damped)[0]
    # an adaptive flow whose steps would overrun its budget
    monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 6)
    tight = IntegratorConfig(dt=1e-2, adaptive=True)
    assert may_reach(phi, x[3:], v[3:], base, 0.05, tight).all()


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
    val, dt_got, grads = phi._derivatives(t, _phase_block(x, v, np.arange(x.shape[0])))
    gx, gv = (np.moveaxis(g.reshape(2, 2, -1), -1, 0) for g in (grads[:4], grads[4:]))
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


def _batch_views(x, v, spare=5):
    """(m, n, d) views of component-major copies of x and v, as an
    observer sees the live rows of a flow: each component one contiguous
    vector, in buffers with room for `spare` more rows."""
    views = []
    for a in (x, v):
        buf = np.full(a.shape[1:] + (a.shape[0] + spare,), 7.0)
        buf[..., : a.shape[0]] = np.moveaxis(a, 0, -1)
        views.append(np.moveaxis(buf[..., : a.shape[0]], -1, 0))
    return views


def _edge_rows(phi, x, v):
    """Rows exactly on |z_k - c_k| == w_k and NaN rows, in place."""
    nd = phi.n * phi.d
    x[:10, -1, 0] = phi.centers[nd - phi.d] + phi.widths[nd - phi.d]
    v[10:20, 0, -1] = phi.centers[nd + phi.d - 1] - phi.widths[nd + phi.d - 1]
    x[20, 0, 0] = np.nan
    v[21, -1, -1] = np.nan


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 3)])
def test_support_mask_on_batch_views_equals_the_row_major_reference(n, d):
    rng = np.random.default_rng(17)
    phi = random_test_function(d, n, PhaseBox.centered(d, n, 1.0, 1.0), 0.5, 0.4, rng)
    N = 3000
    x = rng.uniform(-1.0, 1.0, size=(N, n, d))
    v = rng.uniform(-1.0, 1.0, size=(N, n, d))
    _edge_rows(phi, x, v)
    z = np.concatenate([x.reshape(N, -1), v.reshape(N, -1)], axis=1)
    inside = np.all(np.abs(z - phi.centers) < phi.widths, axis=1)
    assert not inside[:22].any() and 0 < np.count_nonzero(inside) < N
    xv, vv = _batch_views(x, v)
    assert xv[:, 0, 0].flags.c_contiguous
    # the window is open, |t - t_center| == t_width lies outside it
    for t, want in ((0.5, inside), (0.85, inside), (0.9, False), (0.1, False), (2.0, False)):
        for args in ((x, v), (xv, vv)):
            got = phi.support_mask(t, *args)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, np.broadcast_to(want, (N,)))
    for args in ((x[:0], v[:0]), (xv[:0], vv[:0])):
        assert phi.support_mask(0.5, *args).shape == (0,)


def _pairing_row_major(phi, t, x, v, acc):
    """The transport pairing on (N, 2 n d) rows, with cumulative products
    along each row: the row-major form of TestFunction.transport_pairing."""
    N, nd = x.shape[0], phi.n * phi.d
    z = np.concatenate([x.reshape(N, nd), v.reshape(N, nd)], axis=1)
    ut = np.asarray((t - phi.t_center) / phi.t_width)
    tval, tprime = (float(b) for b in bump_pair(ut))
    tprime /= phi.t_width
    u = (z - phi.centers) / phi.widths
    bvals, bprime = bump_pair(u)
    bprime = bprime / phi.widths
    m = bvals.shape[1]
    prefix = np.ones((N, m + 1))
    np.cumprod(bvals, axis=1, out=prefix[:, 1:])
    suffix = np.ones((N, m + 1))
    np.cumprod(bvals[:, ::-1], axis=1, out=suffix[:, 1:])
    space = np.prod(bvals, axis=1)
    grads = tval * bprime * (prefix[:, :m] * suffix[:, ::-1][:, 1:])
    gx = grads[:, :nd].reshape(x.shape)
    gv = grads[:, nd:].reshape(x.shape)
    pairing = tprime * space + np.sum(v * gx, axis=(1, 2)) + np.sum(acc * gv, axis=(1, 2))
    return tval * space, tprime * space, gx, gv, pairing


# n d < 8, where numpy sums the components of a row left to right
@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_pairing_on_support_rows_of_batch_views_equals_row_major_bitwise(n, d):
    rng = np.random.default_rng(23)
    phi = random_test_function(d, n, PhaseBox.centered(d, n, 1.0, 1.0), 0.5, 0.4, rng)
    N = 2000
    x, v, acc = (rng.uniform(-1.0, 1.0, size=(N, n, d)) for _ in range(3))
    _edge_rows(phi, x, v)
    xv, vv = _batch_views(x, v)
    av, _ = _batch_views(acc, acc)
    for t in (0.3, 0.5, 0.8):
        cols = np.flatnonzero(phi.support_mask(t, xv, vv))
        assert 0 < cols.size < N
        want = _pairing_row_major(phi, t, x[cols], v[cols], acc[cols])
        np.testing.assert_array_equal(phi.transport_pairing(t, xv, vv, av, cols), want[4])
        every = np.arange(cols.size)
        np.testing.assert_array_equal(
            phi.transport_pairing(t, x[cols], v[cols], acc[cols], every), want[4]
        )
        val, dt_got, grads = phi._derivatives(t, _phase_block(xv, vv, cols))
        gx, gv = (np.moveaxis(g.reshape(n, d, -1), -1, 0) for g in (grads[:n * d], grads[n * d:]))
        for got, ref in zip((val, dt_got, gx, gv), want[:4]):
            np.testing.assert_array_equal(got, ref)
        # phi itself, on every row (zero off the support)
        full = np.zeros(N)
        full[cols] = want[0]
        np.testing.assert_array_equal(phi.value(t, xv, vv), full)
    empty = phi.transport_pairing(0.5, xv, vv, av, np.arange(0))
    assert empty.shape == (0,)
    # a row index off the batch raises instead of reading another row
    for bad in ([N], [-N - 1], [0, N + 3]):
        with pytest.raises(IndexError):
            phi.transport_pairing(0.5, xv, vv, av, np.array(bad))


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
        truncate(values, 0.0)


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


class ZeroForce:
    """A stepped pair potential without forces: rows drift as x + k dt v,
    one Verlet step at a time."""

    kind = "zero_force"

    def gradient_batch(self, r, radii=None):
        return np.zeros_like(r)


def test_simpson_walk_integrates_cubics_in_time_exactly():
    # 4 m + 1 nodes, so that every other node is the half-resolution grid
    nodes = transport.RESIDUAL_NODES
    assert (nodes - 1) % 4 == 0
    rng = np.random.default_rng(5)
    x, v = rng.uniform(-1.0, 1.0, (2, 40, 2, 2))
    a, b = 0.05, 0.95
    seen = []

    def cubic(k, t, batch):
        # along the free flow x_11(t) = x_11 + t v_11, so each row's terms
        # are the cubic t^3 - 2 t^2 + t x_11 + t^2 v_11 and their double
        seen.append((k, t))
        p = t**3 - 2.0 * t**2 + t * batch.X[0, 0]
        return None, np.stack((p, 2.0 * p))

    (xe, ve, flags), full, half = simpson_walk(
        x, v, free_potential(2), (a, b), nodes, IntegratorConfig(dt=1e-2), cubic
    )
    assert seen == list(enumerate(np.linspace(a, b, nodes)))
    # the drift leg by leg, x + (t_k - t_{k-1}) v, rounds at each leg
    np.testing.assert_allclose(xe, x + b * v, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(flags, 0)
    exact = (
        (b**4 - a**4) / 4.0 - 2.0 * (b**3 - a**3) / 3.0
        + (b**2 - a**2) / 2.0 * x[:, 0, 0] + (b**3 - a**3) / 3.0 * v[:, 0, 0]
    )
    assert full.shape == half.shape == (40, 2)
    np.testing.assert_allclose(full, np.stack((exact, 2.0 * exact), axis=1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(full - half, 0.0, rtol=0, atol=1e-14)


def test_simpson_walk_zeroes_a_row_flagged_mid_walk():
    # row 1's particles meet at the origin at t = 0.5, node 4 of 9; rows 0
    # and 2 pass each other 1 apart
    x = np.array([[[-0.25, 0.5], [0.25, -0.5]], [[-0.25, 0.0], [0.25, 0.0]],
                  [[0.5, -0.25], [-0.5, 0.25]]])
    v = np.array([[[0.5, 0.0], [-0.5, 0.0]], [[0.5, 0.0], [-0.5, 0.0]],
                  [[0.0, 0.5], [0.0, -0.5]]])
    rows_seen = []

    def ones(k, t, batch):
        rows_seen.append(batch.m)
        return None, np.ones(batch.m)

    (_, _, flags), full, half = simpson_walk(
        x, v, ZeroForce(), (0.0, 1.0), 9, IntegratorConfig(dt=0.125), ones
    )
    assert rows_seen == [3] * 4 + [2] * 5
    assert list(flags) == [FLAG_OK, FLAG_SINGULAR, FLAG_OK]
    # the flagged row summed four nodes before it retired, and reads 0
    assert (full[1], half[1]) == (0.0, 0.0)
    np.testing.assert_allclose(full[[0, 2]], 1.0, rtol=1e-15)
    np.testing.assert_allclose(half[[0, 2]], 1.0, rtol=1e-15)


@pytest.mark.parametrize(
    "potential, icfg, budget",
    [
        (harmonic(2), IntegratorConfig(dt=1e-2), None),
        # adaptive legs park and retire rows; 4 substeps a leg flag 17 of 300
        (repulsive_power(2, exponent=1.0), IntegratorConfig(dt=1e-2, adaptive=True), 4),
    ],
    ids=["harmonic", "repulsive_adaptive"],
)
def test_simpson_walk_end_state_is_the_paused_flow_bitwise(potential, icfg, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", budget)
    rng = np.random.default_rng(7)
    x, v = rng.uniform(-1.0, 1.0, (2, 300, 2, 2))
    window, nodes = (0.02, 0.34), 17
    end, full, half = simpson_walk(
        x, v, potential, window, nodes, icfg, lambda k, t, batch: (None, batch.X[0, 0])
    )
    want = flow_batch(x, v, potential, window[1], icfg, stops=np.linspace(*window, nodes))
    for got, ref in zip(end, want):
        np.testing.assert_array_equal(got, ref)
    flagged = end[2] != FLAG_OK
    if icfg.adaptive:
        assert 0 < np.count_nonzero(flagged) < 30
    else:
        assert not flagged.any()
    assert np.all(full[flagged] == 0.0) and np.all(half[flagged] == 0.0)
    assert np.all(full[~flagged] != 0.0)


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
    (est,) = weak_residual_suite(e, free_potential(2), phi, [None], IntegratorConfig(dt=1e-2))
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
    (est,) = weak_residual_suite(
        e, free_potential(2), phi, [None], IntegratorConfig(dt=1e-2),
        time_factor=lambda t: 1.0 + 6.0 * (t - a),
    )
    assert abs(est.estimate) > 3.0 * est.std_error


def test_weak_residual_suite_takes_several_value_maps_in_one_pass():
    _, _, e, phi = free_setup()
    tanh = tanh_squash(1.0)
    ident, squashed = weak_residual_suite(
        e, free_potential(2), phi, [None, tanh], IntegratorConfig(dt=1e-2),
    )
    for est in (ident, squashed):
        assert abs(est.estimate) <= 3.0 * est.std_error
    assert squashed.estimate != ident.estimate


def test_weak_residual_suite_time_validation():
    _, _, e, phi = free_setup(count=100)
    pot, icfg = free_potential(2), IntegratorConfig(dt=1e-2)
    ended = replace(phi, t_center=-1.0, t_width=0.5)
    with pytest.raises(DomainError, match="ends before t = 0"):
        weak_residual_suite(e, pot, ended, [None], icfg)


def test_weak_residual_suite_flows_only_rows_carrying_mass(monkeypatch):
    _, _, e, phi = free_setup()
    e = e.with_values(np.where(np.arange(e.size) % 3 == 0, 0.0, e.values))
    pot, icfg = harmonic(2, 1.0), IntegratorConfig(dt=1e-2)

    # the every-row reference: one walk over all rows, the pairing of each
    # node's forces on its support rows, weighted by the carried values
    def pairing(k, t, batch):
        x, v, forces = (np.moveaxis(arr, -1, 0) for arr in (batch.X, batch.V, batch.A))
        cols = np.flatnonzero(phi.support_mask(t, x, v))
        return cols, phi.transport_pairing(t, x, v, forces, cols)

    (_, _, flags), acc, _ = simpson_walk(
        e.x, e.v, pot, residual_window(phi), transport.RESIDUAL_NODES, icfg, pairing
    )
    xi = np.where(flags == FLAG_OK, e.weight * (e.values * acc), 0.0)
    assert np.count_nonzero(xi) > 0
    flowed = []
    flow = transport.flow_batch
    monkeypatch.setattr(
        transport, "flow_batch", lambda x, *a, **k: flowed.append(len(x)) or flow(x, *a, **k)
    )
    (got,) = weak_residual_suite(e, pot, phi, [None], icfg)
    assert flowed == [np.count_nonzero(e.values)] and flowed[0] < e.size
    assert got.sample_count == e.size
    assert got.estimate == np.sum(xi)
    assert got.details["mc_std_error"] == MCEstimate.from_samples(xi).std_error
    assert got.bias_bound == transport.DT_BIAS_COEFFICIENT * icfg.dt**2 * np.sum(np.abs(xi))


def test_weak_residual_suite_hands_time_factor_the_node_times():
    _, _, e, phi = free_setup()
    early = replace(phi, t_center=0.2)  # window [0, 0.65]: a t = 0 boundary term
    seen, weighed = [], []

    def factor(t):
        seen.append(t)
        return 2.0

    def weigh(f):
        weighed.append(f.copy())
        return f

    (est,) = weak_residual_suite(
        e, free_potential(2), early, [weigh], IntegratorConfig(dt=1e-2), time_factor=factor
    )
    # one call per Simpson node, in order, whether or not a row is inside,
    # then one for the t = 0 boundary term
    nodes = np.linspace(*residual_window(early), transport.RESIDUAL_NODES)
    assert seen == list(nodes) + [0.0]
    assert seen[0] == 0.0
    # a value map is checked on 0 first, then evaluated once, on the
    # carried values only
    assert len(weighed) == 2
    assert np.array_equal(weighed[0], np.zeros(1))
    assert np.array_equal(weighed[1], e.values[e.values != 0.0])
    # a factor of 2 doubles every term, the t = 0 boundary term included,
    # and so the estimate, exactly
    (ident,) = weak_residual_suite(
        e, free_potential(2), early, [None], IntegratorConfig(dt=1e-2)
    )
    assert est.estimate == 2.0 * ident.estimate != 0.0


def test_weak_residual_suite_requires_maps_fixing_zero():
    # only the carried rows are flowed, which is the formula only if every
    # map sends 0 to 0; each offending map is named
    _, _, e, phi = free_setup(count=100)
    pot, icfg = free_potential(2), IntegratorConfig(dt=1e-2)
    shifted = BetaFunction(name="shifted_tanh", fn=lambda f: np.tanh(f) + 0.1)

    def plus_one(f):
        return f + 1.0

    with pytest.raises(DomainError, match=r"shifted_tanh.*plus_one"):
        weak_residual_suite(e, pot, phi, [None, tanh_squash(1.0), shifted, plus_one], icfg)
    with pytest.raises(DomainError, match="do not map 0 to 0"):
        weak_residual_suite(e, pot, phi, [lambda f: f + 1], icfg)


def test_weak_residual_rejects_non_compact_datum():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="constant", center=np.zeros(8), width=1.0)
    e = sample_ensemble(box, 100, datum, seed=1)
    with pytest.raises(CoverageError):
        weak_residual_suite(e, free_potential(2), make_phi(), [None], IntegratorConfig(dt=1e-2))


def test_weak_residual_rejects_datum_leaking_out_of_box():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.full(8, 1.0), width=0.8)
    e = sample_ensemble(box, 100, datum, seed=1)
    with pytest.raises(CoverageError):
        weak_residual_suite(e, free_potential(2), make_phi(), [None], IntegratorConfig(dt=1e-2))


def test_weak_residual_rejects_collision_adjacent_support_when_confining():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e = sample_ensemble(box, 100, datum, seed=1)
    pot = repulsive_power(2, exponent=1.0)  # confining in d = 2
    phi = make_phi()  # particle supports overlap: pair distance 0
    with pytest.raises(CoverageError, match="collision margin"):
        weak_residual_suite(e, pot, phi, [None], IntegratorConfig(dt=1e-3))


# ---------------------------------------------------------------------------
# collision boundary term


class _Values:
    """A stand-in datum whose f0 reads the given values row by row."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def evaluate(self, z):
        return self.values[: z.shape[0]].copy()


def test_collision_boundary_term_hand_computed(monkeypatch):
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
    # the three rows are the whole (box, seed) sample, drawn as one block
    z = np.concatenate([x.reshape(3, 4), v.reshape(3, 4)], axis=1)
    monkeypatch.setattr(transport, "_draw", lambda box, count, seed, block: iter([(0, z.copy())]))
    datum = _Values([0.5, 1.0, -1.0])
    est, wide = collision_boundary_term(box, 3, datum, 0, [0.5, 1.0])
    # w (0.5 * 1.0 + 1.0 * 3.0) / 0.5 with w = vol / 3 = 4^8 / 3
    assert est.estimate == pytest.approx(4.0**8 / 3.0 * (0.5 + 3.0) / 0.5)
    assert est.sample_count == 2
    assert est.details == {"mu": 0.5, "hit_fraction": pytest.approx(2.0 / 3.0)}
    # mu = 1 takes in the second row too
    assert wide.estimate == pytest.approx(4.0**8 / 3.0 * (0.5 + 2.0 + 3.0))
    assert wide.sample_count == 3
    for mus in ([0.5, 0.0], [float("nan")]):
        with pytest.raises(DomainError, match="must be positive"):
            collision_boundary_term(box, 3, datum, 0, mus)
    with pytest.raises(DomainError, match="two particles"):
        collision_boundary_term(PhaseBox.centered(2, 1, 2.0, 2.0), 3, datum, 0, [0.5])


def _textbook_collision_term(e, mus):
    """The collision term of particles 1 and 2 of e, radius by radius."""
    rel_x = np.linalg.norm(e.x[:, 0, :] - e.x[:, 1, :], axis=-1)
    rel_v = np.linalg.norm(e.v[:, 0, :] - e.v[:, 1, :], axis=-1)
    out = []
    for mu in mus:
        inside = rel_x <= mu
        xi = np.where(inside, e.weight * np.abs(e.values) * rel_v / mu, 0.0)
        out.append(MCEstimate(
            estimate=float(np.sum(xi)),
            std_error=float(np.std(xi, ddof=1) * math.sqrt(e.size)),
            sample_count=int(np.sum(inside)),
            details={"mu": mu, "hit_fraction": float(np.mean(inside))},
        ))
    return out


def _hex_estimate(est):
    details = {k: v.hex() if isinstance(v, float) else v for k, v in est.details.items()}
    return est.estimate.hex(), est.std_error.hex(), est.bias_bound.hex(), est.sample_count, details


def test_sample_and_collision_term_are_bitwise_the_textbook_formulas():
    # the box is scaled into the drawn buffer in place
    lows = np.array([-1.3, -0.2, 0.5, -2.0, -0.7, 0.1, -3.0, 1.0])
    widths = np.array([2.1, 0.4, 1.7, 3.3, 1.1, 0.9, 5.0, 0.3])
    box = PhaseBox(lows=lows, highs=lows + widths, d=2, n=2)
    u = np.random.default_rng(7).random((1000, 8))
    textbook = box.lows + u * (box.highs - box.lows)
    assert np.array_equal(box.sample(np.random.default_rng(7), 1000), textbook)
    # drawn in blocks, the rows are those of one draw
    blocks = [z for _, z in transport._draw(box, 1000, 7, 300)]
    assert [z.shape[0] for z in blocks] == [300, 300, 300, 100]
    e = sample_ensemble(box, 1000, InitialDatum(kind="constant", center=np.zeros(8), width=1.0), 7)
    assert np.array_equal(np.concatenate(blocks), e.phase_flat())
    with pytest.raises(DomainError, match=">= 1"):
        transport._draw(box, 0, 7, 300)
    # one sweep over the radii of an n = 3 sample, radius by radius
    # against the per-radius formula
    box = PhaseBox.centered(3, 3, 1.0, 1.0)
    datum = InitialDatum(kind="bump", center=np.zeros(18), width=0.9)
    mus = (0.8, 0.4, 0.2)
    sweep = collision_boundary_term(box, 2000, datum, 5, mus)
    want = _textbook_collision_term(sample_ensemble(box, 2000, datum, seed=5), mus)
    assert [_hex_estimate(est) for est in sweep] == [_hex_estimate(est) for est in want]
    assert all(est.sample_count > 0 for est in sweep)


@pytest.mark.parametrize("kind", ["bump", "constant"])
@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize(
    "count",
    [transport.SAMPLE_BLOCK // 3, 2 * transport.SAMPLE_BLOCK, 2 * transport.SAMPLE_BLOCK + 1234],
    ids=["below-one-block", "two-blocks", "remainder"],
)
def test_collision_term_in_blocks_is_the_formula_over_the_sample(count, n, d, kind):
    # drawn and reduced block by block, the term is bitwise the formula
    # over the ensemble that sample_ensemble draws from the same stream
    box = PhaseBox.centered(d, n, 1.0, 1.0)
    datum = InitialDatum(kind=kind, center=np.zeros(2 * n * d), width=0.9)
    mus = (0.8, 0.4, 0.2)
    sweep = collision_boundary_term(box, count, datum, 5, mus)
    want = _textbook_collision_term(sample_ensemble(box, count, datum, seed=5), mus)
    assert [_hex_estimate(est) for est in sweep] == [_hex_estimate(est) for est in want]
    assert all(est.sample_count > 0 for est in sweep)


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

    pot, coarse = (
        MollifiedPotential(base, MollifierKernel(d=2, power=3), ShrinkFunction(), level)
        for level in (4, 3)
    )
    # criterion 4's box and datum, so that about a quarter of the rows
    # carry a nonzero f0 and h can differ from 0
    box = PhaseBox.centered(2, 2, 1.2, 1.2)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
    e0 = sample_ensemble(box, 400, datum, seed=21)
    icfg = IntegratorConfig(dt=2e-3)
    beta = nonneg_squash(0.5)
    times = [0.1, 0.2, 0.3]

    def reference(back_pot):
        """One flow_batch call per leg, and from each snapshot one
        backward flow to t = 0, where f0 is read off: the (x, v, h, flags)
        of every snapshot and the round-trip displacements."""
        legs, disps = [], []
        x, v, flags, now = e0.x, e0.v, np.zeros(e0.size, dtype=np.int8), 0.0
        for tk in times:
            x, v, leg_flags = flow_batch(x, v, pot, tk - now, icfg)
            flags, now = np.maximum(flags, leg_flags), tk
            back_x, back_v, back_flags = flow_batch(x, v, back_pot, -tk, icfg)
            z = transport._flatten_phase(back_x, back_v)
            legs.append((x, v, beta(e0.values - datum.evaluate(z)), np.maximum(flags, back_flags)))
            disps.append(np.sqrt(np.sum((z - e0.phase_flat()) ** 2, axis=1)))
        return legs, disps

    expected = {back: reference(back) for back in (pot, coarse)}
    calls = []
    flow = transport.flow_batch

    def counted_flow(*args, **kwargs):
        calls.append(args[3])
        return flow(*args, **kwargs)

    monkeypatch.setattr(transport, "flow_batch", counted_flow)
    for back, (legs, ref_disps) in expected.items():
        calls.clear()
        series, disps = level_difference_series(e0, pot, back, beta, times, icfg)
        # one forward flow pausing at every snapshot, and one backward flow
        # of every snapshot stacked, each row with the time of its snapshot
        assert len(calls) == 2 and calls[0] == 0.3
        np.testing.assert_array_equal(calls[1], np.repeat([-0.1, -0.2, -0.3], e0.size))
        assert len(series) == 3 and len(disps) == 3
        # each snapshot is the arrays (x, v, h, flags), bitwise the reference
        for snapshot, reference_snapshot in zip(series, legs):
            assert len(snapshot) == 4
            for got, want in zip(snapshot, reference_snapshot):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        for got, want in zip(disps, ref_disps):
            np.testing.assert_array_equal(got, want)
    # identical levels retrace to roundoff under the reversible stepper, so
    # h stays below criterion 4's 1e-20; a coarser backward level leaves a
    # gap on every carried row
    same, other = ([snapshot[2] for snapshot in legs] for legs, _ in expected.values())
    assert max(float(np.max(h)) for h in same) < 1e-20
    assert all(np.count_nonzero(h) > 0.9 * np.count_nonzero(e0.values) for h in other)
    assert max(float(np.max(d)) for d in expected[pot][1]) < 1e-12


def test_level_difference_series_requires_datum():
    box = PhaseBox.centered(2, 2, 1.5, 1.5)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=0.8)
    e0 = sample_ensemble(box, 10, datum, seed=21)
    stripped = replace(e0, datum=None)
    with pytest.raises(DomainError):
        level_difference_series(
            stripped, free_potential(2), free_potential(2), nonneg_squash(0.5), [0.1],
            IntegratorConfig(dt=1e-2),
        )
