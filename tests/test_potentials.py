import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_lab import dynamics, potentials
from liouville_lab.errors import DomainError, QuadratureError, SingularityError
from liouville_lab.potentials import (
    CONFINING_AT_ZERO,
    L1_SINGULAR_GRADIENT,
    QUADRATURE_ORDER,
    SMOOTH,
    TABLE_RTOL,
    MollifiedPotential,
    MollifierKernel,
    ShrinkFunction,
    ball_nodes,
    free_potential,
    gaussian_well,
    gradient_l1_error,
    harmonic,
    mollified_potential,
    piecewise_radial,
    repulsive_power,
)


# ---------------------------------------------------------------------------
# base potentials


def test_factory_classification():
    assert free_potential(2).singularity_class == SMOOTH
    assert harmonic(3).singularity_class == SMOOTH
    assert gaussian_well(2).singularity_class == SMOOTH
    assert repulsive_power(3, exponent=1.0).singularity_class == L1_SINGULAR_GRADIENT
    assert repulsive_power(3, exponent=2.5).singularity_class == CONFINING_AT_ZERO
    # the class is derived: a gradient that is not locally integrable confines
    assert repulsive_power(2, exponent=1.5).singularity_class == CONFINING_AT_ZERO
    assert piecewise_radial(2, 1.0, -0.5, 0.5).singularity_class == L1_SINGULAR_GRADIENT


@pytest.mark.parametrize(
    "factory, direct, message",
    [
        (lambda: harmonic(2, strength=-1.0), dict(kind="harmonic", strength=-2.0), "strength"),
        (lambda: harmonic(2, strength=0.0), dict(kind="harmonic", strength=0.0), "strength"),
        (
            lambda: repulsive_power(2, exponent=1.0, strength=-1.0),
            dict(kind="repulsive_power", strength=-1.0),
            "exponent and strength",
        ),
        (
            lambda: repulsive_power(2, exponent=0.0),
            dict(kind="repulsive_power", exponent=0.0),
            "exponent and strength",
        ),
        (lambda: gaussian_well(2, depth=0.0), dict(kind="gaussian_well", strength=0.0), "depth"),
        (
            lambda: gaussian_well(2, width=-1.0),
            dict(kind="gaussian_well", width=-1.0),
            "depth and width",
        ),
        (
            lambda: piecewise_radial(2, jump_radius=-1.0, slope_inner=-0.5, slope_outer=0.5),
            dict(kind="piecewise_radial", jump_radius=-1.0, slope_inner=-0.5, slope_outer=0.5),
            "jump_radius",
        ),
        (
            lambda: piecewise_radial(2, jump_radius=1.0, slope_inner=0.5, slope_outer=0.5),
            dict(kind="piecewise_radial", jump_radius=1.0, slope_inner=0.5, slope_outer=0.5),
            "slopes must differ",
        ),
        # the defaults slope_inner = slope_outer = 0 give a smooth V = 0
        (
            lambda: piecewise_radial(2, 1.0, 0.0, 0.0),
            dict(kind="piecewise_radial"),
            "slopes must differ",
        ),
        # a NaN slope differs from every slope, and max(0.0, nan) is 0.0
        (
            lambda: piecewise_radial(2, jump_radius=1.0, slope_inner=float("nan"), slope_outer=0.5),
            dict(kind="piecewise_radial", slope_inner=float("nan"), slope_outer=0.5),
            "slope_inner must be finite",
        ),
        (
            lambda: piecewise_radial(2, jump_radius=1.0, slope_inner=-0.5, slope_outer=float("inf")),
            dict(kind="piecewise_radial", slope_inner=-0.5, slope_outer=float("inf")),
            "slope_outer must be finite",
        ),
    ],
    ids=[
        "harmonic_negative", "harmonic_zero", "repulsive_negative_strength",
        "repulsive_zero_exponent", "gaussian_depth", "gaussian_width",
        "piecewise_jump_radius", "piecewise_equal_slopes", "piecewise_default_slopes",
        "piecewise_nan_slope", "piecewise_infinite_slope",
    ],
)
def test_construction_refuses_what_the_factory_refuses(factory, direct, message):
    # the lower bound and the class are derived from the parameters, so
    # V = -1/|r| built directly would report C = 0 for a V with no lower bound
    with pytest.raises(DomainError, match=message):
        factory()
    with pytest.raises(DomainError, match=message):
        potentials.PairPotential(d=2, **direct)


def test_each_factory_is_the_direct_construction():
    P = potentials.PairPotential
    assert free_potential(3) == P(kind="free", d=3)
    assert harmonic(2, 1.0) == P(kind="harmonic", d=2, strength=1.0)
    assert repulsive_power(3, 2.5, 0.3) == P(
        kind="repulsive_power", d=3, exponent=2.5, strength=0.3
    )
    assert gaussian_well(2, 1.3, 0.8) == P(kind="gaussian_well", d=2, strength=1.3, width=0.8)
    assert piecewise_radial(2, 0.8, -0.6, 0.4) == P(
        kind="piecewise_radial", d=2, jump_radius=0.8, slope_inner=-0.6, slope_outer=0.4
    )


def test_unknown_kind_raises_at_construction():
    # the kind picks every formula, so an unknown one is refused up front
    with pytest.raises(DomainError, match="unknown potential kind 'cubic'"):
        potentials.PairPotential(kind="cubic", d=2)


@pytest.mark.parametrize(
    "pot",
    [
        harmonic(2, strength=0.7),
        gaussian_well(2, depth=1.3, width=0.8),
        repulsive_power(2, exponent=0.5),
        piecewise_radial(2, 0.8, -0.6, 0.4),
    ],
)
def test_gradient_matches_finite_differences(pot):
    rng = np.random.default_rng(0)
    r = rng.uniform(-1.5, 1.5, size=(64, 2))
    r = r[np.linalg.norm(r, axis=1) > 0.05]
    # keep away from the radial slope jump where V is not differentiable
    if pot.kind == "piecewise_radial":
        r = r[np.abs(np.linalg.norm(r, axis=1) - 0.8) > 0.05]
    h = 1e-6
    grad = pot.gradient_batch(r)
    for axis in range(2):
        delta = np.zeros(2)
        delta[axis] = h
        fd = (pot.value_batch(r + delta) - pot.value_batch(r - delta)) / (2 * h)
        assert np.max(np.abs(fd - grad[:, axis])) < 5e-6


def test_lower_bound_constant_bounds_value():
    for pot in [harmonic(2), gaussian_well(2, depth=1.3), piecewise_radial(2, 0.8, -0.6, 0.4)]:
        rng = np.random.default_rng(1)
        r = rng.uniform(-3, 3, size=(256, 2))
        r = r[np.linalg.norm(r, axis=1) > 1e-6]
        vals = pot.value_batch(r)
        bound = -pot.lower_bound_constant * (1.0 + np.sum(r * r, axis=1))
        assert np.all(vals >= bound - 1e-12)


FORCE_BOUND_FAMILIES = [
    free_potential(2),
    harmonic(3, strength=0.7),
    repulsive_power(2, exponent=0.5),
    repulsive_power(3, exponent=2.5, strength=0.3),
    gaussian_well(2, depth=1.3, width=0.8),
    piecewise_radial(2, 0.8, -0.6, 0.4),
]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(range(len(FORCE_BOUND_FAMILIES))),
    r_lo=st.floats(1e-3, 5.0),
    span=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_force_bound_bounds_the_gradient(family, r_lo, span, seed):
    # sup |grad V| over r_lo <= |r| <= r_hi, at random radii and directions;
    # the gaussian well's radius of largest force, its width, is always tried
    pot = FORCE_BOUND_FAMILIES[family]
    r_hi = r_lo + span
    rng = np.random.default_rng(seed)
    radii = np.append(rng.uniform(r_lo, r_hi, 256), [r_lo, r_hi, np.clip(pot.width, r_lo, r_hi)])
    directions = rng.normal(size=(radii.size, pot.d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    largest = np.max(np.linalg.norm(pot.gradient_batch(radii[:, None] * directions), axis=1))
    bound = pot.force_bound(r_lo, r_hi)
    assert bound.shape == ()
    # the norm of the rounded gradient may exceed the bound by a few ulps
    assert largest <= bound * (1.0 + 1e-12)


def test_force_bound_is_elementwise_and_mollified_bounds_nothing():
    pot = repulsive_power(2, exponent=1.0)
    lo, hi = np.array([0.5, 1.0, 2.0]), np.array([1.0, 3.0, 2.0])
    np.testing.assert_array_equal(pot.force_bound(lo, hi), lo**-2.0)
    np.testing.assert_array_equal(harmonic(2, strength=2.0).force_bound(lo, hi), 2.0 * hi)
    mollified = MollifiedPotential(pot, MollifierKernel(d=2, power=3), ShrinkFunction(), 2)
    np.testing.assert_array_equal(mollified.force_bound(lo, hi), np.full(3, np.inf))


def test_singular_value_raises_and_batch_returns_zero_gradient():
    pot = repulsive_power(2, exponent=1.0)
    with pytest.raises(SingularityError):
        pot.value(np.zeros(2))
    g = pot.gradient_batch(np.zeros((1, 2)))
    np.testing.assert_array_equal(g, 0.0)


# ---------------------------------------------------------------------------
# mollification machinery


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_mass_normalization(d):
    # the analytic normalization makes the kernel a probability density
    # under the ball rule of the batch evaluations
    kernel = MollifierKernel(d=d, power=3)
    nodes, weights = ball_nodes(d, QUADRATURE_ORDER)
    total = float(np.sum(weights * kernel.profile(nodes)))
    assert abs(total - 1.0) < 1e-10


def test_ball_nodes_integrate_kernel_exactly():
    kernel = MollifierKernel(d=2, power=3)
    nodes, weights = ball_nodes(2, order=8)
    total = float(np.sum(weights * kernel.profile(nodes)))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mean_value_property_d3_frozen_oracle():
    # averaging 1/|r| over balls not containing the origin reproduces
    # 1/|r| exactly in three dimensions; pinned ratio 1.0
    base = repulsive_power(3, exponent=1.0)
    kernel = MollifierKernel(d=3, power=3)
    shrink = ShrinkFunction()
    r = np.array([1.7, -0.3, 0.4])
    exact = base.value(r)
    smoothed = mollified_potential(base, kernel, shrink, level=3, r=r)
    assert smoothed / exact == pytest.approx(1.0, abs=5e-12)


def test_mollified_matches_base_far_from_origin():
    base = harmonic(2)
    kernel = MollifierKernel(d=2, power=3)
    pot = MollifiedPotential(base, kernel, ShrinkFunction(), level=5)
    r = np.array([[0.9, -0.4], [1.4, 0.2]])
    # smooth potential: averaging changes values only at O(radius^2)
    radius = 2.0 ** -5 * np.minimum(1.0, np.linalg.norm(r, axis=1) / 2.0)
    diff = np.abs(pot.value_batch(r) - base.value_batch(r))
    assert np.all(diff <= radius**2 * 1.5)


def test_shrink_function_constraints():
    with pytest.raises(DomainError):
        ShrinkFunction(cap=0.0)
    with pytest.raises(DomainError):
        ShrinkFunction(slope=0.75)
    s = ShrinkFunction()
    r = np.array([0.1, 1.0, 5.0])
    vals = s(r)
    assert np.all(vals <= np.minimum(1.0, r / 2.0) + 1e-15)


def test_gradient_l1_error_decreases_with_level():
    base = repulsive_power(2, exponent=0.5)
    kernel = MollifierKernel(d=2, power=3)
    shrink = ShrinkFunction()
    errs = [
        gradient_l1_error(
            base, kernel, shrink, level, r_inner=0.5, r_outer=2.0,
            n_samples=4000, seed=12,
        )
        for level in (3, 4)
    ]
    assert errs[1].estimate < errs[0].estimate
    # shared-seed sampling makes the quartering visible even at small N
    ratio = errs[1].estimate / errs[0].estimate
    assert 0.15 < ratio < 0.4


# ---------------------------------------------------------------------------
# radial table of the mollified potential


def random_rows(radii, d, seed):
    dirs = np.random.default_rng(seed).normal(size=(radii.size, d))
    return radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@pytest.mark.parametrize("exponent", [0.5, 1.0])
@pytest.mark.parametrize("level", [3, 6])
def test_table_gradient_matches_homogeneity_oracle(exponent, level):
    # below the shrink kink eps is proportional to |r|, so averaging
    # |r|^-a reproduces C_n |r|^-a exactly and grad V_n = -a V_n r/|r|^2
    shrink = ShrinkFunction()
    pot = MollifiedPotential(
        repulsive_power(2, exponent=exponent), MollifierKernel(d=2), shrink, level
    )
    kink = shrink.cap / shrink.slope
    rng = np.random.default_rng(level)
    radii = np.exp(rng.uniform(np.log(pot.table.lo), np.log(0.999 * kink), 4000))
    r = random_rows(radii, 2, level)
    want = -exponent * pot.value_batch(r)[:, None] * r / radii[:, None] ** 2
    got = pot.gradient_batch(r)
    rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    # the series derivative amplifies the ~1e-15 rounding of the quadrature
    assert np.max(rel) < 2e-12
    values = pot.value_batch(r) * radii**exponent
    assert np.ptp(values) < 1e-13 * values[0]
    assert pot.fallback_rows == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_table_matches_quadrature_at_held_out_radii(d):
    shrink = ShrinkFunction()
    kernel = MollifierKernel(d=d)
    level = 3
    # both sides of the shrink kink cap/slope = 2
    radii = np.array([0.3, 1.3, 1.9, 2.1, 3.3, 7.0])
    r = random_rows(radii, d, d)
    bases = [
        free_potential(d),
        harmonic(d, strength=0.7),
        gaussian_well(d, depth=1.3, width=0.8),
        repulsive_power(d, exponent=0.5),
        piecewise_radial(d, 0.8, -0.6, 0.4),
    ]
    for base in bases:
        pot = MollifiedPotential(base, kernel, shrink, level)
        assert pot.table.max_error <= TABLE_RTOL
        if base.kind == "gaussian_well":
            # the well's tail panels, where |f_n| vanishes, are held to the
            # table's scale rather than their own: 41 panels in every d
            assert len(pot.table.coefs) < 64
        want = np.array([mollified_potential(base, kernel, shrink, level, x) for x in r])
        scale = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(pot.value_batch(r) - want) / scale) < 1e-10, base.kind
        # radial central difference of the oracle, O(h^2) = 1e-8 accurate
        h = 1e-4 * radii
        up = [mollified_potential(base, kernel, shrink, level, x * (1 + s)) for x, s in zip(r, h / radii)]
        dn = [mollified_potential(base, kernel, shrink, level, x * (1 - s)) for x, s in zip(r, h / radii)]
        slope = (np.array(up) - np.array(dn)) / (2.0 * h)
        want_grad = slope[:, None] * r / radii[:, None]
        gerr = np.max(np.abs(pot.gradient_batch(r) - want_grad) / np.maximum(np.abs(slope), 1.0)[:, None])
        assert gerr < 1e-7, base.kind
        assert pot.fallback_rows == 0
    # where the averaging ball straddles the slope jump of piecewise_radial
    # the order-8 quadrature has kinks in |r|, which the panel edges follow
    straddle = np.linspace(0.7, 0.9, 41)
    pot = MollifiedPotential(bases[-1], kernel, shrink, level)
    direct = potentials._radial_average(bases[-1], kernel, shrink, level, straddle)
    got = pot.value_batch(random_rows(straddle, d, 7))
    assert np.max(np.abs(got - direct)) < 10 * TABLE_RTOL * np.max(np.abs(direct))


def test_rows_outside_table_take_the_counted_fallback():
    base = repulsive_power(2, exponent=1.0)
    kernel = MollifierKernel(d=2)
    shrink = ShrinkFunction()
    pot = MollifiedPotential(base, kernel, shrink, level=4)
    lo, hi = pot.table.lo, pot.table.hi
    radii = np.array([0.1 * lo, 0.5 * lo, 1.0, 2.0 * hi])
    r = random_rows(radii, 2, 3)
    values = pot.value_batch(r)
    assert pot.fallback_rows == 3
    want = [mollified_potential(base, kernel, shrink, 4, x) for x in r]
    np.testing.assert_allclose(values, want, rtol=1e-10)
    grad = pot.gradient_batch(r)
    assert pot.fallback_rows == 6
    # below the kink V_n = C_n |r|^-1; the radial difference with step
    # eps/16 carries an O((eps/16r)^2) = 1e-6 relative error
    below = radii < 1.0
    oracle = -values[below, None] * r[below] / radii[below, None] ** 2
    np.testing.assert_allclose(grad[below], oracle, rtol=1e-5)
    # exactly coincident rows keep the zero gradient of the batch interface
    np.testing.assert_array_equal(pot.gradient_batch(np.zeros((2, 2))), 0.0)
    assert pot.fallback_rows == 8


def test_equal_inputs_share_one_table():
    def make(level, exponent=1.0):
        return MollifiedPotential(
            repulsive_power(2, exponent=exponent), MollifierKernel(d=2), ShrinkFunction(), level
        )

    assert make(4).table is make(4).table
    assert make(4).table is not make(5).table
    assert make(4).table is not make(4, exponent=0.5).table


def test_table_panel_cap_raises(monkeypatch):
    monkeypatch.setattr(potentials, "TABLE_MAX_PANELS", 8)
    # inputs used by no other test, so the cached builder runs here
    pot = MollifiedPotential(
        gaussian_well(2, depth=0.7, width=0.9), MollifierKernel(d=2, power=4),
        ShrinkFunction(cap=0.9), level=2,
    )
    with pytest.raises(QuadratureError):
        pot.value_batch(np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_gradient_from_the_integrator_radii_equals_its_own_bitwise(n, d):
    # the integrator hands gradient_batch the radii it took for the minimum
    # pair distance; they must be |r| bitwise, and change no gradient
    rng = np.random.default_rng(31 + d)
    m = 40
    x = rng.uniform(-2.0, 2.0, size=(n, d, m))
    x[1, :, 0] = x[0, :, 0]  # r = 0
    x[0, 0, 1] = np.nan
    x[1, :, 2] = x[0, :, 2] + 1e-4  # below the mollified table: direct quadrature
    x[1, :, 3] = x[0, :, 3] + 300.0  # above it
    base = repulsive_power(d, exponent=1.0)
    mollified = MollifiedPotential(base, MollifierKernel(d=d), ShrinkFunction(), level=4)
    kinds = [free_potential(d), harmonic(d), base, gaussian_well(d, 1.3, 0.8),
             piecewise_radial(d, 0.8, -0.6, 0.4), mollified]
    for pot in kinds:
        pairs = dynamics._PairForces(n, d, m, pot)
        pairs.displace(x)
        radii = pairs.min_distance(np.empty(m))
        np.testing.assert_array_equal(radii, np.sqrt(np.sum(pairs.rows * pairs.rows, axis=-1)))
        got = pot.gradient_batch(pairs.rows, radii=radii)
        np.testing.assert_array_equal(got, pot.gradient_batch(pairs.rows))
        assert np.isnan(got).any() == (pot.kind in ("harmonic", "gaussian_well") or pot is mollified)
    # each call took the direct quadrature on the same rows
    assert mollified.fallback_rows % 2 == 0 and mollified.fallback_rows >= 2 * 4


@pytest.mark.parametrize("power", [np.nan, np.inf, 1.5])
def test_kernel_refuses_a_power_outside_two_to_infinity(power):
    # a NaN or infinite power would give a NaN normalization, and so NaN tables
    with pytest.raises(DomainError, match=f"got {power}"):
        MollifierKernel(d=2, power=power)


@pytest.mark.parametrize("level", [2.5, np.nan, np.inf, -1])
def test_mollified_level_must_be_a_whole_number(level):
    with pytest.raises(DomainError, match="whole number"):
        MollifiedPotential(repulsive_power(2, exponent=1.0), MollifierKernel(d=2),
                           ShrinkFunction(), level)


def test_mollified_kind_reads_the_level_it_uses():
    pot = MollifiedPotential(repulsive_power(2, exponent=1.0), MollifierKernel(d=2),
                             ShrinkFunction(), 2.0)
    assert pot.level == 2 and pot.kind == "mollified(repulsive_power, level=2)"


# -- the stacked table kernel against the series formulas it replaced


def _reference_clenshaw(coefs, t):
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    t2 = 2.0 * t
    for k in range(coefs.shape[1] - 1, 0, -1):
        b1, b2 = coefs[:, k] + t2 * b1 - b2, b1
    return coefs[:, 0] + t * b1 - b2


def _reference_series(table, series, rad):
    s = np.log(rad)
    p = np.clip(np.searchsorted(table.edges, s, side="right") - 1, 0, len(series) - 1)
    a, b = table.edges[p], table.edges[p + 1]
    return _reference_clenshaw(series[p], (2.0 * s - a - b) / (b - a))


def _reference_batch(pot, r, gradient):
    """V or grad V of a MollifiedPotential by the table formulas, with
    the direct quadrature outside the table."""
    table = pot.table
    rad = np.sqrt(np.sum(r * r, axis=-1))
    inside = (rad >= table.lo) & (rad <= table.hi)
    outside = ~inside
    if not gradient:
        out = np.empty(rad.size)
        out[inside] = _reference_series(table, table.coefs, rad[inside])
        out[outside] = pot._direct(rad[outside])
        return out
    coef = np.zeros(rad.size)
    coef[inside] = _reference_series(table, table.slopes, rad[inside]) / rad[inside] ** 2
    rows = np.flatnonzero(outside & (rad > 0.0))
    ro = rad[rows]
    h = 2.0 ** (-pot.level) * pot.shrink(ro) / 16.0
    coef[rows] = (pot._direct(ro + h) - pot._direct(ro - h)) / (2.0 * h * ro)
    return coef[:, None] * r


def _kernel_cases():
    for d in (2, 3):
        for base in (repulsive_power(d, exponent=1.0), piecewise_radial(d, 0.8, -0.6, 0.4)):
            yield [MollifiedPotential(base, MollifierKernel(d=d), ShrinkFunction(), level)
                   for level in (3, 4)]


def _table_radii(table, rng):
    """Every panel edge, both table ends and just outside them, r = 0, NaN
    and radii spread over the table."""
    lo, hi = table.lo, table.hi
    spread = np.exp(rng.uniform(table.edges[0], table.edges[-1], 200))
    return np.concatenate([
        np.exp(table.edges), [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)],
        [0.5 * lo, 2.0 * hi, 0.0, np.nan], spread,
    ])


@pytest.mark.parametrize("case", range(4))
def test_table_kernel_equals_the_series_formulas_bitwise(case):
    rng = np.random.default_rng(40 + case)
    for pot in list(_kernel_cases())[case]:
        r = random_rows(_table_radii(pot.table, rng), pot.d, 41 + case)
        before = pot.fallback_rows
        for gradient in (False, True):
            got = pot.gradient_batch(r) if gradient else pot.value_batch(r)
            np.testing.assert_array_equal(got, _reference_batch(pot, r, gradient))
        rad = np.sqrt(np.sum(r * r, axis=-1))
        outside = ~((rad >= pot.table.lo) & (rad <= pot.table.hi))
        assert pot.fallback_rows - before == 2 * np.count_nonzero(outside) >= 2 * 5


@pytest.mark.parametrize("case", range(4))
def test_ladder_kernel_equals_its_members_bitwise(case):
    # rows of a ladder name their member; each gets its member's gradient,
    # and its member counts its fallback rows
    rng = np.random.default_rng(50 + case)
    members = list(_kernel_cases())[case]
    ladder = potentials.MollifiedLadder(members)
    r = random_rows(_table_radii(members[0].table, rng), members[0].d, 51 + case)
    member = rng.integers(0, len(members), r.shape[0])
    rad = np.sqrt(np.sum(r * r, axis=-1))
    before = [m.fallback_rows for m in members]
    got = ladder.gradient_batch(r, rad, member)
    for j, m in enumerate(members):
        rows = member == j
        counted = m.fallback_rows - before[j]
        np.testing.assert_array_equal(got[rows], m.gradient_batch(r[rows]))
        assert m.fallback_rows - before[j] == 2 * counted


def _per_coefficient_series(table, which, rad):
    """Series `which` of one table at radii in its range, each Clenshaw
    coefficient gathered on its own from the table's (panels, K) rows."""
    series = table.coefs if which == "value" else table.slopes
    s = np.log(rad)
    p = np.clip(np.searchsorted(table.edges, s, side="right") - 1, 0, len(series) - 1)
    a, b = table.edges[p], table.edges[p + 1]
    t = (2.0 * s - a - b) / (b - a)
    t2 = 2.0 * t
    b2 = series[p, -1]
    b1 = series[p, -2] + t2 * b2
    for k in range(series.shape[1] - 3, -1, -1):
        b1, b2 = series[p, k] + (t if k == 0 else t2) * b1 - b2, b1
    return b1


@pytest.mark.parametrize("case", range(4))
def test_stack_evaluate_equals_per_coefficient_clenshaw_bitwise(case):
    # one gather of the rows' (K, m) coefficient block runs the recurrence
    # of one gather per coefficient, on one table and on a ladder's stack,
    # at every panel edge of every member and both ends of the range
    rng = np.random.default_rng(60 + case)
    members = list(_kernel_cases())[case]
    tables = [m.table for m in members]
    lo, hi = tables[0].lo, tables[0].hi
    rad = np.concatenate(
        [np.exp(t.edges) for t in tables]
        + [[lo, hi], np.exp(rng.uniform(tables[0].edges[0], tables[0].edges[-1], 300))]
    )
    rad = np.clip(rad, lo, hi)
    member = rng.integers(0, len(tables), rad.size)
    single, ladder = potentials._TableStack(tables[:1]), potentials._TableStack(tables)
    for which in ("value", "log_slope"):
        np.testing.assert_array_equal(
            single.evaluate(which, rad.copy(), None),
            _per_coefficient_series(tables[0], which, rad),
        )
        got = ladder.evaluate(which, rad.copy(), member)
        for j, table in enumerate(tables):
            rows = member == j
            np.testing.assert_array_equal(got[rows], _per_coefficient_series(table, which, rad[rows]))


def test_stack_inner_edges_are_the_sorted_union_without_repeats():
    # three members of one base: the shrink kink is an edge of each
    base = piecewise_radial(2, 0.8, -0.6, 0.4)
    tables = [MollifiedPotential(base, MollifierKernel(d=2), ShrinkFunction(), level).table
              for level in (2, 3, 4)]
    inner = np.concatenate([t.edges[1:-1] for t in tables])
    assert np.unique(inner).size < inner.size
    np.testing.assert_array_equal(potentials._TableStack(tables).inner, np.unique(inner))


def test_ladder_needs_one_base_and_one_shrink():
    kernel = MollifierKernel(d=2)
    a = MollifiedPotential(repulsive_power(2, exponent=1.0), kernel, ShrinkFunction(), 3)
    b = MollifiedPotential(repulsive_power(2, exponent=0.5), kernel, ShrinkFunction(), 3)
    c = MollifiedPotential(a.base, kernel, ShrinkFunction(cap=0.5), 3)
    for members in ([], [a, b], [a, c], [a, a.base]):
        with pytest.raises(DomainError):
            potentials.MollifiedLadder(members)
