"""Pair potentials and their position-dependent mollifications.

A pair potential V acts on the displacement r = x_i - x_j of a particle
pair.  Shipped families:

* ``free``            V = 0 (transport only)
* ``harmonic``        V(r) = k |r|^2 / 2
* ``repulsive_power`` V(r) = k / |r|^a, singular and confining at r = 0
* ``gaussian_well``   V(r) = -D exp(-|r|^2 / (2 w^2)), bounded below
* ``piecewise_radial``V(r) = radial, linear slopes with a jump in dV/d|r|

The singular families are regularized by averaging V over a ball whose
radius shrinks near the singularity,

    V_n(x) = (average of V over the ball of radius 2^-n alpha(x) at x),

with alpha(x) <= min(1, |x|/2) so the averaging ball never contains the
origin.  The average uses a C^2 polynomial kernel and is computed with a
ball-adapted product quadrature (Gauss-Legendre in radius, uniform or
Gauss-Legendre in angle) that integrates the kernel itself exactly.

Base, kernel and alpha are radial, so V_n(x) = f_n(|x|).  Batch
evaluation reads f_n from a RadialTable (piecewise Chebyshev series in
log |x| fitted to that quadrature, built once per level) and takes the
gradient f_n'(|x|) x/|x| from the series derivative.  One kernel reads
a stack of tables, one per row's potential, so a ladder of levels
(`MollifiedLadder`) is evaluated in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, QuadratureError, SingularityError
from .estimates import MCEstimate
from .rng import rng_for

SMOOTH = "smooth"
L1_SINGULAR_GRADIENT = "l1_singular_gradient"
CONFINING_AT_ZERO = "confining_at_zero"

_KINDS = ("free", "harmonic", "repulsive_power", "gaussian_well", "piecewise_radial")


@dataclass(frozen=True)
class PairPotential:
    """A radial pair potential on displacements in R^d, of one of the
    shipped kinds; build it with that kind's factory.  Construction
    refuses parameters outside the kind's domain.

    `singularity_class` and `lower_bound_constant` follow from the kind
    and its parameters.
    """

    kind: str
    d: int
    strength: float = 1.0
    exponent: float = 1.0
    width: float = 1.0
    jump_radius: float = 1.0
    slope_inner: float = 0.0
    slope_outer: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.kind not in _KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}, pick from {_KINDS}")
        # each family's domain, named by its factory's parameters; `not x > 0`
        # refuses NaN too
        if self.kind == "harmonic" and not self.strength > 0:
            raise DomainError("harmonic strength must be positive")
        if self.kind == "repulsive_power" and not (self.exponent > 0 and self.strength > 0):
            raise DomainError("repulsive_power needs positive exponent and strength")
        if self.kind == "gaussian_well" and not (self.strength > 0 and self.width > 0):
            raise DomainError("gaussian_well needs positive depth and width")
        if self.kind == "piecewise_radial" and not self.jump_radius > 0:
            raise DomainError("jump_radius must be positive")
        if self.kind == "piecewise_radial":
            for name, slope in (("slope_inner", self.slope_inner), ("slope_outer", self.slope_outer)):
                if not math.isfinite(slope):
                    raise DomainError(f"{name} must be finite, got {slope}")
        if self.kind == "piecewise_radial" and self.slope_inner == self.slope_outer:
            raise DomainError("slopes must differ, otherwise use a smooth family")

    @property
    def singularity_class(self) -> str:
        """How V behaves at r = 0; selects which verification routes are
        meaningful for it."""
        if self.kind == "repulsive_power":
            return L1_SINGULAR_GRADIENT if self.exponent < self.d - 1 else CONFINING_AT_ZERO
        if self.kind == "piecewise_radial":
            return L1_SINGULAR_GRADIENT
        return SMOOTH

    @property
    def lower_bound_constant(self) -> float:
        """A C >= 0 with V(r) >= -C (1 + |r|^2) for all r; energy
        estimates use it."""
        if self.kind == "gaussian_well":
            return self.strength
        if self.kind == "piecewise_radial":
            # V >= -M |r| with M = max drop rate, and -M|r| >= -(M/2)(1 + |r|^2)
            return max(0.0, -self.slope_inner, -self.slope_outer) / 2.0
        return 0.0

    @property
    def is_singular(self) -> bool:
        return self.singularity_class != SMOOTH

    def describe(self) -> str:
        if self.kind == "free":
            return f"free(d={self.d})"
        if self.kind == "harmonic":
            return f"harmonic(k={self.strength:g},d={self.d})"
        if self.kind == "repulsive_power":
            return f"repulsive_power(a={self.exponent:g},k={self.strength:g},d={self.d})"
        if self.kind == "gaussian_well":
            return f"gaussian_well(D={self.strength:g},w={self.width:g},d={self.d})"
        return (
            f"piecewise_radial(r0={self.jump_radius:g},"
            f"s_in={self.slope_inner:g},s_out={self.slope_outer:g},d={self.d})"
        )

    # -- vectorized evaluation over (..., d) displacement arrays --------

    def value_batch(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.shape[-1] != self.d:
            raise DomainError(f"expected last axis {self.d}, got shape {r.shape}")
        rad = np.sqrt(np.sum(r * r, axis=-1))
        if self.kind == "free":
            return np.zeros_like(rad)
        if self.kind == "harmonic":
            return 0.5 * self.strength * rad * rad
        if self.kind == "repulsive_power":
            with np.errstate(divide="ignore"):
                return self.strength * rad ** (-self.exponent)
        if self.kind == "gaussian_well":
            return -self.strength * np.exp(-rad * rad / (2.0 * self.width**2))
        r0 = self.jump_radius
        return self.slope_inner * np.minimum(rad, r0) + self.slope_outer * np.maximum(
            rad - r0, 0.0
        )

    def gradient_batch(self, r: np.ndarray, radii: np.ndarray | None = None) -> np.ndarray:
        """grad V at each displacement; rows at exactly r = 0 return 0.

        `radii`, if given, must be |r| of every row, bitwise
        sqrt(sum(r * r, axis=-1)) (shape r.shape[:-1]), as the integrator
        takes them once per step for the minimum pair distance.  Callers
        integrating dynamics must detect coincidences via the
        pair-distance threshold, not via the values returned here.
        """
        r = np.asarray(r, dtype=float)
        if r.shape[-1] != self.d:
            raise DomainError(f"expected last axis {self.d}, got shape {r.shape}")
        if self.kind == "free":
            return np.zeros_like(r)
        if self.kind == "harmonic":
            return self.strength * r
        rad = np.sqrt(np.sum(r * r, axis=-1)) if radii is None else radii
        if self.kind == "gaussian_well":
            w2 = self.width**2
            coef = (self.strength / w2) * np.exp(-rad * rad / (2.0 * w2))
            return coef[..., None] * r
        # rows at r = 0 (and NaN rows) get a zero gradient; the masking is
        # skipped when every radius is positive, as it then changes nothing
        positive = rad > 0.0
        every = bool(positive.all())
        safe = rad if every else np.where(positive, rad, 1.0)
        if self.kind == "repulsive_power":
            a = self.exponent
            coef = -self.strength * a * safe ** (-a - 2.0)
        else:
            # inner slope applies on the closed ball |r| <= r0
            slope = np.where(rad <= self.jump_radius, self.slope_inner, self.slope_outer)
            coef = slope / safe
        grad = coef[..., None] * r
        return grad if every else np.where(positive[..., None], grad, 0.0)

    def force_bound(self, r_lo, r_hi) -> np.ndarray:
        """sup |grad V(r)| over r_lo <= |r| <= r_hi, elementwise over the
        broadcast radii (0 < r_lo <= r_hi)."""
        r_lo, r_hi = np.broadcast_arrays(
            np.asarray(r_lo, dtype=float), np.asarray(r_hi, dtype=float)
        )
        if self.kind == "free":
            return np.zeros_like(r_hi)
        if self.kind == "harmonic":
            return self.strength * r_hi
        if self.kind == "repulsive_power":
            a = self.exponent
            return self.strength * a * r_lo ** (-a - 1.0)
        if self.kind == "gaussian_well":
            # |grad V| = (D / w^2) |r| exp(-|r|^2 / (2 w^2)) peaks at |r| = w
            return np.full_like(r_hi, self.strength / (self.width * math.sqrt(math.e)))
        return np.full_like(r_hi, max(abs(self.slope_inner), abs(self.slope_outer)))

    def value(self, r) -> float:
        r = np.asarray(r, dtype=float).reshape(self.d)
        if self.is_singular and float(np.dot(r, r)) == 0.0:
            raise SingularityError(f"{self.describe()} evaluated at r = 0")
        return float(self.value_batch(r))


def free_potential(d: int) -> PairPotential:
    return PairPotential(kind="free", d=d)


def harmonic(d: int, strength: float = 1.0) -> PairPotential:
    return PairPotential(kind="harmonic", d=d, strength=strength)


def repulsive_power(d: int, exponent: float, strength: float = 1.0) -> PairPotential:
    """V(r) = strength / |r|^exponent.

    Its class is l1_singular_gradient when the gradient is locally
    integrable (exponent < d - 1) and confining_at_zero otherwise.
    """
    return PairPotential(kind="repulsive_power", d=d, strength=strength, exponent=exponent)


def gaussian_well(d: int, depth: float = 1.0, width: float = 1.0) -> PairPotential:
    return PairPotential(kind="gaussian_well", d=d, strength=depth, width=width)


def piecewise_radial(
    d: int, jump_radius: float, slope_inner: float, slope_outer: float
) -> PairPotential:
    """Radial potential with piecewise constant dV/d|r| jumping at jump_radius."""
    return PairPotential(
        kind="piecewise_radial",
        d=d,
        jump_radius=jump_radius,
        slope_inner=slope_inner,
        slope_outer=slope_outer,
    )


# ---------------------------------------------------------------------------
# mollification machinery

# Gauss-Legendre order in radius and in angle of the ball quadrature behind
# every batch evaluation; exact for the kernel, spectrally accurate for the
# shipped families
QUADRATURE_ORDER = 8
# the scalar reference doubles the order from QUADRATURE_ORDER until two
# estimates agree to REFINE_TOL, at most MAX_REFINEMENTS times
REFINE_TOL = 1e-8
MAX_REFINEMENTS = 3
# quadrature points evaluated per block of a ball average, bounding its memory
BALL_AVERAGE_BLOCK = 1 << 22


@dataclass(frozen=True)
class MollifierKernel:
    """Radial averaging kernel rho(z) = c (1 - |z|^2)^q on the unit ball.

    The normalization c is analytic: c = Gamma(d/2 + q + 1) /
    (pi^(d/2) Gamma(q + 1)), making the kernel a probability density.
    q >= 2 keeps the kernel C^1 across the ball boundary.
    """

    d: int
    power: int = 3

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("kernel dimension must be >= 1")
        # `not ... < inf` refuses NaN and inf, whose normalization is NaN
        if not 2 <= self.power < math.inf:
            raise DomainError(
                f"kernel power must be finite and >= 2 for a C^1 kernel, got {self.power}"
            )

    @property
    def normalization(self) -> float:
        q = self.power
        return math.gamma(self.d / 2.0 + q + 1.0) / (
            math.pi ** (self.d / 2.0) * math.gamma(q + 1.0)
        )

    def profile(self, z: np.ndarray) -> np.ndarray:
        """Kernel values at points z of shape (..., d) inside the unit ball."""
        z = np.asarray(z, dtype=float)
        s = 1.0 - np.sum(z * z, axis=-1)
        return self.normalization * np.where(s > 0.0, s, 0.0) ** self.power


@dataclass(frozen=True)
class ShrinkFunction:
    """Averaging-radius profile alpha(x) = min(cap, slope * |x|).

    Constraints cap <= 1 and slope <= 1/2 guarantee alpha(x) <= min(1, |x|/2),
    so the ball of radius 2^-n alpha(x) around x stays away from the origin
    for every level n >= 0.
    """

    cap: float = 1.0
    slope: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.cap <= 1.0):
            raise DomainError("shrink cap must lie in (0, 1]")
        if not (0.0 < self.slope <= 0.5):
            raise DomainError("shrink slope must lie in (0, 1/2]")

    def __call__(self, radii) -> np.ndarray:
        radii = np.asarray(radii, dtype=float)
        return np.minimum(self.cap, self.slope * radii)


@lru_cache(maxsize=64)
def ball_nodes(d: int, order: int):
    """Product quadrature nodes and weights for the unit ball in R^d.

    Gauss-Legendre in radius (with the r^(d-1) jacobian folded into the
    weights) crossed with an exact angular rule: midpoint-offset uniform
    angles in d = 2, Gauss-Legendre in cos(theta) times uniform azimuth in
    d = 3; each factor takes `order` points.  Returns (nodes, weights)
    with nodes of shape (Q, d); weights sum to the ball volume.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w * r ** (d - 1)
    if d == 1:
        z = np.concatenate([-r, r])[:, None]
        wt = np.concatenate([wr, wr])
    elif d == 2:
        theta = 2.0 * math.pi * (np.arange(order) + 0.5) / order
        wa = 2.0 * math.pi / order
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        z = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 2)
        wt = (wr[:, None] * wa * np.ones(order)[None, :]).reshape(-1)
    elif d == 3:
        c, wc = np.polynomial.legendre.leggauss(order)
        phi = 2.0 * math.pi * (np.arange(order) + 0.5) / order
        wp = 2.0 * math.pi / order
        s = np.sqrt(1.0 - c * c)
        dirs = np.stack(
            [
                s[:, None] * np.cos(phi)[None, :],
                s[:, None] * np.sin(phi)[None, :],
                np.broadcast_to(c[:, None], (order, order)),
            ],
            axis=2,
        ).reshape(-1, 3)
        wd = (wc[:, None] * wp * np.ones(order)[None, :]).reshape(-1)
        z = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        wt = (wr[:, None] * wd[None, :]).reshape(-1)
    else:
        raise DomainError(f"ball quadrature implemented for d in (1, 2, 3), got {d}")
    z.setflags(write=False)
    wt.setflags(write=False)
    return z, wt


def _ball_average(
    potential: PairPotential,
    kernel: MollifierKernel,
    centers: np.ndarray,
    radii_eps: np.ndarray,
    order: int,
) -> np.ndarray:
    """Kernel-weighted average of V over balls B(center_i, eps_i), vectorized,
    with the ball rule of that order in radius and angle.

    Self-normalizes by the quadrature mass of the kernel so tiny rule-level
    mass defects cancel instead of biasing the average.
    """
    z, w = ball_nodes(potential.d, order)
    rho_w = w * kernel.profile(z)
    den = float(np.sum(rho_w))
    m, q = centers.shape[0], z.shape[0]
    out = np.empty(m)
    rows = max(1, BALL_AVERAGE_BLOCK // max(q, 1))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        pts = centers[lo:hi, None, :] + radii_eps[lo:hi, None, None] * z[None, :, :]
        vals = potential.value_batch(pts.reshape(-1, potential.d)).reshape(hi - lo, q)
        out[lo:hi] = vals @ rho_w / den
    return out


def mollified_potential(
    potential: PairPotential,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    level: int,
    r,
) -> float:
    """V_level(r): average of V over the ball of radius 2^-level * alpha(r).

    The quadrature order doubles from QUADRATURE_ORDER until two successive
    estimates agree to REFINE_TOL; failure to converge within
    MAX_REFINEMENTS doublings raises QuadratureError.
    """
    # the level and kernel rules are MollifiedPotential's
    MollifiedPotential(potential, kernel, shrink, level)
    x = np.asarray(r, dtype=float).reshape(potential.d)
    rad = float(np.linalg.norm(x))
    eps = float(2.0 ** (-level) * shrink(rad))
    if eps == 0.0:
        if potential.is_singular:
            raise SingularityError("mollification radius vanishes at r = 0")
        return potential.value(x)
    order = QUADRATURE_ORDER
    prev = None
    for _ in range(MAX_REFINEMENTS + 1):
        cur = float(_ball_average(potential, kernel, x[None, :], np.array([eps]), order)[0])
        if prev is not None and abs(cur - prev) < REFINE_TOL:
            return cur
        prev = cur
        order *= 2
    raise QuadratureError(
        f"ball average did not converge to {REFINE_TOL:g} at {potential.describe()}, "
        f"level {level}, |r|={rad:g}"
    )


# Radial table of f_n.  Chebyshev interpolation on first-kind nodes,
# checked on the interleaved second-kind nodes (Trefethen, Approximation
# Theory and Approximation Practice, 2013, chapters 3 and 8).
TABLE_DEGREE = 12
# held-out error bound of every panel, relative to its scale: its largest
# |f_n|, and no less than TABLE_RTOL times the largest |f_n| met so far
TABLE_RTOL = 1e-12
TABLE_MAX_PANELS = 1024
# longest panel in s = log(rho): the rounding of the series derivative
# grows with the spread of |f_n| across a panel
TABLE_MAX_WIDTH = 0.5
# radii covered by the table, in units of the shrink kink cap/slope
TABLE_RANGE = (1e-3, 1e2)


def _radial_kinks(potential: PairPotential) -> tuple[float, ...]:
    """Radii at which dV/d|r| of a base potential jumps."""
    return (potential.jump_radius,) if potential.kind == "piecewise_radial" else ()


def _node_crossings(
    potential: PairPotential, shrink: ShrinkFunction, level: int, nodes: np.ndarray
) -> np.ndarray:
    """Radii rho at which a node rho e_1 + eps(rho) z of the averaging
    ball crosses a kink of the base; the quadrature is not smooth there."""
    z1 = nodes[:, 0]
    zz = np.sum(nodes * nodes, axis=1)
    kink = shrink.cap / shrink.slope
    c = 2.0 ** (-level) * shrink.slope  # eps = c rho below the kink
    e = 2.0 ** (-level) * shrink.cap  # eps = e above it
    out = []
    for r0 in _radial_kinks(potential):
        below = r0 / np.sqrt(1.0 + 2.0 * c * z1 + c * c * zz)
        disc = r0 * r0 - e * e * (zz - z1 * z1)
        above = -e * z1[disc >= 0.0] + np.sqrt(disc[disc >= 0.0])
        out += [below[below < kink], above[above >= kink]]
    return np.concatenate(out) if out else np.empty(0)


@dataclass(frozen=True)
class RadialTable:
    """f_n(rho) on [lo, hi] as piecewise Chebyshev series in s = log(rho).

    Panel p spans s in [edges[p], edges[p+1]]; `coefs[p]` holds the series
    of f_n and `slopes[p]` that of df_n/ds in the panel variable t in
    [-1, 1].  `max_error` is the largest held-out gap to the direct
    quadrature over all panels, relative to each panel's scale (see
    TABLE_RTOL).
    """

    edges: np.ndarray
    coefs: np.ndarray
    slopes: np.ndarray
    max_error: float

    @property
    def lo(self) -> float:
        return float(np.exp(self.edges[0]))

    @property
    def hi(self) -> float:
        return float(np.exp(self.edges[-1]))


class _TableStack:
    """The series of one or more RadialTables over one range [lo, hi], for
    rows that each name their table.

    The panels of every table are numbered in one list, and their series
    are stacked coefficient-major, (K, panels) for K coefficients, so the
    coefficients of all rows are one gather of their panels' columns.  A
    row's panel comes from one `searchsorted` on the union of the tables'
    interior edges, sorted with repeats dropped: each table's edges are
    among them, so how many lie at or below a row's log radius fixes its
    panel in every table.
    """

    def __init__(self, tables: Sequence[RadialTable]):
        self.lo, self.hi = tables[0].lo, tables[0].hi
        self.left = np.concatenate([t.edges[:-1] for t in tables])
        self.right = np.concatenate([t.edges[1:] for t in tables])
        self.series = {
            "value": np.concatenate([t.coefs for t in tables]).T.copy(),
            "log_slope": np.concatenate([t.slopes for t in tables]).T.copy(),
        }
        inner = np.sort(np.concatenate([t.edges[1:-1] for t in tables]))
        self.inner = inner[np.concatenate(([True], inner[1:] != inner[:-1]))]
        # panel[j * (E + 1) + q]: the panel of table j holding the radii
        # whose log has q of the E union edges at or below it
        offsets = np.cumsum([0] + [len(t.coefs) for t in tables[:-1]])
        below = [np.searchsorted(t.edges[1:-1], self.inner, side="right") for t in tables]
        self.panel = (offsets[:, None] + np.pad(below, ((0, 0), (1, 0)))).ravel()

    def evaluate(self, which: str, rad: np.ndarray, member: np.ndarray | None) -> np.ndarray:
        """The series `which` ("value": f_n, "log_slope": rho f_n') of table
        member[i] (of the only table when None) at each radius rad[i],
        which must lie in [lo, hi]."""
        s = np.log(rad)
        p = np.searchsorted(self.inner, s, side="right")
        if member is not None:
            p = self.panel[member * (self.inner.size + 1) + p]
        a, b = self.left[p], self.right[p]
        t = np.subtract(2.0 * s, a, out=s)
        np.subtract(t, b, out=t)
        np.divide(t, np.subtract(b, a, out=a), out=t)
        # the (K, m) coefficients of the rows' panels in one gather; then
        # Clenshaw from its two top terms: the steps from b1 = b2 = 0 that
        # it skips only add and subtract zeros.  b2 starts as a copy, so
        # the result is never a row of the block that keeps it alive
        coefs = np.take(self.series[which], p, axis=1)
        t2 = 2.0 * t
        spare = np.empty_like(t)
        b2 = coefs[-1].copy()
        b1 = np.multiply(t2, b2, out=b)
        np.add(coefs[-2], b1, out=b1)
        for k in range(len(coefs) - 3, -1, -1):
            np.multiply(t if k == 0 else t2, b1, out=spare)
            np.add(coefs[k], spare, out=spare)
            np.subtract(spare, b2, out=spare)
            b1, b2, spare = spare, b1, b2
        return b1


def _radial_average(
    potential: PairPotential,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    level: int,
    rad: np.ndarray,
) -> np.ndarray:
    """Direct quadrature of f_n at radii rad > 0, on the first axis."""
    centers = np.zeros((rad.size, potential.d))
    centers[:, 0] = rad
    eps = 2.0 ** (-level) * shrink(rad)
    return _ball_average(potential, kernel, centers, eps, QUADRATURE_ORDER)


@lru_cache(maxsize=64)
def _radial_table(
    potential: PairPotential,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    level: int,
) -> RadialTable:
    """Tabulate f_n over TABLE_RANGE.

    Panel edges sit at the shrink kink cap/slope, where f_n' jumps, and
    at every radius where a quadrature node crosses a kink of the base.
    Each panel is fitted at TABLE_DEGREE + 1 nodes and checked at
    TABLE_DEGREE + 2 held-out nodes (its ends included); panels wider
    than TABLE_MAX_WIDTH or with error above TABLE_RTOL are bisected,
    and more than TABLE_MAX_PANELS panels raise QuadratureError.
    """
    kink = shrink.cap / shrink.slope
    lo, hi = TABLE_RANGE[0] * kink, TABLE_RANGE[1] * kink
    z, _ = ball_nodes(potential.d, QUADRATURE_ORDER)
    cuts = _node_crossings(potential, shrink, level, z)
    breaks = np.log(np.concatenate([[lo, kink, hi], cuts[(cuts > lo) & (cuts < hi)]]))
    breaks = np.sort(breaks)
    breaks = breaks[np.concatenate([[True], np.diff(breaks) > 1e-12])]

    cheb = np.polynomial.chebyshev
    k = TABLE_DEGREE + 1
    fit_t = np.cos(math.pi * (np.arange(k) + 0.5) / k)
    held_t = np.cos(math.pi * np.arange(k + 1) / k)
    # discrete orthogonality of T_j on the first-kind nodes
    fit = (2.0 / k) * cheb.chebvander(fit_t, k - 1).T
    fit[0] *= 0.5
    held = cheb.chebvander(held_t, k - 1)

    def average(s):
        rad = np.exp(s).ravel()
        return _radial_average(potential, kernel, shrink, level, rad).reshape(s.shape)

    pending = np.stack([breaks[:-1], breaks[1:]], axis=1)
    done_edges, done_coefs, errors = [], [], [0.0]
    # the largest |f_n| met so far
    peak = 0.0
    while pending.size:
        if sum(map(len, done_edges)) + len(pending) > TABLE_MAX_PANELS:
            raise QuadratureError(
                f"radial table of {potential.describe()} at level {level} needs more than "
                f"{TABLE_MAX_PANELS} panels for relative error {TABLE_RTOL:g}"
            )
        mid = 0.5 * (pending[:, :1] + pending[:, 1:])
        half = 0.5 * (pending[:, 1:] - pending[:, :1])
        vals = average(mid + half * fit_t)
        ref = average(mid + half * held_t)
        coefs = vals @ fit.T
        own = np.maximum(np.max(np.abs(vals), axis=1), np.max(np.abs(ref), axis=1))
        peak = max(peak, float(np.max(own)))
        # a tail panel far below the table's largest |f_n| is held to that;
        # below the smallest normal float the quadrature has no relative digits
        scale = np.maximum(own, max(TABLE_RTOL * peak, np.finfo(float).tiny / TABLE_RTOL))
        err = np.max(np.abs(coefs @ held.T - ref), axis=1) / scale
        ok = (err <= TABLE_RTOL) & (2.0 * half[:, 0] <= TABLE_MAX_WIDTH)
        done_edges.append(pending[ok])
        done_coefs.append(coefs[ok])
        errors.append(float(np.max(err[ok], initial=0.0)))
        split = pending[~ok]
        middle = 0.5 * (split[:, 0] + split[:, 1])
        pending = np.concatenate(
            [np.stack([split[:, 0], middle], axis=1), np.stack([middle, split[:, 1]], axis=1)]
        )
    spans = np.concatenate(done_edges)
    order = np.argsort(spans[:, 0])
    spans = spans[order]
    coefs = np.concatenate(done_coefs)[order]
    # dt/ds = 2 / (panel width)
    slopes = cheb.chebder(coefs, axis=1) * (2.0 / (spans[:, 1:] - spans[:, :1]))
    edges = np.append(spans[:, 0], spans[-1, 1])
    for arr in (edges, coefs, slopes):
        arr.setflags(write=False)
    return RadialTable(edges=edges, coefs=coefs, slopes=slopes, max_error=max(errors))


class MollifiedPotential:
    """Batch-evaluable mollified potential V_level with the PairPotential interface.

    Uses the ball quadrature of order QUADRATURE_ORDER.  Batch values and
    gradients come from the shared table of these inputs, built on first
    use: V = f_n(|r|), grad V = f_n'(|r|) r/|r|, read by the table
    kernel (`_TableStack`) with a stack of this one table.  Rows outside
    the table range (near coincidence or far out) take the direct
    quadrature at (|r|, 0, ...) instead, with a radial central difference
    of step eps(|r|)/16 for the gradient; `fallback_rows` counts these
    row evaluations.  The level must be a whole number >= 0.  A
    `MollifiedLadder` flows several of these in one batch.
    """

    def __init__(
        self,
        base: PairPotential,
        kernel: MollifierKernel,
        shrink: ShrinkFunction,
        level: int,
    ):
        if kernel.d != base.d:
            raise DomainError("kernel dimension does not match potential")
        if not (level >= 0 and float(level).is_integer()):
            raise DomainError(f"mollification level must be a whole number >= 0, got {level}")
        self.base = base
        self.kernel = kernel
        self.shrink = shrink
        self.level = int(level)
        self.d = base.d
        self.kind = f"mollified({base.kind}, level={self.level})"
        self.singularity_class = base.singularity_class
        self.lower_bound_constant = base.lower_bound_constant
        self.fallback_rows = 0
        self._table = None

    def describe(self) -> str:
        return f"mollified[{self.base.describe()}, n={self.level}]"

    @property
    def table(self) -> RadialTable:
        if self._table is None:
            self._table = _radial_table(self.base, self.kernel, self.shrink, self.level)
        return self._table

    @cached_property
    def stack(self) -> _TableStack:
        return _TableStack([self.table])

    def _radii(self, r: np.ndarray, radii: np.ndarray | None = None) -> np.ndarray:
        """|r| of every row, flattened; taken from radii when given."""
        if r.shape[-1] != self.d:
            raise DomainError(f"expected last axis {self.d}, got shape {r.shape}")
        if radii is not None:
            return np.ravel(radii)
        return np.sqrt(np.sum(r * r, axis=-1)).ravel()

    def _direct(self, rad: np.ndarray) -> np.ndarray:
        """f_n by direct quadrature; rad = 0 gives the base value at 0."""
        out = np.empty(rad.size)
        pos = rad > 0.0
        out[pos] = _radial_average(self.base, self.kernel, self.shrink, self.level, rad[pos])
        out[~pos] = self.base.value_batch(np.zeros((int(np.sum(~pos)), self.d)))
        return out

    def _fallback(self, rad: np.ndarray, gradient: bool) -> np.ndarray:
        """f_n, or f_n'(rad) / rad when gradient, by direct quadrature at
        radii outside the table, counted in fallback_rows; rows at r = 0
        keep a zero gradient."""
        self.fallback_rows += rad.size
        if not gradient:
            return self._direct(rad)
        coef = np.zeros(rad.size)
        rows = np.flatnonzero(rad > 0.0)
        ro = rad[rows]
        h = 2.0 ** (-self.level) * self.shrink(ro) / 16.0
        coef[rows] = (self._direct(ro + h) - self._direct(ro - h)) / (2.0 * h * ro)
        return coef

    def value_batch(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return _radial_terms([self], self.stack, self._radii(r), None, False).reshape(r.shape[:-1])

    def gradient_batch(self, r: np.ndarray, radii: np.ndarray | None = None) -> np.ndarray:
        """grad V_level at each displacement, from the radii |r| when given
        (as PairPotential.gradient_batch takes them)."""
        r = np.asarray(r, dtype=float)
        coef = _radial_terms([self], self.stack, self._radii(r, radii), None, True)
        return coef.reshape(r.shape[:-1])[..., None] * r

    def force_bound(self, r_lo, r_hi) -> np.ndarray:
        """inf for every radius range: no bound on |grad V_level| is
        derived from the table, so a caller using it rules out nothing."""
        return np.full(np.broadcast(r_lo, r_hi).shape, np.inf)


def _radial_terms(pots, stack: _TableStack, rad: np.ndarray, member, gradient: bool):
    """f_n(rad), or f_n'(rad) / rad when gradient, of pots[member[i]] at
    each radius rad[i] (of pots[0] when member is None).  Rows inside the
    stack's range read its series; the others take their potential's
    direct quadrature."""
    which = "log_slope" if gradient else "value"
    inside = (rad >= stack.lo) & (rad <= stack.hi)
    if inside.all():
        out = stack.evaluate(which, rad, member)
        return np.divide(out, rad**2, out=out) if gradient else out
    out = np.empty(rad.size)
    rin = rad[inside]
    vals = stack.evaluate(which, rin, None if member is None else member[inside])
    out[inside] = vals / rin**2 if gradient else vals
    for j, pot in enumerate(pots):
        outside = ~inside if member is None else ~inside & (member == j)
        if outside.any():
            out[outside] = pot._fallback(rad[outside], gradient)
    return out


class MollifiedLadder:
    """Mollified potentials of one base and one shrink, flowed in one batch.

    `flow_batch(x, v, ladder, t, icfg)` takes K blocks of N rows for K
    members, and block j flows under members[j]: each row is stepped as
    in a flow under its own member alone, so the result is bitwise that
    of K flows.  A force evaluation is one kernel call for every row:
    the members' tables span the same radii, so only the panel lookup
    depends on the member.  Rows outside the tables take their member's
    direct quadrature and count in its `fallback_rows`.
    """

    def __init__(self, members: Sequence[MollifiedPotential]):
        self.members = tuple(members)
        if not self.members or not all(isinstance(m, MollifiedPotential) for m in self.members):
            raise DomainError("a ladder needs at least one mollified potential")
        first = self.members[0]
        if any((m.base, m.shrink) != (first.base, first.shrink) for m in self.members):
            raise DomainError("the members of a ladder need one base and one shrink")
        self.base = first.base
        self.kind = f"ladder({first.base.kind}, levels={[m.level for m in self.members]})"

    @cached_property
    def stack(self) -> _TableStack:
        return _TableStack([m.table for m in self.members])

    def gradient_batch(self, r: np.ndarray, radii: np.ndarray, member: np.ndarray) -> np.ndarray:
        """grad V of members[member[i]] at each displacement r[i] of the
        (rows, d) array r, whose radii |r| are given."""
        return _radial_terms(self.members, self.stack, radii, member, True)[:, None] * r


def gradient_l1_error(
    potential: PairPotential,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    level: int,
    r_inner: float,
    r_outer: float,
    n_samples: int,
    seed: int,
) -> MCEstimate:
    """Monte Carlo estimate of int_annulus |grad V_level - grad V| dr.

    The annulus r_inner <= |r| <= r_outer must exclude the origin.  The
    sample points depend on (seed, annulus, n_samples) but not on the
    level, so estimates across levels share randomness and their ordering
    is meaningful at fixed seed.
    """
    if not (0.0 < r_inner < r_outer):
        raise DomainError("annulus must satisfy 0 < r_inner < r_outer")
    d = potential.d
    rng = rng_for(seed, f"gradient-l1-annulus/{r_inner:g}/{r_outer:g}/{n_samples}")
    dirs = rng.normal(size=(n_samples, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u = rng.random(n_samples)
    radii = (r_inner**d + u * (r_outer**d - r_inner**d)) ** (1.0 / d)
    pts = radii[:, None] * dirs
    vol = (
        math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * (r_outer**d - r_inner**d)
    )
    moll = MollifiedPotential(potential, kernel, shrink, level)
    diff = moll.gradient_batch(pts) - potential.gradient_batch(pts)
    err = np.sqrt(np.sum(diff * diff, axis=-1))
    return MCEstimate.from_samples(err * (vol / n_samples))
