"""Monte Carlo transport: ensembles, weak-form residuals, renormalization.

The phase density f(t, x, v) solving the n-particle transport equation
is represented by push-forward: sample z ~ Uniform(box), remember
f0(z), and flow the samples.  Since the dynamics preserve phase volume,

    integral of f(t, .) g = sum_i w_i f0(z_i) g(Y(t, z_i))

for any observable g, with w_i = vol(box) / N.  Weak solutions are
probed by integrating the transport operator applied to smooth
compactly supported test functions over a time window; renormalized
solutions apply a C^1 function beta to the carried values first.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import dynamics
from .dynamics import IntegratorConfig, flow_batch, _energy_batch
from .errors import CoverageError, DomainError
from .estimates import MCEstimate, padded_sum
from .potentials import CONFINING_AT_ZERO
from .profiles import bump, bump_pair, smooth_step_down
from .rng import rng_for

# suprema of the profile derivatives, used in Lipschitz bounds
MAX_ABS_BUMP_PRIME = 2.170357085707947
MAX_ABS_POLY_PRIME = 1.5396007178387945

# pinned constant for the O(dt^2) discretization bias of second order flows
DT_BIAS_COEFFICIENT = 100.0

# Simpson nodes of every weak-residual window: 4 m + 1, so that the
# estimate can be re-evaluated on the half-resolution grid; counts below
# ~65 leave composite Simpson pre-asymptotic for bump windows of order
# one, which breaks the Richardson error estimate
RESIDUAL_NODES = 65

# closest a test function's support may come to the coincidence set of a
# confining potential, whose forces diverge there
COLLISION_MARGIN = 1e-3

# range of a random test function's half widths, as fractions of the box's;
# well below ~0.5 the support is so small in the 2 n d dimensional phase
# space that almost no samples visit it, leaving residual estimates
# without statistical power
TEST_FUNCTION_WIDTH_FRACTION = (0.55, 0.85)

# (t_center, t_width) of the random test functions that the residual
# checks draw, in the library and the CLI alike
TEST_FUNCTION_WINDOW = (1.0, 0.8)

# slack by which `may_reach` widens each reachable interval before testing
# it against a support, relative to the largest coordinate, interval end or
# support end of the row: it covers the rounding of the stepped flow and of
# the support test, orders of magnitude smaller over any step budget
REACH_SLACK = 1e-6


@dataclass(frozen=True)
class PhaseBox:
    """Axis-aligned box in flattened phase space (x_1..x_n then v_1..v_n)."""

    lows: np.ndarray
    highs: np.ndarray
    d: int
    n: int

    def __post_init__(self):
        lows = np.asarray(self.lows, dtype=float)
        highs = np.asarray(self.highs, dtype=float)
        if lows.shape != (2 * self.n * self.d,) or highs.shape != lows.shape:
            raise DomainError("box bounds must have length 2 n d")
        if not np.all(highs > lows):
            raise DomainError("box must have positive extent on every axis")
        lows.setflags(write=False)
        highs.setflags(write=False)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @staticmethod
    def centered(d: int, n: int, x_half: float, v_half: float) -> "PhaseBox":
        half = np.concatenate([np.full(n * d, x_half), np.full(n * d, v_half)])
        return PhaseBox(lows=-half, highs=half, d=d, n=n)

    @property
    def volume(self) -> float:
        return float(np.prod(self.highs - self.lows))

    def contains(self, lows: np.ndarray, highs: np.ndarray) -> bool:
        return bool(np.all(lows >= self.lows) and np.all(highs <= self.highs))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count uniform rows, scaled into the box inside the drawn buffer.

        Bitwise equal to lows + u * (highs - lows), without the two
        temporaries of that size the expression would allocate.
        """
        u = rng.random((count, self.lows.size))
        u *= self.highs - self.lows
        u += self.lows
        return u


@dataclass(frozen=True)
class InitialDatum:
    """Compactly supported initial density profile on phase space.

    Product profile over the 2 n d flattened coordinates: each axis
    contributes shape((z_k - center_k) / width_k).  `constant` has no
    compact support and is only meant for static geometry experiments.
    """

    kind: str
    center: np.ndarray
    width: np.ndarray

    def __post_init__(self):
        if self.kind not in ("bump", "clipped_polynomial", "constant"):
            raise DomainError(f"unknown initial datum kind {self.kind!r}")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        width = np.broadcast_to(np.asarray(self.width, dtype=float), center.shape).copy()
        if not np.all(width > 0):
            raise DomainError("datum widths must be positive")
        center.setflags(write=False)
        width.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)

    @property
    def has_compact_support(self) -> bool:
        return self.kind != "constant"

    def support_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        if not self.has_compact_support:
            return None
        return self.center - self.width, self.center + self.width

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """f0 at each row of the (N, 2 n d) block z.

        Only the rows strictly inside `support_bounds()` on every axis,
        |z_k - c_k| < w_k, are evaluated, bitwise as the product
        over every entry would be; every other row reads 0.0, as the
        product does on a finite row with an axis factor of exactly 0.
        A row with a NaN coordinate reads 0 for every kind, `constant`
        included.
        """
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.center.size:
            raise DomainError(f"expected shape (N, {self.center.size}), got {z.shape}")
        if self.kind == "constant":
            return np.where(np.any(np.isnan(z), axis=1), 0.0, 1.0)
        out = np.zeros(z.shape[0])
        rows = np.flatnonzero(_rows_inside(z.T, self.center, self.width))
        # the product over the axes in axis order, as np.prod takes it,
        # one axis factor at a time
        prod = np.ones(rows.size)
        for k, (center, width) in enumerate(zip(self.center, self.width)):
            u = z[rows, k]
            np.divide(np.subtract(u, center, out=u), width, out=u)
            if self.kind == "bump":
                factor = bump(u)
            else:
                factor = np.subtract(1.0, np.multiply(u, u, out=u), out=u)
                np.maximum(0.0, factor, out=factor)
                np.multiply(factor, factor, out=factor)
            np.multiply(prod, factor, out=prod)
        out[rows] = prod
        return out

    def lipschitz_bound(self) -> float:
        """Upper bound on the Euclidean Lipschitz constant of the profile."""
        if self.kind == "constant":
            return 0.0
        per_axis = MAX_ABS_BUMP_PRIME if self.kind == "bump" else MAX_ABS_POLY_PRIME
        return float(per_axis * np.linalg.norm(1.0 / self.width))


@dataclass(frozen=True)
class Ensemble:
    """The t = 0 sample: phase-space points of a box carrying f0.

    Every sample has the same weight, `weight` = vol(box) / size, and
    `values` holds the datum's f0 at each sample.  Flows return their
    states as arrays (`flow_batch`, `simpson_walk`,
    `level_difference_series`), not as ensembles.
    """

    x: np.ndarray
    v: np.ndarray
    values: np.ndarray
    box: PhaseBox
    datum: InitialDatum | None = None

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def weight(self) -> float:
        """vol(box) / size, the weight of every sample."""
        return self.box.volume / self.size

    def phase_flat(self) -> np.ndarray:
        return _flatten_phase(self.x, self.v)


def _pair_distance(a: np.ndarray) -> np.ndarray:
    """|a_1 - a_2| per row, bitwise np.linalg.norm(..., axis=-1), taken
    on one difference buffer squared in place.  The d squared components
    are summed in order with explicit adds, as numpy sums fewer than 8,
    so this holds for d < 8."""
    r = a[:, 0] - a[:, 1]
    r *= r
    s = r[:, 0].copy()
    for k in range(1, r.shape[1]):
        s += r[:, k]
    return np.sqrt(s, out=s)


def _draw(box: PhaseBox, count: int, seed: int, block: int):
    """The count rows of the (box, seed) sample, `block` at a time: yields
    (start, z) with z the (rows, 2 n d) block from row start on.  The
    blocks continue one stream, so they are bitwise the rows of one draw
    of all count."""
    if count < 1:
        raise DomainError("sample count must be >= 1")
    rng = rng_for(seed, "ensemble-sampling")
    return ((start, box.sample(rng, min(block, count - start))) for start in range(0, count, block))


def sample_ensemble(box: PhaseBox, count: int, datum: InitialDatum, seed: int) -> Ensemble:
    """count uniform samples in box, each of weight vol/count, carrying f0."""
    [(_, z)] = _draw(box, count, seed, count)
    nd = box.n * box.d
    return Ensemble(
        x=z[:, :nd].reshape(count, box.n, box.d),
        v=z[:, nd:].reshape(count, box.n, box.d),
        values=datum.evaluate(z),
        box=box,
        datum=datum,
    )


def may_reach(
    phi: TestFunction, x, v, potential, t: float, icfg: IntegratorConfig
) -> np.ndarray:
    """Rows of the (N, n, d) states (x, v) whose `flow_batch` by t may
    enter the phase support of phi, as a boolean mask.

    A row is ruled out (False) only where a bound shows that it stays
    outside supp phi at every state its flow visits, with FLAG_OK, on
    the way to t and at any stops along it.  While every particle's
    acceleration stays at most F, velocity Verlet over any steps h_k
    summing to tau = |t| (fixed, remainder or adaptive), with any damping
    c <= 1, keeps each velocity component within F tau of v(0), or of
    the segment [0, v(0)] when c < 1, and each position component within
    F tau^2 / 2 of the segment [x(0), x(0) + t v(0)], since
    sum_k h_k (t_k + h_k / 2) = tau^2 / 2; every partial sum of the steps
    is bounded the same way, so the bound holds at every state.  With
    dmin and dmax the row's smallest and largest pair distance, F = (n - 1)
    force_bound(dmin / 2, 2 dmax + 1) holds while no pair distance leaves
    that range, and 2 tau max_i |v_i(0)| + F tau^2 <= dmin / 2 keeps every
    pair distance within dmin / 2 of its start.  So a stepped row is
    ruled out when F is finite and that inequality holds, dmin / 2 is
    above COINCIDENCE_THRESHOLD (no FLAG_SINGULAR), an adaptive flow's
    steps, none below dt min(1, (dmin / 2 / REFERENCE_DISTANCE)^1.5), fit
    in MAX_SUBSTEPS (no FLAG_SUBSTEP_LIMIT; both constants are read from
    `dynamics` at each call), and on some phase axis k the
    reachable interval, widened by REACH_SLACK of the row's scale,
    misses the open support interval (c_k - w_k, c_k + w_k).  The pair
    distance condition binds long flows: over the renormalization suite's
    window, tau = 1.8, a stepped flow keeps nearly every row
    (`piecewise_radial` rules out none of the suite's carried rows).

    A flow that `dynamics.closed_form` takes as x + t v feels no force
    and flags no row, so F = 0 and the pair distance, coincidence and
    substep conditions are moot: its row is ruled out when its
    coordinates are finite and its straight path misses the support on
    some axis.  Rows with a NaN or infinite coordinate are never ruled
    out, and a potential whose force_bound is inf rules out none.  Each
    row is bounded on its own, so the rows are taken SAMPLE_BLOCK at a
    time, which bounds the temporaries and leaves the mask as it would be
    in one block.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.empty(x.shape[0], dtype=bool)
    block = dynamics.SAMPLE_BLOCK
    for start in range(0, x.shape[0], block):
        rows = slice(start, start + block)
        out[rows] = _may_reach_block(phi, x[rows], v[rows], potential, t, icfg)
    return out


def reachable_rows(
    box: PhaseBox,
    count: int,
    datum: InitialDatum,
    seed: int,
    phi: TestFunction,
    potential,
    t: float,
    icfg: IntegratorConfig,
):
    """The rows of the (box, seed) sample carrying datum that may meet
    supp phi on a flow to t: (rows, x, v, f0, carried), with rows their
    increasing input indices, x and v their (m, n, d) start states, f0
    their values, and carried the number of rows of the sample with
    f0 != 0.

    The count rows of `sample_ensemble(box, count, datum, seed)` are
    drawn SAMPLE_BLOCK at a time, and of a block only the rows with
    f0 != 0 that `may_reach` keeps outlive it: every other row carries 0,
    or stays outside supp phi, unflagged, at every state of its flow.
    Where every row of a block carries, as under the constant datum,
    may_reach reads the block's own views and no copy of it is gathered.
    So memory grows with the rows kept and one block, not the count, and
    every state and value is bitwise that of the whole draw.  A count
    below 1 raises DomainError.
    """
    nd = box.n * box.d
    kept, carried = [], 0
    for start, z in _draw(box, count, seed, dynamics.SAMPLE_BLOCK):
        f0 = datum.evaluate(z)
        rows = np.flatnonzero(f0)
        carried += rows.size
        if rows.size < len(z):
            z, f0 = z[rows], f0[rows]
        x, v = z[:, :nd].reshape(-1, box.n, box.d), z[:, nd:].reshape(-1, box.n, box.d)
        reach = np.flatnonzero(may_reach(phi, x, v, potential, t, icfg))
        kept.append((start + rows[reach], x[reach], v[reach], f0[reach]))
    rows, x, v, f0 = (np.concatenate(part) for part in zip(*kept))
    return rows, x, v, f0, carried


def _may_reach_block(
    phi: TestFunction, x: np.ndarray, v: np.ndarray, potential, t: float, icfg: IntegratorConfig
) -> np.ndarray:
    """`may_reach` on one block of rows."""
    # component-major (n, d, N) copies, so that every reduction over
    # particles, components or axes runs across the rows
    X, V = dynamics._component_major(x), dynamics._component_major(v)
    n, d, N = X.shape
    nd = n * d
    pos, vel = X.reshape(nd, N), V.reshape(nd, N)
    tau = abs(t)
    stepped = not dynamics.closed_form(potential, icfg)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n > 1 and stepped:
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
            np.isfinite(pos).all(axis=0)
            & np.isfinite(speed)
            & np.isfinite(force)
            & (2.0 * tau * speed + 2.0 * spread <= 0.5 * dmin)
            & (0.5 * dmin > dynamics.COINCIDENCE_THRESHOLD)
        )
        if icfg.adaptive and stepped:
            reference = dynamics.REFERENCE_DISTANCE
            shortest = icfg.dt * np.minimum(1.0, (0.5 * dmin / reference) ** 1.5)
            # one step more for the remainder the clipped steps leave
            safe &= tau / shortest + 2.0 <= dynamics.MAX_SUBSTEPS
        # an interval [m - r - R, m + r + R] misses (c - w, c + w) iff
        # |m - c| - r - w >= R; R is the force term, the same on every
        # position axis (F tau^2 / 2) and on every velocity axis (F tau).
        # The largest gap and coordinate over the axes are folded in one
        # axis at a time through (N,) buffers, so the temporaries stay a
        # few vectors; max is exact and keeps NaN, so they are the maxima
        # over the (n d, N) arrays
        pos_gap, vel_gap = np.full(N, -np.inf), np.full(N, -np.inf)
        pos_top, vel_top = np.zeros(N), np.zeros(N)
        gap, drift = np.empty(N), np.empty(N)
        damped = icfg.velocity_damping != 1.0
        for k in range(nd):
            x_k, v_k = pos[k], vel[k]
            # |x + t v / 2 - c| - |t v / 2| - w
            np.multiply(v_k, 0.5 * t, out=drift)
            np.subtract(np.add(x_k, drift, out=gap), phi.centers[k], out=gap)
            np.subtract(np.abs(gap, out=gap), np.abs(drift, out=drift), out=gap)
            np.maximum(pos_gap, np.subtract(gap, phi.widths[k], out=gap), out=pos_gap)
            np.maximum(pos_top, np.abs(x_k, out=gap), out=pos_top)
            # |v - c| - w, or |v / 2 - c| - |v| / 2 - w under damping
            center, width = phi.centers[nd + k], phi.widths[nd + k]
            if damped:
                np.subtract(np.multiply(v_k, 0.5, out=gap), center, out=gap)
                np.multiply(np.abs(v_k, out=drift), 0.5, out=drift)
                np.subtract(np.abs(gap, out=gap), drift, out=gap)
            else:
                np.abs(np.subtract(v_k, center, out=gap), out=gap)
            np.maximum(vel_gap, np.subtract(gap, width, out=gap), out=vel_gap)
            np.maximum(vel_top, np.abs(v_k, out=gap), out=vel_top)
        # every coordinate, interval end and support end is below scale
        scale = (
            pos_top + vel_top * (1.0 + tau)
            + spread + tau * force + float(np.max(np.abs(phi.centers) + phi.widths))
        )
        pad = REACH_SLACK * scale
        misses = (pos_gap >= spread + pad) | (vel_gap >= tau * force + pad)
        return ~(safe & misses)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported product bump on time x phase space.

    phi(t, z) = b((t - t_center)/t_width) * prod_k b((z_k - c_k)/w_k)
    with z the flattened (x, v) coordinates.  All partial derivatives
    are available in closed form.
    """

    d: int
    n: int
    t_center: float
    t_width: float
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        if centers.shape != (2 * self.n * self.d,) or widths.shape != centers.shape:
            raise DomainError("centers and widths must have length 2 n d")
        if not (self.t_width > 0 and np.all(widths > 0)):
            raise DomainError("test function widths must be positive")
        centers.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    @property
    def time_window(self) -> tuple[float, float]:
        return self.t_center - self.t_width, self.t_center + self.t_width

    def support_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.centers - self.widths, self.centers + self.widths

    def min_support_pair_distance(self) -> float:
        """Smallest pair distance |x_i - x_j| realizable inside the support."""
        lows, highs = self.support_bounds()
        nd = self.n * self.d
        xl = lows[:nd].reshape(self.n, self.d)
        xh = highs[:nd].reshape(self.n, self.d)
        best = math.inf
        for i in range(self.n):
            for j in range(i + 1, self.n):
                # per-axis gap between intervals; zero when they overlap
                gap = np.maximum(
                    0.0, np.maximum(xl[i] - xh[j], xl[j] - xh[i])
                )
                best = min(best, float(np.linalg.norm(gap)))
        return best

    def _axis_factors(self, t: float, z: np.ndarray):
        """Time factor, its slope, and the (2 n d, m) axis factors
        b((z_k - c_k)/w_k) and their slopes of a `_phase_block` z."""
        tval, tprime = bump_pair((t - self.t_center) / self.t_width)
        u = (z - self.centers[:, None]) / self.widths[:, None]
        bvals, bprime = bump_pair(u)
        return float(tval), float(tprime) / self.t_width, bvals, bprime / self.widths[:, None]

    def value(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """phi(t, x, v), evaluated only on the support rows.

        A row outside supp phi has some |z_k - c_k| >= w_k, so its factor
        b((z_k - c_k)/w_k) is exactly 0 and so is phi; NaN rows read 0.
        """
        return self._value_on(t, x, v, self._inside(t, x, v))

    def _value_on(self, t: float, x: np.ndarray, v: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """phi(t, x, v) given the `support_mask(t, x, v)` rows `inside`,
        so a caller that needs the mask as well tests the support once."""
        out = np.zeros(x.shape[0])
        rows = np.flatnonzero(inside)
        if rows.size:
            tval = float(bump(np.asarray((t - self.t_center) / self.t_width)))
            u = (_phase_block(x, v, rows) - self.centers[:, None]) / self.widths[:, None]
            out[rows] = tval * np.prod(bump(u), axis=0)
        return out

    def support_mask(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rows where phi(t, ., .) can be nonzero: t inside the time window
        and |z_k - c_k| < w_k on every phase axis; cheap comparisons only.
        A NaN coordinate never compares inside.  This is the support test
        of the estimators and observables; `value` runs the same test
        through `_inside`, and `_value_on` takes its result as an argument.
        """
        return self._inside(t, x, v)

    def _inside(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The `support_mask` rows as a boolean mask, compared one
        component vector x[:, i, j] at a time (contiguous on the (m, n, d)
        view of a component-major batch)."""
        if abs(t - self.t_center) >= self.t_width:
            return np.zeros(x.shape[0], dtype=bool)
        return _rows_inside(_phase_columns(x, v), self.centers, self.widths)

    def _derivatives(self, t: float, z: np.ndarray):
        """(phi, d phi/dt, grad phi) of a (2 n d, m) `_phase_block` z;
        the gradient is a (2 n d, m) block, x axes first.

        Gradients come from prefix/suffix products down the axis factors,
        so vanishing factors need no special casing.  With K = 2 n d axes,
        prefix[k] is b_0 ... b_{k-1} and after[k] is b_{k+1} ... b_{K-1},
        each multiplied from its outer end, as np.cumprod would; prefix[K]
        is the product of all factors, bitwise np.prod(bvals, axis=0).
        One multiply per axis over the rows replaces a cumprod down axis
        0, which numpy runs one column at a time.
        """
        tval, tprime, bvals, bprime = self._axis_factors(t, z)
        K, m = bvals.shape
        prefix, after = np.empty((K + 1, m)), np.empty((K, m))
        prefix[0] = 1.0
        after[K - 1] = 1.0
        for k in range(K):
            np.multiply(prefix[k], bvals[k], out=prefix[k + 1])
        for k in range(K - 2, -1, -1):
            np.multiply(after[k + 1], bvals[k + 1], out=after[k])
        others = np.multiply(prefix[:K], after, out=after)
        space = prefix[K]
        grads = np.multiply(bprime, tval, out=bprime)
        return tval * space, tprime * space, np.multiply(grads, others, out=grads)

    def transport_pairing(
        self, t: float, x: np.ndarray, v: np.ndarray, acc: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """The transport operator applied to phi along given accelerations:
        d phi/dt + sum_i v_i . grad_{x_i} phi + sum_i a_i . grad_{v_i} phi,
        on the given rows of the (N, n, d) states only.

        Each dot product adds its n d component products left to right,
        which is how numpy sums fewer than 8 terms, so for n d < 8 it is
        bitwise np.sum(v * grad_x, axis=(1, 2)).
        """
        nd = self.n * self.d
        z = _phase_block(x, v, rows)
        _, out, grads = self._derivatives(t, z)
        acc = _phase_block(acc, None, rows)
        for terms, grad in ((z[nd:], grads[:nd]), (acc, grads[nd:])):
            dot = terms[0] * grad[0]
            for k in range(1, nd):
                dot += terms[k] * grad[k]
            out += dot
        return out


def _phase_columns(x: np.ndarray, v: np.ndarray | None) -> list[np.ndarray]:
    """The phase coordinates (x then v, each flattened as x.reshape(N, n d))
    of (N, n, d) states as a list of component vectors x[:, i, j], one per
    axis, each contiguous on the (N, n, d) view of a component-major batch;
    v None leaves out the velocities."""
    _, n, d = x.shape
    return [half[:, i, j] for half in ((x,) if v is None else (x, v))
            for i in range(n) for j in range(d)]


def _rows_inside(columns, centers: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Rows whose coordinate k satisfies |column_k - centers[k]| < halves[k]
    on every axis k, as a boolean mask; a NaN coordinate never compares
    inside.

    Every row is compared on every axis, one column at a time, through two
    reused buffers.  About 86% of the rows pass each axis of a test
    function in the renormalization suite, so gathering the survivors of
    the earlier axes would cost more than it saves.
    """
    N = len(columns[0])
    inside = np.ones(N, dtype=bool)
    gap, hit = np.empty(N), np.empty(N, dtype=bool)
    for column, center, half in zip(columns, centers, halves):
        np.subtract(column, center, out=gap)
        np.less(np.abs(gap, out=gap), half, out=hit)
        inside &= hit
    return inside


def _phase_block(x: np.ndarray, v: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """The given rows of the `_phase_columns` of (N, n, d) states as one
    (2 n d, m) block, one axis per block row; v None leaves out the
    velocities."""
    columns = _phase_columns(x, v)
    z = np.empty((len(columns), rows.size))
    for k, column in enumerate(columns):
        np.take(column, rows, out=z[k])
    return z


def _flatten_phase(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    N, n, d = x.shape
    return np.concatenate([x.reshape(N, n * d), v.reshape(N, n * d)], axis=1)


def random_test_function(
    d: int,
    n: int,
    box: PhaseBox,
    t_center: float,
    t_width: float,
    rng: np.random.Generator,
) -> TestFunction:
    """Random product bump whose phase support lies strictly inside box.

    Each half width is a fraction of the box's half width drawn uniformly
    from TEST_FUNCTION_WIDTH_FRACTION.
    """
    half = (box.highs - box.lows) / 2.0
    mid = (box.highs + box.lows) / 2.0
    frac = rng.uniform(*TEST_FUNCTION_WIDTH_FRACTION, size=half.size)
    widths = frac * half
    slack = half - widths
    centers = mid + rng.uniform(-1.0, 1.0, size=half.size) * slack * 0.9
    return TestFunction(
        d=d, n=n, t_center=t_center, t_width=t_width, centers=centers, widths=widths
    )


# ---------------------------------------------------------------------------
# renormalization


def truncate(values: np.ndarray, m: float) -> np.ndarray:
    """Hard truncation at height m > 0: values clip to [-m, m].

    Composing truncations at heights p >= m equals truncating at m,
    bitwise.  Acceptance criterion 5 tests that ladder identity; no check
    calls this function.
    """
    if not m > 0:
        raise DomainError("truncation height must be positive")
    return np.clip(values, -m, m)


@dataclass(frozen=True)
class BetaFunction:
    """A C^1 bounded renormalizer with a known Lipschitz constant."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    lipschitz: float = 1.0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(values, dtype=float))


def smoothed_clamp(m: float) -> BetaFunction:
    """C^1 clamp: identity on [-(m - delta), m - delta], constant beyond m.

    The corner of the hard clip is rounded over a band of width
    delta = m/100 by integrating a linear ramp, so beta' is continuous.
    """
    if not m > 0:
        raise DomainError("clamp height must be positive")
    delta = m / 100.0

    def fn(x):
        a = np.abs(x)
        core = np.minimum(a, m - delta)
        band = np.clip(a - (m - delta), 0.0, delta)
        rounded = core + band - band * band / (2.0 * delta)
        return np.sign(x) * np.where(a >= m, m - delta / 2.0, rounded)

    return BetaFunction(name=f"smoothed_clamp(m={m:g})", fn=fn, lipschitz=1.0)


def arctan_squash(scale: float = 1.0) -> BetaFunction:
    return BetaFunction(
        name=f"arctan(scale={scale:g})",
        fn=lambda x: scale * np.arctan(x / scale),
        lipschitz=1.0,
    )


def tanh_squash(scale: float = 1.0) -> BetaFunction:
    return BetaFunction(
        name=f"tanh(scale={scale:g})",
        fn=lambda x: scale * np.tanh(x / scale),
        lipschitz=1.0,
    )


def rational_squash(scale: float = 1.0) -> BetaFunction:
    return BetaFunction(
        name=f"rational(scale={scale:g})",
        fn=lambda x: x / (1.0 + (x / scale) ** 2),
        lipschitz=1.0,
    )


def nonneg_squash(scale: float = 1.0) -> BetaFunction:
    """beta(x) = x^2 / (scale^2 + x^2): nonnegative, beta(0) = 0, C^1 bounded.

    The uniqueness functional needs exactly this shape applied to a
    difference of solutions.
    """
    return BetaFunction(
        name=f"nonneg(scale={scale:g})",
        fn=lambda x: x * x / (scale * scale + x * x),
        lipschitz=float(3.0 * math.sqrt(3.0) / (8.0 * scale)),
    )


def shipped_beta_family(m: float = 1.0) -> list[BetaFunction]:
    return [smoothed_clamp(m), arctan_squash(m), tanh_squash(m), rational_squash(m)]


# ---------------------------------------------------------------------------
# weak-form residuals


def simpson_weights(count: int, a: float, b: float) -> np.ndarray:
    if count < 3 or count % 2 == 0:
        raise DomainError("composite Simpson needs an odd node count >= 3")
    h = (b - a) / (count - 1)
    w = np.ones(count)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def require_collision_margin(phi: TestFunction, potential) -> None:
    """CoverageError if the potential is confining and phi's support comes
    within COLLISION_MARGIN of the coincidence set, where its forces
    diverge."""
    if (
        potential.singularity_class == CONFINING_AT_ZERO
        and phi.min_support_pair_distance() < COLLISION_MARGIN
    ):
        raise CoverageError(
            "test function support reaches within the collision margin of"
            " the coincidence set of a confining potential; pass a phi with"
            " separated particle supports"
        )


def residual_window(phi: TestFunction) -> tuple[float, float]:
    """Time integration window: the phi support clipped to t >= 0."""
    t0, t1 = phi.time_window
    if t1 <= 0.0:
        raise DomainError("test function support ends before t = 0")
    return max(0.0, t0), t1


def simpson_walk(x, v, potential, window, nodes: int, icfg: IntegratorConfig, integrand):
    """Composite Simpson sums of an integrand along one flow of the
    (N, n, d) rows x, v.

    The flow runs from 0 to the end b of window = (a, b) and pauses at
    the `nodes` evenly spaced Simpson nodes of [a, b], 4 m + 1 of them,
    so that every other node forms the half-resolution grid, and at
    least icfg.dt apart, which the walk would step by otherwise
    (DomainError for either).  At node k, time
    t, integrand(k, t, batch) reads the live batch (see flow_batch) and
    returns (cols, terms): the (..., len(cols)) terms of the batch
    columns cols, None for every active column.  The walk adds S_k times
    the terms into the full-grid sum of their rows, and at even k the
    half-grid weight times them into the half-grid sum, the composite
    Simpson rule over every other node.  Both sums ride along with the
    rows, allocated at the first node with the shape of its terms.

    `flow_batch` flows the rows SAMPLE_BLOCK at a time, in order, each
    block pausing at every node, so the integrand gets one call per block
    and node, and a new block opens new sums, which its last node writes
    into the rows from batch.first on.  Each row is stepped on its own, so
    the blocks give the same bits.

    Returns the end state (x, v, flags) of the flow and the two sums per
    input row, as (N, ...) arrays; a flagged row reads 0 in both.
    """
    a, b = window
    w_full = simpson_weights(nodes, a, b)
    w_half = simpson_weights((nodes + 1) // 2, a, b)
    if icfg.dt > (b - a) / (nodes - 1):
        raise DomainError(f"dt = {icfg.dt:g} exceeds the node spacing of a {nodes}-node walk")
    times = np.linspace(a, b, nodes)
    # the (N, ...) sums of every row and the block in flight's two sums
    sums, acc = [], []

    def add_node(k, batch):
        cols, terms = integrand(k, float(times[k]), batch)
        if k == 0:
            acc[:] = [batch.track(np.zeros(terms.shape[:-1] + (batch.N,))) for _ in range(2)]
            sums[:] = sums or [np.zeros((len(x),) + terms.shape[:-1]) for _ in range(2)]
        if cols is None:
            cols = slice(None, batch.m)
        full, half = acc
        full[..., cols] += w_full[k] * terms
        if k % 2 == 0:
            half[..., cols] += w_half[k // 2] * terms
        if k == nodes - 1:
            # the last node ends the block's flow: its sums go to its rows
            for per_row, block in zip(sums, acc):
                per_row[batch.first + batch.idx] = np.moveaxis(block[..., : batch.m], -1, 0)

    end = flow_batch(x, v, potential, b, icfg, stops=times, observe=add_node)
    return end, *sums


def weak_residual_suite(
    box: PhaseBox,
    count: int,
    datum: InitialDatum,
    seed: int,
    potential,
    phi: TestFunction,
    value_maps: Sequence[Callable[[np.ndarray], np.ndarray] | None],
    icfg: IntegratorConfig,
    time_factor: Callable[[float], float] | None = None,
) -> list[MCEstimate]:
    """Weak-identity defects of the density datum carries, pushed along
    the flow, against phi: one estimate per value map g, in order, over
    the count rows z_i of the (box, seed) sample,

        sum_i w g(f0_i) [sum_k c(t_k) S_k Dphi(t_k, Y_i(t_k))
                         + c(0) phi(0, z_i)],

    w = vol(box) / count the sample weight, S_k the weights of the
    RESIDUAL_NODES Simpson nodes of `residual_window(phi)`, Dphi the
    transport pairing and the t = 0 boundary term present only when phi's
    time window opens before 0.  It vanishes in expectation for exact
    transport with c = 1 (`time_factor` None); c(t) != 1 is a corruption
    no transported density has.  A value map g(f0) gives the value a row
    carries (None: f0 itself), so a renormalizer beta is its own map.

    datum must be compactly supported inside box, and phi must keep
    `require_collision_margin` (CoverageError otherwise).  Every map must
    send 0 to 0 (renormalization in L^1 needs beta(0) = 0; DomainError
    otherwise, naming each map that does not), so a row with f0 = 0 adds
    exactly 0 wherever it goes.  A row that `may_reach` rules out for a
    flow to the window's end b stays outside supp phi at every state of
    its flow, unflagged, so its bracket is exactly 0 as well.  So only the
    rows that `reachable_rows` keeps are drawn past their block and
    walked, in one `simpson_walk`.  Each node tests supp phi once
    (`support_mask`) and pairs only the rows inside it, with the forces
    of the batch's last step.  The walk keeps one bracket per row, which
    each map weights once, evaluated on the walked rows' f0 alone; each
    map's terms, its bias sum and its half-grid sum are passed on those
    rows to `MCEstimate.from_padded` and `estimates.padded_sum`.  No
    count-length vector is built, and the estimates are bitwise those of
    the count-length terms over `sample_ensemble(box, count, datum,
    seed)`.

    std_error combines the Monte Carlo error with a Richardson estimate
    of the Simpson error (the full grid against the half grid, over 15);
    bias_bound is the pinned O(dt^2) term of an integrator of step
    icfg.dt.  details["carried_rows"] is the number of rows with
    f0 != 0, details["flowed_rows"] the number of those walked, and
    details["seconds"] the wall time of the map's own statistics.
    """
    shifted = [
        getattr(g, "name", repr(g)) for g in value_maps
        if g is not None and g(np.zeros(1))[0] != 0.0
    ]
    if shifted:
        raise DomainError(
            f"value maps {shifted} do not map 0 to 0; renormalization needs beta(0) = 0"
        )
    if datum is None or not datum.has_compact_support:
        raise CoverageError("weak residuals need an initial datum with compact support")
    lo, hi = datum.support_bounds()
    if not box.contains(lo, hi):
        raise CoverageError("initial datum support must lie inside the sampling box")
    require_collision_margin(phi, potential)
    window = residual_window(phi)

    def pairing(k, t, batch):
        # the (m, n, d) views of the batch's (n, d, m) arrays
        x, v, forces = (arr.transpose(2, 0, 1) for arr in (batch.X, batch.V, batch.A))
        # the pairing vanishes off supp phi, so evaluate only there
        cols = np.flatnonzero(phi.support_mask(t, x, v))
        terms = phi.transport_pairing(t, x, v, forces, cols)
        if time_factor is not None:
            terms *= float(time_factor(t))
        return cols, terms

    rows, x0, v0, f0, carried = reachable_rows(
        box, count, datum, seed, phi, potential, window[1], icfg
    )
    (_, _, flags), full, half = simpson_walk(
        x0, v0, potential, window, RESIDUAL_NODES, icfg, pairing
    )
    if phi.time_window[0] < 0.0:
        term0 = phi.value(0.0, x0, v0)
        if time_factor is not None:
            term0 *= float(time_factor(0.0))
        full += term0
        half += term0
    # the walked rows whose flow was flagged; their terms read 0
    flagged = np.flatnonzero(flags != dynamics.FLAG_OK)
    n_active = count - flagged.size
    weight = box.volume / count

    out = []
    for g in value_maps:
        started = time.perf_counter()
        weights = f0 if g is None else g(f0)
        # w g(f0) times each bracket on the walked rows, 0 on the flagged
        terms, half_terms = (weights * acc * weight for acc in (full, half))
        terms[flagged] = half_terms[flagged] = 0.0
        mc = MCEstimate.from_padded(
            count,
            rows,
            terms,
            bias_bound=DT_BIAS_COEFFICIENT * icfg.dt**2 * padded_sum(count, rows, np.abs(terms)),
            sample_count=n_active,
        )
        quad_err = abs(padded_sum(count, rows, half_terms) - mc.estimate) / 15.0
        out.append(replace(
            mc,
            std_error=math.hypot(mc.std_error, quad_err),
            details={
                "flagged_fraction": 1.0 - n_active / count,
                "mc_std_error": mc.std_error,
                "quadrature_error": quad_err,
                "window": window,
                "flowed_rows": int(rows.size),
                "carried_rows": carried,
                "seconds": time.perf_counter() - started,
            },
        ))
    return out


# ---------------------------------------------------------------------------
# collision cutoff boundary term


def collision_boundary_term(
    box: PhaseBox, count: int, datum: InitialDatum, seed: int, mus: Sequence[float]
) -> list[MCEstimate]:
    """(1/mu) integral over {|x_1 - x_2| <= mu} of |f (v_1 - v_2)|, one
    estimate per cutoff radius mu in mus, over the count rows of the
    (box, seed) sample carrying datum.

    This is the boundary term produced by cutting test functions off
    near the coincidence set; it scales like mu^(d-1) for bounded
    densities, which is what makes the cutoff removable for d >= 2.
    The term is that of particles 1 and 2.  The sample is drawn
    SAMPLE_BLOCK rows at a time from the stream of `sample_ensemble`,
    and only the hits of a block, its rows with |x_1 - x_2| <= max(mus),
    outlive it: their row index, pair distance and carried weight
    w |f0| |v_1 - v_2|, with f0 evaluated on the hits alone.  Each radius
    passes carried / mu on its hits, in row order, to
    `MCEstimate.from_padded`, so memory grows with the hits and not the
    count: the estimates are bitwise those of the count-length terms over
    `sample_ensemble(box, count, datum, seed)`, which are never built.
    The widest radius's sample_count is the number of hits held.
    """
    mus = list(mus)
    if any(not mu > 0 for mu in mus):
        raise DomainError(f"cutoff widths mu must be positive, got {mus}")
    if box.n < 2:
        raise DomainError(f"the collision term needs two particles, got n={box.n}")
    # _draw refuses a count below 1 before the weight divides by it
    blocks = _draw(box, count, seed, dynamics.SAMPLE_BLOCK)
    weight = box.volume / count
    nd = box.n * box.d
    reach = max(mus, default=0.0)
    hits = []
    for start, z in blocks:
        rel_x = _pair_distance(z[:, :nd].reshape(-1, box.n, box.d))
        rows = np.flatnonzero(rel_x <= reach)
        near = z[rows]
        carried = np.abs(datum.evaluate(near))
        carried *= weight
        carried *= _pair_distance(near[:, nd:].reshape(-1, box.n, box.d))
        hits.append((start + rows, rel_x[rows], carried))
    index, rel_x, carried = (np.concatenate(part) for part in zip(*hits))
    del hits  # the blocks' copies, so that each hit is held once
    out = []
    for mu in mus:
        inside = np.flatnonzero(rel_x <= mu)
        out.append(
            MCEstimate.from_padded(
                count,
                index[inside],
                carried[inside] / mu,
                sample_count=inside.size,
                details={"mu": mu, "hit_fraction": inside.size / count},
            )
        )
    return out


# ---------------------------------------------------------------------------
# energy cutoff and the level-difference series


@dataclass(frozen=True)
class EnergyCutoff:
    """Smooth cutoff confining mass in space and energy.

    value = step(sqrt(1 + sum |x_i|^2) - (R + 1) exp(Cp (T - t)) - 2)
            * step(E / R^2)

    with step the decreasing smooth step (1 below 1, 0 above 2).  The
    spatial barrier contracts at exponential rate Cp; when Cp dominates
    the speed of every sample inside the energy support, the cutoff
    value is non-increasing along trajectories, which is what makes
    integrals of nonnegative densities against it monotone in time.
    """

    radius: float
    horizon: float
    speed_constant: float

    def __post_init__(self):
        if not (self.radius > 0 and self.horizon > 0 and self.speed_constant > 0):
            raise DomainError("cutoff radius, horizon, and rate must be positive")

    @staticmethod
    def for_potential(potential, n: int, radius: float, horizon: float) -> "EnergyCutoff":
        """Derive a contraction rate that outruns every sample it can see.

        Samples with energy below 2 R^2 and potential bounded below by
        -C (1 + |r|^2) satisfy  speed <= 2R + n sqrt(C) + 2 sqrt(n C) rho
        at spatial radius rho; the returned rate dominates that bound on
        the barrier shell for all t <= horizon.
        """
        c = float(potential.lower_bound_constant)
        rate = (
            2.0 * math.sqrt(n * c)
            + (2.0 * radius + n * math.sqrt(c) + 6.0 * math.sqrt(n * c)) / (radius + 1.0)
        )
        return EnergyCutoff(radius=radius, horizon=horizon, speed_constant=rate)

    def value_batch(self, t: float, x: np.ndarray, v: np.ndarray, potential) -> np.ndarray:
        if t < 0 or t > self.horizon:
            raise DomainError("cutoff evaluated outside [0, horizon]")
        rho = np.sqrt(1.0 + np.sum(x * x, axis=(1, 2)))
        barrier = (self.radius + 1.0) * math.exp(
            self.speed_constant * (self.horizon - t)
        )
        spatial = smooth_step_down(rho - barrier - 2.0)
        energies = _energy_batch(x, v, potential)
        return spatial * smooth_step_down(energies / self.radius**2)


def level_difference_series(
    e0: Ensemble,
    pot_forward,
    pot_backward,
    beta: BetaFunction,
    times: Sequence[float],
    icfg: IntegratorConfig,
) -> tuple[list[tuple[np.ndarray, ...]], list[np.ndarray]]:
    """Series carrying h(t) = beta(f_a(t) - f_b(t)) along the flow of pot_forward.

    f_a is the push-forward of e0.datum, sampled at t = 0, under the
    pot_forward flow; at each snapshot the pot_backward flow runs
    backward to time 0 and f_b is read off as f0 at the arrival point.
    With matching potentials the round trip is the identity up to
    integration error, so h probes the gap between two regularized
    dynamics.

    The forward snapshots come from one flow that pauses at the
    non-decreasing `times`; each leg between two takes the steps of its
    own flow, so the snapshots equal flowing leg by leg, bitwise on
    unflagged rows.  `flow_batch` runs it a block of rows at a time, and
    each block's states at stop k go into its rows of snapshot k.  The
    backward runs are one flow of every snapshot with t_k != 0 stacked,
    with per-row times -t_k, so each row takes the steps of its own
    backward flow and the results are bitwise those of one flow per
    snapshot.  A snapshot at t_k = 0 is not flowed back: a
    flow of length 0 leaves its state as it is and flags no row.

    Returns one (x, v, h, flags) tuple of (N, ...) arrays per snapshot,
    the forward state, h and the larger of the forward and backward
    flags, together with the per-sample round-trip phase displacements
    |roundtrip(z) - z| at each time, which bound |h| via the Lipschitz
    constants of beta and the datum.
    """
    if e0.datum is None:
        raise DomainError("level difference series needs the initial datum")
    z0 = e0.phase_flat()
    N = e0.size
    # the snapshots stacked, block k the state at times[k]
    x = np.empty((len(times) * N, *e0.x.shape[1:]))
    v = np.empty_like(x)
    flags = np.empty((len(times), N), dtype=np.int8)

    def snapshot(k, batch):
        rows = slice(batch.first, batch.first + batch.N)
        batch.result((x[k * N:][rows], v[k * N:][rows], flags[k, rows]))

    flow_batch(e0.x, e0.v, pot_forward, times[-1], icfg, stops=times, observe=snapshot)
    times = np.asarray(times, dtype=float)
    # the times run from 0, so the snapshots at t_k = 0 lead the stack
    skip = N * int(np.count_nonzero(times == 0.0))
    back_x, back_v, back_flags = flow_batch(
        x[skip:], v[skip:], pot_backward, np.repeat(-times, N)[skip:], icfg
    )
    out = []
    displacements = []
    for k, row_flags in enumerate(flags):
        rows = slice(k * N, (k + 1) * N)
        if rows.start < skip:
            z = _flatten_phase(x[rows], v[rows])
        else:
            back = slice(rows.start - skip, rows.stop - skip)
            z = _flatten_phase(back_x[back], back_v[back])
            row_flags = np.maximum(row_flags, back_flags[back])
        h = beta(e0.values - e0.datum.evaluate(z))
        displacements.append(np.sqrt(np.sum((z - z0) ** 2, axis=1)))
        out.append((x[rows], v[rows], h, row_flags))
    return out, displacements
