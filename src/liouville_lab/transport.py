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
from .dynamics import IntegratorConfig, flow_batch, _forces, _energy_batch
from .errors import AlignmentError, CoverageError, DomainError
from .estimates import MCEstimate
from .potentials import CONFINING_AT_ZERO
from .profiles import bump, bump_prime, smooth_step_down
from .rng import rng_for

# suprema of the profile derivatives, used in Lipschitz bounds
MAX_ABS_BUMP_PRIME = 2.170357085707947
MAX_ABS_STEP_PRIME = 1.6571376797382098
MAX_ABS_POLY_PRIME = 1.5396007178387945

# pinned constant for the O(dt^2) discretization bias of second order flows
DT_BIAS_COEFFICIENT = 100.0


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
        if np.any(highs <= lows):
            raise DomainError("box must have positive extent on every axis")
        lows.setflags(write=False)
        highs.setflags(write=False)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @staticmethod
    def centered(d: int, n: int, x_half: float, v_half: float) -> "PhaseBox":
        if x_half <= 0 or v_half <= 0:
            raise DomainError("box half widths must be positive")
        half = np.concatenate([np.full(n * d, x_half), np.full(n * d, v_half)])
        return PhaseBox(lows=-half, highs=half, d=d, n=n)

    @property
    def volume(self) -> float:
        return float(np.prod(self.highs - self.lows))

    def contains(self, lows: np.ndarray, highs: np.ndarray) -> bool:
        return bool(np.all(lows >= self.lows) and np.all(highs <= self.highs))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random((count, self.lows.size))
        return self.lows + u * (self.highs - self.lows)


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
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bump", "smoothed_indicator", "clipped_polynomial", "constant"):
            raise DomainError(f"unknown initial datum kind {self.kind!r}")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        width = np.broadcast_to(np.asarray(self.width, dtype=float), center.shape).copy()
        if np.any(width <= 0):
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
        # the indicator transition of smooth_step_down ends at 2 widths
        reach = 2.0 if self.kind == "smoothed_indicator" else 1.0
        return self.center - reach * self.width, self.center + reach * self.width

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.center.size:
            raise DomainError(f"expected shape (N, {self.center.size}), got {z.shape}")
        if self.kind == "constant":
            return np.full(z.shape[0], self.amplitude)
        u = (z - self.center) / self.width
        if self.kind == "bump":
            axis = bump(u)
        elif self.kind == "clipped_polynomial":
            s = np.maximum(0.0, 1.0 - u * u)
            axis = s * s
        else:
            axis = smooth_step_down(np.abs(u))
        return self.amplitude * np.prod(axis, axis=1)

    def lipschitz_bound(self) -> float:
        """Upper bound on the Euclidean Lipschitz constant of the profile."""
        if self.kind == "constant":
            return 0.0
        per_axis = {
            "bump": MAX_ABS_BUMP_PRIME,
            "clipped_polynomial": MAX_ABS_POLY_PRIME,
            "smoothed_indicator": MAX_ABS_STEP_PRIME,
        }[self.kind]
        return float(self.amplitude * per_axis * np.linalg.norm(1.0 / self.width))


@dataclass(frozen=True)
class Ensemble:
    """Weighted phase-space samples carrying their initial density values.

    `values` holds f0 at the pre-image of each sample, which by volume
    preservation equals f(time, .) at the current sample position.
    Nonzero `flags` mark samples whose flow failed (coincidence or
    substep budget); they are excluded from statistics and their
    fraction is policed by the checks.
    """

    x: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    flags: np.ndarray
    box: PhaseBox
    seed: int
    time: float = 0.0
    datum: InitialDatum | None = None

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    @property
    def active(self) -> np.ndarray:
        return self.flags == dynamics.FLAG_OK

    @property
    def flagged_fraction(self) -> float:
        return float(np.mean(self.flags != dynamics.FLAG_OK))

    def phase_flat(self) -> np.ndarray:
        return _flatten_phase(self.x, self.v)

    def take(self, rows: np.ndarray) -> "Ensemble":
        """The sub-ensemble of the given rows, each keeping its weight and value."""
        return replace(
            self,
            x=self.x[rows],
            v=self.v[rows],
            weights=self.weights[rows],
            values=self.values[rows],
            flags=self.flags[rows],
        )

    def with_values(self, values: np.ndarray) -> "Ensemble":
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise DomainError("replacement values must match sample count")
        return replace(self, values=values)

    def to_csv(self, path) -> None:
        n, d = self.n, self.d
        cols = ["sample_id", "t"]
        cols += [f"x_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
        cols += [f"v_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
        cols += ["weight", "f0_value", "flags"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for j in range(self.size):
                row = [f"{j}", f"{self.time:.17g}"]
                row += [f"{val:.17g}" for val in self.x[j].ravel()]
                row += [f"{val:.17g}" for val in self.v[j].ravel()]
                row += [
                    f"{self.weights[j]:.17g}",
                    f"{self.values[j]:.17g}",
                    f"{int(self.flags[j])}",
                ]
                fh.write(",".join(row) + "\n")


def sample_ensemble(box: PhaseBox, count: int, datum: InitialDatum, seed: int) -> Ensemble:
    """Uniform samples in box with weights vol/N and carried f0 values."""
    if count < 1:
        raise DomainError("sample count must be >= 1")
    rng = rng_for(seed, "ensemble-sampling")
    z = box.sample(rng, count)
    nd = box.n * box.d
    return Ensemble(
        x=z[:, :nd].reshape(count, box.n, box.d),
        v=z[:, nd:].reshape(count, box.n, box.d),
        weights=np.full(count, box.volume / count),
        values=datum.evaluate(z),
        flags=np.zeros(count, dtype=np.int8),
        box=box,
        seed=seed,
        datum=datum,
    )


def push_forward(e: Ensemble, potential, t: float, icfg: IntegratorConfig) -> Ensemble:
    """Flow the ensemble by time t; values ride along unchanged."""
    x, v, flags = flow_batch(e.x, e.v, potential, t, icfg)
    return replace(e, x=x, v=v, flags=np.maximum(e.flags, flags), time=e.time + t)


def evolve_series_iter(
    e: Ensemble, potential, times: Sequence[float], icfg: IntegratorConfig
):
    """Yield ensemble snapshots at the given non-decreasing times >= e.time.

    Generator form: only one snapshot is alive at a time, so long series
    over large ensembles stay within O(N) memory.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise DomainError("snapshot times must be non-decreasing")
    if times and times[0] < e.time:
        raise DomainError("snapshot times must not precede the ensemble time")
    cur = e
    for tk in times:
        cur = push_forward(cur, potential, tk - cur.time, icfg)
        yield cur


def evolve_series(
    e: Ensemble, potential, times: Sequence[float], icfg: IntegratorConfig
) -> list[Ensemble]:
    """Snapshots of the ensemble at the given non-decreasing times >= e.time."""
    return list(evolve_series_iter(e, potential, times, icfg))


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
        if self.t_width <= 0 or np.any(widths <= 0):
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
        ut = (t - self.t_center) / self.t_width
        tval = float(bump(np.asarray(ut)))
        tprime = float(bump_prime(np.asarray(ut))) / self.t_width
        u = (z - self.centers) / self.widths
        bvals = bump(u)
        bprime = bump_prime(u) / self.widths
        return tval, tprime, bvals, bprime

    def value(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        z = _flatten_phase(x, v)
        tval, _, bvals, _ = self._axis_factors(t, z)
        return tval * np.prod(bvals, axis=1)

    def support_mask(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rows where phi(t, ., .) can be nonzero; cheap comparisons only.

        Each axis is compared only on the rows inside all earlier axes,
        which at 100k rows costs a quarter of comparing every axis of
        every row.
        """
        N = x.shape[0]
        inside = np.zeros(N, dtype=bool)
        if abs(t - self.t_center) >= self.t_width:
            return inside
        nd = self.n * self.d
        halves = (x.reshape(N, nd), v.reshape(N, nd))
        rows = np.arange(N)
        for k in range(2 * nd):
            coord = halves[k // nd][rows, k % nd]
            rows = rows[np.abs(coord - self.centers[k]) < self.widths[k]]
        inside[rows] = True
        return inside

    def value_and_gradients(self, t: float, x: np.ndarray, v: np.ndarray):
        """(phi, d phi/dt, grad_x phi, grad_v phi) at scalar time t.

        Gradients come from prefix/suffix products of the axis factors,
        so vanishing factors need no special casing.
        """
        N = x.shape[0]
        z = _flatten_phase(x, v)
        tval, tprime, bvals, bprime = self._axis_factors(t, z)
        m = bvals.shape[1]
        prefix = np.ones((N, m + 1))
        np.cumprod(bvals, axis=1, out=prefix[:, 1:])
        suffix = np.ones((N, m + 1))
        np.cumprod(bvals[:, ::-1], axis=1, out=suffix[:, 1:])
        others = prefix[:, :m] * suffix[:, ::-1][:, 1:]
        space = np.prod(bvals, axis=1)
        phi = tval * space
        dphi_dt = tprime * space
        grads = tval * bprime * others
        nd = self.n * self.d
        gx = grads[:, :nd].reshape(N, self.n, self.d)
        gv = grads[:, nd:].reshape(N, self.n, self.d)
        return phi, dphi_dt, gx, gv

    def transport_pairing(
        self, t: float, x: np.ndarray, v: np.ndarray, acc: np.ndarray
    ) -> np.ndarray:
        """The transport operator applied to phi along given accelerations:
        d phi/dt + sum_i v_i . grad_{x_i} phi + sum_i a_i . grad_{v_i} phi.
        """
        _, dphi_dt, gx, gv = self.value_and_gradients(t, x, v)
        return dphi_dt + np.sum(v * gx, axis=(1, 2)) + np.sum(acc * gv, axis=(1, 2))


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
    width_fraction: tuple[float, float] = (0.55, 0.85),
) -> TestFunction:
    """Random product bump whose phase support lies strictly inside box.

    Width fractions well below ~0.5 of the box make the support so small
    in the 2 n d dimensional phase space that almost no samples visit it,
    leaving residual estimates without statistical power.
    """
    half = (box.highs - box.lows) / 2.0
    mid = (box.highs + box.lows) / 2.0
    frac = rng.uniform(*width_fraction, size=half.size)
    widths = frac * half
    slack = half - widths
    centers = mid + rng.uniform(-1.0, 1.0, size=half.size) * slack * 0.9
    return TestFunction(
        d=d, n=n, t_center=t_center, t_width=t_width, centers=centers, widths=widths
    )


# ---------------------------------------------------------------------------
# renormalization


@dataclass(frozen=True)
class TruncationLevel:
    """Hard truncation at height m: values clip to [-m, m].

    Composing truncations at heights p >= m equals truncating at m,
    bitwise; the renormalization checks rely on that ladder identity.
    """

    m: float

    def __post_init__(self):
        if self.m <= 0:
            raise DomainError("truncation height must be positive")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, -self.m, self.m)


def truncate(values: np.ndarray, m: float) -> np.ndarray:
    return TruncationLevel(m)(values)


@dataclass(frozen=True)
class BetaFunction:
    """A C^1 bounded renormalizer with a known Lipschitz constant."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    lipschitz: float = 1.0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(values, dtype=float))


def smoothed_clamp(m: float, delta: float | None = None) -> BetaFunction:
    """C^1 clamp: identity on [-(m - delta), m - delta], constant beyond m.

    The corner of the hard clip is rounded over a band of width delta
    (default m/100) by integrating a linear ramp, so beta' is continuous.
    """
    if m <= 0:
        raise DomainError("clamp height must be positive")
    if delta is None:
        delta = m / 100.0
    if not (0.0 < delta <= m):
        raise DomainError("clamp smoothing width must lie in (0, m]")

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


def residual_window(phi: TestFunction) -> tuple[float, float]:
    """Time integration window: the phi support clipped to t >= 0."""
    t0, t1 = phi.time_window
    if t1 <= 0.0:
        raise DomainError("test function support ends before t = 0")
    return max(0.0, t0), t1


def simpson_times(phi: TestFunction, count: int = 65) -> np.ndarray:
    """Simpson node times for the residual window; count must be 4m + 1
    so the estimate can be re-evaluated on the half-resolution grid.

    Counts below ~65 leave composite Simpson pre-asymptotic for bump
    windows of order one, which breaks the Richardson error estimate.
    """
    if count < 5 or (count - 1) % 4 != 0:
        raise DomainError("node count must be 4 m + 1 with m >= 1")
    a, b = residual_window(phi)
    return np.linspace(a, b, count)


@dataclass(frozen=True)
class ResidualTerms:
    """Per-row sums of the weak-identity defect, before any statistic.

    Row i of acc_full[m] holds sum_k S_k g_m(f0)_i Dphi(t_k, Y_i(t_k)) plus
    the t = 0 boundary term g_m(f0)_i phi(0, z_i); acc_half[m] holds the
    same on the half-resolution Simpson grid.  `active` marks rows that no
    snapshot flagged and `weights` are the ensemble weights.  map_seconds[m]
    is the time map m's own terms took inside the accumulation loop.
    """

    acc_full: np.ndarray
    acc_half: np.ndarray
    active: np.ndarray
    weights: np.ndarray
    window: tuple[float, float]
    map_seconds: np.ndarray

    def scatter(self, rows: np.ndarray, weights: np.ndarray) -> "ResidualTerms":
        """These terms, summed over the given rows of a larger ensemble with
        `weights`, as the terms of that ensemble: every other row is active
        and sums to 0."""
        acc_full = np.zeros((self.acc_full.shape[0], weights.size))
        acc_half = np.zeros_like(acc_full)
        active = np.ones(weights.size, dtype=bool)
        acc_full[:, rows] = self.acc_full
        acc_half[:, rows] = self.acc_half
        active[rows] = self.active
        return replace(
            self, acc_full=acc_full, acc_half=acc_half, active=active, weights=weights
        )


def weak_residual_terms(
    series,
    potential,
    phi: TestFunction,
    value_maps: Sequence[Callable[[np.ndarray], np.ndarray] | None],
    count: int = 65,
    collision_margin: float = 1e-3,
) -> ResidualTerms:
    """The per-row accumulation step of weak_residual_suite; see there."""
    a, b = residual_window(phi)
    expected = simpson_times(phi, count)
    w_full = simpson_weights(count, a, b)
    w_half = simpson_weights((count + 1) // 2, a, b)
    t0, _ = phi.time_window
    n_maps = len(value_maps)
    map_seconds = np.zeros(n_maps)

    acc_full = acc_half = active = None
    e0 = None
    k = -1
    for k, e in enumerate(series):
        if k >= count:
            raise AlignmentError(f"series has more than {count} snapshots")
        if abs(e.time - expected[k]) > 1e-9:
            raise AlignmentError(
                f"snapshot {k} at t={e.time:g} does not match Simpson node {expected[k]:g}"
            )
        if k == 0:
            e0 = e
            if e0.datum is None or not e0.datum.has_compact_support:
                raise CoverageError(
                    "weak residuals need an initial datum with compact support"
                )
            lo, hi = e0.datum.support_bounds()
            if not e0.box.contains(lo, hi):
                raise CoverageError(
                    "initial datum support must lie inside the sampling box"
                )
            if phi.min_support_pair_distance() < collision_margin and getattr(
                potential, "singularity_class", None
            ) == CONFINING_AT_ZERO:
                raise CoverageError(
                    "test function support reaches within the collision margin of"
                    " the coincidence set of a confining potential"
                )
            acc_full = np.zeros((n_maps, e0.size))
            acc_half = np.zeros((n_maps, e0.size))
            active = np.ones(e0.size, dtype=bool)
            if t0 < 0.0:
                phi0 = phi.value(0.0, e0.x, e0.v)
                for m, g in enumerate(value_maps):
                    started = time.perf_counter()
                    term0 = (e0.values if g is None else g(e0.values)) * phi0
                    acc_full[m] += term0
                    acc_half[m] += term0
                    map_seconds[m] += time.perf_counter() - started
        active &= e.flags == dynamics.FLAG_OK
        # the pairing vanishes off supp phi, so evaluate only there
        inside = phi.support_mask(e.time, e.x, e.v)
        if not np.any(inside):
            continue
        idx = inside.nonzero()[0]
        forces, _ = _forces(e.x[idx], potential)
        pairing_in = phi.transport_pairing(e.time, e.x[idx], e.v[idx], forces)
        for m, g in enumerate(value_maps):
            started = time.perf_counter()
            vals = e.values[idx] if g is None else g(e.values[idx])
            term = vals * pairing_in
            acc_full[m, idx] += w_full[k] * term
            if k % 2 == 0:
                acc_half[m, idx] += w_half[k // 2] * term
            map_seconds[m] += time.perf_counter() - started
    if e0 is None or k != count - 1:
        raise AlignmentError(f"series ended early: expected {count} snapshots")
    return ResidualTerms(
        acc_full=acc_full,
        acc_half=acc_half,
        active=active,
        weights=e0.weights,
        window=(a, b),
        map_seconds=map_seconds,
    )


def weak_residual_statistics(
    terms: ResidualTerms, step_size: float | None = None
) -> list[MCEstimate]:
    """One estimate per value map from the per-row sums; see weak_residual_suite."""
    size = terms.weights.size
    n_active = int(np.sum(terms.active))
    out = []
    for m in range(terms.acc_full.shape[0]):
        xi = np.where(terms.active, terms.weights * terms.acc_full[m], 0.0)
        estimate = float(np.sum(xi))
        se_mc = float(np.std(xi, ddof=1) * math.sqrt(size))
        coarse = float(np.sum(np.where(terms.active, terms.weights * terms.acc_half[m], 0.0)))
        quad_err = abs(coarse - estimate) / 15.0
        bias = 0.0
        if step_size is not None:
            bias = DT_BIAS_COEFFICIENT * step_size**2 * float(np.sum(np.abs(xi)))
        out.append(
            MCEstimate(
                estimate=estimate,
                std_error=math.hypot(se_mc, quad_err),
                bias_bound=bias,
                sample_count=n_active,
                details={
                    "flagged_fraction": 1.0 - n_active / size,
                    "mc_std_error": se_mc,
                    "quadrature_error": quad_err,
                    "window": terms.window,
                },
            )
        )
    return out


def weak_residual_suite(
    series,
    potential,
    phi: TestFunction,
    value_maps: Sequence[Callable[[np.ndarray], np.ndarray] | None],
    count: int = 65,
    collision_margin: float = 1e-3,
    step_size: float | None = None,
) -> list[MCEstimate]:
    """Weak-identity defects for several renormalizers in one series pass.

    Each map g gives the estimate  sum_k S_k sum_i w_i g(f0)_i
    Dphi(t_k, Y_i(t_k)) + sum_i w_i g(f0)_i phi(0, z_i),  which vanishes
    in expectation for exact transport (g = None means the identity).
    `series` is any iterable (a generator is fine) of ensembles sampled
    exactly at simpson_times(phi, count).  std_error combines the Monte
    Carlo error with a Richardson estimate of the Simpson error;
    bias_bound is the pinned O(dt^2) discretization term when the
    integrator step is supplied.

    The two steps, weak_residual_terms and weak_residual_statistics, can
    also be run apart: terms summed over some rows of an ensemble and
    scattered back (ResidualTerms.scatter) give the statistics of the
    whole ensemble when the other rows would have summed to 0.
    """
    terms = weak_residual_terms(
        series, potential, phi, value_maps, count=count, collision_margin=collision_margin
    )
    return weak_residual_statistics(terms, step_size=step_size)


def weak_residual(
    series,
    potential,
    phi: TestFunction,
    value_map: Callable[[np.ndarray], np.ndarray] | None = None,
    count: int = 65,
    collision_margin: float = 1e-3,
    step_size: float | None = None,
) -> MCEstimate:
    """Single-map form of weak_residual_suite; see there for semantics."""
    if hasattr(series, "__len__"):
        count = len(series)
    return weak_residual_suite(
        series,
        potential,
        phi,
        [value_map],
        count=count,
        collision_margin=collision_margin,
        step_size=step_size,
    )[0]


# ---------------------------------------------------------------------------
# collision cutoff boundary term


def collision_boundary_term(
    e: Ensemble, mu: float, pair: tuple[int, int] = (0, 1)
) -> MCEstimate:
    """(1/mu) integral over {|x_i - x_j| <= mu} of |f (v_i - v_j)|.

    This is the boundary term produced by cutting test functions off
    near the coincidence set; it scales like mu^(d-1) for bounded
    densities, which is what makes the cutoff removable for d >= 2.
    """
    if mu <= 0:
        raise DomainError("cutoff width mu must be positive")
    i, j = pair
    if not (0 <= i < e.n and 0 <= j < e.n and i != j):
        raise DomainError(f"invalid particle pair {pair} for n={e.n}")
    rel_x = np.linalg.norm(e.x[:, i, :] - e.x[:, j, :], axis=-1)
    rel_v = np.linalg.norm(e.v[:, i, :] - e.v[:, j, :], axis=-1)
    inside = (rel_x <= mu) & (e.flags == dynamics.FLAG_OK)
    xi = np.where(inside, e.weights * np.abs(e.values) * rel_v / mu, 0.0)
    return MCEstimate(
        estimate=float(np.sum(xi)),
        std_error=float(np.std(xi, ddof=1) * math.sqrt(e.size)),
        sample_count=int(np.sum(inside)),
        details={"mu": mu, "hit_fraction": float(np.mean(inside))},
    )


# ---------------------------------------------------------------------------
# energy cutoff and the uniqueness functional


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
        if self.radius <= 0 or self.horizon <= 0 or self.speed_constant <= 0:
            raise DomainError("cutoff radius, horizon, and rate must be positive")

    @staticmethod
    def for_potential(potential, n: int, radius: float, horizon: float) -> "EnergyCutoff":
        """Derive a contraction rate that outruns every sample it can see.

        Samples with energy below 2 R^2 and potential bounded below by
        -C (1 + |r|^2) satisfy  speed <= 2R + n sqrt(C) + 2 sqrt(n C) rho
        at spatial radius rho; the returned rate dominates that bound on
        the barrier shell for all t <= horizon.
        """
        c = float(getattr(potential, "lower_bound_constant", 0.0))
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

    def value(self, t: float, cfg: dynamics.Configuration, potential) -> float:
        return float(self.value_batch(t, cfg.x[None], cfg.v[None], potential)[0])


def uniqueness_functional(
    h_series: Sequence[Ensemble], cutoff: EnergyCutoff, potential
) -> tuple[np.ndarray, np.ndarray]:
    """F(t_k) = sum_i w_i h_i(t_k) cutoff(t_k, Y_i(t_k)) with standard errors.

    For h = beta(difference of two solutions) with beta >= 0, F must be
    non-increasing; comparing a solution with itself must give F = 0 up
    to discretization.
    """
    values = np.empty(len(h_series))
    errors = np.empty(len(h_series))
    for k, e in enumerate(h_series):
        phi = cutoff.value_batch(e.time, e.x, e.v, potential)
        xi = np.where(e.active, e.weights * e.values * phi, 0.0)
        values[k] = float(np.sum(xi))
        errors[k] = float(np.std(xi, ddof=1) * math.sqrt(e.size))
    return values, errors


def level_difference_series(
    e0: Ensemble,
    make_potential: Callable[[int], object],
    level_forward: int,
    level_backward: int,
    beta: BetaFunction,
    times: Sequence[float],
    icfg: IntegratorConfig,
) -> tuple[list[Ensemble], list[np.ndarray]]:
    """Series carrying h(t) = beta(f_a(t) - f_b(t)) along the level-a flow.

    f_a is the push-forward of e0.datum under the level_forward flow; at
    each snapshot the level_backward flow runs backward to time 0 and
    f_b is read off as f0 at the arrival point.  With matching levels
    the round trip is the identity up to integration error, so h probes
    the gap between the two regularized dynamics.

    Returns the series together with the per-sample round-trip phase
    displacements |roundtrip(z) - z| at each time, which bound |h| via
    the Lipschitz constants of beta and the datum.
    """
    if e0.datum is None:
        raise DomainError("level difference series needs the initial datum")
    pot_fwd = make_potential(level_forward)
    pot_bwd = make_potential(level_backward)
    out = []
    displacements = []
    cur = e0
    for tk in times:
        cur = push_forward(cur, pot_fwd, tk - cur.time, icfg)
        back_x, back_v, back_flags = flow_batch(cur.x, cur.v, pot_bwd, -tk, icfg)
        z = _flatten_phase(back_x, back_v)
        f_b = e0.datum.evaluate(z)
        h = beta(cur.values - f_b)
        displacements.append(np.sqrt(np.sum((z - e0.phase_flat()) ** 2, axis=1)))
        out.append(
            replace(cur, values=h, flags=np.maximum(cur.flags, back_flags))
        )
    return out, displacements


# ---------------------------------------------------------------------------
# pointwise combination of aligned ensembles


def combine_solutions(
    op: Callable[..., np.ndarray], ensembles: Sequence[Ensemble]
) -> np.ndarray:
    """Apply op to the value arrays of ensembles sharing identical samples.

    All inputs must agree bitwise on time, positions, and velocities;
    means drawn from different sample sets cannot be combined pointwise
    and raise AlignmentError instead.
    """
    if not ensembles:
        raise DomainError("need at least one ensemble")
    ref = ensembles[0]
    for e in ensembles[1:]:
        if e.time != ref.time:
            raise AlignmentError("ensembles combined at different times")
        if e.x.shape != ref.x.shape:
            raise AlignmentError("ensembles have different sample shapes")
        if not (np.array_equal(e.x, ref.x) and np.array_equal(e.v, ref.v)):
            raise AlignmentError("ensembles do not share sample points")
    return op(*[e.values for e in ensembles])
