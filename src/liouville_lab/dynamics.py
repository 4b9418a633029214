"""Hamiltonian particle dynamics driven by a pair potential.

State is n particles in R^d with positions x and velocities v.  The
vector field is

    dx_i/dt = v_i,      dv_i/dt = - sum_{j != i} grad V(x_i - x_j),

integrated by velocity Verlet, the one stepper: it is symplectic, so it
preserves phase volume, and exactly time reversible, both of which the
flow checks rely on.  Near-coincident pairs make singular potentials
stiff, so an adaptive mode shrinks the step with the minimum pair
distance.  Batch drivers propagate whole Monte Carlo ensembles at once
and flag (rather than raise on) samples that hit a coincidence or the
substep budget.

Internally a batch of N states is component-major: positions,
velocities and accelerations are (n, d, N) arrays, each particle
component one contiguous vector over the batch, updated in place in
buffers allocated once per call.  `flow_batch` keeps (N, n, d) arrays
at its boundary and transposes once on entry and once on exit.  Forces
go through one `gradient_batch` call per evaluation on the (P*N, d)
transposed view of all P pair displacements.  The pair radii |x_i - x_j|
are taken once per evaluation, for the minimum pair distance, and the
same (P*N,) vector is handed to `gradient_batch(r, radii=...)`, so no
potential takes them again.  Every step performs the
same floating-point operations, in the same order, as the row-major
textbook form (`v + 0.5 dt a`, then `x + dt v`, ...), and only the
active rows are stepped, so results are bitwise those of stepping each
row on its own (numpy sums fewer than 8 components left to right, which
holds for d < 8).

A flow may pause at stops on its way to t.  The legs between stops are
stepped one after another on the same batch, and each takes exactly the
steps of a flow over that leg alone: fixed steps count and budget per
leg, and adaptive steps are clipped to what is left of the leg.  An
adaptive row that finishes a leg early is parked behind the active rows
until the leg ends, and a row frozen by a flag is retired behind the
parked ones: every row stays in the batch for the whole flow.  At each
stop an observer sees the live batch, including the forces of its last
step.  Parking and retiring move rows by swapping columns, so the batch
keeps no input order: `idx`, a permutation, maps each column back to
its input row, and every per-row result is scattered through it.

A flow without stops may instead give each row a time of its own, all
of one sign: every row takes the steps of its own flow and is parked
once done.  Under a `MollifiedLadder` each row carries the member it
flows under, and one force evaluation serves the rows of every member.

`flow_batch` and `integrate`, which records a one-row flow step by step,
run on one flow, `_flow`: the one place that builds a `_Batch` and picks
its runner.  `flow_batch`, the one block loop, runs `_flow` on
SAMPLE_BLOCK rows at a time, each pausing at every stop, so its buffers
stay the size of one block; each row is stepped on its own, so the
blocks give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, SubstepLimitError
from .potentials import MollifiedLadder

COINCIDENCE_THRESHOLD = 1e-12

FLAG_OK = 0
FLAG_SINGULAR = 1
FLAG_SUBSTEP_LIMIT = 2

# adaptive steps shrink below this min pair distance: the local step is
# dt * min(1, (dmin / REFERENCE_DISTANCE)^(3/2))
REFERENCE_DISTANCE = 0.5
# a budget per leg: each `flow_batch` call, and each leg between two of
# its stops, may take that many steps, whatever its length
MAX_SUBSTEPS = 1_000_000
# rows per block of a flow, and of the samples that
# `transport` draws and reduces, which bounds their buffers
SAMPLE_BLOCK = 1 << 14

_SCHEMES = ("velocity_verlet",)


@dataclass(frozen=True)
class IntegratorConfig:
    """Time stepping controls.

    `scheme` names the stepper; velocity Verlet is the only one.
    `adaptive` shrinks the step near pair coincidences, below
    REFERENCE_DISTANCE; every leg may take MAX_SUBSTEPS steps.
    `velocity_damping` < 1 deliberately dissipates energy; it exists for
    negative controls and must stay 1 for physical runs.
    """

    scheme: str = "velocity_verlet"
    dt: float = 1e-3
    adaptive: bool = False
    velocity_damping: float = 1.0

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}, pick from {_SCHEMES}")
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if not (0.0 < self.velocity_damping <= 1.0):
            raise DomainError("velocity_damping must lie in (0, 1]")


@dataclass
class Trajectory:
    """The states `integrate` recorded: the start, then one row per step,
    each with its time, total energy and min pair distance."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    energies: np.ndarray
    min_distances: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    def to_csv(self, path, stride: int = 1) -> None:
        if stride < 1:
            raise DomainError("stride must be >= 1")
        n, d = self.n, self.d
        cols = ["t"]
        cols += [f"x_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
        cols += [f"v_{i + 1}_{k + 1}" for i in range(n) for k in range(d)]
        cols += ["E", "dmin"]
        idx = np.arange(0, self.times.size, stride)
        if idx[-1] != self.times.size - 1:
            idx = np.append(idx, self.times.size - 1)
        rows = np.column_stack(
            [
                self.times[idx],
                self.x[idx].reshape(idx.size, n * d),
                self.v[idx].reshape(idx.size, n * d),
                self.energies[idx],
                self.min_distances[idx],
            ]
        )
        line = ",".join(["%.17g"] * len(cols)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            fh.writelines(line % tuple(row) for row in rows.tolist())


# ---------------------------------------------------------------------------
# component-major core: a batch of N states lives in (n, d, N) arrays


def _component_major(x) -> np.ndarray:
    """(N, n, d) -> a C-contiguous (n, d, N) copy."""
    return np.moveaxis(np.asarray(x, dtype=float), 0, -1).copy()


def _row_major(x: np.ndarray) -> np.ndarray:
    """(n, d, N) -> a C-contiguous (N, n, d) copy."""
    return np.moveaxis(x, -1, 0).copy()


class _PairForces:
    """Pair displacements, distances and accelerations of (n, d, m) states.

    The displacements x_i - x_j of all P pairs i < j share one (d, P, m)
    block, so a single `gradient_batch` call on its (P*m, d) transposed
    view serves every pair, with the (P*m,) pair radii that
    `min_distance` takes.  Under a `MollifiedLadder`, `member` holds the
    member of each row, and every pair of the row evaluates under it.
    Buffers hold up to `capacity` rows; `resize` re-views them for the
    current row count.
    """

    def __init__(self, n: int, d: int, capacity: int, potential, member=None):
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.potential = potential
        self.member = member
        self.d = d
        size = len(self.pairs) * capacity
        self._disp = np.empty(d * size)
        self._sq = np.empty(d * size)
        self._rad = np.empty(size)
        self.resize(capacity)

    def resize(self, m: int) -> None:
        P, d = len(self.pairs), self.d
        self.m = m
        self.R = self._disp[: d * P * m].reshape(d, P, m)
        self.rows = self.R.reshape(d, P * m).T
        self.per_pair = [self.R[:, p] for p in range(P)]
        self._squares = self._sq[: d * P * m].reshape(d, P * m)
        self.radii = self._rad[: P * m]

    def displace(self, X: np.ndarray) -> None:
        for (i, j), r in zip(self.pairs, self.per_pair):
            np.subtract(X[i], X[j], out=r)

    def min_distance(self, dmin: np.ndarray) -> np.ndarray:
        """Min over pairs of |x_i - x_j| of the displaced pairs into dmin;
        returns the (P*m,) radii of every pair, which for a single pair
        is dmin itself.  The components are summed in order, as numpy
        sums fewer than 8, so each radius is bitwise
        sqrt(sum(r * r, axis=-1)) of its row of `rows`."""
        R = self.rows.T
        sq = np.multiply(R, R, out=self._squares)
        total = sq[0]
        if self.d > 1:
            total = np.add(sq[0], sq[1], out=self.radii)
            for k in range(2, self.d):
                np.add(total, sq[k], out=total)
        if len(self.pairs) == 1:
            return np.sqrt(total, out=dmin)
        np.sqrt(total, out=self.radii)
        np.min(self.radii.reshape(len(self.pairs), self.m), axis=0, out=dmin)
        return self.radii

    def values(self, X: np.ndarray) -> np.ndarray:
        """Pair potential values, one row per pair."""
        self.displace(X)
        return np.asarray(self.potential.value_batch(self.rows)).reshape(len(self.pairs), self.m)

    def accelerate(self, X: np.ndarray, A: np.ndarray, dmin: np.ndarray) -> None:
        """A = -sum_j grad V(x_i - x_j), accumulated pair by pair in i < j
        order from zero; dmin gets the min pair distance."""
        if not self.pairs:
            A.fill(0.0)
            dmin.fill(np.inf)
            return
        self.displace(X)
        radii = self.min_distance(dmin)
        m, single = self.m, len(self.pairs) == 1
        if self.member is None:
            G = self.potential.gradient_batch(self.rows, radii=radii).T
        else:
            member = np.tile(self.member[:m], len(self.pairs))
            G = self.potential.gradient_batch(self.rows, radii, member).T
        for p, (i, j) in enumerate(self.pairs):
            g = G if single else G[:, p * m : (p + 1) * m]
            # a particle's first term is 0 -/+ g, as on a zeroed A
            if p == 0:
                np.subtract(0.0, g, out=A[i])
            else:
                np.subtract(A[i], g, out=A[i])
            if i == 0:
                np.add(0.0, g, out=A[j])
            else:
                np.add(A[j], g, out=A[j])


class _Batch:
    """Every row of one flow, component-major.

    The columns of the (n, d, N) buffers X, V, A (positions, velocities,
    accelerations at X), of `dmin`, of `idx` (the input row of each
    column) and of every `track`ed array form three blocks, each in no
    particular order: active [0, m), parked [m, live), retired [live, N).
    `step` and `retire_singular` see only the active rows.  A row that
    finishes an adaptive leg, or its own flow time, early is parked
    (`park`) until the leg ends (`unpark`).  `retire` freezes rows with a
    flag for good.  Under a `MollifiedLadder`, `member` gives the member
    each row flows under, and is tracked with the rows.
    """

    def __init__(self, x, v, potential, icfg: IntegratorConfig, member=None):
        N, n, d = np.shape(x)
        self.N = N
        self.damping = icfg.velocity_damping
        self._X = _component_major(x)
        self._V = _component_major(v)
        self._A = np.empty_like(self._X)
        self._S = np.empty_like(self._X)
        self._dmin = np.empty(N)
        self._idx = np.arange(N)
        # h/2 of each row when steps differ per row
        self._half = np.empty(N)
        # per-row arrays whose last axis follows the rows when they move
        self._per_row = [self._X, self._V, self._A, self._dmin, self._idx]
        if member is not None:
            member = self.track(np.array(member))
        self.forces = _PairForces(n, d, N, potential, member)
        self.flags = np.zeros(N, dtype=np.int8)
        self.live = N
        self._resize(N)
        self.forces.accelerate(self.X, self.A, self.dmin)

    def _resize(self, m: int) -> None:
        self.m = m
        self.X, self.V, self.A = self._X[..., :m], self._V[..., :m], self._A[..., :m]
        self.S = self._S[..., :m]
        self.dmin, self.idx = self._dmin[:m], self._idx[:m]
        self.half = self._half[:m]
        self.forces.resize(m)

    def track(self, values: np.ndarray) -> np.ndarray:
        """Register an array with one column per row (last axis N) that
        moves with the rows."""
        self._per_row.append(values)
        return values

    def _swap(self, a: np.ndarray, b: np.ndarray) -> None:
        """Trade the columns a and b of every per-row array."""
        dst, src = np.concatenate([a, b]), np.concatenate([b, a])
        for values in self._per_row:
            values[..., dst] = values[..., src]

    def _swap_out(self, mask: np.ndarray) -> int:
        """Move the active rows in mask behind the other active rows,
        which then form the new active range; returns how many moved."""
        k = int(np.count_nonzero(mask))
        cut = self.m - k
        # rows in mask ahead of the cut trade places with rows not in
        # mask behind it, so only 2 min(k, m - k) columns move
        ahead = np.flatnonzero(mask[:cut])
        if ahead.size:
            self._swap(ahead, cut + np.flatnonzero(~mask[cut:]))
        self._resize(cut)
        return k

    def park(self, mask: np.ndarray) -> None:
        """Stop stepping the active rows in mask until `unpark`."""
        if mask.any():
            self._swap_out(mask)

    def unpark(self) -> None:
        """Make every live row active again."""
        self._resize(self.live)

    def retire(self, mask: np.ndarray, flag: int) -> None:
        """Freeze the active rows in mask with flag for good."""
        if not mask.any():
            return
        self.flags[self.idx[mask]] = flag
        k = self._swap_out(mask)
        # the frozen rows now sit at [m, m + k), ahead of the parked ones,
        # and trade places with the last parked rows
        moved = min(k, self.live - self.m - k)
        self._swap(np.arange(self.m, self.m + moved), np.arange(self.live - moved, self.live))
        self.live -= k

    def retire_singular(self) -> None:
        """Freeze with FLAG_SINGULAR the active rows whose min pair
        distance is below the threshold or NaN."""
        # minimum propagates NaN, so this tests for such a row in one pass
        if self.m and not np.minimum.reduce(self.dmin) >= COINCIDENCE_THRESHOLD:
            self.retire(~(self.dmin >= COINCIDENCE_THRESHOLD), FLAG_SINGULAR)

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh (N, n, d) states of every row in input order, frozen
        ones as they retired, and the flags."""
        shape = (self.N,) + self._X.shape[:2]
        out_x, out_v = np.empty(shape), np.empty(shape)
        out_x[self._idx] = np.moveaxis(self._X, -1, 0)
        out_v[self._idx] = np.moveaxis(self._V, -1, 0)
        return out_x, out_v, self.flags.copy()

    def step(self, h) -> None:
        """Advance every active row by h, a scalar or one step per row:
        kick by h/2, drift by h, kick by h/2 with the forces at the new x."""
        half = np.multiply(h, 0.5, out=self.half) if isinstance(h, np.ndarray) else 0.5 * h
        X, V, A, S = self.X, self.V, self.A, self.S
        np.add(V, np.multiply(A, half, out=S), out=V)
        np.add(X, np.multiply(V, h, out=S), out=X)
        self.forces.accelerate(X, A, self.dmin)
        np.add(V, np.multiply(A, half, out=S), out=V)
        if self.damping != 1.0:
            np.multiply(V, self.damping, out=V)


def _forces(x: np.ndarray, potential) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations -sum_j grad V(x_i - x_j) of an (N, n, d) batch and
    its min pair distance."""
    X = _component_major(x)
    A = np.empty_like(X)
    dmin = np.empty(X.shape[-1])
    _PairForces(*X.shape, potential).accelerate(X, A, dmin)
    return _row_major(A), dmin


def _energy_batch(x: np.ndarray, v: np.ndarray, potential) -> np.ndarray:
    e = 0.5 * np.sum(v * v, axis=(1, 2))
    X = _component_major(x)
    pairs = _PairForces(*X.shape, potential)
    if pairs.pairs:
        for values in pairs.values(X):
            e += values
    return e


def _fixed_plan(leg: float, icfg: IntegratorConfig) -> tuple[float, int, float, int]:
    """(sign, whole steps, remainder, steps taken) of a fixed-step leg;
    raises if the steps taken exceed the budget."""
    sgn = 1.0 if leg > 0 else -1.0
    nsteps = int(math.floor(abs(leg) / icfg.dt + 1e-12))
    rem = leg - sgn * nsteps * icfg.dt
    total = nsteps + int(abs(rem) > 1e-9 * max(1.0, abs(leg)))
    if total > MAX_SUBSTEPS:
        raise SubstepLimitError(f"{total} fixed steps exceed the budget of {MAX_SUBSTEPS}")
    return sgn, nsteps, rem, total


def _run_fixed(batch: _Batch, legs, icfg, hook=None):
    """Step each leg with fixed steps; yields after every leg.  Each row
    takes the whole steps and the remainder of the plan of its leg, and
    is parked once done; the only leg of a flow may be an array of
    per-row times.  hook(t, batch) sees each step of a scalar leg that
    leaves a row active, t its time into the leg."""
    # the distinct times of each leg and their (whole steps, remainder,
    # steps taken) plans, all held to the budget up front
    legs = [np.unique(np.atleast_1d(leg), return_inverse=True) for leg in legs]
    plans = [np.array([_fixed_plan(tau, icfg)[1:] for tau in times.tolist()]).reshape(-1, 3)
             for times, _ in legs]
    # the plan of each row, as floats
    nsteps, rem, total = plan = batch.track(np.empty((3, batch.N)))
    for (times, row), steps in zip(legs, plans):
        # every live row is active when a leg starts; per-row times come
        # with the columns in input order
        plan[:, : batch.m] = steps.T[:, row]
        sgn = -1.0 if np.any(times < 0.0) else 1.0
        # rows with a leg of length 0, no steps and no remainder, stay put
        batch.park((nsteps[: batch.m] == 0.0) & (rem[: batch.m] == 0.0))
        batch.retire_singular()
        # the steps at which rows are done, and those at which rows take
        # their remainder
        done = set(steps[:, 2].tolist())
        last = set(steps[steps[:, 2] > steps[:, 0], 0].tolist())
        for k in range(int(steps[:, 2].max(initial=0))):
            if k in done:
                batch.park(total[: batch.m] <= k)
            if not batch.m:
                break
            h = sgn * icfg.dt
            if k in last:
                h = np.where(nsteps[: batch.m] == k, rem[: batch.m], h)
            batch.step(h)
            batch.retire_singular()
            if hook is not None and batch.m:
                hook(times[0] if k in last else h * (k + 1), batch)
        batch.unpark()
        yield


def _run_adaptive(batch: _Batch, legs, icfg, hook=None):
    """Step each leg with per-row steps shrunk near pair coincidences;
    rows that finish a leg early are parked until it ends.  The only leg
    of a flow may be an array of per-row times.  hook(t, batch)
    sees every step, t the first active row's time into the leg."""
    N = batch.N
    remaining = batch.track(np.empty(N))
    steps, masks = np.empty((2, N)), np.empty((2, N), dtype=bool)
    for leg in legs:
        if not np.any(leg):
            yield
            continue
        sgn = -1.0 if np.any(leg < 0) else 1.0
        # every live row is active when a leg starts; per-row times come
        # with the columns in input order, and rows with none are parked
        remaining[: batch.m] = np.abs(leg)
        batch.park(remaining[: batch.m] == 0.0)
        batch.retire_singular()
        m, taken = -1, 0
        while batch.m:
            if batch.m != m:
                m = batch.m
                h, signed = steps[:, :m]
                last, near = masks[:, :m]
                rem = remaining[:m]
            # every active row has taken the same number of steps this leg
            taken += 1
            # h = dt min(1, (dmin / REFERENCE_DISTANCE)^1.5), which is dt
            # unless dmin < REFERENCE_DISTANCE, clipped to what is left
            h.fill(icfg.dt)
            if np.less(batch.dmin, REFERENCE_DISTANCE, out=near).any():
                rows = np.flatnonzero(near)
                scale = np.power(batch.dmin[rows] / REFERENCE_DISTANCE, 1.5)
                h[rows] = np.minimum(scale, 1.0, out=scale) * icfg.dt
            np.copyto(h, rem, where=np.greater_equal(h, rem, out=last))
            batch.step(h if sgn > 0 else np.multiply(h, sgn, out=signed))
            # a row that took its last step has exactly 0 left, the others more
            np.subtract(rem, h, out=rem)
            if hook is not None:
                hook(leg - sgn * rem[0], batch)
            finished = last.any()
            batch.retire_singular()
            if taken >= MAX_SUBSTEPS:
                batch.retire(remaining[: batch.m] > 0.0, FLAG_SUBSTEP_LIMIT)
            if finished and batch.m:
                batch.park(remaining[: batch.m] == 0.0)
        batch.unpark()
        yield


def _run_drift(batch: _Batch, legs, icfg):
    """The free flow in closed form, x + leg v for each leg, or of each
    row with a time of its own."""
    for leg in legs:
        if np.any(leg):
            np.add(batch.X, np.multiply(batch.V, leg, out=batch.S), out=batch.X, where=leg != 0.0)
        yield


def _states(x, v) -> tuple[np.ndarray, np.ndarray]:
    """x and v as float arrays; raises unless both are (N, n, d)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 3:
        raise DomainError(f"batch shapes must match as (N, n, d), got {x.shape}, {v.shape}")
    return x, v


def closed_form(potential, icfg: IntegratorConfig) -> bool:
    """Whether `flow_batch` takes the flow in closed form, x + t v: the
    free potential, undamped.  No force acts on such a flow and it flags
    no row."""
    return potential.kind == "free" and icfg.velocity_damping == 1.0


def _flow(x, v, potential, t, icfg: IntegratorConfig, member=None, stops=(), observe=None,
          hook=None):
    """The one runner loop behind `flow_batch` and `integrate`.

    t is one time, or one time per row as `flow_batch` checks it, and
    member the ladder member of each row.
    hook(t, batch), if given, sees the live batch once at the start and
    after every step (see `_run_fixed` and `_run_adaptive`).  A flow with
    a hook is always stepped, never taken in closed form.
    """
    x, v = _states(x, v)
    per_row = np.ndim(t) > 0
    legs = [t]
    if not per_row:
        ends = [float(s) for s in stops] + [t]
        legs = [b - a for a, b in zip([0.0] + ends[:-1], ends)]
        sgn = -1.0 if t < 0 else 1.0
        if not all(sgn * leg >= 0.0 for leg in legs):
            raise DomainError(f"stops must run in order from 0 to t = {t}, got {list(stops)}")
    batch = _Batch(x, v, potential, icfg, member)
    if hook is not None:
        hook(0.0, batch)
    if hook is None and closed_form(potential, icfg):
        runner = _run_drift(batch, legs, icfg)
    else:
        runner = (_run_adaptive if icfg.adaptive else _run_fixed)(batch, legs, icfg, hook)
    for k, _ in enumerate(runner):
        if k < len(stops) and observe is not None:
            observe(float(stops[k]), batch)
    return batch.result()


# ---------------------------------------------------------------------------
# public interface


def flow_batch(
    x: np.ndarray,
    v: np.ndarray,
    potential,
    t,
    icfg: IntegratorConfig,
    *,
    stops=(),
    observe=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flow an (N, n, d) batch by time t; returns (x, v, flags).

    Flagged rows hold their state frozen at the moment of failure and
    must be excluded from downstream statistics.  The free potential is
    advanced in closed form, so its flow is exact to roundoff.

    `stops` are times from 0 towards t, in order (repeats allowed).  The
    flow pauses at each and calls observe(stop, batch) with the live
    `_Batch`: column j of its (n, d, m) arrays X, V, A is input row
    idx[j], and `flags` marks the rows frozen so far.  Each leg between
    two stops takes exactly the steps of its own flow_batch call, so the
    result equals flowing leg by leg, bitwise on unflagged rows; a row
    flagged on one leg stays frozen with that flag for the rest.

    t may instead be an (N,) array of per-row times, all of one sign,
    without stops: each row takes the steps of its own flow (with fixed
    steps its own whole steps and remainder, with adaptive steps its own
    remaining time) and is parked once done.  A row with t = 0 is not
    stepped and stays unflagged, as in a flow of length 0.

    The potential may be a `MollifiedLadder` of K members; the N rows
    are then K blocks of N / K, and block j flows under members[j].

    The rows are flowed SAMPLE_BLOCK at a time, in order, each block
    pausing at every stop, so observe sees each block (batch.N rows) once
    a stop.  Each row is stepped on its own, and every active row of an
    adaptive leg has taken the same number of steps, so the substep
    budget holds per row: states and flags are bitwise those of flowing
    each row alone, under its own member and for its own time.  A time
    that is not finite raises DomainError before any step.
    """
    x, v = _states(x, v)
    N = x.shape[0]
    member = None
    if isinstance(potential, MollifiedLadder):
        K = len(potential.members)
        if N % K:
            raise DomainError(f"a ladder of {K} members needs a multiple of {K} rows, got {N}")
        member = np.repeat(np.arange(K), N // K)
    if not np.all(np.isfinite(t)):
        raise DomainError("flow times must be finite")
    if np.ndim(t):
        t = np.asarray(t, dtype=float)
        if t.shape != (N,) or len(stops) or not (np.all(t >= 0.0) or np.all(t <= 0.0)):
            raise DomainError(
                f"per-row times need one time of one sign for each of {N} rows and no stops,"
                f" got shape {t.shape} and {len(stops)} stops"
            )
    parts = []
    # one block even of no rows, so that the results keep their shapes
    for start in range(0, max(N, 1), SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        parts.append(_flow(
            x[block], v[block], potential, t[block] if np.ndim(t) else t, icfg,
            None if member is None else member[block], stops, observe,
        ))
    return tuple(np.concatenate(part) for part in zip(*parts))


def integrate(x0, v0, potential, t_final: float, icfg: IntegratorConfig) -> Trajectory:
    """Flow one configuration, positions x0 and velocities v0 of shape
    (n, d), by t_final and record its state after every step.

    The steps are those of a one-row `flow_batch` call, but even the free
    potential is stepped, so the trajectory has a row per step.  Where
    that call would flag the row, this raises SingularityError, or
    SubstepLimitError past MAX_SUBSTEPS steps.  The states are written
    into buffers sized for the fixed steps, which double whenever an
    adaptive flow fills them.
    """
    if not math.isfinite(t_final):
        raise DomainError("flow times must be finite")
    x0 = np.asarray(x0, dtype=float)[None]
    v0 = np.asarray(v0, dtype=float)[None]
    # the start and every fixed step; no leg takes more than MAX_SUBSTEPS
    steps = abs(t_final) / icfg.dt
    rows = int(steps) + 2 if steps < MAX_SUBSTEPS else MAX_SUBSTEPS + 1
    buffers = [np.empty(rows), np.empty((rows, *x0.shape[1:])), np.empty((rows, *v0.shape[1:])),
               np.empty(rows)]
    taken = 0

    def record(tk, batch):
        nonlocal taken
        if taken == buffers[0].shape[0]:
            buffers[:] = [np.concatenate((b, np.empty_like(b))) for b in buffers]
        times, xs, vs, dmins = buffers
        times[taken] = tk
        xs[taken] = batch.X[..., 0]
        vs[taken] = batch.V[..., 0]
        dmins[taken] = batch.dmin[0]
        taken += 1

    _, _, flags = _flow(x0, v0, potential, t_final, icfg, hook=record)
    if flags[0] == FLAG_SINGULAR:
        raise SingularityError("trajectory reached the pair-coincidence threshold")
    if flags[0] == FLAG_SUBSTEP_LIMIT:
        raise SubstepLimitError(f"adaptive integration exceeded {MAX_SUBSTEPS} steps")
    times, x, v, dmins = (b[:taken] for b in buffers)
    return Trajectory(
        times=times,
        x=x,
        v=v,
        energies=_energy_batch(x, v, potential),
        min_distances=dmins,
    )
