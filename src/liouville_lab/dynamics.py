"""Hamiltonian particle dynamics driven by a pair potential.

State is n particles in R^d with positions x and velocities v.  The
vector field is

    dx_i/dt = v_i,      dv_i/dt = - sum_{j != i} grad V(x_i - x_j),

integrated by velocity Verlet (symplectic, exactly time reversible) or a
classical RK4 reference.  Near-coincident pairs make singular potentials
stiff, so an adaptive mode shrinks the step with the minimum pair
distance.  Batch drivers propagate whole Monte Carlo ensembles at once
and flag (rather than raise on) samples that hit a coincidence or the
substep budget.

Internally a batch of N states is component-major: positions,
velocities and accelerations are (n, d, N) arrays, each particle
component one contiguous vector over the batch, updated in place in
buffers allocated once per call.  The public functions keep their
(N, n, d) arrays and transpose once on entry and once on exit.  Forces
go through one `gradient_batch` call per evaluation on the (P*N, d)
transposed view of all P pair displacements.  Every step performs the
same floating-point operations, in the same order, as the row-major
textbook form (`v + 0.5 dt a`, then `x + dt v`, ...), and rows that are
frozen by a flag leave the batch, so results are bitwise those of
stepping each row on its own (numpy sums fewer than 8 components left
to right, which holds for d < 8).

A flow may pause at stops on its way to t.  The legs between stops are
stepped one after another on the same batch, and each takes exactly the
steps of a flow over that leg alone: fixed steps count and budget per
leg, and adaptive steps are clipped to what is left of the leg.  An
adaptive row that finishes a leg early is parked behind the active rows
until the leg ends.  At each stop an observer sees the live batch,
including the forces of its last step.  Parking and retiring move rows
by swapping columns, so the batch keeps no input order: `idx` maps each
column back to its input row, and every per-row result is scattered
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, SubstepLimitError

COINCIDENCE_THRESHOLD = 1e-12

FLAG_OK = 0
FLAG_SINGULAR = 1
FLAG_SUBSTEP_LIMIT = 2

_SCHEMES = ("velocity_verlet", "rk4")


@dataclass(frozen=True)
class Configuration:
    """Positions and velocities of n particles in R^d; immutable."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        v = np.array(self.v, dtype=float)
        if x.ndim != 2 or x.shape != v.shape:
            raise DomainError(f"x and v must both have shape (n, d), got {x.shape} and {v.shape}")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class IntegratorConfig:
    """Time stepping controls.

    `reference_distance` sets where adaptive stepping starts shrinking:
    the local step is dt * min(1, (dmin / reference_distance)^(3/2)).
    `velocity_damping` < 1 deliberately dissipates energy; it exists for
    negative controls and must stay 1 for physical runs.
    """

    scheme: str = "velocity_verlet"
    dt: float = 1e-3
    adaptive: bool = False
    reference_distance: float = 0.5
    max_substeps: int = 1_000_000
    velocity_damping: float = 1.0

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}, pick from {_SCHEMES}")
        if self.dt <= 0:
            raise DomainError("dt must be positive")
        if self.reference_distance <= 0:
            raise DomainError("reference_distance must be positive")
        if self.max_substeps < 1:
            raise DomainError("max_substeps must be >= 1")
        if not (0.0 < self.velocity_damping <= 1.0):
            raise DomainError("velocity_damping must lie in (0, 1]")


@dataclass
class Trajectory:
    """Recorded states of a single integration, one row per accepted step."""

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

    def state(self, k: int) -> Configuration:
        return Configuration(self.x[k], self.v[k])

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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


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
    view serves every pair.  Buffers hold up to `capacity` rows; `resize`
    re-views them for the current row count.
    """

    def __init__(self, n: int, d: int, capacity: int, potential):
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.potential = potential
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
        self._squares = self._sq[: d * P * m].reshape(d, P, m)
        self._radii = self._rad[: P * m].reshape(P, m)

    def displace(self, X: np.ndarray) -> None:
        for (i, j), r in zip(self.pairs, self.per_pair):
            np.subtract(X[i], X[j], out=r)

    def min_distance(self, dmin: np.ndarray) -> None:
        """Min over pairs of |x_i - x_j| of the displaced pairs; the
        components are summed in order, as numpy sums fewer than 8."""
        sq = np.multiply(self.R, self.R, out=self._squares)
        total = sq[0]
        if self.d > 1:
            total = np.add(sq[0], sq[1], out=self._radii)
            for k in range(2, self.d):
                np.add(total, sq[k], out=total)
        if len(self.pairs) == 1:
            np.sqrt(total[0], out=dmin)
        else:
            np.min(np.sqrt(total, out=self._radii), axis=0, out=dmin)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Pair potential values, one row per pair."""
        self.displace(X)
        return np.asarray(self.potential.value_batch(self.rows)).reshape(len(self.pairs), self.m)

    def accelerate(self, X: np.ndarray, A: np.ndarray, dmin: np.ndarray | None = None) -> None:
        """A = -sum_j grad V(x_i - x_j), accumulated pair by pair in i < j
        order from zero; dmin, if given, gets the min pair distance."""
        if not self.pairs:
            A.fill(0.0)
            if dmin is not None:
                dmin.fill(np.inf)
            return
        self.displace(X)
        if dmin is not None:
            self.min_distance(dmin)
        m, single = self.m, len(self.pairs) == 1
        G = self.potential.gradient_batch(self.rows).T
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
    """The rows of one flow still being integrated, component-major.

    Columns [0, live) of the (n, d, N) buffers X, V, A (positions,
    velocities, accelerations at X), of `dmin`, of `idx` (the input row
    of each column) and of every `track`ed array hold the live rows, in
    no particular order.  The first m of them are active: `step` and
    `retire_singular` see only those.  An adaptive leg parks the rows that
    finish it early behind the active ones (`park`) until the leg ends
    (`unpark`).  `retire` freezes rows with a flag for good.
    """

    def __init__(self, x, v, potential, icfg: IntegratorConfig):
        N, n, d = np.shape(x)
        self.N = N
        self.rk4 = icfg.scheme == "rk4"
        self.damping = icfg.velocity_damping
        self.forces = _PairForces(n, d, N, potential)
        self._X = _component_major(x)
        self._V = _component_major(v)
        self._A = np.empty_like(self._X)
        # scratch: S for Verlet; S, K2, K3, K4, T for RK4
        self._S = np.empty((5 if self.rk4 else 1,) + self._X.shape)
        self._dmin = np.empty(N)
        self._idx = np.arange(N)
        self._coefs = np.empty((3, N))
        # per-row arrays whose last axis follows the rows when they move
        self._per_row = [self._X, self._V, self._A, self._dmin, self._idx]
        self.flags = np.zeros(N, dtype=np.int8)
        self._out = None
        self.live = N
        self._resize(N)
        self.forces.accelerate(self.X, self.A, self.dmin)

    def _resize(self, m: int) -> None:
        self.m = m
        self.X, self.V, self.A = self._X[..., :m], self._V[..., :m], self._A[..., :m]
        self.S = self._S[..., :m]
        self.dmin, self.idx = self._dmin[:m], self._idx[:m]
        self.coefs = self._coefs[:, :m]
        self.forces.resize(m)

    def track(self, values: np.ndarray) -> np.ndarray:
        """Register an array with one column per row (last axis N) that
        moves with the rows."""
        self._per_row.append(values)
        return values

    def _swap_out(self, mask: np.ndarray) -> int:
        """Move the active rows in mask behind the other active rows,
        which then form the new active range; returns how many moved."""
        k = int(np.count_nonzero(mask))
        cut = self.m - k
        # rows in mask ahead of the cut trade places with rows not in
        # mask behind it, so only 2 min(k, m - k) columns move
        ahead = np.flatnonzero(mask[:cut])
        if ahead.size:
            behind = cut + np.flatnonzero(~mask[cut:])
            dst = np.concatenate([ahead, behind])
            src = np.concatenate([behind, ahead])
            for values in self._per_row:
                values[..., dst] = values[..., src]
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
        """Freeze the active rows in mask with flag and drop them from
        the batch."""
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            return
        if self._out is None:
            shape = (self.N,) + self._X.shape[:2]
            self._out = (np.empty(shape), np.empty(shape))
        src = self.idx[rows]
        self._out[0][src] = np.moveaxis(self.X[..., rows], -1, 0)
        self._out[1][src] = np.moveaxis(self.V[..., rows], -1, 0)
        self.flags[src] = flag
        k = self._swap_out(mask)
        # the frozen rows now sit at [m, m + k), ahead of the parked ones;
        # the last parked rows take their place
        moved = min(k, self.live - self.m - k)
        if moved:
            for values in self._per_row:
                values[..., self.m : self.m + moved] = values[..., self.live - moved : self.live]
        self.live -= k

    def retire_singular(self) -> None:
        """Freeze with FLAG_SINGULAR the active rows whose min pair
        distance is below the threshold or NaN."""
        # minimum propagates NaN, so this tests for such a row in one pass
        if self.m and not np.minimum.reduce(self.dmin) >= COINCIDENCE_THRESHOLD:
            self.retire(~(self.dmin >= COINCIDENCE_THRESHOLD), FLAG_SINGULAR)

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh (N, n, d) states of every row in input order, live rows
        scattered by idx and frozen ones as they retired, and the flags."""
        shape = (self.N,) + self._X.shape[:2]
        if self._out is None:
            out_x, out_v = np.empty(shape), np.empty(shape)
        else:
            out_x, out_v = self._out[0].copy(), self._out[1].copy()
        live = self._idx[: self.live]
        out_x[live] = np.moveaxis(self._X[..., : self.live], -1, 0)
        out_v[live] = np.moveaxis(self._V[..., : self.live], -1, 0)
        return out_x, out_v, self.flags.copy()

    def step(self, h) -> None:
        """Advance every active row by h, a scalar or one step per row."""
        if self.rk4:
            if isinstance(h, np.ndarray):
                half, sixth, sq_sixth = self.coefs
                np.multiply(h, 0.5, out=half)
                np.divide(h, 6.0, out=sixth)
                np.divide(np.multiply(h, h, out=sq_sixth), 6.0, out=sq_sixth)
            else:
                half, sixth, sq_sixth = 0.5 * h, h / 6.0, h * h / 6.0
            self._rk4(h, half, sixth, sq_sixth)
        else:
            half = np.multiply(h, 0.5, out=self.coefs[0]) if isinstance(h, np.ndarray) else 0.5 * h
            self._verlet(h, half)

    def _verlet(self, h, half) -> None:
        """Kick by h/2, drift by h, kick by h/2 with the forces at the new x."""
        X, V, A, S = self.X, self.V, self.A, self.S[0]
        np.add(V, np.multiply(A, half, out=S), out=V)
        np.add(X, np.multiply(V, h, out=S), out=X)
        self.forces.accelerate(X, A, self.dmin)
        np.add(V, np.multiply(A, half, out=S), out=V)
        if self.damping != 1.0:
            np.multiply(V, self.damping, out=V)

    def _rk4(self, h, half, sixth, sq_sixth) -> None:
        """Classical RK4 with k1 = A, the forces at the incoming x."""
        X, V, A = self.X, self.V, self.A
        S, K2, K3, K4, T = self.S
        accelerate = self.forces.accelerate
        # k2 at x + h/2 v
        accelerate(np.add(X, np.multiply(V, half, out=S), out=S), K2)
        # k3 at x + h/2 (v + h/2 k1)
        np.add(V, np.multiply(A, half, out=T), out=T)
        accelerate(np.add(X, np.multiply(T, half, out=T), out=S), K3)
        # k4 at x + h (v + h/2 k2)
        np.add(V, np.multiply(K2, half, out=T), out=T)
        accelerate(np.add(X, np.multiply(T, h, out=T), out=S), K4)
        # x + h v + h^2/6 (k1 + k2 + k3)
        np.add(X, np.multiply(V, h, out=S), out=S)
        np.add(np.add(A, K2, out=T), K3, out=T)
        np.add(S, np.multiply(T, sq_sixth, out=T), out=X)
        # v + h/6 (k1 + 2 k2 + 2 k3 + k4)
        np.add(A, np.multiply(K2, 2.0, out=T), out=T)
        np.add(T, np.multiply(K3, 2.0, out=S), out=T)
        np.add(T, K4, out=T)
        np.add(V, np.multiply(T, sixth, out=T), out=V)
        if self.damping != 1.0:
            np.multiply(V, self.damping, out=V)
        accelerate(X, A, self.dmin)


def _forces(x: np.ndarray, potential) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations -sum_j grad V(x_i - x_j) of an (N, n, d) batch and
    its min pair distance."""
    X = _component_major(x)
    A = np.empty_like(X)
    dmin = np.empty(X.shape[-1])
    _PairForces(*X.shape, potential).accelerate(X, A, dmin)
    return _row_major(A), dmin


def _min_pair_distance(x: np.ndarray) -> np.ndarray:
    X = _component_major(x)
    dmin = np.full(X.shape[-1], np.inf)
    pairs = _PairForces(*X.shape, None)
    if pairs.pairs:
        pairs.displace(X)
        pairs.min_distance(dmin)
    return dmin


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
    if total > icfg.max_substeps:
        raise SubstepLimitError(f"{total} fixed steps exceed the budget of {icfg.max_substeps}")
    return sgn, nsteps, rem, total


def _run_fixed(batch: _Batch, legs, icfg, recorder=None):
    """Step each leg with fixed steps; yields after every leg."""
    plans = [_fixed_plan(leg, icfg) for leg in legs]
    for leg, (sgn, nsteps, rem, total) in zip(legs, plans):
        if leg != 0.0:
            batch.retire_singular()
        for k in range(total):
            if not batch.m:
                break
            batch.step(sgn * icfg.dt if k < nsteps else rem)
            batch.retire_singular()
            if recorder is not None and batch.m:
                recorder(sgn * icfg.dt * (k + 1) if k < nsteps else leg, batch.X, batch.V)
        yield


def _run_adaptive(batch: _Batch, legs, icfg, recorder=None):
    """Step each leg with per-row steps shrunk near pair coincidences;
    rows that finish a leg early are parked until it ends."""
    N = batch.N
    remaining = batch.track(np.empty(N))
    steps, masks = np.empty((2, N)), np.empty((2, N), dtype=bool)
    for leg in legs:
        if leg == 0.0:
            yield
            continue
        batch.retire_singular()
        sgn = 1.0 if leg > 0 else -1.0
        remaining[: batch.m] = abs(leg)
        m, elapsed, taken = -1, 0.0, 0
        while batch.m:
            if batch.m != m:
                m = batch.m
                h, signed = steps[:, :m]
                last, near = masks[:, :m]
                rem = remaining[:m]
            # every active row has taken the same number of steps this leg
            taken += 1
            # h = dt min(1, (dmin / reference_distance)^1.5), which is dt
            # unless dmin < reference_distance, clipped to what is left
            h.fill(icfg.dt)
            if np.less(batch.dmin, icfg.reference_distance, out=near).any():
                rows = np.flatnonzero(near)
                scale = np.power(batch.dmin[rows] / icfg.reference_distance, 1.5)
                h[rows] = np.minimum(scale, 1.0, out=scale) * icfg.dt
            np.copyto(h, rem, where=np.greater_equal(h, rem, out=last))
            batch.step(h if sgn > 0 else np.multiply(h, sgn, out=signed))
            # a row that took its last step has exactly 0 left, the others more
            np.subtract(rem, h, out=rem)
            if recorder is not None:
                elapsed += float(h[0])
                recorder(sgn * elapsed, batch.X, batch.V)
            finished = last.any()
            batch.retire_singular()
            if taken >= icfg.max_substeps:
                batch.retire(remaining[: batch.m] > 0.0, FLAG_SUBSTEP_LIMIT)
            if finished and batch.m:
                batch.park(remaining[: batch.m] == 0.0)
        batch.unpark()
        yield


def _run_drift(batch: _Batch, legs, icfg):
    """The free flow in closed form, x + leg v for each leg."""
    for leg in legs:
        if leg != 0.0:
            np.add(batch.X, np.multiply(batch.V, leg, out=batch.S[0]), out=batch.X)
        yield


# ---------------------------------------------------------------------------
# public interface


def energy(cfg: Configuration, potential) -> float:
    """Total energy: sum of pair potentials over i < j plus kinetic energy."""
    return float(_energy_batch(cfg.x[None], cfg.v[None], potential)[0])


def min_pair_distance(cfg: Configuration) -> float:
    return float(_min_pair_distance(cfg.x[None])[0])


def _raise_for_flag(flag: int):
    if flag == FLAG_SINGULAR:
        raise SingularityError("trajectory reached the pair-coincidence threshold")
    if flag == FLAG_SUBSTEP_LIMIT:
        raise SubstepLimitError("adaptive integration exceeded max_substeps")


def integrate(
    cfg: Configuration, potential, t_final: float, icfg: IntegratorConfig
) -> Trajectory:
    """Integrate one configuration, recording every accepted step."""
    times = [0.0]
    xs = [cfg.x.copy()]
    vs = [cfg.v.copy()]

    def recorder(tk, X, V):
        times.append(tk)
        xs.append(X[..., 0].copy())
        vs.append(V[..., 0].copy())

    batch = _Batch(cfg.x[None], cfg.v[None], potential, icfg)
    runner = _run_adaptive if icfg.adaptive else _run_fixed
    for _ in runner(batch, [t_final], icfg, recorder):
        pass
    _raise_for_flag(int(batch.flags[0]))
    x = np.stack(xs)
    v = np.stack(vs)
    return Trajectory(
        times=np.asarray(times),
        x=x,
        v=v,
        energies=_energy_batch(x, v, potential),
        min_distances=_min_pair_distance(x),
    )


def flow_map(cfg: Configuration, t: float, potential, icfg: IntegratorConfig) -> Configuration:
    """The flow Y(t, cfg); t = 0 is the exact identity."""
    if t == 0.0:
        return cfg
    x, v, flags = flow_batch(cfg.x[None], cfg.v[None], potential, t, icfg)
    _raise_for_flag(int(flags[0]))
    return Configuration(x[0], v[0])


def flow_batch(
    x: np.ndarray,
    v: np.ndarray,
    potential,
    t: float,
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
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 3:
        raise DomainError(f"batch shapes must match as (N, n, d), got {x.shape}, {v.shape}")
    ends = [float(s) for s in stops] + [t]
    legs = [b - a for a, b in zip([0.0] + ends[:-1], ends)]
    sgn = -1.0 if t < 0 else 1.0
    if not all(sgn * leg >= 0.0 for leg in legs):
        raise DomainError(f"stops must run in order from 0 to t = {t}, got {list(stops)}")
    N = x.shape[0]
    closed_form = getattr(potential, "kind", None) == "free" and icfg.velocity_damping == 1.0
    if observe is None and (closed_form or not any(legs)):
        # nothing to observe: the closed form needs no batch, whose
        # transposes would cost more than x + leg v itself
        out = x
        for leg in legs:
            if leg != 0.0:
                out = out + leg * v
        return out.copy() if out is x else out, v.copy(), np.zeros(N, dtype=np.int8)
    batch = _Batch(x, v, potential, icfg)
    runner = _run_drift if closed_form else _run_adaptive if icfg.adaptive else _run_fixed
    for k, _ in enumerate(runner(batch, legs, icfg)):
        if k < len(stops) and observe is not None:
            observe(ends[k], batch)
    return batch.result()


def reversed_velocities(cfg: Configuration) -> Configuration:
    return Configuration(cfg.x, -cfg.v)


def total_momentum(cfg: Configuration) -> np.ndarray:
    return np.sum(cfg.v, axis=0)
