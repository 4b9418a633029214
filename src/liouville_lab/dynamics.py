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
# batched primitives on (N, n, d) arrays


def _min_pair_distance(x: np.ndarray) -> np.ndarray:
    N, n, _ = x.shape
    dmin = np.full(N, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            rij = x[:, i, :] - x[:, j, :]
            np.minimum(dmin, np.sqrt(np.sum(rij * rij, axis=-1)), out=dmin)
    return dmin


def _forces(x: np.ndarray, potential) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations -sum_j grad V(x_i - x_j) and the min pair distance."""
    N, n, _ = x.shape
    acc = np.zeros_like(x)
    dmin = np.full(N, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            rij = x[:, i, :] - x[:, j, :]
            g = potential.gradient_batch(rij)
            acc[:, i, :] -= g
            acc[:, j, :] += g
            np.minimum(dmin, np.sqrt(np.sum(rij * rij, axis=-1)), out=dmin)
    return acc, dmin


def _energy_batch(x: np.ndarray, v: np.ndarray, potential) -> np.ndarray:
    N, n, _ = x.shape
    e = 0.5 * np.sum(v * v, axis=(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            e += potential.value_batch(x[:, i, :] - x[:, j, :])
    return e


def _verlet_step(x, v, acc, potential, dt, damping):
    """One velocity Verlet step; dt may be scalar or (N, 1, 1)."""
    v_half = v + 0.5 * dt * acc
    x_new = x + dt * v_half
    acc_new, dmin_new = _forces(x_new, potential)
    v_new = v_half + 0.5 * dt * acc_new
    if damping != 1.0:
        v_new = damping * v_new
    return x_new, v_new, acc_new, dmin_new

def _rk4_step(x, v, acc, potential, dt, damping):
    """One classical RK4 step; acc is _forces(x), so k1 costs nothing."""
    k1v = acc
    k2v, _ = _forces(x + 0.5 * dt * v, potential)
    x3 = x + 0.5 * dt * (v + 0.5 * dt * k1v)
    k3v, _ = _forces(x3, potential)
    x4 = x + dt * (v + 0.5 * dt * k2v)
    k4v, _ = _forces(x4, potential)
    x_new = x + dt * v + dt * dt / 6.0 * (k1v + k2v + k3v)
    v_new = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if damping != 1.0:
        v_new = damping * v_new
    acc_new, dmin_new = _forces(x_new, potential)
    return x_new, v_new, acc_new, dmin_new


def _step_dispatch(x, v, acc, potential, dt, icfg: IntegratorConfig):
    if icfg.scheme == "velocity_verlet":
        return _verlet_step(x, v, acc, potential, dt, icfg.velocity_damping)
    return _rk4_step(x, v, acc, potential, dt, icfg.velocity_damping)


def _run_fixed(x, v, potential, t, icfg, recorder=None):
    """Advance every row by time t with fixed steps; returns (x, v, flags)."""
    N = x.shape[0]
    flags = np.zeros(N, dtype=np.int8)
    if t == 0.0:
        return x.copy(), v.copy(), flags
    sgn = 1.0 if t > 0 else -1.0
    nsteps = int(math.floor(abs(t) / icfg.dt + 1e-12))
    rem = t - sgn * nsteps * icfg.dt
    if nsteps + 1 > icfg.max_substeps:
        raise SubstepLimitError(
            f"{nsteps} fixed steps exceed the budget of {icfg.max_substeps}"
        )
    x, v = x.copy(), v.copy()
    acc, dmin = _forces(x, potential)
    live = dmin >= COINCIDENCE_THRESHOLD
    flags[~live] = FLAG_SINGULAR
    step_sizes = [sgn * icfg.dt] * nsteps
    if abs(rem) > 1e-9 * max(1.0, abs(t)):
        step_sizes.append(rem)
    all_live = bool(live.all())
    for k, h in enumerate(step_sizes):
        if all_live:
            x, v, acc, dminn = _step_dispatch(x, v, acc, potential, h, icfg)
            if np.any(dminn < COINCIDENCE_THRESHOLD):
                flags[dminn < COINCIDENCE_THRESHOLD] = FLAG_SINGULAR
                live = flags == FLAG_OK
                all_live = False
        else:
            if not np.any(live):
                break
            xn, vn, accn, dminn = _step_dispatch(
                x[live], v[live], acc[live], potential, h, icfg
            )
            x[live], v[live], acc[live] = xn, vn, accn
            newly_bad = np.zeros(N, dtype=bool)
            newly_bad[live] = dminn < COINCIDENCE_THRESHOLD
            flags[newly_bad] = FLAG_SINGULAR
            live &= ~newly_bad
        if recorder is not None:
            tk = sgn * icfg.dt * (k + 1) if k < nsteps else t
            recorder(tk, x, v)
    return x, v, flags


def _run_adaptive(x, v, potential, t, icfg, recorder=None):
    """Advance by t with per-row steps shrunk near pair coincidences."""
    N = x.shape[0]
    out_x, out_v = x.copy(), v.copy()
    flags = np.zeros(N, dtype=np.int8)
    if t == 0.0:
        return out_x, out_v, flags
    sgn = 1.0 if t > 0 else -1.0
    T = abs(t)
    idx = np.arange(N)
    xa, va = x.copy(), v.copy()
    acc, dmin = _forces(xa, potential)
    bad = dmin < COINCIDENCE_THRESHOLD
    flags[idx[bad]] = FLAG_SINGULAR
    keep = ~bad
    idx, xa, va, acc, dmin = idx[keep], xa[keep], va[keep], acc[keep], dmin[keep]
    remaining = np.full(idx.size, T)
    steps = np.zeros(idx.size, dtype=np.int64)
    elapsed = 0.0
    while idx.size:
        shrink = np.minimum(1.0, (dmin / icfg.reference_distance) ** 1.5)
        h = icfg.dt * shrink
        last = h >= remaining
        h = np.where(last, remaining, h)
        xa, va, acc, dmin = _step_dispatch(
            xa, va, acc, potential, (sgn * h)[:, None, None], icfg,
        )
        steps += 1
        remaining = np.where(last, 0.0, remaining - h)
        if recorder is not None:
            elapsed += float(h[0])
            recorder(sgn * elapsed, xa, va)
        hit_sing = dmin < COINCIDENCE_THRESHOLD
        hit_budget = (steps >= icfg.max_substeps) & ~last & ~hit_sing
        retire = last | hit_sing | hit_budget
        if np.any(retire):
            rows = retire.nonzero()[0]
            out_x[idx[rows]] = xa[rows]
            out_v[idx[rows]] = va[rows]
            flags[idx[rows[hit_sing[rows]]]] = FLAG_SINGULAR
            flags[idx[rows[hit_budget[rows]]]] = FLAG_SUBSTEP_LIMIT
            keep = ~retire
            idx, xa, va, acc = idx[keep], xa[keep], va[keep], acc[keep]
            dmin, remaining, steps = dmin[keep], remaining[keep], steps[keep]
    return out_x, out_v, flags


# ---------------------------------------------------------------------------
# public interface


def energy(cfg: Configuration, potential) -> float:
    """Total energy: sum of pair potentials over i < j plus kinetic energy."""
    return float(_energy_batch(cfg.x[None], cfg.v[None], potential)[0])


def min_pair_distance(cfg: Configuration) -> float:
    return float(_min_pair_distance(cfg.x[None])[0])


def vector_field(cfg: Configuration, potential) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx/dt, dv/dt) at cfg; raises at a coincidence."""
    acc, dmin = _forces(cfg.x[None], potential)
    if potential.is_singular and dmin[0] < COINCIDENCE_THRESHOLD:
        raise SingularityError(f"pair distance {dmin[0]:g} below threshold")
    return cfg.v.copy(), acc[0]


def step(cfg: Configuration, potential, dt: float, scheme: str = "velocity_verlet") -> Configuration:
    """One explicit step of size dt (possibly negative)."""
    icfg = IntegratorConfig(scheme=scheme, dt=abs(dt) if dt != 0 else 1.0)
    if dt == 0.0:
        return cfg
    acc, dmin = _forces(cfg.x[None], potential)
    if dmin[0] < COINCIDENCE_THRESHOLD:
        raise SingularityError(f"pair distance {dmin[0]:g} below threshold")
    xn, vn, _, dminn = _step_dispatch(cfg.x[None], cfg.v[None], acc, potential, dt, icfg)
    if dminn[0] < COINCIDENCE_THRESHOLD:
        raise SingularityError(f"pair distance {dminn[0]:g} below threshold after step")
    return Configuration(xn[0], vn[0])


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

    def recorder(tk, xk, vk):
        times.append(tk)
        xs.append(xk[0].copy())
        vs.append(vk[0].copy())

    runner = _run_adaptive if icfg.adaptive else _run_fixed
    _, _, flags = runner(cfg.x[None], cfg.v[None], potential, t_final, icfg, recorder)
    _raise_for_flag(int(flags[0]))
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
    x: np.ndarray, v: np.ndarray, potential, t: float, icfg: IntegratorConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flow an (N, n, d) batch by time t; returns (x, v, flags).

    Flagged rows hold their state frozen at the moment of failure and
    must be excluded from downstream statistics.  The free potential is
    advanced in closed form, so its flow is exact to roundoff.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 3:
        raise DomainError(f"batch shapes must match as (N, n, d), got {x.shape}, {v.shape}")
    N = x.shape[0]
    if t == 0.0:
        return x.copy(), v.copy(), np.zeros(N, dtype=np.int8)
    if getattr(potential, "kind", None) == "free" and icfg.velocity_damping == 1.0:
        return x + t * v, v.copy(), np.zeros(N, dtype=np.int8)
    runner = _run_adaptive if icfg.adaptive else _run_fixed
    return runner(x, v, potential, t, icfg)


def reversed_velocities(cfg: Configuration) -> Configuration:
    return Configuration(cfg.x, -cfg.v)


def total_momentum(cfg: Configuration) -> np.ndarray:
    return np.sum(cfg.v, axis=0)
