"""Verification checks for flow axioms and transport identities.

Each check produces a CheckReport with an explicit error budget: it
passes iff

    statistic <= tolerance + 3 * std_error + bias_bound

and at most 1% of the ensemble was flagged during integration.  Every
check also has a constructed failure mode (`negative_control=True`)
that must fail; a check whose control passes is not measuring anything.
Two checks have no control yet and hold their statistic to a pinned
tolerance: `check_gradient_l1_decreasing` and `check_collision_scaling`.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import dynamics, potentials, transport
from .dynamics import IntegratorConfig, flow_batch, _forces, _energy_batch
from .errors import CoverageError, DomainError
from .potentials import (
    CONFINING_AT_ZERO,
    MollifierKernel,
    MollifiedPotential,
    ShrinkFunction,
)
from .profiles import bump, bump_prime
from .rng import rng_for
from .transport import (
    DT_BIAS_COEFFICIENT,
    EnergyCutoff,
    InitialDatum,
    PhaseBox,
    TestFunction,
    level_difference_series,
    random_test_function,
    residual_window,
    sample_ensemble,
    weak_residual_suite,
)

FLAGGED_FRACTION_LIMIT = 0.01
# pinned budgets of the two checks without a negative control
GRADIENT_RATIO_TOLERANCE = 1.05
SLOPE_TOLERANCE = 0.3


@dataclass
class CheckReport:
    """Outcome of one verification check with its full error budget."""

    check_name: str
    potential: str
    seed: int
    sample_count: int
    statistic: float
    std_error: float
    bias_bound: float
    tolerance: float
    flagged_fraction: float
    passed: bool
    runtime_seconds: float
    details: dict = field(default_factory=dict)

    @staticmethod
    def build(
        check_name: str,
        potential: str,
        seed: int,
        sample_count: int,
        statistic: float,
        std_error: float,
        bias_bound: float,
        tolerance: float,
        flagged_fraction: float,
        runtime_seconds: float,
        details: dict | None = None,
    ) -> "CheckReport":
        passed = (
            statistic <= tolerance + 3.0 * std_error + bias_bound
            and flagged_fraction <= FLAGGED_FRACTION_LIMIT
        )
        return CheckReport(
            check_name=check_name,
            potential=potential,
            seed=seed,
            sample_count=sample_count,
            statistic=float(statistic),
            std_error=float(std_error),
            bias_bound=float(bias_bound),
            tolerance=float(tolerance),
            flagged_fraction=float(flagged_fraction),
            passed=passed,
            runtime_seconds=float(runtime_seconds),
            details=details or {},
        )

    def to_json_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "potential": self.potential,
            "seed": self.seed,
            "N": self.sample_count,
            "statistic": self.statistic,
            "std_error": self.std_error,
            "bias_bound": self.bias_bound,
            "tolerance": self.tolerance,
            "flagged_fraction": self.flagged_fraction,
            "pass": self.passed,
            "runtime_seconds": self.runtime_seconds,
        }
        if self.details:
            out["details"] = _jsonable(self.details)
        return out

    def summary_line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: {self.check_name} [{self.potential}] "
            f"statistic={self.statistic:.3e} "
            f"budget={self.tolerance + 3 * self.std_error + self.bias_bound:.3e}"
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_reports_jsonl(reports: Sequence[CheckReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")


def write_summary_csv(reports: Sequence[CheckReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_name", "potential", "N", "statistic", "tolerance", "pass"])
        for r in reports:
            writer.writerow(
                [
                    r.check_name,
                    r.potential,
                    r.sample_count,
                    f"{r.statistic:.17g}",
                    f"{r.tolerance:.17g}",
                    str(r.passed).lower(),
                ]
            )


# ---------------------------------------------------------------------------
# flow-axiom checks

TOLERANCES = {
    "time_continuity": 1.05,
    "measure_preservation": 0.0,
    "group_property": 1e-6,
    "energy_invariance": 1e-4,
    "weak_ode": 1e-4,
}
CHECK_NAMES = tuple(TOLERANCES)
# per-sample checks compare only samples below this quantile of the
# initial energy, the truncated form in which the axioms hold a.e.
ENERGY_QUANTILE = 0.9
# time-continuity resolution, in integrator steps
DELTA_STEPS = 10
# velocity kick of the group-law control after every flow leg
KICK = 0.05
WEAK_ODE_NODES = 129
# largest shrink factor of the box holding a non-confining observable: its
# support then ends by 0.887 of the half width, clear of the 0.02 pad at
# the box edge that the preimage coverage probes must stay inside
INNER_FRACTION_CAP = 0.9


def default_observable_for(potential, box: PhaseBox, seed: int) -> TestFunction:
    """Observable for the preservation check, adapted to the potential.

    For confining potentials the particle position supports tile the
    first axis with gaps, keeping the observable away from the
    coincidence set where probe energies diverge; otherwise a random
    product bump on a shrunken box is used.  Its widths are drawn from
    0.55-0.85 of the shrunken box, so the support's expected share of
    the box is (0.7 f)^(2 n d) for a box shrunk by f: f = 0.6 at n = 2,
    and for other n the f giving the same share, (0.7 * 0.6)^(2/n) / 0.7,
    up to INNER_FRACTION_CAP.
    """
    if getattr(potential, "singularity_class", None) != CONFINING_AT_ZERO:
        mid = (box.highs + box.lows) / 2.0
        half = (box.highs - box.lows) / 2.0
        # written so that n = 2 gives 0.6 exactly
        f = min(INNER_FRACTION_CAP, 0.6 ** (2 / box.n) * 0.7 ** (2 / box.n - 1))
        inner = PhaseBox(lows=mid - f * half, highs=mid + f * half, d=box.d, n=box.n)
        return random_test_function(
            box.d, box.n, inner, t_center=0.0, t_width=1.0,
            rng=rng_for(seed, "observable"),
        )
    n, d = box.n, box.d
    x_half = float((box.highs[0] - box.lows[0]) / 2.0)
    v_half = float((box.highs[n * d] - box.lows[n * d]) / 2.0)
    spacing = 1.6 * x_half / n
    centers = np.zeros(2 * n * d)
    widths = np.empty(2 * n * d)
    widths[: n * d] = 0.4 * x_half
    widths[n * d :] = 0.6 * v_half
    for i in range(n):
        centers[i * d] = -0.8 * x_half + spacing * (i + 0.5)
        widths[i * d] = 0.3 * spacing
    return TestFunction(
        d=d, n=n, t_center=0.0, t_width=1.0, centers=centers, widths=widths
    )


def _control_icfg(icfg: IntegratorConfig, negative_control: bool) -> IntegratorConfig:
    """Controls dissipate 1% of velocity per step, which no measure
    preserving, energy conserving flow can survive."""
    if not negative_control:
        return icfg
    return replace(icfg, velocity_damping=0.99)


def _require_preimage_coverage(
    phi: TestFunction, box: PhaseBox, potential, t: float, icfg: IntegratorConfig,
    seed: int, probes: int = 10_000, margin: float = 0.01,
) -> None:
    """Flow supp phi backward; if any probe leaves (or hugs) the sampling
    box, mass could enter supp phi from outside the box and the
    preservation statistic would be biased."""
    rng = rng_for(seed, "coverage-probes")
    lo, hi = phi.support_bounds()
    z = lo + rng.random((probes, lo.size)) * (hi - lo)
    nd = box.n * box.d
    x = z[:, :nd].reshape(probes, box.n, box.d)
    v = z[:, nd:].reshape(probes, box.n, box.d)
    bx, bv, flags = flow_batch(x, v, potential, -t, icfg)
    back = np.concatenate([bx.reshape(probes, -1), bv.reshape(probes, -1)], axis=1)
    pad = margin * (box.highs - box.lows)
    ok = flags == dynamics.FLAG_OK
    inside = np.all(back[ok] > box.lows + pad, axis=1) & np.all(
        back[ok] < box.highs - pad, axis=1
    )
    if not np.all(inside):
        raise CoverageError(
            "preimage of the observable support leaves the sampling box; "
            "enlarge the box or shorten the horizon"
        )


def check_measure_preservation(
    potential,
    box: PhaseBox,
    t: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    phi: TestFunction | None = None,
    tolerance: float = TOLERANCES["measure_preservation"],
    negative_control: bool = False,
) -> CheckReport:
    """Flow invariance of integrals of a fixed observable.

    Samples z uniform in box; compares sum w phi(Y(t, z)) with
    sum w phi(z).  The default observable lives on a shrunken box so
    that its backward image can stay inside the sampling box, which
    _require_preimage_coverage verifies by flowing probe points
    backward.  A nonzero statistic with a zero standard error means no
    sample got past the edge of the observable support, where the
    squared terms underflow; that raises CoverageError.  A zero
    statistic with a zero standard error still passes, so
    details["support_visits"] counts the unflagged samples inside the
    support of phi at the start and at the end: 0 and 0 mean the verdict
    rests on no sample.  Control: velocity damping contracts phase volume.
    """
    started = time.perf_counter()
    run_icfg = _control_icfg(icfg, negative_control)
    if phi is None:
        phi = default_observable_for(potential, box, seed)
    if (
        getattr(potential, "singularity_class", None) == CONFINING_AT_ZERO
        and phi.min_support_pair_distance() < 1e-3
    ):
        raise CoverageError(
            "observable support reaches the coincidence set of a confining"
            " potential; pass a phi with separated particle supports"
        )
    _require_preimage_coverage(phi, box, potential, t, run_icfg, seed)
    datum = InitialDatum(kind="constant", center=np.zeros(2 * box.n * box.d), width=1.0)
    e0 = sample_ensemble(box, count, datum, seed)
    e1 = transport.push_forward(e0, potential, t, run_icfg)
    before = phi.value(phi.t_center, e0.x, e0.v)
    after = phi.value(phi.t_center, e1.x, e1.v)
    ok = e1.flags == dynamics.FLAG_OK
    in_start = ok & phi.support_mask(phi.t_center, e0.x, e0.v)
    in_end = ok & phi.support_mask(phi.t_center, e1.x, e1.v)
    xi = np.where(ok, e0.weights * (after - before), 0.0)
    statistic = abs(float(np.sum(xi)))
    se = float(np.std(xi, ddof=1) * math.sqrt(count))
    if statistic > 0.0 and se == 0.0:
        # nonzero terms whose squares underflow: phi was met only where it
        # is below 1e-154, at the edge of its support
        visits = int(np.count_nonzero(in_start | in_end))
        raise CoverageError(
            f"the observable support was not visited: {visits} of {count} samples"
            f" reached only its edge, statistic {statistic:.3g} has no standard error;"
            " raise the count or widen the observable"
        )
    bias = DT_BIAS_COEFFICIENT * run_icfg.dt**2 * float(
        np.sum(np.abs(np.where(ok, e0.weights * after, 0.0)))
    )
    return CheckReport.build(
        check_name="measure_preservation"
        + ("_control" if negative_control else ""),
        potential=potential.describe(),
        seed=seed,
        sample_count=count,
        statistic=statistic,
        std_error=se,
        bias_bound=bias,
        tolerance=tolerance,
        flagged_fraction=float(np.mean(~ok)),
        runtime_seconds=time.perf_counter() - started,
        details={
            "t": t,
            "observable_center": phi.centers.tolist(),
            "support_visits": {
                "start": int(np.count_nonzero(in_start)),
                "end": int(np.count_nonzero(in_end)),
            },
        },
    )


class _Sample:
    """The (box, seed) ensemble of the per-sample flow-axiom checks.

    Sampled once, with its initial energies and the ENERGY_QUANTILE
    level; `below` marks the samples the checks compare.  A state is an
    (x, v, ok) triple whose ok keeps the rows that no flow leg leading to
    it flagged.
    """

    def __init__(self, potential, box: PhaseBox, count: int, seed: int):
        datum = InitialDatum(kind="constant", center=np.zeros(2 * box.n * box.d), width=1.0)
        e0 = sample_ensemble(box, count, datum, seed)
        self.potential, self.count, self.seed = potential, count, seed
        self.start = (e0.x, e0.v, np.ones(count, dtype=bool))
        self.energies = _energy_batch(e0.x, e0.v, potential)
        self.level = float(np.quantile(self.energies, ENERGY_QUANTILE))
        self.below = self.energies < self.level

    def advance(self, state, t: float, icfg: IntegratorConfig):
        x, v, ok = state
        x, v, flags = flow_batch(x, v, self.potential, t, icfg)
        return x, v, ok & (flags == dynamics.FLAG_OK)

    def walk(self, stops, icfg: IntegratorConfig):
        """[(stop, state)] at each of the increasing stop times, from one
        flow that pauses at every stop."""
        states = []

        def keep(stop, batch):
            x, v, flags = batch.result()
            states.append((stop, (x, v, flags == dynamics.FLAG_OK)))

        x0, v0, _ = self.start
        flow_batch(x0, v0, self.potential, stops[-1], icfg, stops=stops, observe=keep)
        return states

    def report(
        self, name: str, control: bool, statistic: float, tolerance: float, ok,
        started: float, details: dict, std_error: float = 0.0,
    ) -> CheckReport:
        return CheckReport.build(
            check_name=name + ("_control" if control else ""),
            potential=self.potential.describe(),
            seed=self.seed,
            sample_count=self.count,
            statistic=statistic,
            std_error=std_error,
            bias_bound=0.0,
            tolerance=tolerance,
            flagged_fraction=float(np.mean(~ok)),
            runtime_seconds=time.perf_counter() - started,
            details=details,
        )


def _worst(values: np.ndarray, selected: np.ndarray) -> float:
    return float(np.max(values[selected])) if np.any(selected) else math.inf


def _kicked(state):
    x, v, ok = state
    return x, v + KICK, ok


def _time_continuity(
    sample: _Sample, a, b, t: float, delta: float, tolerance: float,
    control: bool, started: float,
) -> CheckReport:
    (xa, va, _), (xb, vb, ok) = a, b
    if control:
        xb = xb + 0.5

    def phase_speed(x, v):
        acc, _ = _forces(x, sample.potential)
        return np.sqrt(np.sum(v**2, axis=(1, 2)) + np.sum(acc**2, axis=(1, 2)))

    move = np.sqrt(np.sum((xb - xa) ** 2, axis=(1, 2)) + np.sum((vb - va) ** 2, axis=(1, 2)))
    speed = np.maximum(phase_speed(xa, va), phase_speed(xb, vb))
    selected = ok & sample.below & (speed > 0)
    ratio = move[selected] / (delta * speed[selected])
    statistic = float(np.max(ratio)) if np.any(selected) else math.inf
    return sample.report(
        "time_continuity", control, statistic, tolerance, ok, started,
        {"t": t, "delta": delta, "energy_level": sample.level},
    )


def _group_property(
    sample: _Sample, direct, mid, s: float, t: float, icfg: IntegratorConfig,
    tolerance: float, control: bool, started: float,
) -> CheckReport:
    if control:
        direct, mid = _kicked(direct), _kicked(mid)
    comp = sample.advance(mid, t, icfg)
    if control:
        comp = _kicked(comp)
    (x_direct, v_direct, ok_direct), (x_comp, v_comp, ok) = direct, comp
    ok = ok & ok_direct
    gap = np.maximum(
        np.max(np.abs(x_comp - x_direct), axis=(1, 2)),
        np.max(np.abs(v_comp - v_direct), axis=(1, 2)),
    )
    return sample.report(
        "group_property", control, _worst(gap, ok & sample.below), tolerance, ok,
        started, {"s": s, "t": t, "energy_level": sample.level},
    )


def _energy_invariance(
    sample: _Sample, end, t: float, tolerance: float, control: bool, started: float
) -> CheckReport:
    x, v, ok = end
    e_after = _energy_batch(x, v, sample.potential)
    e_before = sample.energies
    drift = np.abs(e_after - e_before) / np.maximum(1.0, np.abs(e_before))
    return sample.report(
        "energy_invariance", control, _worst(drift, ok & sample.below), tolerance, ok,
        started, {"t": t, "energy_level": sample.level},
    )


def _simpson_defects(sample: _Sample, t_final: float, nodes: int, icfg: IntegratorConfig):
    """Per-sample worst component of the Simpson sum of Y chi' + B(Y) chi
    over the nodes and of its gap to the sum over every other node, from
    one flow that pauses at the nodes; returns them and the final state."""
    if nodes < 5 or (nodes - 1) % 4 != 0:
        raise DomainError("node count must be 4 m + 1")
    t_mid, t_half = t_final / 2.0, t_final / 2.0
    times = np.linspace(0.0, t_final, nodes)
    w_full = transport.simpson_weights(nodes, 0.0, t_final)
    w_half = transport.simpson_weights((nodes + 1) // 2, 0.0, t_final)
    # the two sums per row, component-major as (2, n, d, row); the batch
    # moves them with its rows
    full = half = held = None
    k = 0

    def add_node(tk, batch):
        nonlocal full, half, held, k
        if held is None:
            held = batch
            full = batch.track(np.zeros((2,) + batch.X.shape[:2] + (batch.N,)))
            half = batch.track(np.zeros_like(full))
        u = (tk - t_mid) / t_half
        chi = float(bump(np.asarray(u)))
        chi_p = float(bump_prime(np.asarray(u))) / t_half
        terms = (batch.X * chi_p + batch.V * chi, batch.V * chi_p + batch.A * chi)
        for part, term in enumerate(terms):
            full[part, ..., : batch.m] += w_full[k] * term
            if k % 2 == 0:
                half[part, ..., : batch.m] += w_half[k // 2] * term
        k += 1

    x0, v0, _ = sample.start
    x, v, flags = flow_batch(
        x0, v0, sample.potential, t_final, icfg, stops=times, observe=add_node
    )
    live = full[..., : held.m], half[..., : held.m]
    per_sample = np.zeros(sample.count)
    per_half = np.zeros(sample.count)
    per_sample[held.idx] = np.max(np.abs(live[0]), axis=(0, 1, 2))
    per_half[held.idx] = np.max(np.abs(live[0] - live[1]), axis=(0, 1, 2))
    return per_sample, per_half, (x, v, flags == dynamics.FLAG_OK)


def _weak_ode(
    sample: _Sample, t_final: float, nodes: int, icfg: IntegratorConfig,
    tolerance: float, control: bool, started: float,
):
    """The weak_ode report and the state at t_final."""
    per_sample, per_half, end = _simpson_defects(sample, t_final, nodes, icfg)
    ok = end[2]
    selected = ok & sample.below
    statistic = _worst(per_sample, selected)
    quad_err = float(np.max(per_half[selected])) / 15.0 if np.any(selected) else 0.0
    report = sample.report(
        "weak_ode", control, statistic, tolerance, ok, started,
        {"t_final": t_final, "nodes": nodes, "energy_level": sample.level},
        std_error=quad_err,
    )
    return report, end


def check_time_continuity(
    potential,
    box: PhaseBox,
    t: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    tolerance: float = TOLERANCES["time_continuity"],
    negative_control: bool = False,
) -> CheckReport:
    """Difference quotients of t -> Y(t, z) stay below the phase speed.

    At resolution delta = DELTA_STEPS * dt the displacement
    |Y(t + delta) - Y(t)| of every selected sample must not exceed
    delta times the larger of its endpoint phase speeds |(v, a)|, up to
    the stated tolerance factor for speed variation along the way.
    Control: a positional jump is injected between the two snapshots,
    which no continuous-in-time flow can produce.
    """
    started = time.perf_counter()
    sample = _Sample(potential, box, count, seed)
    delta = DELTA_STEPS * icfg.dt
    (_, a), (_, b) = sample.walk([t, t + delta], icfg)
    return _time_continuity(sample, a, b, t, delta, tolerance, negative_control, started)


def check_group_property(
    potential,
    box: PhaseBox,
    s: float,
    t: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    tolerance: float = TOLERANCES["group_property"],
    negative_control: bool = False,
) -> CheckReport:
    """Composition law Y(t + s, z) = Y(t, Y(s, z)) below an energy level.

    The comparison is restricted to samples whose initial energy lies
    below the ENERGY_QUANTILE level, matching the truncated form in which
    the law holds almost everywhere.  The direct leg never stops at s.
    Control: a velocity kick after every flow invocation; composing
    applies it twice.
    """
    started = time.perf_counter()
    sample = _Sample(potential, box, count, seed)
    direct = sample.advance(sample.start, s + t, icfg)
    mid = sample.advance(sample.start, s, icfg)
    return _group_property(
        sample, direct, mid, s, t, icfg, tolerance, negative_control, started
    )


def check_energy_invariance(
    potential,
    box: PhaseBox,
    t: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    tolerance: float = TOLERANCES["energy_invariance"],
    negative_control: bool = False,
) -> CheckReport:
    """Worst relative energy drift along the flow below an energy level.

    Control: velocity damping bleeds kinetic energy.
    """
    started = time.perf_counter()
    sample = _Sample(potential, box, count, seed)
    end = sample.advance(sample.start, t, _control_icfg(icfg, negative_control))
    return _energy_invariance(sample, end, t, tolerance, negative_control, started)


def check_weak_ode(
    potential,
    box: PhaseBox,
    t_final: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    tolerance: float = TOLERANCES["weak_ode"],
    nodes: int = WEAK_ODE_NODES,
    negative_control: bool = False,
) -> CheckReport:
    """Distributional form of dY/dt = B(Y) against a smooth time bump.

    Integrating by parts, int (Y chi' + B(Y) chi) dt must vanish for
    every chi compactly supported in (0, t_final); the check integrates
    one bump per sample with composite Simpson and takes the worst
    component, restricted below an energy level.  One flow pauses at
    the Simpson nodes and each adds its terms from the live batch state.
    Control: velocity damping makes trajectories solve a different ODE.
    """
    started = time.perf_counter()
    sample = _Sample(potential, box, count, seed)
    report, _ = _weak_ode(
        sample, t_final, nodes, _control_icfg(icfg, negative_control), tolerance,
        negative_control, started,
    )
    return report


def flow_axiom_suite(
    potential,
    box: PhaseBox,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    t: float = 1.0,
    observable: TestFunction | None = None,
    measure_t: float | None = None,
    measure_count: int | None = None,
    with_controls: bool = True,
    checks: Sequence[str] = CHECK_NAMES,
    tolerances: dict[str, float] | None = None,
) -> list[CheckReport]:
    """The named flow-axiom checks in the order of `checks`, then their
    negative controls; `tolerances` overrides TOLERANCES per name.

    Continuity runs at 0.5 t, the group law as 0.4 t + 0.6 t, energy
    invariance and weak_ode over t, all on one sample.  One undamped
    pass stops at 0.5 t, 0.5 t + delta and t and serves continuity, the
    group law's direct leg and energy invariance, and the controls of
    the first two; one Simpson walk per damping gives weak_ode and,
    damped, the energy control.  Each pass and each walk is one
    flow_batch call that pauses at its stops, and every leg between two
    stops takes the steps of its own flow_batch call, so the reports
    equal flowing leg by leg bitwise.  On a fixed step grid the
    positives equal the standalone check_* calls at these times bitwise.

    Preservation samples its own ensemble, with its own horizon and
    count: its power comes from how many samples visit the observable
    support, while the other checks are per-sample statements.

    A report's runtime_seconds covers only its own work: its statistic
    and the legs run for it (the mid leg goes to the positive group
    law, each Simpson walk to its weak_ode).  Sampling and the shared
    pass are not split among the reports and appear in none of them.
    """
    unknown = sorted(set(checks) - set(CHECK_NAMES))
    if unknown:
        raise DomainError(f"unknown flow-axiom checks {unknown}; known {list(CHECK_NAMES)}")
    tol = {**TOLERANCES, **(tolerances or {})}
    controls = (False, True) if with_controls else (False,)
    out = {}
    if "measure_preservation" in checks:
        for control in controls:
            out["measure_preservation", control] = check_measure_preservation(
                potential, box, t if measure_t is None else measure_t,
                count if measure_count is None else measure_count, seed, icfg,
                phi=observable, tolerance=tol["measure_preservation"],
                negative_control=control,
            )
    per_sample = set(checks) - {"measure_preservation"}
    if per_sample:
        sample = _Sample(potential, box, count, seed)
    half, delta = 0.5 * t, DELTA_STEPS * icfg.dt
    at = {}
    if per_sample - {"weak_ode"}:
        at = dict(sample.walk(sorted({half, half + delta, t}), icfg))
    for control in controls:
        if "time_continuity" in checks:
            out["time_continuity", control] = _time_continuity(
                sample, at[half], at[half + delta], half, delta, tol["time_continuity"],
                control, time.perf_counter(),
            )
        if "group_property" in checks:
            started = time.perf_counter()
            if not control:
                mid = sample.advance(sample.start, 0.4 * t, icfg)
            out["group_property", control] = _group_property(
                sample, at[t], mid, 0.4 * t, 0.6 * t, icfg, tol["group_property"],
                control, started,
            )
        if "weak_ode" in checks or (control and "energy_invariance" in checks):
            out["weak_ode", control], walk_end = _weak_ode(
                sample, t, WEAK_ODE_NODES, _control_icfg(icfg, control), tol["weak_ode"],
                control, time.perf_counter(),
            )
        if "energy_invariance" in checks:
            out["energy_invariance", control] = _energy_invariance(
                sample, walk_end if control else at[t], t, tol["energy_invariance"],
                control, time.perf_counter(),
            )
    return [out[name, control] for control in controls for name in checks]


# ---------------------------------------------------------------------------
# mollification convergence


def _table_details(pots: Sequence[MollifiedPotential]) -> dict:
    """Largest held-out radial-table error and the row evaluations that
    fell back to direct quadrature, over the potentials a check flowed."""
    return {
        "table_max_error": max(p.table.max_error for p in pots),
        "table_fallback_rows": sum(p.fallback_rows for p in pots),
    }


def check_gradient_l1_decreasing(
    base,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    levels: Sequence[int],
    r_inner: float,
    r_outer: float,
    n_samples: int,
    seed: int,
) -> CheckReport:
    """Mollified gradients approach the true gradient in L1, level by level.

    The L1 error of grad V_n - grad V on the annulus r_inner <= |r| <=
    r_outer is estimated at each level (an increasing list of at least
    two) from the same sample points, so consecutive estimates share
    their randomness.  The statistic is the worst fine/coarse ratio of
    consecutive errors, held to a pinned tolerance of 1.05, the slack
    left for Monte Carlo jitter; std_error and bias_bound are 0.  This
    check has no negative control yet and its budget is pinned, not
    measured.  details: levels, errors and std_errors per level, ratios.
    """
    levels = list(levels)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise DomainError("gradient convergence needs an increasing list of at least two levels")
    started = time.perf_counter()
    estimates = [
        potentials.gradient_l1_error(
            base, kernel, shrink, level, r_inner, r_outer, n_samples=n_samples, seed=seed
        )
        for level in levels
    ]
    errors = [est.estimate for est in estimates]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    return CheckReport.build(
        check_name="gradient_l1_decreasing",
        potential=base.describe(),
        seed=seed,
        sample_count=n_samples,
        statistic=max(ratios),
        std_error=0.0,
        bias_bound=0.0,
        tolerance=GRADIENT_RATIO_TOLERANCE,
        flagged_fraction=0.0,
        runtime_seconds=time.perf_counter() - started,
        details={
            "levels": levels,
            "errors": errors,
            "std_errors": [est.std_error for est in estimates],
            "ratios": ratios,
        },
    )


def check_mollification_cauchy(
    base,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    box: PhaseBox,
    t: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    levels: Sequence[int] = (3, 4, 5, 6),
    alt_kernel: MollifierKernel | None = None,
    negative_control: bool = False,
) -> list[CheckReport]:
    """Flows under consecutive regularization levels form a Cauchy sequence.

    Gap g_n = mean |Y_{n+1}(t,z) - Y_n(t,z)| must be non-increasing in n
    (first report), and at the finest level the flow must not depend on
    the kernel: switching to alt_kernel moves it by at most twice the
    finest gap (second report).  Control: a damped flow at the finest
    level breaks the gap ordering.
    """
    started = time.perf_counter()
    datum = InitialDatum(kind="constant", center=np.zeros(2 * box.n * box.d), width=1.0)
    e0 = sample_ensemble(box, count, datum, seed)
    if alt_kernel is None:
        alt_kernel = MollifierKernel(d=kernel.d, power=kernel.power + 2)

    ends = []
    pots = [MollifiedPotential(base, kernel, shrink, lvl) for lvl in levels]
    flags_all = np.zeros(count, dtype=np.int8)
    for pos, pot in enumerate(pots):
        run_icfg = icfg
        if negative_control and pos == len(levels) - 1:
            run_icfg = _control_icfg(icfg, True)
        fx, fv, fl = flow_batch(e0.x, e0.v, pot, t, run_icfg)
        ends.append((fx, fv))
        flags_all = np.maximum(flags_all, fl)
    ok = flags_all == dynamics.FLAG_OK

    def phase_dist(a, b):
        return np.sqrt(
            np.sum((a[0] - b[0]) ** 2, axis=(1, 2)) + np.sum((a[1] - b[1]) ** 2, axis=(1, 2))
        )

    gaps = [phase_dist(ends[i], ends[i + 1]) for i in range(len(ends) - 1)]
    diffs = []
    diff_ses = []
    for i in range(len(gaps) - 1):
        delta = gaps[i + 1][ok] - gaps[i][ok]
        diffs.append(float(np.mean(delta)))
        diff_ses.append(float(np.std(delta, ddof=1) / math.sqrt(delta.size)))
    worst = int(np.argmax(diffs))
    flagged = float(np.mean(~ok))
    elapsed = time.perf_counter() - started
    cauchy = CheckReport.build(
        check_name="mollification_cauchy" + ("_control" if negative_control else ""),
        potential=base.describe(),
        seed=seed,
        sample_count=count,
        statistic=diffs[worst],
        std_error=diff_ses[worst],
        bias_bound=0.0,
        tolerance=0.0,
        flagged_fraction=flagged,
        runtime_seconds=elapsed,
        details={
            "levels": list(levels),
            "gap_means": [float(np.mean(g[ok])) for g in gaps],
            **_table_details(pots),
        },
    )

    started = time.perf_counter()
    pot_alt = MollifiedPotential(base, alt_kernel, shrink, levels[-1])
    ax, av, afl = flow_batch(e0.x, e0.v, pot_alt, t, icfg)
    ok2 = ok & (afl == dynamics.FLAG_OK)
    kernel_gap = phase_dist(ends[-1], (ax, av))[ok2]
    finest_gap = float(np.mean(gaps[-1][ok2]))
    stat = float(np.mean(kernel_gap))
    se = float(np.std(kernel_gap, ddof=1) / math.sqrt(kernel_gap.size))
    independence = CheckReport.build(
        check_name="mollification_kernel_independence",
        potential=base.describe(),
        seed=seed,
        sample_count=count,
        statistic=stat,
        std_error=se,
        bias_bound=0.0,
        tolerance=2.0 * finest_gap,
        flagged_fraction=float(np.mean(~ok2)),
        runtime_seconds=time.perf_counter() - started,
        details={
            "level": levels[-1],
            "kernel_powers": [kernel.power, alt_kernel.power],
            "finest_gap": finest_gap,
            **_table_details([pot_alt]),
        },
    )
    return [cauchy, independence]


# ---------------------------------------------------------------------------
# collision boundary term


def check_collision_scaling(
    potential,
    box: PhaseBox,
    datum: InitialDatum,
    count: int,
    seed: int,
    mus: Sequence[float],
    pair: Sequence[int] = (0, 1),
) -> CheckReport:
    """The collision boundary term scales like mu^(d-1).

    Samples the (box, seed) ensemble carrying datum, takes the boundary
    term of the pair at every cutoff radius in mus and fits the log-log
    slope by least squares.  The samples are not flowed: the term is a
    property of the density, and potential only names the report.  The
    ensemble keeps the pair's distances and carried weights after the
    first radius, so each further radius only masks and sums them.  The
    statistic |slope - (d - 1)| is held to a pinned tolerance of 0.3;
    std_error and bias_bound are 0.  With fewer than two radii the slope
    is nan and the check fails.  A radius whose term is 0, because no
    unflagged sample with a nonzero value lies within it, has no
    logarithm to fit and raises CoverageError.  This check has no
    negative control yet and its budget is pinned, not measured.
    details: mus, terms and std_errors per radius, fitted_slope,
    expected_slope.
    """
    started = time.perf_counter()
    mus = list(mus)
    e = sample_ensemble(box, count, datum, seed)
    estimates = [transport.collision_boundary_term(e, mu, pair=pair) for mu in mus]
    terms = [est.estimate for est in estimates]
    if len(mus) >= 2:
        empty = ", ".join(f"{mu:g}" for mu, term in zip(mus, terms) if term == 0.0)
        if empty:
            raise CoverageError(
                f"no unflagged sample of {count} with a nonzero value lies within cutoff"
                f" radius mu = {empty}, so the collision term there is 0 and has no"
                " logarithm to fit; raise the count or the smallest radius"
            )
        slope = float(np.polyfit(np.log(mus), np.log(terms), 1)[0])
    else:
        slope = math.nan
    return CheckReport.build(
        check_name="collision_scaling_slope",
        potential=potential.describe(),
        seed=seed,
        sample_count=count,
        statistic=abs(slope - (box.d - 1)),
        std_error=0.0,
        bias_bound=0.0,
        tolerance=SLOPE_TOLERANCE,
        flagged_fraction=0.0,
        runtime_seconds=time.perf_counter() - started,
        details={
            "mus": mus,
            "terms": terms,
            "std_errors": [est.std_error for est in estimates],
            "fitted_slope": slope,
            "expected_slope": box.d - 1,
        },
    )


# ---------------------------------------------------------------------------
# renormalization residual suite


def check_renormalization_suite(
    potential,
    box: PhaseBox,
    datum: InitialDatum,
    betas: Sequence[transport.BetaFunction],
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    phi: TestFunction | None = None,
    nodes: int = 65,
    negative_control: bool = False,
) -> list[CheckReport]:
    """Weak residual of f and of beta(f) for each shipped renormalizer.

    One weak_residual_suite call serves the identity map and all betas,
    so only the rows whose carried value f0 is nonzero are flowed, once,
    pausing at the Simpson nodes.  That needs beta(0) = 0, as
    renormalization in L^1 does, which is checked for every beta
    (DomainError otherwise).

    Control: the carried values gain a smooth time-dependent factor,
    which no transported density can have (it also maps 0 to 0).

    runtime_seconds is measured: the identity report carries sampling,
    the flow, the shared support mask and pairing, its own terms and the
    statistics; each beta report carries only its own terms,
    timed inside the per-map loop.  The shares sum to the call's wall
    time.  details["carried_rows"] is the number of rows flowed.
    """
    started = time.perf_counter()
    shifted = [b.name for b in betas if b(np.zeros(1))[0] != 0.0]
    if shifted:
        raise DomainError(
            f"renormalizers {shifted} do not map 0 to 0; renormalization needs beta(0) = 0"
        )
    if phi is None:
        phi = random_test_function(
            box.d, box.n, box,
            t_center=1.0, t_width=0.8, rng=rng_for(seed, "residual-phi"),
        )
    e0 = sample_ensemble(box, count, datum, seed)
    a, _ = residual_window(phi)

    def value_map(beta):
        if negative_control:
            return lambda t, f: beta((1.0 + 3.0 * (t - a)) * f)
        return lambda t, f: beta(f)

    maps = [value_map(lambda f: f)] + [value_map(b) for b in betas]
    (results,) = weak_residual_suite(e0, potential, [phi], maps, icfg, nodes=nodes)
    elapsed = time.perf_counter() - started
    beta_seconds = [r.details["map_seconds"] for r in results[1:]]
    shares = [elapsed - sum(beta_seconds)] + beta_seconds
    names = ["identity"] + [b.name for b in betas]
    suffix = "_control" if negative_control else ""
    carried_rows = int(np.count_nonzero(e0.values))
    reports = []
    for name, r, share in zip(names, results, shares):
        details = {k: val for k, val in r.details.items() if k != "map_seconds"}
        reports.append(
            CheckReport.build(
                check_name=f"renormalized_residual[{name}]" + suffix,
                potential=potential.describe(),
                seed=seed,
                sample_count=r.sample_count,
                statistic=abs(r.estimate),
                std_error=r.std_error,
                bias_bound=r.bias_bound,
                tolerance=0.0,
                flagged_fraction=r.details.get("flagged_fraction", 0.0),
                runtime_seconds=share,
                details={**details, "carried_rows": carried_rows},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# uniqueness functional monotonicity


def check_uniqueness_monotone(
    base,
    kernel: MollifierKernel,
    shrink: ShrinkFunction,
    box: PhaseBox,
    datum: InitialDatum,
    level_pair: tuple[int, int],
    horizon: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    radius: float = 6.0,
    times_count: int = 10,
    beta: transport.BetaFunction | None = None,
    negative_control: bool = False,
) -> CheckReport:
    """The cutoff functional of beta(solution difference) never increases.

    h(t) = beta(f_a(t) - f_b(t)) rides the level-a flow, with f_b
    reconstructed by flowing backward at level b; F(t) integrates h
    against the contracting energy cutoff.  Increments of F must stay
    within 3 sigma plus an O(dt^2) integration tolerance restricted to
    samples whose round trip touches the datum support (elsewhere h
    vanishes identically at both endpoints).  Snapshot times snap to
    the integrator grid so that for identical levels the backward run
    retraces the forward one exactly and F is zero to roundoff.
    Control: a source term growing linearly in time is injected into h,
    which no difference of transported solutions can produce.
    """
    started = time.perf_counter()
    if beta is None:
        beta = transport.nonneg_squash(0.5)
    if datum.support_bounds() is None:
        raise DomainError("uniqueness check needs a compactly supported datum")
    e0 = sample_ensemble(box, count, datum, seed)
    stride = max(1, round(horizon / (times_count - 1) / icfg.dt))
    times = icfg.dt * stride * np.arange(times_count)
    horizon = float(times[-1])

    made = []

    def make(lvl: int) -> MollifiedPotential:
        made.append(MollifiedPotential(base, kernel, shrink, lvl))
        return made[-1]

    series, disps = level_difference_series(
        e0, make, level_pair[0], level_pair[1], beta, times, icfg
    )
    if negative_control:
        series = [
            e.with_values(e0.values * (1.0 + 60.0 * e.time)) for e in series
        ]
    pot = make(level_pair[0])
    cutoff = EnergyCutoff.for_potential(base, box.n, radius=radius, horizon=horizon)
    F = np.empty(times_count)
    SE = np.empty(times_count)
    biases = np.empty(times_count)
    xis = np.empty((times_count, count))
    lip = beta.lipschitz * datum.lipschitz_bound()
    lo, hi = datum.support_bounds()
    z0 = e0.phase_flat()
    f_a = e0.values
    for k, e in enumerate(series):
        phi_vals = cutoff.value_batch(times[k], e.x, e.v, pot)
        xi = np.where(e.active, e.weights * e.values * phi_vals, 0.0)
        xis[k] = xi
        F[k] = float(np.sum(xi))
        SE[k] = float(np.std(xi, ddof=1) * math.sqrt(e.size))
        near = (f_a > 0.0) | (
            np.all(
                np.abs(z0 - (lo + hi) / 2.0) < (hi - lo) / 2.0 + disps[k][:, None],
                axis=1,
            )
        )
        capacity = float(np.sum(np.where(e.active & near, e.weights * phi_vals, 0.0)))
        biases[k] = DT_BIAS_COEFFICIENT * icfg.dt**2 * (
            lip * capacity + float(np.sum(np.abs(xi)))
        )
    increments = F[1:] - F[:-1]
    # the same samples carry every node, so the increment noise is the
    # spread of the per-sample differences, not of the nodes separately
    deltas = xis[1:] - xis[:-1]
    inc_se = np.std(deltas, axis=1, ddof=1) * math.sqrt(count)
    inc_bias = biases[1:] + biases[:-1]
    margins = increments - 3.0 * inc_se - inc_bias
    worst = int(np.argmax(margins))
    flagged = max(e.flagged_fraction for e in series)
    return CheckReport.build(
        check_name="uniqueness_monotone" + ("_control" if negative_control else ""),
        potential=base.describe(),
        seed=seed,
        sample_count=count,
        statistic=float(increments[worst]),
        std_error=float(inc_se[worst]),
        bias_bound=float(inc_bias[worst]),
        tolerance=0.0,
        flagged_fraction=flagged,
        runtime_seconds=time.perf_counter() - started,
        details={
            "levels": list(level_pair),
            "functional": F.tolist(),
            "std_errors": SE.tolist(),
            **_table_details(made),
        },
    )
