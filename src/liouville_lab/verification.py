"""Verification checks for flow axioms and transport identities.

Each check produces a CheckReport with an explicit error budget: it
passes iff

    statistic <= tolerance + 3 * std_error + bias_bound

and at most 1% of the samples it compares were flagged during
integration.  Every check also has a constructed failure mode
(`negative_control=True`) that must fail; a check whose control passes
is not measuring anything.
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
    MollifiedLadder,
    MollifierKernel,
    MollifiedPotential,
    ShrinkFunction,
)
from .estimates import MCEstimate
from .profiles import bump_pair
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
# the gradient check's annulus r_inner <= |r| <= r_outer and its sample count
GRADIENT_ANNULUS = (0.5, 2.0)
GRADIENT_SAMPLES = 20_000
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
        """Verdict, check, potential, statistic and budget on one line; a
        report whose details carry support_visits (measure preservation)
        appends the visits at the start and the end."""
        verdict = "pass" if self.passed else "FAIL"
        line = (
            f"{verdict}: {self.check_name} [{self.potential}] "
            f"statistic={self.statistic:.3e} "
            f"budget={self.tolerance + 3 * self.std_error + self.bias_bound:.3e}"
        )
        visits = self.details.get("support_visits")
        if visits is not None:
            line += f" support_visits={visits['start']}/{visits['end']}"
        return line


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
# per-sample checks compare, and flow, only samples below this quantile
# of the initial energy, the truncated form in which the axioms hold a.e.
ENERGY_QUANTILE = 0.9
# time-continuity resolution in integrator steps, rounded to walk nodes
DELTA_STEPS = 10
# velocity kick of the group-law control, given to particle 1 at s on the
# composed path only
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
    if potential.singularity_class != CONFINING_AT_ZERO:
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


# probe points that _require_preimage_coverage flows backward, and the
# share of each box side they must keep clear of its faces
PREIMAGE_PROBES = 10_000
PREIMAGE_MARGIN = 0.01


def _require_preimage_coverage(
    phi: TestFunction, box: PhaseBox, potential, t: float, icfg: IntegratorConfig, seed: int
) -> None:
    """Flow supp phi backward under the undamped icfg; if any probe leaves
    (or hugs) the sampling box, mass could enter supp phi from outside the
    box and the preservation statistic would be biased.

    The control runs the same probe, so its own preimage goes unprobed:
    the inverse of a damped map expands velocities, and a damped
    backward flow, which contracts them, would not test it.  Samples
    that would enter supp phi from outside the box are then missing from
    a damped control's sum of w phi(Y(t, z)), which damping raises above
    the sum of w phi(z) by contracting phase volume; they only remove
    positive terms from it."""
    rng = rng_for(seed, "coverage-probes")
    lo, hi = phi.support_bounds()
    probes = PREIMAGE_PROBES
    z = lo + rng.random((probes, lo.size)) * (hi - lo)
    nd = box.n * box.d
    x = z[:, :nd].reshape(probes, box.n, box.d)
    v = z[:, nd:].reshape(probes, box.n, box.d)
    bx, bv, flags = flow_batch(x, v, potential, -t, icfg)
    back = np.concatenate([bx.reshape(probes, -1), bv.reshape(probes, -1)], axis=1)
    pad = PREIMAGE_MARGIN * (box.highs - box.lows)
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
    negative_control: bool = False,
) -> CheckReport:
    """Flow invariance of integrals of a fixed observable, held to
    TOLERANCES["measure_preservation"].

    Samples z uniform in box; compares sum w phi(Y(t, z)) with
    sum w phi(z).  The default observable lives on a shrunken box so
    that its backward image can stay inside the sampling box, which
    _require_preimage_coverage verifies by flowing probe points
    backward under the undamped flow, for the control too.  The sample
    of `sample_ensemble(box, count, ., seed)` is drawn SAMPLE_BLOCK rows
    at a time; each block gives its rows' phi at the start, and only the
    states that `transport.may_reach` cannot rule out outlive it, to be
    flowed in one call.  Every other sample provably starts and ends
    outside supp phi unflagged, so its term is exactly 0 either way and
    the report is bitwise that of flowing every sample.  So beside the
    flowed rows, memory grows by a few count-length vectors.
    details["flowed_rows"]
    counts the flowed samples, out of sample_count.  A nonzero
    statistic with a zero standard error means no sample got past the
    edge of the observable support, where the squared terms underflow;
    that raises CoverageError.  A zero statistic with a zero standard
    error still passes, so details["support_visits"] counts the
    unflagged samples inside the support of phi at the start and at the
    end: 0 and 0 mean the verdict rests on no sample.  A horizon t <= 0,
    where both read 0 by construction, raises DomainError.  Control:
    velocity damping contracts phase volume.
    """
    return _measure_preservation(
        potential, box, t, count, seed, icfg, phi, negative_control, probe=True
    )


def _measure_preservation(
    potential,
    box: PhaseBox,
    t: float,
    count: int,
    seed: int,
    icfg: IntegratorConfig,
    phi: TestFunction | None,
    negative_control: bool,
    probe: bool,
) -> CheckReport:
    """check_measure_preservation, which runs the coverage probe
    (_require_preimage_coverage) only if probe: flow_axiom_suite probes
    once for its positive and its control, which share the preimage."""
    if not t > 0.0:
        raise DomainError(f"measure preservation needs a horizon t > 0, got {t:g}")
    started = time.perf_counter()
    run_icfg = _control_icfg(icfg, negative_control)
    if phi is None:
        phi = default_observable_for(potential, box, seed)
    transport.require_collision_margin(phi, potential)
    if probe:
        _require_preimage_coverage(phi, box, potential, t, icfg, seed)
    # the sample of sample_ensemble(box, count, ., seed), drawn in blocks:
    # a block's start states outlive it only in its reachable rows
    nd = box.n * box.d
    mask0, before, kept = np.empty(count, dtype=bool), np.empty(count), []
    for start, z in transport._draw(box, count, seed, dynamics.SAMPLE_BLOCK):
        x, v = z[:, :nd].reshape(-1, box.n, box.d), z[:, nd:].reshape(-1, box.n, box.d)
        block = slice(start, start + z.shape[0])
        # one support test per state serves both phi and the visit counts
        mask0[block] = phi.support_mask(phi.t_center, x, v)
        before[block] = phi._value_on(phi.t_center, x, v, mask0[block])
        reach = np.flatnonzero(transport.may_reach(phi, x, v, potential, t, run_icfg))
        kept.append((start + reach, x[reach], v[reach]))
    rows, x0, v0 = (np.concatenate(part) for part in zip(*kept))
    x1, v1, flowed_flags = flow_batch(x0, v0, potential, t, run_icfg)
    # the samples not flowed stay outside the support, unflagged
    inside = phi.support_mask(phi.t_center, x1, v1)
    mask1 = np.zeros(count, dtype=bool)
    mask1[rows] = inside
    after = np.zeros(count)
    after[rows] = phi._value_on(phi.t_center, x1, v1, inside)
    flags = np.zeros(count, dtype=np.int8)
    flags[rows] = flowed_flags
    ok = flags == dynamics.FLAG_OK
    in_start = ok & mask0
    in_end = ok & mask1
    weight = box.volume / count
    total = MCEstimate.from_samples(np.where(ok, weight * (after - before), 0.0))
    statistic, se = abs(total.estimate), total.std_error
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
        np.sum(np.abs(np.where(ok, weight * after, 0.0)))
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
        tolerance=TOLERANCES["measure_preservation"],
        flagged_fraction=float(np.mean(~ok)),
        runtime_seconds=time.perf_counter() - started,
        details={
            "t": t,
            "observable_center": phi.centers.tolist(),
            "support_visits": {
                "start": int(np.count_nonzero(in_start)),
                "end": int(np.count_nonzero(in_end)),
            },
            "flowed_rows": int(rows.size),
        },
    )


class _Sample:
    """The (box, seed) ensemble of the per-sample flow-axiom checks.

    `count` samples are drawn and the ENERGY_QUANTILE level is taken
    over all their initial energies; only the samples below it are kept
    (`rows` of them), and every walk, leg and force evaluation of the
    checks runs on those alone.  Each row is stepped on its own, and an
    adaptive step depends only on its row's min pair distance, so a kept
    row's flow is bitwise what it would be among all `count` samples.  A
    state is an (x, v, ok) triple of the kept rows whose ok keeps the
    rows that no flow leg leading to it flagged.
    """

    def __init__(self, potential, box: PhaseBox, count: int, seed: int):
        datum = InitialDatum(kind="constant", center=np.zeros(2 * box.n * box.d), width=1.0)
        e0 = sample_ensemble(box, count, datum, seed)
        self.potential, self.count, self.seed = potential, count, seed
        energies = _energy_batch(e0.x, e0.v, potential)
        self.level = float(np.quantile(energies, ENERGY_QUANTILE))
        below = energies < self.level
        self.rows = int(np.count_nonzero(below))
        self.energies = energies[below]
        self.start = (e0.x[below], e0.v[below], np.ones(self.rows, dtype=bool))

    def advance(self, state, t: float, icfg: IntegratorConfig):
        x, v, ok = state
        x, v, flags = flow_batch(x, v, self.potential, t, icfg)
        return x, v, ok & (flags == dynamics.FLAG_OK)

    def report(
        self, name: str, control: bool, statistic: float, ok,
        started: float, details: dict, std_error: float = 0.0,
    ) -> CheckReport:
        """The report of check `name`, held to TOLERANCES[name].  Its
        flagged_fraction is the flagged share of the kept rows, 0.0 when
        there are none, and details["flowed_rows"] counts them."""
        return CheckReport.build(
            check_name=name + ("_control" if control else ""),
            potential=self.potential.describe(),
            seed=self.seed,
            sample_count=self.count,
            statistic=statistic,
            std_error=std_error,
            bias_bound=0.0,
            tolerance=TOLERANCES[name],
            flagged_fraction=float(np.mean(~ok)) if ok.size else 0.0,
            runtime_seconds=time.perf_counter() - started,
            details={**details, "flowed_rows": self.rows},
        )


def _worst(values: np.ndarray, selected: np.ndarray) -> float:
    return float(np.max(values[selected])) if np.any(selected) else math.inf


def _kicked(state):
    """The state with KICK added to every velocity component of particle 1.
    A kick of every particle alike would only move the centre of mass,
    which the pair forces carry along unchanged."""
    x, v, ok = state
    v = v.copy()
    v[:, 0] += KICK
    return x, v, ok


def _delta_nodes(t: float, dt: float) -> int:
    """Time continuity's resolution in walk nodes: the k for which
    delta = k t / 128 is nearest DELTA_STEPS dt, at least one node and,
    as the walk needs dt <= t / 128, at most DELTA_STEPS."""
    gaps = WEAK_ODE_NODES - 1
    return max(1, round(DELTA_STEPS * dt / (t / gaps)))


def _time_continuity(
    sample: _Sample, a, b, t: float, delta: float, control: bool, started: float,
) -> CheckReport:
    """Difference quotients of t -> Y(t, z): the displacement from state a
    to state b, delta later, of every unflagged sample against delta times
    the larger of its endpoint phase speeds |(v, a)|.  Control: a
    positional jump between the two states."""
    (xa, va, _), (xb, vb, ok) = a, b
    if control:
        xb = xb + 0.5

    def phase_speed(x, v):
        acc, _ = _forces(x, sample.potential)
        return np.sqrt(np.sum(v**2, axis=(1, 2)) + np.sum(acc**2, axis=(1, 2)))

    move = np.sqrt(np.sum((xb - xa) ** 2, axis=(1, 2)) + np.sum((vb - va) ** 2, axis=(1, 2)))
    speed = np.maximum(phase_speed(xa, va), phase_speed(xb, vb))
    selected = ok & (speed > 0)
    ratio = move[selected] / (delta * speed[selected])
    statistic = float(np.max(ratio)) if np.any(selected) else math.inf
    return sample.report(
        "time_continuity", control, statistic, ok, started,
        {"t": t, "delta": delta, "energy_level": sample.level},
    )


def _group_property(
    sample: _Sample, direct, comp, s: float, t: float, control: bool, started: float,
) -> CheckReport:
    """Worst phase gap between the direct end Y(s + t, z) and the
    composed one Y(t, Y(s, z))."""
    (x_direct, v_direct, ok_direct), (x_comp, v_comp, ok) = direct, comp
    ok = ok & ok_direct
    gap = np.maximum(
        np.max(np.abs(x_comp - x_direct), axis=(1, 2)),
        np.max(np.abs(v_comp - v_direct), axis=(1, 2)),
    )
    return sample.report(
        "group_property", control, _worst(gap, ok), ok, started,
        {"s": s, "t": t, "energy_level": sample.level},
    )


def _energy_invariance(
    sample: _Sample, end, t: float, control: bool, started: float
) -> CheckReport:
    """Worst relative energy drift from the start to the end state.
    Control: velocity damping bleeds kinetic energy."""
    x, v, ok = end
    e_after = _energy_batch(x, v, sample.potential)
    e_before = sample.energies
    drift = np.abs(e_after - e_before) / np.maximum(1.0, np.abs(e_before))
    return sample.report(
        "energy_invariance", control, _worst(drift, ok), ok, started,
        {"t": t, "energy_level": sample.level},
    )


def _simpson_defects(sample: _Sample, t_final: float, icfg: IntegratorConfig):
    """The Simpson walk of Y chi' + B(Y) chi over [0, t_final], chi the
    time bump centred on 0.5 t_final, at the WEAK_ODE_NODES nodes.
    Returns the per-sample worst component of its Simpson sum, that of
    the sum's gap to the half-grid sum, and the states at the middle
    node (0.5 t_final), at `_delta_nodes` nodes later and at the walk's
    end, t_final."""
    t_half = t_final / 2.0
    middle = WEAK_ODE_NODES // 2
    kept = (middle, middle + _delta_nodes(t_final, icfg.dt))
    states = []

    def defect(k, tk, batch):
        chi, slope = (float(a) for a in bump_pair(np.asarray((tk - t_half) / t_half)))
        chi_p = slope / t_half
        if k in kept:
            x, v, flags = batch.result()
            states.append((x, v, flags == dynamics.FLAG_OK))
        return None, np.stack((batch.X * chi_p + batch.V * chi, batch.V * chi_p + batch.A * chi))

    x0, v0, _ = sample.start
    (x, v, flags), full, half = transport.simpson_walk(
        x0, v0, sample.potential, (0.0, t_final), WEAK_ODE_NODES, icfg, defect
    )
    per_sample = np.max(np.abs(full), axis=(1, 2, 3))
    per_half = np.max(np.abs(full - half), axis=(1, 2, 3))
    return per_sample, per_half, states + [(x, v, flags == dynamics.FLAG_OK)]


def _weak_ode(
    sample: _Sample, walk, t_final: float, control: bool, started: float,
) -> CheckReport:
    """Distributional form of dY/dt = B(Y) against a smooth time bump:
    int (Y chi' + B(Y) chi) dt vanishes for every chi compactly supported
    in (0, t_final).  The statistic is the worst component of the walk's
    Simpson sum; its gap to the sum over every other node, over 15, is
    the std_error.  Control: velocity damping makes trajectories solve a
    different ODE."""
    per_sample, per_half, states = walk
    ok = states[-1][2]
    statistic = _worst(per_sample, ok)
    quad_err = float(np.max(per_half[ok])) / 15.0 if np.any(ok) else 0.0
    return sample.report(
        "weak_ode", control, statistic, ok, started,
        {"t_final": t_final, "nodes": WEAK_ODE_NODES, "energy_level": sample.level},
        std_error=quad_err,
    )


def _suite_report(name: str, potential, box, t, count, seed, icfg, negative_control):
    """flow_axiom_suite's report of check `name` over horizon t, or its
    control."""
    return flow_axiom_suite(
        potential, box, count, seed, icfg, t=t, checks=[name], with_controls=negative_control,
    )[-1]


def check_time_continuity(
    potential, box: PhaseBox, t: float, count: int, seed: int, icfg: IntegratorConfig,
    negative_control: bool = False,
) -> CheckReport:
    """flow_axiom_suite's time_continuity report over horizon t, or its control."""
    return _suite_report("time_continuity", potential, box, t, count, seed, icfg, negative_control)


def check_group_property(
    potential, box: PhaseBox, t: float, count: int, seed: int, icfg: IntegratorConfig,
    negative_control: bool = False,
) -> CheckReport:
    """flow_axiom_suite's group_property report over horizon t, or its control."""
    return _suite_report("group_property", potential, box, t, count, seed, icfg, negative_control)


def check_energy_invariance(
    potential, box: PhaseBox, t: float, count: int, seed: int, icfg: IntegratorConfig,
    negative_control: bool = False,
) -> CheckReport:
    """flow_axiom_suite's energy_invariance report over horizon t, or its control."""
    return _suite_report("energy_invariance", potential, box, t, count, seed, icfg, negative_control)


def check_weak_ode(
    potential, box: PhaseBox, t: float, count: int, seed: int, icfg: IntegratorConfig,
    negative_control: bool = False,
) -> CheckReport:
    """flow_axiom_suite's weak_ode report over horizon t, or its control."""
    return _suite_report("weak_ode", potential, box, t, count, seed, icfg, negative_control)


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
) -> list[CheckReport]:
    """The named flow-axiom checks in the order of `checks`, then their
    negative controls, each held to its TOLERANCES entry.  Each check is
    named once (`require_checks`).  A per-sample check needs a horizon
    t > 0 and, as the walk does, dt <= t / 128; DomainError otherwise.

    The per-sample checks share one sample (`_Sample`): `count` draws,
    of which only the rows below the ENERGY_QUANTILE level of their
    initial energies are kept and flowed, once per damping.  These kept
    rows are the population every per-sample statistic reads, so a
    report's flagged_fraction is the flagged share of them, 0.0 when
    there are none (the statistic is then inf and the check fails);
    sample_count stays `count` and details["flowed_rows"] counts the
    kept rows.  The undamped Simpson walk (`transport.simpson_walk`), a
    flow over t paused at the WEAK_ODE_NODES nodes, gives weak_ode.  Its
    states at the middle node, 0.5 t, and k nodes later serve time
    continuity at delta = k t / 128, k the node count nearest
    DELTA_STEPS dt (at least 1, at most DELTA_STEPS).  Its end is the
    group law's direct end, composed against a 0.4 t leg from the start
    and a 0.6 t leg on from there: the two paths stop at different
    times, so even on a fixed step grid they take different remainder
    steps and the gap measures the flow.  The composed end also gives energy invariance.
    The walk damped, run only for the controls of weak_ode and energy
    invariance, gives both.  Every leg between two stops takes the steps
    of its own flow_batch call, so the reports equal flowing leg by leg
    bitwise.

    Preservation samples its own ensemble, with its own horizon and
    count: its power comes from how many samples visit the observable
    support, while the other checks are per-sample statements.  Its
    positive and its control probe the same preimage, so the suite runs
    that coverage probe once, in the positive.

    A report's runtime_seconds covers only its own work: its statistic
    and the legs run for it alone (the kicked composition to the group
    law control, the damped walk to the weak_ode control).  Sampling,
    the undamped walk and the composed path are shared and appear in
    none of them.
    """
    checks = require_checks(checks)
    names = set(checks)
    if names - {"measure_preservation"} and not t > 0.0:
        raise DomainError(f"the per-sample flow-axiom checks need a horizon t > 0, got {t:g}")
    controls = (False, True) if with_controls else (False,)
    out = {}
    if "measure_preservation" in checks:
        for control in controls:
            out["measure_preservation", control] = _measure_preservation(
                potential, box, t if measure_t is None else measure_t,
                count if measure_count is None else measure_count, seed, icfg,
                observable, control, probe=not control,
            )
    if names - {"measure_preservation"}:
        sample = _Sample(potential, box, count, seed)
    if {"time_continuity", "group_property", "weak_ode"} & names:
        walk = _simpson_defects(sample, t, icfg)
        half, later, end = walk[2]
        delta = _delta_nodes(t, icfg.dt) * t / (WEAK_ODE_NODES - 1)
    if {"group_property", "energy_invariance"} & names:
        mid = sample.advance(sample.start, 0.4 * t, icfg)
        composed = sample.advance(mid, 0.6 * t, icfg)
    for control in controls:
        if "time_continuity" in checks:
            out["time_continuity", control] = _time_continuity(
                sample, half, later, 0.5 * t, delta, control, time.perf_counter(),
            )
        if "group_property" in checks:
            started = time.perf_counter()
            comp = composed
            if control:
                # one kick at s inside the composed path: the gap is what the
                # flow makes of it by the end
                comp = sample.advance(_kicked(mid), 0.6 * t, icfg)
            out["group_property", control] = _group_property(
                sample, end, comp, 0.4 * t, 0.6 * t, control, started,
            )
        started = time.perf_counter()
        if control and {"weak_ode", "energy_invariance"} & names:
            # from here on the walk is the damped one
            walk = _simpson_defects(sample, t, _control_icfg(icfg, True))
        if "weak_ode" in checks:
            out["weak_ode", control] = _weak_ode(sample, walk, t, control, started)
        if "energy_invariance" in checks:
            out["energy_invariance", control] = _energy_invariance(
                sample, walk[2][-1] if control else composed, t, control, time.perf_counter(),
            )
    return [out[name, control] for control in controls for name in checks]


def require_checks(names: Sequence[str]) -> list[str]:
    """The names as a list, if each is a flow-axiom check named once, at
    least one; DomainError otherwise."""
    names = list(names)
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise DomainError(f"unknown flow-axiom checks {unknown}; known {list(CHECK_NAMES)}")
    if not names or len(set(names)) < len(names):
        raise DomainError(f"name each flow-axiom check once, at least one; got {names}")
    return names


# ---------------------------------------------------------------------------
# mollification convergence


def require_levels(levels: Sequence[int], least: int) -> list[int]:
    """The levels as a list, if there are at least `least` of them and
    they strictly increase; DomainError otherwise.  A repeated level
    compares a flow with itself and a falling one reverses the ladder, so
    a convergence check over such levels would pass or fail by
    construction."""
    levels = list(levels)
    if len(levels) < least or any(b <= a for a, b in zip(levels, levels[1:])):
        raise DomainError(f"need at least {least} strictly increasing levels, got {levels}")
    return levels


def require_radii(mus: Sequence[float]) -> list[float]:
    """The cutoff radii as a list, if they are positive and at least two
    of them differ; DomainError otherwise.  Repeated radii leave the
    log-log fit of a scaling slope rank deficient, so it would fail (or
    pass) for a reason the check does not name."""
    mus = list(mus)
    if len(set(mus)) < 2 or any(not mu > 0 for mu in mus):
        raise DomainError(
            f"a scaling slope needs at least two cutoff radii that differ, all positive; got {mus}"
        )
    return mus


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
    seed: int,
) -> CheckReport:
    """Mollified gradients approach the true gradient in L1, level by level.

    The L1 error of grad V_n - grad V on the annulus GRADIENT_ANNULUS is
    estimated at each level (at least two, strictly increasing,
    DomainError otherwise) from the same GRADIENT_SAMPLES points, so
    consecutive estimates share their randomness.  The statistic is the
    worst fine/coarse ratio of consecutive errors, held to a pinned
    tolerance of 1.05, the slack left for Monte Carlo jitter; std_error
    and bias_bound are 0.  This check has no negative control yet and its
    budget is pinned, not measured.  details: levels, errors and
    std_errors per level, ratios.
    """
    levels = require_levels(levels, 2)
    started = time.perf_counter()
    estimates = [
        potentials.gradient_l1_error(
            base, kernel, shrink, level, *GRADIENT_ANNULUS, n_samples=GRADIENT_SAMPLES, seed=seed
        )
        for level in levels
    ]
    errors = [est.estimate for est in estimates]
    ratios = [fine / coarse for coarse, fine in zip(errors, errors[1:])]
    return CheckReport.build(
        check_name="gradient_l1_decreasing",
        potential=base.describe(),
        seed=seed,
        sample_count=GRADIENT_SAMPLES,
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
    negative_control: bool = False,
) -> list[CheckReport]:
    """Flows under consecutive regularization levels form a Cauchy sequence.

    Gap g_n = mean |Y_{n+1}(t,z) - Y_n(t,z)| must be non-increasing in n
    (first report), so it needs at least three strictly increasing
    levels, and t > 0, where no gap is 0 by construction (DomainError
    otherwise).  At the finest level the flow must not depend on the
    kernel: switching to the kernel of power + 2 moves it by at most
    twice the finest gap (second report).  Control: a
    damped flow at the finest level breaks the gap ordering.  Both
    means are MCEstimate.from_samples sums of the per-sample terms over
    their count, so fewer than two unflagged samples raise DomainError.

    The undamped flows, the kernel swap included, step together as one
    `MollifiedLadder` batch, bitwise as flown one by one; the control's
    damped level flows alone.  The first report's runtime holds them all.
    """
    started = time.perf_counter()
    levels = require_levels(levels, 3)
    if not t > 0.0:
        raise DomainError(f"the Cauchy check needs a horizon t > 0, got {t:g}")
    datum = InitialDatum(kind="constant", center=np.zeros(2 * box.n * box.d), width=1.0)
    e0 = sample_ensemble(box, count, datum, seed)
    alt_kernel = MollifierKernel(d=kernel.d, power=kernel.power + 2)

    pots = [MollifiedPotential(base, kernel, shrink, lvl) for lvl in levels]
    pot_alt = MollifiedPotential(base, alt_kernel, shrink, levels[-1])
    damped = pots[-1:] if negative_control else []
    undamped = [p for p in pots if p not in damped] + [pot_alt]
    ladder = MollifiedLadder(undamped)
    K = len(undamped)
    fx, fv, fl = flow_batch(np.tile(e0.x, (K, 1, 1)), np.tile(e0.v, (K, 1, 1)), ladder, t, icfg)
    runs = {
        pot: tuple(part[j * count : (j + 1) * count] for part in (fx, fv, fl))
        for j, pot in enumerate(undamped)
    }
    for pot in damped:
        runs[pot] = flow_batch(e0.x, e0.v, pot, t, _control_icfg(icfg, True))
    ends = [runs[pot][:2] for pot in pots]
    ok = np.maximum.reduce([runs[pot][2] for pot in pots]) == dynamics.FLAG_OK

    def phase_dist(a, b):
        return np.sqrt(
            np.sum((a[0] - b[0]) ** 2, axis=(1, 2)) + np.sum((a[1] - b[1]) ** 2, axis=(1, 2))
        )

    gaps = [phase_dist(ends[i], ends[i + 1]) for i in range(len(ends) - 1)]
    # the mean change of the gap from one level pair to the next
    diffs = [
        MCEstimate.from_samples((fine[ok] - coarse[ok]) / np.count_nonzero(ok))
        for coarse, fine in zip(gaps, gaps[1:])
    ]
    worst = max(diffs, key=lambda diff: diff.estimate)
    flagged = float(np.mean(~ok))
    elapsed = time.perf_counter() - started
    cauchy = CheckReport.build(
        check_name="mollification_cauchy" + ("_control" if negative_control else ""),
        potential=base.describe(),
        seed=seed,
        sample_count=count,
        statistic=worst.estimate,
        std_error=worst.std_error,
        bias_bound=0.0,
        tolerance=0.0,
        flagged_fraction=flagged,
        runtime_seconds=elapsed,
        details={
            "levels": levels,
            "gap_means": [float(np.mean(g[ok])) for g in gaps],
            **_table_details(pots),
        },
    )

    started = time.perf_counter()
    ax, av, afl = runs[pot_alt]
    ok2 = ok & (afl == dynamics.FLAG_OK)
    kernel_gap = phase_dist(ends[-1], (ax, av))[ok2]
    finest_gap = float(np.mean(gaps[-1][ok2]))
    mean_gap = MCEstimate.from_samples(kernel_gap / kernel_gap.size)
    independence = CheckReport.build(
        check_name="mollification_kernel_independence",
        potential=base.describe(),
        seed=seed,
        sample_count=count,
        statistic=mean_gap.estimate,
        std_error=mean_gap.std_error,
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
) -> CheckReport:
    """The collision boundary term scales like mu^(d-1).

    Takes the boundary term of particles 1 and 2 over the (box, seed)
    sample carrying datum at every cutoff radius in mus and fits the
    log-log slope by least squares.  The samples are not flowed: the term
    is a property of the density, and potential only names the report.
    One collision_boundary_term call draws the sample in blocks, keeps
    only the rows within the largest radius and sweeps every radius
    through one reused buffer, so the check holds at most 2 doubles per
    row, 3 per row within that radius and two blocks of the sample.  The
    statistic
    |slope - (d - 1)| is held to a pinned tolerance of 0.3; std_error
    and bias_bound are 0.  Fewer than two distinct radii fit
    no slope, and they and a radius <= 0 raise DomainError
    (`require_radii`).  A radius whose term is 0, because no
    sample with a nonzero value lies within it, has no
    logarithm to fit and raises CoverageError.  This check has no
    negative control yet and its budget is pinned, not measured.
    details: mus, terms and std_errors per radius, fitted_slope,
    expected_slope.
    """
    started = time.perf_counter()
    mus = require_radii(mus)
    estimates = transport.collision_boundary_term(box, count, datum, seed, mus)
    terms = [est.estimate for est in estimates]
    empty = ", ".join(f"{mu:g}" for mu, term in zip(mus, terms) if term == 0.0)
    if empty:
        raise CoverageError(
            f"no sample of {count} with a nonzero value lies within cutoff"
            f" radius mu = {empty}, so the collision term there is 0 and has no"
            " logarithm to fit; raise the count or the smallest radius"
        )
    slope = float(np.polyfit(np.log(mus), np.log(terms), 1)[0])
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
    negative_control: bool = False,
) -> list[CheckReport]:
    """Weak residual of f and of beta(f) for each shipped renormalizer.

    One weak_residual_suite call serves the identity map and all betas,
    so only the rows whose carried value f0 is nonzero are flowed, once,
    in one Simpson walk over transport.RESIDUAL_NODES nodes.  That needs
    beta(0) = 0, as renormalization in L^1 does, which the suite checks
    for every beta (DomainError otherwise).

    Every beta report reweights one per-row defect: the suite keeps one
    bracket per row, sum_k S_k Dphi(t_k, Y_i(t_k)) + phi(0, z_i), which
    the identity report weights by f0_i and each beta report by
    beta(f0_i).  Along a trajectory the bracket is the time integral of
    d/dt phi, so it is 0 up to Simpson and integrator error for any map, and a beta
    report adds no evidence of renormalization beyond the identity's
    (details["reweighted_defect"] is True on the beta reports).

    Control: the bracket's terms gain the time factor c(t) =
    1 + 3 (t - a), a the window's start, which no transported density
    can have; each beta report reweights that same corrupted bracket.

    runtime_seconds is measured: each beta report carries the suite's
    statistics of its beta, which reweight the bracket, and the identity
    report carries the rest (sampling, the walk with its support tests
    and pairings, and its own statistics).  The shares sum to the call's
    wall time.  details["carried_rows"] is the number of rows flowed.
    """
    started = time.perf_counter()
    if phi is None:
        phi = random_test_function(
            box.d, box.n, box,
            *transport.TEST_FUNCTION_WINDOW, rng=rng_for(seed, "residual-phi"),
        )
    e0 = sample_ensemble(box, count, datum, seed)
    a, _ = residual_window(phi)
    time_factor = (lambda t: 1.0 + 3.0 * (t - a)) if negative_control else None
    results = weak_residual_suite(e0, potential, phi, [None, *betas], icfg, time_factor)
    elapsed = time.perf_counter() - started
    beta_seconds = [r.details["seconds"] for r in results[1:]]
    shares = [elapsed - sum(beta_seconds)] + beta_seconds
    names = ["identity"] + [b.name for b in betas]
    suffix = "_control" if negative_control else ""
    carried_rows = int(np.count_nonzero(e0.values))
    reports = []
    for m, (name, r, share) in enumerate(zip(names, results, shares)):
        details = {k: val for k, val in r.details.items() if k != "seconds"}
        details.update(carried_rows=carried_rows, reweighted_defect=m > 0)
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
                details=details,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# uniqueness functional monotonicity

# beta = nonneg_squash(scale) is quadratic near 0, as the uniqueness
# functional of a difference of solutions needs
UNIQUENESS_BETA_SCALE = 0.5
# radius of the contracting energy cutoff the functional is taken against
UNIQUENESS_CUTOFF_RADIUS = 6.0


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
    times_count: int = 10,
    negative_control: bool = False,
) -> CheckReport:
    """The cutoff functional of beta(solution difference) never increases.

    beta is nonneg_squash(UNIQUENESS_BETA_SCALE) and the energy cutoff has
    radius UNIQUENESS_CUTOFF_RADIUS; F is taken at times_count >= 2
    snapshot times from 0 to the horizon, at least one step of dt apart
    (DomainError otherwise).
    h(t) = beta(f_a(t) - f_b(t)) rides the level-a flow, with f_b
    reconstructed by flowing backward at level b; F(t) integrates h
    against the contracting energy cutoff.  Increments of F must stay
    within 3 sigma plus an O(dt^2) integration tolerance restricted to
    samples whose round trip touches the datum support (elsewhere h
    vanishes identically at both endpoints).  Snapshot times snap to
    the integrator grid so that for identical levels the backward run
    retraces the forward one to roundoff (about 1e-15 in phase space) and
    F is zero to roundoff.
    Control: a source term growing linearly in time is injected into h,
    which no difference of transported solutions can produce.
    """
    started = time.perf_counter()
    if times_count < 2:
        raise DomainError(f"the uniqueness check needs at least two times, got {times_count}")
    if datum.support_bounds() is None:
        raise DomainError("uniqueness check needs a compactly supported datum")
    # a horizon that snaps to no step between snapshots would flow one
    # step each, whatever its sign, and hold by construction
    stride = round(horizon / (times_count - 1) / icfg.dt) if 0 < horizon < math.inf else 0
    if stride < 1:
        raise DomainError(
            f"the uniqueness check needs a finite horizon t > 0 of at least one step"
            f" between snapshots, got {horizon:g}"
        )
    beta = transport.nonneg_squash(UNIQUENESS_BETA_SCALE)
    e0 = sample_ensemble(box, count, datum, seed)
    times = icfg.dt * stride * np.arange(times_count)
    horizon = float(times[-1])

    pots = [MollifiedPotential(base, kernel, shrink, lvl) for lvl in level_pair]
    series, disps = level_difference_series(e0, *pots, beta, times, icfg)
    cutoff = EnergyCutoff.for_potential(
        base, box.n, radius=UNIQUENESS_CUTOFF_RADIUS, horizon=horizon
    )
    F = np.empty(times_count)
    SE = np.empty(times_count)
    biases = np.empty(times_count)
    xis = np.empty((times_count, count))
    lip = beta.lipschitz * datum.lipschitz_bound()
    lo, hi = datum.support_bounds()
    z0 = e0.phase_flat()
    f_a = e0.values
    for k, (x, v, h, flags) in enumerate(series):
        if negative_control:
            h = e0.values * (1.0 + 60.0 * times[k])
        active = flags == dynamics.FLAG_OK
        # the cutoff's energies are those of the forward flow
        phi_vals = cutoff.value_batch(times[k], x, v, pots[0])
        xi = np.where(active, e0.weight * h * phi_vals, 0.0)
        xis[k] = xi
        total = MCEstimate.from_samples(xi)
        F[k], SE[k] = total.estimate, total.std_error
        near = (f_a > 0.0) | (
            np.all(
                np.abs(z0 - (lo + hi) / 2.0) < (hi - lo) / 2.0 + disps[k][:, None],
                axis=1,
            )
        )
        capacity = float(np.sum(np.where(active & near, e0.weight * phi_vals, 0.0)))
        biases[k] = DT_BIAS_COEFFICIENT * icfg.dt**2 * (
            lip * capacity + float(np.sum(np.abs(xi)))
        )
    increments = F[1:] - F[:-1]
    # the same samples carry every node, so the increment noise is the
    # spread of the per-sample differences, not of the nodes separately
    deltas = xis[1:] - xis[:-1]
    inc_se = np.array([MCEstimate.from_samples(delta).std_error for delta in deltas])
    inc_bias = biases[1:] + biases[:-1]
    margins = increments - 3.0 * inc_se - inc_bias
    worst = int(np.argmax(margins))
    flagged = max(float(np.mean(flags != dynamics.FLAG_OK)) for *_, flags in series)
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
            **_table_details(pots),
        },
    )
