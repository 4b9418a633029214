"""The four check workloads of the time-to-verdict benchmark.

Every workload drives liouville_lab only through its public functions and
records one verdict per check it runs.  A verdict is wrong when a positive
check fails, a negative control passes, the identical-level uniqueness
functional reaches 1e-20, or a CLI run exits with a code other than 0.

Sizes were cut from the prototype sizes so that one pass fits the
benchmark's run time on 2 cores; every cut keeps the control-power floors
measured while sizing (see FLOORS).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from liouville_lab import cli, potentials, transport, verification
from liouville_lab.dynamics import IntegratorConfig
from liouville_lab.rng import rng_for

CONFIGS = Path(__file__).resolve().parent / "configs"
CLI_RUNS = (
    ("simulate_two_body", "simulate"),
    ("verify_three_body", "verify"),
    ("scaling_collisions", "scaling"),
)

# Control-power floors found while sizing: below these sizes a negative
# control was seen to pass, so no workload may go below them.
FLOORS = {
    "measure_preservation control, repulsive_power": "10k samples wrongly passed on 8 "
    "of 12 seeds; 100k failed on 12 of 12 (measure_t=0.05, adaptive Verlet).",
    "uniqueness_monotone control": "with 10 snapshots, 200 samples wrongly passed "
    "(11.1 vs budget 19.2), 600 had a 2% margin and 1000 about 30%; with 5 snapshots, "
    "600 samples had 7-44% and 1000 samples 27-80% over seeds 1-12.",
    "renormalized_residual control, piecewise_radial": "10k samples wrongly passed on "
    "seeds 2 and 3 (statistic/budget 0.74, 0.96); 20k gave 1.24-2.19 over seeds 1-12; "
    "30k at dt=2e-3 gave 1.56-2.12 on the weakest seeds (2, 3, 9).",
}

SIZES = {
    "flow_axioms": {
        "count": 5_000,
        "t": 0.25,
        "measure_count": 100_000,
        "measure_t": 0.05,
    },
    "mollified": {
        "uniqueness_adjacent_count": 200,
        "uniqueness_control_count": 1_000,
        "uniqueness_identical_count": 100,
        "uniqueness_times_count": 5,
        "cauchy_count": 100,
        "cauchy_levels": [3, 4, 5, 6],
        "gradient_l1_samples": 10_000,
    },
    "renormalized_residual": {
        "dt": 2e-3,
        "free_count": 100_000,
        "free_test_functions": 3,
        "piecewise_count": 30_000,
        "piecewise_test_functions": 1,
    },
    "cli_small_batch": {
        name: json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        for name, _ in CLI_RUNS
    },
}


class Verdicts:
    """Collects one record per verdict of a pass, plus suite-call costs."""

    def __init__(self):
        self.records: list[dict] = []
        self.suite_calls: list[dict] = []

    def report(self, rep, control: bool) -> None:
        budget = rep.tolerance + 3.0 * rep.std_error + rep.bias_bound
        self.records.append(
            {
                "check": rep.check_name,
                "potential": rep.potential,
                "role": "control" if control else "positive",
                "expected_pass": not control,
                "passed": bool(rep.passed),
                "statistic": rep.statistic,
                "std_error": rep.std_error,
                "bias_bound": rep.bias_bound,
                "tolerance": rep.tolerance,
                "flagged_fraction": rep.flagged_fraction,
                "budget": budget,
                "margin": _margin(rep.statistic, budget),
            }
        )

    def gate(self, check: str, ok: bool, value: float) -> None:
        """A verdict that is not a CheckReport: a bitwise gate or an exit code."""
        self.records.append(
            {"check": check, "role": "gate", "expected_pass": True, "passed": bool(ok),
             "statistic": float(value)}
        )


def _margin(statistic: float, budget: float) -> float:
    """statistic / budget; a nonzero statistic against a zero budget reads 1e12."""
    if budget > 0.0:
        return statistic / budget
    return 1e12 if statistic > 0.0 else 0.0


def _flow_axioms(seed: int, v: Verdicts, work: Path) -> None:
    size = SIZES["flow_axioms"]
    separated = transport.TestFunction(
        d=2, n=2, t_center=0.0, t_width=1.0,
        centers=np.array([-0.48, 0.0, 0.48, 0.0, 0.0, 0.0, 0.0, 0.0]),
        widths=np.array([0.3, 0.6, 0.3, 0.6, 0.9, 0.9, 0.9, 0.9]),
    )
    cases = [
        (potentials.harmonic(d=2, strength=1.0),
         transport.PhaseBox.centered(d=2, n=2, x_half=2.0, v_half=2.0),
         IntegratorConfig(scheme="velocity_verlet", dt=1e-3), None),
        (potentials.repulsive_power(d=2, exponent=1.0),
         transport.PhaseBox.centered(d=2, n=2, x_half=1.5, v_half=1.5),
         IntegratorConfig(scheme="velocity_verlet", dt=1e-3, adaptive=True), separated),
    ]
    for pot, box, icfg, observable in cases:
        reports = verification.flow_axiom_suite(
            pot, box, size["count"], seed, icfg, t=size["t"], observable=observable,
            measure_t=size["measure_t"], measure_count=size["measure_count"],
            with_controls=True,
        )
        for rep in reports:
            v.report(rep, control=rep.check_name.endswith("_control"))


def _mollified(seed: int, v: Verdicts, work: Path) -> None:
    size = SIZES["mollified"]
    kernel = potentials.MollifierKernel(d=2, power=3)
    shrink = potentials.ShrinkFunction()
    box = transport.PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
    icfg = IntegratorConfig(scheme="velocity_verlet", dt=2e-3)

    confining = potentials.repulsive_power(d=2, exponent=1.0)
    datum = transport.InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
    for levels, count, control in (
        ((4, 5), size["uniqueness_adjacent_count"], False),
        ((4, 5), size["uniqueness_control_count"], True),
        ((4, 4), size["uniqueness_identical_count"], False),
    ):
        rep = verification.check_uniqueness_monotone(
            confining, kernel, shrink, box, datum, levels, horizon=0.5, count=count,
            seed=seed, icfg=icfg, times_count=size["uniqueness_times_count"],
            negative_control=control,
        )
        v.report(rep, control=control)
        if levels[0] == levels[1]:
            worst = float(np.max(np.abs(rep.details["functional"])))
            v.gate("uniqueness_identical_levels_below_1e-20", worst < 1e-20, worst)

    integrable = potentials.repulsive_power(d=2, exponent=0.5)
    for control in (False, True):
        cauchy, independence = verification.check_mollification_cauchy(
            integrable, kernel, shrink, box, t=0.4, count=size["cauchy_count"], seed=seed,
            icfg=icfg, levels=tuple(size["cauchy_levels"]), negative_control=control,
        )
        v.report(cauchy, control=control)
        # the control damps the finest level, which widens the kernel-swap
        # tolerance (twice the finest gap) as much as the gap itself: it passes
        v.report(independence, control=False)

    errors = [
        potentials.gradient_l1_error(
            integrable, kernel, shrink, level, 0.5, 2.0,
            n_samples=size["gradient_l1_samples"], seed=seed,
        ).estimate
        for level in size["cauchy_levels"]
    ]
    # shared-seed estimates across levels; 5% slack for Monte Carlo jitter
    worst = max(fine / coarse for coarse, fine in zip(errors, errors[1:]))
    v.gate("gradient_l1_decreasing", worst < 1.05 and errors[-1] < errors[0], worst)


def _renormalized_residual(seed: int, v: Verdicts, work: Path) -> None:
    size = SIZES["renormalized_residual"]
    box = transport.PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
    datum = transport.InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
    betas = transport.shipped_beta_family(1.0)
    # the bias term is negligible next to 3 se at dt=2e-3, so the doubled step
    # buys the piecewise control its samples at the same cost
    icfg = IntegratorConfig(scheme="velocity_verlet", dt=size["dt"])
    parts = (
        ("free", potentials.free_potential(2), size["free_count"], size["free_test_functions"]),
        ("piecewise", potentials.piecewise_radial(2, 0.8, -0.6, 0.4),
         size["piecewise_count"], size["piecewise_test_functions"]),
    )
    for label, pot, count, phis in parts:
        for j in range(phis):
            phi = transport.random_test_function(
                2, 2, box, t_center=1.0, t_width=0.8, rng=rng_for(seed, f"perfbench-phi-{label}-{j}")
            )
            for control in (False, True):
                started = time.perf_counter()
                reports = verification.check_renormalization_suite(
                    pot, box, datum, betas, count, seed, icfg, phi=phi, negative_control=control
                )
                elapsed = time.perf_counter() - started
                for rep in reports:
                    v.report(rep, control=control)
                if not control:
                    v.suite_calls.append(
                        {"potential": pot.kind, "seconds": elapsed,
                         "identity_std_error": reports[0].std_error}
                    )


def _cli_small_batch(seed: int, v: Verdicts, work: Path) -> None:
    for name, experiment in CLI_RUNS:
        out = work / name
        code = cli.run(str(CONFIGS / f"{name}.json"), experiment,
                       {"seed": seed, "out": str(out)}, quiet=True)
        v.gate(f"cli_{experiment}_exit_code_0", code == 0, code)
        reports_path = out / "reports.jsonl"
        if reports_path.exists():
            for line in reports_path.read_text(encoding="utf-8").splitlines():
                v.report(verification.CheckReport(**_report_fields(json.loads(line))), control=False)


def _report_fields(row: dict) -> dict:
    return {
        "check_name": row["check_name"], "potential": row["potential"], "seed": row["seed"],
        "sample_count": row["N"], "statistic": row["statistic"], "std_error": row["std_error"],
        "bias_bound": row["bias_bound"], "tolerance": row["tolerance"],
        "flagged_fraction": row["flagged_fraction"], "passed": row["pass"],
        "runtime_seconds": row["runtime_seconds"],
    }


RUNNERS = {
    "flow_axioms": _flow_axioms,
    "mollified": _mollified,
    "renormalized_residual": _renormalized_residual,
    "cli_small_batch": _cli_small_batch,
}
