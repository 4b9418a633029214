"""Integrator cost per sample-step of `flow_batch`.

Times `dynamics.flow_batch` on a seeded n = 2, d = 2 ensemble for fixed
and adaptive velocity Verlet and RK4, for each analytic pair potential
that is integrated step by step (the free potential is advanced in
closed form), and prints one JSON object: median and min over k repeats
of the wall time per sample-step in ns.  A sample-step is one row
advanced by one step; the count comes from the rows the potential's
`gradient_batch` sees (one force evaluation per Verlet step, four per
RK4 step, plus the initial one), so adaptive substeps are counted too.

The "walks" rows time the Simpson walk of the flow-axiom suite: velocity
Verlet over t = 0.25 with 129 evenly spaced stops, on harmonic with
fixed steps and repulsive_power with fixed and adaptive steps.  (Adaptive
steps on a smooth potential crawl through near coincidences for
millions of substeps, so that case is left out.)  "stopped" is one
flow_batch call pausing at every stop, "straight" one call over t with
no stop, and "restarted" one call per leg between two stops, each
starting with its own force evaluation (not counted as a step).

    PYTHONPATH=src python scripts/integrator_bench.py --sizes 5000 100000 --repeats 5

Single-threaded BLAS/numpy is assumed; set OMP_NUM_THREADS=1 and friends
to compare runs across machines.
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from liouville_lab.dynamics import IntegratorConfig, flow_batch
from liouville_lab.potentials import gaussian_well, harmonic, piecewise_radial, repulsive_power

KINDS = {
    "harmonic": lambda: harmonic(2),
    "repulsive_power": lambda: repulsive_power(2, exponent=1.0),
    "gaussian_well": lambda: gaussian_well(2, depth=1.3, width=0.8),
    "piecewise_radial": lambda: piecewise_radial(2, 0.8, -0.6, 0.4),
}
SCHEMES = ("velocity_verlet", "rk4")
MODES = ("fixed", "adaptive")
FORCES_PER_STEP = {"velocity_verlet": 1, "rk4": 4}


class CountingRows:
    """Delegates to a potential and counts the rows of its force calls."""

    def __init__(self, base):
        self.base = base
        self.kind = base.kind
        self.rows = 0

    def gradient_batch(self, r):
        self.rows += r.shape[0]
        return self.base.gradient_batch(r)


def ensemble(count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, (count, 2, 2)), rng.uniform(-1.5, 1.5, (count, 2, 2))


def measure(kind: str, scheme: str, mode: str, count: int, steps: int, repeats: int, seed: int):
    x, v = ensemble(count, seed)
    icfg = IntegratorConfig(scheme=scheme, dt=1e-3, adaptive=mode == "adaptive")
    pot = CountingRows(KINDS[kind]())
    t = steps * icfg.dt
    walls = []
    for _ in range(repeats):
        pot.rows = 0
        started = time.perf_counter()
        flow_batch(x, v, pot, t, icfg)
        walls.append(time.perf_counter() - started)
    sample_steps = (pot.rows - count) / FORCES_PER_STEP[scheme]
    per = [1e9 * w / sample_steps for w in walls]
    return {
        "kind": kind,
        "scheme": scheme,
        "mode": mode,
        "rows": count,
        "steps": steps,
        "sample_steps": sample_steps,
        "ns_per_sample_step": {"median": statistics.median(per), "min": min(per)},
    }


WALK_T = 0.25
WALK_STOPS = 129
WALK_CASES = (("harmonic", "fixed"), ("repulsive_power", "fixed"), ("repulsive_power", "adaptive"))


def measure_walk(kind: str, mode: str, count: int, repeats: int, seed: int):
    x, v = ensemble(count, seed)
    icfg = IntegratorConfig(dt=1e-3, adaptive=mode == "adaptive")
    stops = np.linspace(0.0, WALK_T, WALK_STOPS)
    pot = CountingRows(KINDS[kind]())

    def straight():
        flow_batch(x, v, pot, WALK_T, icfg)
        return 1

    def stopped():
        flow_batch(x, v, pot, WALK_T, icfg, stops=stops, observe=lambda stop, batch: None)
        return 1

    def restarted():
        cx, cv, now = x, v, 0.0
        for stop in stops[1:]:
            cx, cv, _ = flow_batch(cx, cv, pot, stop - now, icfg)
            now = stop
        return stops.size - 1

    per, sample_steps = {}, {}
    for name, walk in (("straight", straight), ("stopped", stopped), ("restarted", restarted)):
        walls = []
        for _ in range(repeats):
            pot.rows = 0
            started = time.perf_counter()
            starts = walk()
            walls.append(time.perf_counter() - started)
        sample_steps[name] = pot.rows - starts * count
        ns = [1e9 * w / sample_steps[name] for w in walls]
        per[name] = {"median": statistics.median(ns), "min": min(ns)}
    return {
        "kind": kind,
        "scheme": "velocity_verlet",
        "mode": mode,
        "rows": count,
        "t": WALK_T,
        "stops": WALK_STOPS,
        "sample_steps": sample_steps,
        "ns_per_sample_step": per,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[5_000, 100_000])
    parser.add_argument("--steps", type=int, default=20, help="nominal steps of dt = 1e-3")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    results = [
        measure(kind, scheme, mode, count, args.steps, args.repeats, args.seed)
        for count in args.sizes
        for kind in KINDS
        for scheme in SCHEMES
        for mode in MODES
    ]
    walks = [
        measure_walk(kind, mode, count, args.repeats, args.seed)
        for count in args.sizes
        for kind, mode in WALK_CASES
    ]
    machine = {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }
    print(json.dumps(
        {"machine": machine, "repeats": args.repeats, "results": results, "walks": walks}, indent=1
    ))


if __name__ == "__main__":
    main()
