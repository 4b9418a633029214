"""Cost per call of the hot kernels behind the mollified flows and the
pairings of phi.

Prints one JSON object with the median and min over k repeats of:

- "bump": `profiles.bump_pair` in ns per entry on an (8, BUMP_ROWS)
  block, the shape of the pairing's axis factors on a renormalization
  suite node, with every entry inside (-1, 1), as the callers on supp phi
  pass it, and with entries uniform in (-1.2, 1.2), about a sixth outside;
- "table": `potentials._TableStack.evaluate` of the gradient series
  ("log_slope") in us per call, on the stack of one
  `MollifiedPotential` (repulsive_power(2, 1.0), level 4, the kernel and
  shrink of the `mollified` benchmark workload), at radii spread over the
  table, for each of --rows;
- "pairing": one node of the weak-residual estimator's pairing in us, on
  PAIRING_ROWS rows inside the support of a random phi of the
  `renormalized_residual` box: the support test and
  `TestFunction.transport_pairing` on the (m, n, d) views of
  component-major (n, d, m) states, as `transport.simpson_walk` hands
  them to the estimator.

Each figure times --calls calls in a row, --repeats times.

    PYTHONPATH=src python scripts/kernel_bench.py --repeats 7

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

from liouville_lab import potentials, transport
from liouville_lab.profiles import bump_pair
from liouville_lab.rng import rng_for

BUMP_ROWS = 1_663
PAIRING_ROWS = 3_000


def timed(fn, calls: int, repeats: int, scale: float) -> dict:
    """Median and min over repeats of the time per call of fn, times scale."""
    per = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        per.append(scale * (time.perf_counter() - started) / calls)
    return {"median": statistics.median(per), "min": min(per)}


def measure_bump(calls: int, repeats: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    blocks = {
        "inside": rng.uniform(-0.99, 0.99, (8, BUMP_ROWS)),
        "mixed": rng.uniform(-1.2, 1.2, (8, BUMP_ROWS)),
    }
    return [
        {
            "block": name,
            "shape": list(u.shape),
            "outside_fraction": float(np.mean(~(np.abs(u) < 1.0))),
            "ns_per_entry": timed(lambda: bump_pair(u), calls, repeats, 1e9 / u.size),
        }
        for name, u in blocks.items()
    ]


def measure_table(sizes, calls: int, repeats: int, seed: int) -> list[dict]:
    pot = potentials.MollifiedPotential(
        potentials.repulsive_power(2, exponent=1.0),
        potentials.MollifierKernel(d=2, power=3),
        potentials.ShrinkFunction(),
        4,
    )
    stack = pot.stack
    rng = np.random.default_rng(seed)
    out = []
    for rows in sizes:
        rad = np.exp(rng.uniform(np.log(stack.lo), np.log(stack.hi), rows))
        out.append({
            "rows": rows,
            "panels": int(stack.left.size),
            "us_per_call": timed(
                lambda: stack.evaluate("log_slope", rad, None), calls, repeats, 1e6
            ),
        })
    return out


def measure_pairing(calls: int, repeats: int, seed: int) -> dict:
    box = transport.PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
    phi = transport.random_test_function(
        2, 2, box, *transport.TEST_FUNCTION_WINDOW, rng=rng_for(seed, "kernel-bench-phi")
    )
    rng = np.random.default_rng(seed)
    lows, highs = phi.support_bounds()
    # (2 n d, m) phase coordinates strictly inside the support, then the
    # component-major (n, d, m) states of a batch and their (m, n, d) views
    z = rng.uniform(0.98 * lows + 0.02 * highs, 0.02 * lows + 0.98 * highs,
                    (PAIRING_ROWS, lows.size)).T
    X, V = (np.ascontiguousarray(half.reshape(2, 2, -1)) for half in (z[:4], z[4:]))
    A = rng.standard_normal(X.shape)
    x, v, acc = (arr.transpose(2, 0, 1) for arr in (X, V, A))
    t = phi.t_center

    def node():
        cols = np.flatnonzero(phi.support_mask(t, x, v))
        return phi.transport_pairing(t, x, v, acc, cols)

    assert node().size == PAIRING_ROWS
    return {"rows": PAIRING_ROWS, "us_per_node": timed(node, calls, repeats, 1e6)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[100, 400, 1_000, 4_000])
    parser.add_argument("--calls", type=int, default=200, help="calls per repeat")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    machine = {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }
    print(json.dumps(
        {
            "machine": machine,
            "calls": args.calls,
            "repeats": args.repeats,
            "bump": measure_bump(args.calls, args.repeats, args.seed),
            "table": measure_table(args.rows, args.calls, args.repeats, args.seed),
            "pairing": measure_pairing(args.calls, args.repeats, args.seed),
        },
        indent=1,
    ))


if __name__ == "__main__":
    main()
