"""Weak residuals of transported densities, with and without renormalizers.

Samples a compact bump, pushes it along the particle flow, and pairs the
result against random compactly supported test functions.  The residual
of the space-time integral identity should sit inside its Monte Carlo
error band for the raw density and for every bounded renormalizer of it.
With --with-control the suite's negative control runs too, and must
fail.  Exits 1 when a positive report fails or a control report passes.
"""

import argparse
import sys

import numpy as np

from liouville_lab import verification as V
from liouville_lab.dynamics import IntegratorConfig
from liouville_lab.potentials import free_potential, harmonic, piecewise_radial
from liouville_lab.transport import InitialDatum, PhaseBox, shipped_beta_family

POTENTIALS = {
    "free": lambda: free_potential(2),
    "harmonic": lambda: harmonic(2, strength=1.0),
    "piecewise_radial": lambda: piecewise_radial(2, 0.8, -0.6, 0.4),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--potential", choices=sorted(POTENTIALS), default="harmonic")
    ap.add_argument("--count", type=int, default=100_000, help="ensemble size")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--beta-scale", type=float, default=1.0)
    ap.add_argument("--with-control", action="store_true",
                    help="also run the corrupted-values negative control")
    args = ap.parse_args()

    pot = POTENTIALS[args.potential]()
    box = PhaseBox.centered(d=2, n=2, x_half=1.2, v_half=1.2)
    datum = InitialDatum(kind="bump", center=np.zeros(8), width=1.0)
    icfg = IntegratorConfig(scheme="velocity_verlet", dt=1e-3)
    betas = shipped_beta_family(args.beta_scale)

    variants = [False, True] if args.with_control else [False]
    wrong = []
    for control in variants:
        reports = V.check_renormalization_suite(
            pot, box, datum, betas, count=args.count, seed=args.seed,
            icfg=icfg, negative_control=control,
        )
        for r in reports:
            print(r.summary_line())
            if r.passed == control:
                wrong.append(r.check_name)
    if wrong:
        print(f"wrong verdicts: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
