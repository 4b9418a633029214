"""Config-driven experiment runner.

Subcommands bind JSON configs to potentials, integrators, ensembles,
and checks, then write artifacts: the resolved config with all defaults
materialized, trajectory CSVs, JSON-lines reports, and summary tables.
Exit codes: 0 all checks passed, 1 a check failed, 2 config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import verification
from .dynamics import Configuration, IntegratorConfig, integrate
from .errors import ConfigError, LiouvilleLabError
from .potentials import (
    MollifiedPotential,
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    gaussian_well,
    gradient_l1_error,
    harmonic,
    piecewise_radial,
    repulsive_power,
)
from .rng import rng_for
from .transport import (
    InitialDatum,
    PhaseBox,
    collision_boundary_term,
    random_test_function,
    sample_ensemble,
    shipped_beta_family,
)

EXPERIMENTS = ("simulate", "verify", "converge", "residual", "scaling")


# ---------------------------------------------------------------------------
# schema handling


def _require_keys(section: Any, allowed: dict, path: str) -> dict:
    """Enforce the schema at one nesting level and materialize defaults."""
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed {sorted(allowed)}")
    out = dict(allowed)
    out.update(section)
    return out


def _as_type(value, kind, path: str):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")


@dataclass
class ResolvedConfig:
    experiment: str
    n: int
    potential: object
    icfg: IntegratorConfig
    box: PhaseBox
    count: int
    seed: int
    datum: InitialDatum
    out_dir: Path
    stride: int
    section: dict
    checks: list[dict]
    resolved: dict = field(default_factory=dict)


def _parse_potential(spec, path: str = "potential"):
    spec = _require_keys(spec, {"kind": "harmonic", "d": 2, "params": {}}, path)
    kind = _as_type(spec["kind"], str, f"{path}.kind")
    d = _as_type(spec["d"], int, f"{path}.d")
    params = spec["params"] if isinstance(spec["params"], dict) else None
    if params is None:
        raise ConfigError(f"{path}.params: expected an object")
    try:
        if kind == "free":
            p = _require_keys(params, {}, f"{path}.params")
            pot = free_potential(d)
        elif kind == "harmonic":
            p = _require_keys(params, {"strength": 1.0}, f"{path}.params")
            pot = harmonic(d, strength=_as_type(p["strength"], float, path))
        elif kind == "repulsive_power":
            p = _require_keys(
                params,
                {"exponent": 1.0, "strength": 1.0, "singularity_class": None},
                f"{path}.params",
            )
            pot = repulsive_power(
                d,
                exponent=_as_type(p["exponent"], float, path),
                strength=_as_type(p["strength"], float, path),
                singularity_class=p["singularity_class"],
            )
        elif kind == "gaussian_well":
            p = _require_keys(params, {"depth": 1.0, "width": 1.0}, f"{path}.params")
            pot = gaussian_well(
                d,
                depth=_as_type(p["depth"], float, path),
                width=_as_type(p["width"], float, path),
            )
        elif kind == "piecewise_radial":
            p = _require_keys(
                params,
                {"jump_radius": 1.0, "slope_inner": -0.5, "slope_outer": 0.5},
                f"{path}.params",
            )
            pot = piecewise_radial(
                d,
                jump_radius=_as_type(p["jump_radius"], float, path),
                slope_inner=_as_type(p["slope_inner"], float, path),
                slope_outer=_as_type(p["slope_outer"], float, path),
            )
        elif kind == "mollified":
            p = _require_keys(
                params,
                {
                    "base": None,
                    "level": 4,
                    "kernel_power": 3,
                    "shrink_cap": 1.0,
                    "shrink_slope": 0.5,
                },
                f"{path}.params",
            )
            if p["base"] is None:
                raise ConfigError(f"{path}.params.base: required for mollified kind")
            base, base_resolved = _parse_potential(p["base"], f"{path}.params.base")
            pot = MollifiedPotential(
                base,
                MollifierKernel(d=d, power=_as_type(p["kernel_power"], int, path)),
                ShrinkFunction(
                    cap=_as_type(p["shrink_cap"], float, path),
                    slope=_as_type(p["shrink_slope"], float, path),
                ),
                level=_as_type(p["level"], int, path),
            )
            p["base"] = base_resolved
        else:
            raise ConfigError(
                f"{path}.kind: unknown potential {kind!r}; known: free, harmonic,"
                " repulsive_power, gaussian_well, piecewise_radial, mollified"
            )
    except LiouvilleLabError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    return pot, {"kind": kind, "d": d, "params": p}


def _parse_datum(spec, n: int, d: int, path: str) -> tuple[InitialDatum, dict]:
    spec = _require_keys(
        spec, {"kind": "bump", "width": 1.0, "amplitude": 1.0, "center": None}, path
    )
    kind = _as_type(spec["kind"], str, f"{path}.kind")
    if spec["center"] is None:
        center = np.zeros(2 * n * d)
    else:
        center = np.asarray(spec["center"], dtype=float)
        if center.shape != (2 * n * d,):
            raise ConfigError(f"{path}.center: expected {2 * n * d} entries")
    try:
        datum = InitialDatum(
            kind=kind,
            center=center,
            width=_as_type(spec["width"], float, f"{path}.width"),
            amplitude=_as_type(spec["amplitude"], float, f"{path}.amplitude"),
        )
    except LiouvilleLabError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    resolved = {
        "kind": kind,
        "width": _as_type(spec["width"], float, f"{path}.width"),
        "amplitude": float(datum.amplitude),
        "center": center.tolist(),
    }
    return datum, resolved


_SECTION_DEFAULTS = {
    "simulate": {"t_final": 1.0, "x0": None, "v0": None},
    "verify": {"t": 1.0, "measure_t": 0.1, "measure_count": None},
    "converge": {
        "levels": [3, 4, 5, 6],
        "r_inner": 0.5,
        "r_outer": 2.0,
        "gradient_samples": 20000,
        "flow_t": 0.4,
        "flow_count": 1200,
        "kernel_power": 3,
        "shrink_cap": 1.0,
        "shrink_slope": 0.5,
    },
    "residual": {
        "phi_count": 1,
        "t_center": 1.0,
        "t_width": 0.8,
        "nodes": 65,
        "beta_scale": 1.0,
        "include_betas": True,
    },
    "scaling": {"mus": [0.4, 0.2, 0.1, 0.05], "pair": [0, 1]},
}


def load_config(raw: dict, experiment: str, overrides: dict) -> ResolvedConfig:
    """Validate a parsed JSON config against the schema for experiment."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    top_allowed = {
        "experiment": experiment,
        "potential": {},
        "n": 2,
        "dynamics": {},
        "ensemble": {},
        "output": {},
        experiment: {},
    }
    if experiment == "verify":
        top_allowed["checks"] = [{"name": name} for name in verification.CHECK_NAMES]
    top = _require_keys(raw, top_allowed, "config")
    if top["experiment"] != experiment:
        raise ConfigError(
            f"config.experiment {top['experiment']!r} does not match"
            f" subcommand {experiment!r}"
        )

    potential, pot_resolved = _parse_potential(top["potential"])
    d = pot_resolved["d"]
    n = _as_type(top["n"], int, "config.n")
    if n < 2:
        raise ConfigError("config.n: need at least two particles")

    dyn = _require_keys(
        top["dynamics"],
        {
            "scheme": "velocity_verlet",
            "dt": 1e-3,
            "adaptive": False,
            "reference_distance": 0.5,
            "max_substeps": 1_000_000,
        },
        "config.dynamics",
    )
    try:
        icfg = IntegratorConfig(
            scheme=_as_type(dyn["scheme"], str, "config.dynamics.scheme"),
            dt=_as_type(dyn["dt"], float, "config.dynamics.dt"),
            adaptive=_as_type(dyn["adaptive"], bool, "config.dynamics.adaptive"),
            reference_distance=_as_type(
                dyn["reference_distance"], float, "config.dynamics.reference_distance"
            ),
            max_substeps=_as_type(dyn["max_substeps"], int, "config.dynamics.max_substeps"),
        )
    except LiouvilleLabError as exc:
        raise ConfigError(f"config.dynamics: {exc}") from exc

    ens = _require_keys(
        top["ensemble"],
        {"x_half": 1.2, "v_half": 1.2, "count": 10000, "seed": 0, "datum": {}},
        "config.ensemble",
    )
    box = PhaseBox.centered(
        d=d,
        n=n,
        x_half=_as_type(ens["x_half"], float, "config.ensemble.x_half"),
        v_half=_as_type(ens["v_half"], float, "config.ensemble.v_half"),
    )
    count = _as_type(ens["count"], int, "config.ensemble.count")
    if count < 1:
        raise ConfigError("config.ensemble.count: need at least one sample")
    seed = _as_type(ens["seed"], int, "config.ensemble.seed")
    if overrides.get("seed") is not None:
        seed = overrides["seed"]
    datum, datum_resolved = _parse_datum(ens["datum"], n, d, "config.ensemble.datum")

    out = _require_keys(
        top["output"], {"directory": "runs/latest", "stride": 1}, "config.output"
    )
    out_dir = Path(overrides.get("out") or out["directory"])
    stride = _as_type(out["stride"], int, "config.output.stride")
    if stride < 1:
        raise ConfigError("config.output.stride: must be positive")

    section = _require_keys(
        top[experiment], _SECTION_DEFAULTS[experiment], f"config.{experiment}"
    )
    if experiment == "simulate" and (section["x0"] is None or section["v0"] is None):
        rng = rng_for(seed, "simulate-initial")
        section["x0"] = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()
        section["v0"] = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()

    checks = []
    if experiment == "verify":
        raw_checks = top["checks"]
        if not isinstance(raw_checks, list):
            raise ConfigError("config.checks: expected a list")
        if not raw_checks:
            raise ConfigError("config.checks: at least one check is required")
        for i, c in enumerate(raw_checks):
            c = _require_keys(c, {"name": None, "tolerance": None}, f"config.checks[{i}]")
            if c["name"] not in verification.CHECK_NAMES:
                raise ConfigError(
                    f"config.checks[{i}].name: unknown check {c['name']!r};"
                    f" known {list(verification.CHECK_NAMES)}"
                )
            if any(c["name"] == seen["name"] for seen in checks):
                raise ConfigError(f"config.checks[{i}].name: repeated check {c['name']!r}")
            if c["tolerance"] is not None:
                c["tolerance"] = _as_type(
                    c["tolerance"], float, f"config.checks[{i}].tolerance"
                )
            checks.append(c)

    resolved = {
        "experiment": experiment,
        "potential": pot_resolved,
        "n": n,
        "dynamics": {
            "scheme": icfg.scheme,
            "dt": icfg.dt,
            "adaptive": icfg.adaptive,
            "reference_distance": icfg.reference_distance,
            "max_substeps": icfg.max_substeps,
        },
        "ensemble": {
            "x_half": float((box.highs[0] - box.lows[0]) / 2.0),
            "v_half": float((box.highs[n * d] - box.lows[n * d]) / 2.0),
            "count": count,
            "seed": seed,
            "datum": datum_resolved,
        },
        "output": {"directory": str(out_dir), "stride": stride},
        experiment: section,
    }
    if experiment == "verify":
        resolved["checks"] = checks
    return ResolvedConfig(
        experiment=experiment,
        n=n,
        potential=potential,
        icfg=icfg,
        box=box,
        count=count,
        seed=seed,
        datum=datum,
        out_dir=out_dir,
        stride=stride,
        section=section,
        checks=checks,
        resolved=resolved,
    )


# ---------------------------------------------------------------------------
# experiment runners


def _run_simulate(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    d = cfg.potential.d
    x0 = np.asarray(sec["x0"], dtype=float)
    v0 = np.asarray(sec["v0"], dtype=float)
    if x0.shape != (cfg.n, d) or v0.shape != (cfg.n, d):
        raise ConfigError(f"config.simulate: x0/v0 must have shape ({cfg.n}, {d})")
    t_final = _as_type(sec["t_final"], float, "config.simulate.t_final")
    traj = integrate(Configuration(x=x0, v=v0), cfg.potential, t_final, cfg.icfg)
    path = cfg.out_dir / "trajectory.csv"
    traj.to_csv(path, stride=cfg.stride)
    if not quiet:
        drift = abs(traj.energies[-1] - traj.energies[0])
        print(f"wrote {path} ({traj.times.size} rows, energy drift {drift:.3e})")
    return []


def _run_verify(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    measure_count = sec["measure_count"]
    if measure_count is not None:
        measure_count = _as_type(measure_count, int, "config.verify.measure_count")
    reports = verification.flow_axiom_suite(
        cfg.potential,
        cfg.box,
        cfg.count,
        cfg.seed,
        cfg.icfg,
        t=_as_type(sec["t"], float, "config.verify.t"),
        measure_t=_as_type(sec["measure_t"], float, "config.verify.measure_t"),
        measure_count=measure_count,
        with_controls=False,
        checks=[c["name"] for c in cfg.checks],
        tolerances={c["name"]: c["tolerance"] for c in cfg.checks if c["tolerance"] is not None},
    )
    if not quiet:
        for rep in reports:
            print(rep.summary_line())
    return reports


def _run_converge(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    levels = [int(l) for l in sec["levels"]]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("config.converge.levels: need an increasing list")
    kernel = MollifierKernel(d=cfg.potential.d, power=int(sec["kernel_power"]))
    shrink = ShrinkFunction(
        cap=float(sec["shrink_cap"]), slope=float(sec["shrink_slope"])
    )
    started = time.perf_counter()
    rows = []
    for level in levels:
        est = gradient_l1_error(
            cfg.potential,
            kernel,
            shrink,
            level,
            r_inner=float(sec["r_inner"]),
            r_outer=float(sec["r_outer"]),
            n_samples=int(sec["gradient_samples"]),
            seed=cfg.seed,
        )
        rows.append((level, est))
        if not quiet:
            print(f"level {level}: gradient L1 error {est.estimate:.6e} +- {est.std_error:.1e}")
    table = cfg.out_dir / "levels.csv"
    with open(table, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "l1_error", "std_error"])
        for level, est in rows:
            writer.writerow([level, f"{est.estimate:.17g}", f"{est.std_error:.17g}"])
    reports = [
        verification.CheckReport.build(
            check_name="gradient_l1_decreasing",
            potential=cfg.potential.describe(),
            seed=cfg.seed,
            sample_count=int(sec["gradient_samples"]),
            statistic=max(
                b_est.estimate - a_est.estimate
                for (_, a_est), (_, b_est) in zip(rows, rows[1:])
            ),
            std_error=max(est.std_error for _, est in rows),
            bias_bound=0.05 * rows[0][1].estimate,
            tolerance=0.0,
            flagged_fraction=0.0,
            runtime_seconds=time.perf_counter() - started,
            details={"levels": levels},
        )
    ]
    reports += verification.check_mollification_cauchy(
        cfg.potential,
        kernel,
        shrink,
        cfg.box,
        t=float(sec["flow_t"]),
        count=int(sec["flow_count"]),
        seed=cfg.seed,
        icfg=cfg.icfg,
        levels=levels,
    )
    if not quiet:
        for rep in reports:
            print(rep.summary_line())
    return reports


def _run_residual(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    betas = shipped_beta_family(float(sec["beta_scale"])) if sec["include_betas"] else []
    reports = []
    for j in range(int(sec["phi_count"])):
        phi = random_test_function(
            cfg.potential.d,
            cfg.n,
            cfg.box,
            t_center=float(sec["t_center"]),
            t_width=float(sec["t_width"]),
            rng=rng_for(cfg.seed, f"residual-phi-{j}"),
        )
        reports += verification.check_renormalization_suite(
            cfg.potential,
            cfg.box,
            cfg.datum,
            betas,
            cfg.count,
            cfg.seed,
            cfg.icfg,
            phi=phi,
            nodes=int(sec["nodes"]),
        )
    if not quiet:
        for rep in reports:
            print(rep.summary_line())
    return reports


def _run_scaling(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    mus = [float(m) for m in sec["mus"]]
    if len(mus) < 2 or any(m <= 0 for m in mus):
        raise ConfigError("config.scaling.mus: need at least two positive radii")
    pair = tuple(int(i) for i in sec["pair"])
    if len(pair) != 2 or not (0 <= pair[0] < pair[1] < cfg.n):
        raise ConfigError("config.scaling.pair: expected two distinct particle indices")
    e = sample_ensemble(cfg.box, cfg.count, cfg.datum, cfg.seed)
    started = time.perf_counter()
    estimates = [collision_boundary_term(e, mu, pair=pair) for mu in mus]
    slope = emit_scaling_table(
        cfg.out_dir / "scaling.csv", mus, estimates
    )
    d = cfg.potential.d
    report = verification.CheckReport.build(
        check_name="collision_scaling_slope",
        potential=cfg.potential.describe(),
        seed=cfg.seed,
        sample_count=cfg.count,
        statistic=abs(slope - (d - 1)),
        std_error=0.0,
        bias_bound=0.0,
        tolerance=0.3,
        flagged_fraction=0.0,
        runtime_seconds=time.perf_counter() - started,
        details={"fitted_slope": slope, "expected_slope": d - 1, "mus": mus},
    )
    if not quiet:
        print(report.summary_line())
    return [report]


def emit_scaling_table(path, mus, estimates) -> float:
    """Write the mu-sweep table; returns the fitted log-log slope.

    Columns mu, term, std_error, fitted_slope; the slope appears once,
    in a footer row.  An empty sweep writes the header only and the
    slope is nan.
    """
    slope = math.nan
    if len(mus) >= 2:
        slope = float(
            np.polyfit(np.log([m for m in mus]), np.log([e.estimate for e in estimates]), 1)[0]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "term", "std_error", "fitted_slope"])
        for mu, est in zip(mus, estimates):
            writer.writerow([f"{mu:.17g}", f"{est.estimate:.17g}", f"{est.std_error:.17g}", ""])
        if mus:
            writer.writerow(["fit", "", "", f"{slope:.17g}"])
    return slope


_RUNNERS = {
    "simulate": _run_simulate,
    "verify": _run_verify,
    "converge": _run_converge,
    "residual": _run_residual,
    "scaling": _run_scaling,
}


# ---------------------------------------------------------------------------
# entry point


def _apply_thread_limit(threads: int | None):
    if threads is None:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=threads)
    except ImportError:
        print("threadpoolctl not installed; --threads ignored", file=sys.stderr)


def run(config_path: str, experiment: str, overrides: dict, quiet: bool = False) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {config_path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(raw, experiment, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        with open(cfg.out_dir / "resolved_config.json", "w", encoding="utf-8") as fh:
            json.dump(cfg.resolved, fh, indent=2, sort_keys=True)
            fh.write("\n")
        reports = _RUNNERS[experiment](cfg, quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LiouvilleLabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if reports:
        verification.write_reports_jsonl(reports, cfg.out_dir / "reports.jsonl")
        verification.write_summary_csv(reports, cfg.out_dir / "summary.csv")
    if not quiet:
        print(f"artifacts in {cfg.out_dir}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liouville-lab",
        description="particle-transport experiments driven by JSON configs",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--seed", type=int, default=None, help="override the ensemble seed")
        p.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP threads")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    _apply_thread_limit(args.threads)
    return run(
        args.config,
        args.experiment,
        {"seed": args.seed, "out": args.out},
        quiet=args.quiet,
    )


if __name__ == "__main__":
    sys.exit(main())
