"""Config-driven experiment runner.

Subcommands bind JSON configs to potentials, integrators, ensembles,
and checks, then write artifacts: the resolved config with all defaults
materialized, trajectory CSVs, JSON-lines reports, and summary tables.
Every value is checked against one typed schema in `load_config`, so a
config error (exit 2) stops the run before anything is written.  Every
report comes from a library check in `verification`.  Exit codes: 0 all
checks passed, 1 a check failed, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import verification
from .dynamics import IntegratorConfig, integrate
from .errors import ConfigError, LiouvilleLabError
from .potentials import (
    MollifiedPotential,
    MollifierKernel,
    ShrinkFunction,
    free_potential,
    gaussian_well,
    # not called here; perfbench/tracer.py wraps it in this namespace
    gradient_l1_error,
    harmonic,
    piecewise_radial,
    repulsive_power,
)
from .rng import rng_for
from .transport import (
    InitialDatum,
    PhaseBox,
    # not called here; perfbench/tracer.py wraps it in this namespace
    collision_boundary_term,
    random_test_function,
    # not called here; perfbench/tracer.py wraps it in this namespace
    sample_ensemble,
    shipped_beta_family,
)

EXPERIMENTS = ("simulate", "verify", "converge", "residual", "scaling")


# ---------------------------------------------------------------------------
# schema handling
#
# A schema maps each key to (type, default).  A type is float, int, bool,
# str, dict (an object with a schema of its own) or [type] (a list of that
# type); a key whose default is None may be left out or set to null.


def _require_keys(section: Any, schema: dict, path: str) -> dict:
    """Check one object against its schema and materialize the defaults;
    every value comes back as its declared type."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed {sorted(schema)}")
    out = {}
    for key, (kind, default) in schema.items():
        value = section.get(key, default)
        if value is not None or default is not None:
            value = _as_type(value, kind, f"{path}.{key}")
        out[key] = value
    return out


def _as_type(value, kind, path: str):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_as_type(item, kind[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if kind in (bool, str, dict) and isinstance(value, kind):
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


def _mollified(d, base, level, kernel_power, shrink_cap, shrink_slope):
    return MollifiedPotential(
        base,
        MollifierKernel(d=d, power=kernel_power),
        ShrinkFunction(cap=shrink_cap, slope=shrink_slope),
        level=level,
    )


# kind -> (factory called as factory(d, **params), params schema)
_POTENTIALS = {
    "free": (free_potential, {}),
    "harmonic": (harmonic, {"strength": (float, 1.0)}),
    "repulsive_power": (
        repulsive_power,
        {"exponent": (float, 1.0), "strength": (float, 1.0), "singularity_class": (str, None)},
    ),
    "gaussian_well": (gaussian_well, {"depth": (float, 1.0), "width": (float, 1.0)}),
    "piecewise_radial": (
        piecewise_radial,
        {"jump_radius": (float, 1.0), "slope_inner": (float, -0.5), "slope_outer": (float, 0.5)},
    ),
    "mollified": (
        _mollified,
        {
            "base": (dict, None),
            "level": (int, 4),
            "kernel_power": (int, 3),
            "shrink_cap": (float, 1.0),
            "shrink_slope": (float, 0.5),
        },
    ),
}


def _parse_potential(spec, path: str):
    spec = _require_keys(
        spec, {"kind": (str, "harmonic"), "d": (int, 2), "params": (dict, {})}, path
    )
    kind, d = spec["kind"], spec["d"]
    if kind not in _POTENTIALS:
        raise ConfigError(
            f"{path}.kind: unknown potential {kind!r}; known: {', '.join(_POTENTIALS)}"
        )
    factory, schema = _POTENTIALS[kind]
    p = _require_keys(spec["params"], schema, f"{path}.params")
    args = dict(p)
    if kind == "mollified":
        if p["base"] is None:
            raise ConfigError(f"{path}.params.base: required for mollified kind")
        args["base"], p["base"] = _parse_potential(p["base"], f"{path}.params.base")
    try:
        pot = factory(d, **args)
    except LiouvilleLabError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return pot, {"kind": kind, "d": d, "params": p}


_DATUM = {
    "kind": (str, "bump"),
    "width": (float, 1.0),
    "amplitude": (float, 1.0),
    "center": ([float], None),
}


def _parse_datum(spec, n: int, d: int, path: str) -> tuple[InitialDatum, dict]:
    spec = _require_keys(spec, _DATUM, path)
    if spec["center"] is None:
        spec["center"] = [0.0] * (2 * n * d)
    elif len(spec["center"]) != 2 * n * d:
        raise ConfigError(f"{path}.center: expected {2 * n * d} entries")
    try:
        datum = InitialDatum(
            kind=spec["kind"],
            center=np.asarray(spec["center"]),
            width=spec["width"],
            amplitude=spec["amplitude"],
        )
    except LiouvilleLabError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return datum, spec


_DYNAMICS = {
    "scheme": (str, "velocity_verlet"),
    "dt": (float, 1e-3),
    "adaptive": (bool, False),
    "reference_distance": (float, 0.5),
    "max_substeps": (int, 1_000_000),
}
_ENSEMBLE = {
    "x_half": (float, 1.2),
    "v_half": (float, 1.2),
    "count": (int, 10000),
    "seed": (int, 0),
    "datum": (dict, {}),
}
_OUTPUT = {"directory": (str, "runs/latest"), "stride": (int, 1)}
_CHECK = {"name": (str, None)}
_SECTIONS = {
    "simulate": {"t_final": (float, 1.0), "x0": ([[float]], None), "v0": ([[float]], None)},
    "verify": {"t": (float, 1.0), "measure_t": (float, 0.1), "measure_count": (int, None)},
    "converge": {
        "levels": ([int], [3, 4, 5, 6]),
        "r_inner": (float, 0.5),
        "r_outer": (float, 2.0),
        "gradient_samples": (int, 20000),
        "flow_t": (float, 0.4),
        "flow_count": (int, 1200),
        "kernel_power": (int, 3),
        "shrink_cap": (float, 1.0),
        "shrink_slope": (float, 0.5),
    },
    "residual": {
        "phi_count": (int, 1),
        "t_center": (float, 1.0),
        "t_width": (float, 0.8),
        "beta_scale": (float, 1.0),
        "include_betas": (bool, True),
    },
    "scaling": {"mus": ([float], [0.4, 0.2, 0.1, 0.05]), "pair": ([int], [0, 1])},
}


def _check_section(experiment: str, sec: dict, n: int, d: int, path: str) -> None:
    """The rules that need a whole typed section."""
    if experiment == "simulate":
        for key in ("x0", "v0"):
            rows = sec[key]
            if rows is not None and (len(rows) != n or any(len(r) != d for r in rows)):
                raise ConfigError(f"{path}.{key}: expected shape ({n}, {d})")
    elif experiment == "converge":
        try:
            # the Cauchy check of a converge run needs three levels
            verification.require_levels(sec["levels"], 3)
            MollifierKernel(d=d, power=sec["kernel_power"])
            ShrinkFunction(cap=sec["shrink_cap"], slope=sec["shrink_slope"])
        except LiouvilleLabError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    elif experiment == "scaling":
        try:
            verification.require_radii(sec["mus"])
        except LiouvilleLabError as exc:
            raise ConfigError(f"{path}.mus: {exc}") from exc
        pair = sec["pair"]
        if len(pair) != 2 or not (0 <= pair[0] < pair[1] < n):
            raise ConfigError(f"{path}.pair: expected two distinct particle indices i < j < {n}")


def load_config(raw: dict, experiment: str, overrides: dict) -> ResolvedConfig:
    """Check a parsed JSON config against the schema for experiment.

    Every value is type-checked, and every rule that needs a whole
    section is applied, before anything runs or is written.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = {
        "experiment": (str, experiment),
        "potential": (dict, {}),
        "n": (int, 2),
        "dynamics": (dict, {}),
        "ensemble": (dict, {}),
        "output": (dict, {}),
        experiment: (dict, {}),
    }
    if experiment == "verify":
        schema["checks"] = ([dict], [{"name": name} for name in verification.CHECK_NAMES])
    top = _require_keys(raw, schema, "config")
    if top["experiment"] != experiment:
        raise ConfigError(
            f"config.experiment {top['experiment']!r} does not match"
            f" subcommand {experiment!r}"
        )

    potential, pot_resolved = _parse_potential(top["potential"], "config.potential")
    d = pot_resolved["d"]
    n = top["n"]
    if n < 2:
        raise ConfigError("config.n: need at least two particles")

    dyn = _require_keys(top["dynamics"], _DYNAMICS, "config.dynamics")
    try:
        icfg = IntegratorConfig(**dyn)
    except LiouvilleLabError as exc:
        raise ConfigError(f"config.dynamics: {exc}") from exc

    ens = _require_keys(top["ensemble"], _ENSEMBLE, "config.ensemble")
    if ens["count"] < 1:
        raise ConfigError("config.ensemble.count: need at least one sample")
    if overrides.get("seed") is not None:
        ens["seed"] = overrides["seed"]
    try:
        box = PhaseBox.centered(d=d, n=n, x_half=ens["x_half"], v_half=ens["v_half"])
    except LiouvilleLabError as exc:
        raise ConfigError(f"config.ensemble: {exc}") from exc
    datum, ens["datum"] = _parse_datum(ens["datum"], n, d, "config.ensemble.datum")

    out = _require_keys(top["output"], _OUTPUT, "config.output")
    out["directory"] = str(Path(overrides.get("out") or out["directory"]))
    if out["stride"] < 1:
        raise ConfigError("config.output.stride: must be positive")

    section = _require_keys(top[experiment], _SECTIONS[experiment], f"config.{experiment}")
    _check_section(experiment, section, n, d, f"config.{experiment}")
    if experiment == "simulate" and (section["x0"] is None or section["v0"] is None):
        rng = rng_for(ens["seed"], "simulate-initial")
        section["x0"] = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()
        section["v0"] = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()

    checks = []
    if experiment == "verify":
        if not top["checks"]:
            raise ConfigError("config.checks: at least one check is required")
        for i, c in enumerate(top["checks"]):
            c = _require_keys(c, _CHECK, f"config.checks[{i}]")
            if c["name"] not in verification.CHECK_NAMES:
                raise ConfigError(
                    f"config.checks[{i}].name: unknown check {c['name']!r};"
                    f" known {list(verification.CHECK_NAMES)}"
                )
            if any(c["name"] == seen["name"] for seen in checks):
                raise ConfigError(f"config.checks[{i}].name: repeated check {c['name']!r}")
            checks.append(c)

    resolved = {
        "experiment": experiment,
        "potential": pot_resolved,
        "n": n,
        "dynamics": dyn,
        "ensemble": ens,
        "output": out,
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
        count=ens["count"],
        seed=ens["seed"],
        datum=datum,
        out_dir=Path(out["directory"]),
        stride=out["stride"],
        section=section,
        checks=checks,
        resolved=resolved,
    )


# ---------------------------------------------------------------------------
# experiment runners: each returns its reports, built by library checks


def _run_simulate(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    traj = integrate(sec["x0"], sec["v0"], cfg.potential, sec["t_final"], cfg.icfg)
    path = cfg.out_dir / "trajectory.csv"
    traj.to_csv(path, stride=cfg.stride)
    if not quiet:
        drift = abs(traj.energies[-1] - traj.energies[0])
        print(f"wrote {path} ({traj.times.size} rows, energy drift {drift:.3e})")
    return []


def _run_verify(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    return verification.flow_axiom_suite(
        cfg.potential,
        cfg.box,
        cfg.count,
        cfg.seed,
        cfg.icfg,
        t=sec["t"],
        measure_t=sec["measure_t"],
        measure_count=sec["measure_count"],
        with_controls=False,
        checks=[c["name"] for c in cfg.checks],
    )


def _run_converge(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    kernel = MollifierKernel(d=cfg.potential.d, power=sec["kernel_power"])
    shrink = ShrinkFunction(cap=sec["shrink_cap"], slope=sec["shrink_slope"])
    gradient = verification.check_gradient_l1_decreasing(
        cfg.potential,
        kernel,
        shrink,
        sec["levels"],
        sec["r_inner"],
        sec["r_outer"],
        n_samples=sec["gradient_samples"],
        seed=cfg.seed,
    )
    g = gradient.details
    with open(cfg.out_dir / "levels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "l1_error", "std_error"])
        for level, err, se in zip(g["levels"], g["errors"], g["std_errors"]):
            writer.writerow([level, f"{err:.17g}", f"{se:.17g}"])
    return [gradient] + verification.check_mollification_cauchy(
        cfg.potential,
        kernel,
        shrink,
        cfg.box,
        t=sec["flow_t"],
        count=sec["flow_count"],
        seed=cfg.seed,
        icfg=cfg.icfg,
        levels=sec["levels"],
    )


def _run_residual(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    betas = shipped_beta_family(sec["beta_scale"]) if sec["include_betas"] else []
    reports = []
    for j in range(sec["phi_count"]):
        phi = random_test_function(
            cfg.potential.d,
            cfg.n,
            cfg.box,
            t_center=sec["t_center"],
            t_width=sec["t_width"],
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
        )
    return reports


def _run_scaling(cfg: ResolvedConfig, quiet: bool) -> list:
    report = verification.check_collision_scaling(
        cfg.potential, cfg.box, cfg.datum, cfg.count, cfg.seed, cfg.section["mus"],
        pair=cfg.section["pair"],
    )
    emit_scaling_table(cfg.out_dir / "scaling.csv", report.details)
    return [report]


def emit_scaling_table(path, details: dict) -> None:
    """Write the mu-sweep table of a `collision_scaling_slope` report.

    Columns mu, term, std_error, fitted_slope, from the report's
    details; the slope appears once, in a footer row.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "term", "std_error", "fitted_slope"])
        for mu, term, se in zip(details["mus"], details["terms"], details["std_errors"]):
            writer.writerow([f"{mu:.17g}", f"{term:.17g}", f"{se:.17g}", ""])
        writer.writerow(["fit", "", "", f"{details['fitted_slope']:.17g}"])


_RUNNERS = {
    "simulate": _run_simulate,
    "verify": _run_verify,
    "converge": _run_converge,
    "residual": _run_residual,
    "scaling": _run_scaling,
}


# ---------------------------------------------------------------------------
# entry point


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
    except LiouvilleLabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if not quiet:
        for rep in reports:
            print(rep.summary_line())
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
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    return run(
        args.config,
        args.experiment,
        {"seed": args.seed, "out": args.out},
        quiet=args.quiet,
    )


if __name__ == "__main__":
    sys.exit(main())
