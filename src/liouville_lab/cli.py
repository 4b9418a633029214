"""Config-driven experiment runner.

Subcommands bind JSON configs to potentials, integrators, ensembles,
and checks, then write artifacts: the resolved config with all defaults
materialized, trajectory CSVs, JSON-lines reports, and summary tables.
Every value is checked against its experiment's typed schema in
`load_config`, which holds exactly the keys that experiment reads, so a
config error (exit 2) stops the run before anything is written.  Every
report comes from a library check in `verification`.  Exit codes: 0 all
checks passed, 1 a check failed, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import verification
from .dynamics import IntegratorConfig, integrate
from .errors import ConfigError, LiouvilleLabError
from .potentials import (
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
    TEST_FUNCTION_WINDOW,
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
        # json reads NaN, Infinity and integers past the float range, none
        # of them a finite number
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if kind in (bool, str, dict) and isinstance(value, kind):
        return value
    raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")


@dataclass
class ResolvedConfig:
    """A checked config.  The inputs an experiment does not read are
    None: icfg for `scaling`, box and count for `simulate`, datum
    outside `residual` and `scaling`, stride outside `simulate`."""

    experiment: str
    n: int
    potential: object
    icfg: IntegratorConfig | None
    box: PhaseBox | None
    count: int | None
    seed: int
    datum: InitialDatum | None
    out_dir: Path
    stride: int | None
    section: dict
    checks: list[dict]
    resolved: dict = field(default_factory=dict)


# kind -> (factory called as factory(d, **params), params schema)
_POTENTIALS = {
    "free": (free_potential, {}),
    "harmonic": (harmonic, {"strength": (float, 1.0)}),
    "repulsive_power": (repulsive_power, {"exponent": (float, 1.0), "strength": (float, 1.0)}),
    "gaussian_well": (gaussian_well, {"depth": (float, 1.0), "width": (float, 1.0)}),
    "piecewise_radial": (
        piecewise_radial,
        {"jump_radius": (float, 1.0), "slope_inner": (float, -0.5), "slope_outer": (float, 0.5)},
    ),
}


def _parse_potential(spec, path: str):
    spec = _require_keys(
        spec, {"kind": (str, "harmonic"), "d": (int, 2), "params": (dict, {})}, path
    )
    if spec["kind"] not in _POTENTIALS:
        raise ConfigError(
            f"{path}.kind: unknown potential {spec['kind']!r}; known: {', '.join(_POTENTIALS)}"
        )
    factory, schema = _POTENTIALS[spec["kind"]]
    spec["params"] = _require_keys(spec["params"], schema, f"{path}.params")
    try:
        pot = factory(spec["d"], **spec["params"])
    except LiouvilleLabError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return pot, spec


# a datum is centered at the origin of phase space
_DATUM = {"kind": (str, "bump"), "width": (float, 1.0)}


def _parse_datum(spec, n: int, d: int, path: str) -> tuple[InitialDatum, dict]:
    spec = _require_keys(spec, _DATUM, path)
    try:
        datum = InitialDatum(kind=spec["kind"], center=np.zeros(2 * n * d), width=spec["width"])
    except LiouvilleLabError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return datum, spec


_DYNAMICS = {
    "scheme": (str, "velocity_verlet"),
    "dt": (float, 1e-3),
    "adaptive": (bool, False),
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


def _only(schema: dict, *keys: str) -> dict:
    return {key: schema[key] for key in keys}


_BOX = ("x_half", "v_half", "count", "seed")
# experiment -> the schema of every section it reads, holding only the
# keys it reads; `scaling` flows nothing, so it has no dynamics
_SCHEMAS = {
    "simulate": {
        "dynamics": _DYNAMICS,
        # the seed draws a missing x0 or v0
        "ensemble": _only(_ENSEMBLE, "seed"),
        "output": _OUTPUT,
        "simulate": {"t_final": (float, 1.0), "x0": ([[float]], None), "v0": ([[float]], None)},
    },
    "verify": {
        "dynamics": _DYNAMICS,
        "ensemble": _only(_ENSEMBLE, *_BOX),
        "output": _only(_OUTPUT, "directory"),
        "verify": {"t": (float, 1.0), "measure_t": (float, 0.1), "measure_count": (int, None)},
    },
    "converge": {
        "dynamics": _DYNAMICS,
        "ensemble": _only(_ENSEMBLE, *_BOX),
        "output": _only(_OUTPUT, "directory"),
        "converge": {"levels": ([int], [3, 4, 5, 6]), "flow_t": (float, 0.4)},
    },
    "residual": {
        "dynamics": _DYNAMICS,
        "ensemble": _ENSEMBLE,
        "output": _only(_OUTPUT, "directory"),
        "residual": {"phi_count": (int, 1), "include_betas": (bool, True)},
    },
    "scaling": {
        "ensemble": _ENSEMBLE,
        "output": _only(_OUTPUT, "directory"),
        "scaling": {"mus": ([float], [0.4, 0.2, 0.1, 0.05])},
    },
}


def _check_section(experiment: str, sec: dict, n: int, d: int, path: str) -> None:
    """The rules that need a whole typed section."""
    if experiment == "simulate":
        for key in ("x0", "v0"):
            rows = sec[key]
            if rows is not None and (len(rows) != n or any(len(r) != d for r in rows)):
                raise ConfigError(f"{path}.{key}: expected shape ({n}, {d})")
    elif experiment == "verify":
        for key in ("t", "measure_t"):
            if not sec[key] > 0.0:
                raise ConfigError(f"{path}.{key}: must be positive")
        if sec["measure_count"] is not None and sec["measure_count"] < 1:
            raise ConfigError(f"{path}.measure_count: need at least one sample")
    elif experiment == "converge":
        if not sec["flow_t"] > 0.0:
            raise ConfigError(f"{path}.flow_t: must be positive")
        try:
            # the Cauchy check of a converge run needs three levels
            verification.require_levels(sec["levels"], 3)
        except LiouvilleLabError as exc:
            raise ConfigError(f"{path}.levels: {exc}") from exc
    elif experiment == "residual":
        # a run that draws no test function checks nothing
        if sec["phi_count"] < 1:
            raise ConfigError(f"{path}.phi_count: need at least one test function")
    elif experiment == "scaling":
        try:
            verification.require_radii(sec["mus"])
        except LiouvilleLabError as exc:
            raise ConfigError(f"{path}.mus: {exc}") from exc


def load_config(raw: dict, experiment: str, overrides: dict) -> ResolvedConfig:
    """Check a parsed JSON config against the schema for experiment.

    The schema holds exactly the keys the experiment reads, so a key it
    would ignore is an error.  Every value is type-checked, and every
    rule that needs a whole section is applied, before anything runs or
    is written.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    sections = _SCHEMAS[experiment]
    schema = {
        "experiment": (str, experiment),
        "potential": (dict, {}),
        "n": (int, 2),
        **{name: (dict, {}) for name in sections},
    }
    if experiment == "verify":
        schema["checks"] = ([dict], [{"name": name} for name in verification.CHECK_NAMES])
    top = _require_keys(raw, schema, "config")
    if top["experiment"] != experiment:
        raise ConfigError(
            f"config.experiment {top['experiment']!r} does not match"
            f" subcommand {experiment!r}"
        )
    resolved = {"experiment": experiment}

    potential, resolved["potential"] = _parse_potential(top["potential"], "config.potential")
    d = resolved["potential"]["d"]
    n = resolved["n"] = top["n"]
    if n < 2:
        raise ConfigError("config.n: need at least two particles")

    icfg = None
    if "dynamics" in sections:
        dyn = resolved["dynamics"] = _require_keys(top["dynamics"], _DYNAMICS, "config.dynamics")
        try:
            icfg = IntegratorConfig(**dyn)
        except LiouvilleLabError as exc:
            raise ConfigError(f"config.dynamics: {exc}") from exc

    ens = resolved["ensemble"] = _require_keys(
        top["ensemble"], sections["ensemble"], "config.ensemble"
    )
    if overrides.get("seed") is not None:
        ens["seed"] = overrides["seed"]
    box = datum = None
    if "count" in ens:
        if ens["count"] < 1:
            raise ConfigError("config.ensemble.count: need at least one sample")
        try:
            box = PhaseBox.centered(d=d, n=n, x_half=ens["x_half"], v_half=ens["v_half"])
        except LiouvilleLabError as exc:
            raise ConfigError(f"config.ensemble: {exc}") from exc
    if "datum" in ens:
        datum, ens["datum"] = _parse_datum(ens["datum"], n, d, "config.ensemble.datum")

    out = resolved["output"] = _require_keys(top["output"], sections["output"], "config.output")
    out["directory"] = str(Path(overrides.get("out") or out["directory"]))
    if out.get("stride", 1) < 1:
        raise ConfigError("config.output.stride: must be positive")

    path = f"config.{experiment}"
    section = resolved[experiment] = _require_keys(top[experiment], sections[experiment], path)
    _check_section(experiment, section, n, d, path)
    if experiment == "simulate" and (section["x0"] is None or section["v0"] is None):
        # only a missing x0 or v0 is drawn; x0's draw always comes first
        rng = rng_for(ens["seed"], "simulate-initial")
        for key in ("x0", "v0"):
            drawn = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()
            if section[key] is None:
                section[key] = drawn

    checks = []
    if experiment == "verify":
        checks = [
            _require_keys(c, _CHECK, f"config.checks[{i}]") for i, c in enumerate(top["checks"])
        ]
        try:
            verification.require_checks([c["name"] for c in checks])
        except LiouvilleLabError as exc:
            raise ConfigError(f"config.checks: {exc}") from exc
        resolved["checks"] = checks

    return ResolvedConfig(
        experiment=experiment,
        n=n,
        potential=potential,
        icfg=icfg,
        box=box,
        count=ens.get("count"),
        seed=ens["seed"],
        datum=datum,
        out_dir=Path(out["directory"]),
        stride=out.get("stride"),
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
    kernel = MollifierKernel(d=cfg.potential.d)
    shrink = ShrinkFunction()
    gradient = verification.check_gradient_l1_decreasing(
        cfg.potential, kernel, shrink, sec["levels"], cfg.seed
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
        count=cfg.count,
        seed=cfg.seed,
        icfg=cfg.icfg,
        levels=sec["levels"],
    )


def _run_residual(cfg: ResolvedConfig, quiet: bool) -> list:
    sec = cfg.section
    betas = shipped_beta_family() if sec["include_betas"] else []
    reports = []
    for j in range(sec["phi_count"]):
        phi = random_test_function(
            cfg.potential.d,
            cfg.n,
            cfg.box,
            *TEST_FUNCTION_WINDOW,
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
        cfg.potential, cfg.box, cfg.datum, cfg.count, cfg.seed, cfg.section["mus"]
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
        if reports:
            verification.write_reports_jsonl(reports, cfg.out_dir / "reports.jsonl")
            verification.write_summary_csv(reports, cfg.out_dir / "summary.csv")
    except (LiouvilleLabError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    if not quiet:
        for rep in reports:
            print(rep.summary_line())
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
