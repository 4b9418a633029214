import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from liouville_lab import cli, verification
from liouville_lab.errors import ConfigError
from liouville_lab.potentials import MollifierKernel, ShrinkFunction, free_potential
from liouville_lab.transport import InitialDatum, PhaseBox

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def simulate_config(out_dir, **over):
    cfg = {
        "experiment": "simulate",
        "potential": {"kind": "free", "d": 2},
        "n": 2,
        "dynamics": {"dt": 1e-2},
        "simulate": {
            "t_final": 0.5,
            "x0": [[0.1, 0.2], [-0.3, 0.4]],
            "v0": [[1.0, -0.5], [0.25, 0.75]],
        },
        "output": {"directory": str(out_dir)},
    }
    cfg.update(over)
    return cfg


def verify_config(out_dir, **over):
    cfg = {
        "experiment": "verify",
        "potential": {"kind": "harmonic", "d": 2},
        "n": 2,
        "ensemble": {"count": 3000, "seed": 11},
        "verify": {"t": 1.0},
        "checks": [{"name": "group_property"}, {"name": "energy_invariance"}],
        "output": {"directory": str(out_dir)},
    }
    cfg.update(over)
    return cfg


def report_stats(report_dicts):
    return [
        {k: v for k, v in json.loads(json.dumps(r)).items() if k != "runtime_seconds"}
        for r in report_dicts
    ]


def read_reports(out):
    return [json.loads(line) for line in (out / "reports.jsonl").read_text().strip().split("\n")]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_free_matches_closed_form(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", write_config(tmp_path, simulate_config(out)), "--quiet"])
    assert code == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    assert float(last["t"]) == pytest.approx(0.5)
    x0 = np.array([[0.1, 0.2], [-0.3, 0.4]])
    v0 = np.array([[1.0, -0.5], [0.25, 0.75]])
    want = x0 + 0.5 * v0
    for i in range(2):
        for k in range(2):
            assert float(last[f"x_{i + 1}_{k + 1}"]) == pytest.approx(want[i, k], abs=1e-14)
            assert float(last[f"v_{i + 1}_{k + 1}"]) == pytest.approx(v0[i, k], abs=1e-14)
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["dynamics"]["scheme"] == "velocity_verlet"
    assert resolved["dynamics"]["dt"] == 1e-2
    assert resolved["ensemble"]["count"] == 10000  # default materialized


def test_simulate_without_initial_state_uses_seeded_draw(tmp_path):
    base = simulate_config(tmp_path / "a")
    del base["simulate"]["x0"], base["simulate"]["v0"]
    base["simulate"] = {"t_final": 0.1}
    p = write_config(tmp_path, base)
    assert cli.main(["simulate", "--config", p, "--out", str(tmp_path / "s1"), "--seed", "1", "--quiet"]) == 0
    assert cli.main(["simulate", "--config", p, "--out", str(tmp_path / "s1b"), "--seed", "1", "--quiet"]) == 0
    assert cli.main(["simulate", "--config", p, "--out", str(tmp_path / "s2"), "--seed", "2", "--quiet"]) == 0
    r1 = json.loads((tmp_path / "s1" / "resolved_config.json").read_text())
    r1b = json.loads((tmp_path / "s1b" / "resolved_config.json").read_text())
    r2 = json.loads((tmp_path / "s2" / "resolved_config.json").read_text())
    assert r1["simulate"]["x0"] == r1b["simulate"]["x0"]
    assert r1["simulate"]["x0"] != r2["simulate"]["x0"]
    assert r1["ensemble"]["seed"] == 1 and r2["ensemble"]["seed"] == 2


def test_trajectory_stride_keeps_final_row(tmp_path):
    out = tmp_path / "run"
    cfg = simulate_config(out, output={"directory": str(out), "stride": 20})
    assert cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--quiet"]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 51 recorded states, stride 20 keeps 0, 20, 40, then the forced last
    assert len(rows) == 4
    assert float(rows[-1]["t"]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_writes_reports(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["verify", "--config", write_config(tmp_path, verify_config(out)), "--quiet"])
    assert code == 0
    lines = (out / "reports.jsonl").read_text().strip().split("\n")
    reports = [json.loads(line) for line in lines]
    assert [r["check_name"] for r in reports] == ["group_property", "energy_invariance"]
    assert all(r["pass"] for r in reports)
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check_name", "potential", "N", "statistic", "tolerance", "pass"]
    assert len(rows) == 3


def test_verify_check_failure_exits_one(tmp_path):
    out = tmp_path / "run"
    cfg = verify_config(out, checks=[{"name": "energy_invariance", "tolerance": 0.0}])
    code = cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 1
    report = json.loads((out / "reports.jsonl").read_text().strip())
    assert report["pass"] is False
    assert report["tolerance"] == 0.0


def test_verify_rerun_is_idempotent(tmp_path):
    p = write_config(tmp_path, verify_config(tmp_path / "unused"))
    assert cli.main(["verify", "--config", p, "--out", str(tmp_path / "r1"), "--quiet"]) == 0
    assert cli.main(["verify", "--config", p, "--out", str(tmp_path / "r2"), "--quiet"]) == 0
    take = lambda d, name: (tmp_path / d / name).read_text()
    assert take("r1", "summary.csv") == take("r2", "summary.csv")
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "runtime_seconds"}
        for line in text.strip().split("\n")
    ]
    assert strip(take("r1", "reports.jsonl")) == strip(take("r2", "reports.jsonl"))


def test_verify_runs_the_library_suite(tmp_path):
    # one code path: the CLI, the suite and the standalone checks at the
    # suite's times give the same statistics to the bit on a fixed grid
    order = ["weak_ode", "group_property", "time_continuity", "energy_invariance",
             "measure_preservation"]
    raw = verify_config(
        tmp_path / "run",
        ensemble={"x_half": 1.5, "v_half": 1.5, "count": 1500, "seed": 424242},
        verify={"t": 0.5, "measure_t": 0.2, "measure_count": 8000},
        checks=[{"name": name} for name in order],
    )
    cfg = cli.load_config(raw, "verify", {})
    args = (cfg.potential, cfg.box)
    run = (cfg.count, cfg.seed, cfg.icfg)
    standalone = {
        "time_continuity": verification.check_time_continuity(*args, 0.25, *run),
        "measure_preservation": verification.check_measure_preservation(
            *args, 0.2, 8000, cfg.seed, cfg.icfg
        ),
        "group_property": verification.check_group_property(*args, 0.2, 0.3, *run),
        "energy_invariance": verification.check_energy_invariance(*args, 0.5, *run),
        "weak_ode": verification.check_weak_ode(*args, 0.5, *run),
    }
    suite = verification.flow_axiom_suite(
        *args, *run, t=0.5, measure_t=0.2, measure_count=8000, with_controls=False,
        checks=order,
    )

    want = report_stats(standalone[name].to_json_dict() for name in order)
    assert report_stats(r.to_json_dict() for r in suite) == want
    assert cli.main(["verify", "--config", write_config(tmp_path, raw), "--quiet"]) == 0
    assert report_stats(read_reports(tmp_path / "run")) == want
    assert [r["check_name"] for r in want] == order


def test_example_configs_load():
    # schema drift check: every shipped config resolves without running,
    # and every experiment ships at least one
    paths = sorted(CONFIGS.glob("*.json"))
    shipped = set()
    for path in paths:
        raw = json.loads(path.read_text())
        cfg = cli.load_config(raw, raw["experiment"], {})
        assert cfg.experiment == raw["experiment"], path.name
        shipped.add(cfg.experiment)
    assert shipped == set(cli.EXPERIMENTS)


def test_converge_runs_the_library_checks(tmp_path):
    out = tmp_path / "run"
    raw = json.loads((CONFIGS / "converge_mollified.json").read_text())
    code = cli.main(["converge", "--config", str(CONFIGS / "converge_mollified.json"),
                     "--out", str(out), "--quiet"])
    assert code == 0
    reports = read_reports(out)
    assert [r["check_name"] for r in reports] == [
        "gradient_l1_decreasing", "mollification_cauchy", "mollification_kernel_independence",
    ]
    g = reports[0]["details"]
    assert read_rows(out / "levels.csv") == [["level", "l1_error", "std_error"]] + [
        [str(level), f"{err:.17g}", f"{se:.17g}"]
        for level, err, se in zip(g["levels"], g["errors"], g["std_errors"])
    ]
    cfg = cli.load_config(raw, "converge", {})
    sec = cfg.section
    kernel = MollifierKernel(d=2, power=sec["kernel_power"])
    shrink = ShrinkFunction(cap=sec["shrink_cap"], slope=sec["shrink_slope"])
    direct = [
        verification.check_gradient_l1_decreasing(
            cfg.potential, kernel, shrink, sec["levels"], sec["r_inner"], sec["r_outer"],
            n_samples=sec["gradient_samples"], seed=cfg.seed,
        )
    ] + verification.check_mollification_cauchy(
        cfg.potential, kernel, shrink, cfg.box, t=sec["flow_t"], count=sec["flow_count"],
        seed=cfg.seed, icfg=cfg.icfg, levels=sec["levels"],
    )
    assert report_stats(reports) == report_stats(r.to_json_dict() for r in direct)


def test_scaling_runs_the_library_check(tmp_path):
    out = tmp_path / "run"
    raw = json.loads((CONFIGS / "scaling_collisions_d2.json").read_text())
    raw["ensemble"]["count"] = 200_000
    raw["output"]["directory"] = str(out)
    assert cli.main(["scaling", "--config", write_config(tmp_path, raw), "--quiet"]) == 0
    reports = read_reports(out)
    assert [r["check_name"] for r in reports] == ["collision_scaling_slope"]
    details = reports[0]["details"]
    assert read_rows(out / "scaling.csv") == [["mu", "term", "std_error", "fitted_slope"]] + [
        [f"{mu:.17g}", f"{term:.17g}", f"{se:.17g}", ""]
        for mu, term, se in zip(details["mus"], details["terms"], details["std_errors"])
    ] + [["fit", "", "", f"{details['fitted_slope']:.17g}"]]
    cfg = cli.load_config(raw, "scaling", {})
    direct = verification.check_collision_scaling(
        cfg.potential, cfg.box, cfg.datum, cfg.count, cfg.seed, cfg.section["mus"],
        pair=cfg.section["pair"],
    )
    assert report_stats(reports) == report_stats([direct.to_json_dict()])


def test_resolved_config_round_trips(tmp_path):
    raw = verify_config(tmp_path / "r1")
    cfg = cli.load_config(raw, "verify", {})
    again = cli.load_config(cfg.resolved, "verify", {})
    assert cfg.resolved == again.resolved
    # and the emitted file itself reloads to the same resolution
    p = write_config(tmp_path, raw)
    assert cli.main(["verify", "--config", p, "--quiet"]) == 0
    emitted = json.loads((tmp_path / "r1" / "resolved_config.json").read_text())
    assert cli.load_config(emitted, "verify", {}).resolved == cfg.resolved


# ---------------------------------------------------------------------------
# residual (free transport keeps it quick)


def test_residual_experiment_end_to_end(tmp_path):
    out = tmp_path / "run"
    cfg = {
        "experiment": "residual",
        "potential": {"kind": "free", "d": 2},
        "n": 2,
        "ensemble": {"count": 20000, "seed": 3, "datum": {"width": 0.9}},
        "residual": {"phi_count": 2, "include_betas": False},
        "output": {"directory": str(out)},
    }
    code = cli.main(["residual", "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 0
    reports = [json.loads(s) for s in (out / "reports.jsonl").read_text().strip().split("\n")]
    assert len(reports) == 2  # identity residual per test function
    assert all(r["check_name"] == "renormalized_residual[identity]" for r in reports)
    assert all(r["pass"] for r in reports)


# ---------------------------------------------------------------------------
# scaling table writer


def test_emit_scaling_table_formats(tmp_path):
    path = tmp_path / "scaling.csv"
    details = {
        "mus": [0.4, 0.2],
        "terms": [0.4**2, 0.2**2],
        "std_errors": [0.1 * 0.4**2, 0.1 * 0.2**2],
        "fitted_slope": 2.0,
    }
    cli.emit_scaling_table(path, details)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mu", "term", "std_error", "fitted_slope"]
    assert len(rows) == 4
    assert rows[1][0] == "0.40000000000000002" and rows[1][3] == ""
    assert rows[3][0] == "fit" and float(rows[3][3]) == 2.0


def test_emit_scaling_table_degenerate_sweeps(tmp_path):
    # the check fits nothing and fails on fewer than two radii; the table
    # still records what was swept
    box = PhaseBox.centered(d=2, n=2, x_half=1.0, v_half=1.0)
    datum = InitialDatum(kind="constant", center=np.zeros(8), width=1.0)
    path = tmp_path / "scaling.csv"
    empty = verification.check_collision_scaling(free_potential(2), box, datum, 1000, 1, [])
    assert math.isnan(empty.details["fitted_slope"]) and not empty.passed
    cli.emit_scaling_table(path, empty.details)
    assert path.read_text().strip() == "mu,term,std_error,fitted_slope"
    single = verification.check_collision_scaling(free_potential(2), box, datum, 1000, 1, [0.4])
    assert math.isnan(single.details["fitted_slope"]) and not single.passed
    cli.emit_scaling_table(path, single.details)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and rows[2][0] == "fit" and rows[2][3] == "nan"


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_invalid_json_exits_two(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["simulate", "--config", str(p), "--quiet"]) == 2


def test_unknown_keys_rejected_at_every_level(tmp_path):
    out = tmp_path / "run"
    for mangle in [
        lambda c: c.update(bogus=1),
        lambda c: c["dynamics"].update(stepper="rk7"),
        lambda c: c["simulate"].update(tfinal=1.0),
        lambda c: c["potential"].update(shape="round"),
    ]:
        cfg = simulate_config(out)
        mangle(cfg)
        code = cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--quiet"])
        assert code == 2
        assert not (out / "resolved_config.json").exists()


def test_experiment_mismatch_exits_two(tmp_path):
    cfg = simulate_config(tmp_path / "run")
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2


def test_verify_requires_checks(tmp_path):
    cfg = verify_config(tmp_path / "run", checks=[])
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2
    cfg = verify_config(tmp_path / "run", checks=[{"name": "does_not_exist"}])
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2
    cfg = verify_config(
        tmp_path / "run", checks=[{"name": "weak_ode"}, {"name": "weak_ode", "tolerance": 1.0}]
    )
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2


def test_type_errors_exit_two(tmp_path):
    # every value is type-checked at load, before resolved_config.json
    out = tmp_path / "run"
    for experiment, section in [
        ("simulate", {"dynamics": {"dt": "fast"}}),
        ("simulate", {"dynamics": {"adaptive": 1}}),
        ("scaling", {"scaling": {"mus": "0.4"}}),
        ("scaling", {"scaling": {"pair": [0.0, 1.9]}}),
        ("converge", {"converge": {"levels": "34"}}),
        ("converge", {"converge": {"gradient_samples": "x"}}),
        ("residual", {"residual": {"include_betas": "no"}}),
        ("verify", {"verify": {"measure_count": 1.5}}),
    ]:
        cfg = {"experiment": experiment, "output": {"directory": str(out)}, **section}
        code = cli.main([experiment, "--config", write_config(tmp_path, cfg), "--quiet"])
        assert code == 2, section
        assert not (out / "resolved_config.json").exists(), section
    with pytest.raises(ConfigError):
        cli.load_config({"experiment": "simulate", "n": True}, "simulate", {})


def test_section_rules_exit_two_before_writing(tmp_path):
    out = tmp_path / "run"
    for experiment, section in [
        ("simulate", {"simulate": {"x0": [[0.0, 0.0], [1.0]], "v0": [[0.0, 0.0]] * 2}}),
        ("simulate", {"simulate": {"x0": [[0.0, 0.0]] * 3, "v0": [[0.0, 0.0]] * 2}}),
        ("converge", {"converge": {"levels": [4, 3]}}),
        ("converge", {"converge": {"levels": [4]}}),
        ("converge", {"converge": {"kernel_power": 1}}),
        ("converge", {"converge": {"shrink_cap": 2.0}}),
        ("scaling", {"scaling": {"mus": [0.4, 0.0]}}),
        ("scaling", {"scaling": {"pair": [1, 1]}}),
        ("scaling", {"scaling": {"pair": [0, 2]}}),
        ("scaling", {"ensemble": {"x_half": -1.0}}),
    ]:
        cfg = {"experiment": experiment, "output": {"directory": str(out)}, **section}
        code = cli.main([experiment, "--config", write_config(tmp_path, cfg), "--quiet"])
        assert code == 2, section
        assert not (out / "resolved_config.json").exists(), section


def test_runtime_failure_exits_three(tmp_path):
    out = tmp_path / "run"
    cfg = simulate_config(out)
    cfg["potential"] = {"kind": "repulsive_power", "d": 2, "params": {"exponent": 1.0}}
    cfg["simulate"]["x0"] = [[0.0, 0.0], [0.0, 0.0]]  # pair coincidence
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 3
    # config was valid, so the resolved form was still written
    assert (out / "resolved_config.json").exists()
    assert not (out / "trajectory.csv").exists()


def test_mollified_potential_config(tmp_path):
    cfg = {
        "experiment": "simulate",
        "potential": {
            "kind": "mollified",
            "d": 2,
            "params": {
                "base": {"kind": "repulsive_power", "d": 2, "params": {"exponent": 0.5}},
                "level": 3,
            },
        },
        "simulate": {"t_final": 0.05, "x0": [[0.4, 0.0], [-0.4, 0.1]], "v0": [[0.0, 0.1], [0.0, -0.1]]},
        "output": {"directory": str(tmp_path / "run")},
    }
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 0
    resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())
    params = resolved["potential"]["params"]
    assert params["kernel_power"] == 3 and params["level"] == 3
    assert params["base"]["params"]["strength"] == 1.0
    bad = dict(cfg, potential={"kind": "mollified", "d": 2, "params": {"level": 3}})
    assert cli.main(["simulate", "--config", write_config(tmp_path, bad), "--quiet"]) == 2


def test_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2
