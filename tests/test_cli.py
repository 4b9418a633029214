import csv
import json
import runpy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liouville_lab import cli, verification
from liouville_lab.errors import ConfigError
from liouville_lab.potentials import MollifierKernel, ShrinkFunction

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CONFIGS = SCRIPTS / "configs"
BENCH_CONFIGS = SCRIPTS.parent / "perfbench" / "configs"


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


def small_config(experiment, out_dir):
    """A quick valid config of each experiment."""
    if experiment == "simulate":
        return simulate_config(out_dir)
    if experiment == "verify":
        return verify_config(out_dir)
    cfg = {"experiment": experiment, "output": {"directory": str(out_dir)}, "n": 2}
    if experiment == "converge":
        cfg.update(
            potential={"kind": "repulsive_power", "d": 2, "params": {"exponent": 0.5}},
            dynamics={"dt": 0.01},
            ensemble={"count": 40, "seed": 3},
            converge={"levels": [3, 4, 5], "flow_t": 0.1},
        )
    elif experiment == "residual":
        cfg.update(
            potential={"kind": "free", "d": 2},
            ensemble={"count": 2000, "seed": 5, "datum": {"kind": "bump", "width": 1.0}},
            residual={"phi_count": 1, "include_betas": False},
        )
    else:
        cfg.update(
            potential={"kind": "free", "d": 3},
            ensemble={"x_half": 1.0, "v_half": 1.0, "count": 20000, "seed": 14,
                      "datum": {"kind": "constant"}},
            scaling={"mus": [0.4, 0.2]},
        )
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
    # the seed, which draws a missing x0 or v0, is all simulate reads of it
    assert resolved["ensemble"] == {"seed": 0}
    assert resolved["output"]["stride"] == 1  # default materialized


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
    # a given x0 is kept and only the missing v0 is drawn, as with neither given
    half = dict(base, simulate={"t_final": 0.1, "x0": [[0.5, 0.5], [-0.5, -0.5]]})
    p = write_config(tmp_path, half, "half.json")
    assert cli.main(["simulate", "--config", p, "--out", str(tmp_path / "h1"), "--seed", "1", "--quiet"]) == 0
    h1 = json.loads((tmp_path / "h1" / "resolved_config.json").read_text())
    assert h1["simulate"]["x0"] == [[0.5, 0.5], [-0.5, -0.5]]
    assert h1["simulate"]["v0"] == r1["simulate"]["v0"]


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
    # a step too coarse for Verlet to conserve energy to the library tolerance
    out = tmp_path / "run"
    cfg = verify_config(out, dynamics={"dt": 0.1}, checks=[{"name": "energy_invariance"}])
    code = cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 1
    report = json.loads((out / "reports.jsonl").read_text().strip())
    assert report["pass"] is False
    assert report["tolerance"] == verification.TOLERANCES["energy_invariance"]
    assert report["flagged_fraction"] == 0.0


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
    # one code path: the CLI gives the suite's statistics to the bit, in
    # config order
    order = ["weak_ode", "group_property", "time_continuity", "energy_invariance",
             "measure_preservation"]
    raw = verify_config(
        tmp_path / "run",
        ensemble={"x_half": 1.5, "v_half": 1.5, "count": 1500, "seed": 424242},
        verify={"t": 0.5, "measure_t": 0.2, "measure_count": 8000},
        checks=[{"name": name} for name in order],
    )
    cfg = cli.load_config(raw, "verify", {})
    suite = verification.flow_axiom_suite(
        cfg.potential, cfg.box, cfg.count, cfg.seed, cfg.icfg, t=0.5, measure_t=0.2,
        measure_count=8000, with_controls=False, checks=order,
    )

    want = report_stats(r.to_json_dict() for r in suite)
    assert cli.main(["verify", "--config", write_config(tmp_path, raw), "--quiet"]) == 0
    assert report_stats(read_reports(tmp_path / "run")) == want
    assert [r["check_name"] for r in want] == order


def test_example_configs_load():
    # schema drift check: every shipped config and every benchmark config
    # resolves without running, and every experiment ships at least one
    bench = sorted(BENCH_CONFIGS.glob("*.json"))
    assert bench
    shipped = set()
    for path in sorted(CONFIGS.glob("*.json")) + bench:
        raw = json.loads(path.read_text())
        cfg = cli.load_config(raw, raw["experiment"], {})
        assert cfg.experiment == raw["experiment"], path.name
        if path.parent == CONFIGS:
            shipped.add(cfg.experiment)
    assert shipped == set(cli.EXPERIMENTS)


@pytest.mark.parametrize(
    "script", ["weak_residual_demo.py", "integrator_bench.py", "kernel_bench.py"]
)
def test_scripts_run_with_help(script, monkeypatch, capsys):
    # the script's imports from the package run before --help exits
    monkeypatch.setattr(sys, "argv", [script, "--help"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert stop.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _run_demo(argv, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", ["weak_residual_demo.py", *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / "weak_residual_demo.py"), run_name="__main__")
    return stop.value.code


def test_weak_residual_demo_exits_0_on_right_verdicts(monkeypatch, capsys):
    assert _run_demo(["--count", "20000", "--with-control"], monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("pass: ") != ("_control" in line) for line in lines)


def test_weak_residual_demo_exits_1_on_a_failing_positive(monkeypatch, capsys):
    suite = verification.check_renormalization_suite

    def failing_identity(*args, **kwargs):
        reports = suite(*args, **kwargs)
        return [replace(reports[0], passed=False)] + reports[1:]

    monkeypatch.setattr(verification, "check_renormalization_suite", failing_identity)
    assert _run_demo(["--count", "2000"], monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL: renormalized_residual[identity]")
    assert "wrong verdicts: renormalized_residual[identity]" in captured.err


def test_converge_runs_the_library_checks(tmp_path):
    out = tmp_path / "run"
    raw = json.loads((CONFIGS / "converge_mollified.json").read_text())
    # the Cauchy check flows the ensemble's count
    raw["ensemble"]["count"] = 300
    code = cli.main(["converge", "--config", write_config(tmp_path, raw),
                     "--out", str(out), "--quiet"])
    assert code == 0
    reports = read_reports(out)
    assert [r["check_name"] for r in reports] == [
        "gradient_l1_decreasing", "mollification_cauchy", "mollification_kernel_independence",
    ]
    assert [r["N"] for r in reports] == [20000, 300, 300]
    g = reports[0]["details"]
    assert read_rows(out / "levels.csv") == [["level", "l1_error", "std_error"]] + [
        [str(level), f"{err:.17g}", f"{se:.17g}"]
        for level, err, se in zip(g["levels"], g["errors"], g["std_errors"])
    ]
    cfg = cli.load_config(raw, "converge", {})
    sec = cfg.section
    kernel = MollifierKernel(d=2, power=3)
    shrink = ShrinkFunction(cap=1.0, slope=0.5)
    direct = [
        verification.check_gradient_l1_decreasing(
            cfg.potential, kernel, shrink, sec["levels"], seed=cfg.seed
        )
    ] + verification.check_mollification_cauchy(
        cfg.potential, kernel, shrink, cfg.box, t=sec["flow_t"], count=300,
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
        cfg.potential, cfg.box, cfg.datum, cfg.count, cfg.seed, cfg.section["mus"]
    )
    assert report_stats(reports) == report_stats([direct.to_json_dict()])


DYNAMICS_KEYS = {"scheme", "dt", "adaptive"}
BOX_KEYS = {"x_half", "v_half", "count", "seed"}
# experiment -> the keys of each section of its resolved config: the keys
# it reads, and no other
RESOLVED_SECTIONS = {
    "simulate": {"dynamics": DYNAMICS_KEYS, "ensemble": {"seed"},
                 "output": {"directory", "stride"}, "simulate": {"t_final", "x0", "v0"}},
    "verify": {"dynamics": DYNAMICS_KEYS, "ensemble": BOX_KEYS, "output": {"directory"},
               "verify": {"t", "measure_t", "measure_count"}},
    "converge": {"dynamics": DYNAMICS_KEYS, "ensemble": BOX_KEYS, "output": {"directory"},
                 "converge": {"levels", "flow_t"}},
    "residual": {"dynamics": DYNAMICS_KEYS, "ensemble": BOX_KEYS | {"datum"},
                 "output": {"directory"}, "residual": {"phi_count", "include_betas"}},
    "scaling": {"ensemble": BOX_KEYS | {"datum"}, "output": {"directory"}, "scaling": {"mus"}},
}


def test_resolved_config_round_trips(tmp_path):
    for experiment in cli.EXPERIMENTS:
        first, rerun = tmp_path / experiment / "r1", tmp_path / experiment / "r2"
        raw = small_config(experiment, first)
        cfg = cli.load_config(raw, experiment, {})
        again = cli.load_config(cfg.resolved, experiment, {})
        assert cfg.resolved == again.resolved, experiment
        # and the emitted file itself reloads to the same resolution
        p = write_config(tmp_path, raw)
        assert cli.main([experiment, "--config", p, "--quiet"]) == 0, experiment
        emitted = json.loads((first / "resolved_config.json").read_text())
        assert emitted == cfg.resolved, experiment
        assert cli.load_config(emitted, experiment, {}).resolved == cfg.resolved, experiment
        sections = {key: set(value) for key, value in emitted.items()
                    if isinstance(value, dict) and key != "potential"}
        assert sections == RESOLVED_SECTIONS[experiment], experiment
        if "datum" in emitted["ensemble"]:
            assert set(emitted["ensemble"]["datum"]) == {"kind", "width"}, experiment
        # a rerun from the emitted file writes the same artifacts
        p = write_config(tmp_path, emitted, "emitted.json")
        assert cli.main([experiment, "--config", p, "--out", str(rerun), "--quiet"]) == 0
        for name in ("trajectory.csv", "levels.csv", "scaling.csv", "summary.csv"):
            if (first / name).exists():
                assert (rerun / name).read_bytes() == (first / name).read_bytes(), name
        if experiment != "simulate":
            assert report_stats(read_reports(rerun)) == report_stats(read_reports(first))


# (section path, key, value): a key of each experiment's config that the
# experiment would not read, either because another experiment reads it or
# because no input of that name is left
UNREAD_KEYS = {
    "simulate": [
        ("ensemble", "x_half", 1.0),
        ("ensemble", "v_half", 1.0),
        ("ensemble", "count", 300),
        ("ensemble", "datum", {"kind": "bump"}),
    ],
    "verify": [
        ("ensemble", "datum", {}),
        ("output", "stride", 1),
    ],
    "converge": [
        ("ensemble", "datum", {}),
        ("output", "stride", 1),
        ("converge", "flow_count", 1200),
        ("converge", "r_inner", 0.5),
        ("converge", "r_outer", 2.0),
        ("converge", "gradient_samples", 20000),
        ("converge", "kernel_power", 3),
        ("converge", "shrink_cap", 1.0),
        ("converge", "shrink_slope", 0.5),
        ("potential.params", "singularity_class", "l1_singular_gradient"),
    ],
    "residual": [
        ("output", "stride", 1),
        ("ensemble.datum", "amplitude", 1.0),
        ("ensemble.datum", "center", [0.0] * 8),
        ("residual", "t_center", 1.0),
        ("residual", "t_width", 0.8),
        ("residual", "beta_scale", 1.0),
    ],
    "scaling": [
        ("dynamics", "dt", 5.0),
        ("dynamics", "adaptive", True),
        ("output", "stride", 1),
        ("scaling", "pair", [0, 1]),
    ],
}


@pytest.mark.parametrize(
    "experiment, where, key, value",
    [(experiment, *case) for experiment, cases in UNREAD_KEYS.items() for case in cases],
    ids=[f"{experiment}-{where}.{key}" for experiment, cases in UNREAD_KEYS.items()
         for where, key, _ in cases],
)
def test_key_the_experiment_does_not_read_exits_two(tmp_path, experiment, where, key, value):
    out = tmp_path / "run"
    cfg = small_config(experiment, out)
    cli.load_config(cfg, experiment, {})  # the config without the key is valid
    section = cfg
    for part in where.split("."):
        section = section.setdefault(part, {})
    section[key] = value
    code = cli.main([experiment, "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("reference_distance", 0.5), ("max_substeps", 40)])
def test_integrator_constants_are_not_config_keys(tmp_path, capsys, key, value):
    # the adaptive step's reference distance and the per-leg step budget
    # are constants of the integrator, which no config sets
    out = tmp_path / "run"
    cfg = simulate_config(out)
    cfg["dynamics"][key] = value
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg), "--quiet"])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


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
    configs = {"simulate": simulate_config, "verify": verify_config,
               "residual": lambda out: {"experiment": "residual",
                                        "output": {"directory": str(out)}}}
    for experiment, mangle in [
        ("simulate", lambda c: c.update(bogus=1)),
        ("simulate", lambda c: c["dynamics"].update(stepper="rk7")),
        ("simulate", lambda c: c["simulate"].update(tfinal=1.0)),
        ("simulate", lambda c: c["potential"].update(shape="round")),
        # the flow-axiom tolerances and the residual node count are the library's
        ("verify", lambda c: c["checks"][1].update(tolerance=0.0)),
        ("residual", lambda c: c.update(residual={"nodes": 65})),
        # input kinds that no config set are gone
        ("simulate", lambda c: c.update(potential={
            "kind": "mollified", "d": 2, "params": {"base": {"kind": "free", "d": 2}}})),
        ("residual", lambda c: c.update(ensemble={"datum": {"kind": "smoothed_indicator"}})),
    ]:
        cfg = configs[experiment](out)
        mangle(cfg)
        code = cli.main([experiment, "--config", write_config(tmp_path, cfg), "--quiet"])
        assert code == 2, experiment
        assert not (out / "resolved_config.json").exists(), experiment


def test_experiment_mismatch_exits_two(tmp_path):
    cfg = simulate_config(tmp_path / "run")
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2


def test_verify_requires_checks(tmp_path):
    cfg = verify_config(tmp_path / "run", checks=[])
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2
    cfg = verify_config(tmp_path / "run", checks=[{"name": "does_not_exist"}])
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2
    cfg = verify_config(tmp_path / "run", checks=[{"name": "weak_ode"}, {"name": "weak_ode"}])
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 2


def test_verify_refuses_a_dt_past_the_walk_node_spacing(tmp_path, capsys):
    # dt = 0.1 exceeds the node spacing t / 128 of the weak_ode walk
    cfg = verify_config(tmp_path / "run", dynamics={"dt": 0.1}, checks=[{"name": "weak_ode"}])
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg), "--quiet"]) == 3
    assert "node spacing" in capsys.readouterr().err


def test_type_errors_exit_two(tmp_path):
    # every value is type-checked at load, before resolved_config.json
    out = tmp_path / "run"
    for experiment, section in [
        ("simulate", {"dynamics": {"dt": "fast"}}),
        ("simulate", {"dynamics": {"adaptive": 1}}),
        ("scaling", {"scaling": {"mus": "0.4"}}),
        ("scaling", {"ensemble": {"count": 1.5}}),
        ("converge", {"converge": {"levels": "34"}}),
        ("converge", {"converge": {"flow_t": "x"}}),
        ("residual", {"residual": {"include_betas": "no"}}),
        ("verify", {"verify": {"measure_count": 1.5}}),
        # json writes and reads NaN, Infinity and integers past the float
        # range; none is a finite number
        ("verify", {"dynamics": {"dt": float("nan")}}),
        ("verify", {"verify": {"t": float("inf")}}),
        ("converge", {"converge": {"flow_t": 10**400}}),
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
        # velocity Verlet is the one stepper
        ("simulate", {"dynamics": {"scheme": "rk4"}}),
        ("converge", {"converge": {"levels": [4, 3]}}),
        ("converge", {"converge": {"levels": [4]}}),
        ("converge", {"converge": {"levels": [3, 4]}}),
        ("converge", {"converge": {"levels": [4, 4, 4]}}),
        ("converge", {"converge": {"flow_t": 0.0}}),
        ("converge", {"converge": {"flow_t": -0.4}}),
        ("converge", {"ensemble": {"count": 0}}),
        ("scaling", {"scaling": {"mus": [0.4, 0.0]}}),
        # repeated radii fit no slope
        ("scaling", {"scaling": {"mus": [0.2, 0.2]}}),
        ("scaling", {"ensemble": {"x_half": -1.0}}),
        ("simulate", {"output": {"stride": 0}}),
        ("verify", {"verify": {"t": -0.5}}),
        ("verify", {"verify": {"t": 0.0}}),
        ("verify", {"verify": {"measure_t": 0.0}}),
        ("verify", {"verify": {"measure_count": 0}}),
        # a run that draws no test function checks nothing
        ("residual", {"residual": {"phi_count": 0}}),
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


def test_unwritable_output_directory_exits_three(tmp_path, capsys):
    # the output directory would sit under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    p = write_config(tmp_path, simulate_config(blocker / "run"))
    assert cli.main(["simulate", "--config", p, "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("runtime error:")
    # an artifact that cannot be written: its path is taken by a directory
    out = tmp_path / "run"
    (out / "reports.jsonl").mkdir(parents=True)
    p = write_config(tmp_path, verify_config(out, ensemble={"count": 200, "seed": 11}))
    assert cli.main(["verify", "--config", p, "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("runtime error:")


def test_unknown_subcommand_is_an_argparse_error():
    for argv in (["frobnicate", "--config", "x.json"],
                 ["verify", "--config", "x.json", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
