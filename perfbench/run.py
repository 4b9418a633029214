"""Time-to-verdict benchmark for liouville_lab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src.
Each pass runs one workload's checks back to back in a fresh interpreter
(one caller, no arrival process, no warm-up).

--trace 0 runs set-up probes and then untraced passes until --seconds is
spent, and reports the end-to-end metrics as medians over the passes.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics; tracing overhead is the difference of their wall times.

Every verdict is checked: a positive check must pass, a negative control
must fail, the identical-level uniqueness functional must stay below 1e-20
and every CLI run must exit with 0.  Report statistics must be bitwise
identical across the passes of a run, traced or not.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
# a run must end within 180 s, passes included
RUN_DEADLINE_S = 170
# numpy is left single-threaded so that timings and sums do not depend on
# how many idle cores the machine happens to have
THREAD_CAP = "1"


def provenance(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": THREAD_CAP,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable (unresolved " + ref[5:] + ")"


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, out: Path, tag: str,
             deadline: float, setup_only: bool = False) -> dict:
    """Spawn one pass, wait for it (at most until the perf_counter deadline) and return its result."""
    result = out / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREAD_CAP
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--result", str(result),
        "--work", str(out / "work" / tag),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0 or not result.is_file():
        raise PassFailed(f"pass {tag} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def fingerprint(res: dict) -> list:
    """Report statistics of a pass, exact to the bit."""
    keys = ("statistic", "std_error", "bias_bound", "tolerance", "flagged_fraction")
    return [
        (r["check"], r["passed"], *(float(r[k]).hex() for k in keys if k in r))
        for r in res["records"]
    ]


def wrong_verdicts(res: dict) -> int:
    return sum(r["passed"] != r["expected_pass"] for r in res["records"])


def gate_metrics(res: dict) -> dict:
    records = res["records"]
    controls = [r["margin"] for r in records if r["role"] == "control"]
    positives = [r["margin"] for r in records if r["role"] == "positive"]
    group = [r["statistic"] for r in records if r["check"] == "group_property"]
    return {
        "verification.checks": float(len(records)),
        "verification.controls": float(len(controls)),
        "verification.min_control_margin": min(controls, default=0.0),
        "verification.max_positive_margin": max(positives, default=0.0),
        "verification.group_property_statistic": max(group, default=0.0),
    }


def mc_efficiency(res: dict) -> float:
    """Geometric mean of 1/(se^2 * seconds) over the positive residual-suite calls."""
    calls = res["suite_calls"]
    if not calls:
        return 0.0
    logs = [-math.log(c["identity_std_error"] ** 2 * c["seconds"]) for c in calls]
    return math.exp(sum(logs) / len(logs))


def end_to_end(workload: str, seed: int, seconds: float, out: Path,
               deadline: float) -> tuple[dict, list]:
    setups = [
        run_pass(workload, seed, False, out, f"setup{k}", deadline, setup_only=True)["setup_s"]
        for k in range(SETUP_PROBES)
    ]
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, False, out, f"pass{len(passes)}", deadline))
        elapsed = time.perf_counter() - started
        # start another pass only if it should end within half a pass of the budget
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def per_layer(workload: str, seed: int, out: Path, deadline: float) -> tuple[dict, list]:
    plain = run_pass(workload, seed, False, out, "untraced", deadline)
    traced = run_pass(workload, seed, True, out, "traced", deadline)
    metrics = dict(traced["layers"])
    metrics.update(gate_metrics(traced))
    metrics["transport.mc_efficiency"] = mc_efficiency(plain)
    metrics["cli.artifact_bytes"] = float(traced["artifact_bytes"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, [plain, traced]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "liouville_lab" / "__init__.py").is_file():
        print(f"no liouville_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        if args.trace:
            metrics, passes = per_layer(args.workload, args.seed, out, deadline)
        else:
            metrics, passes = end_to_end(args.workload, args.seed, args.seconds, out, deadline)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        print(f"metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 3
    prints = [fingerprint(p) for p in passes]
    identical = all(f == prints[0] for f in prints)
    failed = sum(wrong_verdicts(p) for p in passes)
    attempted = sum(len(p["records"]) for p in passes)

    first = passes[0]
    info = provenance(args.seed, args.workload)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    info.update(numpy=first["numpy"], blas=first["blas"], sizes=first["sizes"],
                why=why, control_power_floors=first["floors"],
                passes=len(passes), bitwise_identical_statistics=identical)
    summary = {"provenance": info, "metrics": metrics,
               "verdicts": first["records"], "pass_walls_s": [p["wall_s"] for p in passes]}
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print("provenance " + json.dumps(info, sort_keys=True))
    for r in first["records"]:
        margin = r.get("margin")
        print(f"verdict {r['role']:8s} {'pass' if r['passed'] else 'FAIL'} "
              f"{'ok   ' if r['passed'] == r['expected_pass'] else 'WRONG'} {r['check']}"
              f" [{r.get('potential', '')}] statistic={r['statistic']:.6g}"
              + ("" if margin is None else f" statistic/budget={margin:.4g}"))
    for m in declared:
        print(f"metric {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    if not identical:
        print("report statistics differ between passes", file=sys.stderr)
    result = {
        "correct": identical and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
