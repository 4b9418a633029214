"""One pass of a workload in a fresh interpreter.

A pass pays what every CLI run and test pays: interpreter start, imports
and cache fills.  Set-up time runs from the parent's spawn timestamp to the
first timed call into the package; wall time runs from that call to the
last verdict.  The result, with every verdict and (when traced) the layer
summary, is written as JSON to --result.

    python3 perfbench/one_pass.py --workload mollified --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent> --result out.json --work dir
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np

    import liouville_lab
    import workloads
    from tracer import Tracer

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(liouville_lab.__file__).resolve().parents:
        print(f"liouville_lab imported from {liouville_lab.__file__}, not {src}", file=sys.stderr)
        return 2
    runner = workloads.RUNNERS[args.workload]
    verdicts = workloads.Verdicts()
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(liouville_lab)

    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        started = time.perf_counter()
        runner(args.seed, verdicts, args.work)
        wall_s = time.perf_counter() - started
        result.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            records=verdicts.records,
            suite_calls=verdicts.suite_calls,
            artifact_bytes=_dir_bytes(args.work),
            sizes=workloads.SIZES[args.workload],
            floors=workloads.FLOORS,
            numpy=np.__version__,
            blas=np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.summary(wall_s)
            tracer.write_spans(args.result.with_suffix(".spans.csv.gz"))
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
