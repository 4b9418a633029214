"""Fingerprints of the benchmark's verdict records, one line per seed.

    python scripts/verdict_fingerprint.py --workload mollified --seeds 1-10

Runs one pass of a perfbench workload per seed, in this process, on the
package under ./src, and prints the record count, the wrong verdicts and
a digest of the hex statistics that perfbench/run.py's `fingerprint`
reads.  Two checkouts whose lines match give bitwise the same reports.
Exits 1 when any verdict is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# perfbench is read, never written: no bytecode cache lands in it
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py; imports no numpy)

# numpy's threads set as in the benchmark, before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = run.THREAD_CAP

import workloads  # noqa: E402


def seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seeds", type=seeds, default=[1], help="e.g. 1-10 or 1,3,5")
    args = parser.parse_args()
    wrong = 0
    for seed in args.seeds:
        verdicts = workloads.Verdicts()
        with tempfile.TemporaryDirectory() as work:
            workloads.RUNNERS[args.workload](seed, verdicts, Path(work))
        res = {"records": verdicts.records}
        digest = hashlib.sha256(json.dumps(run.fingerprint(res)).encode()).hexdigest()
        wrong += run.wrong_verdicts(res)
        print(f"{args.workload} seed={seed} records={len(verdicts.records)}"
              f" wrong={run.wrong_verdicts(res)} digest={digest[:16]}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
