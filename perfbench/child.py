"""One benchmark pass in a fresh interpreter, started by run.py.

Set-up ends when `import circle_lab` returns; the parent subtracts its own
monotonic clock reading taken just before the spawn.  The pass record is
printed as one JSON line on stdout.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import circle_lab  # noqa: E402,F401  (set-up: interpreter start through this import)

READY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from harness import Pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", help="traced pass: write the spans here")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--corrupt", help="op whose first library result is falsified")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return

    p = Pass(args.seed, args.trace_out is not None, args.threads, args.corrupt)
    tmp = Path(tempfile.mkdtemp(dir=args.work_dir))
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        WORKLOADS[args.workload](p, args.quick, tmp)
        end = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "ready": READY,
        "wall_s": end - start,
        "rss_mb": ru1.ru_maxrss / 1024.0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "ops": len(p.outcomes),
        "failures": [[name, why] for name, why in p.outcomes if why is not None],
    }
    if p.trace:
        pass_span = {"name": "pass", "layer": "bench", "op": None, "start": start, "end": end,
                     "parent": None, "run": p.run_id, "id": 0}
        Path(args.trace_out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "counts": dict(p.counts),
            "spans": [pass_span] + p.spans,
        }))
        record["stat_s"] = dict(p.stat_s)
        record["layers"] = p.layer_totals()
        record["counts"] = dict(p.counts)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
