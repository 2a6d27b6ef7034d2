"""circle-lab benchmark: time to verified results.

    python3 perfbench/run.py --workload arith_variational --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all     # the four workloads, untraced then traced
    python3 perfbench/run.py --quick            # self test at tiny sizes

Run from the root of a source checkout (the directory holding `src/` and
`BENCHMARK.json`).  `--workload` takes one of the four workloads in
`workloads.py` (arith, fourier, variational, small-calls), one of the pairs
listed in `manifest.json` (what BENCHMARK.json runs: a pass runs both
members), or `all`.  Every member pass runs in a fresh interpreter
(`child.py`), so the library's caches start cold as they do for each CLI
call or script.  The loop is closed (one client; the next pass starts when
the previous one returned) and runs while the next pass is expected to end
within `--seconds`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; `trace.overhead_s` is the difference
of their median wall times.  Human-readable lines come first; the last line
of stdout is the JSON result.  Spans and the full record go to
`.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MAX_RUN_S = 150.0  # no pass starts that would end after this; a run must end within 180 s
SETUP_SAMPLES = 7

COUNT_KEYS = (
    "arcs.fractions_count", "expsums.phase_evals", "multipliers.symbol_points",
    "multipliers.mm_offsets", "polyavg.conv_points", "seminorms.martingale_cells",
    "seminorms.sequences", "cli.out_bytes",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CIRCLE_LAB_THREADS", None)  # the worker count is pinned by threads=
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run child.py; returns (monotonic time just before the spawn, record)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=max(timeout, 1.0), env=child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def environment(threads: int, seed: int) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": threads, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def pass_metrics(rec: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    out = {**rec["stat_s"], **rec["layers"]}
    for key in COUNT_KEYS:
        out[key] = rec["counts"].get(key, 0)
    scan_s = out.get("expsums.decay_scan_s", 0.0)
    out["expsums.phase_evals_per_s"] = out["expsums.phase_evals"] / scan_s if scan_s else 0.0
    calls = out.get("cli.calls", 0)
    out["cli.ms_per_call"] = 1000.0 * out.get("cli.busy_s", 0.0) / calls if calls else 0.0
    out["process.cpu_s"] = rec["cpu_s"]
    out["checks.ops"] = rec["ops"]
    out["checks.failed"] = len(rec["failures"])
    out["fail_frac"] = len(rec["failures"]) / rec["ops"]
    return out


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    for pct in range(99, 49, -1):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def components(manifest: dict, workload: str) -> list[str]:
    """The workloads one pass of `workload` runs, each in its own interpreter."""
    return manifest["pairs"].get(workload, [workload])


def known_defects(manifest: dict, workload: str) -> set[str]:
    return {f"{c}/{op}" for c in components(manifest, workload) for op in manifest["workloads"][c]["known_defects"]}


def combine(parts: list[tuple[str, dict]]) -> dict:
    """One pass record from the records of its component workloads."""
    out = {
        "wall_s": sum(r["wall_s"] for _, r in parts),
        "rss_mb": max(r["rss_mb"] for _, r in parts),
        "cpu_s": sum(r["cpu_s"] for _, r in parts),
        "ops": sum(r["ops"] for _, r in parts),
        "failures": [[f"{c}/{name}", why] for c, r in parts for name, why in r["failures"]],
        "parts": {c: {"wall_s": r["wall_s"], "rss_mb": r["rss_mb"]} for c, r in parts},
    }
    for key in ("stat_s", "layers", "counts"):
        if key in parts[0][1]:
            out[key] = dict(sum((Counter(r[key]) for _, r in parts), Counter()))
    return out


def run_passes(args, comps: list[str], threads: int, work: Path, quick: bool = False, corrupt: str | None = None):
    """Set-up samples, then passes while the next one is expected to end
    within --seconds (at least 3 untraced, or 2 untraced and 2 traced)."""
    base = ["--seed", str(args.seed), "--threads", str(threads), "--work-dir", str(work)]
    base += ["--quick"] if quick else []
    base += ["--corrupt", corrupt] if corrupt else []
    begin = time.perf_counter()
    spawn(["--workload", comps[0], *base, "--setup-only"], MAX_RUN_S)  # warm the file cache; not counted
    setups = []
    for _ in range(1 if quick else SETUP_SAMPLES):
        t0, rec = spawn(["--workload", comps[0], *base, "--setup-only"], MAX_RUN_S)
        setups.append(rec["ready"] - t0)
    plain, traced = [], []
    min_each = 2 if args.trace else 3
    while True:
        want_trace = args.trace and len(traced) < len(plain)
        parts = []
        for comp in comps:
            extra = []
            if want_trace:
                extra = ["--trace-out", str(work / f"spans-{comp}-seed{args.seed}-{len(traced)}.json")]
            elapsed = time.perf_counter() - begin
            t0, rec = spawn(["--workload", comp, *base, *extra], MAX_RUN_S + 25 - elapsed)
            setups.append(rec["ready"] - t0)
            parts.append((comp, rec))
        (traced if want_trace else plain).append(combine(parts))
        elapsed = time.perf_counter() - begin
        enough = len(plain) >= min_each and (not args.trace or len(traced) >= min_each)
        next_pass = statistics.median(r["wall_s"] for r in plain + traced) + len(comps) * statistics.median(setups)
        if (enough and elapsed + next_pass > args.seconds) or elapsed + next_pass > MAX_RUN_S:
            break
    return setups, plain, traced


def summarize(args, comps, threads, setups, plain, traced, bench, manifest) -> tuple[dict, list[str], int, int]:
    known = known_defects(manifest, args.workload)
    every = plain + traced
    unexpected = sum(1 for r in every for name, _ in r["failures"] if name not in known)
    attempted = sum(r["ops"] for r in every)
    walls = [r["wall_s"] for r in plain]
    lines = []
    if args.trace:
        per = [pass_metrics(r) for r in traced]
        metrics = {}
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "process.threads":
                value = threads
            elif name == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
            elif name == "run.passes":
                value = len(traced)
            elif name.startswith("workload."):
                _, comp, field = name.split(".")
                field = {"wall_s": "wall_s", "peak_rss_mb": "rss_mb"}[field]
                value = statistics.median(r["parts"][comp][field] for r in plain) if comp in comps else 0
            else:
                value = statistics.median(p.get(name, 0) for p in per)
            metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"  wall_s untraced {statistics.median(walls):.4f} s, traced "
                     f"{statistics.median(r['wall_s'] for r in traced):.4f} s (medians)")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
        hp = high_percentile(walls)
        tail = f"p{hp[0]} {hp[1]:.4f} s" if hp else "no percentile has 10 passes beyond it"
        lines.append(f"  wall_s       {values['wall_s']:.4f} s   median of {len(walls)} passes; {tail}")
        if len(comps) > 1:
            lines.append("    of which " + ", ".join(
                f"{c} {statistics.median(r['parts'][c]['wall_s'] for r in plain):.4f} s" for c in comps))
        lines.append(f"  setup_s      {values['setup_s']:.4f} s   median of {len(setups)} interpreter starts")
        lines.append(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    failed_ops = plain[0]["failures"] if plain else []
    ops = plain[0]["ops"] if plain else 0
    lines.append(f"  fail_frac    {len(failed_ops) / max(ops, 1):.6f} ratio   {len(failed_ops)} of {ops} ops per pass")
    for name, why in failed_ops:
        lines.append(f"    {'known defect' if name in known else 'UNEXPECTED'}: {name}: {why}")
    return metrics, lines, attempted, unexpected


def self_test(args, threads, work, bench, manifest) -> int:
    """Quick mode: every workload at tiny sizes; checks that every metric is
    emitted with its unit, that only the listed defects fail, and that a
    falsified library result is counted in checks.failed."""
    failed_any = False
    declared = {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        if not set(components(manifest, w["name"])) <= set(manifest["workloads"]):
            print(f"FAIL BENCHMARK.json workload {w['name']} has no definition")
            failed_any = True
    for name, spec in manifest["workloads"].items():
        problems = []
        args.workload, args.seconds = name, 0
        for trace in (0, 1):
            args.trace = trace
            setups, plain, traced = run_passes(args, [name], threads, work, quick=True)
            metrics, _, attempted, unexpected = summarize(args, [name], threads, setups, plain, traced, bench, manifest)
            for m in bench["per_layer" if trace else "end_to_end"]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name}: metric {m['name']} missing or without unit {m['unit']}")
            if unexpected:
                problems.append(f"{name}: unexpected failures {plain[0]['failures']}")
            for rec in traced:
                stray = set(pass_metrics(rec)) - declared
                if stray:
                    problems.append(f"{name}: undeclared per-layer names {sorted(stray)}")
        base_failed = len(plain[0]["failures"])
        args.trace = 0
        _, bad, _ = run_passes(args, [name], threads, work, quick=True, corrupt=spec["corrupt_probe"])
        names = [f[0] for f in bad[0]["failures"]]
        if len(names) != base_failed + 1 or f"{name}/{spec['corrupt_probe']}" not in names:
            problems.append(f"{name}: falsified {spec['corrupt_probe']} not counted (failures {names})")
        print(f"{'FAIL' if problems else 'ok  '} {name}", flush=True)
        for p in problems:
            print(f"  {p}")
        failed_any = failed_any or bool(problems)
    return 1 if failed_any else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all (untraced and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="self test at tiny sizes")
    args = ap.parse_args()

    if not (ROOT / "src" / "circle_lab" / "__init__.py").is_file():
        fail(f"no circle_lab sources under {ROOT / 'src'}; run from the root of a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload != "all" and args.workload not in {*manifest["workloads"], *manifest["pairs"]}:
        fail(f"unknown workload {args.workload!r}")
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    # build: byte-compile once so no pass pays for compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, capture_output=True)
    threads = len(os.sched_getaffinity(0))

    if args.quick:
        return self_test(args, threads, work, bench, manifest)
    if args.workload != "all":
        print(json.dumps(measure(args, threads, work, bench, manifest)))
        return 0
    # every workload, untraced then traced; metric names get a workload prefix
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in manifest["workloads"]:
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            res = measure(args, threads, work, bench, manifest)
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def measure(args, threads, work, bench, manifest) -> dict:
    """One workload at one trace setting: passes, summary lines, saved record."""
    comps = components(manifest, args.workload)
    setups, plain, traced = run_passes(args, comps, threads, work)
    metrics, lines, attempted, unexpected = summarize(args, comps, threads, setups, plain, traced, bench, manifest)
    env = environment(threads, args.seed)
    print(f"circle-lab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"closed loop, 1 client, fresh interpreter per pass; {len(plain)} untraced + {len(traced)} traced passes")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": unexpected, "metrics": metrics}
    record = {"env": env, "workload": args.workload, "trace": args.trace, "setup_s": setups,
              "passes": plain + traced, "result": result}
    (work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return result

if __name__ == "__main__":
    sys.exit(main())
