"""rhokit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload search --seed 1 --seconds 22 --trace 0

A worker interpreter imports rhokit and generates the inputs, then forks one
round after another until ``--seconds`` have passed; each round runs the
whole input set once, cold after import (see worker.py).  Extra fresh
interpreters that only set up, half of them before the worker and half
after it, give ``setup_s`` its samples.  With
``--trace 0`` the last line of stdout is a JSON object with every end-to-end
metric; with ``--trace 1`` rounds alternate traced and untraced, and it
carries every per-layer metric plus the tracing overhead.  Metric names and
units come from BENCHMARK.json at the repository root.  Full results,
machine notes and the traced spans go to perfbench/out/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 15  # the worker and 14 set-up-only interpreters
WORKER_TIMEOUT_S = 170
# The reference kernel's best time (workloads.reference_kernel) on the machine
# the benchmark was written on, a 2-vCPU Intel Xeon VM, in a fast stretch
REF_NOMINAL_S = 0.0046


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """Single-threaded BLAS, rhokit from src/, enumeration cap at its default,
    and a fixed hash seed so set iteration orders (numpy's greedy path search
    iterates over sets of index letters) repeat between runs."""
    env = {k: v for k, v in os.environ.items() if k != "RHOKIT_ENUM_CAP"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, setup_only=False, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_wall_s"] = report["ready"] - spawned
    return report


def machine_notes():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "loadavg_at_start": list(os.getloadavg()),
        # removed from the rounds' environment: it changes which contractions are rejected
        "RHOKIT_ENUM_CAP_in_caller": os.environ.get("RHOKIT_ENUM_CAP", "unset"),
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_times(rounds):
    """Rounds repeat the same units, so each unit's time is its best over the
    rounds: on a shared machine this filters the core's speed swings, which
    come and go about every second (see README).  A unit timed in laps that
    every round split alike is the sum of its laps' bests."""
    best = []
    for unit, times in enumerate(zip(*(r["unit_s"] for r in rounds))):
        laps = [r["lap_s"][unit] for r in rounds]
        if all(laps) and len({len(lap) for lap in laps}) == 1:
            best.append(sum(min(lap) for lap in zip(*laps)))
        else:
            best.append(min(times))
    return best


def end_to_end(rounds, setups, ref_s):
    """Unit times are scaled to the reference speed: by REF_NOMINAL_S over
    the reference kernel's best time in this run (see README)."""
    raw = best_times(rounds)
    speed = REF_NOMINAL_S / min(ref_s)
    best = [t * speed for t in raw]
    p90 = quantile(best, 90)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }, {
        "unit_samples": len(best),
        "beyond_p90": sum(s > p90 for s in best),
        "lap_timed_units": sum(all(r["lap_s"][u] for r in rounds) for u in range(len(best))),
        "speed": speed,
        "unscaled_ops_per_s": len(raw) / sum(raw),
    }


def per_layer(traced, untraced, declared):
    """Counters from the first traced round (all traced rounds must agree);
    times are medians over traced rounds."""
    first = traced[0]["layer"]
    # counters derived from checked answers exist only in the first round;
    # the output digest covers them in the others
    mismatched = sorted(
        {
            k
            for k in EXACT_COUNTERS
            for r in traced[1:]
            if k in r["layer"] and r["layer"][k] != first.get(k)
        }
    )
    metrics = {}
    for name in declared:
        if name == "trace.overhead_ratio":
            cpu_t = statistics.median(r["cpu_s"] for r in traced)
            cpu_u = statistics.median(r["cpu_s"] for r in untraced)
            metrics[name] = cpu_t / cpu_u - 1.0
        elif name.endswith("_s") or name == "density.plan_share":
            metrics[name] = statistics.median(r["layer"].get(name, 0.0) for r in traced)
        else:
            metrics[name] = first.get(name, 0)
    return metrics, mismatched


def check_repeat(workload, seed, counters):
    """Compare counters with an earlier traced run of the same seed and code."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counters-{workload}-seed{seed}.json"
    digest = source_digest()
    diffs = []
    if path.exists():
        prev = json.loads(path.read_text())
        if prev.get("source_digest") == digest:
            diffs = sorted(k for k, v in counters.items() if prev["counters"].get(k) != v)
    path.write_text(json.dumps({"source_digest": digest, "counters": counters}, indent=1))
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rhokit" / "__init__.py").is_file():
        _fail(f"no rhokit sources under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    notes = machine_notes()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    # set-up samples on both sides of the rounds, so that they span the run
    # rather than one stretch of the machine's speed swings
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setup_runs = [run_worker(args, setup_only=True) for _ in range(extra // 2)]
    worker = run_worker(args, spans=spans_path if args.trace else None)
    setup_runs.append(worker)
    setup_runs += [run_worker(args, setup_only=True) for _ in range(extra - extra // 2)]
    rounds = worker["rounds"]
    timed = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    setups = [r["setup_s"] for r in setup_runs]

    notes.update(blas=worker["blas"], blas_threads=worker["blas_threads"])
    # only the first round checks its answers; the others must match its digest
    attempted = worker["attempted"] * len(rounds)
    failed = rounds[0]["failed"] * len(rounds)
    problems = list(rounds[0]["problems"])
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        problems.append("outputs differ between rounds")
    info = {
        "workload": args.workload,
        "unit": WORKLOADS[args.workload].unit,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "import_cpu_s_median": statistics.median(r["import_s"] for r in setup_runs),
        "setup_wall_s_median": statistics.median(r["setup_wall_s"] for r in setup_runs),
    }
    if args.trace:
        metrics, mismatched = per_layer(traced, timed, declared)
        repeat_diffs = check_repeat(
            args.workload, args.seed, {k: v for k, v in metrics.items() if k in EXACT_COUNTERS}
        )
        if mismatched:
            problems.append(f"counters differ between traced rounds: {mismatched}")
        if repeat_diffs:
            problems.append(f"counters differ from the previous run of this seed: {repeat_diffs}")
        info["spans_first_round"] = traced[0]["spans"]
        info["spans_file"] = spans_path.relative_to(ROOT).as_posix()
        info["missing_entry_points"] = traced[0]["missing_entry_points"]
    else:
        metrics, samples = end_to_end(timed, setups, [s for r in timed for s in r["ref_s"]])
        info.update(samples, setup_samples=len(setups))
        info["fail_ratio"] = failed / attempted
        gap = {r["layer"].get("search.ratio_gap") for r in timed} - {None}
        if gap:
            info["ratio_gap"] = gap.pop() if len(gap) == 1 else sorted(gap)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        _fail(f"metrics not measured: {missing}")

    correct = failed == 0 and not problems
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, {attempted} units ({info['unit']}), correct={correct}")  # fmt: skip
    print("machine: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {declared[name]}")
    for key in ("unit_samples", "beyond_p90", "lap_timed_units", "speed", "unscaled_ops_per_s",
                "setup_samples", "fail_ratio", "ratio_gap"):
        if key in info:
            print(f"  {key:34s} {info[key]!s:>16}")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "machine": notes, "problems": problems}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
