"""Measure a baseline: every workload on seeds 1-10, plus one traced run each.

    python3 perfbench/collect.py --out perfbench/baseline.json

The traced run uses the development seed.  For each end-to-end metric and
workload it records every run's value, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (IQR / median) next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEED = 1
HELDOUT_SEED = 7919
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary = {
        "run_seconds": seconds,
        "dev_seed": DEV_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            res = run(workload, seed, seconds, 0)
            runs.append(res)
            print(workload, seed, res["correct"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)  # fmt: skip
        traced = run(workload, DEV_SEED, seconds, 1)
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs], bounds[name])
                for name in bounds
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload:14s} {name:12s} median={s['median']:.6g} "
                  f"spread={s['spread']:.3f} bound={s['bound']}", flush=True)  # fmt: skip

    last = HERE / "out" / f"result-{workloads[-1]}-seed{DEV_SEED}-trace1.json"
    summary["machine"] = json.loads(last.read_text())["machine"]
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
