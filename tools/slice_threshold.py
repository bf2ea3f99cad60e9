"""Time the three programs _plan chooses among where greedy gives up, and
the sliced programs of K4 and K5 on many blocks.

    PYTHONPATH=src python tools/slice_threshold.py

Point PYTHONPATH at another checkout's src to time that checkout (it needs
_replay's leftover operands, _replay_from, density._slice and
_blocks_per_chunk).  When greedy finds no pair under its size limit, its
path ends in one step joining every operand left.  From _SLICE_AT index
combinations on, _plan goes on past that point from the operands the join
takes, by greedy without the size limit, and slices a vertex where that
path's largest intermediate or give-up join reaches _SLICE_AT entries too.
The cases are K4, K[2,2,2], K[3,4] and K[4,4] on 2-24 blocks wherever
greedy's path ends in such a join of fewer than 2**20 combinations.  Per
case three programs are timed on one random graphon: the naive join
(greedy's own path), the unlimited path and the sliced program (its parts
planned by _plan).  A time is the best of 3 means over enough runs of the
program (density._evaluate) to take about 20 ms, after one warm-up run.
One JSON object is printed, times in milliseconds:

- cases: per case, its give-up join's index combinations, naive_ms,
  unlimited_ms and sliced_ms, the unlimited path's size (its largest
  intermediate or give-up join) and which of the three _plan picked.
- totals_ms: per program, the sum over the cases, and for "picked" the
  sum of the programs _plan picked.
- sliced: K4 and K5 on the block counts of perfbench's density_large
  workload (32-80) and on 128, where _plan slices: per case sliced_ms and
  blocks_per_chunk, how many of the sliced vertex's blocks one run of the
  rest of the pattern takes on one graphon; and their total sliced_ms.
- slice_at: the checkout's _SLICE_AT.
"""

import importlib
import json
import math
import time

import numpy as np

from rhokit import WeightedGraph, parse_graph_spec

# the module, not rhokit.density the function
density_module = importlib.import_module("rhokit.density")

PATTERNS = ("K4", "K[2,2,2]", "K[3,4]", "K[4,4]")
PROGRAMS = ("naive", "unlimited", "sliced")
SLICED = [(spec, k) for spec in ("K4", "K5") for k in (32, 36, 40, 48, 56, 64, 72, 80, 128)]


def random_graphon(k, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    a = rng.random((k, k))
    return WeightedGraph(masses / masses.sum(), (a + a.T) / 2)


def programs(g, k):
    """g's programs on k blocks: greedy's own, the unlimited path, sliced."""
    naive = density_module._replay(g, min(k, 2))
    # the unlimited path: greedy's own up to the give-up join, then greedy at
    # k with no size limit on the operands that join takes
    unlimited = density_module._replay_from(
        naive.leftover, k, math.inf, naive.steps[:-1], naive.intermediate
    )
    return {
        "naive": density_module._program_of(naive, g, k),
        "unlimited": density_module._program_of(unlimited, g, k),
        "sliced": density_module._slice(g, k),
    }


def run_ms(plan, g, w, repeats=3, target_s=0.02):
    """Best mean time of one run of plan on w."""
    factors = [w.masses] * g.vertex_count
    start = time.perf_counter()
    density_module._evaluate(plan, factors, w.weights)
    number = max(1, round(target_s / (time.perf_counter() - start)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            density_module._evaluate(plan, factors, w.weights)
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1000


if __name__ == "__main__":
    cases, totals = [], dict.fromkeys((*PROGRAMS, "picked"), 0.0)
    for spec in PATTERNS:
        g = parse_graph_spec(spec)
        for k in range(2, 25):
            join = density_module._replay(g, min(k, 2)).join
            if join is None or k**join >= 2**20:
                continue
            w = random_graphon(k, seed=k)
            plans = programs(g, k)
            picked = density_module._plan(g, k)
            name = next(name for name, plan in plans.items() if plan == picked)
            case = {"pattern": spec, "blocks": k, "combinations": k**join}
            for program, plan in plans.items():
                case[f"{program}_ms"] = run_ms(plan, g, w)
                totals[program] += case[f"{program}_ms"]
            totals["picked"] += case[f"{name}_ms"]
            case["unlimited_size"] = plans["unlimited"].size
            case["picked"] = name
            cases.append(case)
    sliced = []
    for spec, k in SLICED:
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        plan = density_module._plan(g, k)
        case = {"pattern": spec, "blocks": k, "sliced_ms": run_ms(plan, g, w)}
        case["blocks_per_chunk"] = density_module._blocks_per_chunk(plan.steps[0], 1)
        sliced.append(case)
    print(json.dumps({
        "cases": cases,
        "totals_ms": totals,
        "sliced": {"cases": sliced, "total_ms": sum(case["sliced_ms"] for case in sliced)},
        "slice_at": density_module._SLICE_AT,
    }))  # fmt: skip
