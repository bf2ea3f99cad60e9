"""Time contraction-program builds (density._plan) from a cold cache.

    PYTHONPATH=src python tools/plan_build.py

Point PYTHONPATH at another checkout's src to time that checkout.  Three
sets of programs are built: the 104 of perfbench's density_large workload
(13 patterns on 32-80 blocks), the 60 of acceptance criterion 8 (the
complete multipartite graphs of the partitions of 10 into at most 5 parts,
on 2 and 3 blocks) and the 335 that one cold run_all_suites(50, 20240), the
verify workload's round, asks _plan for, in the order it first asks.  Each
set is built 30 times, each time after clearing every plan-level cache (the
programs, the per-pattern replays they are filled in from and the step
caches those share; a cache an older checkout lacks is skipped).  Printed as
JSON: per set, the best and the median time in milliseconds (a median far
above the best marks a busy host) and the number of greedy-path replays one
more, untimed, cold build runs: calls of _replay_from, one per pattern
replayed and one per continuation past greedy's give-up point.
"""

import importlib
import json
import statistics
import time

from rhokit import multipartite, parse_graph_spec, run_all_suites

# the module, not rhokit.density the function
density_module = importlib.import_module("rhokit.density")

DENSITY_LARGE = [
    (parse_graph_spec(spec), k)
    for spec in (
        "P3", "P8", "C4", "C5", "C8", "K3", "K4", "S4", "paw",
        "K[2,2]", "K[2,3]", "Gtail[2,1]", "Khub[1,1,1]",
    )
    for k in (32, 36, 40, 48, 56, 64, 72, 80)
]  # fmt: skip


def partitions(total, max_parts, cap=None):
    if total == 0:
        yield ()
    elif max_parts > 0:
        for first in range(min(cap or total, total), 0, -1):
            for rest in partitions(total - first, max_parts - 1, first):
                yield (first, *rest)


# every plan-level cache
PLAN_CACHES = [
    getattr(density_module, name)
    for name in ("_plan", "_replay", "_pair_fields", "_lengths")
    if hasattr(density_module, name)
]

CRITERION_8 = [(multipartite(p), k) for p in partitions(10, 5) for k in (2, 3)]


def verify_programs():
    """The (pattern, block count) keys one cold run_all_suites(50, 20240)
    asks _plan for, in first-asked order."""
    plan, keys = density_module._plan, {}

    def recorded(g, k):
        keys.setdefault((g, k), None)
        return plan(g, k)

    for cache in PLAN_CACHES:
        cache.cache_clear()
    density_module._plan = recorded
    try:
        run_all_suites(50, 20240)
    finally:
        density_module._plan = plan
    return list(keys)


def build(programs):
    """Seconds to build programs from a cold cache."""
    for cache in PLAN_CACHES:
        cache.cache_clear()
    start = time.perf_counter()
    for g, k in programs:
        density_module._plan(g, k)
    return time.perf_counter() - start


def cold_replays(programs):
    """Greedy-path replays one cold build of programs runs."""
    replay_from = density_module._replay_from
    calls = []

    def counted(*args):
        calls.append(args)
        return replay_from(*args)

    density_module._replay_from = counted
    try:
        build(programs)
    finally:
        density_module._replay_from = replay_from
    return len(calls)


def build_ms(programs, repeats=30):
    """(best and median build time in ms, cold replay count) of programs."""
    times = [build(programs) * 1000 for _ in range(repeats)]
    return min(times), statistics.median(times), cold_replays(programs)


if __name__ == "__main__":
    verify = verify_programs()
    assert len(DENSITY_LARGE) == 104 and len(CRITERION_8) == 60 and len(verify) == 335
    report = {}
    sets = (("density_large", DENSITY_LARGE), ("criterion_8", CRITERION_8), ("verify", verify))
    for name, programs in sets:
        best, median, replays = build_ms(programs)
        report[f"{name}_ms"], report[f"{name}_median_ms"] = best, median
        report[f"{name}_replays"] = replays
    print(json.dumps(report))
