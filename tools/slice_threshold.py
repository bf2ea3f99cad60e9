"""Time give-up joins unsliced and sliced, to place density._SLICE_AT.

    PYTHONPATH=src python tools/slice_threshold.py

Point PYTHONPATH at another checkout's src to time that checkout.  When
greedy finds no pair to join, the program joins every operand left in one
np.einsum; from _SLICE_AT index combinations on, _plan slices a vertex
instead.  The cases are K4, K[2,2,2], K[3,4] and K[4,4] on 2-24 blocks
wherever their program ends in such a join of fewer than 2**20
combinations (from there on every threshold tried slices it).  One
density call on a random graphon is timed per case under several values
of _SLICE_AT, each after clearing the plan caches (_plan and _replay); a
time is the best of 3 means over enough calls to take about 20 ms, after
one warm-up call.  One JSON object is printed, times in milliseconds:

- cases: per case, its give-up join's index combinations, unsliced_ms
  (_SLICE_AT = 2**20, above every join here) and sliced_ms (_SLICE_AT at
  the join, which slices that join only: each part's join is smaller).
- totals_ms: per candidate _SLICE_AT from 2**12 to 2**20, the sum over the
  cases of the time with _SLICE_AT at that value, where a part's join may
  be sliced too.
- slice_at: the checkout's _SLICE_AT.
"""

import contextlib
import importlib
import json
import time

import numpy as np

from rhokit import WeightedGraph, parse_graph_spec

# the module, not rhokit.density the function
density_module = importlib.import_module("rhokit.density")

PATTERNS = ("K4", "K[2,2,2]", "K[3,4]", "K[4,4]")
CANDIDATES = range(12, 21)  # exponents of 2


def random_graphon(k, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    a = rng.random((k, k))
    return WeightedGraph(masses / masses.sum(), (a + a.T) / 2)


def give_up_join(g, k):
    """Index combinations of the give-up join ending g's program, or None."""
    join = density_module._replay(g, k).join
    return None if join is None else k**join


@contextlib.contextmanager
def slicing_at(value):
    """Plan with _SLICE_AT = value; plans made under it are dropped."""
    saved = density_module._SLICE_AT
    density_module._SLICE_AT = value
    density_module._plan.cache_clear()
    density_module._replay.cache_clear()
    try:
        yield
    finally:
        density_module._SLICE_AT = saved
        density_module._plan.cache_clear()
        density_module._replay.cache_clear()


def density_ms(g, w, slice_at, repeats=3, target_s=0.02):
    """Best mean time of density(g, w) when _SLICE_AT is slice_at."""
    with slicing_at(slice_at):
        start = time.perf_counter()
        density_module.density(g, w)  # builds the program
        number = max(1, round(target_s / (time.perf_counter() - start)))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(number):
                density_module.density(g, w)
            best = min(best, (time.perf_counter() - start) / number)
    return best * 1000


def program(g, k, slice_at):
    with slicing_at(slice_at):
        return density_module._plan(g, k)


if __name__ == "__main__":
    cases, totals = [], dict.fromkeys(CANDIDATES, 0.0)
    for spec in PATTERNS:
        g = parse_graph_spec(spec)
        for k in range(2, 25):
            join = give_up_join(g, k)
            if join is None or join >= 2**20:
                continue
            w = random_graphon(k, seed=k)
            timed = {}  # ms per distinct program: thresholds between two joins build one
            for e in CANDIDATES:
                plan = program(g, k, 2**e)
                if plan not in timed:
                    timed[plan] = density_ms(g, w, 2**e)
                totals[e] += timed[plan]
            cases.append({
                "pattern": spec,
                "blocks": k,
                "combinations": join,
                "unsliced_ms": timed[plan],  # at 2**20, above every join here
                "sliced_ms": density_ms(g, w, join),
            })  # fmt: skip
    print(json.dumps({
        "cases": cases,
        "totals_ms": {f"2**{e}": ms for e, ms in totals.items()},
        "slice_at": density_module._SLICE_AT,
    }))  # fmt: skip
