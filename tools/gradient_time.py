"""Time search gradients (search.density_gradient) and whole searches.

    PYTHONPATH=src python tools/gradient_time.py

Point PYTHONPATH at another checkout's src to time that checkout.  Two sets
of timings are printed as one JSON object:

- gradient_ms: the best of 3 wall-clock times of one density_gradient
  call, in milliseconds, for C3, C4, P5, K4 and paw on random graphons of
  2, 3, 8 and 16 blocks, and for K4 on 33 blocks, whose program slices a
  vertex.  Each time is the mean over enough calls to take about 50 ms,
  after one warm-up call that builds the program.
- search_cpu_s: the process CPU seconds of search_lower_bound over C3/C4,
  P5/P3, K3/K2, P3/P2 and C5/C3, once with the default SearchConfig and
  once with block_counts=(8,).
- evaluate_runs: the number of contraction program runs (density._evaluate)
  over those same five searches.  A run may cover a stack of graphons: the
  ascent runs each pattern once per iteration over every ascent still going,
  the gradients reading the run's tape, and its line search once over each
  batch of candidate steps.
- graphons_evaluated: the sum of those runs' batch sizes, the graphons
  whose densities they computed.
The counts cost one Python call per run inside the timed searches.
"""

import importlib
import json
import time

import numpy as np

from rhokit import SearchConfig, WeightedGraph, density_gradient, parse_graph_spec
from rhokit import search_lower_bound
from rhokit.density import _plan, _Sliced

# the module, not rhokit.density the function
density_module = importlib.import_module("rhokit.density")

GRADIENT_CASES = [
    (spec, k) for spec in ("C3", "C4", "P5", "K4", "paw") for k in (2, 3, 8, 16)
] + [("K4", 33)]
SEARCH_PAIRS = [("C3", "C4"), ("P5", "P3"), ("K3", "K2"), ("P3", "P2"), ("C5", "C3")]
SEARCH_CONFIGS = {"default": SearchConfig(), "blocks_8": SearchConfig(block_counts=(8,))}


def random_graphon(k, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    a = rng.random((k, k))
    return WeightedGraph(masses / masses.sum(), (a + a.T) / 2)


def gradient_ms(g, w, repeats=3, target_s=0.05):
    start = time.perf_counter()
    density_gradient(g, w)  # builds the program
    number = max(1, round(target_s / (time.perf_counter() - start)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            density_gradient(g, w)
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1000


def search_run(cfg):
    """(CPU seconds, _evaluate runs, graphons evaluated) of the five searches."""
    evaluate = density_module._evaluate
    runs = graphons = 0

    def counted(plan, factors, weights, *args):
        nonlocal runs, graphons
        runs += 1
        graphons += weights[..., 0, 0].size  # the batch size, 1 for one graphon
        return evaluate(plan, factors, weights, *args)

    density_module._evaluate = counted  # only density._contract runs a program
    try:
        start = time.process_time()
        for g, h in SEARCH_PAIRS:
            search_lower_bound(g, h, cfg)
        return time.process_time() - start, runs, graphons
    finally:
        density_module._evaluate = evaluate


if __name__ == "__main__":
    assert isinstance(_plan(parse_graph_spec("K4"), 33).steps[0], _Sliced)
    gradients = {
        f"{spec}@{k}": gradient_ms(parse_graph_spec(spec), random_graphon(k, seed=k))
        for spec, k in GRADIENT_CASES
    }
    searches = {name: search_run(cfg) for name, cfg in SEARCH_CONFIGS.items()}
    print(json.dumps({
        "gradient_ms": gradients,
        "search_cpu_s": {name: seconds for name, (seconds, _, _) in searches.items()},
        "evaluate_runs": {name: runs for name, (_, runs, _) in searches.items()},
        "graphons_evaluated": {name: count for name, (_, _, count) in searches.items()},
    }))  # fmt: skip
