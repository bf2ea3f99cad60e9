"""Time catalog dispatch (catalog.rho_exact) from a cold cache, and measure
how far its brackets are from closing.

    PYTHONPATH=src python tools/catalog_time.py

Point PYTHONPATH at another checkout's src to time that checkout.  Two grids
of (G, H) pairs are run: the 100 pairs of perfbench's catalog workload (10
specs) and the 676 pairs of the 26 specs of tests/data/rho_grid_26.json.
Each grid is run 5 times, each time after clearing every functools cache
that rhokit's modules and Graph hold: each pair's own lookup
(catalog._rho_stage), the parsed specs
(graphs._parse_spec), the plan-level caches (density._plan and _replay),
and each graph's cached facts (neighbour sets, breadth-first search,
components, recognisers, independence numbers and delta_i).  Printed as
JSON: per grid, the best time in milliseconds and the number of calls one
more cold run makes to each of CALLS.  Where a checkout caches a function,
its count is the cache's misses, that is the runs of its body: _rho_stage
always, parse_graph_spec through _parse_spec, and Graph.breadth_first,
whose misses are the graph traversals.  A name a checkout does not have
reads null.

Per grid it also prints the brackets: the count of each status, the open
pairs (interval or unknown), the width (the sum of log2(upper/lower) over
open pairs with a finite upper end) and the open pairs with no finite upper
end.  A catalog change that closes or narrows brackets lowers the width.
"""

import importlib
import json
import math
import time
from collections import Counter

# the modules, not the functions rhokit.density and rhokit.catalog
catalog_module = importlib.import_module("rhokit.catalog")
density_module = importlib.import_module("rhokit.density")
graphs_module = importlib.import_module("rhokit.graphs")

GRID_10 = ("K2", "P3", "P5", "C3", "C4", "K4", "paw", "K[2,3]", "Khub[1,1,1]", "3xK2")
GRID_26 = (
    "K2", "P2", "P3", "P4", "P5", "C3", "C4", "C5", "C6", "K4", "paw", "K[2,3]", "K[2,2]",
    "K[3,3]", "K[2,1]", "Khub[1,1,1]", "3xK2", "S3", "S4", "Gtail[1,2]", "Gtail[2,1]",
    "K[2,2,1]", "K[3,1,1]", "2xK3", "C8", "P8",
)  # fmt: skip

# (module, name): functions counted wherever a rhokit module holds them
CALLS = [
    (graphs_module, "parse_graph_spec"),
    (graphs_module, "as_multipartite"),
    (catalog_module, "general_lower_bounds"),
    (catalog_module, "blowup_upper_bound"),
    (catalog_module, "_isomorphic"),
    (catalog_module, "_least_blowup"),
    (density_module, "independence_number"),
    (density_module, "delta_index"),
    (density_module, "hom_count"),
]

# count name: (module, cache) whose misses stand for the runs of a body
MISSES = {
    "_rho_stage": (catalog_module, "_rho_stage"),
    "parse_graph_spec": (graphs_module, "_parse_spec"),
    "breadth_first": (graphs_module.Graph, "breadth_first"),
}

# each cache once, though catalog imports some of density's and graphs'
NAMESPACES = [vars(m) for m in (catalog_module, density_module, graphs_module, graphs_module.Graph)]
CACHES = list(
    dict.fromkeys(fn for ns in NAMESPACES for fn in ns.values() if hasattr(fn, "cache_clear"))
)


def cold_pass(specs):
    for cache in CACHES:
        cache.cache_clear()
    for g in specs:
        for h in specs:
            catalog_module.rho_exact(g, h)


def best_ms(specs, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        cold_pass(specs)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def call_counts(specs):
    """Calls of each of CALLS, and the misses of the caches in MISSES, in
    one cold pass."""
    modules = [catalog_module, density_module, graphs_module]
    counts = dict.fromkeys(MISSES)
    originals = []
    for owner, name in CALLS:
        fn = getattr(owner, name, None)
        counts[name] = None if fn is None else 0
        if fn is None:
            continue

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if vars(module).get(name) is fn:
                originals.append((module, name, fn))
                setattr(module, name, counted)
    try:
        cold_pass(specs)
        for name, (owner, cached) in MISSES.items():
            fn = getattr(owner, cached, None)
            if fn is not None:
                counts[name] = fn.cache_info().misses
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    return counts


def brackets(specs):
    """Status counts, open pairs, width and open pairs with no finite upper
    end over the grid's results."""
    results = [catalog_module.rho_exact(g, h) for g in specs for h in specs]
    report = dict.fromkeys(catalog_module.STATUSES, 0)
    report.update(Counter(res.status for res in results))
    open_pairs = [res for res in results if res.status in catalog_module._OPEN]
    bounded = [res for res in open_pairs if res.upper is not None]
    report["open"] = len(open_pairs)
    report["width"] = round(sum(math.log2(res.upper / res.lower) for res in bounded), 2)
    report["open_no_upper"] = len(open_pairs) - len(bounded)
    return report


if __name__ == "__main__":
    assert len(GRID_10) == 10 and len(GRID_26) == 26
    report = {}
    for name, specs in (("grid_10", GRID_10), ("grid_26", GRID_26)):
        report[f"{name}_ms"] = best_ms(specs)
        report[f"{name}_calls"] = call_counts(specs)
        report[f"{name}_brackets"] = brackets(specs)
    print(json.dumps(report))
