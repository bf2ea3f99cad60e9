"""Time rhokit layer by layer: program builds, gradients, sliced programs,
catalog dispatch and the inequality verifier.

    PYTHONPATH=src python tools/layers.py [section ...] [--rounds N]

Point PYTHONPATH at another checkout's src to time that checkout.  The
sections are plan, gradient, slice, catalog and verify (all five when none
is named); each one's function below says what it runs and what its keys
mean.  Each section runs in a child forked after import, so it starts with
the caches as import leaves them and no section warms another's.  One JSON
object is printed, keyed by section.  --rounds sets the verify section's
rounds.
"""

import argparse
import collections
import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
import traceback

import numpy as np

from rhokit import SearchConfig, WeightedGraph, density_gradient, multipartite
from rhokit import parse_graph_spec, run_all_suites, search_lower_bound

# the modules, not the functions rhokit.density and rhokit.catalog
catalog_module = importlib.import_module("rhokit.catalog")
density_module = importlib.import_module("rhokit.density")
graphs_module = importlib.import_module("rhokit.graphs")
verify_module = importlib.import_module("rhokit.verify")

VERIFY_ROUND = (50, 20240)  # run_all_suites(trials, seed): the verify workload's round


# ---------------------------------------------------------------------------
# shared pieces


def random_graphon(k, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    a = rng.random((k, k))
    return WeightedGraph(masses / masses.sum(), (a + a.T) / 2)


def best_mean_ms(call, target_s):
    """Best of 3 mean times of call() in ms, each mean over enough calls to
    take about target_s, after one warm-up call."""
    start = time.perf_counter()
    call()
    number = max(1, round(target_s / (time.perf_counter() - start)))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1000


def cold_ms(run, caches, repeats):
    """Best and median time of run() in ms, each run after clearing caches."""
    times = []
    for _ in range(repeats):
        clear(caches)
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1000)
    return min(times), statistics.median(times)


def in_child(body):
    """body() run in a child forked from this process; returns its JSON result."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "w") as fh:
                json.dump(body(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    if os.waitpid(pid, 0)[1]:
        raise RuntimeError(f"a child forked to run {body} failed")
    return json.loads(text)


def holders():
    """Every loaded rhokit module and every class one defines."""
    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "rhokit"]
    classes = [
        c for m in modules for c in vars(m).values()
        if isinstance(c, type) and c.__module__ == m.__name__
    ]  # fmt: skip
    return modules + classes


@contextlib.contextmanager
def patched(*swaps):
    """For each (fn, wrapper), wrapper in place of fn under every name that
    holds fn in a holder; fn back on exit."""
    places = [(holder, name, value) for holder in holders() for name, value in vars(holder).items()]
    spots = [(h, name, fn, wrapper) for fn, wrapper in swaps for h, name, v in places if v is fn]
    for holder, name, _, wrapper in spots:
        setattr(holder, name, wrapper)
    try:
        yield
    finally:
        for holder, name, fn, _ in reversed(spots):
            setattr(holder, name, fn)


def counting(counts, key, fn):
    """fn, adding each call to counts[key]."""

    def call(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return call


def caches():
    """Every functools cache a rhokit module defines, each once."""
    found = (value for holder in holders() for value in vars(holder).values())
    return list(dict.fromkeys(
        fn for fn in found
        if hasattr(fn, "cache_clear") and fn.__module__.partition(".")[0] == "rhokit"
    ))  # fmt: skip


def clear(caches):
    for cache in caches:
        cache.cache_clear()


# ---------------------------------------------------------------------------
# plan: contraction-program builds (density._plan) from a cold cache

DENSITY_LARGE_SPECS = (
    "P3", "P8", "C4", "C5", "C8", "K3", "K4", "S4", "paw", "K[2,2]", "K[2,3]", "Gtail[2,1]",
    "Khub[1,1,1]",
)  # fmt: skip
DENSITY_LARGE_BLOCKS = (32, 36, 40, 48, 56, 64, 72, 80)


def partitions(total, max_parts, cap=None):
    if total == 0:
        yield ()
    elif max_parts > 0:
        for first in range(min(cap or total, total), 0, -1):
            for rest in partitions(total - first, max_parts - 1, first):
                yield (first, *rest)


def build(programs):
    for g, k in programs:
        density_module._plan(g, k)


def verify_programs(plan_caches):
    """The (pattern, block count) keys one cold verify round asks _plan
    for, in first-asked order."""
    plan, keys = density_module._plan, {}

    def recorded(g, k):
        keys.setdefault((g, k), None)
        return plan(g, k)

    clear(plan_caches)
    with patched((plan, recorded)):
        run_all_suites(*VERIFY_ROUND)
    return list(keys)


def plan_section():
    """Three sets of programs are built: the 104 of perfbench's density_large
    workload (13 patterns on 32-80 blocks), the 60 of acceptance criterion 8
    (the complete multipartite graphs of the partitions of 10 into at most 5
    parts, on 2 and 3 blocks) and the 335 that one cold verify round asks
    _plan for, in the order it first asks.  Each set is built 30 times, each
    time after clearing every cache density.py defines (the programs, the
    per-pattern replays they are filled in from and the step caches those
    share among them).  Per set: the best and the median time in ms (a median
    far above the best marks a busy host), and the greedy-path replays one
    more, untimed, cold build runs: calls of _replay_from, one per pattern
    replayed and one per continuation past greedy's give-up point."""
    plan_caches = [fn for fn in caches() if fn.__module__ == density_module.__name__]
    density_large = [
        (parse_graph_spec(spec), k) for spec in DENSITY_LARGE_SPECS for k in DENSITY_LARGE_BLOCKS
    ]
    criterion_8 = [(multipartite(p), k) for p in partitions(10, 5) for k in (2, 3)]
    verify = verify_programs(plan_caches)
    assert len(density_large) == 104 and len(criterion_8) == 60 and len(verify) == 335
    report, replays = {}, collections.Counter()
    replay_from = density_module._replay_from
    sets = (("density_large", density_large), ("criterion_8", criterion_8), ("verify", verify))
    for name, programs in sets:
        timed = functools.partial(build, programs)
        report[f"{name}_ms"], report[f"{name}_median_ms"] = cold_ms(timed, plan_caches, 30)
        clear(plan_caches)
        with patched((replay_from, counting(replays, name, replay_from))):
            build(programs)
        report[f"{name}_replays"] = replays[name]
    return report


# ---------------------------------------------------------------------------
# gradient: search gradients (search.density_gradient) and whole searches

GRADIENT_CASES = [
    (spec, k) for spec in ("C3", "C4", "P5", "K4", "paw") for k in (2, 3, 8, 16)
] + [("K4", 33)]
SEARCH_PAIRS = [("C3", "C4"), ("P5", "P3"), ("K3", "K2"), ("P3", "P2"), ("C5", "C3")]


def search_run(cfg):
    """(CPU seconds, _evaluate runs, graphons evaluated) of the searches."""
    evaluate = density_module._evaluate
    runs = graphons = 0

    def counted(plan, factors, weights, *args):
        nonlocal runs, graphons
        runs += 1
        graphons += weights[..., 0, 0].size  # the batch size, 1 for one graphon
        return evaluate(plan, factors, weights, *args)

    with patched((evaluate, counted)):  # only density._contract runs a program
        start = time.process_time()
        for g, h in SEARCH_PAIRS:
            search_lower_bound(g, h, cfg)
        return time.process_time() - start, runs, graphons


def gradient_section():
    """- gradient_ms: the best of 3 wall-clock times of one density_gradient
      call in ms, for C3, C4, P5, K4 and paw on random graphons of 2, 3, 8
      and 16 blocks, and for K4 on 33 blocks, whose program slices a vertex.
      Each time is the mean over enough calls to take about 50 ms, after one
      warm-up call that builds the program.
    - search_cpu_s: the process CPU seconds of search_lower_bound over C3/C4,
      P5/P3, K3/K2, P3/P2 and C5/C3, once with the default SearchConfig
      ("default") and once with block_counts=(8,) ("blocks_8").
    - evaluate_runs: the contraction program runs (density._evaluate) over
      those same searches.  A run may cover a stack of graphons: the ascent
      runs each pattern once per iteration over every ascent still going, the
      gradients reading the run's tape, and its line search once over each
      batch of candidate steps.
    - graphons_evaluated: the sum of those runs' batch sizes, the graphons
      whose densities they computed.
    The counts cost one Python call per run inside the timed searches."""
    k4_33 = density_module._plan(parse_graph_spec("K4"), 33)
    assert isinstance(k4_33.steps[0], density_module._Sliced)
    gradients = {
        f"{spec}@{k}": best_mean_ms(
            functools.partial(density_gradient, parse_graph_spec(spec), random_graphon(k, seed=k)),
            target_s=0.05,
        )
        for spec, k in GRADIENT_CASES
    }
    searches = {
        "default": search_run(SearchConfig()),
        "blocks_8": search_run(SearchConfig(block_counts=(8,))),
    }
    report = {"gradient_ms": gradients}
    for i, key in enumerate(("search_cpu_s", "evaluate_runs", "graphons_evaluated")):
        report[key] = {name: run[i] for name, run in searches.items()}
    return report


# ---------------------------------------------------------------------------
# slice: the programs _plan chooses among where greedy gives up

SLICE_PATTERNS = ("K4", "K[2,2,2]", "K[3,4]", "K[4,4]")
SLICED = [(spec, k) for spec in ("K4", "K5") for k in (*DENSITY_LARGE_BLOCKS, 128)]


def slice_programs(g, k):
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


def run_ms(plan, g, w):
    """Best mean time of one run of plan on w."""
    run = functools.partial(density_module._evaluate, plan, [w.masses] * g.vertex_count, w.weights)
    return best_mean_ms(run, target_s=0.02)


def slice_section():
    """When greedy finds no pair under its size limit, its path ends in one
    step joining every operand left.  From _SLICE_AT index combinations on,
    _plan goes on past that point from the operands the join takes, by greedy
    without the size limit, and slices a vertex where that path's largest
    intermediate or give-up join reaches _SLICE_AT entries too.  The cases
    are K4, K[2,2,2], K[3,4] and K[4,4] on 2-24 blocks wherever greedy's path
    ends in such a join of fewer than 2**20 combinations.  Per case three
    programs are timed on one random graphon: the naive join (greedy's own
    path), the unlimited path and the sliced program (its parts planned by
    _plan).  A time is the best of 3 means over enough runs of the program
    (density._evaluate) to take about 20 ms, after one warm-up run.  Times
    are in ms:

    - cases: per case, its give-up join's index combinations, naive_ms,
      unlimited_ms and sliced_ms, the unlimited path's size (its largest
      intermediate or give-up join) and which of the three _plan picked.
    - totals_ms: per program, the sum over the cases, and for "picked" the
      sum of the programs _plan picked.
    - sliced: K4 and K5 on the block counts of perfbench's density_large
      workload (32-80) and on 128, where _plan slices: per case sliced_ms and
      blocks_per_chunk, how many of the sliced vertex's blocks one run of the
      rest of the pattern takes on one graphon; and their total sliced_ms.
    - slice_at: the checkout's _SLICE_AT."""
    cases, totals = [], dict.fromkeys(("naive", "unlimited", "sliced", "picked"), 0.0)
    for spec in SLICE_PATTERNS:
        g = parse_graph_spec(spec)
        for k in range(2, 25):
            join = density_module._replay(g, min(k, 2)).join
            if join is None or k**join >= 2**20:
                continue
            w = random_graphon(k, seed=k)
            plans = slice_programs(g, k)
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
    return {
        "cases": cases,
        "totals_ms": totals,
        "sliced": {"cases": sliced, "total_ms": sum(case["sliced_ms"] for case in sliced)},
        "slice_at": density_module._SLICE_AT,
    }


# ---------------------------------------------------------------------------
# catalog: catalog dispatch (catalog.rho_exact) from a cold cache

GRID_10 = ("K2", "P3", "P5", "C3", "C4", "K4", "paw", "K[2,3]", "Khub[1,1,1]", "3xK2")
GRID_26 = (
    "K2", "P2", "P3", "P4", "P5", "C3", "C4", "C5", "C6", "K4", "paw", "K[2,3]", "K[2,2]",
    "K[3,3]", "K[2,1]", "Khub[1,1,1]", "3xK2", "S3", "S4", "Gtail[1,2]", "Gtail[2,1]",
    "K[2,2,1]", "K[3,1,1]", "2xK3", "C8", "P8",
)  # fmt: skip

# count name: (owner, cache) whose misses stand for the runs of a body
MISSES = {
    "_rho_stage": (catalog_module, "_rho_stage"),
    "parse_graph_spec": (graphs_module, "_parse_spec"),
    "breadth_first": (graphs_module.Graph, "breadth_first"),
}
# (module, name): functions counted wherever a rhokit module holds them
CALLS = [
    (graphs_module, "as_multipartite"),
    (catalog_module, "general_lower_bounds"),
    (catalog_module, "blowup_upper_bound"),
    (catalog_module, "_isomorphic"),
    (catalog_module, "_least_blowup"),
    (density_module, "independence_number"),
    (density_module, "delta_index"),
    (density_module, "hom_count"),
]


def grid_pass(specs):
    for g in specs:
        for h in specs:
            catalog_module.rho_exact(g, h)


def call_counts(specs):
    """The misses of the caches in MISSES, and the calls of each of CALLS,
    in one cold pass."""
    fns = {name: getattr(module, name) for module, name in CALLS}
    counts = dict.fromkeys(fns, 0)
    clear(caches())  # before the swaps hide some of them
    with patched(*((fn, counting(counts, name, fn)) for name, fn in fns.items())):
        grid_pass(specs)
    misses = {name: getattr(*cache).cache_info().misses for name, cache in MISSES.items()}
    return misses | counts


def brackets(specs):
    """Status counts, open pairs, width and open pairs with no finite upper
    end over the grid's results."""
    results = [catalog_module.rho_exact(g, h) for g in specs for h in specs]
    report = dict.fromkeys(catalog_module.STATUSES, 0)
    report.update(collections.Counter(res.status for res in results))
    open_pairs = [res for res in results if res.status in catalog_module._OPEN]
    bounded = [res for res in open_pairs if res.upper is not None]
    report["open"] = len(open_pairs)
    report["width"] = round(sum(math.log2(res.upper / res.lower) for res in bounded), 2)
    report["open_no_upper"] = len(open_pairs) - len(bounded)
    return report


def catalog_section():
    """Two grids of (G, H) pairs are run: the 100 pairs of perfbench's
    catalog workload (10 specs) and the 676 pairs of the 26 specs of
    tests/data/rho_grid_26.json.  Per grid:

    - grid_N_ms: the best of 5 passes in ms, each after clearing every
      functools cache of rhokit's modules and Graph (caches()): each pair's
      own lookup, the parsed specs, the plan-level caches, each graph's
      cached facts, verify's samples and memo.
    - grid_N_calls: the calls one more cold pass makes to each of CALLS, and
      for the names in MISSES the cache's misses, that is the runs of its
      body: _rho_stage, parse_graph_spec through _parse_spec, and
      Graph.breadth_first, whose misses are the graph traversals.
    - grid_N_brackets: the count of each status, the open pairs (interval or
      unknown), the width (the sum of log2(upper/lower) over open pairs with
      a finite upper end) and the open pairs with no finite upper end.  A
      catalog change that closes or narrows brackets lowers the width."""
    report = {}
    for name, specs in (("grid_10", GRID_10), ("grid_26", GRID_26)):
        report[f"{name}_ms"] = cold_ms(functools.partial(grid_pass, specs), caches(), 5)[0]
        report[f"{name}_calls"] = call_counts(specs)
        report[f"{name}_brackets"] = brackets(specs)
    return report


# ---------------------------------------------------------------------------
# verify: one cold verify round layer by layer, and its repeated work

FAMILIES = ("path", "cycle", "complete", "star", "multipartite", "hub", "cycle_tail", "paw")


def plain_round():
    start = time.perf_counter()
    run_all_suites(*VERIFY_ROUND)
    return (time.perf_counter() - start) * 1000


def instrumented_round():
    seconds, counts, pairs = collections.Counter(), collections.Counter(), set()

    def timed(layer, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - start

        return call

    log_t, memo = verify_module._log_t, verify_module._log_densities

    def read(g, w):  # every log density a suite reads goes through _log_t
        counts["log_density_requests"] += 1
        pairs.add((g, id(w)))
        return log_t(g, w)

    plan, contract = density_module._plan, density_module._contract
    graph_init, stream_init = graphs_module.Graph.__init__, verify_module._Stream.__init__
    sample, star = verify_module.sample_weighted_graph, verify_module.generalized_star_density
    hom_count, log_density = catalog_module.hom_count, verify_module.log_density
    swaps = [
        (plan, timed("plan_build", plan)),
        (contract, timed("contract", counting(counts, "contractions", contract))),
        (graph_init, timed("graph_build", graph_init)),
        (stream_init, timed("stream", stream_init)),
        (sample, timed("sample", sample)),
        (star, timed("star", star)),
        (hom_count, counting(counts, "hom_counts", hom_count)),
        (log_density, counting(counts, "log_density_calls", log_density)),
        (log_t, read),
    ]
    families = {}
    for name in FAMILIES:
        fn = getattr(graphs_module, name)
        cache = fn if hasattr(fn, "cache_info") else getattr(graphs_module, f"_{name}")
        families[name] = (cache, cache.cache_info().misses, set())

        def family(*args, _name=name, _fn=fn, _arguments=families[name][2]):
            counts[_name] += 1
            _arguments.add(tuple(tuple(a) if isinstance(a, (list, tuple)) else a for a in args))
            return _fn(*args)

        swaps.append((fn, family))

    plan_misses, memo_hits = plan.cache_info().misses, memo.cache_info().hits
    with patched(*swaps):
        start = time.perf_counter()
        run_all_suites(*VERIFY_ROUND)
        seconds["round"] = time.perf_counter() - start
    built = [cache.cache_info().misses - before for cache, before, _ in families.values()]
    return {
        "layers_ms": {layer: s * 1000 for layer, s in seconds.items()},
        "plan_builds": plan.cache_info().misses - plan_misses,
        "contractions": counts["contractions"],
        "hom_counts": counts["hom_counts"],
        "log_density_requests": counts["log_density_requests"],
        "distinct_pairs": len(pairs),
        "memo_hits": memo.cache_info().hits - memo_hits,
        "log_density_calls": counts["log_density_calls"],
        "family_calls": sum(counts[name] for name in FAMILIES),
        "family_arguments": sum(len(arguments) for _, _, arguments in families.values()),
        "family_builds": sum(built),
        "family_built_at_import": sum(before for _, before, _ in families.values()),
    }


def verify_section(rounds):
    """The round is run_all_suites(50, 20240), the verify workload's round.
    As in the benchmark, each round is a child forked after import, so it
    starts with every cache cold.  rounds plain rounds give round_ms, the
    best wall time in ms.  rounds instrumented rounds give layers_ms, each
    layer's best summed time in ms; a layer's time includes the layers it
    calls:

    - plan_build: density._plan calls (its cache's misses build programs);
    - contract: density._contract calls, plan builds included;
    - graph_build: Graph constructions, family graphs included;
    - stream: verify._Stream seeding (_Stream.__init__);
    - sample: verify.sample_weighted_graph, its seeding included;
    - star: density.generalized_star_density;
    - round: the whole round.

    The counts are those of one instrumented round:

    - plan_builds: _plan's misses;
    - contractions: _contract calls, of which hom_counts are catalog_upper's
      cold rho_exact calls and the rest are log densities on trial graphons;
    - log_density_requests: the log densities the suites read (verify._log_t
      calls), with distinct_pairs the distinct (pattern, graphon) pairs among
      them, memo_hits those verify's memo answered and log_density_calls the
      runs of density.log_density;
    - family_calls: calls of the family constructors (path, cycle, complete,
      star, multipartite, hub, cycle_tail, paw) from rhokit's modules, with
      family_arguments the distinct argument sets among them (lists read as
      tuples) and family_builds the graphs they built, the misses of each
      family's cache.  The specs rhokit parses at import build some family
      graphs before the round: family_built_at_import counts those builds."""
    plain = [in_child(plain_round) for _ in range(rounds)]
    traced = [in_child(instrumented_round) for _ in range(rounds)]
    report = {"rounds": rounds, "round_ms": min(plain)}
    report["layers_ms"] = {
        layer: min(r["layers_ms"][layer] for r in traced) for layer in traced[0]["layers_ms"]
    }
    report.update({key: value for key, value in traced[0].items() if key != "layers_ms"})
    return report


SECTIONS = {
    "plan": plan_section,
    "gradient": gradient_section,
    "slice": slice_section,
    "catalog": catalog_section,
    "verify": verify_section,
}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("sections", nargs="*", metavar="section", help=", ".join(SECTIONS))
    parser.add_argument("--rounds", type=int, default=10, help="verify rounds (default 10)")
    args = parser.parse_args()
    unknown = set(args.sections) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown sections: {', '.join(sorted(unknown))}")
    sections = dict(SECTIONS, verify=functools.partial(verify_section, args.rounds))
    names = dict.fromkeys(args.sections or SECTIONS)
    print(json.dumps({name: in_child(sections[name]) for name in names}))
