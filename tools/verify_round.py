"""Time one cold verify round layer by layer, and count its repeated work.

    PYTHONPATH=src python tools/verify_round.py [--rounds N]

Point PYTHONPATH at another checkout's src to time that checkout.  The round
is run_all_suites(50, 20240), the verify workload's round.  As in the
benchmark, each round is a child forked after import, so it starts with every
cache cold.  N plain rounds (default 10) give round_ms, the best wall time in
milliseconds.  N instrumented rounds give layers_ms, each layer's best summed
time in milliseconds; a layer's time includes the layers it calls:

- plan_build: density._plan calls (its cache's misses build programs);
- contract: density._contract calls, plan builds included;
- graph_build: Graph constructions, family graphs included;
- stream: verify._Stream seeding (_Stream.__init__);
- sample: verify.sample_weighted_graph, its seeding included;
- star: density.generalized_star_density.

The counts are those of one instrumented round:

- plan_builds: _plan's misses;
- contractions: _contract calls, of which hom_counts are catalog_upper's
  cold rho_exact calls and the rest are log densities on trial graphons;
- log_density_requests: the log densities the suites read, with
  distinct_pairs the distinct (pattern, graphon) pairs among them, memo_hits
  those verify's memo answered (null where a checkout has no memo) and
  log_density_calls the runs of density.log_density;
- family_calls: calls of the family constructors (path, cycle, complete,
  star, multipartite, hub, cycle_tail, paw) from rhokit's modules, with
  family_arguments the distinct argument sets among them (lists read as
  tuples) and family_builds the graphs they built: the misses of each
  family's cache, or every call where a checkout caches none.  The specs
  rhokit parses at import build some family graphs before the round; where a
  checkout caches them, family_built_at_import counts those builds (null
  elsewhere).
"""

import argparse
import collections
import importlib
import json
import os
import sys
import time

import rhokit

density_module = importlib.import_module("rhokit.density")
graphs_module = importlib.import_module("rhokit.graphs")
verify_module = importlib.import_module("rhokit.verify")
catalog_module = importlib.import_module("rhokit.catalog")

TRIALS, SEED = 50, 20240
FAMILIES = ("path", "cycle", "complete", "star", "multipartite", "hub", "cycle_tail", "paw")


def in_child(body):
    """body() run in a child forked from this process; returns its JSON result."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        with os.fdopen(write, "w") as fh:
            json.dump(body(), fh)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        result = json.load(fh)
    os.waitpid(pid, 0)
    return result


def plain_round():
    start = time.perf_counter()
    rhokit.run_all_suites(TRIALS, SEED)
    return (time.perf_counter() - start) * 1000


def replace_everywhere(name, fn, wrapper):
    """Put wrapper in place of fn under name in every rhokit module holding it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "rhokit" and vars(module).get(name) is fn:
            setattr(module, name, wrapper)


def misses(cached):
    return cached.cache_info().misses if hasattr(cached, "cache_info") else None


def instrumented_round():
    seconds = collections.Counter()
    counts = collections.Counter()

    def timed(layer, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - start

        return call

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    plan = density_module._plan
    plan_misses = plan.cache_info().misses
    density_module._plan = timed("plan_build", plan)
    contract = density_module._contract
    density_module._contract = timed("contract", counted("contractions", contract))
    graphs_module.Graph.__init__ = timed("graph_build", graphs_module.Graph.__init__)
    stream = verify_module._Stream
    stream.__init__ = timed("stream", stream.__init__)
    verify_module.sample_weighted_graph = timed("sample", verify_module.sample_weighted_graph)
    star = verify_module.generalized_star_density
    verify_module.generalized_star_density = timed("star", star)
    catalog_module.hom_count = counted("hom_counts", catalog_module.hom_count)

    # every log density a suite reads goes through the memo's entry, _log_t,
    # where a checkout has one, and else straight to log_density
    verify_module.log_density = counted("log_density_calls", verify_module.log_density)
    entry = "_log_t" if hasattr(verify_module, "_log_t") else "log_density"
    pairs = set()
    request = getattr(verify_module, entry)

    def read(g, w):
        counts["log_density_requests"] += 1
        pairs.add((g, id(w)))
        return request(g, w)

    setattr(verify_module, entry, read)
    memo = getattr(verify_module, "_log_densities", None)
    memo_hits = memo.cache_info().hits if memo is not None else None

    families = {}
    for name in FAMILIES:
        fn = getattr(graphs_module, name)
        cache = fn if hasattr(fn, "cache_info") else getattr(graphs_module, f"_{name}", None)
        arguments = set()
        families[name] = (cache, misses(cache), arguments)

        def family(*args, _name=name, _fn=fn, _arguments=arguments):
            counts[_name] += 1
            _arguments.add(tuple(tuple(a) if isinstance(a, (list, tuple)) else a for a in args))
            return _fn(*args)

        replace_everywhere(name, fn, family)

    start = time.perf_counter()
    rhokit.run_all_suites(TRIALS, SEED)
    seconds["round"] = time.perf_counter() - start

    builds, at_import = 0, None
    for name, (cache, before, arguments) in families.items():
        after = misses(cache)
        builds += counts[name] if after is None else after - before
        if before is not None:
            at_import = (at_import or 0) + before
    return {
        "layers_ms": {layer: s * 1000 for layer, s in seconds.items()},
        "plan_builds": plan.cache_info().misses - plan_misses,
        "contractions": counts["contractions"],
        "hom_counts": counts["hom_counts"],
        "log_density_requests": counts["log_density_requests"],
        "distinct_pairs": len(pairs),
        "memo_hits": None if memo is None else memo.cache_info().hits - memo_hits,
        "log_density_calls": counts["log_density_calls"],
        "family_calls": sum(counts[name] for name in FAMILIES),
        "family_arguments": sum(len(arguments) for _, _, arguments in families.values()),
        "family_builds": builds,
        "family_built_at_import": at_import,
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    rounds = parser.parse_args().rounds
    plain = [in_child(plain_round) for _ in range(rounds)]
    traced = [in_child(instrumented_round) for _ in range(rounds)]
    report = {"rounds": rounds, "round_ms": min(plain)}
    report["layers_ms"] = {
        layer: min(r["layers_ms"][layer] for r in traced) for layer in traced[0]["layers_ms"]
    }
    report.update({key: value for key, value in traced[0].items() if key != "layers_ms"})
    print(json.dumps(report))
