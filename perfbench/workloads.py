"""The four benchmark workloads: inputs from a seed, timed units, answer checks.

Every workload calls only rhokit's public functions, looked up on the
``rhokit`` package at call time so the tracer's wrappers are seen.  A round
(one child forked by worker.py) runs the whole input set once; rounds of one
run repeat the same inputs, so their outputs and counters must agree exactly.

Each ``run`` returns the outputs and records each unit's time on a
``Timer``.  Each ``check`` returns a ``Check`` holding the number of failed
units, failed gates and the counters derived from the outputs.
"""

import importlib.util
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_INTERVAL_S = 0.1  # CPU time between reference-kernel samples in a round
REF_EXPR = "ab,bc,cd,de,ea,ac->"


@dataclass
class Check:
    failed_units: int = 0
    problems: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)

    def fail(self, message, units=1):
        """Record a failed unit, or a failed gate, which counts as one."""
        self.failed_units += units
        if len(self.problems) < 20:
            self.problems.append(message)


def reference_kernel(ops):
    """Fixed work that calls nothing in rhokit: dict updates in pure Python
    and numpy's greedy contraction-order search, which between them make up
    most of three of the four workloads.  Its best time over a run gauges
    how fast the shared machine could run during that run (see README)."""
    import numpy as np

    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + (i * i) % 13
    for _ in range(15):
        np.einsum_path(REF_EXPR, *ops, optimize="greedy")


class Timer:
    """Times each unit in thread CPU time, from ``begin`` to ``end``.

    ``lap`` marks a point inside a unit.  A unit with marks also records its
    laps (the durations between begin, the marks and end); a unit without
    any records ``None``.  Rounds repeat identical work, so run.py can take
    each lap's best over the rounds rather than only the whole unit's.

    With ``gauge``, ``end`` also times the reference kernel once, outside
    any unit, when ``REF_INTERVAL_S`` of CPU time has passed since it last
    did, so the samples in ``ref_s`` are spread over the whole round.
    """

    def __init__(self, gauge=False):
        self.seconds = []
        self.laps = []
        self.ref_s = []
        self._marks = None
        self._next_ref = time.thread_time() if gauge else math.inf
        self._ref_ops = None

    def begin(self):
        self._marks = [time.thread_time()]

    def lap(self):
        if self._marks is not None:
            self._marks.append(time.thread_time())

    def end(self):
        marks = self._marks + [time.thread_time()]
        self._marks = None
        self.seconds.append(marks[-1] - marks[0])
        self.laps.append([b - a for a, b in zip(marks, marks[1:])] if len(marks) > 2 else None)
        if marks[-1] >= self._next_ref:
            self._gauge()

    def _gauge(self):
        if self._ref_ops is None:
            import numpy as np

            # the path search depends only on the shapes; numpy.random is not
            # imported, as it would add to the round's peak RSS
            self._ref_ops = [np.ones((3, 3))] * 6
        t0 = time.thread_time()
        reference_kernel(self._ref_ops)
        t1 = time.thread_time()
        self.ref_s.append(t1 - t0)
        self._next_ref = t1 + REF_INTERVAL_S


def _timed(calls, tracer, timer):
    """Run each (label, thunk); returns the outputs.  An exception is the
    unit's output, so the check counts it as a failure."""
    outputs = []
    for label, thunk in calls:
        if tracer is not None:
            tracer.op = label
        timer.begin()
        try:
            out = thunk()
        except Exception as exc:  # a failed unit is counted, not fatal
            out = exc
        timer.end()
        outputs.append(out)
    return outputs


def _load_test_module(name):
    """Import a module from the repository's tests/ directory."""
    tests = ROOT / "tests"
    if str(tests) not in sys.path:
        sys.path.insert(0, str(tests))
    spec = importlib.util.spec_from_file_location(name, tests / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# search: thousands of tiny contractions of a few <=6-vertex patterns on 2
# blocks; plan search dominates and plans repeat.  The config is small so a
# run repeats each search several times.

SEARCH_PAIRS = (("C3", "C4"), ("P5", "P3"), ("K3", "K2"), ("P3", "P2"))


class Search:
    unit = "search"

    def make_inputs(self, seed):
        import rhokit

        cfg = rhokit.SearchConfig(block_counts=(2,), restarts=1, iterations=6, seed=seed)
        return [(g, h, cfg) for g, h in SEARCH_PAIRS]

    def count(self, inputs):
        return len(inputs)

    def run(self, inputs, tracer, timer):
        """A search takes about 0.4 s, too long to fall inside one of the
        machine's fast stretches (see README), so each call to ``density``
        from the search marks a lap: about 400 laps per search, nearly all
        under 12 ms.  If the search stops calling ``density`` by that name, the
        unit is timed whole."""
        import rhokit

        module = sys.modules["rhokit.search"]
        inner = getattr(module, "density", None)

        def density(*args, **kwargs):
            timer.lap()
            return inner(*args, **kwargs)

        calls = [
            (f"{g}/{h}", lambda g=g, h=h, c=c: rhokit.search_lower_bound(g, h, c))
            for g, h, c in inputs
        ]
        if inner is None:
            return _timed(calls, tracer, timer)
        module.density = density
        try:
            return _timed(calls, tracer, timer)
        finally:
            module.density = inner

    def check(self, inputs, outputs):
        import rhokit

        chk = Check()
        gap = 0.0
        for (g, h, _), res in zip(inputs, outputs):
            if isinstance(res, Exception):
                chk.fail(f"search {g},{h} raised {type(res).__name__}: {res}")
                continue
            cat = rhokit.rho_exact(g, h)
            upper = math.inf if cat.upper is None else float(cat.upper)
            if not res.best_ratio <= upper + 1e-6:
                chk.fail(f"search {g},{h}: {res.best_ratio} above catalog upper {upper}")
            elif (g, h) == ("C3", "C4") and not res.best_ratio >= 1.49:
                chk.fail(f"search C3,C4: {res.best_ratio} < 1.49")
            if cat.lower is not None:
                gap += max(0.0, float(cat.lower) - res.best_ratio)
        chk.layer["search.ratio_gap"] = gap
        return chk


# ---------------------------------------------------------------------------
# verify: all inequality suites; many distinct small patterns (up to 13
# vertices) on 2-5 blocks, star densities and graphon sampling.
#
# The trials and their seed are those of acceptance criterion 3 and do not
# follow --seed, which only orders the suites.  Trial t of every suite uses
# the same graphon, and a 5-block threshold graphon with no edge (about one
# seed in six) sends all 15 suites into the 5^|V| brute-force log-space
# fallback, so a seed-dependent verify run varies up to 2x in work.

VERIFY_TRIALS = 50
VERIFY_SEED = 20240


class Verify:
    unit = "trial"

    def make_inputs(self, seed):
        import rhokit

        suites = sorted(rhokit.SUITES)
        random.Random(seed).shuffle(suites)
        return [(suite, VERIFY_TRIALS, VERIFY_SEED) for suite in suites]

    def count(self, inputs):
        return sum(trials for _, trials, _ in inputs)

    def run(self, inputs, tracer, timer):
        """Times each trial from the end of the previous one (or from the
        start of run_suite) to the end of its suite function, so sampling
        the graphon is inside the trial."""
        import rhokit

        suites = rhokit.SUITES
        originals = dict(suites)

        def timed_suite(name, fn):
            def call(rng, w):
                try:
                    return fn(rng, w)
                finally:
                    timer.end()
                    if tracer is not None:
                        tracer.op = f"{name}#{len(timer.seconds)}"
                    timer.begin()

            return call

        for name, fn in originals.items():
            suites[name] = timed_suite(name, fn)
        outputs = []
        try:
            for suite, trials, seed in inputs:
                if tracer is not None:
                    tracer.op = f"{suite}#0"
                timer.begin()
                try:
                    out = rhokit.run_suite(suite, trials, seed)
                except Exception as exc:  # counted as failed trials
                    out = exc
                outputs.append(out)
        finally:
            suites.update(originals)
        return outputs

    def check(self, inputs, outputs):
        chk = Check()
        trials = evaluated = skipped = 0
        for (suite, n, _), rep in zip(inputs, outputs):
            if isinstance(rep, Exception):
                chk.fail(f"suite {suite} raised {type(rep).__name__}: {rep}", units=n)
                continue
            trials += rep.trials
            evaluated += rep.evaluated
            skipped += rep.skipped
            if not rep.passed:
                chk.fail(f"suite {suite} failed: {rep.failures[:2]}", units=len(rep.failures))
            if rep.evaluated == 0:
                chk.fail(f"suite {suite} evaluated no trial")
        chk.layer.update(
            {
                "verify.trials": trials,
                "verify.evaluated": evaluated,
                "verify.skipped": skipped,
                "verify.skip_ratio": skipped / trials if trials else 0.0,
            }
        )
        return chk


# ---------------------------------------------------------------------------
# catalog: rho_exact over the grid of named specs, plus construction
# certificates at scales up to 1e300, which reach the log-space fallback.

# 10 specs (100 pairs, about 1 s) rather than a larger grid, so a 22 s run
# repeats every pair about 20 times and per-unit best times are steady
CATALOG_SPECS = (
    "K2", "P3", "P5", "C3", "C4", "K4", "paw", "K[2,3]", "Khub[1,1,1]", "3xK2",
)  # fmt: skip

# (G, H, family kind, params, claimed ratio, exponents e of the scales 10^e).
# The first three families do not depend on the scale, so they are certified
# once, at scale 1.  The other two are swept at every fifth exponent and the
# largest; paw_family maps n to a block mass of n^-4, which underflows past
# 1e76.  looped_star tends to 2/3 from below.
CERTIFY_FAMILIES = (
    ("C3", "C4", "two_clique", (), 1.5, (0,)),
    ("P1", "P2", "constant_p", (0.5,), 2.0, (0,)),
    ("K3", "K2", "half_block", (), 2 / 3, (0,)),
    ("paw", "C4", "paw_family", (), 4 / 3, (*range(1, 76, 5), 76)),
    ("C5", "C3", "looped_star", (), 2 / 3, (*range(1, 300, 5), 300)),
)
SCALE_FREE = {"two_clique", "constant_p", "half_block"}


class Catalog:
    unit = "pair or scale"

    def make_inputs(self, seed):
        import rhokit

        rng = random.Random(seed)
        pairs = [(g, h) for g in CATALOG_SPECS for h in CATALOG_SPECS]
        rng.shuffle(pairs)
        certs = [
            (g, h, rhokit.ConstructionFamily(kind, params), claimed, e)
            for g, h, kind, params, claimed, exponents in CERTIFY_FAMILIES
            for e in exponents
        ]
        rng.shuffle(certs)
        return pairs, certs

    def count(self, inputs):
        return sum(map(len, inputs))

    def run(self, inputs, tracer, timer):
        import rhokit

        pairs, certs = inputs
        calls = [(f"rho {g},{h}", lambda g=g, h=h: rhokit.rho_exact(g, h)) for g, h in pairs]
        calls += [
            (
                f"certify {fam.kind} 1e{e}",
                lambda g=g, h=h, fam=fam, c=c, e=e: rhokit.certify_lower_bound(
                    g, h, fam, [10**e], claimed=c
                ),
            )
            for g, h, fam, c, e in certs
        ]
        return _timed(calls, tracer, timer)

    def check(self, inputs, outputs):
        import jsonschema
        import rhokit

        chk = Check()
        pairs, certs = inputs
        schema_path = Path(rhokit.__file__).parent / "schemas" / "rho_result.schema.json"
        validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
        for (g, h), res in zip(pairs, outputs):
            if isinstance(res, Exception):
                chk.fail(f"rho {g},{h} raised {type(res).__name__}: {res}")
                continue
            errors = list(validator.iter_errors(res.to_json()))
            if errors:
                chk.fail(f"rho {g},{h}: schema: {errors[0].message}")
            elif res.upper is not None and res.lower is not None and not res.lower <= res.upper:
                chk.fail(f"rho {g},{h}: lower {res.lower} > upper {res.upper}")

        # each scale against the tolerances of tests/test_acceptance.py
        # criterion 4, then each swept family's best ratio
        best = {}
        for (g, h, fam, claimed, e), rep in zip(certs, outputs[len(pairs) :]):
            label = f"certify {fam.kind} 1e{e}"
            if isinstance(rep, Exception):
                chk.fail(f"{label} raised {type(rep).__name__}: {rep}")
                continue
            ratio = rep.achieved
            if fam.kind in SCALE_FREE:
                ok = abs(ratio - claimed) <= 1e-12
            elif fam.kind == "looped_star":
                ok = claimed - 10 / (e * math.log(10)) < ratio <= claimed + 1e-9
            else:
                ok = 0.0 < ratio <= claimed + 1e-9
            if not ok:
                chk.fail(f"{label}: ratio {ratio}, claimed {claimed}")
                continue
            best[fam.kind] = max(ratio, best.get(fam.kind, -math.inf))

        def gate(ok, message):
            if not ok:
                chk.fail(message)

        families = {kind for _, _, kind, *_ in CERTIFY_FAMILIES}
        gate(best.keys() == families, f"certified families: {sorted(best)}")
        paw = best.get("paw_family", 0.0)
        gate(paw >= 1.30 and 4 / 3 - paw <= 1 / 30, f"paw_family reached {paw}")
        star = best.get("looped_star", 0.0)
        gate(abs(star - 2 / 3) < 10 / (300 * math.log(10)), f"looped_star reached {star}")

        for g, h, status, value, bracket, tag in _load_test_module("test_acceptance").SPOT_TABLE:
            res = rhokit.rho_exact(g, h)
            ok = res.status == status and tag in res.provenance
            ok = ok and (value is None or res.value == value)
            ok = ok and (bracket is None or (res.lower, res.upper) == bracket)
            gate(ok, f"spot table {g},{h}: {res}")
        return chk


# ---------------------------------------------------------------------------
# density_large: treewidth <= 3 patterns on 32-80 block graphons; einsum
# arithmetic dominates and plan search is a small share.

DENSITY_PATTERNS = (
    "P3", "P8", "C4", "C5", "C8", "K3", "K4", "S4", "paw",
    "K[2,2]", "K[2,3]", "Gtail[2,1]", "Khub[1,1,1]",
)  # fmt: skip
# Eight block counts give 104 units, so at least ten lie beyond p90.  K4
# costs k^4: at 128 blocks it alone took 1.9 s of a 2.7 s round, which left
# the small units too few repeats per run, so the largest is 80.
DENSITY_BLOCKS = (32, 36, 40, 48, 56, 64, 72, 80)
# checked by closed forms at every size; the rest against tests/oracles.py
CYCLE_LENGTH = {"C4": 4, "C5": 5, "C8": 8, "K3": 3, "K[2,2]": 4}
PATH_LENGTH = {"P3": 3, "P8": 8}
STAR_LEAVES = {"S4": 4}
ORACLE_BLOCKS = (3, 5)


def random_graphon(rng, k):
    import rhokit

    masses = rng.random(k) + 0.1
    a = rng.random((k, k))
    return rhokit.WeightedGraph(masses / masses.sum(), (a + a.T) / 2)


class DensityLarge:
    unit = "density"

    def make_inputs(self, seed):
        import numpy as np
        import rhokit

        rng = np.random.default_rng([seed & 0x7FFFFFFF, 7])
        graphons = [random_graphon(rng, k) for k in DENSITY_BLOCKS]
        small = [random_graphon(rng, k) for k in ORACLE_BLOCKS]
        patterns = [(spec, rhokit.parse_graph_spec(spec)) for spec in DENSITY_PATTERNS]
        return graphons, patterns, small

    def count(self, inputs):
        return len(inputs[0]) * len(inputs[1])

    def run(self, inputs, tracer, timer):
        import rhokit

        graphons, patterns, _ = inputs
        calls = [
            (f"{spec}@{w.block_count}", lambda g=g, w=w: rhokit.density(g, w))
            for w in graphons
            for spec, g in patterns
        ]
        return _timed(calls, tracer, timer)

    def check(self, inputs, outputs):
        import rhokit

        chk = Check()
        graphons, patterns, small = inputs
        oracle = _load_test_module("oracles").density_oracle
        oracle_ok = {}
        for spec, g in patterns:
            if spec in CYCLE_LENGTH or spec in PATH_LENGTH or spec in STAR_LEAVES:
                continue
            for w in small:
                want, got = oracle(g, w), rhokit.density(g, w)
                oracle_ok[spec] = abs(got - want) <= 1e-12 * max(abs(want), 1e-300)
                if not oracle_ok[spec]:
                    chk.fail(f"{spec}@{w.block_count}: {got} != oracle {want}")
                    break

        results = iter(outputs)
        for w in graphons:
            for spec, g in patterns:
                got = next(results)
                label = f"{spec}@{w.block_count}"
                if isinstance(got, Exception):
                    chk.fail(f"{label} raised {type(got).__name__}: {got}")
                    continue
                if spec in CYCLE_LENGTH:
                    want = rhokit.cycle_density_spectral(CYCLE_LENGTH[spec], w)
                elif spec in PATH_LENGTH:
                    want = rhokit.generalized_path_density(0.0, PATH_LENGTH[spec], 0.0, w)
                elif spec in STAR_LEAVES:
                    want = rhokit.generalized_star_density(1, STAR_LEAVES[spec], w)
                else:
                    if not (oracle_ok[spec] and 0.0 < got <= 1.0):
                        chk.fail(f"{label}: {got} (oracle check passed: {oracle_ok[spec]})")
                    continue
                if not abs(got - want) <= 1e-9 * max(abs(want), 1e-300):
                    chk.fail(f"{label}: {got} != closed form {want}")
        return chk


WORKLOADS = {
    "search": Search(),
    "verify": Verify(),
    "catalog": Catalog(),
    "density_large": DensityLarge(),
}
