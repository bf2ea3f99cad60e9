"""Randomized property-test harness for every density inequality.

Each suite checks one family of proven inequalities on sampled step
graphons.  All comparisons happen in log space: a residual >= 0 certifies
the inequality at the sampled instance, and any residual below
-1e-9*(1+|lhs|) is recorded as a failure (these are theorems; failures
indicate an engine bug).  Trials where the base density is 0 are
skipped-and-counted, matching the t(G,W) != 0 restriction in the
definition of the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np

from .catalog import _bipartite_case, majorizes, rho_exact
from .constructions import ConstructionFamily
from .density import (
    delta_index,
    generalized_path_density,
    generalized_star_density,
    log_density,
)
from .errors import DomainError
from .graphs import (
    Graph,
    WeightedGraph,
    complete,
    cycle,
    cycle_tail,
    multipartite,
    parse_graph_spec,
    path,
    star,
)

RESIDUAL_TOL_SCALE = 1e-9
PROFILES = ("uniform", "sparse", "bipartiteish", "threshold", "near_construction")


# ---------------------------------------------------------------------------
# graphon sampling


def sample_weighted_graph(profile, size, seed):
    """Deterministic random step graphon for a given (profile, size, seed)."""
    if not 1 <= size <= 8:
        raise DomainError("size must lie in 1..8")
    if profile not in PROFILES:
        raise DomainError(f"unknown profile {profile!r}")
    rng = np.random.default_rng([PROFILES.index(profile), size, seed & 0x7FFFFFFF])

    masses = rng.random(size) + 0.1
    masses = masses / masses.sum()

    if profile == "uniform":
        a = rng.random((size, size))
        weights = (a + a.T) / 2
    elif profile == "sparse":
        a = rng.random((size, size)) * 0.1
        weights = (a + a.T) / 2
    elif profile == "bipartiteish":
        group = np.arange(size) < (size + 1) // 2
        cross = np.not_equal.outer(group, group)
        a = rng.random((size, size))
        a = (a + a.T) / 2
        weights = np.where(cross, 0.7 + 0.3 * a, 0.05 * a)
    elif profile == "threshold":
        u = np.sort(rng.random(size))
        weights = (np.add.outer(u, u) <= 1.0).astype(float)
    else:  # near_construction
        fam_idx = int(rng.integers(4))
        if fam_idx == 0:
            base = ConstructionFamily("constant_p", (0.5,)).at_scale(1)
        elif fam_idx == 1:
            base = ConstructionFamily("half_block").at_scale(1)
        elif fam_idx == 2:
            base = ConstructionFamily("two_clique").at_scale(1)
        else:
            base = ConstructionFamily("looped_star").at_scale(int(rng.integers(3, 20)))
        k = base.block_count
        jitter = rng.random((k, k)) * 0.1 - 0.05
        weights = np.clip(base.weights + (jitter + jitter.T) / 2, 0.0, 1.0)
        masses = base.masses * (1.0 + 0.1 * rng.random(k))
        masses = masses / masses.sum()

    return WeightedGraph(masses, weights)


# ---------------------------------------------------------------------------
# residuals


def domination_residual(g, h, c, w):
    """log t(H,W) - c*log t(G,W); >= 0 certifies t(H,W) >= t(G,W)^c at W.

    Returns -inf when t(H,W)=0 while t(G,W) < 1 (the inequality fails
    outright); raises when t(G,W)=0.
    """
    g = g if isinstance(g, Graph) else parse_graph_spec(g)
    h = h if isinstance(h, Graph) else parse_graph_spec(h)
    lg = log_density(g, w)
    if lg == -math.inf:
        raise DomainError("t(G,W) = 0: domination residual undefined")
    lh = log_density(h, w)
    if lh == -math.inf:
        return -math.inf if lg < 0 else 0.0
    return lh - float(c) * lg


@dataclass(frozen=True)
class Trial:
    description: str
    lhs: float  # magnitude used for the relative tolerance
    residual: float


def _check(lhs_log, rhs_log, description):
    """Build a trial record for lhs_log >= rhs_log."""
    return Trial(description, lhs_log, lhs_log - rhs_log)


# ---------------------------------------------------------------------------
# individual suites: each maps (rng, w) -> Trial or None (skip)


def _suite_holder(rng, w):
    if rng.integers(2) == 0:
        a = int(rng.integers(2, 5))
        b = int(rng.integers(2, 5))
        lo = log_density(multipartite([a, b]), w)
        if lo == -math.inf:
            return None
        hi = log_density(multipartite([a + 1, b - 1]), w) + log_density(
            multipartite([a - 1, b + 1]), w
        )
        return _check(hi, 2 * lo, f"t(K{a + 1},{b - 1})t(K{a - 1},{b + 1}) >= t(K{a},{b})^2")
    x = int(rng.choice([2, 4]))
    lo = log_density(path(x + 2), w)
    if lo == -math.inf:
        return None
    hi = log_density(path(x), w) + log_density(path(x + 4), w)
    return _check(hi, 2 * lo, f"t(P{x})t(P{x + 4}) >= t(P{x + 2})^2")


def _interpolation_tuples():
    out = []
    for x in (2, 4, 6, 8):
        for y in (2, 4, 6, 8):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    num = a * x + b * y
                    if num % (a + b) == 0:
                        z = num // (a + b)
                        if z >= 1:
                            out.append((a, b, x, y, z))
    return out


_INTERP = _interpolation_tuples()


def _suite_path_interpolation(rng, w):
    a, b, x, y, z = _INTERP[int(rng.integers(len(_INTERP)))]
    lz = log_density(path(z), w)
    if lz == -math.inf:
        return None
    lhs = a * log_density(path(x), w) + b * log_density(path(y), w)
    return _check(lhs, (a + b) * lz, f"{a}*logt(P{x}) + {b}*logt(P{y}) >= {a + b}*logt(P{z})")


BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _suite_blakely_roy_gen(rng, w):
    r = int(rng.integers(1, 7))
    beta = float(rng.choice(BETA_GRID))
    le = log_density(path(1), w)
    if le == -math.inf:
        return None
    t = generalized_path_density(0.0, r, beta, w)
    lhs = math.log(t) if t > 0 else -math.inf
    return _check(lhs, (r + beta) * le, f"t(P_(0,{r},{beta})) >= t(P1)^{r + beta}")


def _suite_cycle_tail(rng, w):
    k = int(rng.integers(1, 4))
    ell = int(rng.integers(0, 7))
    lc = log_density(cycle(2 * k + 1), w)
    if lc == -math.inf:
        return None
    expo = 1 + math.ceil(ell / k) / 2
    lhs = log_density(cycle_tail(k, ell), w)
    return _check(lhs, expo * lc, f"t(G_({k},{ell})) >= t(C{2 * k + 1})^{expo}")


def _suite_shearer_star(rng, w):
    a = int(rng.integers(1, 3))
    c = int(rng.integers(a + 1, 5))
    b = int(rng.integers(1, 4))
    small = generalized_star_density(a, b, w)
    if small <= 0:
        return None
    big = generalized_star_density(c, b * c / a, w)
    lhs = (c / a) * math.log(small)
    rhs = math.log(big) if big > 0 else -math.inf
    # upper bound on the bigger star: t(K_{c,bc/a}) <= t(K_{a,b})^{c/a}
    return _check(lhs, rhs, f"t(K_{a},{b})^({c}/{a}) >= t(K_{c},{b * c}/{a})")


def _suite_spectral_lp(rng, w):
    n = int(rng.integers(2, 4))
    m = int(rng.integers(2 * n + 1, 11))
    lm = log_density(cycle(m), w)
    if lm == -math.inf:
        return None
    lhs = log_density(cycle(2 * n), w)
    return _check(lhs, (2 * n / m) * lm, f"t(C{2 * n}) >= t(C{m})^({2 * n}/{m})")


def _suite_kruskal_katona(rng, w):
    s = int(rng.integers(2, 6))
    t = int(rng.integers(2, s + 1))
    ls = log_density(complete(s), w)
    if ls == -math.inf:
        return None
    lhs = log_density(complete(t), w)
    return _check(lhs, (t / s) * ls, f"t(K{t}) >= t(K{s})^({t}/{s})")


def _suite_hub(rng, w):
    from .graphs import hub as hub_graph

    n = int(rng.integers(2, 4))
    while True:
        a = [int(rng.integers(0, 3)) for _ in range(n)]
        if 1 <= sum(a) <= 3:
            break
    ln = log_density(complete(n), w)
    if ln == -math.inf:
        return None
    lhs = log_density(hub_graph(a), w)
    return _check(lhs, (1 + sum(a)) * ln, f"t(K'_{a}) >= t(K{n})^{1 + sum(a)}")


def _partitions(total, max_parts):
    def rec(remaining, cap, parts):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == max_parts:
            return
        for nxt in range(min(cap, remaining), 0, -1):
            parts.append(nxt)
            yield from rec(remaining - nxt, nxt, parts)
            parts.pop()

    yield from rec(total, total, [])


def _majorizing_pairs(total, max_parts):
    parts = list(_partitions(total, max_parts))
    out = []
    for a in parts:
        for b in parts:
            if a != b and majorizes(a, b):
                out.append((a, b))
    return out


_MAJ_PAIRS = {t: _majorizing_pairs(t, 4) for t in (4, 5, 6, 7, 8)}


def _suite_majorization_monotone(rng, w):
    total = int(rng.integers(4, 9))
    pairs = _MAJ_PAIRS[total]
    a, b = pairs[int(rng.integers(len(pairs)))]
    lb = log_density(multipartite(b), w)
    if lb == -math.inf:
        return None
    lhs = log_density(multipartite(a), w)
    return _check(lhs, lb, f"t(K_{a}) >= t(K_{b}) for {a} maj {b}")


def _random_connected_graph(rng, nv):
    edges = set()
    order = list(rng.permutation(nv))
    for i in range(1, nv):
        j = order[int(rng.integers(i))]
        u, v = order[i], j
        edges.add((min(u, v), max(u, v)))
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < 0.3:
                edges.add((u, v))
    return Graph.from_edges(nv, edges)


def _random_graph(rng, nv):
    edges = set()
    while not edges:
        edges = {
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < 0.4
        }
    return Graph.from_edges(nv, edges)


def _suite_star_tree(rng, w):
    nv = int(rng.integers(2, 6))
    g = _random_connected_graph(rng, nv)
    t = int(rng.integers(nv - 1, 7))
    lg = log_density(g, w)
    if lg == -math.inf:
        return None
    lhs = log_density(star(t), w)
    return _check(lhs, (t / (nv - 1)) * lg, f"t(K_1,{t}) >= t(G[{nv}v])^({t}/{nv - 1})")


def _suite_delta_star(rng, w):
    nv = int(rng.integers(2, 7))
    g = _random_graph(rng, nv)
    lg = log_density(g, w)
    if lg == -math.inf:
        return None
    c = 2 / (nv - delta_index(g, 1))
    lhs = log_density(path(1), w)
    return _check(lhs, c * lg, f"t(K2) >= t(G[{nv}v,{g.edge_count}e])^{c}")


def _suite_cycle_path(rng, w):
    if rng.integers(2) == 0:
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, 7))
        rho = Fraction(n + 1, m) if n <= m - 1 else Fraction(n, m - 1)
        lc = log_density(cycle(m), w)
        if lc == -math.inf:
            return None
        lhs = log_density(path(n), w)
        return _check(lhs, float(rho) * lc, f"t(P{n}) >= t(C{m})^{rho}")
    m = int(rng.integers(1, 7))
    n = int(rng.integers(2, 5))
    lp = log_density(path(m), w)
    if lp == -math.inf:
        return None
    lhs = log_density(cycle(2 * n), w)
    return _check(lhs, (2 * n / m) * lp, f"t(C{2 * n}) >= t(P{m})^({2 * n}/{m})")


def _suite_bipartite_cases(rng, w):
    for _ in range(50):
        a2 = int(rng.integers(1, 4))
        a1 = int(rng.integers(a2, 5))
        b2 = int(rng.integers(1, 4))
        b1 = int(rng.integers(b2, 5))
        proven = _bipartite_case(a1, a2, b1, b2)
        if proven is not None:  # the conjectured case is not a theorem
            rho = proven[1]
            break
    else:
        return None
    la = log_density(multipartite([a1, a2]), w)
    if la == -math.inf:
        return None
    lhs = log_density(multipartite([b1, b2]), w)
    return _check(lhs, float(rho) * la, f"t(K{b1},{b2}) >= t(K{a1},{a2})^{rho}")


def _suite_odd_cycle_bounds(rng, w):
    if rng.integers(2) == 0:
        n = int(rng.integers(2, 4))
        k = int(rng.integers(3, 2 * n + 1))
        q = Fraction(1, 2 * n - 1)
        u = (2 * n - 1 - q) / (k - 1 - q)
        lk = log_density(cycle(k), w)
        if lk == -math.inf:
            return None
        lhs = log_density(cycle(2 * n), w)
        return _check(lhs, float(u) * lk, f"t(C{2 * n}) >= t(C{k})^{u}")
    k = int(rng.integers(1, 3))
    n = int(rng.integers(k + 1, 5))
    lk = log_density(cycle(2 * k + 1), w)
    if lk == -math.inf:
        return None
    expo = math.ceil(n / k) + 1
    lhs = log_density(cycle(2 * n + 1), w)
    return _check(lhs, expo * lk, f"t(C{2 * n + 1}) >= t(C{2 * k + 1})^{expo}")


_CATALOG_PAIRS = (
    ("P1", "P2"),
    ("P2", "P3"),
    ("P3", "P2"),
    ("P4", "P6"),
    ("C5", "C4"),
    ("C6", "C4"),
    ("C4", "P2"),
    ("C3", "P4"),
    ("P2", "C4"),
    ("K3", "K2"),
    ("K4", "K3"),
    ("K[2,1]", "K[3,2]"),
    ("K[3,3]", "K[2,2]"),
    ("K3", "Khub[1,1,1]"),
    ("K[2,2,1]", "K[3,1,1]"),
    ("paw", "C4"),
    ("C4", "C4"),
)


def _suite_catalog_upper(rng, w):
    gs, hs = _CATALOG_PAIRS[int(rng.integers(len(_CATALOG_PAIRS)))]
    res = rho_exact(gs, hs)
    lg = log_density(parse_graph_spec(gs), w)
    if lg == -math.inf:
        return None
    lhs = log_density(parse_graph_spec(hs), w)
    return _check(lhs, float(res.value) * lg, f"t({hs}) >= t({gs})^{res.value}")


SUITES = {
    "holder": _suite_holder,
    "path_interpolation": _suite_path_interpolation,
    "blakely_roy_gen": _suite_blakely_roy_gen,
    "cycle_tail": _suite_cycle_tail,
    "shearer_star": _suite_shearer_star,
    "spectral_lp": _suite_spectral_lp,
    "kruskal_katona": _suite_kruskal_katona,
    "hub": _suite_hub,
    "majorization_monotone": _suite_majorization_monotone,
    "star_tree": _suite_star_tree,
    "delta_star": _suite_delta_star,
    "cycle_path": _suite_cycle_path,
    "bipartite_cases": _suite_bipartite_cases,
    "odd_cycle_bounds": _suite_odd_cycle_bounds,
    "catalog_upper": _suite_catalog_upper,
}


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    evaluated: int
    skipped: int
    failures: tuple  # of (trial index, description, residual)
    min_residual: float

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "suite": self.suite,
            "trials": self.trials,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "failures": [
                {"trial": t, "description": d, "residual": r} for t, d, r in self.failures
            ],
            "min_residual": None if math.isnan(self.min_residual) else self.min_residual,
            "passed": self.passed,
        }


def run_suite(suite, trials, seed):
    """Run one inequality suite for the given number of trials.

    Instance parameters and the target graphon are drawn from a per-trial
    RNG stream derived from (seed, trial index), so identical arguments
    reproduce bit-identical reports.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    fn = SUITES[suite]
    suite_idx = sorted(SUITES).index(suite)
    failures = []
    evaluated = 0
    skipped = 0
    min_residual = math.inf
    for trial in range(trials):
        rng = np.random.default_rng([seed & 0x7FFFFFFF, suite_idx, trial])
        profile = PROFILES[trial % len(PROFILES)]
        size = 2 + (trial // len(PROFILES)) % 4
        w = sample_weighted_graph(profile, size, seed + 7919 * trial)
        record = fn(rng, w)
        if record is None:
            skipped += 1
            continue
        evaluated += 1
        min_residual = min(min_residual, record.residual)
        tol = RESIDUAL_TOL_SCALE * (1.0 + abs(record.lhs))
        if record.residual < -tol:
            failures.append((trial, f"{profile}/{size}b: {record.description}", record.residual))
    return SuiteReport(
        suite=suite,
        trials=trials,
        evaluated=evaluated,
        skipped=skipped,
        failures=tuple(failures),
        min_residual=min_residual if evaluated else math.nan,
    )


def run_all_suites(trials, seed):
    return [run_suite(s, trials, seed) for s in sorted(SUITES)]


def reports_to_junit(reports):
    """Render suite reports as JUnit XML for CI consumption."""
    root = ElementTree.Element("testsuites")
    for rep in reports:
        suite_el = ElementTree.SubElement(
            root,
            "testsuite",
            name=rep.suite,
            tests=str(rep.trials),
            failures=str(len(rep.failures)),
            skipped=str(rep.skipped),
        )
        case = ElementTree.SubElement(suite_el, "testcase", name=f"{rep.suite}_residuals")
        for _, desc, residual in rep.failures:
            fail = ElementTree.SubElement(case, "failure", message=desc)
            fail.text = f"residual={residual}"
    return ElementTree.tostring(root, encoding="unicode")
