"""Randomized property-test harness for every density inequality.

Each suite checks one family of proven inequalities on sampled step
graphons, in log space.  All but the two generalized-density suites check
a domination sum_i a_i*log t(H_i,W) >= c*log t(G,W) through ``_dominates``,
which skips (and counts) trials with t(G,W) = 0, matching the t(G,W) != 0
restriction in the definition of the exponent.  A residual >= 0 certifies
the inequality at the sampled instance; a residual below -1e-9*(1+|lhs|),
or of -inf (some t(H_i,W) = 0), is a failure (these are theorems; failures
indicate an engine bug).
"""

from __future__ import annotations

import functools
import math
import operator
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
    json_number,
    log_density,
)
from .errors import DomainError
from .graphs import (
    Graph,
    WeightedGraph,
    as_graph,
    complete,
    cycle,
    cycle_tail,
    hub,
    multipartite,
    parse_graph_spec,
    path,
    star,
)

RESIDUAL_TOL_SCALE = 1e-9
PROFILES = ("uniform", "sparse", "bipartiteish", "threshold", "near_construction")


# ---------------------------------------------------------------------------
# random streams

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(calls, const, multiplier):
    """SeedSequence's constants for calls hashes in a row: per hash, the
    constant its word is xored with and the one it is multiplied by."""
    pairs = []
    for _ in range(calls):
        pairs.append((const, const * multiplier & _MASK32))
        const = pairs[-1][1]
    return pairs


def _mixing(words):
    """SeedSequence's hashes that mix the entropy into its pool of 4 words,
    in order, as (source, destination, xor constant, multiplier): each pool
    word into every other, then each entropy word past the first 4 into
    every pool word.  A source past 3 is that entropy word."""
    pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
    pairs += [(s, d) for s in range(4, words) for d in range(4)]
    # 4 hashes fill the pool first
    constants = _hash_constants(4 + len(pairs), 0x43B0D7E5, 0x931E8875)[4:]
    return [(s, d, xor, mul) for (s, d), (xor, mul) in zip(pairs, constants)]


# The hash constants do not depend on the entropy, so entropy of up to 4
# words seeds from these tables
_FILL = _hash_constants(4, 0x43B0D7E5, 0x931E8875)
_MIXING = _mixing(4)
# generate_state(4, np.uint64) hashes 8 words of the pool: (word, xor, multiplier)
_OUTPUT = [
    (i % 4, xor, mul) for i, (xor, mul) in enumerate(_hash_constants(8, 0x8B51F9DD, 0x58F38DED))
]


class _Stream:
    """numpy's ``default_rng(entropy)`` stream, bit for bit, without
    importing numpy's random package (which brings secrets, hmac and
    OpenSSL along).

    ``entropy`` is a list of nonnegative ints.  numpy's SeedSequence mixes
    their 32-bit words into 128-bit PCG64 state and increment; the stream
    is PCG64's XSL-RR output (O'Neill 2014).  The draws are the ones the
    verifier makes, each as numpy's Generator makes it:

    - random(): (next64 >> 11) * 2**-53, an array for a size or shape;
    - integers(high) or integers(low, high), for high - low <= 2**32:
      Lemire's method on 32-bit draws, a second 32-bit draw taking the
      upper half of the previous 64-bit output (random() leaves that half
      alone), and a range of one drawing nothing;
    - choice(seq): seq[integers(len(seq))];
    - permutation(n): a Fisher-Yates shuffle of range(n) whose indices are
      drawn by masked rejection on 32-bit draws, as a list.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        words = []
        for n in entropy:
            words.append(n & _MASK32)
            while n >> 32:
                n >>= 32
                words.append(n & _MASK32)
        pool = []
        for w, (xor, mul) in zip((words + [0, 0, 0, 0])[:4], _FILL):
            w = (w ^ xor) * mul & _MASK32
            pool.append(w ^ w >> 16)
        pool += words[4:]  # read, never written, by the mixing hashes
        for s, d, xor, mul in _MIXING if len(words) <= 4 else _mixing(len(words)):
            h = (pool[s] ^ xor) * mul & _MASK32
            m = (0xCA01F9DD * pool[d] - 0x4973F715 * (h ^ h >> 16)) & _MASK32
            pool[d] = m ^ m >> 16
        # generate_state(4, np.uint64): 8 words, paired low word first
        out = []
        for i, xor, mul in _OUTPUT:
            w = (pool[i] ^ xor) * mul & _MASK32
            out.append(w ^ w >> 16)
        seed = out[0] << 64 | out[1] << 96 | out[2] | out[3] << 32
        inc = out[4] << 64 | out[5] << 96 | out[6] | out[7] << 32
        self._inc = (inc << 1 | 1) & _MASK128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _next64(self):
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x, rot = (s >> 64) ^ (s & _MASK64), s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self, size=None):
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        shape = (size,) if isinstance(size, int) else tuple(size)
        draws = [self._next64() >> 11 for _ in range(math.prod(shape))]
        return (np.array(draws, dtype=np.float64) * 2.0**-53).reshape(shape)

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        span = high - low  # Lemire: the high word of draw * span, unbiased
        if span == 1:
            return low
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def choice(self, seq):
        return seq[self.integers(len(seq))]

    def permutation(self, n):
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out


# ---------------------------------------------------------------------------
# graphon sampling


def sample_weighted_graph(profile, size, seed):
    """Deterministic random step graphon for a given (profile, size, seed).

    size and seed must be integers.  Trial t of every suite draws the same
    graphon, so draws are memoized; a WeightedGraph is immutable, and every
    caller shares the one returned.  The near_construction profile ignores
    size: it jitters one of four constructions at scale 1 (constant_p,
    half_block, two_clique, looped_star), so its graphon has 1 or 2 blocks.
    """
    try:  # numpy integers become Python ints; floats are rejected
        size, seed = operator.index(size), operator.index(seed)
    except TypeError:
        raise DomainError(f"size and seed must be integers, got {size!r} and {seed!r}") from None
    if not 1 <= size <= 8:
        raise DomainError("size must lie in 1..8")
    if profile not in PROFILES:
        raise DomainError(f"unknown profile {profile!r}")
    return _sample(profile, size, seed)


@functools.lru_cache(maxsize=1024)
def _sample(profile, size, seed):
    """sample_weighted_graph on arguments it has checked.  The draws come
    from numpy's default_rng([profile index, size, seed & 0x7FFFFFFF])
    stream, reproduced by _Stream."""
    rng = _Stream([PROFILES.index(profile), size, seed & 0x7FFFFFFF])

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
        fam_idx = rng.integers(4)
        if fam_idx == 0:
            base = ConstructionFamily("constant_p", (0.5,)).at_scale(1)
        elif fam_idx == 1:
            base = ConstructionFamily("half_block").at_scale(1)
        elif fam_idx == 2:
            base = ConstructionFamily("two_clique").at_scale(1)
        else:
            base = ConstructionFamily("looped_star").at_scale(rng.integers(3, 20))
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

    Returns -inf when t(H,W) = 0 (the inequality fails outright, also when
    t(G,W) = 1); raises when t(G,W) = 0.
    """
    trial = _dominates(w, as_graph(g), float(c), [(1, as_graph(h))], "")
    if trial is None:
        raise DomainError("t(G,W) = 0: domination residual undefined")
    return trial.residual


@dataclass(frozen=True)
class Trial:
    description: str
    lhs: float  # magnitude used for the relative tolerance
    residual: float


def _dominates(w, base, c, terms, description):
    """Trial for sum(a * log t(h, w) for a, h in terms) >= c * log t(base, w).

    None (a skip) when t(base, w) = 0.  The base is evaluated first, then
    the terms in order.
    """
    lb = log_density(base, w)
    if lb == -math.inf:
        return None
    lhs = sum(a * log_density(h, w) for a, h in terms)
    return Trial(description, lhs, lhs - c * lb)


# ---------------------------------------------------------------------------
# individual suites: each maps (rng, w) -> Trial or None (skip)


def _suite_holder(rng, w):
    if rng.integers(2) == 0:
        a = rng.integers(2, 5)
        b = rng.integers(2, 5)
        terms = [(1, multipartite([a + 1, b - 1])), (1, multipartite([a - 1, b + 1]))]
        desc = f"t(K{a + 1},{b - 1})t(K{a - 1},{b + 1}) >= t(K{a},{b})^2"
        return _dominates(w, multipartite([a, b]), 2, terms, desc)
    x = rng.choice([2, 4])
    terms = [(1, path(x)), (1, path(x + 4))]
    return _dominates(w, path(x + 2), 2, terms, f"t(P{x})t(P{x + 4}) >= t(P{x + 2})^2")


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
    a, b, x, y, z = _INTERP[rng.integers(len(_INTERP))]
    desc = f"{a}*logt(P{x}) + {b}*logt(P{y}) >= {a + b}*logt(P{z})"
    return _dominates(w, path(z), a + b, [(a, path(x)), (b, path(y))], desc)


BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _suite_blakely_roy_gen(rng, w):
    r = rng.integers(1, 7)
    beta = rng.choice(BETA_GRID)
    le = log_density(path(1), w)
    if le == -math.inf:
        return None
    t = generalized_path_density(0.0, r, beta, w)
    lhs = math.log(t) if t > 0 else -math.inf
    return Trial(f"t(P_(0,{r},{beta})) >= t(P1)^{r + beta}", lhs, lhs - (r + beta) * le)


def _suite_cycle_tail(rng, w):
    k = rng.integers(1, 4)
    ell = rng.integers(0, 7)
    expo = 1 + math.ceil(ell / k) / 2
    desc = f"t(G_({k},{ell})) >= t(C{2 * k + 1})^{expo}"
    return _dominates(w, cycle(2 * k + 1), expo, [(1, cycle_tail(k, ell))], desc)


def _suite_shearer_star(rng, w):
    a = rng.integers(1, 3)
    c = rng.integers(a + 1, 5)
    b = rng.integers(1, 4)
    small = generalized_star_density(a, b, w)
    if small <= 0:
        return None
    big = generalized_star_density(c, b * c / a, w)
    lhs = (c / a) * math.log(small)
    rhs = math.log(big) if big > 0 else -math.inf
    # upper bound on the bigger star: t(K_{c,bc/a}) <= t(K_{a,b})^{c/a}
    return Trial(f"t(K_{a},{b})^({c}/{a}) >= t(K_{c},{b * c}/{a})", lhs, lhs - rhs)


def _suite_spectral_lp(rng, w):
    n = rng.integers(2, 4)
    m = rng.integers(2 * n + 1, 11)
    desc = f"t(C{2 * n}) >= t(C{m})^({2 * n}/{m})"
    return _dominates(w, cycle(m), 2 * n / m, [(1, cycle(2 * n))], desc)


def _suite_kruskal_katona(rng, w):
    s = rng.integers(2, 6)
    t = rng.integers(2, s + 1)
    return _dominates(w, complete(s), t / s, [(1, complete(t))], f"t(K{t}) >= t(K{s})^({t}/{s})")


def _suite_hub(rng, w):
    n = rng.integers(2, 4)
    while True:
        a = [rng.integers(0, 3) for _ in range(n)]
        if 1 <= sum(a) <= 3:
            break
    desc = f"t(K'_{a}) >= t(K{n})^{1 + sum(a)}"
    return _dominates(w, complete(n), 1 + sum(a), [(1, hub(a))], desc)


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
    total = rng.integers(4, 9)
    pairs = _MAJ_PAIRS[total]
    a, b = pairs[rng.integers(len(pairs))]
    desc = f"t(K_{a}) >= t(K_{b}) for {a} maj {b}"
    return _dominates(w, multipartite(b), 1, [(1, multipartite(a))], desc)


def _random_connected_graph(rng, nv):
    edges = set()
    order = rng.permutation(nv)
    for i in range(1, nv):
        j = order[rng.integers(i)]
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
    nv = rng.integers(2, 6)
    g = _random_connected_graph(rng, nv)
    t = rng.integers(nv - 1, 7)
    desc = f"t(K_1,{t}) >= t(G[{nv}v])^({t}/{nv - 1})"
    return _dominates(w, g, t / (nv - 1), [(1, star(t))], desc)


def _suite_delta_star(rng, w):
    nv = rng.integers(2, 7)
    g = _random_graph(rng, nv)
    c = 2 / (nv - delta_index(g, 1))
    return _dominates(w, g, c, [(1, path(1))], f"t(K2) >= t(G[{nv}v,{g.edge_count}e])^{c}")


def _suite_cycle_path(rng, w):
    if rng.integers(2) == 0:
        m = rng.integers(3, 7)
        n = rng.integers(1, 7)
        rho = Fraction(n + 1, m) if n <= m - 1 else Fraction(n, m - 1)
        return _dominates(w, cycle(m), float(rho), [(1, path(n))], f"t(P{n}) >= t(C{m})^{rho}")
    m = rng.integers(1, 7)
    n = rng.integers(2, 5)
    desc = f"t(C{2 * n}) >= t(P{m})^({2 * n}/{m})"
    return _dominates(w, path(m), 2 * n / m, [(1, cycle(2 * n))], desc)


def _suite_bipartite_cases(rng, w):
    for _ in range(50):
        a2 = rng.integers(1, 4)
        a1 = rng.integers(a2, 5)
        b2 = rng.integers(1, 4)
        b1 = rng.integers(b2, 5)
        proven = _bipartite_case(a1, a2, b1, b2)
        if proven is not None:  # the conjectured case is not a theorem
            rho = proven[1]
            break
    else:
        return None
    desc = f"t(K{b1},{b2}) >= t(K{a1},{a2})^{rho}"
    return _dominates(w, multipartite([a1, a2]), float(rho), [(1, multipartite([b1, b2]))], desc)


def _suite_odd_cycle_bounds(rng, w):
    if rng.integers(2) == 0:
        n = rng.integers(2, 4)
        k = rng.integers(3, 2 * n + 1)
        q = Fraction(1, 2 * n - 1)
        u = (2 * n - 1 - q) / (k - 1 - q)
        return _dominates(w, cycle(k), float(u), [(1, cycle(2 * n))], f"t(C{2 * n}) >= t(C{k})^{u}")
    k = rng.integers(1, 3)
    n = rng.integers(k + 1, 5)
    expo = math.ceil(n / k) + 1
    desc = f"t(C{2 * n + 1}) >= t(C{2 * k + 1})^{expo}"
    return _dominates(w, cycle(2 * k + 1), expo, [(1, cycle(2 * n + 1))], desc)


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
    gs, hs = _CATALOG_PAIRS[rng.integers(len(_CATALOG_PAIRS))]
    res = rho_exact(gs, hs)
    terms = [(1, parse_graph_spec(hs))]
    desc = f"t({hs}) >= t({gs})^{res.value}"
    return _dominates(w, parse_graph_spec(gs), float(res.value), terms, desc)


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
        """JSON form; a NaN (nothing evaluated) or -inf residual becomes null."""
        return {
            "suite": self.suite,
            "trials": self.trials,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "failures": [
                {"trial": t, "description": d, "residual": json_number(r)}
                for t, d, r in self.failures
            ],
            "min_residual": json_number(self.min_residual),
            "passed": self.passed,
        }


def run_suite(suite, trials, seed):
    """Run one inequality suite for the given number of trials.

    Instance parameters are drawn from numpy's default_rng([seed &
    0x7FFFFFFF, suite index, trial]) stream, reproduced by _Stream, and
    trial t's graphon is sample_weighted_graph(profile, size, seed + 7919*t).
    Identical arguments therefore reproduce bit-identical reports.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    try:  # numpy integers become Python ints; floats are rejected
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise DomainError(f"trials and seed must be integers, got {trials!r} and {seed!r}") from None
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    fn = SUITES[suite]
    suite_idx = sorted(SUITES).index(suite)
    failures = []
    evaluated = 0
    skipped = 0
    min_residual = math.inf
    for trial in range(trials):
        rng = _Stream([seed & 0x7FFFFFFF, suite_idx, trial])
        profile = PROFILES[trial % len(PROFILES)]
        size = 2 + (trial // len(PROFILES)) % 4
        w = sample_weighted_graph(profile, size, seed + 7919 * trial)
        record = fn(rng, w)
        if record is None:
            skipped += 1
            continue
        evaluated += 1
        min_residual = min(min_residual, record.residual)
        # an infinite lhs would make the tolerance infinite, so -inf fails outright
        tol = RESIDUAL_TOL_SCALE * (1.0 + abs(record.lhs))
        if record.residual == -math.inf or record.residual < -tol:
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
