import contextlib
import functools
import importlib
import inspect
import itertools
import math
import operator
import random
import string
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    delta_oracle,
    density_oracle,
    hom_count_oracle,
    independence_oracle,
    log_density_oracle,
)
from rhokit import (
    DiscrepancyError,
    DomainError,
    EnumerationCapError,
    Graph,
    WeightedGraph,
    complete,
    cycle,
    cycle_density_spectral,
    delta_index,
    density,
    density_gradient,
    disjoint_union,
    generalized_path_density,
    generalized_star_density,
    hom_count,
    independence_number,
    log_density,
    multipartite,
    parse_graph_spec,
    path,
    path_density,
    ratio_objective,
    sample_weighted_graph,
    spectrum,
    star,
)
from rhokit.constructions import build_construction
from rhokit.density import (
    _contract,
    _greedy_path,
    _Pair,
    _plan,
    _program_of,
    _replay,
    _replay_from,
    _slice,
    _Sliced,
)
from test_acceptance import _partitions

# the package's density() function shadows the module's attribute name
density_module = importlib.import_module("rhokit.density")
search_module = importlib.import_module("rhokit.search")


def graphons(count, seed, sizes=(2, 3, 4, 5)):
    profiles = ("uniform", "sparse", "bipartiteish", "threshold", "near_construction")
    for i in range(count):
        yield sample_weighted_graph(profiles[i % 5], sizes[i % len(sizes)], seed + i)


class TestHomCount:
    def test_against_oracle(self):
        targets = [complete(3), cycle(5), path(3), star(3)]
        patterns = [path(1), path(2), cycle(3), cycle(4), star(2), complete(3)]
        for t in targets:
            for p in patterns:
                assert hom_count(p, t) == hom_count_oracle(p, t)

    def test_complete_onto_complete_is_factorial(self):
        for n in range(1, 7):
            assert hom_count(complete(n), complete(n)) == math.factorial(n)

    def test_cycles_into_complete_closed_form(self):
        # hom(C_k, K_q) = (q-1)^k + (-1)^k (q-1)
        for q in (2, 3, 4):
            for k in (3, 4, 5, 6):
                assert hom_count(cycle(k), complete(q)) == (q - 1) ** k + (-1) ** k * (q - 1)

    def test_empty_pattern(self):
        assert hom_count(Graph.from_edges(0, []), complete(3)) == 1

    def test_isolated_pattern_vertices_multiply(self):
        g = Graph.from_edges(3, [(0, 1)])  # edge plus isolated vertex
        assert hom_count(g, complete(3)) == 6 * 3

    def test_exact_beyond_float_precision(self):
        assert 20 * 19**12 > 2**53
        assert hom_count(path(12), complete(20)) == 20 * 19**12

    def test_exact_beyond_int64(self):
        assert 40 * 39**14 > 2**63
        assert hom_count(path(14), complete(40)) == 40 * 39**14

    def test_exact_beyond_int64_disconnected(self):
        assert hom_count(Graph.from_edges(15, []), complete(40)) == 40**15
        three_paths = Graph.from_edges(15, [(v, v + 1) for v in range(14) if v % 5 != 4])
        assert hom_count(three_paths, complete(40)) == (40 * 39**4) ** 3


EMPTY = Graph.from_edges(0, [])
# dyadic masses sum to exactly 1, so edgeless patterns have density exactly 1
DYADIC = WeightedGraph(np.array([0.5, 0.25, 0.125, 0.125]), np.full((4, 4), 0.3))


class TestEdgeless:
    """The empty pattern and isolated vertices, through every entry."""

    def test_empty_pattern(self):
        assert type(density(EMPTY, DYADIC)) is float and density(EMPTY, DYADIC) == 1.0
        assert log_density(EMPTY, DYADIC) == 0.0
        gm, gw = density_gradient(EMPTY, DYADIC)
        assert gm.shape == (4,) and gw.shape == (4, 4)
        assert not gm.any() and not gw.any()
        assert hom_count(EMPTY, complete(3)) == hom_count(EMPTY, EMPTY) == 1
        # one contraction per graphon of a stack, in the weights' dtype
        stack = _contract(EMPTY, [], np.broadcast_to(DYADIC.weights, (5, 4, 4)))
        assert stack.dtype == np.float64 and stack.tolist() == [1.0] * 5

    @pytest.mark.parametrize("v", [1, 2, 3, 7])
    def test_isolated_vertices(self, v):
        g = Graph.from_edges(v, [])
        assert density(g, DYADIC) == 1.0
        for n in (1, 3, 40):
            got = hom_count(g, complete(n))
            assert type(got) is int and got == n**v
        assert hom_count(g, EMPTY) == 0

    def test_isolated_vertices_past_int64(self):
        # past int64, so the count takes the object route
        g = Graph.from_edges(13, [])
        assert 40**13 > 2**63
        got = hom_count(g, complete(40))
        assert type(got) is int and got == 40**13
        assert density(g, DYADIC) == 1.0


class TestDensity:
    def test_against_oracle(self):
        patterns = [path(1), path(3), cycle(4), complete(3), star(3), multipartite([2, 2])]
        for i, w in enumerate(graphons(20, seed=100)):
            for p in patterns:
                assert density(p, w) == pytest.approx(density_oracle(p, w), rel=1e-12)

    def test_constant_graphon_gives_p_to_edges(self):
        w = WeightedGraph.constant(0.3)
        for g in (path(2), cycle(5), complete(4)):
            assert density(g, w) == pytest.approx(0.3**g.edge_count, rel=1e-12)

    def test_range_clamped(self):
        for w in graphons(10, seed=7):
            for g in (cycle(3), path(4)):
                assert 0.0 <= density(g, w) <= 1.0

    def test_path_density_zero_edges(self):
        assert path_density(0, WeightedGraph.constant(0.2)) == 1.0
        w = WeightedGraph.constant(0.2)
        assert path_density(3, w) == pytest.approx(density(path(3), w))

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("RHOKIT_ENUM_CAP", "10")
        w = sample_weighted_graph("uniform", 5, 1)
        # greedy elimination keeps intermediates tiny for a path: allowed
        assert density(path(8), w) >= 0
        # a clique on many vertices cannot be contracted under the cap
        with pytest.raises(EnumerationCapError):
            density(complete(9), w)

    def test_log_density_matches_plain_log(self):
        for w in graphons(10, seed=42):
            for g in (path(2), cycle(4)):
                t = density(g, w)
                if t > 0:
                    assert log_density(g, w) == math.log(t)

    def test_log_density_underflow_fallback(self):
        # densities below float64's smallest subnormal still get a finite log
        w = WeightedGraph([0.5, 0.5], [[1e-150, 0.0], [0.0, 1e-150]])
        assert density(complete(3), w) == 0.0
        ld = log_density(complete(3), w)
        expected = math.log(2 * 0.5**3) + 3 * math.log(1e-150)
        assert ld == pytest.approx(expected, rel=1e-9)

    def test_log_density_exact_zero(self):
        w = WeightedGraph([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])  # bipartite
        assert log_density(cycle(3), w) == -math.inf


class TestLogDensity:
    def test_positive_past_the_old_enumeration_cap(self):
        # 4**11 maps; the float density underflows to 0
        w = WeightedGraph(np.full(4, 0.25), np.full((4, 4), 1e-40))
        assert density(path(10), w) == 0.0
        assert log_density(path(10), w) == pytest.approx(-921.0340371976183, rel=1e-12)

    @pytest.mark.parametrize(
        "g,w",
        [
            # the float log of t(C3) is off by 1.6e-5 relative here
            (cycle(3), build_construction("looped_star", (), 1e161)),
            # t = 1e-320 keeps 11 bits as a subnormal float
            (cycle(10), WeightedGraph.constant(1e-32)),
        ],
    )
    def test_subnormal_density_keeps_its_digits(self, g, w):
        assert 0.0 < density(g, w) < 2**-1022
        assert log_density(g, w) == pytest.approx(log_density_oracle(g, w), rel=1e-12)

    def test_exact_zero_past_the_old_enumeration_cap(self):
        # an odd cycle on a bipartite graphon: 5**9 maps, none positive
        side = np.array([0, 0, 1, 1, 1])
        weights = np.where(side[:, None] != side[None, :], 1e-40, 0.0)
        w = WeightedGraph(np.full(5, 0.2), weights)
        assert log_density(cycle(9), w) == -math.inf

    @pytest.mark.parametrize("weight", [0.3, 1e-60])
    def test_one_contraction_per_call(self, weight, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return contract(*args, **kwargs)

        contract = density_module._contract
        monkeypatch.setattr(density_module, "_contract", counted)
        w = WeightedGraph(np.full(3, 1 / 3), np.full((3, 3), weight))
        assert log_density(complete(4), w) == pytest.approx(6 * math.log(weight), rel=1e-12)
        assert calls == [complete(4)]

    @pytest.mark.parametrize(
        "masses,weights",
        [
            # no positive weight: the weight floor is log 1 = 0
            ([0.5, 0.25, 0.25], np.zeros((3, 3))),
            ([0.5, 0.5], np.full((2, 2), 1e-300)),
            ([0.75, 0.25], [[1e-300, 0.0], [0.0, 0.5]]),
        ],
    )
    def test_floors_are_kept_with_the_graphon(self, masses, weights):
        w = WeightedGraph(masses, weights)
        positive = w.weights[w.weights > 0]
        floors = (math.log(w.masses.min()), math.log(positive.min(initial=1.0)))
        assert w._log_floors == floors
        for g in (Graph(3, frozenset()), path(1), path(2), cycle(3), complete(4)):
            want = log_density_oracle(g, w)
            if want == -math.inf:
                assert log_density(g, w) == -math.inf
            else:
                assert log_density(g, w) == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.booleans(), min_size=15, max_size=15),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=1000),
)
def test_log_density_matches_oracle_down_to_1e_300(nv, keep, k, mass_exp, weight_exp, seed):
    pairs = itertools.combinations(range(nv), 2)
    edges = [e for e, kept in zip(pairs, keep) if kept]
    g = Graph.from_edges(nv, edges)
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    masses[1:] *= 10.0**-mass_exp / masses.sum()
    masses[0] = 1.0 - masses[1:].sum()
    a = rng.random((k, k)) * (rng.random((k, k)) < 0.8)  # some zero weights
    w = WeightedGraph(masses, (a + a.T) / 2 * 10.0**-weight_exp)
    assert log_density(g, w) == pytest.approx(log_density_oracle(g, w), rel=1e-12)


def greedy_einsum(g, factors, weights, out=()):
    """Reference contraction: a fresh greedy path search on every call."""
    letters = string.ascii_letters
    terms = [letters[v] for v in range(g.vertex_count)]
    terms += [letters[u] + letters[v] for u, v in sorted(g.edges)]
    expr = ",".join(terms) + "->" + "".join(letters[v] for v in out)
    ops = [*factors, *[weights] * g.edge_count]
    return np.einsum(expr, *ops, optimize="greedy")


def greedy_gradient(g, w):
    """Reference gradient of t(g, w): one free vertex per mass term and one
    edge-deleted pattern with two free vertices per weight term, each
    contracted by greedy_einsum; symmetric weight pairs move together."""
    return greedy_gradient_of(g, w.masses, w.weights)


def greedy_gradient_of(g, mu, weights):
    """greedy_gradient on bare masses and weights, in their own dtype."""
    k = mu.size
    ref_m = np.zeros(k, dtype=mu.dtype)
    for v in range(g.vertex_count):
        factors = [mu] * g.vertex_count
        factors[v] = np.ones_like(mu)
        ref_m += greedy_einsum(g, factors, weights, (v,))
    ref_w = np.zeros((k, k), dtype=weights.dtype)
    for u, v in sorted(g.edges):
        rest = Graph.from_edges(g.vertex_count, g.edges - {(u, v)})
        ref_w += greedy_einsum(rest, [mu] * g.vertex_count, weights, (u, v))
    return ref_m, ref_w + ref_w.T - np.diag(np.diag(ref_w))


def support_gradient(g, w):
    """greedy_gradient on w's support graphon (every mass 1, every positive
    weight 1), counted in exact integers: a partial of t(g, w) is exactly 0
    iff it is 0 here, as t has nonnegative coefficients."""
    return greedy_gradient_of(g, np.ones(w.block_count, dtype=np.int64), (w.weights > 0) * 1)


# numpy 2.4's optimized einsum joins pairs by batched matmul, as the compiled
# programs do; older releases join by tensordot and agree only to rounding
GREEDY_BITS = tuple(int(p) for p in np.__version__.split(".")[:2]) >= (2, 4)


def assert_matches_greedy(got, ref):
    if GREEDY_BITS:
        assert got == ref
    else:
        assert got == pytest.approx(ref, rel=1e-12)


PLAN_PATTERNS = ("P3", "C5", "K4", "S3", "paw", "K[2,3]", "2xK3", "Khub[1,1,1]")


class TestPlanCache:
    def test_repeat_is_cache_hit(self):
        w = sample_weighted_graph("uniform", 3, 11)
        g = cycle(7)
        density(g, w)
        before = _plan.cache_info()
        density(g, w)
        after = _plan.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    @pytest.mark.parametrize("spec", PLAN_PATTERNS)
    def test_density_bit_identical_to_greedy(self, spec):
        g = parse_graph_spec(spec)
        # k = 1 as well, where numpy's batched matmul drops every length-1 axis
        for w in graphons(6, seed=61, sizes=(2, 3, 7, 2, 1, 5)):
            ref = float(greedy_einsum(g, [w.masses] * g.vertex_count, w.weights))
            assert_matches_greedy(density(g, w), ref)

    @pytest.mark.parametrize("spec", PLAN_PATTERNS)
    def test_gradient_bit_identical_to_greedy(self, spec):
        # to rtol 1e-12, not bit for bit: the reverse sweep sums in its own order
        g = parse_graph_spec(spec)
        for k in (1, 2, 3, 8, 16):
            w = random_graphon(k, seed=62 + k)
            ref_m, ref_w = greedy_gradient(g, w)
            gm, gw = density_gradient(g, w)
            np.testing.assert_allclose(gm, ref_m, rtol=1e-12)
            np.testing.assert_allclose(gw, ref_w, rtol=1e-12)

    @pytest.mark.parametrize("nv", [0, 1, 4])
    def test_gradient_of_edgeless_pattern(self, nv):
        # t = (sum of masses)**nv, so d/d masses is nv everywhere, d/d weights 0
        g, w = Graph(nv, frozenset()), random_graphon(3, seed=nv)
        gm, gw = density_gradient(g, w)
        ref_m, ref_w = greedy_gradient(g, w)
        np.testing.assert_allclose(gm, np.full(3, float(nv)), rtol=1e-12)
        np.testing.assert_allclose(gm, ref_m, rtol=1e-12)
        assert gm.shape == (3,) and gw.shape == (3, 3)
        assert not gw.any() and not ref_w.any()

    def test_gradient_builds_one_program(self):
        g, w = parse_graph_spec("paw"), sample_weighted_graph("uniform", 3, 5)
        _plan.cache_clear()
        density_gradient(g, w)
        assert _plan.cache_info().currsize == _plan.cache_info().misses == 1
        _plan(g, 3)  # the one program is the density's own
        assert _plan.cache_info().misses == 1

    def test_gradient_is_one_sweep_not_per_coordinate_passes(self, monkeypatch):
        # the gradient reads the tape of one _evaluate run, the density's own
        calls = []

        def counted(plan, *args):
            calls.append(plan)
            return evaluate(plan, *args)

        evaluate = density_module._evaluate
        monkeypatch.setattr(density_module, "_evaluate", counted)
        g, h, w = path(5), cycle(3), random_graphon(8, seed=8)
        _plan.cache_clear()
        density_gradient(g, w)
        assert calls == [_plan(g, 8)]
        assert _plan.cache_info().misses == 1
        calls.clear()
        ratio_objective(h, g, w)
        assert calls == [_plan(h, 8), _plan(g, 8)]
        assert _plan.cache_info().misses == 2  # one program per pattern

    @pytest.mark.parametrize("spec", PLAN_PATTERNS)
    def test_swept_value_is_the_density(self, spec):
        g = parse_graph_spec(spec)
        for w in graphons(5, seed=64, sizes=(1, 2, 3, 5, 8)):
            assert search_module._swept(g, w.masses, w.weights)[0] == density(g, w)
            with slice_at(1):  # every give-up join sliced, slices nested
                assert search_module._swept(g, w.masses, w.weights)[0] == density(g, w)

    def test_swept_value_is_the_density_when_sliced(self):
        g, w = complete(4), random_graphon(33, seed=33)
        assert sliced(_plan(g, 33))
        assert search_module._swept(g, w.masses, w.weights)[0] == density(g, w)
        w = random_graphon(3, seed=3)
        with slice_at(1):
            for g in (complete(5), parse_graph_spec("2xK4")):  # nested, and one per component
                assert sliced(_plan(g, 3))
                assert search_module._swept(g, w.masses, w.weights)[0] == density(g, w)

    def test_hom_count_bit_identical_to_greedy(self):
        for spec in PLAN_PATTERNS:
            g = parse_graph_spec(spec)
            for n in (3, 5, 8):
                t = complete(n)
                ones = np.ones(n, dtype=np.int64)
                ref = int(greedy_einsum(g, [ones] * g.vertex_count, t.adjacency()))
                assert hom_count(g, t) == ref
        # object dtype past 2**63, one connected component at a time
        g, t = path(14), complete(40)
        ones = np.ones(40, dtype=object)
        ref = greedy_einsum(g, [ones] * 15, t.adjacency().astype(object))
        assert hom_count(g, t) == ref == 40 * 39**14

    def test_disconnected_object_count_past_int64(self):
        # 2xK3 plus 8 isolated vertices on K40, in one object contraction:
        # its fully summed components meet in 0-d steps
        g, t = Graph.from_edges(14, parse_graph_spec("2xK3").edges), complete(40)
        ones = np.ones(40, dtype=object)
        got = _contract(g, [ones] * 14, t.adjacency().astype(object)).item()
        parts = math.prod(hom_count(g.induced(c), t) for c in g.components())
        assert got == parts == (40 * 39 * 38) ** 2 * 40**8 > 2**63
        assert hom_count(g, t) == got

    def test_cached_pattern_is_not_planned_again(self, monkeypatch):
        g, w = parse_graph_spec("paw"), sample_weighted_graph("uniform", 3, 5)
        density(g, w)
        density_gradient(g, w)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum_path(*args, **kwargs)

        einsum_path = np.einsum_path
        monkeypatch.setattr(np, "einsum_path", counted)
        # np.einsum(optimize=...) looks einsum_path up in its own module
        monkeypatch.setitem(inspect.unwrap(np.einsum).__globals__, "einsum_path", counted)
        density(g, w)
        density_gradient(g, w)
        assert calls == []
        # nor does building its program again
        _plan.cache_clear()
        density(g, w)
        density_gradient(g, w)
        assert _plan.cache_info().misses == 1
        assert calls == []

    def test_cap_read_on_every_call(self, monkeypatch):
        w = sample_weighted_graph("uniform", 5, 1)
        g = complete(9)
        assert density(g, w) >= 0  # plan cached under the default cap
        monkeypatch.setenv("RHOKIT_ENUM_CAP", "10")
        with pytest.raises(EnumerationCapError):
            density(g, w)
        monkeypatch.delenv("RHOKIT_ENUM_CAP")
        assert density(g, w) >= 0


# every cache a program build reads: the programs, the replays they are
# filled in from, and the step caches those share across patterns
PLAN_CACHES = (
    density_module._plan,
    density_module._replay,
    density_module._pair_fields,
    density_module._lengths,
)


class TestStepCaches:
    def test_cold_program_is_the_warm_one(self):
        keys = [(g, k) for nv in range(1, 6) for g in labelled_graphs(nv) for k in range(1, 6)]
        cold = {}
        for g, k in keys:
            for cache in PLAN_CACHES:
                cache.cache_clear()
            cold[g, k] = _plan(g, k)
        # built again in the reverse order, so every step cache holds the
        # steps of other patterns and other block counts first
        _plan.cache_clear()
        _replay.cache_clear()
        for g, k in reversed(keys):
            assert _plan(g, k) == cold[g, k], (sorted(g.edges), k)
        assert density_module._pair_fields.cache_info().hits > 0
        assert density_module._lengths.cache_info().hits > 0


def operand_masks(g):
    masks = [1 << v for v in range(g.vertex_count)]
    return masks + [1 << u | 1 << v for u, v in sorted(g.edges)]


def greedy_path_pair(g, k):
    """(_greedy_path's path, np.einsum_path's greedy path) of g's density
    tensor network on k blocks."""
    terms = [string.ascii_letters[v] for v in range(g.vertex_count)]
    terms += [string.ascii_letters[u] + string.ascii_letters[v] for u, v in sorted(g.edges)]
    blanks = [np.empty(k)] * g.vertex_count + [np.empty((k, k))] * g.edge_count
    path, _ = np.einsum_path(",".join(terms) + "->", *blanks, optimize="greedy")
    return _greedy_path(operand_masks(g), k), path[1:]


# criterion 8's multipartite graphs (up to 40 edges) on its 2 and 3 blocks,
# 3xK4 and the K8..K3 that slicing K8 on 40 blocks plans, edgeless patterns
NAMED_PATH_CASES = (
    [(multipartite(p), k) for p in _partitions(10, 5) for k in (2, 3)]
    + [(parse_graph_spec("3xK4"), k) for k in (2, 3, 40)]
    + [(complete(n), 40) for n in range(3, 9)]
    + [(Graph(n, frozenset()), k) for n in range(1, 14) for k in (1, 2, 40)]
)


# np.einsum_path is the reference; _greedy_path follows numpy 2.4's rule
@pytest.mark.skipif(not GREEDY_BITS, reason="the greedy rule is numpy 2.4's")
class TestGreedyPath:
    def test_named_patterns(self):
        for g, k in NAMED_PATH_CASES:
            got, ref = greedy_path_pair(g, k)
            assert got == ref, (sorted(g.edges), g.vertex_count, k)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=13),
        st.lists(st.booleans(), min_size=78, max_size=78),
        st.sampled_from((1, 2, 3, 5, 8, 33, 80)),
    )
    def test_random_patterns(self, nv, keep, k):
        pairs = itertools.combinations(range(nv), 2)
        edges = [e for e, kept in zip(pairs, keep) if kept]
        got, ref = greedy_path_pair(Graph.from_edges(nv, edges), k)
        assert got == ref


def random_graphon(k, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    a = rng.random((k, k))
    return WeightedGraph(masses / masses.sum(), (a + a.T) / 2)


def sliced(plan):
    """The slice step of a program that slices a vertex, else None."""
    step = plan.steps[0]
    return step if isinstance(step, _Sliced) else None


@contextlib.contextmanager
def slice_at(threshold):
    """Plan under another slicing threshold; plans made under it are dropped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density_module, "_SLICE_AT", threshold)
        _plan.cache_clear()
        try:
            yield
        finally:
            _plan.cache_clear()


def unlimited_reference(masks, k):
    """greedy's path with its size limit lifted where it gives up, searched
    from scratch: at the give-up point all pairs left are scanned again with
    no limit, and the cost of the whole path so far and the whole pattern's
    naive cost still bound every join.  The reference for _plan's
    continuation from the leftover operands alone."""
    n = len(masks)
    if n <= 2:
        return [tuple(range(n))]
    size = [k**bits for bits in range(max(masks).bit_length() + 1)]
    limit = max(size[m.bit_count()] for m in masks)
    naive = size[functools.reduce(operator.or_, masks).bit_count()] * n
    ops, path, known, cost = list(masks), [], [], 0
    pairs = itertools.combinations(range(n), 2)
    for _ in range(n - 1):
        once = twice = more = 0
        for m in ops:
            more |= twice & m
            twice = (twice | once & m) & ~more
            once = (once | m) & ~(twice | more)

        def consider(i, j):
            a, b = ops[i], ops[j]
            removed = once & (a ^ b) | twice & a & b
            result = (a | b) & ~removed
            kept = size[result.bit_count()]
            flops = size[(a | b).bit_count()] * (2 if removed else 1)
            if kept <= limit and cost + flops <= naive:
                gain = size[a.bit_count()] + size[b.bit_count()] - kept
                known.append(((-gain, flops), i, j, result))

        while True:
            for i, j in pairs:
                if ops[i] & ops[j]:
                    consider(i, j)
            if not known:
                for i, j in itertools.combinations(range(len(ops)), 2):
                    consider(i, j)
            if known or limit == math.inf:
                break
            limit = math.inf  # greedy gives up here
            pairs = itertools.combinations(range(len(ops)), 2)
        if not known:
            path.append(tuple(range(len(ops))))
            break
        (_, flops), x, y, result = min(known, key=operator.itemgetter(0))
        known = [
            (key, i - (i > x) - (i > y), j - (j > x) - (j > y), r)
            for key, i, j, r in known
            if i != x and i != y and j != x and j != y
        ]
        ops = [m for i, m in enumerate(ops) if i != x and i != y] + [result]
        pairs = ((i, len(ops) - 1) for i in range(len(ops) - 1))
        path.append((x, y))
        cost += flops
    return path


def continued(g, k):
    """g's replay on k blocks past greedy's give-up point, as _plan builds
    it: the cached replay's steps up to the give-up join, then greedy at k
    with no size limit on the operands that join takes."""
    replay = _replay(g, min(k, 2))
    return _replay_from(replay.leftover, k, math.inf, replay.steps[:-1], replay.intermediate)


def continued_path(g, k):
    """The path continued(g, k) replays."""
    leftover = [sum(1 << string.ascii_letters.index(ix) for ix in t) for t in _replay(g, 2).leftover]
    return _greedy_path(operand_masks(g), k)[:-1] + _greedy_path(leftover, k, math.inf)


def from_reference(g, k):
    """g's replay on k blocks along unlimited_reference's path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density_module, "_greedy_path", lambda masks, k, _=None: unlimited_reference(masks, k))
        return _replay.__wrapped__(g, k)


def reference_plan(g, k):
    """_plan(g, k) with the program past the give-up point taken from
    unlimited_reference's path."""
    replay = _replay(g, min(k, 2))
    if replay.join is None or k**replay.join < 2**15:
        return _program_of(replay, g, k)
    if k**3 < 2**15:
        program = _program_of(from_reference(g, k), g, k)
        if program.size < 2**15:
            return program
    return _slice(g, k)


@contextlib.contextmanager
def replays():
    """Cold plan caches, and a list of (terms, k, limit) per _replay_from
    call made under it: one per replay of a pattern, one per continuation."""
    calls = []

    def counted(terms, k, limit=None, *rest):
        calls.append((tuple(terms), k, limit))
        return _replay_from(terms, k, limit, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density_module, "_replay_from", counted)
        _plan.cache_clear()
        _replay.cache_clear()
        try:
            yield calls
        finally:
            _plan.cache_clear()
            _replay.cache_clear()


# cases whose greedy path gives up in a join of 2**15 or more index
# combinations, where the unlimited path stays under 2**15 entries
UNLIMITED_CASES = [("K4", 14), ("K5", 8), ("K[3,4]", 5), ("K[4,4]", 5)]


def takes_unlimited_path(g, k):
    """Whether g's program on k blocks runs the unlimited path, unsliced,
    in place of a give-up join of 2**15 or more index combinations."""
    plan = _plan(g, k)
    unlimited = _program_of(continued(g, k), g, k)
    return k ** _replay(g, min(k, 2)).join >= 2**15 and plan == unlimited


class TestUnlimited:
    @pytest.mark.parametrize("spec,k", UNLIMITED_CASES)
    def test_density_matches_oracle(self, spec, k):
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        assert takes_unlimited_path(g, k)
        assert _plan(g, k).size < 2**15
        assert density(g, w) == pytest.approx(density_oracle(g, w), rel=1e-12)
        gm, gw = density_gradient(g, w)
        ref_m, ref_w = greedy_gradient(g, w)
        np.testing.assert_allclose(gm, ref_m, rtol=1e-12)
        np.testing.assert_allclose(gw, ref_w, rtol=1e-12)

    @pytest.mark.parametrize("spec", ["K[4,4]", "K[2,2,2,2]"])
    def test_hom_count_object_route(self, spec):
        # object operands, as hom_count takes past int64, on 4-vertex targets
        g = parse_graph_spec(spec)
        assert takes_unlimited_path(g, 4)
        for t in (complete(4), cycle(4)):
            ones = np.ones(4, dtype=object)
            got = _contract(g, [ones] * g.vertex_count, t.adjacency().astype(object)).item()
            assert type(got) is int
            assert got == hom_count(g, t) == hom_count_oracle(g, t)

    @pytest.mark.parametrize("spec", ["K4", "K5", "K[2,2,2]", "K[4,4]"])
    def test_path_goes_on_from_the_give_up_point(self, spec):
        g = parse_graph_spec(spec)
        masks = operand_masks(g)
        for k in (2, 5, 32):
            limited = _greedy_path(masks, k)
            assert len(limited[-1]) > 2  # greedy gives up
            reference = unlimited_reference(masks, k)
            assert reference[: len(limited) - 1] == limited[:-1]
            assert continued_path(g, k) == reference

    @pytest.mark.parametrize("spec", ["K4", "K5", "K[2,2,2]", "K[4,4]"])
    def test_unlimited_path_reaches_2_15_from_32_blocks(self, spec):
        # past the give-up point every join holds 3 or more indices, 32**3 = 2**15
        g = parse_graph_spec(spec)
        assert 32 ** continued(g, 32).intermediate >= 2**15
        assert continued(g, 32).intermediate == from_reference(g, 32).intermediate

    def test_no_unlimited_replay_from_32_blocks(self):
        g = complete(4)
        with replays() as calls:
            for k in range(32, 81):
                assert sliced(_plan(g, k))
                assert _plan(g, k) == _slice(g, k)
            # K4's replay on 2 blocks and that of the K3 slicing leaves, no more
            assert _replay.cache_info().misses == 2
        assert [(k, limit) for _, k, limit in calls] == [(2, None)] * 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=3, max_value=13),
        st.lists(st.booleans(), min_size=78, max_size=78),
        st.integers(min_value=2, max_value=31),
    )
    def test_continued_path_is_the_reference(self, nv, keep, k):
        # the give-up join's operands alone, with no size limit, find the
        # path the whole pattern's search finds with the limit lifted there
        g = random_pattern(nv, keep)
        assume(_replay(g, 2).join is not None)
        assert continued_path(g, k) == unlimited_reference(operand_masks(g), k)

    def test_programs_are_the_reference_ones(self):
        # criterion 8's 60 programs and the 42 cases tools/layers.py slice
        # times, 47 of which go on past the give-up point
        cases = [(multipartite(p), k) for p in _partitions(10, 5) for k in (2, 3)]
        for spec in ("K4", "K[2,2,2]", "K[3,4]", "K[4,4]"):
            g = parse_graph_spec(spec)
            joins = {k: _replay(g, min(k, 2)).join for k in range(2, 25)}
            cases += [(g, k) for k, j in joins.items() if j is not None and k**j < 2**20]
        assert len(cases) == 102
        went_on = 0
        for g, k in cases:
            assert _plan(g, k) == reference_plan(g, k), (sorted(g.edges), k)
            join = _replay(g, min(k, 2)).join
            went_on += join is not None and k**join >= 2**15 and k**3 < 2**15
        assert went_on == 47

    def test_continuation_starts_from_the_leftover(self):
        # K4 on 14 blocks: its replay on 2 blocks, then greedy at 14 on the
        # operands the give-up join takes, not on the whole pattern again
        g = complete(4)
        with replays() as calls:
            assert takes_unlimited_path(g, 14)
            leftover = _replay(g, 2).leftover
        whole, rest = calls
        assert whole[1:] == (2, None) and len(whole[0]) == 10
        assert rest == (leftover, 14, math.inf) and 3 <= len(leftover) < 10

    def test_parts_planned_by_the_same_rule(self):
        # K5 on 14 blocks slices; the K4 left runs the unlimited path
        step = sliced(_plan(complete(5), 14))
        ((_, part),) = step.parts
        assert part == _plan(complete(4), 14)
        assert takes_unlimited_path(complete(4), 14)

    def test_cap_sees_the_unlimited_program(self, monkeypatch):
        g, w = parse_graph_spec("K[4,4]"), random_graphon(5, seed=5)
        assert takes_unlimited_path(g, 5)
        assert _plan(g, 5).size == 5**4
        monkeypatch.setenv("RHOKIT_ENUM_CAP", str(5**4 - 1))
        with pytest.raises(EnumerationCapError, match=f"takes {5**4} index combinations"):
            density(g, w)
        monkeypatch.setenv("RHOKIT_ENUM_CAP", str(5**4))
        assert density(g, w) == pytest.approx(density_oracle(g, w), rel=1e-12)


class TestSlicing:
    # the give-up join is >= 2**15, and so is the unlimited path's largest
    # intermediate (K7 less an edge on 6 blocks: 6**6)
    @pytest.mark.parametrize("spec,k", [("K4", 33), ("K5", 17), ("K[2,1,1,1,1,1]", 6)])
    def test_sliced_density_matches_oracle(self, spec, k):
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        assert sliced(_plan(g, k))
        assert density(g, w) == pytest.approx(density_oracle(g, w), rel=1e-12)

    @pytest.mark.parametrize("spec,k", [("K5", 14), ("K5", 15), ("K[2,1,1,1,1,1]", 6)])
    def test_mid_size_join_sliced(self, spec, k):
        # give-up joins of 2**15 up to 2**20 index combinations are sliced
        # too, where the unlimited path reaches 2**15 entries as well
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        assert 2**15 <= k ** _replay(g, min(k, 2)).join < 2**20
        assert k ** continued(g, k).intermediate >= 2**15
        assert sliced(_plan(g, k))
        assert density(g, w) == pytest.approx(density_oracle(g, w), rel=1e-12)
        gm, gw = density_gradient(g, w)
        ref_m, ref_w = greedy_gradient(g, w)
        np.testing.assert_allclose(gm, ref_m, rtol=1e-12)
        np.testing.assert_allclose(gw, ref_w, rtol=1e-12)

    def test_k4_on_128_blocks(self):
        w = WeightedGraph(np.full(128, 1 / 128), np.full((128, 128), 0.3))
        assert density(complete(4), w) == pytest.approx(0.3**6, rel=1e-12)

    def test_hom_count_through_slices(self):
        assert hom_count(complete(4), complete(40)) == 40 * 39 * 38 * 37
        # greedy would join all 8 indices at once; slicing one vertex of
        # each K4 makes a plan of 40**2 x 40**2 index combinations
        start = time.perf_counter()
        assert hom_count(parse_graph_spec("2xK4"), complete(40)) == (40 * 39 * 38 * 37) ** 2
        assert time.perf_counter() - start < 2.0

    def test_sliced_components_planned_apart(self):
        # one part per component of the rest: K3 and two K4s, each K4 sliced
        # on its own (40 * 40 * 40**2 index combinations); one program for
        # all three would nest three slices, 40**3 * 40**2, over the cap
        g, t = parse_graph_spec("3xK4"), complete(40)
        assert _plan(g, 40).size == 40**4
        assert hom_count(g, t) == (40 * 39 * 38 * 37) ** 3 > 2**63
        w = random_graphon(40, seed=12)
        assert density(g, w) == pytest.approx(density(complete(4), w) ** 3, rel=1e-12)

    def test_sliced_vertex_with_pendants_exact_past_int64(self):
        # slicing the hub leaves 15 isolated vertices, counted in Python ints
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = Graph.from_edges(19, k4 + [(3, v) for v in range(4, 19)])
        assert hom_count(g, complete(40)) == 40 * 39 * 38 * 37 * 39**15

    def test_gradient_matches_unsliced(self):
        # greedy_gradient contracts without slicing
        g, w = complete(4), random_graphon(33, seed=3)
        assert sliced(_plan(g, 33))
        gm, gw = density_gradient(g, w)
        ref_m, ref_w = greedy_gradient(g, w)
        np.testing.assert_allclose(gm, ref_m, rtol=1e-12)
        np.testing.assert_allclose(gw, ref_w, rtol=1e-12)

    def test_cap_bounds_nested_slices(self):
        # K8 on 40 blocks slices five vertices down to K3: 40**5 * 40**2
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match=f"takes {40**7} index combinations"):
            density(complete(8), random_graphon(40, seed=8))
        assert time.perf_counter() - start < 1.0

    def test_cap_bounds_sliced_plan(self, monkeypatch):
        monkeypatch.setenv("RHOKIT_ENUM_CAP", "1e4")
        with pytest.raises(EnumerationCapError, match=f"takes {40 * 40**2} index combinations"):
            density(complete(4), random_graphon(40, seed=4))

    def test_gradient_capped_where_density_is(self, monkeypatch):
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match=f"takes {40**7} index combinations"):
            density_gradient(complete(8), random_graphon(40, seed=8))
        assert time.perf_counter() - start < 1.0
        monkeypatch.setenv("RHOKIT_ENUM_CAP", "1e4")
        with pytest.raises(EnumerationCapError, match=f"takes {40 * 40**2} index combinations"):
            density_gradient(complete(4), random_graphon(40, seed=4))

    def test_slices_nest(self):
        w = random_graphon(2, seed=2)
        with slice_at(1):
            plan = _plan(complete(5), 2)
            assert sliced(plan) and sliced(sliced(plan).parts[0][1])
            assert density(complete(5), w) == pytest.approx(density_oracle(complete(5), w))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.lists(st.booleans(), min_size=21, max_size=21),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=1000),
)
def test_nested_slices_match_oracle(nv, keep, k, seed):
    pairs = itertools.combinations(range(nv), 2)
    edges = [e for e, kept in zip(pairs, keep) if kept]
    assume(edges)
    g, w = Graph.from_edges(nv, edges), random_graphon(k, seed)
    with slice_at(1):
        got = density(g, w)
    assert got == pytest.approx(density_oracle(g, w), rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.lists(st.booleans(), min_size=21, max_size=21),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=1000),
)
def test_sliced_gradient_matches_greedy(nv, keep, k, weight_exp, tiny_exp, seed):
    pairs = itertools.combinations(range(nv), 2)
    g = Graph.from_edges(nv, [e for e, kept in zip(pairs, keep) if kept])
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.1
    masses[-1] *= 10.0**-tiny_exp  # one tiny mass and weight next to order-1 ones
    a = rng.random((k, k)) * (rng.random((k, k)) < 0.8)  # some zero weights
    a = (a + a.T) / 2
    i, j = rng.integers(k, size=2)
    a[i, j] = a[j, i] = 10.0**-tiny_exp
    w = WeightedGraph(masses / masses.sum(), a * 10.0**-weight_exp)
    with slice_at(1):
        gm, gw = density_gradient(g, w)
    ref_m, ref_w = greedy_gradient(g, w)
    zero_m, zero_w = support_gradient(g, w)
    # terms near 2**-1074 are subnormal on both sides; the reference may
    # underflow a positive subnormal partial to 0, so zeros come from structure
    for got, ref, zero in [(gm, ref_m, zero_m), (gw, ref_w, zero_w)]:
        bad = np.abs(got - ref) > 1e-12 * np.abs(ref) + 2.0**-1050
        assert not bad.any(), (got[bad], ref[bad])
        assert not got[zero == 0].any()  # exact zeros stay exact


def random_pattern(nv, keep):
    pairs = itertools.combinations(range(nv), 2)
    return Graph.from_edges(nv, [e for e, kept in zip(pairs, keep) if kept])


def run_and_sweep(g, masses, weights):
    """(value, factor adjoints, weight adjoint) of one run of g's program
    over masses and weights, with any leading batch axes, and its sweep."""
    tape = []
    plan = _plan(g, weights.shape[-1])
    value = density_module._evaluate(plan, [masses] * g.vertex_count, weights, tape)
    factors, total = density_module._sweep(tape, g.vertex_count, weights)
    return np.asarray(value), factors, total


def assert_batch_bits(g, k, count, seed):
    """A run over a stack of count graphons has, for each, the bits of its
    own run: the value, every factor adjoint and the weight adjoint."""
    rng = np.random.default_rng(seed)
    masses = rng.random((count, k)) + 0.1
    masses /= masses.sum(axis=1, keepdims=True)
    a = rng.random((count, k, k))
    weights = (a + a.swapaxes(1, 2)) / 2
    value, factors, total = run_and_sweep(g, masses, weights)
    assert value.shape == (count,) and total.shape == (count, k, k)
    for b in range(count):
        one_value, one_factors, one_total = run_and_sweep(g, masses[b], weights[b])
        assert value[b].tobytes() == one_value.tobytes()
        assert len(factors) == len(one_factors)
        for batched, one in zip(factors, one_factors):
            assert batched[b].tobytes() == one.tobytes()
        assert total[b].tobytes() == one_total.tobytes()


class TestBatch:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.lists(st.booleans(), min_size=21, max_size=21),
        st.integers(min_value=0, max_value=1000),
    )
    def test_random_patterns_bit_identical(self, nv, keep, seed):
        g = random_pattern(nv, keep)
        for k in (1, 2, 3, 8):
            for count in (1, 5, 25):
                assert_batch_bits(g, k, count, seed)

    @pytest.mark.parametrize("spec,k", [("K4", 33), ("K5", 14)])
    def test_sliced_programs_bit_identical(self, spec, k):
        g = parse_graph_spec(spec)
        assert sliced(_plan(g, k))
        for count in (1, 5, 25):
            assert_batch_bits(g, k, count, seed=k + count)

    @pytest.mark.parametrize("spec,k", UNLIMITED_CASES)
    def test_unlimited_programs_bit_identical(self, spec, k):
        g = parse_graph_spec(spec)
        assert takes_unlimited_path(g, k)
        for count in (1, 5, 25):
            assert_batch_bits(g, k, count, seed=k + count)


def per_block_evaluate(plan, factors, weights, tape=None):
    """The reference for chunked slices: _evaluate, except that a _Sliced
    step runs each part once per block, with no batch axis for the block,
    and sums the terms in block order.  Its tape holds (step, factors, per
    block (mass, each part's (value, tape)))."""
    step = plan.steps[0]
    if type(step) is not _Sliced:
        return density_module._evaluate(plan, factors, weights, tape)
    r = 0
    if tape is not None:
        blocks = []
        tape.append((step, factors, blocks))
    for b in range(weights.shape[-1]):
        mass = factors[step.vertex][..., b]
        one = list(factors)
        for u in step.neighbours:
            one[u] = factors[u] * weights[..., b, :]
        parts = []
        term = mass
        for vertices, part in step.parts:
            part_tape = None if tape is None else []
            value = per_block_evaluate(part, [one[u] for u in vertices], weights, part_tape)
            parts.append((value, part_tape))
            term = term * value
        if tape is not None:
            blocks.append((mass, parts))
        r = r + term
    return density_module._keep(r)


def per_block_sweep(tape, n, weights):
    """_sweep of a tape per_block_evaluate recorded, one block at a time."""
    if type(tape[0][0]) is not _Sliced:
        return density_module._sweep(tape, n, weights)
    ((step, factors, blocks),) = tape
    total = np.zeros_like(weights)
    adjoints = [np.zeros_like(f) for f in factors]
    for b, (mass, parts) in enumerate(blocks):
        values = [value for value, _ in parts]
        adjoints[step.vertex][..., b] += math.prod(values)
        for p, ((vertices, _), (_, part_tape)) in enumerate(zip(step.parts, parts)):
            c = (mass * math.prod(values[:p] + values[p + 1 :]))[..., None]
            part_adjoints, part_total = per_block_sweep(part_tape, len(vertices), weights)
            total += c[..., None] * part_total
            for u, adjoint in zip(vertices, part_adjoints):
                if u in step.neighbours:
                    total[..., b, :] += c * adjoint * factors[u]
                    adjoint = adjoint * weights[..., b, :]
                adjoints[u] += c * adjoint
    return adjoints, total


def taped_arrays(tape):
    """Every array a tape holds, parts' tapes included."""
    for entry in tape:
        if type(entry[0]) is _Sliced:
            _, factors, chunks = entry
            yield from factors
            for _, mass, parts in chunks:
                yield mass
                for value, part_tape in parts:
                    yield value
                    yield from taped_arrays(part_tape)
        else:
            yield from entry[1]


# (pattern, block count, blocks a chunk on one graphon); K4 on 128 blocks
# takes one block a chunk, K5 on 17 a last chunk of two, and K5 on 32 runs
# one block a chunk of a part that slices again, 16 blocks a chunk
CHUNKED = [
    ("K4", 32, 16), ("K4", 33, 15), ("K4", 80, 2), ("K4", 128, 1), ("K5", 17, 3), ("K5", 32, 1)
]  # fmt: skip


class TestChunks:
    @pytest.mark.parametrize("spec,k,c", CHUNKED)
    def test_density_is_the_per_block_one(self, spec, k, c):
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        step = sliced(_plan(g, k))
        assert step and density_module._blocks_per_chunk(step, 1) == c
        factors = [w.masses] * g.vertex_count
        reference = per_block_evaluate(_plan(g, k), factors, w.weights)
        assert density(g, w) == reference.item()
        got = density_module._evaluate(_plan(g, k), factors, w.weights)
        assert np.asarray(got).tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "spec,k", [("K4", 32), ("K4", 33), ("K4", 80), ("K4", 128), ("K5", 17), ("2xK4", 40)]
    )
    def test_hom_count_is_the_per_block_one(self, spec, k):
        g, t = parse_graph_spec(spec), complete(k)
        ones = np.ones(k, dtype=np.int64)
        reference = per_block_evaluate(_plan(g, k), [ones] * g.vertex_count, t.adjacency())
        assert hom_count(g, t) == reference.item() == hom_count_oracle_complete(g, k)

    def test_object_route_is_the_per_block_one(self):
        # K4 with 15 pendant leaves on its vertex 3: Python ints past int64
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g, t = Graph.from_edges(19, k4 + [(3, v) for v in range(4, 19)]), complete(40)
        ones, adjacency = np.ones(40, dtype=object), t.adjacency().astype(object)
        got = _contract(g, [ones] * g.vertex_count, adjacency).item()
        assert type(got) is int and got > 2**63
        assert got == per_block_evaluate(_plan(g, 40), [ones] * g.vertex_count, adjacency).item()

    @pytest.mark.parametrize("spec,k,c", CHUNKED)
    def test_gradient_is_the_per_block_one(self, spec, k, c):
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        plan, factors = _plan(g, k), [w.masses] * g.vertex_count
        tape, reference_tape = [], []
        density_module._evaluate(plan, factors, w.weights, tape)
        per_block_evaluate(plan, factors, w.weights, reference_tape)
        adjoints, total = density_module._sweep(tape, g.vertex_count, w.weights)
        ref_adjoints, ref_total = per_block_sweep(reference_tape, g.vertex_count, w.weights)
        # the adjoints add up block by block, in block order, as the reference's do
        assert total.tobytes() == ref_total.tobytes()
        for got, ref in zip(adjoints, ref_adjoints):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec,k", [("K4", 33), ("K5", 17)])
    def test_stack_is_each_graphon_alone(self, spec, k):
        # 3 graphons share a chunk of blocks: 5 blocks a chunk for K4 on 33
        g = parse_graph_spec(spec)
        rng = np.random.default_rng(k)
        masses = rng.random((3, k)) + 0.1
        masses /= masses.sum(axis=1, keepdims=True)
        a = rng.random((3, k, k))
        weights = (a + a.swapaxes(1, 2)) / 2
        plan = _plan(g, k)
        chunk = functools.partial(density_module._blocks_per_chunk, sliced(plan))
        assert chunk(3) < chunk(1)
        assert_batch_bits(g, k, 3, seed=k)
        stacked = density_module._evaluate(plan, [masses] * g.vertex_count, weights)
        for i in range(3):
            alone = per_block_evaluate(plan, [masses[i]] * g.vertex_count, weights[i])
            assert stacked[i].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("spec,k,c", CHUNKED)
    def test_chunks_stay_within_the_bound(self, spec, k, c):
        g, w = parse_graph_spec(spec), random_graphon(k, seed=k)
        tape = []
        density_module._evaluate(_plan(g, k), [w.masses] * g.vertex_count, w.weights, tape)
        ((_, _, chunks),) = tape
        # a chunk of one block keeps its axis too
        assert [blocks for blocks, _, _ in chunks] == [slice(b0, b0 + c) for b0 in range(0, k, c)]
        assert max(np.size(x) for x in taped_arrays(tape)) <= density_module._CHUNK


def hom_count_oracle_complete(g, k):
    """hom(g, K_k) for g a disjoint union of complete graphs."""
    count = 1
    for component in g.components():
        count *= math.perm(k, len(component))
    return count


# block counts from 2 on, where every pattern's greedy path is its path on 2
BLOCK_COUNTS = (2, 3, 4, 33, 80)


def labelled_graphs(nv):
    """Every graph on vertices 0 .. nv - 1."""
    pairs = nv * (nv - 1) // 2
    for bits in range(1 << pairs):
        yield random_pattern(nv, [bits >> i & 1 for i in range(pairs)])


def replayed_at(g, k):
    """g's program on k blocks, filled in from an uncached replay at k itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            density_module,
            "_replay",
            lambda g, _: _replay.__wrapped__(g, k),
        )
        _plan.cache_clear()
        try:
            return _plan(g, k)
        finally:
            _plan.cache_clear()


# _replay's docstring proves the path the same on every k >= 2; its
# naive-cost step for patterns of at most 4 vertices rests on the first test
class TestThreshold:
    def test_every_small_graph_has_one_path_from_2_blocks(self):
        # on at most 4 vertices, k up to 2n - 2, n = |V| + |E|, past which the
        # naive-cost test goes as on large k; on 5 vertices, where that test
        # always passes, k = 3 and 4 (k up to 2n - 2 would take seconds)
        graphs = [g for nv in range(1, 6) for g in labelled_graphs(nv)]
        assert len(graphs) == 75 + 1024
        for g in graphs:
            masks = operand_masks(g)
            at_2 = _greedy_path(masks, 2)
            for k in range(3, 2 * len(masks) - 1) if g.vertex_count <= 4 else (3, 4):
                assert _greedy_path(masks, k) == at_2, (sorted(g.edges), k)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=13),
        st.lists(st.booleans(), min_size=78, max_size=78),
    )
    def test_path_is_constant_past_threshold(self, nv, keep):
        g = random_pattern(nv, keep)
        masks = operand_masks(g)
        at_2 = _greedy_path(masks, 2)
        for k in BLOCK_COUNTS:
            assert _greedy_path(masks, k) == at_2, k

    def test_named_paths_are_constant_past_threshold(self):
        for g in {g for g, _ in NAMED_PATH_CASES}:
            masks = operand_masks(g)
            at_2 = _greedy_path(masks, 2)
            for k in (*range(3, 8), 2**300):
                assert _greedy_path(masks, k) == at_2, (sorted(g.edges), k)

    @pytest.mark.skipif(not GREEDY_BITS, reason="the greedy rule is numpy 2.4's")
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=13),
        st.lists(st.booleans(), min_size=78, max_size=78),
    )
    def test_numpy_path_is_constant_past_threshold(self, nv, keep):
        g = random_pattern(nv, keep)
        at_2 = _greedy_path(operand_masks(g), 2)
        for k in BLOCK_COUNTS:
            assert greedy_path_pair(g, k)[1] == at_2, k

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=13),
        st.lists(st.booleans(), min_size=78, max_size=78),
    )
    def test_program_is_the_one_replayed_at_k(self, nv, keep):
        g = random_pattern(nv, keep)
        for k in (1, *BLOCK_COUNTS):
            assert _plan(g, k) == replayed_at(g, k), k

    @pytest.mark.parametrize(
        "spec,ks",
        [
            pytest.param(spec, ks, id=spec)
            for spec, ks in [
                ("P3", (*range(2, 12), 20, 24)),
                ("C4", range(2, 12)),
                ("C5", (20, 24)),
                ("paw", (*range(2, 12), 20, 24)),
                ("K[2,3]", (*range(2, 12), 20, 24)),
                # K4 and K5 end in give-up joins of k**4 and k**5 < 2**15
                ("K4", range(2, 12)),
                ("K5", (6, 7)),
            ]
        ],
    )
    def test_bit_identical_to_greedy_past_threshold(self, spec, ks):
        g = parse_graph_spec(spec)
        for k in ks:
            assert not sliced(_plan(g, k))
            w = random_graphon(k, seed=k)
            ref = float(greedy_einsum(g, [w.masses] * g.vertex_count, w.weights))
            assert_matches_greedy(density(g, w), ref)
            rng = np.random.default_rng(k)
            t = random_pattern(k, rng.random(k * (k - 1) // 2) < 0.4)
            ones = np.ones(k, dtype=np.int64)
            assert hom_count(g, t) == int(greedy_einsum(g, [ones] * g.vertex_count, t.adjacency()))

    def test_one_replay_slices_per_block_count(self):
        g = complete(5)
        with replays() as calls:
            assert not sliced(_plan(g, 7))  # 7**5 < 2**15
            assert sliced(_plan(g, 32))
            # K5's replay on 2 blocks serves both; the others are the K4 left
            # by slicing, sliced too on 32 blocks, and the K3 left by that.  On
            # 32 blocks greedy does not go on past its give-up point (32**3 = 2**15)
            assert _replay.cache_info().misses == 3
        assert [(k, limit) for _, k, limit in calls] == [(2, None)] * 3

    @pytest.mark.parametrize("spec", ["P3", "C4", "S4", "paw", "K[2,3]"])
    def test_no_give_up_join_never_slices(self, spec):
        g = parse_graph_spec(spec)
        with slice_at(1):
            for k in (1, *BLOCK_COUNTS):
                assert _replay(g, min(k, 2)).join is None
                assert not sliced(_plan(g, k))

    def test_pair_shapes_are_tuples(self):
        # one replay's steps serve every block count from 2 on
        joins = set()

        def check(plan):
            for step in plan.steps:
                if type(step) is _Sliced:
                    for _, part in step.parts:
                        check(part)
                elif type(step) is _Pair:
                    joins.add(step.join)
                    for shape in (step.shape_a, step.shape_b, step.shape):
                        assert shape is None or type(shape) is tuple

        for spec in PLAN_PATTERNS:
            g = parse_graph_spec(spec)
            for k in (1, 2, 3, 20, 40):
                check(_plan(g, k))
                check(_replay(g, min(k, 2)))
        assert joins == {np.matmul, np.multiply}


class TestClamp:
    @pytest.mark.parametrize("t", [1 + 1e-9, -1e-9, math.nan])
    def test_out_of_range_raises(self, monkeypatch, t):
        monkeypatch.setattr(density_module, "_contract", lambda *args: t)
        with pytest.raises(DiscrepancyError):
            density(path(1), WeightedGraph.constant(0.5))

    @pytest.mark.parametrize("t,clamped", [(1 + 1e-13, 1.0), (-1e-13, 0.0)])
    def test_float_noise_clamped(self, monkeypatch, t, clamped):
        monkeypatch.setattr(density_module, "_contract", lambda *args: t)
        assert density(path(1), WeightedGraph.constant(0.5)) == clamped


class TestSpectral:
    def test_cycle_identity(self):
        for i, w in enumerate(graphons(30, seed=5)):
            for k in range(3, 9):
                assert cycle_density_spectral(k, w) == pytest.approx(
                    density(cycle(k), w), rel=1e-9, abs=1e-12
                )

    def test_spectrum_of_constant(self):
        lam = spectrum(WeightedGraph.constant(0.4))
        assert lam.shape == (1,)
        assert lam[0] == pytest.approx(0.4)

    def test_even_trace_power_dominates(self):
        for w in graphons(10, seed=9):
            assert cycle_density_spectral(4, w) >= -1e-15


class TestGeneralizedDensities:
    def test_star_matches_plain_star(self):
        for w in graphons(10, seed=21):
            for t in (1, 2, 3):
                assert generalized_star_density(1, t, w) == pytest.approx(
                    density(star(t), w), rel=1e-10
                )

    def test_star_two_centers_is_bipartite(self):
        for w in graphons(10, seed=22):
            assert generalized_star_density(2, 2, w) == pytest.approx(
                density(multipartite([2, 2]), w), rel=1e-10
            )

    def test_star_zero_exponent_is_one(self):
        w = WeightedGraph.constant(0.0)
        assert generalized_star_density(2, 0, w) == pytest.approx(1.0)

    def test_star_validation(self):
        w = WeightedGraph.constant(0.5)
        with pytest.raises(DomainError):
            generalized_star_density(0, 1, w)
        with pytest.raises(DomainError):
            generalized_star_density(1, -1, w)

    def test_path_integer_endpoints_match_plain_paths(self):
        for w in graphons(10, seed=31):
            for r in (1, 2, 3):
                assert generalized_path_density(0, r, 0, w) == pytest.approx(
                    density(path(r), w), rel=1e-10
                )
                # a full pendant edge at one endpoint extends the path
                assert generalized_path_density(0, r, 1, w) == pytest.approx(
                    density(path(r + 1), w), rel=1e-10
                )

    def test_path_validation(self):
        w = WeightedGraph.constant(0.5)
        with pytest.raises(DomainError):
            generalized_path_density(1.5, 1, 0, w)
        with pytest.raises(DomainError):
            generalized_path_density(0, -1, 0, w)


def star_density_per_tuple(n, x, w):
    """generalized_star_density as a loop over the centre tuples, one tuple
    and n + 2 numpy calls at a time: the reference for its bits."""
    k = w.block_count
    total = 0.0
    for tup in itertools.product(range(k), repeat=n):
        mu = 1.0
        prod = np.ones(k)
        for b in tup:
            mu *= w.masses[b]
            prod = prod * w.weights[b]
        d = float(np.dot(w.masses, prod))
        total += mu * (1.0 if x == 0 else d**x)
    return float(total)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_star_density_is_the_per_tuple_loop(k, n, x, zeros, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(k) + 0.05
    masses /= masses.sum()
    upper = np.triu(rng.random((k, k)) * (rng.random((k, k)) >= zeros))
    w = WeightedGraph(masses, upper + np.triu(upper, 1).T)  # zeros == 1: no edge
    assert generalized_star_density(n, x, w) == star_density_per_tuple(n, x, w)


def test_star_density_memory_is_bounded():
    # 8**6 = 262,144 centre tuples; their weight-row products alone would
    # take 16.8 MB at once
    w = sample_weighted_graph("uniform", 8, 7)
    tracemalloc.start()
    try:
        generalized_star_density(6, 1.5, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


class TestCombinatorialIndices:
    def test_delta_index_examples(self):
        assert delta_index(complete(3), 1) == 0
        assert delta_index(path(2), 1) == 1  # both endpoints vs the center
        assert delta_index(star(4), 1) == 3  # all leaves vs the center
        assert delta_index(star(4), 2) == 2
        assert delta_index(Graph.from_edges(6, [(0, 1)]), 1) == 4

    def test_independence_number_examples(self):
        assert independence_number(complete(5)) == 1
        assert independence_number(cycle(5)) == 2
        assert independence_number(cycle(6)) == 3
        assert independence_number(star(7)) == 7
        assert independence_number(multipartite([4, 3])) == 4

    @staticmethod
    def assert_match_oracles(g):
        for i in (1, 2, 3):
            assert delta_index(g, i) == delta_oracle(g, i), (g, i)
        assert independence_number(g) == independence_oracle(g), g

    def test_every_graph_up_to_5_vertices(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for keep in itertools.product((False, True), repeat=len(pairs)):
                self.assert_match_oracles(Graph.from_edges(n, itertools.compress(pairs, keep)))

    def test_random_graphs_of_6_to_13_vertices(self):
        rng = random.Random(31)
        for n in [6, 7, 8, 9, 10, 11, 12, 13] * 4:
            p = rng.random()
            pairs = itertools.combinations(range(n), 2)
            self.assert_match_oracles(Graph.from_edges(n, [e for e in pairs if rng.random() < p]))

    def test_long_path_takes_no_recursion(self):
        g = parse_graph_spec("P5000")  # 5001 vertices, one bipartite component
        start = time.perf_counter()
        assert delta_index(g, 1) == 1  # one vertex left out of a perfect matching
        assert independence_number(g) == 2501
        assert time.perf_counter() - start < 1

    def test_the_cap_holds_only_non_bipartite_components(self):
        assert independence_number(parse_graph_spec("P30")) == 16
        assert independence_number(parse_graph_spec("5xC9")) == 20
        assert independence_number(Graph.from_edges(60, [])) == 60
        with pytest.raises(EnumerationCapError, match="25 vertices exceed the independence cap 24"):
            independence_number(disjoint_union(cycle(25), path(40)))
        assert independence_number(disjoint_union(cycle(25), path(40)), vertex_cap=25) == 12 + 21


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=2, max_value=4))
def test_density_oracle_agreement_random(seed, size):
    w = sample_weighted_graph("uniform", size, seed)
    for g in (cycle(3), path(4), star(2)):
        assert density(g, w) == pytest.approx(density_oracle(g, w), rel=1e-12)
