import importlib
import importlib.util
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import blowup_oracle

from rhokit import (
    DomainError,
    blowup_upper_bound,
    complete,
    cycle,
    finiteness,
    general_lower_bounds,
    hom_count,
    majorization_chain,
    majorizes,
    multipartite,
    parse_graph_spec,
    part_sizes,
    path,
    rho_exact,
)
from rhokit.catalog import RhoResult, _isomorphic, _rho_stage
from rhokit.graphs import Graph, _parse_spec, is_bipartite

# the module, not a function of the package
catalog_module = importlib.import_module("rhokit.catalog")


def cold_catalog():
    """Clear the catalog's per-pair cache, so the next lookups run cold."""
    _rho_stage.cache_clear()


def layers():
    """tools/layers.py as a module; its timing runs only as a script."""
    path = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
    spec = importlib.util.spec_from_file_location("layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMajorization:
    def test_part_sizes_normalization(self):
        assert part_sizes([1, 3, 0, 2]) == (3, 2, 1, 0)
        with pytest.raises(DomainError):
            part_sizes([0, 0])
        with pytest.raises(DomainError):
            part_sizes([-1, 2])

    def test_majorizes_basics(self):
        assert majorizes((4, 1, 1), (2, 2, 2))
        assert majorizes((3, 3), (3, 3))
        assert not majorizes((2, 2, 2), (4, 1, 1))
        assert not majorizes((3, 2, 1), (4, 1, 1))

    def test_majorizes_requires_equal_totals(self):
        with pytest.raises(DomainError):
            majorizes((3, 1), (2, 1))

    def test_chain_endpoints_and_steps(self):
        chain = majorization_chain((4, 1, 1), (2, 2, 2))
        assert chain == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
        for a, b in zip(chain, chain[1:]):
            assert majorizes(a, b)
            diffs = [x - y for x, y in zip(a, b)]
            assert sum(abs(d) for d in diffs) == 2  # one unit moved

    def test_chain_trivial(self):
        assert majorization_chain((3, 2), (3, 2)) == [(3, 2)]

    def test_chain_rejects_incomparable(self):
        with pytest.raises(DomainError):
            majorization_chain((2, 2, 2), (4, 1, 1))


class TestFinitenessAndBounds:
    def test_finiteness(self):
        assert finiteness("K3", "K2")
        assert not finiteness("K2", "K3")  # no triangle maps into an edge
        assert finiteness("C4", "C6")
        assert not finiteness("C4", "C5")  # odd cycle needs an odd cycle
        with pytest.raises(DomainError):
            finiteness("3xK1" if False else parse_graph_spec("2xK1"), "K2")

    def test_bipartiteness_rule_on_small_graphs(self):
        # every pair of graphs on at most 4 vertices, up to isomorphism,
        # where G has an edge
        nx = pytest.importorskip("networkx")
        atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() <= 4]
        graphs = [Graph.from_edges(a.number_of_nodes(), a.edges()) for a in atlas]
        assert len(graphs) == 19
        for g in graphs:
            if g.edge_count:
                for h in graphs:
                    assert finiteness(g, h) == (hom_count(h, g) > 0), (g, h)

    def test_cold_grid_counts_only_odd_pairs(self, monkeypatch):
        calls = []

        def counted(h, g):
            calls.append((h, g))
            return hom_count(h, g)

        monkeypatch.setattr(catalog_module, "hom_count", counted)
        cold_catalog()
        rho_grid()
        assert calls and all(not is_bipartite(h) and not is_bipartite(g) for h, g in calls)
        assert len(calls) <= 24  # 236 before bipartiteness settled finiteness

    def test_general_lower_bounds(self):
        # edges ratio dominates for (P1, P2); vertices ratio for (K3, K2)... etc.
        assert general_lower_bounds("P1", "P2") == Fraction(2)
        assert general_lower_bounds("C3", "C4") >= Fraction(4, 3)
        assert general_lower_bounds("K3", "K2") >= Fraction(1, 3)

    def test_blowup_upper(self):
        assert blowup_upper_bound(complete(2), cycle(4)) == Fraction(4)
        assert blowup_upper_bound(complete(3), multipartite([2, 1, 1])) == Fraction(2)
        assert blowup_upper_bound(complete(3), complete(3)) == Fraction(1)

    @pytest.mark.parametrize("h", ["P9", "C10"])
    def test_blowup_upper_on_long_targets(self, h):
        # the least split of the 10 vertices over K5 is 5, 2, 1, 1, 1: one
        # vertex of K5 takes every other vertex of H
        assert blowup_upper_bound("K5", h) == Fraction(10)

    @pytest.mark.parametrize("g,h,value", [("K6", "P12", 14), ("K4", "P8", 10)])
    def test_pigeonhole_cut_ends_the_search(self, g, h, value):
        # K6/P12 spent the whole budget before the cut: 7 vertices of P12 on
        # one vertex of K6 and the other 6 on 2, 1, 1, 1, 1
        assert blowup_upper_bound(g, h) == Fraction(value)

    @pytest.mark.parametrize("g,h,value", [("K6", "P16", 36), ("K[3,3]", "P22", 90)])
    def test_twin_rule_ends_the_search(self, g, h, value):
        # every vertex of K6 is a twin of every other, and K[3,3]'s sides are
        # classes of twins: both spent the whole budget before the twin rule
        start = time.perf_counter()
        assert blowup_upper_bound(g, h) == Fraction(value)
        assert time.perf_counter() - start < 0.5

    def test_blowup_budget_spent(self):
        assert blowup_upper_bound("K3", "C4", budget=0) is None
        assert blowup_upper_bound("K3", "C4") == Fraction(2)

    def test_long_patterns_take_no_recursion(self):
        # 1501 vertices of H placed one deep on the search's stack: K2 takes
        # the two sides, 751 and 750; K3 spends a small budget past that depth
        assert blowup_upper_bound("K2", "P1500") == Fraction(751 * 750)
        assert blowup_upper_bound("K3", "P1500", budget=10_000) is None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.booleans(), min_size=15, max_size=15),
    st.integers(min_value=1, max_value=4),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_blowup_upper_matches_oracle(nh, keep_h, ng, keep_g):
    h = Graph.from_edges(nh, [e for e, k in zip(itertools.combinations(range(nh), 2), keep_h) if k])
    g = Graph.from_edges(ng, [e for e, k in zip(itertools.combinations(range(ng), 2), keep_g) if k])
    assert blowup_upper_bound(g, h) == blowup_oracle(g, h)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.lists(st.booleans(), min_size=21, max_size=21),
    st.integers(min_value=2, max_value=7),
    st.lists(st.booleans(), min_size=21, max_size=21),
)
def test_bipartiteness_rule_matches_hom_count(nh, keep_h, ng, keep_g):
    h = Graph.from_edges(nh, [e for e, k in zip(itertools.combinations(range(nh), 2), keep_h) if k])
    g_edges = [e for e, k in zip(itertools.combinations(range(ng), 2), keep_g) if k]
    g = Graph.from_edges(ng, g_edges or [(0, 1)])
    assert finiteness(g, h) == (hom_count(h, g) > 0)


class TestRhoResult:
    def test_exact_forces_bracket(self):
        r = RhoResult("exact", value=Fraction(3, 4))
        assert r.lower == r.upper == Fraction(3, 4)

    def test_interval_order_checked(self):
        with pytest.raises(DomainError):
            RhoResult("interval", lower=Fraction(2), upper=Fraction(1))

    @pytest.mark.parametrize(
        "status,value,lower,upper",
        [("unknown", None, 2, 1), ("conjectured", 1, 2, None)],
    )
    def test_open_bracket_order_checked(self, status, value, lower, upper):
        with pytest.raises(DomainError):
            RhoResult(status, value, lower, upper)

    @pytest.mark.parametrize(
        "status,value,lower,upper",
        [("unknown", None, 1, 1), ("unknown", None, 2, None), ("conjectured", 2, 2, None)],
    )
    def test_open_bracket_may_meet(self, status, value, lower, upper):
        r = RhoResult(status, value, lower, upper)
        assert (r.value, r.lower, r.upper) == (value, lower, upper)

    def test_json_rationals(self):
        j = RhoResult("exact", value=Fraction(8, 5)).to_json()
        assert j["value"] == 1.6
        assert j["value_exact"] == "8/5"

    def test_interval_may_leave_an_end_unset(self):
        r = RhoResult("interval", upper=Fraction(1))
        assert r.lower is None and r.upper == 1

    def test_infinite_json_has_no_tokens(self):
        j = RhoResult("infinite").to_json()
        assert j["status"] == "infinite"
        assert j["lower"] is None


SPOT_TABLE = [
    # (G, H, status, value or (lower, upper), required provenance tag)
    ("P1", "P2", "exact", Fraction(2), "paths-exact"),
    ("P2", "P3", "exact", Fraction(2), "paths-exact"),
    ("P3", "P2", "exact", Fraction(3, 4), "paths-exact"),
    ("C5", "C4", "exact", Fraction(4, 5), "even-cycles-spectral"),
    ("C4", "P2", "exact", Fraction(3, 4), "cycle-vs-path"),
    ("C3", "P4", "exact", Fraction(2), "cycle-vs-path"),
    ("P2", "C4", "exact", Fraction(2), "path-vs-even-cycle"),
    ("K3", "K2", "exact", Fraction(2, 3), "complete-kruskal-katona"),
    ("K[2,1]", "K[3,2]", "exact", Fraction(3), "bipartite-case-1"),
    ("K3", "Khub[1,1,1]", "exact", Fraction(4), "hub-clique"),
    ("K[2,2,1]", "K[3,1,1]", "exact", Fraction(1), "multipartite-majorization"),
    ("K2", "K3", "infinite", None, "infinite-no-hom"),
    ("C3", "C4", "interval", (Fraction(3, 2), Fraction(8, 5)), "cycle-in-even-cycle"),
    ("P5", "P3", "interval", (Fraction(7, 10), Fraction(3, 4)), "paths-open"),
    ("paw", "C4", "exact", Fraction(4, 3), "paw-square"),
]


class TestCatalog:
    @pytest.mark.parametrize("g,h,status,val,tag", SPOT_TABLE)
    def test_spot_table(self, g, h, status, val, tag):
        res = rho_exact(g, h)
        assert res.status == status
        if status == "exact":
            assert res.value == val
        elif status == "interval":
            assert (res.lower, res.upper) == val
        assert tag in res.provenance

    def test_identity(self):
        res = rho_exact("C7", "C7")
        assert res.status == "exact" and res.value == 1
        assert "identity" in res.provenance

    def test_edgeless_target(self):
        res = rho_exact("K2", "3xK1")
        assert res.status == "exact" and res.value == 0
        assert "edgeless-target" in res.provenance

    def test_edgeless_base_rejected(self):
        with pytest.raises(DomainError):
            rho_exact("2xK1", "K2")

    def test_graph_inputs_accepted(self):
        assert rho_exact(path(1), path(2)).value == Fraction(2)

    def test_interval_invariant(self):
        for g, h in (("C3", "C6"), ("P7", "P4"), ("C3", "C7")):
            res = rho_exact(g, h)
            if res.status == "interval":
                assert res.lower <= res.upper

    def test_odd_cycle_pair(self):
        res = rho_exact("C3", "C5")
        assert res.lower >= Fraction(2)
        assert res.upper == Fraction(3)

    def test_bipartite_cases_2_to_5(self):
        assert rho_exact("K[3,2]", "K[2,3]" if False else "K[2,2]").status in ("exact",)
        assert rho_exact("K[3,1]", "K[2,2]").value == Fraction(2)  # case 2
        assert rho_exact("K[3,3]", "K[2,2]").value == Fraction(2, 3)  # case 3
        assert rho_exact("K[2,2]", "K[3,1]").value == Fraction(4, 4)  # case 4
        assert rho_exact("K[2,2]", "K[4,1]").value == Fraction(4, 3)  # case 5

    def test_bipartite_case_4_when_totals_match(self):
        assert rho_exact("K[3,3]", "K[4,2]").value == Fraction(1)  # case 4

    def test_bipartite_conjecture_flagged(self):
        res = rho_exact("K[3,3]", "K[5,2]")
        assert res.status == "conjectured"
        assert "bipartite-conjecture" in res.provenance
        assert res.value is not None

    def test_paths_divisible_case_exact(self):
        res = rho_exact("P7", "P3")  # 4 divides 8: subdivision argument closes it
        assert res.status == "exact"
        assert res.value == Fraction(1, 2)

    def test_paths_open_case_brackets(self):
        res = rho_exact("P7", "P5")
        assert res.status == "interval"
        assert "paths-open" in res.provenance
        assert res.lower >= Fraction(5, 7)
        assert res.upper <= Fraction(1)

    def test_composition_can_tighten(self):
        # the pair's own lookup stops at the blowup's upper end; composition
        # through an intermediate lowers it, and on P3/K[2,3] meets the lower end
        for g, h, stage_upper, status, upper in (
            ("K2", "3xK2", 9, "unknown", 6),
            ("P3", "K[2,3]", 3, "exact", 2),
        ):
            stage, _ = _rho_stage(parse_graph_spec(g), parse_graph_spec(h))
            res = rho_exact(g, h)
            assert stage.upper == stage_upper > res.upper == upper, (g, h)
            assert res.status == status
            assert "composition-upper" in res.provenance

    def test_composition_subquery_is_cache_hit(self):
        rho_exact("C4", "C6")  # an interval, so the composition scan asks rho(C4, P4)
        before = _rho_stage.cache_info()
        _rho_stage(parse_graph_spec("C4"), parse_graph_spec("P4"))
        after = _rho_stage.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize(
        "g,h,value",
        [("K4", "P3", Fraction(1)), ("K4", "P5", Fraction(5, 3)), ("3xK2", "K[2,3]", Fraction(2))],
    )
    def test_closed_bracket_is_exact(self, g, h, value):
        res = rho_exact(g, h)
        assert res.status == "exact" and res.value == value
        assert {"construction-lower", "blowup-upper"} <= set(res.provenance)

    def test_exact_pair_skips_the_universal_lower_bound(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            catalog_module, "general_lower_bounds", lambda g, h: calls.append((g, h))
        )
        cold_catalog()
        assert rho_exact("K3", "K2").status == "exact"
        assert calls == []

    def test_tightening_parses_nothing(self, monkeypatch):
        calls = []

        def parse(text):
            calls.append(text)
            return parse_graph_spec(text)

        monkeypatch.setattr(catalog_module, "parse_graph_spec", parse)
        monkeypatch.setattr("rhokit.graphs.parse_graph_spec", parse)
        cold_catalog()
        res = rho_exact(parse_graph_spec("C3"), parse_graph_spec("C4"))
        # an interval, so rho_exact ran its composition scan
        assert (res.status, res.lower, res.upper) == ("interval", Fraction(3, 2), Fraction(8, 5))
        assert calls == []

    def test_spent_blowup_budget_is_tagged(self, monkeypatch):
        # with no budget the blowup search gives up on K6/P16; composition,
        # through other pairs searched in full, still closes it
        blowup = catalog_module.blowup_upper_bound
        pair = parse_graph_spec("K6"), parse_graph_spec("P16")

        def spent(g, h):
            return blowup(g, h, 0) if (g, h) == pair else blowup(g, h)

        monkeypatch.setattr(catalog_module, "blowup_upper_bound", spent)
        cold_catalog()
        try:
            res = rho_exact("K6", "P16")
        finally:
            cold_catalog()  # drop the lookups made without a budget
        assert "blowup-budget-exhausted" in res.provenance
        assert "blowup-upper" not in res.provenance
        assert res.status == "exact" and res.value == Fraction(16, 5)


# The benchmark's catalog spec grid; tests/data/rho_grid.json holds
# rho_exact(G, H).to_json() for every (G, H) over it, in grid order.
# tests/data/rho_grid_26.json does the same over 26 specs that add paths,
# cycles, stars, tails, bipartite and tripartite graphs.  Regenerate both
# with `PYTHONPATH=src python tests/test_catalog.py` after a deliberate
# catalog change, and say which pairs moved.
GRID_SPECS = ("K2", "P3", "P5", "C3", "C4", "K4", "paw", "K[2,3]", "Khub[1,1,1]", "3xK2")
GRID_FILE = Path(__file__).parent / "data" / "rho_grid.json"
GRID_26_SPECS = (
    "K2", "P2", "P3", "P4", "P5", "C3", "C4", "C5", "C6", "K4", "paw", "K[2,3]", "K[2,2]",
    "K[3,3]", "K[2,1]", "Khub[1,1,1]", "3xK2", "S3", "S4", "Gtail[1,2]", "Gtail[2,1]",
    "K[2,2,1]", "K[3,1,1]", "2xK3", "C8", "P8",
)  # fmt: skip
GRID_26_FILE = Path(__file__).parent / "data" / "rho_grid_26.json"
GRIDS = ((GRID_FILE, GRID_SPECS), (GRID_26_FILE, GRID_26_SPECS))


def rho_grid(specs=GRID_SPECS):
    return [{"g": g, "h": h, "result": rho_exact(g, h).to_json()} for g in specs for h in specs]


def check_grid(path, specs):
    expected = json.loads(path.read_text())
    got = rho_grid(specs)
    assert [(e["g"], e["h"]) for e in expected] == [(e["g"], e["h"]) for e in got]
    for want, have in zip(expected, got):
        assert have["result"] == want["result"], (have["g"], have["h"])


def test_rho_grid_matches_golden_file():
    check_grid(GRID_FILE, GRID_SPECS)


def test_rho_grid_26_matches_golden_file():
    check_grid(GRID_26_FILE, GRID_26_SPECS)


def relabelled(spec, rng):
    g = parse_graph_spec(spec)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_relabelling_keeps_every_grid_result():
    # a relabelled graph is a new cache key, so each pair is looked up again
    rng = random.Random(7)
    for g, h in itertools.product(GRID_SPECS, repeat=2):
        want = rho_exact(g, h).to_json()
        assert rho_exact(relabelled(g, rng), relabelled(h, rng)).to_json() == want, (g, h)


# a cold pass's _isomorphic and _least_blowup calls, and its breadth-first
# searches (one per distinct graph: the specs and the composition
# intermediates), per grid
COLD_PASS_SEARCHES = {GRID_SPECS: (190, 70, 15), GRID_26_SPECS: (676, 269, 26)}


@pytest.mark.parametrize("specs,hom_pairs", [(GRID_SPECS, 19), (GRID_26_SPECS, 90)])
def test_cold_pass_does_each_piece_once(specs, hom_pairs, monkeypatch):
    # a cold pass as tools/layers.py's catalog section times it: each pair's
    # own lookup, read by its top-level lookup and by composition scans
    # alike, runs one blowup search, one finiteness test and one isomorphism
    # test, and each spec string is parsed once.  _least_blowup runs for each
    # blowup search and for each isomorphism test that gets as far as a map
    # search, and each graph is walked once.
    tool = layers()
    assert {_rho_stage, _parse_spec} <= set(tool.caches())
    searched, counted = Counter(), Counter()
    blowup, hom = catalog_module.blowup_upper_bound, catalog_module.hom_count

    def blowup_counted(g, h):
        searched[g, h] += 1
        return blowup(g, h)

    def hom_counted(h, g):
        counted[h, g] += 1
        return hom(h, g)

    monkeypatch.setattr(catalog_module, "blowup_upper_bound", blowup_counted)
    monkeypatch.setattr(catalog_module, "hom_count", hom_counted)
    calls = tool.call_counts(specs)
    assert calls["_isomorphic"] == calls["_rho_stage"]
    searches = calls["_isomorphic"], calls["_least_blowup"], calls["breadth_first"]
    assert searches == COLD_PASS_SEARCHES[specs]
    assert searched and set(searched.values()) == {1}
    assert counted and set(counted.values()) == {1}
    assert len(counted) == hom_pairs
    assert _parse_spec.cache_info().misses == len(specs)


def test_harness_finds_every_cache():
    # the caches a cold pass clears are found, not named: as many as there
    # are functools cache decorators in rhokit's source
    source = Path(catalog_module.__file__).parent
    pattern = re.compile(r"^\s*@functools\.(lru_cache|cache)\b", re.MULTILINE)
    decorators = sum(len(pattern.findall(p.read_text())) for p in source.glob("*.py"))
    assert decorators > 0 and len(layers().caches()) == decorators


CUBIC_16_A = [
    (0, 2), (0, 7), (0, 10), (1, 3), (1, 11), (1, 13), (2, 13), (2, 15),
    (3, 11), (3, 12), (4, 7), (4, 8), (4, 14), (5, 8), (5, 9), (5, 12),
    (6, 9), (6, 10), (6, 11), (7, 10), (8, 14), (9, 14), (12, 15), (13, 15),
]  # fmt: skip
CUBIC_16_B = [
    (0, 3), (0, 8), (0, 15), (1, 3), (1, 9), (1, 14), (2, 4), (2, 11),
    (2, 14), (3, 6), (4, 7), (4, 12), (5, 7), (5, 9), (5, 10), (6, 10),
    (6, 15), (7, 15), (8, 11), (8, 13), (9, 10), (11, 12), (12, 13), (13, 14),
]  # fmt: skip


class TestIsomorphism:
    def test_matches_networkx_on_atlas(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(0)
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 6]
        pairs = 0
        for i, a in enumerate(atlas):
            for b in atlas[i:]:
                if (a.number_of_nodes(), a.number_of_edges()) != (
                    b.number_of_nodes(),
                    b.number_of_edges(),
                ):
                    continue
                pairs += 1
                ga = Graph.from_edges(a.number_of_nodes(), a.edges())
                gb = Graph.from_edges(b.number_of_nodes(), b.edges())
                perm = list(range(gb.vertex_count))
                rng.shuffle(perm)
                expected = nx.is_isomorphic(a, b)
                assert _isomorphic(ga, gb) == expected
                assert _isomorphic(ga, gb.relabel(perm)) == expected
        assert pairs > 1000

    @pytest.mark.parametrize("g, h", [("C6", "2xC3"), ("C8", "2xC4")])
    def test_regular_equal_degree_pairs(self, g, h):
        a, b = parse_graph_spec(g), parse_graph_spec(h)
        assert not _isomorphic(a, b) and not _isomorphic(b, a)
        assert _isomorphic(a, a.relabel(list(reversed(range(a.vertex_count)))))

    def test_large_regular_pairs(self):
        # two random cubic graphs on 16 vertices: all colours agree, so only
        # the map search tells them apart
        a = Graph.from_edges(16, CUBIC_16_A)
        b = Graph.from_edges(16, CUBIC_16_B)
        perm = list(range(16))
        random.Random(6).shuffle(perm)
        c40, c20s = parse_graph_spec("C40"), parse_graph_spec("2xC20")
        start = time.perf_counter()
        assert _isomorphic(a, a.relabel(perm)) and _isomorphic(a.relabel(perm), a)
        assert not _isomorphic(a, b) and not _isomorphic(b, a)
        assert not _isomorphic(c40, c20s) and not _isomorphic(c20s, c40)
        assert time.perf_counter() - start < 0.5

    def test_long_relabelled_paths(self):
        # the map search places all 1500 vertices one deep on its stack
        a = path(1499)
        b = a.relabel([(v + 700) % 1500 for v in range(1500)])
        assert a.edges != b.edges and _isomorphic(a, b)

    def test_paths_labelled_from_the_middle(self):
        # degrees put every inner vertex in one class, so a map search from
        # the middle vertex refuted each wrong image only deep down; colour
        # refinement leaves classes of two, the vertices at equal distance
        # from the ends
        a = path(599)
        b = a.relabel([(v + 300) % 600 for v in range(600)])
        start = time.perf_counter()
        assert _isomorphic(b, a) and _isomorphic(a, b)
        assert time.perf_counter() - start < 5

    def test_graphs_full_of_twins(self):
        # a windmill's triangles are swapped by automorphisms, K[3,3]'s sides
        # and 10xK2's edges are classes of twins; the prism has the degrees
        # of K[3,3] and no twins
        def windmill(blades):
            tips = [(2 * i + 1, 2 * i + 2) for i in range(blades)]
            return Graph.from_edges(2 * blades + 1, tips + [(0, v) for e in tips for v in e])

        prism = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        rng = random.Random(3)
        start = time.perf_counter()
        for g in (windmill(6), windmill(8), parse_graph_spec("K[3,3]"), parse_graph_spec("10xK2")):
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert _isomorphic(g, g.relabel(perm)) and _isomorphic(g.relabel(perm), g)
        k33 = parse_graph_spec("K[3,3]")
        assert not _isomorphic(k33, prism) and not _isomorphic(prism, k33)
        assert time.perf_counter() - start < 0.5

    def test_import_leaves_networkx_out(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        code = "import sys, rhokit; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


if __name__ == "__main__":
    GRID_FILE.parent.mkdir(exist_ok=True)
    for path, specs in GRIDS:
        path.write_text("[\n" + ",\n".join(map(json.dumps, rho_grid(specs))) + "\n]\n")
