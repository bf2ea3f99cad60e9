import io
import itertools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rhokit import (
    DomainError,
    EnumerationCapError,
    Graph,
    GraphSpecError,
    WeightedGraph,
    blowup,
    complete,
    cycle,
    cycle_tail,
    disjoint_union,
    hub,
    independence_number,
    multipartite,
    parse_graph_spec,
    part_sizes,
    path,
    paw,
    star,
)
from rhokit.graphs import (
    as_complete,
    as_cycle,
    as_hub,
    as_multipartite,
    as_path,
    as_star,
    is_bipartite,
    is_paw,
    parse_count,
    _parse_spec,
)


class TestGraph:
    def test_canonical_edge_orientation(self):
        g = Graph.from_edges(3, [(2, 0), (1, 0)])
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_rejects_loops(self):
        with pytest.raises(DomainError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Graph.from_edges(2, [(0, 2)])

    def test_numpy_integer_labels_become_ints(self):
        g = Graph.from_edges(3, [(np.int64(2), np.int64(0)), (np.int32(1), 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert all(type(v) is int for e in g.edges for v in e)

    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0, 1.0), (0, "1"), (0, None)])
    def test_rejects_non_integer_labels(self, edge):
        with pytest.raises(DomainError, match="non-integer vertex label"):
            Graph.from_edges(3, [edge])

    def test_degrees_and_neighbors(self):
        g = star(3)
        assert g.degrees() == [3, 1, 1, 1]
        assert g.neighbors(0) == {1, 2, 3}
        assert g.neighbors(2) == {0}

    def test_connectivity(self):
        assert path(4).is_connected()
        assert not disjoint_union(path(1), path(1)).is_connected()
        assert Graph.from_edges(1, []).is_connected()

    def test_isolated_vertices_allowed(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert g.vertex_count == 5
        assert g.edge_count == 1


class TestFamilies:
    def test_counts(self):
        assert (path(3).vertex_count, path(3).edge_count) == (4, 3)
        assert (cycle(5).vertex_count, cycle(5).edge_count) == (5, 5)
        assert (complete(4).vertex_count, complete(4).edge_count) == (4, 6)
        assert (star(4).vertex_count, star(4).edge_count) == (5, 4)
        assert multipartite([2, 2]).edge_count == 4
        assert multipartite([3, 2, 1]).edge_count == 3 * 2 + 3 * 1 + 2 * 1
        assert paw().edge_count == 4

    def test_hub_shape(self):
        g = hub([1, 1, 1])
        # triangle plus three pendants, each adjacent to two clique vertices
        assert g.vertex_count == 6
        assert g.edge_count == 3 + 3 * 2
        assert sorted(g.degrees()) == [2, 2, 2, 4, 4, 4]

    def test_cycle_tail_shape(self):
        g = cycle_tail(2, 3)
        assert g.vertex_count == 8
        assert g.edge_count == 8
        assert sorted(g.degrees()) == [1, 2, 2, 2, 2, 2, 2, 3]

    def test_family_bounds(self):
        for bad in (lambda: path(0), lambda: cycle(2), lambda: complete(0), lambda: star(0)):
            with pytest.raises(DomainError):
                bad()


def _multipartite_reference(sizes):
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    return Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                if part[u] != part[v]])


def _hub_reference(sizes):
    n = len(sizes)
    edges = list(itertools.combinations(range(n), 2))
    pendants = [i for i, a in enumerate(sizes) for _ in range(a)]
    for p, i in enumerate(pendants, start=n):
        edges += [(j, p) for j in range(n) if j != i]
    return Graph.from_edges(n + len(pendants), edges)


def _cycle_tail_reference(k, ell):
    m = 2 * k + 1
    tail = [0] + list(range(m, m + ell))
    return Graph.from_edges(m + ell, [(i, (i + 1) % m) for i in range(m)] + list(zip(tail, tail[1:])))


class TestFamilyCache:
    """Each family builds its graph once per argument set, like parse_graph_spec."""

    REFERENCES = (
        [(path, (m,), Graph.from_edges(m + 1, [(i, i + 1) for i in range(m)])) for m in range(1, 7)]
        + [(cycle, (m,), Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)]))
           for m in range(3, 8)]
        + [(complete, (n,), Graph.from_edges(n, itertools.combinations(range(n), 2)))
           for n in range(1, 6)]
        + [(star, (t,), Graph.from_edges(t + 1, [(0, i) for i in range(1, t + 1)]))
           for t in range(1, 6)]
        + [(multipartite, (a,), _multipartite_reference(a))
           for a in ([1], [2, 3], [3, 2], [1, 1, 1], [2, 2, 1], [4, 1, 2, 1])]
        + [(hub, (a,), _hub_reference(a))
           for a in ([0], [2], [1, 0], [1, 1, 1], [2, 0, 1], [0, 1, 0, 2])]
        + [(cycle_tail, (k, ell), _cycle_tail_reference(k, ell))
           for k in (1, 2, 3) for ell in (0, 1, 3)]
        + [(paw, (), Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]))]
    )

    @pytest.mark.parametrize("family,args,reference", REFERENCES)
    def test_each_family_equals_a_fresh_reference(self, family, args, reference):
        g = family(*args)
        assert g == reference
        assert type(g.vertex_count) is int
        assert family(*args) is g

    def test_lists_and_tuples_share_a_graph(self):
        assert multipartite([2, 3]) is multipartite((2, 3))
        assert multipartite([2, 0, 3]) is multipartite((2, 3))
        assert hub([1, 0, 2]) is hub((1, 0, 2))

    def test_numpy_integers_share_a_graph(self):
        assert path(np.int64(3)) is path(3)
        assert cycle(np.int32(5)) is cycle(5)
        assert complete(np.uint8(4)) is complete(4)
        assert star(np.int16(2)) is star(2)
        assert multipartite(np.array([2, 3])) is multipartite([2, 3])
        assert hub([np.int64(1), 1]) is hub((1, 1))
        assert cycle_tail(np.int64(2), np.int8(1)) is cycle_tail(2, 1)
        assert type(path(np.int64(3)).vertex_count) is int

    @pytest.mark.parametrize(
        "family,good,bad",
        [
            (path, (3,), (3.0,)),
            (path, (3,), (np.float64(3.0),)),
            (path, (3,), (Fraction(3),)),
            (path, (3,), ("3",)),
            (cycle, (4,), (4.0,)),
            (complete, (3,), (3.0,)),
            (star, (2,), (2.0,)),
            (multipartite, ([2, 3],), ([2.0, 3],)),
            (hub, ([1, 1],), ([1.0, 1],)),
            (cycle_tail, (1, 2), (1.0, 2)),
            (cycle_tail, (1, 2), (1, 2.0)),
        ],
    )
    def test_bad_arguments_raise_after_a_cached_call(self, family, good, bad):
        with pytest.raises((TypeError, DomainError)) as before:
            family(*bad)
        family(*good)
        with pytest.raises(before.type) as after:
            family(*bad)
        assert str(after.value) == str(before.value)


class TestSurgery:
    def test_blowup_of_edge_is_complete_bipartite(self):
        g = blowup(path(1), [2, 3])
        assert as_multipartite(g) == (3, 2)

    def test_blowup_validation(self):
        with pytest.raises(DomainError):
            blowup(path(1), [1])
        with pytest.raises(DomainError):
            blowup(path(1), [0, 1])

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: multipartite([x, 1]),
            lambda x: hub([x, 0]),
            lambda x: blowup(path(1), [x, 2]),
            lambda x: part_sizes([x, 1]),
        ],
        ids=["multipartite", "hub", "blowup", "part_sizes"],
    )
    def test_sizes_must_be_integers(self, build):
        for size in (2.5, 2.0):
            with pytest.raises(DomainError, match="must be integers"):
                build(size)
        assert build(np.int64(2)) == build(2)

    def test_disjoint_union(self):
        g = disjoint_union(cycle(3), cycle(4))
        assert g.vertex_count == 7
        assert g.edge_count == 7
        assert not g.is_connected()


class TestRecognizers:
    def test_paths_cycles_completes(self):
        assert as_path(path(4)) == 4
        assert as_path(cycle(4)) is None
        assert as_cycle(cycle(7)) == 7
        assert as_cycle(path(3)) is None
        assert as_complete(complete(5)) == 5
        assert as_complete(cycle(4)) is None
        # K3 is both a cycle and a complete graph
        assert as_cycle(complete(3)) == 3

    def test_multipartite_and_star(self):
        assert as_multipartite(multipartite([1, 2, 3])) == (3, 2, 1)
        assert as_multipartite(path(2)) == (2, 1)  # P2 = K_{2,1}
        assert as_multipartite(paw()) is None
        assert as_star(star(4)) == 4
        assert as_star(multipartite([2, 2])) is None

    def test_multipartite_matches_definition_up_to_5_vertices(self):
        graphs = 0
        for g in all_labelled_graphs(5):
            assert as_multipartite(g) == multipartite_by_definition(g)
            graphs += 1
        assert graphs == 1100

    def test_recognizers_ignore_labeling(self):
        g = cycle(5).relabel([3, 0, 4, 1, 2])
        assert as_cycle(g) == 5

    def test_hub_recognizer(self):
        assert as_hub(hub([1, 1, 1]), clique_size=3) == (1, 1, 1)
        assert as_hub(hub([2, 0, 1]), clique_size=3) in {(2, 1, 0), (2, 0, 1), (0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0)}
        assert as_hub(cycle(6), clique_size=3) is None

    def test_paw_recognizer(self):
        assert is_paw(paw())
        assert is_paw(parse_graph_spec("paw"))
        assert not is_paw(star(3))

    def test_bipartite_recognizer(self):
        assert is_bipartite(Graph.from_edges(0, []))
        assert is_bipartite(cycle(6))
        assert is_bipartite(disjoint_union(path(3), multipartite([2, 3])))
        assert not is_bipartite(cycle(5))
        assert not is_bipartite(disjoint_union(path(2), paw()))


class TestCachedFacts:
    """Each graph's facts are cached, read-only and shared by equal graphs."""

    def test_neighbor_sets_are_read_only(self):
        nbrs = star(3).neighbor_sets()
        with pytest.raises(AttributeError):
            nbrs[0].add(7)
        with pytest.raises(TypeError):
            nbrs[0] = frozenset()
        assert star(3).neighbor_sets()[0] == {1, 2, 3}
        assert star(3).components() == ((0, 1, 2, 3),)

    def test_equal_graphs_share_an_entry(self):
        as_cycle.cache_clear()
        assert as_cycle(cycle(5)) == as_cycle(parse_graph_spec("C5")) == 5
        info = as_cycle.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert cycle(5).neighbor_sets() is parse_graph_spec("C5").neighbor_sets()

    def test_errors_are_not_cached(self):
        g = cycle(25)  # one non-bipartite component over the cap
        for _ in range(3):
            with pytest.raises(EnumerationCapError, match="independence cap 24"):
                independence_number(g)
        assert independence_number(g, vertex_cap=25) == 12


class TestSpecLanguage:
    def test_basic_forms(self):
        assert parse_graph_spec("P3").edges == path(3).edges
        assert parse_graph_spec("C4").edges == cycle(4).edges
        assert parse_graph_spec("K5").edges == complete(5).edges
        assert parse_graph_spec("S3").edges == star(3).edges
        assert parse_graph_spec("K[2,2]").edges == multipartite([2, 2]).edges
        assert parse_graph_spec("Khub[1,1,1]").edges == hub([1, 1, 1]).edges
        assert parse_graph_spec("Gtail[2,1]").edges == cycle_tail(2, 1).edges

    def test_copies(self):
        g = parse_graph_spec("3xK2")
        assert g.vertex_count == 6
        assert g.edge_count == 3
        assert not g.is_connected()

    @pytest.mark.parametrize(
        "n,spec",
        [(1, "K3"), (2, "P3"), (3, "K1"), (4, "paw"), (5, "Khub[1,1,1]"), (12, "C5"), (2, "3xK2")],
    )
    def test_copies_equal_the_union_fold(self, n, spec):
        g = parse_graph_spec(spec)
        fold = Graph.from_edges(0, [])
        for _ in range(n):
            fold = disjoint_union(fold, g)
        assert parse_graph_spec(f"{n}x{spec}") == fold

    def test_many_copies_parse_in_linear_time(self):
        # folding n disjoint_union calls re-checks every edge so far: 53 s for this spec
        start = time.perf_counter()
        g = _parse_spec.__wrapped__("99xK99")  # uncached: 480,249 edges
        assert time.perf_counter() - start < 10
        assert (g.vertex_count, g.edge_count) == (99 * 99, 99 * 99 * 98 // 2)

    def test_edge_set_is_built_once(self):
        # the canonical edge set is the only set of the edges a parse holds,
        # so what it allocates at its peak is about what the graph keeps
        tracemalloc.start()
        try:
            g = _parse_spec.__wrapped__("30xK30")  # uncached: 13,050 edges
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == 30 * 435
        assert peak <= 1.3 * kept, (peak, kept)

    def test_edge_file(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("4\n0 1\n1 2\n2 3\n")
        g = parse_graph_spec(f"@{f}")
        assert as_path(g) == 3

    def test_a_string_is_parsed_once(self):
        assert parse_graph_spec("Khub[1,1,1]") is parse_graph_spec("Khub[1,1,1]")

    def test_edge_file_is_read_on_every_call(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("4\n0 1\n1 2\n2 3\n")
        assert as_path(parse_graph_spec(f"@{f}")) == 3
        f.write_text("3\n0 1\n1 2\n0 2\n")
        assert as_cycle(parse_graph_spec(f"@{f}")) == 3
        assert parse_graph_spec(f"2x@{f}").edge_count == 6
        f.write_text("2\n0 1\n")
        assert parse_graph_spec(f"2x@{f}").edge_count == 2

    @pytest.mark.parametrize(
        "bad,position",
        [
            *(("P(", 1), ("  K[]", 4), ("2xQ7", 2)),
            *(("K[2,,3]", 4), ("K[2,3,]", 6), ("Khub[,1]", 5), ("K[1 2]", 2)),
        ],
    )
    def test_error_is_raised_afresh_on_every_call(self, bad, position):
        for _ in range(3):
            with pytest.raises(GraphSpecError) as exc:
                parse_graph_spec(bad)
            assert exc.value.position == position

    @pytest.mark.parametrize(
        "bad",
        [
            *("", "  ", "P0", "C2", "Q7", "K[]", "0xP1", "P(", "paws", "K[0]", "Gtail[0,1]"),
            *("K[2,,3]", "K[2,3,]", "Khub[,1]", "K[1 2]"),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(GraphSpecError):
            parse_graph_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(GraphSpecError) as exc:
            parse_graph_spec("P(")
        assert "position" in str(exc.value)


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(DomainError):
            WeightedGraph([0.5, 0.6], [[0, 0], [0, 0]])  # masses don't sum to 1
        with pytest.raises(DomainError):
            WeightedGraph([1.0], [[1.5]])  # weight above 1
        with pytest.raises(DomainError):
            WeightedGraph([0.5, 0.5], [[0, 0.2], [0.3, 0]])  # asymmetric
        with pytest.raises(DomainError):
            WeightedGraph([1.0, 0.0], [[0, 0], [0, 0]])  # zero mass

    @pytest.mark.parametrize(
        "masses, weights, message",
        [
            ([math.nan, 0.5], [[0, 0], [0, 0]], "positive numbers"),
            ([0.5, 0.5], [[math.nan, 0], [0, 0]], "numbers in"),
        ],
        ids=["nan-mass", "nan-weight"],
    )
    def test_nan_rejected(self, masses, weights, message):
        with pytest.raises(DomainError, match=message):
            WeightedGraph(masses, weights)

    def test_immutable(self):
        w = WeightedGraph.constant(0.5)
        with pytest.raises(AttributeError):
            w.masses = np.array([1.0])
        with pytest.raises(ValueError):
            w.weights[0, 0] = 0.9

    def test_from_graph(self):
        w = WeightedGraph.from_graph(cycle(4))
        assert w.block_count == 4
        assert w.weights[0, 1] == 1.0
        assert w.weights[0, 2] == 0.0

    def test_dump_load_round_trip(self):
        w = WeightedGraph([0.25, 0.75], [[1.0, 1 / 3], [1 / 3, 0.125]])
        buf = io.StringIO()
        w.dump(buf)
        buf.seek(0)
        assert WeightedGraph.load(buf) == w

    def test_load_rejects_garbage(self):
        with pytest.raises(DomainError):
            WeightedGraph.load(io.StringIO(""))
        with pytest.raises(DomainError):
            WeightedGraph.load(io.StringIO("2\n0.5 0.5\n1 0\n"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_multipartite_recognizer_round_trips(parts):
    g = multipartite(parts)
    assert as_multipartite(g) == tuple(sorted(parts, reverse=True))


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for parts in set_partitions(rest):
        yield [[first], *parts]
        for i in range(len(parts)):
            yield [*parts[:i], [first, *parts[i]], *parts[i + 1 :]]


def all_labelled_graphs(max_vertices):
    for n in range(max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            yield Graph.from_edges(n, itertools.compress(pairs, keep))


def multipartite_by_definition(g):
    """The part sizes of the vertex partition whose complete multipartite
    graph is g, found by trying every partition; None if there is none."""
    for parts in set_partitions(list(range(g.vertex_count))):
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        pairs = itertools.combinations(range(g.vertex_count), 2)
        if g.edges == {(u, v) for u, v in pairs if part_of[u] != part_of[v]}:
            return tuple(sorted(map(len, parts), reverse=True))
    return None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4).filter(
        lambda parts: sum(parts) >= 2
    ),
    st.data(),
)
def test_multipartite_recognizer_relabelled_and_one_edge_off(parts, data):
    g = multipartite(parts)
    perm = data.draw(st.permutations(range(g.vertex_count)))
    assert as_multipartite(g.relabel(perm)) == tuple(sorted(parts, reverse=True))
    part_of = [i for i, size in enumerate(parts) for _ in range(size)]
    pairs = list(itertools.combinations(range(g.vertex_count), 2))
    u, v = data.draw(st.sampled_from(pairs))
    near = Graph.from_edges(g.vertex_count, g.edges ^ {(u, v)}).relabel(perm)
    rest = [size for i, size in enumerate(parts) if i not in (part_of[u], part_of[v])]
    if part_of[u] != part_of[v]:
        # dropping an edge between parts leaves u and v non-adjacent, which
        # is still complete multipartite only when both parts were {u} and {v}
        merged = parts[part_of[u]] == parts[part_of[v]] == 1
        expected = tuple(sorted(rest + [2], reverse=True)) if merged else None
    else:
        # an edge inside a part splits it only if the part was {u, v}
        split = parts[part_of[u]] == 2
        expected = tuple(sorted(rest + [1, 1], reverse=True)) if split else None
    assert as_multipartite(near) == expected


@pytest.mark.parametrize(
    "text, count",
    [("10", 10), ("1e6", 10**6), ("12345678901234567891", 12345678901234567891), ("1e23", 10**23)],
)
def test_parse_count_is_exact(text, count):
    assert parse_count(text, "scale") == count


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.5", "is not an integer"),
        ("1e-3", "is not an integer"),
        ("abc", "is not a finite number"),
        ("nan", "is not a finite number"),
        ("inf", "is not a finite number"),
        ("1e400", "is not a finite number"),
    ],
)
def test_parse_count_rejects(text, message):
    with pytest.raises(DomainError, match=f"scale '{text}' {message}"):
        parse_count(text, "scale")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_path_recognizer_round_trips(m):
    assert as_path(path(m)) == m
    assert math.isclose(sum(path(m).degrees()), 2 * m)


# a spec: an optional copy count, a family head, tokens of the alphabet and
# perhaps a closing bracket
SPEC_NUMBERS = st.integers(min_value=0, max_value=99).map(str)
SPEC_HEADS = st.sampled_from(["", "K", "P", "C", "S", "K[", "Khub[", "Gtail[", "paw"])
SPEC_TOKENS = st.one_of(
    SPEC_NUMBERS,
    st.sampled_from([",", " ", "]"]),
    st.sampled_from(["K", "P", "C", "S", "x", "[", "Khub[", "Gtail[", "paw"]),
)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["", " ", "0x", "2x", "9x", "10x"]),
    SPEC_HEADS,
    st.lists(SPEC_TOKENS, max_size=6),
    st.sampled_from(["", "]"]),
)
def test_spec_parser_raises_only_graph_spec_errors(count, head, tokens, close):
    # numbers of at most two digits, and copies of at most 10 graphs, from the
    # leading count alone, keep every graph small
    body = head + "".join(tokens) + close
    assume(not re.search(r"\d{3}|\dx", body))
    try:
        assert isinstance(parse_graph_spec(count + body), Graph)
    except GraphSpecError:
        pass


# The graph walks that Graph.breadth_first and the degree-based as_hub
# replaced, kept as references.


def bfs_order_reference(nbrs):
    order = []
    seen = set()
    for root in range(len(nbrs)):
        if root in seen:
            continue
        queue = [root]
        seen.add(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(nbrs[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return order


def components_reference(g):
    """Components by depth-first search."""
    nbrs = g.neighbor_sets()
    seen = set()
    comps = []
    for v in range(g.vertex_count):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in nbrs[u] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_bipartite_reference(g):
    """A breadth-first 2-colouring that fails on an edge inside one side."""
    nbrs = g.neighbor_sets()
    side = [None] * g.vertex_count
    for root in range(g.vertex_count):
        if side[root] is not None:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for w in nbrs[u]:
                if side[w] is None:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def as_hub_reference(g, clique_size):
    """as_hub by trying every vertex subset of clique_size as the clique."""
    n = clique_size
    if not 2 <= n <= g.vertex_count:
        return None
    nbrs = g.neighbor_sets()
    for clique in itertools.combinations(range(g.vertex_count), n):
        cs = set(clique)
        if any((u, v) not in g.edges for u, v in itertools.combinations(clique, 2)):
            continue
        counts = {v: 0 for v in clique}
        for v in set(range(g.vertex_count)) - cs:
            if len(nbrs[v]) != n - 1 or not nbrs[v] <= cs:
                break
            counts[(cs - nbrs[v]).pop()] += 1
        else:
            return tuple(counts[v] for v in clique)
    return None


def test_walks_match_references_up_to_6_vertices():
    graphs = 0
    for g in all_labelled_graphs(6):
        assert g.breadth_first()[0] == tuple(bfs_order_reference(g.neighbor_sets()))
        assert g.components() == components_reference(g)
        assert is_bipartite(g) == is_bipartite_reference(g)
        for n in range(g.vertex_count + 2):
            got, want = as_hub(g, clique_size=n), as_hub_reference(g, n)
            assert (got is None) == (want is None), (g, n)
            if got is not None:
                assert sorted(got) == sorted(want), (g, n)
        graphs += 1
    assert graphs == 33868


def test_relabelled_hubs_are_recognised():
    rng = random.Random(3)
    for n in range(2, 5):
        for sizes in itertools.product(range(3), repeat=n):
            g = hub(sizes)
            for _ in range(3):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                got = as_hub(g.relabel(perm), clique_size=n)
                assert sorted(got) == sorted(sizes), (sizes, perm)


def test_hub_recognizer_enumerates_no_subsets():
    start = time.perf_counter()
    assert as_hub(path(30), clique_size=6) is None
    assert time.perf_counter() - start < 0.1
