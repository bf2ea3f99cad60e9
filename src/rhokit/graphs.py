"""Finite simple graphs, step graphons, and the named graph families.

Pattern graphs are always simple and loop-free.  Loops and edge weights
live only on the target side, in :class:`WeightedGraph`, which represents a
step graphon by block masses and a symmetric weight matrix.

Canonical vertex numbering per family (so homomorphism counts are
reproducible):

* ``path(m)``: vertices ``0..m``, edges ``(i, i+1)``.
* ``cycle(m)``: vertices ``0..m-1``, edges ``(i, (i+1) % m)``.
* ``complete(n)``: vertices ``0..n-1``, all pairs.
* ``star(t)``: center ``0``, leaves ``1..t``.
* ``multipartite(a)``: zero parts dropped, parts laid out in the given
  order, vertices numbered part by part.
* ``hub(a)``: central clique ``0..n-1``; then for each ``i`` in order,
  ``a_i`` pendant vertices adjacent to the clique minus vertex ``i``.
* ``cycle_tail(k, l)``: odd cycle ``0..2k``, tail ``2k+1..2k+l`` hanging
  off vertex ``0``.
* ``paw``: triangle ``0,1,2`` plus pendant ``3`` attached to ``0``.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GraphSpecError

MASS_SUM_TOL = 1e-12


def _integers(values, message):
    """values as a list of Python ints; numpy integers pass, and anything
    else (a float included) raises DomainError(message.format(values))."""
    try:
        return [operator.index(x) for x in values]
    except TypeError:
        raise DomainError(message.format(values)) from None


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices ``0..vertex_count-1``.

    Isolated vertices are allowed: ``vertex_count`` may exceed the number
    of vertices covered by ``edges``.
    """

    vertex_count: int
    edges: frozenset

    def __post_init__(self):
        """Check the edges and keep them as one frozenset of (low, high)
        pairs of Python ints, built in one pass over what was given: any
        iterable of vertex pairs, which from_edges passes through as is."""
        if self.vertex_count < 0:
            raise DomainError("vertex_count must be nonnegative")
        n = self.vertex_count

        def canonical(e):
            u, v = _integers(e, "edge {} has a non-integer vertex label")
            if u == v:
                raise DomainError(f"loop ({u},{v}) not allowed in a simple graph")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge {e} out of range for {n} vertices")
            return (u, v) if u < v else (v, u)

        object.__setattr__(self, "edges", frozenset(map(canonical, self.edges)))

    @classmethod
    def from_edges(cls, vertex_count, edges):
        return cls(vertex_count, edges)

    @property
    def edge_count(self):
        return len(self.edges)

    def degrees(self):
        return [len(nbrs) for nbrs in self.neighbor_sets()]

    def neighbors(self, v):
        return self.neighbor_sets()[v]

    def adjacency(self):
        a = np.zeros((self.vertex_count, self.vertex_count), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a

    # The structural facts below are cached per graph, and equal graphs share
    # an entry: each parsed spec is a fresh Graph.  Cached values are
    # read-only (tuples and frozensets).  breadth_first is the one traversal
    # of a graph; components and is_bipartite read it.

    @functools.lru_cache(maxsize=1024)
    def neighbor_sets(self):
        """The neighbour set of each vertex, as a tuple of frozensets;
        degrees() and neighbors(v) read it."""
        nbrs = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(map(frozenset, nbrs))

    def is_connected(self):
        return len(self.components()) <= 1

    @functools.lru_cache(maxsize=1024)
    def breadth_first(self):
        """One breadth-first search over the whole graph: the vertex order,
        and each vertex's (component root, depth parity), both as tuples.

        Each component starts at its lowest vertex, and a vertex's unvisited
        neighbours join the queue in increasing order; the blowup search
        places a pattern's vertices in this order, and its budget depends on
        it.  components() and is_bipartite read the roots and parities."""
        nbrs = self.neighbor_sets()
        order, place = [], [None] * self.vertex_count
        for root in range(self.vertex_count):
            if place[root] is not None:
                continue
            place[root] = (root, 0)
            queue = [root]
            for v in queue:
                for w in sorted(nbrs[v]):
                    if place[w] is None:
                        place[w] = (root, 1 - place[v][1])
                        queue.append(w)
            order += queue
        return tuple(order), tuple(place)

    @functools.lru_cache(maxsize=1024)
    def components(self):
        """Connected components, as sorted vertex tuples in the order of
        their lowest vertices: the vertices of each breadth_first() root."""
        groups = {}
        for v, (root, _) in enumerate(self.breadth_first()[1]):
            groups.setdefault(root, []).append(v)
        return tuple(map(tuple, groups.values()))

    @functools.lru_cache(maxsize=1024)
    def earlier_twins(self):
        """For each vertex, the smaller vertices that are its twins: two
        vertices are twins when their neighbour sets agree apart from each
        other, so swapping them is an automorphism."""
        nbrs = self.neighbor_sets()
        return tuple(
            tuple(
                u
                for u in range(v)
                if len(nbrs[u]) == len(nbrs[v]) and nbrs[u] - {v} == nbrs[v] - {u}
            )
            for v in range(self.vertex_count)
        )

    def induced(self, vertices):
        """The subgraph induced on a vertex list, relabelled in list order."""
        index = {v: i for i, v in enumerate(vertices)}
        return Graph.from_edges(
            len(index), ((index[u], index[v]) for u, v in self.edges if u in index and v in index)
        )

    def relabel(self, perm):
        """Apply a vertex permutation (perm[v] = new label of v)."""
        return Graph.from_edges(self.vertex_count, ((perm[u], perm[v]) for u, v in self.edges))


# ---------------------------------------------------------------------------
# named families

def path(m):
    if m < 1:
        raise DomainError("path needs m >= 1 edges")
    return Graph.from_edges(m + 1, ((i, i + 1) for i in range(m)))


def cycle(m):
    if m < 3:
        raise DomainError("cycle needs m >= 3 edges")
    return Graph.from_edges(m, ((i, (i + 1) % m) for i in range(m)))


def complete(n):
    if n < 1:
        raise DomainError("complete needs n >= 1 vertices")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def star(t):
    if t < 1:
        raise DomainError("star needs t >= 1 leaves")
    return Graph.from_edges(t + 1, ((0, i) for i in range(1, t + 1)))


def multipartite(sizes):
    sizes = _integers(sizes, "part sizes {} must be integers")
    if any(s < 0 for s in sizes):
        raise DomainError("part sizes must be nonnegative")
    sizes = [s for s in sizes if s > 0]
    if not sizes:
        raise DomainError("at least one positive part required")
    bounds = np.cumsum([0] + sizes)
    n = int(bounds[-1])
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(bounds[i], bounds[i + 1]):
                for v in range(bounds[j], bounds[j + 1]):
                    edges.append((u, v))
    return Graph.from_edges(n, edges)


def hub(sizes):
    """K'-graph: central clique of size n = len(sizes); for each i, sizes[i]
    pendant vertices adjacent to the clique minus its i-th vertex."""
    sizes = _integers(sizes, "pendant counts {} must be integers")
    n = len(sizes)
    if n < 1:
        raise DomainError("hub needs at least one clique vertex")
    if any(s < 0 for s in sizes):
        raise DomainError("pendant counts must be nonnegative")
    edges = list(itertools.combinations(range(n), 2))
    nxt = n
    for i, a in enumerate(sizes):
        for _ in range(a):
            for j in range(n):
                if j != i:
                    edges.append((j, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def cycle_tail(k, ell):
    """G_{k,l}: odd cycle C_{2k+1} with a path on l edges attached at vertex 0."""
    if k < 1:
        raise DomainError("cycle_tail needs k >= 1")
    if ell < 0:
        raise DomainError("cycle_tail needs l >= 0")
    g = cycle(2 * k + 1)
    edges = set(g.edges)
    prev = 0
    for j in range(ell):
        v = 2 * k + 1 + j
        edges.add((prev, v))
        prev = v
    return Graph.from_edges(2 * k + 1 + ell, edges)


def paw():
    return Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# graph surgery


def blowup(g, b):
    """Replace vertex i of g by b[i] clones; clones adjacent iff originals were."""
    b = _integers(b, "blowup multiplicities {} must be integers")
    if len(b) != g.vertex_count:
        raise DomainError(f"blowup vector has length {len(b)}, expected {g.vertex_count}")
    if any(x < 1 for x in b):
        raise DomainError("blowup multiplicities must be positive")
    offs = np.cumsum([0] + b)
    edges = []
    for u, v in g.edges:
        for cu in range(offs[u], offs[u + 1]):
            for cv in range(offs[v], offs[v + 1]):
                edges.append((cu, cv))
    return Graph.from_edges(int(offs[-1]), edges)


def disjoint_union(g1, g2):
    shift = g1.vertex_count
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return Graph.from_edges(g1.vertex_count + g2.vertex_count, edges)


# ---------------------------------------------------------------------------
# structure recognition (used by the rho catalog): each test reads edge
# counts, degrees, neighbour sets or the breadth-first search, never a
# complement graph, and none enumerates vertex subsets.  The tests the catalog
# repeats for the same graphs are cached like Graph's facts.


def is_bipartite(g):
    """True iff g has no odd cycle: no edge joins two vertices of the same
    depth parity in Graph.breadth_first (both ends of an edge share a root)."""
    place = g.breadth_first()[1]
    return all(place[u][1] != place[v][1] for u, v in g.edges)


@functools.lru_cache(maxsize=1024)
def as_path(g):
    """Return m if g is the path on m >= 1 edges, else None."""
    if g.vertex_count < 2 or g.edge_count != g.vertex_count - 1:
        return None
    deg = g.degrees()
    if max(deg) > 2 or deg.count(1) != 2 or not g.is_connected():
        return None
    return g.edge_count


@functools.lru_cache(maxsize=1024)
def as_cycle(g):
    """Return m if g is the cycle on m >= 3 edges, else None."""
    if g.vertex_count < 3 or g.edge_count != g.vertex_count:
        return None
    if any(d != 2 for d in g.degrees()) or not g.is_connected():
        return None
    return g.vertex_count


def as_complete(g):
    n = g.vertex_count
    if n >= 1 and g.edge_count == n * (n - 1) // 2:
        return n
    return None


@functools.lru_cache(maxsize=1024)
def as_multipartite(g):
    """Return the part sizes (nonincreasing) if g is complete multipartite, else None.

    g is complete multipartite exactly when each vertex is adjacent to every
    vertex outside its class of equal neighbourhoods and to none inside it,
    and its parts are those classes.  No vertex of a class N is in N (g has
    no loops), so the rule holds when |N| plus the class size is |V|.
    """
    classes = Counter(g.neighbor_sets())
    if any(len(nbrs) + size != g.vertex_count for nbrs, size in classes.items()):
        return None
    return tuple(sorted(classes.values(), reverse=True))


@functools.lru_cache(maxsize=1024)
def as_star(g):
    """Return t if g is K_{1,t}, t >= 1, else None."""
    parts = as_multipartite(g)
    if parts is not None and len(parts) == 2 and parts[1] == 1 and g.vertex_count >= 2:
        return parts[0]
    return None


def as_hub(g, clique_size):
    """Return the pendant-count vector a if g is K'_a with a central clique
    of clique_size vertices (plus, for each clique vertex i, a_i pendants
    adjacent to the clique minus i), else None.

    A hub on n clique vertices and p pendants has C(n,2) + p(n - 1) edges.
    With that count, the n vertices of highest degree are taken as the
    clique, and each other vertex must have exactly n - 1 neighbours, all
    among them: the edge count then leaves C(n,2) edges inside the n, which
    are a clique.  A pendant has degree n - 1 and a clique vertex at least
    that, so if g is a hub, its top n vertices by degree are the clique, or
    the clique with its one vertex i of degree n - 1 traded for a pendant.
    Every pendant then misses i, so i is a twin of each pendant, and the
    trade gives the same pendant counts up to order.
    """
    n = clique_size
    n_total = g.vertex_count
    if not 2 <= n <= n_total or g.edge_count != n * (n - 1) // 2 + (n_total - n) * (n - 1):
        return None
    nbrs = g.neighbor_sets()
    clique = sorted(sorted(range(n_total), key=lambda v: len(nbrs[v]), reverse=True)[:n])
    counts = dict.fromkeys(clique, 0)
    for v in range(n_total):
        if v in counts:
            continue
        missing = counts.keys() - nbrs[v]
        if len(nbrs[v]) != n - 1 or len(missing) != 1:
            return None
        counts[missing.pop()] += 1
    return tuple(counts.values())


@functools.lru_cache(maxsize=1024)
def is_paw(g):
    if g.vertex_count != 4 or g.edge_count != 4:
        return False
    return sorted(g.degrees()) == [1, 2, 2, 3]


# ---------------------------------------------------------------------------
# spec mini-language

_FAMILY_RE = re.compile(r"(P|C|K|S)(\d+)$")
_BRACKET_RE = re.compile(r"(K|Khub)\[([\d,\s]*)\]$")
_TAIL_RE = re.compile(r"Gtail\[(\d+)\s*,\s*(\d+)\]$")
_COPIES_RE = re.compile(r"(\d+)x(.+)$")


def parse_graph_spec(text):
    """Parse the graph mini-language into a Graph.

    Grammar: ``P<m>``, ``C<m>``, ``K<n>``, ``S<t>``, ``K[a1,a2,...]``,
    ``Khub[a1,...]``, ``Gtail[k,l]``, ``paw``, ``<n>x<spec>`` (disjoint
    copies), ``@file.edges`` (first line vertex count, remaining lines
    0-indexed edges).

    A string is parsed once: later calls return the same (immutable) Graph.
    A spec that names a file is read again on every call, since the file
    may change, and a spec that fails raises afresh each time.
    """
    if not isinstance(text, str):
        raise GraphSpecError("graph spec must be a string")
    if "@" in text:
        return _parse_spec.__wrapped__(text)
    return _parse_spec(text)


@functools.lru_cache(maxsize=1024)
def _parse_spec(text):
    stripped = text.strip()
    if not stripped:
        raise GraphSpecError("empty graph spec", text, 0)
    return _parse(stripped, text)


def as_graph(spec):
    """A Graph as given, or the Graph a spec string parses to."""
    return spec if isinstance(spec, Graph) else parse_graph_spec(spec)


def _parse(s, full):
    pos = full.find(s)
    try:
        return _build(s, full, pos)
    except DomainError as exc:  # from a family constructor, or Graph itself
        raise GraphSpecError(str(exc), full, pos) from exc


def _build(s, full, pos):
    if s == "paw":
        return paw()

    if s.startswith("@"):
        return load_edge_list(s[1:])

    m = _COPIES_RE.match(s)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise GraphSpecError("copy count must be positive", full, pos)
        g = _parse(m.group(2), full)
        k = g.vertex_count  # one from_edges call: its checks run once over all n*|E| edges
        return Graph.from_edges(
            n * k, ((u + i * k, v + i * k) for i in range(n) for u, v in g.edges)
        )

    m = _TAIL_RE.match(s)
    if m:
        return cycle_tail(int(m.group(1)), int(m.group(2)))

    m = _BRACKET_RE.match(s)
    if m:
        at = pos + len(m.group(1)) + 1
        if not m.group(2).strip():
            raise GraphSpecError("empty part list", full, at)
        sizes = []
        for part in m.group(2).split(","):
            try:
                sizes.append(int(part))
            except ValueError:  # an empty part, or digits split by whitespace
                raise GraphSpecError(f"part {part!r} is not one number", full, at) from None
            at += len(part) + 1
        if m.group(1) == "Khub":
            return hub(sizes)
        return multipartite(sizes)

    m = _FAMILY_RE.match(s)
    if m:
        family = {"P": path, "C": cycle, "K": complete, "S": star}[m.group(1)]
        return family(int(m.group(2)))

    # report the position of the first character that breaks every rule
    bad = pos
    for i, ch in enumerate(s):
        if not (ch.isalnum() or ch in "[],x@. _-"):
            bad = pos + i
            break
    raise GraphSpecError(f"unrecognized graph spec {s!r}", full, bad)


def parse_count(text, what):
    """A count written as an integer or as a float such as 1e6, read exactly
    (past 2**53 too); a count a float cannot hold is not a finite number."""
    try:
        x = decimal.Decimal(text)
    except decimal.InvalidOperation:
        x = decimal.Decimal("nan")
    if not (x.is_finite() and math.isfinite(float(x))):
        raise DomainError(f"{what} {text!r} is not a finite number")
    if x != x.to_integral_value():
        raise DomainError(f"{what} {text!r} is not an integer")
    return int(x)


def load_edge_list(path_):
    """Read a ``.edges`` file: first line vertex count, then 0-indexed pairs."""
    try:
        with open(path_) as fh:
            tokens = fh.read().split()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise GraphSpecError(f"cannot read edge file {path_!r}: {exc}") from None
    if not tokens:
        raise GraphSpecError(f"empty edge file {path_!r}")
    try:
        n, *rest = [int(t) for t in tokens]
    except ValueError:
        raise GraphSpecError(f"edge file {path_!r} holds a token that is not an integer") from None
    if len(rest) % 2 != 0:
        raise GraphSpecError(f"odd number of endpoints in {path_!r}")
    return Graph.from_edges(n, zip(rest[::2], rest[1::2]))


# ---------------------------------------------------------------------------
# step graphons


def _check_blocks(masses, weights):
    """Raise DomainError unless masses (shape lead + (k,)) and weights (lead +
    (k, k)) are the blocks of step graphons, one per index of the leading
    axes: masses positive and summing to 1, weights in [0,1] and exactly
    symmetric."""
    # written so that NaN fails each test; an infinite mass fails the sum
    if not (masses > 0).all():
        raise DomainError("masses must be strictly positive numbers")
    sums = masses.sum(axis=-1)
    if (abs(sums - 1.0) > MASS_SUM_TOL).any():
        raise DomainError(f"masses must sum to 1 (got {sums!r})")
    if not ((weights >= 0) & (weights <= 1)).all():
        raise DomainError("weights must be numbers in [0,1]")
    if not (weights == np.swapaxes(weights, -1, -2)).all():
        raise DomainError("weights must be exactly symmetric")


class WeightedGraph:
    """A step graphon: block masses (positive, summing to 1) and a symmetric
    block weight matrix with entries in [0,1].  Diagonal entries are loop
    weights.  Instances are immutable.

    Each instance keeps the logs of its smallest mass and of its smallest
    positive weight (0.0 when no weight is positive), which density.log_density
    reads on every call to pick its route."""

    __slots__ = ("masses", "weights", "_log_floors")

    def __init__(self, masses, weights):
        masses = np.asarray(masses, dtype=float).copy()
        weights = np.asarray(weights, dtype=float).copy()
        if masses.ndim != 1 or masses.size < 1:
            raise DomainError("masses must be a nonempty vector")
        k = masses.size
        if weights.shape != (k, k):
            raise DomainError(f"weights must be {k}x{k}, got {weights.shape}")
        _check_blocks(masses, weights)
        masses.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "weights", weights)
        floors = (math.log(masses.min()), math.log(weights[weights > 0].min(initial=1.0)))
        object.__setattr__(self, "_log_floors", floors)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    @property
    def block_count(self):
        return self.masses.size

    @classmethod
    def from_graph(cls, g):
        """Uniform-mass 0/1 step graphon of an unweighted target graph."""
        n = g.vertex_count
        if n < 1:
            raise DomainError("target graph needs at least one vertex")
        return cls(np.full(n, 1.0 / n), g.adjacency().astype(float))

    @classmethod
    def constant(cls, p):
        return cls([1.0], [[float(p)]])

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and np.array_equal(self.masses, other.masses)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.masses.tobytes(), self.weights.tobytes()))

    def __repr__(self):
        return f"WeightedGraph(masses={self.masses.tolist()}, weights={self.weights.tolist()})"

    def dump(self, fh):
        """Write the `.graphon` text format: block count, masses line, weight rows."""
        fh.write(f"{self.block_count}\n")
        fh.write(" ".join(repr(float(x)) for x in self.masses) + "\n")
        for row in self.weights:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")

    @classmethod
    def load(cls, fh):
        tokens = fh.read().split()
        if not tokens:
            raise DomainError("empty graphon file")
        try:
            k = int(tokens[0])
            numbers = [float(t) for t in tokens[1 : 1 + k + k * k]]
        except ValueError:
            raise DomainError("graphon file holds a token that is not a number") from None
        if k < 1:
            raise DomainError(f"graphon block count must be positive, got {k}")
        if len(tokens) != 1 + k + k * k:
            raise DomainError(f"graphon file needs {1 + k + k * k} numbers, found {len(tokens)}")
        return cls(numbers[:k], np.array(numbers[k:]).reshape(k, k))
