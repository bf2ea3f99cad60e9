"""Closed-form values, bounds and conjectures for the density domination
exponent rho(G,H), with provenance tags, plus the majorization machinery
and the finiteness test.

Provenance tags emitted by the dispatcher:

* ``identity``                  -- G and H isomorphic
* ``edgeless-target``           -- H has no edges (density is 1, exponent 0)
* ``infinite-no-hom``           -- hom(H,G)=0, exponent infinite: H has an odd
  cycle and G is bipartite, or a hom count of two non-bipartite graphs is 0
* ``complete-kruskal-katona``   -- complete vs complete
* ``paths-exact`` / ``paths-open``      -- path vs path
* ``even-cycles-spectral``      -- long cycle vs even cycle
* ``cycle-in-even-cycle``       -- short cycle vs longer even cycle bracket
* ``odd-cycle-pair``            -- odd cycle vs longer odd cycle bracket
* ``cycle-vs-path`` / ``path-vs-even-cycle``
* ``star-small-graph`` / ``star-edge-delta`` / ``star-delta-lower``
* ``bipartite-case-1`` .. ``bipartite-case-5`` / ``bipartite-conjecture``
* ``multipartite-majorization``
* ``hub-clique``
* ``paw-square``
* ``construction-lower`` / ``blowup-upper`` / ``composition-upper``
* ``blowup-budget-exhausted``   -- the blowup search ran out of its budget

Each branch gives only the bracket ends its own theorem proves.  A pair's
own lookup (_rho_stage, cached per pair) runs the branches, then tightens an
``interval`` or ``unknown`` bracket with the universal construction lower
bound and the blowup search.  rho_exact runs the composition scan on top of
it, reading only other pairs' own lookups; its result is not cached.  Every
bracket end is a theorem, so a bracket whose ends meet is ``exact``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .density import delta_index, hom_count, independence_number, json_number
from .errors import DomainError
from .graphs import (
    _integers,
    as_complete,
    as_cycle,
    as_graph,
    as_hub,
    as_multipartite,
    as_path,
    as_star,
    is_bipartite,
    is_paw,
    parse_graph_spec,
)

STATUSES = ("exact", "interval", "conjectured", "infinite", "unknown")


@dataclass(frozen=True)
class RhoResult:
    status: str
    value: object = None  # Fraction, or None
    lower: object = None  # Fraction, math.inf for infinite, or None if unproven
    upper: object = None  # Fraction, or None
    provenance: tuple = ()

    def __post_init__(self):
        if self.status not in STATUSES:
            raise DomainError(f"bad status {self.status!r}")
        if self.status == "exact":
            object.__setattr__(self, "lower", self.value)
            object.__setattr__(self, "upper", self.value)
        if self.status == "infinite":
            object.__setattr__(self, "lower", math.inf)
            object.__setattr__(self, "upper", None)
        if (
            self.status in ("interval", "unknown")
            and None not in (self.lower, self.upper)
            and self.lower > self.upper
        ):
            raise DomainError(f"{self.status} lower {self.lower} > upper {self.upper}")
        if (
            self.status == "conjectured"
            and None not in (self.value, self.lower)
            and self.value < self.lower
        ):
            raise DomainError(f"conjectured value {self.value} < lower {self.lower}")
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def to_json(self):
        # infinities are encoded by the status field, not a JSON token
        def exact(x):
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            if isinstance(x, int):
                return f"{x}/1"
            return None

        out = {
            "status": self.status,
            "value": json_number(self.value),
            "lower": json_number(self.lower),
            "upper": json_number(self.upper),
            "provenance": list(self.provenance),
        }
        for name, x in (("value", self.value), ("lower", self.lower), ("upper", self.upper)):
            r = exact(x)
            if r is not None:
                out[name + "_exact"] = r
        return out


# ---------------------------------------------------------------------------
# majorization


def part_sizes(seq):
    """Normalize a part-size vector: nonnegative ints, nonincreasing order,
    at least one positive entry."""
    sizes = tuple(sorted(_integers(seq, "part sizes {} must be integers"), reverse=True))
    if any(s < 0 for s in sizes):
        raise DomainError("part sizes must be nonnegative")
    if not sizes or sizes[0] == 0:
        raise DomainError("at least one positive part required")
    return sizes


def _padded(a, b):
    a, b = part_sizes(a), part_sizes(b)
    n = max(len(a), len(b))
    return a + (0,) * (n - len(a)), b + (0,) * (n - len(b))


def majorizes(a, b):
    """True iff every prefix sum of a dominates that of b.  Requires equal
    totals (after zero padding)."""
    a, b = _padded(a, b)
    if sum(a) != sum(b):
        raise DomainError(f"majorization requires equal totals ({sum(a)} vs {sum(b)})")
    pa = pb = 0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa < pb:
            return False
    return True


def majorization_chain(a, b):
    """Chain a = a_0, ..., a_l = b of nonincreasing vectors where each step
    moves one unit from a later index to an earlier index, consecutive
    vectors differ in at most two coordinates, and each majorizes the next."""
    a, b = _padded(a, b)
    if not majorizes(a, b):
        raise DomainError("chain requires a to majorize b")
    chain = [b]
    cur = list(b)
    while tuple(cur) != a:
        r = next(i for i in range(len(a)) if cur[i] != a[i])
        target = cur[r + 1]
        s = max(i for i in range(r + 1, len(cur)) if cur[i] == target)
        cur[r] += 1
        cur[s] -= 1
        chain.append(tuple(cur))
    chain.reverse()
    return chain


# ---------------------------------------------------------------------------
# finiteness and generic bounds


def finiteness(g, h):
    """rho(G,H) is finite exactly when hom(H,G) > 0.  G must have an edge.

    Bipartiteness settles most pairs without counting:

    * a bipartite H maps onto any edge uv of G (one side to u, the other
      to v), so hom(H,G) > 0;
    * an H with an odd cycle has no map into a bipartite G, whose closed
      walks all have even length, so hom(H,G) = 0.

    Only when both have an odd cycle is hom(H,G) counted.
    """
    g, h = as_graph(g), as_graph(h)
    if g.edge_count == 0:
        raise DomainError("rho(G,H) requires G to have at least one edge")
    if is_bipartite(h):
        return True
    if is_bipartite(g):
        return False
    return hom_count(h, g) > 0


def general_lower_bounds(g, h):
    """Best of the four universal construction lower bounds."""
    g, h = as_graph(g), as_graph(h)
    bounds = [Fraction(h.edge_count, g.edge_count), Fraction(h.vertex_count, g.vertex_count)]
    if g.is_connected() and h.is_connected() and g.vertex_count >= 2:
        bounds.append(Fraction(h.vertex_count - 1, g.vertex_count - 1))
    dg = g.vertex_count - independence_number(g)
    if dg > 0:
        bounds.append(Fraction(h.vertex_count - independence_number(h), dg))
    return max(bounds)


def blowup_upper_bound(g, h, budget=2_000_000):
    """min over homomorphisms phi: H -> G of prod_v max(1, |phi^-1(v)|).

    H sits inside the blowup of G along the preimage profile; iterated
    single-vertex blowups bound rho by that product.  A branch and bound
    search finds the least product; returns None when there is no
    homomorphism or when more than ``budget`` candidate images were tried.
    """
    g, h = as_graph(g), as_graph(h)
    best = _least_blowup(h, g, math.inf, [range(g.vertex_count)] * h.vertex_count, budget)
    return None if best is None else Fraction(best)


def _least_blowup(h, g, bound, candidates, budget):
    """Branch and bound for the least prod_v max(1, |phi^-1(v)|) below
    ``bound`` over homomorphisms phi: H -> G with phi(u) in candidates[u].
    None when there is no such map or when more than ``budget`` candidates
    were tried.

    H's vertices are placed in breadth-first order (Graph.breadth_first).  At
    each node the images its placed neighbours allow, the common neighbours
    in G of their images, are worked out once; every candidate still counts
    against the budget.

    Two cuts drop a partial map:

    * the product never falls as a map extends, so a map whose product
      reaches the best so far is cut;
    * the pigeonhole cut.  Let r of H's vertices be left to place, f of G's
      vertices carry no load and ``top`` be the largest load.  A vertex put
      on an unused vertex of G adds nothing to the product, so at least
      ``extra`` = r - f of the rest land on loaded vertices.  Raising loads
      l_i by a_i, with sum a_i = extra, multiplies the product by
      prod (1 + a_i / l_i) >= 1 + sum a_i / l_i >= (top + extra) / top: the
      excess all on the most-loaded vertex grows it least.  So a map of
      product ``grown`` ends at no less than grown * (top + extra) / top,
      and is cut once grown * (top + extra) >= best * top.  Neither
      adjacency nor the candidate lists enter the bound, which only makes
      it lower, so the cut never drops the least map.

    The twin rule skips a candidate: an unused w is passed over while an
    earlier twin of w in G (Graph.earlier_twins) is unused too.  Swapping
    the two is an automorphism of G that fixes the partial map, so it
    carries each completion through w to one through the twin with the same
    loads, and the least product is unchanged.  The least unused vertex of a
    class of twins is never passed over.  The rule needs each candidate list
    to be closed under twins, so that the twin is a candidate wherever w is;
    degree classes and ``range`` both are.
    """
    h_nbrs, g_nbrs = h.neighbor_sets(), g.neighbor_sets()
    twins = g.earlier_twins()
    order = h.breadth_first()[0]
    n = len(order)
    back = [h_nbrs[v] & set(order[:i]) for i, v in enumerate(order)]  # placed neighbours
    everywhere = frozenset(range(g.vertex_count))
    image = [None] * h.vertex_count
    load = [0] * g.vertex_count
    best = bound
    tried = 0

    # depth first on an explicit stack of the nodes above the current one,
    # each with the candidates it has left
    stack, rest = [], None
    prod, free, top = 1, g.vertex_count, 0
    while True:
        if rest is None:  # a new node, which places the next vertex
            i = len(stack)
            if i == n:
                best, rest = prod, ()
            else:
                v = order[i]
                allowed = everywhere
                for u in back[i]:
                    allowed = allowed & g_nbrs[image[u]]
                # the pigeonhole's extra once v is placed; one more, and the
                # largest load at least 1, when v lands on an unused vertex
                excess = n - 1 - i - free
                rest = iter(candidates[v])
        for w in rest:
            tried += 1
            if tried > budget:
                return None
            held = load[w]
            if held:
                grown = prod // held * (held + 1)
                peak, extra = (top if top > held else held + 1), excess
            elif twins[w] and not all(load[t] for t in twins[w]):
                continue
            else:
                grown, peak, extra = prod, top or 1, excess + 1
            if grown >= best or w not in allowed or grown * (peak + extra) >= best * peak:
                continue
            image[v] = w
            load[w] = held + 1
            break
        else:  # the node is done; its parent takes its next candidate
            if not stack:
                return best if best < bound else None
            rest, v, prod, free, top, allowed, excess = stack.pop()
            load[image[v]] -= 1
            continue
        stack.append((rest, v, prod, free, top, allowed, excess))
        rest, prod, free, top = None, grown, free if held else free - 1, peak


# ---------------------------------------------------------------------------
# family dispatch


def _isomorphic(g, h):
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    if g.edges == h.edges:
        return True
    g_deg, h_deg = g.degrees(), h.degrees()
    if sorted(g_deg) != sorted(h_deg):
        return False
    # an isomorphism keeps degrees, and with equal vertex and edge counts an
    # injective homomorphism (product 1) is an isomorphism
    classes = {}
    for w, d in enumerate(h_deg):
        classes.setdefault(d, []).append(w)
    return _least_blowup(g, h, 2, [classes[d] for d in g_deg], math.inf) is not None


def _exact(value, *tags):
    return RhoResult("exact", value=Fraction(value), provenance=tags)


def _branch_complete(g, h):
    s, t = as_complete(g), as_complete(h)
    if s is None or t is None:
        return None
    # s >= t is guaranteed here: s < t fails the finiteness test upstream
    return _exact(Fraction(t, s), "complete-kruskal-katona")


def _branch_paths(g, h):
    m, n = as_path(g), as_path(h)
    if m is None or n is None:
        return None
    if n % 2 == 1 and m % 2 == 0:
        return _exact(Fraction(n + 1, m), "paths-exact")
    if n > m:
        return _exact(Fraction(n, m), "paths-exact")
    # n < m from here (n == m is the identity case)
    if n % 2 == 0 or (m + 1) % (n + 1) == 0:
        return _exact(Fraction(n + 1, m + 1), "paths-exact")
    if (m, n) == (5, 3):
        return RhoResult(
            "interval", lower=Fraction(7, 10), upper=Fraction(3, 4), provenance=("paths-open",)
        )
    # open case: best subgraph upper via the longest odd m' <= m with n+1 | m'+1
    mp = (n + 1) * ((m + 1) // (n + 1)) - 1
    return RhoResult("interval", upper=Fraction(n + 1, mp + 1), provenance=("paths-open",))


def _branch_cycles(g, h):
    m, n_edges = as_cycle(g), as_cycle(h)
    if m is None or n_edges is None:
        return None
    if n_edges % 2 == 0:
        if m > n_edges:
            return _exact(Fraction(n_edges, m), "even-cycles-spectral")
        # 3 <= m < n_edges (equality is the identity case)
        q = Fraction(1, n_edges - 1)
        return RhoResult(
            "interval",
            lower=Fraction(n_edges - 1, m - 1),
            upper=Fraction(n_edges - 1 - q, m - 1 - q),
            provenance=("cycle-in-even-cycle",),
        )
    # H odd; finiteness already rules out m even or m > n_edges
    k, n = (m - 1) // 2, (n_edges - 1) // 2
    return RhoResult(
        "interval",
        lower=Fraction(n, k),
        upper=Fraction(math.ceil(Fraction(n, k)) + 1),
        provenance=("odd-cycle-pair",),
    )


def _branch_cycle_path(g, h):
    m = as_cycle(g)
    n = as_path(h)
    if m is not None and n is not None:
        if n <= m - 1:
            return _exact(Fraction(n + 1, m), "cycle-vs-path")
        return _exact(Fraction(n, m - 1), "cycle-vs-path")
    m = as_path(g)
    c = as_cycle(h)
    if m is not None and c is not None and c % 2 == 0:
        return _exact(Fraction(c, m), "path-vs-even-cycle")
    return None


def _branch_stars(g, h):
    t = as_star(h)
    if t is None:
        return None
    nv = g.vertex_count
    if g.is_connected() and nv <= t + 1:
        return _exact(Fraction(t, nv - 1), "star-small-graph")
    if t == 1:
        return _exact(Fraction(2, nv - delta_index(g, 1)), "star-edge-delta")
    if nv >= t + 1:
        lower = Fraction(t + 1, nv - delta_index(g, t))
        return RhoResult("interval", lower=lower, provenance=("star-delta-lower",))
    return None


def _bipartite_case(a1, a2, b1, b2):
    """(case, rho(K[a1,a2], K[b1,b2])) for the five proven cases, with
    a1 >= a2 and b1 >= b2; None otherwise."""
    if b1 >= a1 and b2 >= a2:
        return 1, Fraction(b1 * b2, a1 * a2)
    if b1 <= a1 and b2 >= a2:
        return 2, Fraction(b2, a2)
    if b1 <= a1 and b2 <= a2:
        return 3, max(Fraction(b2, a2), Fraction(b1 + b2, a1 + a2))
    if b1 >= a1 and b2 <= a2 and b1 + b2 <= a1 + a2:
        return 4, Fraction(b1 + b2, a1 + a2)
    if b1 >= a1 and b2 == 1 and b1 + b2 >= a1 + a2:
        return 5, Fraction(b1, a1 + a2 - 1)
    return None


def _branch_bipartite(g, h):
    a = as_multipartite(g)
    b = as_multipartite(h)
    if a is None or b is None or len(a) != 2 or len(b) != 2:
        return None
    a1, a2 = a
    b1, b2 = b
    proven = _bipartite_case(a1, a2, b1, b2)
    if proven is not None:
        case, value = proven
        return _exact(value, f"bipartite-case-{case}")
    if a2 >= b2 > 1 and a1 <= b1 and b1 + b2 >= a1 + a2:
        value = max(Fraction(b1 * b2, a1 * a2), Fraction(b1 + b2 - 1, a1 + a2 - 1))
        # never tightened, so the conjecture states the universal lower end itself
        lower = general_lower_bounds(g, h)
        return RhoResult("conjectured", value, lower, provenance=("bipartite-conjecture",))
    return None


def _branch_multipartite(g, h):
    b = as_multipartite(g)
    a = as_multipartite(h)
    if a is None or b is None:
        return None
    if sum(a) != sum(b):
        return None
    if majorizes(a, b):
        return _exact(Fraction(1), "multipartite-majorization")
    return None


def _branch_hub(g, h):
    n = as_complete(g)
    if n is None or n < 2:
        return None
    a = as_hub(h, clique_size=n)
    if a is None:
        return None
    return _exact(Fraction(1 + sum(a)), "hub-clique")


def _branch_paw(g, h):
    if is_paw(g) and as_cycle(h) == 4:
        return _exact(Fraction(4, 3), "paw-square")
    return None


_BRANCHES = (
    _branch_complete,
    _branch_paths,
    _branch_cycles,
    _branch_cycle_path,
    _branch_stars,
    _branch_bipartite,
    _branch_multipartite,
    _branch_hub,
    _branch_paw,
)

# intermediates scanned for the composition upper bound
# rho(G,J) <= rho(G,H) * rho(H,J)
_INTERMEDIATES = tuple(map(parse_graph_spec, "K2 P2 P3 P4 K3 C4 C5 C6 S3".split()))


_OPEN = ("interval", "unknown")


@functools.lru_cache(maxsize=4096)
def _rho_stage(g, h):
    """The lookup of (G, H) itself, run once per pair: the winning branch
    result, tightened when it is open by the universal lower bound and the
    blowup search, and the other branches' tags in branch order.  The
    composition scan in rho_exact reads other pairs through this, never
    through their own composition, so no lookup recurses into itself."""
    if g.edge_count == 0:
        raise DomainError("rho(G,H) requires G to have at least one edge")
    if h.edge_count == 0:
        return _exact(Fraction(0), "edgeless-target"), ()
    if _isomorphic(g, h):
        return _exact(Fraction(1), "identity"), ()
    if not finiteness(g, h):
        return RhoResult("infinite", provenance=("infinite-no-hom",)), ()

    # the first exact branch result wins, else the first result
    results = [res for res in (branch(g, h) for branch in _BRANCHES) if res is not None]
    if not results:
        results = [RhoResult("unknown", provenance=("construction-lower",))]
    winner = results.pop(next((i for i, r in enumerate(results) if r.status == "exact"), 0))
    if winner.status in _OPEN:
        glb = general_lower_bounds(g, h)
        lower = glb if winner.lower is None else max(winner.lower, glb)
        winner = _tighten(replace(winner, lower=lower), _blowup_uppers(g, h))
    return winner, tuple(t for res in results for t in res.provenance)


def _tighten(res, candidates):
    """An open result with each (upper end, tag) candidate applied in turn.
    A candidate is accepted, with its tag, when it lowers the upper end and
    stays at or above the lower end; a candidate of None adds its tag alone.
    Repeated tags are left for rho_exact to drop."""
    upper, tags = res.upper, list(res.provenance)
    for cand, tag in candidates:
        if cand is None:
            tags.append(tag)
        elif (upper is None or cand < upper) and cand >= res.lower:
            upper = cand
            tags.append(tag)
    return RhoResult(res.status, res.value, res.lower, upper, tuple(tags))


def _blowup_uppers(g, h):
    """The blowup search's upper end.  hom(H,G) > 0 wherever it runs, so
    None means only that the search spent its budget."""
    bub = blowup_upper_bound(g, h)
    yield bub, "blowup-budget-exhausted" if bub is None else "blowup-upper"


def _composition_uppers(g, h):
    """The composition upper ends rho(G,H) <= rho(G,J) * rho(J,H) over the
    intermediates J, each factor the upper end of that pair's own lookup.
    Through a J isomorphic to G or to H the product is the pair's own upper
    end, since lookups do not depend on labels apart from the blowup budget,
    and _tighten rejects it; where a budget does differ, the product is
    still a proven bound."""
    for mid in _INTERMEDIATES:
        u1 = _rho_stage(g, mid)[0].upper
        u2 = _rho_stage(mid, h)[0].upper
        if u1 is not None and u2 is not None:
            yield u1 * u2, "composition-upper"


def rho_exact(g_spec, h_spec):
    """Catalog lookup: dispatch (G,H) over the known graph families and
    return the best known value, bracket or conjecture with provenance.

    The pair's own lookup comes from _rho_stage; a bracket still open with
    distinct ends then gets the composition scan.  A bracket whose ends meet
    is exact, since both ends are theorems.  Tags: the winner's, then the
    blowup and composition tags, then the other branches', each once where
    it first appears."""
    g, h = as_graph(g_spec), as_graph(h_spec)
    res, others = _rho_stage(g, h)
    if res.status in _OPEN:
        if res.lower != res.upper:
            res = _tighten(res, _composition_uppers(g, h))
        if res.lower == res.upper:
            res = RhoResult("exact", value=res.lower, provenance=res.provenance)
    tags = dict.fromkeys(res.provenance + others)
    return RhoResult(res.status, res.value, res.lower, res.upper, tuple(tags))
