"""Homomorphism counts and homomorphism densities on step graphons.

The core evaluator contracts one tensor index per pattern vertex: each
vertex contributes its block-mass vector, each edge contributes the block
weight matrix.  numpy's einsum performs the vertex-elimination dynamic
program along a greedy order, planned once per (pattern, block count, free
vertices) and cached.  Where greedy gives up and would join the remaining
operands over 2**20 or more index combinations in one step, the plan
slices one vertex instead (as in tensor-network slicing): it loops over
that vertex's blocks and contracts the rest of the pattern per block.  A
configurable cap rejects a plan whose size -- its largest intermediate or
largest step joining three or more operands, times the block count for
each sliced vertex -- exceeds the cap.  log_density picks one of two
routes from the input: when every positive term of the density is a normal
float64 it takes the log of the float contraction; otherwise (constructions
drive densities toward 0) it scales masses and weights to integers over
powers of two and counts exactly, the way hom_count counts past int64.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import string
from typing import NamedTuple

import numpy as np

from .errors import DiscrepancyError, DomainError, EnumerationCapError
from .graphs import Graph, path

DEFAULT_ENUM_CAP = 10**8
# a give-up join this large is sliced; smaller ones keep numpy's greedy path
_SLICE_AT = 2**20
# below log 2**-1000 a term may be subnormal, and log_density counts exactly
_NORMAL_LOG = -1000 * math.log(2)
_CLAMP_TOL = 1e-12  # float noise past [0, 1] that density clamps; beyond it raises
_LETTERS = string.ascii_letters


def enumeration_cap():
    """Current enumeration cap; override with env var RHOKIT_ENUM_CAP."""
    raw = os.environ.get("RHOKIT_ENUM_CAP")
    if raw:
        return int(float(raw))
    return DEFAULT_ENUM_CAP


class _Plan(NamedTuple):
    expr: str
    path: list  # np.einsum_path's greedy path, led by "einsum_path"
    edge_count: int
    size: int  # index space of the largest intermediate or multi-operand join


class _Sliced(NamedTuple):
    vertex: int  # summed over one block at a time
    neighbours: tuple
    parts: tuple  # (vertices, plan of g.induced(vertices)) covering the rest
    size: int  # k times the largest part's size


@functools.lru_cache(maxsize=1024)
def _plan(g, k, out_vertices):
    """Contraction plan of pattern g on k blocks with free out_vertices.

    Greedy path search depends only on the expression and the operand
    shapes, so the cached path is the one optimize="greedy" finds on every
    call.  Replaying the path on each operand's index set sizes its steps.
    When greedy finds no pair under its size limit it joins every operand
    left in one step, whose index space the largest intermediate misses.
    If that join has at least _SLICE_AT index combinations, the plan slices
    the summed vertex of highest degree instead: one contraction of the
    rest of the pattern per block, each planned the same way.
    """
    terms = [_LETTERS[v] for v in range(g.vertex_count)]
    terms += [_LETTERS[u] + _LETTERS[v] for u, v in sorted(g.edges)]
    out = "".join(_LETTERS[v] for v in out_vertices)
    expr = ",".join(terms) + "->" + out
    blanks = [np.empty(k)] * g.vertex_count + [np.empty((k, k))] * g.edge_count
    path, _ = np.einsum_path(expr, *blanks, optimize="greedy")

    sets = [set(t) for t in terms]
    largest_intermediate = largest_join = 0
    for step in path[1:]:
        joined = [sets.pop(i) for i in sorted(step, reverse=True)]
        idx = set().union(*joined)
        kept = idx & set(out).union(*sets)
        largest_intermediate = max(largest_intermediate, k ** len(kept))
        if len(joined) >= 3:
            largest_join = max(largest_join, k ** len(idx))
        sets.append(kept)

    summed = [v for v in range(g.vertex_count) if v not in out_vertices]
    if largest_join < _SLICE_AT or not summed:
        return _Plan(expr, path, g.edge_count, max(largest_intermediate, largest_join))
    degrees = g.degrees()
    v = max(summed, key=lambda u: (degrees[u], -u))
    neighbours = tuple(sorted(g.neighbors(v)))
    rest = [u for u in range(g.vertex_count) if u != v]
    groups = [rest]
    if not out_vertices:
        # one part per component: numpy's einsum cannot multiply two fully
        # summed object operands, which exact counts past int64 use
        groups = [[rest[i] for i in c] for c in g.induced(rest).components()]
    parts = tuple(
        (tuple(vs), _plan(g.induced(vs), k, tuple(vs.index(u) for u in out_vertices)))
        for vs in groups
    )
    return _Sliced(v, neighbours, parts, k * max(p.size for _, p in parts))


def _evaluate(plan, factors, weights):
    if isinstance(plan, _Plan):
        return np.einsum(plan.expr, *factors, *[weights] * plan.edge_count, optimize=plan.path)
    total = 0
    for b, mass in enumerate(factors[plan.vertex]):
        sliced = list(factors)
        # weights is symmetric, so row b serves edges (vertex, u) and (u, vertex)
        for u in plan.neighbours:
            sliced[u] = factors[u] * weights[b]
        term = mass
        for vertices, part in plan.parts:
            term = term * _evaluate(part, [sliced[u] for u in vertices], weights)
        total = total + term
    return total


def _contract(g, vertex_factors, weights, out_vertices=()):
    """Contract the density tensor network of pattern g.

    vertex_factors[v] is the length-k vector multiplied in for vertex v
    (normally the block masses).  out_vertices are left free, producing an
    array with one axis per free vertex, in the given order.
    """
    nv = g.vertex_count
    if nv == 0:
        return 1.0
    if nv > len(_LETTERS):
        raise EnumerationCapError(f"patterns with more than {len(_LETTERS)} vertices unsupported")
    cap = enumeration_cap()
    k = weights.shape[0]
    plan = _plan(g, k, tuple(out_vertices))
    # every step's index space is at most k**nv, so small patterns always pass
    if plan.size > cap:
        raise EnumerationCapError(
            f"contracting {nv} vertices on {k} blocks takes {plan.size} index "
            f"combinations, over the enumeration cap {cap}"
        )
    result = _evaluate(plan, vertex_factors, weights)
    # item() keeps integer counts exact; object contractions may return a bare int
    return result if out_vertices else np.asarray(result).item()


def hom_count(g, target):
    """Exact number of edge-preserving vertex maps V(g) -> V(target)."""
    if not isinstance(target, Graph):
        raise DomainError("hom_count target must be a Graph")
    if g.vertex_count == 0:
        return 1
    n = target.vertex_count
    if n == 0:
        return 0
    if n**g.vertex_count < 2**63:  # n**|V(g)| bounds every intermediate count
        ones = np.ones(n, dtype=np.int64)
        return _contract(g, [ones] * g.vertex_count, target.adjacency())
    ones = np.ones(n, dtype=object)
    return _exact_sum(g, [ones] * g.vertex_count, target.adjacency().astype(object))


def _exact_sum(g, factors, weights):
    """Contraction of g over Python-integer factors and weights, exactly.

    numpy's optimized einsum multiplies two fully summed object operands as
    int64, which wraps, so no contraction may join two components: each is
    counted on its own.
    """
    components = g.components()
    if len(components) == 1:
        return _contract(g, factors, weights)
    parts = ((g.induced(c), [factors[v] for v in c]) for c in components)
    return math.prod(_contract(p, fs, weights) for p, fs in parts)


def _as_integers(x):
    """(e, n): an object array n of Python integers with x == n / 2**e."""
    ratios = [v.as_integer_ratio() for v in x.flat]
    e = max(d.bit_length() - 1 for _, d in ratios)  # every d is a power of two
    n = [p << (e - d.bit_length() + 1) for p, d in ratios]
    return e, np.array(n, dtype=object).reshape(x.shape)


def density(g, w):
    """Homomorphism density t(g, w) of a pattern graph in a step graphon."""
    t = float(_contract(g, [w.masses] * g.vertex_count, w.weights))
    if not -_CLAMP_TOL <= t <= 1.0 + _CLAMP_TOL:
        raise DiscrepancyError(f"t(g, W) = {t!r} lies outside [0, 1]")
    # all terms are nonnegative; clamp float noise at the boundary
    return min(max(t, 0.0), 1.0)


def log_density(g, w):
    """log t(g, w); -inf when the density is exactly 0.

    If every positive term of the density, a product of |V| masses and |E|
    weights, is at least 2**-1000, the float contraction is accurate and is
    0 only for a zero density, so this is its log.  Otherwise the masses and
    weights are scaled to integers over powers of two and the density is
    counted exactly, so a positive density never underflows to log 0.
    """
    smallest = g.vertex_count * math.log(w.masses.min())
    smallest += g.edge_count * math.log(w.weights[w.weights > 0].min(initial=1.0))
    if smallest > _NORMAL_LOG:
        t = density(g, w)
        return math.log(t) if t > 0.0 else -math.inf
    e_m, masses = _as_integers(w.masses)
    e_w, weights = _as_integers(w.weights)
    count = _exact_sum(g, [masses] * g.vertex_count, weights)
    if count == 0:
        return -math.inf
    return math.log(count) - (g.vertex_count * e_m + g.edge_count * e_w) * math.log(2)


def spectrum(w):
    """Eigenvalues of the symmetrized mass-weighted kernel
    D^{1/2} weights D^{1/2}, D = diag(masses)."""
    d = np.sqrt(w.masses)
    m = d[:, None] * w.weights * d[None, :]
    return np.linalg.eigvalsh(m)


def cycle_density_spectral(k, w):
    """Sum of k-th powers of the spectrum; equals t(C_k, w) for k >= 3."""
    if k < 1:
        raise DomainError("cycle length must be >= 1")
    lam = spectrum(w)
    return float(np.sum(lam**k))


def common_neighborhood_mass(blocks, w):
    """Mass of the common neighborhood of a multiset of blocks:
    sum_u mu_u * prod_{v in blocks} weights[v, u]."""
    blocks = list(blocks)
    if not blocks:
        raise DomainError("block multiset must be nonempty")
    k = w.block_count
    if any(not (0 <= b < k) for b in blocks):
        raise DomainError(f"block index out of range for {k} blocks")
    prod = np.ones(k)
    for b in blocks:
        prod = prod * w.weights[b]
    return float(np.dot(w.masses, prod))


def generalized_star_density(n, x, w):
    """Density of the star K_{n,x} with a real exponent x >= 0:
    sum over n-tuples of blocks of (mass product) * (common nbhd mass)^x.

    0^0 = 1, so x = 0 always gives 1.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if x < 0:
        raise DomainError("x must be nonnegative")
    k = w.block_count
    if float(k) ** n > enumeration_cap():
        raise EnumerationCapError(f"{k}^{n} center tuples exceed the enumeration cap")
    total = 0.0
    for tup in itertools.product(range(k), repeat=n):
        mu = 1.0
        for b in tup:
            mu *= w.masses[b]
        d = common_neighborhood_mass(tup, w)
        total += mu * (1.0 if x == 0 else d**x)
    return float(total)


def generalized_path_density(alpha, r, beta, w):
    """Density of the r-edge path with fractional pendant edges of weight
    alpha and beta at its two endpoints (endpoint degree powers)."""
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise DomainError("alpha, beta must lie in [0,1]")
    if r < 0:
        raise DomainError("r must be a nonnegative integer")
    deg = w.weights @ w.masses
    # 0^0 = 1: zero-degree blocks contribute factor 1 when the exponent is 0
    start = w.masses * _pow00(deg, alpha)
    end = _pow00(deg, beta)
    step = w.weights * w.masses[None, :]
    vec = start
    for _ in range(r):
        vec = vec @ step
    return float(np.dot(vec, end))


def _pow00(base, expo):
    if expo == 0:
        return np.ones_like(base)
    return base**expo


def delta_index(g, i, vertex_cap=20):
    """max over subsets S of |S| - i*|N(S)| (empty set contributes 0)."""
    if i < 1:
        raise DomainError("i must be a positive integer")
    n = g.vertex_count
    if n > vertex_cap:
        raise EnumerationCapError(f"{n} vertices exceed the delta_index cap {vertex_cap}")
    nbrs = [g.neighbors(v) for v in range(n)]
    best = 0
    for mask in range(1 << n):
        size = 0
        nb = set()
        for v in range(n):
            if mask >> v & 1:
                size += 1
                nb |= nbrs[v]
        best = max(best, size - i * len(nb))
    return best


def independence_number(g, vertex_cap=24):
    """Size of the largest independent set (branch and bound)."""
    n = g.vertex_count
    if n > vertex_cap:
        raise EnumerationCapError(f"{n} vertices exceed the independence cap {vertex_cap}")
    nbrs = [frozenset(g.neighbors(v)) for v in range(n)]
    best = 0

    def grow(candidates, size):
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        v = min(candidates)
        grow(candidates - {v} - nbrs[v], size + 1)
        grow(candidates - {v}, size)

    grow(frozenset(range(n)), 0)
    return best


def path_density(r, w):
    """t(P_r, w); accepts r = 0 (single vertex, density 1)."""
    if r == 0:
        return 1.0
    return density(path(r), w)
