"""Independent oracles for densities, homomorphism counts, the blowup
upper bound, delta_i and the independence number.

Deliberately implemented differently from the library's einsum-based
contraction: the density oracle materializes the full |blocks|^{|V|} grid
of vertex assignments with index broadcasting, the log-density oracle sums
every vertex map's term exactly as a Fraction, and the hom-count oracle
enumerates vertex maps one by one.  The blowup oracle enumerates every
vertex map too, where the library prunes a branch and bound search.  The
delta_i and independence oracles try every vertex subset, where the library
finds an augmenting-path assignment (and branches on non-bipartite
components for the independence number).
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def density_oracle(g, w):
    """Direct sum over all blocks^{|V|} assignments via index broadcasting."""
    nv = g.vertex_count
    if nv == 0:
        return 1.0
    k = w.block_count
    grid = np.indices((k,) * nv).reshape(nv, -1)  # one column per assignment
    total = np.ones(grid.shape[1])
    for v in range(nv):
        total = total * w.masses[grid[v]]
    for u, v in g.edges:
        total = total * w.weights[grid[u], grid[v]]
    return float(total.sum())


def log_density_oracle(g, w):
    """log t(g, w) from the exact Fraction sum over all vertex maps; -inf if 0."""
    masses = [m.as_integer_ratio() for m in w.masses.tolist()]
    weights = [[x.as_integer_ratio() for x in row] for row in w.weights.tolist()]
    sums = {}  # denominator -> sum of the numerators of the terms over it
    for phi in itertools.product(range(w.block_count), repeat=g.vertex_count):
        factors = [masses[b] for b in phi] + [weights[phi[u]][phi[v]] for u, v in g.edges]
        den = math.prod(d for _, d in factors)
        sums[den] = sums.get(den, 0) + math.prod(n for n, _ in factors)
    total = sum(Fraction(n, d) for d, n in sums.items())
    if total == 0:
        return -math.inf
    # log of a value in [1/2, 2) plus a whole number of log 2s, so the log
    # does not cancel two large logs of numerator and denominator
    shift = total.numerator.bit_length() - total.denominator.bit_length()
    return math.log(total / Fraction(2) ** shift) + shift * math.log(2)


def hom_count_oracle(g, target):
    """Count edge-preserving maps by exhaustive per-map checking."""
    adj = target.adjacency()
    count = 0
    for phi in itertools.product(range(target.vertex_count), repeat=g.vertex_count):
        if all(adj[phi[u], phi[v]] for u, v in g.edges):
            count += 1
    return count


def blowup_oracle(g, h):
    """Least prod_v max(1, |phi^-1(v)|) over every vertex map phi: H -> G
    that is a homomorphism, checked map by map; None when there is none."""
    adj = g.adjacency()
    products = [
        math.prod(max(1, phi.count(v)) for v in range(g.vertex_count))
        for phi in itertools.product(range(g.vertex_count), repeat=h.vertex_count)
        if all(adj[phi[u], phi[v]] for u, v in h.edges)
    ]
    return min(products, default=None)


def delta_oracle(g, i):
    """max over all 2^n vertex subsets S of |S| - i*|N(S)|."""
    n = g.vertex_count
    nbrs = g.neighbor_sets()
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


def independence_oracle(g):
    """Largest vertex subset with no edge inside, over all 2^n subsets."""
    return max(
        bin(mask).count("1")
        for mask in range(1 << g.vertex_count)
        if not any(mask >> u & 1 and mask >> v & 1 for u, v in g.edges)
    )
