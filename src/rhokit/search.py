"""Numerical search for step graphons maximizing log t(H,W)/log t(G,W).

The maximized ratio is a certified lower bound on the domination exponent
rho(G,H).  The optimizer is multi-start projected gradient ascent over the
block masses (probability simplex with a floor) and the symmetric weight
matrix (entries clipped to [0,1]).  One run of a pattern's contraction program
gives its density, and one reverse sweep of the run's tape its gradient.
Every run goes through density._contract, the engine's one entry, over a
stack of graphons at once: the starts of a block count ascend in lockstep.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .density import _contract, _in_range, _sweep, json_number
from .errors import DiscrepancyError, DomainError
from .graphs import WeightedGraph, _check_blocks, as_graph
from .verify import PROFILES, sample_weighted_graph


def density_gradient(g, w):
    """Gradient of t(g, w): (d/d masses, d/d weights).

    Entry (i,j), i != j, of d/d weights is the derivative when w[i,j] and
    w[j,i] move together; the diagonal moves alone.  Matches a central
    finite difference that perturbs symmetrically.  Every partial comes from
    one reverse sweep over the tape of g's own contraction program
    (density._sweep), whose cost does not grow with the number of coordinates.
    """
    return _swept(g, w.masses, w.weights)[1:]


def _swept(g, masses, weights):
    """(t(g, W), d/d masses, d/d weights) for each graphon W of a stack,
    masses of shape lead + (k,) and weights lead + (k, k), from one batched
    run of g's program and one reverse sweep of the run's tape; each t
    bit-identical to density(g, W)."""
    if g.vertex_count == 0:
        return np.ones(weights.shape[:-2]), np.zeros_like(masses), np.zeros_like(weights)
    tape = []
    t = _in_range(_contract(g, [masses] * g.vertex_count, weights, tape=tape))
    factors, total = _sweep(tape, g.vertex_count, weights)
    # the diagonal counted once; total is finite and nonnegative, so its
    # product with the identity is its diagonal matrix, +0.0 off it
    diagonal = total * np.eye(weights.shape[-1])
    return t, sum(factors), total + np.swapaxes(total, -1, -2) - diagonal


def _logs(t):
    """math.log of each entry, as an array: np.log may differ in the last bit."""
    return np.array([math.log(x) for x in t.tolist()])


def ratio_objective(g, h, w):
    """(ratio, d ratio/d masses, d ratio/d weights) for
    ratio = log t(H,W)/log t(G,W); requires 0 < t(G,W) < 1."""
    ratios, dm, dw = _objective(g, h, w.masses[None], w.weights[None])
    return ratios[0], dm[0], dw[0]


def _objective(g, h, masses, weights):
    """ratio_objective for each graphon of a stack (masses (B, k), weights
    (B, k, k)): (list of ratios, d/d masses, d/d weights), from one batched
    run and sweep of each pattern."""
    tg, gm, gw = _swept(g, masses, weights)
    if not np.all((0.0 < tg) & (tg < 1.0)):
        raise DomainError("ratio objective needs 0 < t(G,W) < 1")
    th, hm, hw = _swept(h, masses, weights)
    if not np.all(th > 0.0):
        raise DomainError("ratio objective needs t(H,W) > 0")
    lg, lh = _logs(tg), _logs(th)
    lg2 = np.array([x**2 for x in lg.tolist()])  # C pow, as Python squares a float

    def quotient(dh, dg):
        # d(log t)/dx = (dt/dx)/t; quotient rule on lh/lg, the batch axis last
        return ((dh.T / th * lg - lh * dg.T / tg) / lg2).T

    return (lh / lg).tolist(), quotient(hm, gm), quotient(hw, gw)


def _project_simplex(v, floor):
    """Euclidean projection of each vector along v's last axis onto
    {x : x >= floor, sum x = 1}."""
    k = v.shape[-1]
    if k * floor >= 1.0:
        raise DomainError("mass floor too large for the block count")
    u = v - floor
    budget = 1.0 - k * floor
    # sort-based projection of u onto the scaled simplex
    s = np.sort(u.reshape(-1, k))[:, ::-1]
    css = s.cumsum(axis=1) - budget
    idx = np.arange(1, k + 1)
    cond = s - css / idx > 0
    rho = k - cond[:, ::-1].argmax(axis=1)  # the last index cond holds at, plus one
    theta = css[np.arange(len(css)), rho - 1] / rho
    return np.maximum(u - theta.reshape(u.shape[:-1] + (1,)), 0.0) + floor


@dataclass(frozen=True)
class SearchConfig:
    block_counts: tuple = (2, 3)
    restarts: int = 6
    iterations: int = 200
    step0: float = 0.25
    seed: int = 0
    mass_floor: float = 1e-3
    margin: float = 1e-6  # keep t(G,W) <= 1 - margin so the ratio exists


@dataclass(frozen=True)
class SearchResult:
    g_spec: str
    h_spec: str
    best_ratio: float
    best_graphon: WeightedGraph
    catalog_upper: float  # inf when no finite upper bound is known
    restarts: int
    config: SearchConfig = field(repr=False, default=None)

    def to_json(self):
        return {
            "g": self.g_spec,
            "h": self.h_spec,
            "best_ratio": self.best_ratio,
            "catalog_upper": json_number(self.catalog_upper),
            "restarts": self.restarts,
            "blocks": self.best_graphon.block_count,
            "masses": self.best_graphon.masses.tolist(),
            "weights": self.best_graphon.weights.tolist(),
        }


def _structured_starts(k):
    """Deterministic starting points worth trying at every block count."""
    starts = [WeightedGraph(np.full(k, 1.0 / k), np.full((k, k), 0.5))]
    if k >= 2:
        w = np.zeros((k, k))
        w[0, 0] = 1.0
        starts.append(WeightedGraph(np.full(k, 1.0 / k), w))  # half-block style
        starts.append(WeightedGraph(np.full(k, 1.0 / k), np.eye(k)))  # disjoint cliques
        w = np.zeros((k, k))
        w[0, :] = 1.0
        w[:, 0] = 1.0
        starts.append(WeightedGraph(np.full(k, 1.0 / k), w))  # looped hub
    return starts


def _ratios(g, h, masses, weights, margin):
    """For each graphon W of a stack (masses (B, k), weights (B, k, k)),
    log t(H,W) / log t(G,W), the float ratio_objective returns, or None
    when W is infeasible: a list, from one batched run of G's program and
    one of H's over the graphons with t(G,W) in range."""
    tg = _in_range(_contract(g, [masses] * g.vertex_count, weights))
    feasible = (0.0 < tg) & (tg <= 1.0 - margin)
    th = np.zeros_like(tg)
    if feasible.any():
        m, w = masses[feasible], weights[feasible]
        th[feasible] = _in_range(_contract(h, [m] * h.vertex_count, w))
    feasible &= th > 0.0
    return [
        math.log(b) / math.log(a) if ok else None
        for a, b, ok in zip(tg.tolist(), th.tolist(), feasible.tolist())
    ]


def _line_search(g, h, masses, weights, dm, dw, steps, ratios, cfg):
    """Per ascent (masses[s], weights[s], its gradient and ratio), the first
    of its candidate steps steps[:, s] whose projected point is feasible and
    raises the ratio by more than 1e-14: (ratio, masses, weights), or None.
    Every candidate of every ascent is tried in one batched call."""
    nm = _project_simplex(masses + steps[..., None] * dm, cfg.mass_floor)
    nw = (weights + steps[..., None, None] * dw).clip(0.0, 1.0)
    nw = (nw + np.swapaxes(nw, -1, -2)) / 2
    _check_blocks(nm, nw)
    count, k = steps.size, masses.shape[-1]
    tried = _ratios(g, h, nm.reshape(count, k), nw.reshape(count, k, k), cfg.margin)
    found = []
    for s, ratio in enumerate(ratios):
        column = tried[s :: len(ratios)]
        j = next((j for j, r in enumerate(column) if r is not None and r > ratio + 1e-14), None)
        found.append(None if j is None else (column[j], nm[j, s], nw[j, s]))
    return found


def _ascend(g, h, masses, weights, ratios, cfg):
    """Projected gradient ascent from each start of a stack (masses (B, k),
    weights (B, k, k)) with its ratio, all in lockstep; returns each start's
    best ratio seen, a list, and the stacked graphons that reach them.  Each
    accepted step raises the ratio, so the best point seen is the current one.

    Per iteration one batched run and sweep of g and of h gives the ratio
    and gradient of every ascent still going.  Each ascent then takes the
    first of 25 step sizes, halving from cfg.step0 over the gradient's
    largest entry, that is feasible and raises its ratio; halving 0 is tried
    for every ascent at once, and halvings 1-24 at once for the ascents it
    did not serve.  An ascent no step size serves stops there.  So each
    ascent takes the path, and stops where, it would on its own.
    """
    masses, weights, best = masses.copy(), weights.copy(), list(ratios)
    going = np.arange(len(masses))
    for _ in range(cfg.iterations):
        m, w = masses[going], weights[going]
        ratios, dm, dw = _objective(g, h, m, w)
        scale = np.maximum(np.abs(dm).max(axis=-1), np.abs(dw).max(axis=(-2, -1)))
        first = cfg.step0 / np.maximum(scale, 1e-12)
        # halved by products with 0.5, as one ascent halves its step
        steps = np.cumprod(np.vstack([first, np.full((24, len(going)), 0.5)]), axis=0)
        found = [None] * len(going)
        for tries in (steps[:1], steps[1:]):  # halving 0, then halvings 1-24
            rest = [s for s, f in enumerate(found) if f is None]
            if not rest:
                break
            later = _line_search(
                g, h, m[rest], w[rest], dm[rest], dw[rest], tries[:, rest],
                [ratios[s] for s in rest], cfg,
            )  # fmt: skip
            for s, f in zip(rest, later):
                found[s] = f
        moved = []
        for i, f in zip(going, found):
            if f is not None:
                best[i], masses[i], weights[i] = f
                moved.append(i)
        if not moved:
            break
        going = np.array(moved)
    return best, masses, weights


def search_lower_bound(g_spec, h_spec, config=None):
    """Multi-start gradient search for the best density log-ratio.

    Raises DiscrepancyError if the search ever certifies a ratio beyond the
    catalog's upper bound for rho(G,H): that would falsify a proven bound,
    so it indicates a bug, and the result cannot be trusted.
    """
    from .catalog import rho_exact

    cfg = config or SearchConfig()
    g, h = as_graph(g_spec), as_graph(h_spec)
    if g.edge_count == 0 or h.edge_count == 0:
        raise DomainError("search requires both patterns to have edges")
    try:  # numpy integers pass; floats, and a bare count for block_counts, do not
        counts = [operator.index(n) for n in (*cfg.block_counts, cfg.restarts, cfg.iterations)]
    except TypeError:
        counts = None
    # block counts are sample_weighted_graph's sizes
    if counts is None or not all(1 <= k <= 8 for k in counts[:-2]) or min(counts[-2:]) < 0:
        raise DomainError(
            "search block counts must be integers in 1..8, and restarts and iterations "
            f"nonnegative integers; got {cfg}"
        )
    step0, margin, floor = cfg.step0, cfg.margin, cfg.mass_floor
    reals = all(isinstance(x, numbers.Real) for x in (step0, margin, floor))
    if not (reals and 0 < step0 < math.inf and 0 < margin < 1 and 0 < floor < math.inf):
        raise DomainError(
            "search step0 and mass_floor must be finite positive numbers, and margin "
            f"a number in (0, 1); got {cfg}"
        )

    res = rho_exact(g, h)
    upper = math.inf if res.upper is None else float(res.upper)

    starts = []
    for k in cfg.block_counts:
        starts += _structured_starts(k)
        for r in range(cfg.restarts):
            profile = PROFILES[r % len(PROFILES)]
            starts.append(sample_weighted_graph(profile, k, cfg.seed + 1000 * k + r))
    # a near_construction draw has 1 or 2 blocks whatever k is, so the starts
    # ascend grouped by their own block count
    groups = {}
    for i, w0 in enumerate(starts):
        groups.setdefault(w0.block_count, []).append(i)
    ends = {}  # start index -> (ratio, masses, weights) of its ascent
    for members in groups.values():
        masses = np.stack([starts[i].masses for i in members])
        weights = np.stack([starts[i].weights for i in members])
        ratios = _ratios(g, h, masses, weights, cfg.margin)
        feasible = [r is not None for r in ratios]
        members = [i for i, ok in zip(members, feasible) if ok]
        if members:
            ratios = [r for r in ratios if r is not None]
            ascents = _ascend(g, h, masses[feasible], weights[feasible], ratios, cfg)
            ends.update(zip(members, zip(*ascents)))

    best_ratio = -math.inf
    best = None
    for i in sorted(ends):  # the first start reaching the best ratio wins ties
        if ends[i][0] > best_ratio:
            best_ratio, best = ends[i][0], ends[i]
    if best is None:
        raise DomainError("no feasible starting graphon found")

    if best_ratio > upper + 1e-6:
        raise DiscrepancyError(
            f"search ratio {best_ratio} exceeds the certified upper bound "
            f"{upper} for rho({g_spec}, {h_spec})"
        )
    return SearchResult(
        g_spec=str(g_spec),
        h_spec=str(h_spec),
        best_ratio=best_ratio,
        best_graphon=WeightedGraph(*best[1:]),
        catalog_upper=upper,
        restarts=len(ends),
        config=cfg,
    )
