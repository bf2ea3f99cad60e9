"""Numerical search for step graphons maximizing log t(H,W)/log t(G,W).

The maximized ratio is a certified lower bound on the domination exponent
rho(G,H).  The optimizer is multi-start projected gradient ascent over the
block masses (probability simplex with a floor) and the symmetric weight
matrix (entries clipped to [0,1]).  One run of a pattern's contraction program
gives its density, and one reverse sweep of the run's tape its gradient.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .density import _evaluate, _in_range, _program, _sweep, density, json_number
from .errors import DiscrepancyError, DomainError
from .graphs import WeightedGraph, as_graph
from .verify import PROFILES, sample_weighted_graph


def density_gradient(g, w):
    """Gradient of t(g, w): (d/d masses, d/d weights).

    Entry (i,j), i != j, of d/d weights is the derivative when w[i,j] and
    w[j,i] move together; the diagonal moves alone.  Matches a central
    finite difference that perturbs symmetrically.  Every partial comes from
    one reverse sweep over the tape of g's own contraction program
    (density._sweep), whose cost does not grow with the number of coordinates.
    """
    return _swept(g, w)[1:]


def _swept(g, w):
    """(t(g, w), d/d masses, d/d weights) from one run of g's program, t
    bit-identical to density(g, w), and one reverse sweep of the run's tape."""
    k = w.block_count
    if g.vertex_count == 0:
        return 1.0, np.zeros(k), np.zeros((k, k))
    tape = []
    t = _evaluate(_program(g, k), [w.masses] * g.vertex_count, w.weights, tape)
    factors, total = _sweep(tape, g.vertex_count, w.weights)
    return _in_range(t), sum(factors), total + total.T - np.diag(np.diag(total))


def ratio_objective(g, h, w):
    """(ratio, d ratio/d masses, d ratio/d weights) for
    ratio = log t(H,W)/log t(G,W); requires 0 < t(G,W) < 1."""
    tg, gm, gw = _swept(g, w)
    if not 0.0 < tg < 1.0:
        raise DomainError("ratio objective needs 0 < t(G,W) < 1")
    th, hm, hw = _swept(h, w)
    if th <= 0.0:
        raise DomainError("ratio objective needs t(H,W) > 0")
    lg, lh = math.log(tg), math.log(th)
    # d(log t)/dx = (dt/dx)/t; quotient rule on lh/lg
    dm = (hm / th * lg - lh * gm / tg) / lg**2
    dw = (hw / th * lg - lh * gw / tg) / lg**2
    return lh / lg, dm, dw


def _project_simplex(v, floor):
    """Euclidean projection onto {x : x >= floor, sum x = 1}."""
    k = v.size
    if k * floor >= 1.0:
        raise DomainError("mass floor too large for the block count")
    u = v - floor
    budget = 1.0 - k * floor
    # sort-based projection of u onto the scaled simplex
    s = np.sort(u)[::-1]
    css = np.cumsum(s) - budget
    idx = np.arange(1, k + 1)
    cond = s - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(u - theta, 0.0) + floor


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


def _feasible_ratio(g, h, w, margin):
    """log t(H,W) / log t(G,W), the float ratio_objective returns, or None
    when W is infeasible; t(H,W) is skipped when t(G,W) is out of range."""
    tg = density(g, w)
    if not 0.0 < tg <= 1.0 - margin:
        return None
    th = density(h, w)
    if th <= 0.0:
        return None
    return math.log(th) / math.log(tg)


def _ascend(g, h, w, cfg):
    """Projected gradient ascent from one starting point; returns the best
    (ratio, WeightedGraph) seen.  Each accepted step raises the ratio, so
    the best point seen is the current one."""
    cur = w
    ratio = None
    for _ in range(cfg.iterations):
        ratio, dm, dw = ratio_objective(g, h, cur)
        scale = max(np.abs(dm).max(), np.abs(dw).max(), 1e-12)
        step = cfg.step0 / scale
        for _ in range(25):
            nm = _project_simplex(cur.masses + step * dm, cfg.mass_floor)
            nw = np.clip(cur.weights + step * dw, 0.0, 1.0)
            nw = (nw + nw.T) / 2
            cand = WeightedGraph(nm, nw)
            new_ratio = _feasible_ratio(g, h, cand, cfg.margin)
            if new_ratio is not None and new_ratio > ratio + 1e-14:
                break
            step /= 2
        else:  # no step size improved the ratio
            break
        cur, ratio = cand, new_ratio
    if ratio is None:  # zero iterations
        ratio = ratio_objective(g, h, cur)[0]
    return ratio, cur


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

    feasible_starts = []
    for k in cfg.block_counts:
        starts = _structured_starts(k)
        for r in range(cfg.restarts):
            profile = PROFILES[r % len(PROFILES)]
            starts.append(sample_weighted_graph(profile, k, cfg.seed + 1000 * k + r))
        feasible_starts.extend(
            w0 for w0 in starts if _feasible_ratio(g, h, w0, cfg.margin) is not None
        )

    best_ratio = -math.inf
    best_w = None
    tried = len(feasible_starts)
    for w0 in feasible_starts:
        ratio, w_best = _ascend(g, h, w0, cfg)
        if ratio > best_ratio:
            best_ratio, best_w = ratio, w_best
    if best_w is None:
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
        best_graphon=best_w,
        catalog_upper=upper,
        restarts=tried,
        config=cfg,
    )
