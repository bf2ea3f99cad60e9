"""Parameterized extremal step-graphon families and lower-bound certification.

Every "graph sequence" construction is realized as a 2-3 block step
graphon whose mass ratios stand in for vertex counts, so densities stay
closed-form at scales up to 1e9.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .density import json_number, log_density
from .errors import DegenerateDensityError, DomainError
from .graphs import WeightedGraph, as_graph

_PARAM_COUNTS = {
    "constant_p": 1,
    "half_block": 0,
    "two_clique": 0,
    "looped_star": 0,
    "paw_family": 0,
    "clique_pendant_star": 1,
    "looped_vertex": 0,
    "kpartite_unbalanced": 2,
}
KINDS = tuple(_PARAM_COUNTS)


def build_construction(kind, params, n):
    """Instantiate a construction family at scale n as a WeightedGraph.

    * constant_p(p): one block of weight p.
    * half_block: half the space carries weight 1 against itself, the rest 0.
    * two_clique: two equal blocks, full within, empty across.
    * looped_star: looped hub of mass 1/(n+1), n/(n+1) of leaves.
    * paw_family: bulk of weight n^(-1/2), one heavy looped block of mass 1/n.
    * clique_pendant_star(t): clique of size floor(n^(t/(t+1))), one clique
      vertex joined to n pendants.
    * looped_vertex: single looped block of mass 1/n in empty space.
    * kpartite_unbalanced(k, i): complete k-partite, i big parts of relative
      mass n and k-i parts of relative mass 1.
    """
    params = ConstructionFamily(kind, params).params  # kind and parameters checked
    if n < 1:
        raise DomainError("scale n must be >= 1")
    n = float(n)
    if kind == "constant_p":
        (p,) = params
        if not 0 <= p <= 1:
            raise DomainError("constant_p needs p in [0,1]")
        return WeightedGraph.constant(p)
    if kind == "half_block":
        return WeightedGraph([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]])
    if kind == "two_clique":
        return WeightedGraph([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    if kind == "looped_star":
        return WeightedGraph(
            [1.0 / (n + 1), n / (n + 1)], [[1.0, 1.0], [1.0, 0.0]]
        )
    if kind == "paw_family":
        if n < 2:
            raise DomainError("paw_family needs n >= 2")
        # heavy looped block of mass m, bulk weight sqrt(m); scale n is
        # mapped to m = n^-4 so the log-ratio is within 1/30 of its 4/3
        # limit already at n = 1e6
        m = n**-4.0
        return WeightedGraph([1.0 - m, m], [[math.sqrt(m), 1.0], [1.0, 1.0]])
    if kind == "clique_pendant_star":
        (t,) = params
        if t < 1:
            raise DomainError("clique_pendant_star needs t >= 1")
        q = math.floor(n ** (t / (t + 1)))
        if q < 2:
            raise DomainError("scale too small for the clique block")
        total = q + n
        return WeightedGraph(
            [1.0 / total, (q - 1) / total, n / total],
            [[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
        )
    if kind == "looped_vertex":
        if n < 2:
            raise DomainError("looped_vertex needs n >= 2")
        return WeightedGraph([1.0 / n, (n - 1) / n], [[1.0, 0.0], [0.0, 0.0]])
    # kpartite_unbalanced
    k, i = params
    if not (k == int(k) and i == int(i) and 1 <= i <= k):
        raise DomainError(f"kpartite_unbalanced needs integers 1 <= i <= k, got {params}")
    k, i = int(k), int(i)
    total = i * n + (k - i)
    masses = [n / total] * i + [1.0 / total] * (k - i)
    weights = [[0.0 if r == c else 1.0 for c in range(k)] for r in range(k)]
    return WeightedGraph(masses, weights)


@dataclass(frozen=True)
class ConstructionFamily:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown construction kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))
        count = _PARAM_COUNTS[self.kind]
        if len(self.params) != count or not all(map(math.isfinite, self.params)):
            raise DomainError(f"{self.kind} takes {count} finite parameter(s), got {self.params}")

    def at_scale(self, n):
        return build_construction(self.kind, self.params, n)


@dataclass(frozen=True)
class CertificateReport:
    """Density log-ratios of a construction family along a scale schedule."""

    g_spec: str
    h_spec: str
    family: ConstructionFamily
    claimed: float
    schedule: tuple  # of (scale, log_t_g, log_t_h, ratio)
    skipped: tuple  # scales with degenerate t(G, W_n)

    @property
    def achieved(self):
        return max(row[3] for row in self.schedule)

    @property
    def gap(self):
        return self.claimed - self.achieved

    def to_json(self):
        return {
            "g": self.g_spec,
            "h": self.h_spec,
            "family": {"kind": self.family.kind, "params": list(self.family.params)},
            "claimed": json_number(self.claimed),
            "achieved": json_number(self.achieved),
            "gap": json_number(self.gap),
            "schedule": [
                {"scale": s, "log_t_g": lg, "log_t_h": json_number(lh), "ratio": json_number(r)}
                for s, lg, lh, r in self.schedule
            ],
            "skipped_scales": list(self.skipped),
        }

    def write_csv(self, fh):
        """The schedule as CSV, in logs: t itself underflows to 0.0 at large
        scales.  A -inf log or an infinite ratio is an empty cell."""
        writer = csv.writer(fh)
        writer.writerow(["scale", "log_t_G", "log_t_H", "ratio"])
        for s, lg, lh, r in self.schedule:
            writer.writerow([s, lg, json_number(lh), json_number(r)])


def certify_lower_bound(g, h, family, schedule, claimed=None):
    """Evaluate log t(H,W_n)/log t(G,W_n) at every scale in the schedule.

    Scales where t(G,W_n) is 0 or 1 (no finite log-ratio) are flagged and
    skipped.  Convergence is not assumed to be monotone: `achieved` is the
    best ratio seen anywhere on the schedule.
    """
    g_graph, h_graph = as_graph(g), as_graph(h)
    rows = []
    skipped = []
    for scale in schedule:
        w = family.at_scale(scale)
        lg = log_density(g_graph, w)
        if lg == -math.inf or lg == 0.0:
            skipped.append(scale)
            continue
        lh = log_density(h_graph, w)
        rows.append((scale, lg, lh, lh / lg))
    if not rows:
        raise DegenerateDensityError(
            "t(G, W_n) was degenerate at every scheduled scale"
        )
    if claimed is None:
        claimed = max(r[3] for r in rows)
    return CertificateReport(
        g_spec=str(g),
        h_spec=str(h),
        family=family,
        claimed=float(claimed),
        schedule=tuple(rows),
        skipped=tuple(skipped),
    )
