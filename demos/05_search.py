"""Gradient search for extremal step graphons.

The search maximizes the log-density ratio log t(H, W) / log t(G, W) over
step graphons with a fixed number of blocks, using gradients taken by
one reverse sweep through each pattern's contraction program and projected
gradient ascent (simplex for the masses, box for the weights).  Any ratio it finds is a certified lower bound on rho(G, H);
exceeding the catalog's proven upper bound would signal an engine bug and
raises instead of returning.
"""

from rhokit import SearchConfig, density_gradient, parse_graph_spec, sample_weighted_graph, search_lower_bound

# gradients: d t(C4, W) / d masses and / d weights
w = sample_weighted_graph("uniform", 3, seed=1)
gm, gw = density_gradient(parse_graph_spec("C4"), w)
print("mass gradient of t(C4, W):", gm.round(4))
print("weight gradient:\n", gw.round(4))

# (C3, C4): the two-half-clique optimum with ratio 3/2 is found quickly
cfg = SearchConfig(block_counts=(2, 3), restarts=4, iterations=150, seed=0)
res = search_lower_bound("C3", "C4", cfg)
print(f"\n(C3, C4): best ratio {res.best_ratio:.6f}"
      f" (proven upper bound {res.catalog_upper})")
print("best graphon:", res.best_graphon)

# (P5, P3): the value is open; the search brackets it from below while the
# catalog caps it at 3/4
res = search_lower_bound("P5", "P3", cfg)
print(f"\n(P5, P3): best ratio {res.best_ratio:.6f}"
      f" (proven upper bound {res.catalog_upper})")
