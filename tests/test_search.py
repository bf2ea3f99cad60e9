import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rhokit import (
    DomainError,
    PROFILES,
    SearchConfig,
    WeightedGraph,
    density,
    density_gradient,
    parse_graph_spec,
    ratio_objective,
    sample_weighted_graph,
    search_lower_bound,
)
from rhokit.search import _project_simplex, _ratios

H = 1e-6


def fd_weight_gradient(g, w):
    """Central differences moving (i,j) and (j,i) together."""
    k = w.block_count
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            wp, wm = w.weights.copy(), w.weights.copy()
            wp[i, j] += H
            wm[i, j] -= H
            if i != j:
                wp[j, i] += H
                wm[j, i] -= H
            out[i, j] = out[j, i] = (
                density(g, WeightedGraph(w.masses, wp)) - density(g, WeightedGraph(w.masses, wm))
            ) / (2 * H)
    return out


def fd_mass_directional(g, w, b):
    """Central difference along the simplex tangent e_b - e_0."""
    d = np.zeros(w.block_count)
    d[b], d[0] = H, -H
    return (
        density(g, WeightedGraph(w.masses + d, w.weights))
        - density(g, WeightedGraph(w.masses - d, w.weights))
    ) / (2 * H)


class TestGradient:
    @pytest.mark.parametrize("spec", ["C3", "C4", "P3", "paw", "K[2,2]"])
    def test_weight_gradient_matches_fd(self, spec):
        g = parse_graph_spec(spec)
        w = sample_weighted_graph("uniform", 3, 17)
        _, gw = density_gradient(g, w)
        fd = fd_weight_gradient(g, w)
        assert np.max(np.abs(gw - fd) / (1 + np.abs(fd))) < 1e-5

    def test_mass_gradient_matches_fd(self):
        g = parse_graph_spec("C4")
        w = sample_weighted_graph("uniform", 4, 23)
        gm, _ = density_gradient(g, w)
        for b in range(1, 4):
            assert gm[b] - gm[0] == pytest.approx(fd_mass_directional(g, w, b), rel=1e-5, abs=1e-9)

    def test_gradient_of_edge_is_outer_mass_product(self):
        g = parse_graph_spec("P1")
        w = sample_weighted_graph("uniform", 3, 5)
        gm, gw = density_gradient(g, w)
        mu = w.masses
        expected = np.outer(mu, mu) * 2 - np.diag(mu * mu)
        assert np.allclose(gw, expected)


class TestRatioObjective:
    def test_value_is_log_ratio(self):
        g, h = parse_graph_spec("C3"), parse_graph_spec("C4")
        w = sample_weighted_graph("uniform", 3, 2)
        ratio, _, _ = ratio_objective(g, h, w)
        assert ratio == pytest.approx(
            math.log(density(h, w)) / math.log(density(g, w))
        )

    def test_rejects_degenerate_base(self):
        g, h = parse_graph_spec("C3"), parse_graph_spec("C4")
        w = WeightedGraph.constant(1.0)
        with pytest.raises(DomainError):
            ratio_objective(g, h, w)
        wz = WeightedGraph([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            ratio_objective(g, h, wz)  # t(C3) = 0 on a bipartite graphon


def feasible_ratio(g, h, w, margin):
    """The ratio the search keeps for w, or None when w is infeasible."""
    return _ratios(g, h, w.masses[None], w.weights[None], margin)[0]


class TestLineSearchRatio:
    def test_ratio_only_where_feasible(self):
        margin = SearchConfig().margin
        profiles = ("uniform", "sparse", "bipartiteish", "threshold", "near_construction")
        graphons = [sample_weighted_graph(profiles[i % 5], 2 + i % 3, 70 + i) for i in range(15)]
        graphons += [
            WeightedGraph.constant(1.0),  # t(G,W) = 1
            WeightedGraph([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]),  # bipartite
        ]
        pairs = [("C3", "C4"), ("P5", "P3"), ("K3", "K2"), ("K2", "K3"), ("C4", "C3")]
        cfg = SearchConfig(block_counts=(2, 3), restarts=1, iterations=10, seed=5)
        seen = set()
        for gs, hs in pairs:
            g, h = parse_graph_spec(gs), parse_graph_spec(hs)
            # the ascent's end point too: its ratio came from ratio_objective's sweeps
            found = search_lower_bound(gs, hs, cfg)
            assert feasible_ratio(g, h, found.best_graphon, margin) == found.best_ratio
            for w in [*graphons, found.best_graphon]:
                feasible = 0.0 < density(g, w) <= 1.0 - margin and density(h, w) > 0.0
                r = feasible_ratio(g, h, w, margin)
                if feasible:
                    assert r == ratio_objective(g, h, w)[0]
                else:
                    assert r is None
                seen.add(feasible)
        assert seen == {True, False}


class TestProjection:
    def test_already_feasible_fixed(self):
        v = np.array([0.3, 0.7])
        assert np.allclose(_project_simplex(v, 1e-3), v)

    def test_output_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=4) * 3
            p = _project_simplex(v, 1e-3)
            assert abs(p.sum() - 1) < 1e-12
            assert np.all(p >= 1e-3 - 1e-15)

    def test_floor_too_large(self):
        with pytest.raises(DomainError):
            _project_simplex(np.ones(4), 0.5)


class TestSearch:
    def test_two_clique_optimum_found(self):
        cfg = SearchConfig(block_counts=(2,), restarts=2, iterations=120, seed=1)
        res = search_lower_bound("C3", "C4", cfg)
        assert res.best_ratio >= 1.49
        assert res.best_ratio <= 1.6 + 1e-6
        assert res.catalog_upper == pytest.approx(1.6)

    def test_result_graphon_reproduces_ratio(self):
        cfg = SearchConfig(block_counts=(2,), restarts=2, iterations=80, seed=3)
        res = search_lower_bound("C3", "C4", cfg)
        w = res.best_graphon
        g, h = parse_graph_spec("C3"), parse_graph_spec("C4")
        assert math.log(density(h, w)) / math.log(density(g, w)) == pytest.approx(res.best_ratio)

    def test_identity_pair_ratio_one(self):
        cfg = SearchConfig(block_counts=(2,), restarts=1, iterations=20, seed=0)
        res = search_lower_bound("C4", "C4", cfg)
        assert res.best_ratio == pytest.approx(1.0)

    def test_repeat_is_identical(self):
        cfg = SearchConfig(block_counts=(2,), restarts=2, iterations=40, seed=9)
        a = search_lower_bound("K3", "K2", cfg)
        b = search_lower_bound("K3", "K2", cfg)
        assert a.to_json() == b.to_json()

    def test_rejects_edgeless(self):
        with pytest.raises(DomainError):
            search_lower_bound("2xK1", "K2")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(block_counts=(2.5,)),
            dict(block_counts=2),
            dict(block_counts="2"),
            dict(restarts=1.5),
            dict(iterations=2.5),
        ],
    )
    def test_non_integer_config_rejected(self, bad):
        with pytest.raises(DomainError, match="must be integers"):
            search_lower_bound("C3", "C4", SearchConfig(**bad))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(step0=math.nan),
            dict(step0=math.inf),
            dict(step0="a"),
            dict(step0=0.0),
            dict(step0=-1.0),
            dict(margin=-0.5),
            dict(margin=0),
            dict(margin=1.0),
            dict(margin=None),
            dict(mass_floor=-0.1),
            dict(mass_floor=0.0),
            dict(mass_floor=math.nan),
        ],
    )
    def test_bad_float_config_rejected(self, bad):
        with pytest.raises(DomainError, match="step0 and mass_floor must be finite positive"):
            search_lower_bound("C3", "C4", SearchConfig(**bad))

    def test_numpy_integer_config(self):
        cfg = SearchConfig(
            block_counts=(np.int64(2),), restarts=np.int64(1), iterations=np.int32(5)
        )
        res = search_lower_bound("K3", "K2", cfg)
        plain = SearchConfig(block_counts=(2,), restarts=1, iterations=5)
        assert res.to_json() == search_lower_bound("K3", "K2", plain).to_json()

    def test_mixed_block_starts(self):
        # the near_construction start has 2 blocks and the others 8, so the
        # two groups ascend apart, and the best of all starts wins
        cfg = SearchConfig(block_counts=(8,), restarts=6, iterations=20)
        profiles = [PROFILES[r % len(PROFILES)] for r in range(6)]
        starts = [sample_weighted_graph(p, 8, 8000 + r) for r, p in enumerate(profiles)]
        assert {w.block_count for w in starts} == {2, 8}
        res = search_lower_bound("C3", "C4", cfg)
        g, h = parse_graph_spec("C3"), parse_graph_spec("C4")
        assert feasible_ratio(g, h, res.best_graphon, cfg.margin) == res.best_ratio
        assert res.best_ratio <= res.catalog_upper + 1e-6

    def test_json_and_dump(self):
        cfg = SearchConfig(block_counts=(2,), restarts=1, iterations=30, seed=2)
        res = search_lower_bound("K3", "K2", cfg)
        j = res.to_json()
        assert j["blocks"] == len(j["masses"])
        buf = io.StringIO()
        res.best_graphon.dump(buf)
        buf.seek(0)
        assert WeightedGraph.load(buf) == res.best_graphon


# tests/data/search_golden.json holds search_lower_bound(G, H, cfg).to_json()
# for every pair and config below, written by the ascent of one start at a
# time.  Regenerate it with `PYTHONPATH=src python tests/test_search.py` after
# a deliberate change to the search, and say which results moved.
GOLDEN_FILE = Path(__file__).parent / "data" / "search_golden.json"
GOLDEN_PAIRS = (("C3", "C4"), ("P5", "P3"), ("K3", "K2"), ("P3", "P2"), ("C5", "C3"))
GOLDEN_CONFIGS = {
    "benchmark": SearchConfig(block_counts=(2,), restarts=1, iterations=6, seed=1),
    "multi_block": SearchConfig(block_counts=(1, 3, 5), restarts=6, iterations=5, seed=3),
    "iterations_0": SearchConfig(block_counts=(2, 3), restarts=2, iterations=0, seed=1),
    "restarts_0": SearchConfig(block_counts=(2, 4), restarts=0, iterations=20, seed=1),
}


def golden_searches():
    return {
        name: [search_lower_bound(g, h, cfg).to_json() for g, h in GOLDEN_PAIRS]
        for name, cfg in GOLDEN_CONFIGS.items()
    }


def test_search_matches_golden_file():
    # ratios and graphons to 1e-12 relative, as BLAS may round differently
    # on another machine; everything else exactly
    expected = json.loads(GOLDEN_FILE.read_text())
    got = golden_searches()
    assert list(got) == list(expected)
    for name in expected:
        for want, have in zip(expected[name], got[name], strict=True):
            where = (name, want["g"], want["h"])
            for key in ("best_ratio", "masses", "weights"):
                np.testing.assert_allclose(have.pop(key), want.pop(key), rtol=1e-12, err_msg=str(where))
            assert have == want, where


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps(golden_searches(), indent=1) + "\n")
