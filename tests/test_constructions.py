import io
import math

import pytest

from rhokit import (
    CertificateReport,
    ConstructionFamily,
    DegenerateDensityError,
    DomainError,
    build_construction,
    certify_lower_bound,
    density,
    log_density,
    parse_graph_spec,
)


class TestBuildConstruction:
    def test_constant_p(self):
        w = build_construction("constant_p", [0.3], 1)
        assert w.block_count == 1
        assert w.weights[0, 0] == 0.3
        with pytest.raises(DomainError):
            build_construction("constant_p", [1.2], 1)

    def test_half_block_densities(self):
        w = build_construction("half_block", [], 1)
        # a clique on half the space: t(G) = (1/2)^{|V(G)|} for connected G
        assert density(parse_graph_spec("K3"), w) == pytest.approx(0.125)
        assert density(parse_graph_spec("K2"), w) == pytest.approx(0.25)

    def test_two_clique_exact_ratio(self):
        w = build_construction("two_clique", [], 5)
        lg = log_density(parse_graph_spec("C3"), w)
        lh = log_density(parse_graph_spec("C4"), w)
        assert lh / lg == pytest.approx(1.5, abs=1e-12)

    def test_looped_star_mass_split(self):
        w = build_construction("looped_star", [], 9)
        assert w.masses[0] == pytest.approx(0.1)
        assert w.weights[0, 0] == 1.0 and w.weights[1, 1] == 0.0

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            build_construction("half_block", [], 0)
        with pytest.raises(DomainError):
            build_construction("paw_family", [], 1)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_construction("mystery", [], 1)
        with pytest.raises(DomainError):
            ConstructionFamily("mystery")

    @pytest.mark.parametrize(
        "kind, params, expected",
        [("constant_p", (), 1), ("kpartite_unbalanced", (2,), 2), ("half_block", (5,), 0)],
    )
    def test_parameter_count(self, kind, params, expected):
        with pytest.raises(DomainError, match=f"takes {expected} finite parameter"):
            ConstructionFamily(kind, params)

    def test_kpartite_unbalanced(self):
        w = build_construction("kpartite_unbalanced", [3, 1], 10)
        assert w.block_count == 3
        assert w.weights[0, 0] == 0.0
        assert w.masses[0] == pytest.approx(10 / 12)

    @pytest.mark.parametrize("params", [(2.5, 1), (3, 1.5), (2, 3), (2, 0)])
    def test_kpartite_unbalanced_needs_integers_in_order(self, params):
        with pytest.raises(DomainError, match="integers 1 <= i <= k"):
            build_construction("kpartite_unbalanced", params, 10)

    def test_clique_pendant_star_masses_sum(self):
        w = build_construction("clique_pendant_star", [2], 100)
        assert w.block_count == 3
        assert abs(sum(w.masses) - 1) < 1e-12


class TestCertification:
    def test_two_clique_certificate(self):
        fam = ConstructionFamily("two_clique")
        rep = certify_lower_bound("C3", "C4", fam, [1, 10, 100], claimed=1.5)
        assert rep.achieved == pytest.approx(1.5, abs=1e-12)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_achieved_is_max_over_schedule(self):
        fam = ConstructionFamily("looped_star")
        rep = certify_lower_bound("C3", "C5", fam, [10, 100, 1000])
        assert rep.achieved == max(row[3] for row in rep.schedule)

    def test_skips_degenerate_scales(self):
        # the two-clique graphon is bipartite-free; a C4 base works at all
        # scales, but an all-ones constant graphon degenerates (t = 1)
        fam = ConstructionFamily("constant_p", (1.0,))
        with pytest.raises(DegenerateDensityError):
            certify_lower_bound("C3", "C4", fam, [1, 2, 3])

    def test_claimed_defaults_to_achieved(self):
        fam = ConstructionFamily("half_block")
        rep = certify_lower_bound("K3", "K2", fam, [1])
        assert rep.claimed == rep.achieved
        assert rep.gap == 0.0

    def test_json_and_csv(self):
        fam = ConstructionFamily("two_clique")
        rep = certify_lower_bound("C3", "C4", fam, [1, 2], claimed=1.5)
        j = rep.to_json()
        assert j["family"]["kind"] == "two_clique"
        assert len(j["schedule"]) == 2
        buf = io.StringIO()
        rep.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "scale,log_t_G,log_t_H,ratio"
        assert len(lines) == 3

    def test_graph_objects_accepted(self):
        fam = ConstructionFamily("half_block")
        rep = certify_lower_bound(parse_graph_spec("K3"), parse_graph_spec("K2"), fam, [1])
        assert rep.achieved == pytest.approx(2 / 3)


class TestKnownLimits:
    def test_paw_family_approaches_four_thirds(self):
        fam = ConstructionFamily("paw_family")
        rep = certify_lower_bound("paw", "C4", fam, [100, 10**4, 10**6], claimed=4 / 3)
        assert rep.achieved >= 1.30
        assert rep.gap <= 1 / 30

    def test_looped_star_cycle_ratios(self):
        # hub-dominated graphon: an odd cycle must spend ceil(k/2)+... at the
        # hub; the (C5, C3) log-ratio tends to 2/3 as the leaf mass grows
        fam = ConstructionFamily("looped_star")
        n = 10**6
        rep = certify_lower_bound("C5", "C3", fam, [n])
        assert abs(rep.achieved - 2 / 3) < 10 / math.log(n)
