import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rhokit import (
    DomainError,
    PROFILES,
    SUITES,
    WeightedGraph,
    domination_residual,
    parse_graph_spec,
    reports_to_junit,
    run_all_suites,
    run_suite,
    sample_weighted_graph,
)
from rhokit.verify import _sample


class TestSampling:
    def test_deterministic(self):
        a = sample_weighted_graph("uniform", 4, 99)
        b = sample_weighted_graph("uniform", 4, 99)
        assert a == b

    def test_seed_changes_sample(self):
        assert sample_weighted_graph("uniform", 4, 1) != sample_weighted_graph("uniform", 4, 2)

    def test_profiles_are_valid_graphons(self):
        for profile in PROFILES:
            for size in (2, 3, 5):
                w = sample_weighted_graph(profile, size, 3)
                if profile != "near_construction":  # that one keeps its base's blocks
                    assert w.block_count == size
                assert abs(float(w.masses.sum()) - 1) < 1e-12

    def test_near_construction_ignores_size(self):
        # one of four constructions at scale 1: 1 block (constant_p) or 2
        sizes_and_seeds = itertools.product(range(1, 9), range(40))
        draws = [sample_weighted_graph("near_construction", n, s) for n, s in sizes_and_seeds]
        assert {w.block_count for w in draws} == {1, 2}

    def test_sparse_is_sparse(self):
        w = sample_weighted_graph("sparse", 4, 5)
        assert float(w.weights.max()) <= 0.1

    def test_bipartiteish_structure(self):
        w = sample_weighted_graph("bipartiteish", 4, 5)
        assert float(w.weights[0, 2]) > 0.5  # cross edges heavy
        assert float(w.weights[0, 1]) < 0.1  # within-side edges light

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_weighted_graph("nope", 3, 1)
        with pytest.raises(DomainError):
            sample_weighted_graph("uniform", 0, 1)

    @pytest.mark.parametrize(
        "size,seed", [(2, 1.5), (2.0, 1), (2, 1.0), (2, "1"), (None, 1), (2, np.float64(1))]
    )
    def test_rejects_non_integer_size_or_seed(self, size, seed):
        with pytest.raises(DomainError, match="must be integers"):
            sample_weighted_graph("uniform", size, seed)

    def test_numpy_integers_share_the_draw(self):
        a = sample_weighted_graph("uniform", np.int64(3), np.int32(7))
        assert a is sample_weighted_graph("uniform", 3, 7)


class TestResidual:
    def test_subgraph_monotone(self):
        w = sample_weighted_graph("uniform", 3, 8)
        # P2 is a subgraph of P3, so t(P2) >= t(P3): residual at c = 1
        assert domination_residual("P3", "P2", 1, w) >= 0

    def test_exact_value_binds(self):
        w = sample_weighted_graph("uniform", 3, 8)
        assert domination_residual("K3", "K2", 2 / 3, w) >= -1e-12

    def test_zero_base_rejected(self):
        w = sample_weighted_graph("bipartiteish", 2, 1)
        w2 = type(w)([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            domination_residual("C3", "C4", 1, w2)

    def test_accepts_graph_objects(self):
        w = sample_weighted_graph("uniform", 2, 8)
        g = parse_graph_spec("C4")
        assert domination_residual(g, g, 1, w) == pytest.approx(0.0)

    def test_zero_target_fails_even_when_base_is_one(self):
        # t(K1, W) = 1 and t(K2, W) = 0: t(K2) >= t(K1)^1 fails outright
        w = WeightedGraph([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])
        assert domination_residual("K1", "K2", 1, w) == -math.inf


class TestSuites:
    def test_all_suite_ids_present(self):
        assert set(SUITES) == {
            "holder", "path_interpolation", "blakely_roy_gen", "cycle_tail",
            "shearer_star", "spectral_lp", "kruskal_katona", "hub",
            "majorization_monotone", "star_tree", "delta_star", "cycle_path",
            "bipartite_cases", "odd_cycle_bounds", "catalog_upper",
        }

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_each_suite_passes_briefly(self, suite):
        rep = run_suite(suite, trials=25, seed=11)
        assert rep.passed, rep.failures
        assert rep.evaluated + rep.skipped == 25
        assert rep.evaluated > 0

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("nope", 5, 1)

    def test_negative_trials_rejected(self):
        with pytest.raises(DomainError):
            run_suite("hub", -3, 0)

    @pytest.mark.parametrize("trials,seed", [(5, 1.5), (2.0, 1), ("2", 1), (2, None)])
    def test_non_integer_trials_or_seed_rejected(self, trials, seed):
        with pytest.raises(DomainError, match="must be integers"):
            run_suite("hub", trials, seed)
        with pytest.raises(DomainError, match="must be integers"):
            run_all_suites(trials, seed)

    def test_numpy_integer_trials_and_seed(self):
        rep = run_suite("hub", np.int64(3), np.int32(4))
        assert rep.to_json() == run_suite("hub", 3, 4).to_json()
        assert type(rep.trials) is int

    def test_report_reproducible(self):
        a = run_suite("holder", 30, seed=4).to_json()
        b = run_suite("holder", 30, seed=4).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_json_shape(self):
        j = run_suite("kruskal_katona", 10, seed=2).to_json()
        assert set(j) == {"suite", "trials", "evaluated", "skipped", "failures",
                          "min_residual", "passed"}
        assert j["min_residual"] is None or j["min_residual"] >= -1e-9

    def test_zero_trials(self):
        j = run_suite("hub", 0, seed=0).to_json()
        assert j["passed"] is True
        assert j["min_residual"] is None

    def test_run_all_draws_one_graphon_per_trial(self):
        # trial t of every suite samples the same graphon
        _sample.cache_clear()
        run_all_suites(6, seed=9)
        assert _sample.cache_info().misses == 6
        assert _sample.cache_info().hits == 6 * (len(SUITES) - 1)

    def test_shared_draws_give_the_same_reports(self):
        shared = [r.to_json() for r in run_all_suites(10, seed=5)]
        fresh = []
        for suite in sorted(SUITES):
            _sample.cache_clear()
            fresh.append(run_suite(suite, 10, seed=5).to_json())
        assert json.dumps(shared) == json.dumps(fresh)

    def test_run_all_matches_each_suite(self):
        together = [r.to_json() for r in run_all_suites(10, seed=3)]
        one_by_one = [run_suite(s, 10, seed=3).to_json() for s in sorted(SUITES)]
        assert together == one_by_one


class TestJunit:
    def test_junit_well_formed(self):
        import xml.etree.ElementTree as ET

        reports = run_all_suites(5, seed=1)
        xml = reports_to_junit(reports)
        root = ET.fromstring(xml)
        assert root.tag == "testsuites"
        names = {el.get("name") for el in root}
        assert names == set(SUITES)
        for el in root:
            assert el.get("failures") == "0"


# tests/data/verify_golden.json holds the reports of run_all_suites(200, 1),
# the suites `rhokit verify --trials 200 --seed 1` prints.  Regenerate it with
# `PYTHONPATH=src python tests/test_verifier.py` after a deliberate change to
# the verifier or the density engine, and say which reports moved.
VERIFY_GOLDEN_FILE = Path(__file__).parent / "data" / "verify_golden.json"


def golden_reports():
    return [report.to_json() for report in run_all_suites(200, 1)]


def assert_residual_close(have, want, where):
    # within 1e-12 absolute, as BLAS may round differently on another
    # machine and several residuals sit at -4.4e-16; null (nothing evaluated,
    # or -inf) stays null
    assert (have is None) == (want is None), where
    assert want is None or abs(have - want) <= 1e-12, where


def test_verify_matches_golden_file():
    expected = json.loads(VERIFY_GOLDEN_FILE.read_text())
    got = golden_reports()
    assert [r["suite"] for r in got] == [r["suite"] for r in expected]
    for want, have in zip(expected, got):
        where = want["suite"]
        assert_residual_close(have.pop("min_residual"), want.pop("min_residual"), where)
        assert len(have["failures"]) == len(want["failures"]), where
        for have_failure, want_failure in zip(have["failures"], want["failures"]):
            assert_residual_close(have_failure.pop("residual"), want_failure.pop("residual"), where)
        # counts, descriptions and passed exactly
        assert have == want, where


if __name__ == "__main__":
    VERIFY_GOLDEN_FILE.write_text(json.dumps(golden_reports(), indent=1) + "\n")
