import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rhokit import (
    DomainError,
    EnumerationCapError,
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
from rhokit.catalog import rho_exact
from rhokit.verify import _CATALOG_PAIRS, _Stream, _log_densities, _sample

density_module = importlib.import_module("rhokit.density")


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


def entropy_lists(count, seed):
    """3-word entropy lists as _sample and run_suite build them: small
    indices and sizes, zero words, and seeds masked to 31 bits."""
    r = random.Random(seed)
    words = [
        lambda: 0,
        lambda: r.randrange(16),
        lambda: r.randrange(1000),
        lambda: r.getrandbits(31),
        lambda: r.getrandbits(31) | 0x40000000,
        lambda: 0x7FFFFFFF,
    ]
    return [[r.choice(words)() for _ in range(3)] for _ in range(count)]


def streams(entropy):
    """numpy's default_rng stream and rhokit's, seeded alike."""
    return np.random.default_rng(entropy), _Stream(entropy)


DRAWS = [
    ("random",),
    ("random", 5),
    ("random", (4, 4)),
    ("integers", 2),
    ("integers", 23),
    ("integers", 2**32),
    ("integers", 3, 20),
    ("integers", 0, 3),
    ("integers", 6, 7),
    ("choice", [2, 4]),
    ("choice", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("permutation", 1),
    ("permutation", 6),
    ("permutation", 17),
]


def assert_same_draw(numpy_rng, stream, draw, where):
    name, *args = draw
    want, have = getattr(numpy_rng, name)(*args), getattr(stream, name)(*args)
    if name == "random" and args:
        assert have.dtype == want.dtype and have.shape == want.shape, where
    assert np.array_equal(np.asarray(have), np.asarray(want)), (where, draw)


class TestStream:
    """_Stream against the numpy stream it reproduces."""

    def test_seeding_matches_numpy(self):
        for entropy in entropy_lists(3000, seed=1):
            numpy_rng, stream = streams(entropy)
            want = [int(x) for x in numpy_rng.bit_generator.random_raw(3)]
            assert [stream._next64() for _ in range(3)] == want, entropy

    def test_longer_entropy_matches_numpy(self):
        # words past 32 bits split into several, and lists past the pool of 4
        for entropy in ([2**40 + 5, 3, 7], [2**70 - 1], [1, 2, 3, 4, 5, 6], [], [0]):
            numpy_rng, stream = streams(entropy)
            assert stream._next64() == int(numpy_rng.bit_generator.random_raw()), entropy

    def test_entropy_past_the_constant_table(self):
        # 5 to 8 words mix hashes past the tables kept for entropy of 4 words
        r = random.Random(4)
        for words in range(5, 9):
            for _ in range(100):
                entropy = [r.getrandbits(32) for _ in range(words)]
                numpy_rng, stream = streams(entropy)
                want = [int(x) for x in numpy_rng.bit_generator.random_raw(2)]
                assert [stream._next64() for _ in range(2)] == want, entropy
        # and words split from wide ints
        for entropy in ([2**40 + 5, 2**33, 7], [2**130 - 3, 1], [5, 2**64 + 9, 2**32, 0]):
            numpy_rng, stream = streams(entropy)
            assert stream._next64() == int(numpy_rng.bit_generator.random_raw()), entropy

    @pytest.mark.parametrize("draw", DRAWS, ids=lambda d: repr(d))
    def test_each_draw_kind(self, draw):
        for entropy in entropy_lists(300, seed=2):
            numpy_rng, stream = streams(entropy)
            for _ in range(6):
                assert_same_draw(numpy_rng, stream, draw, entropy)

    def test_interleaved_draws(self):
        r = random.Random(3)
        for entropy in entropy_lists(1000, seed=3):
            numpy_rng, stream = streams(entropy)
            for draw in r.choices(DRAWS, k=8):
                assert_same_draw(numpy_rng, stream, draw, entropy)

    def test_scalar_draws_are_python_numbers(self):
        stream = _Stream([1, 2, 3])
        assert type(stream.random()) is float
        assert type(stream.integers(5)) is int
        assert all(type(v) is int for v in stream.permutation(4))

    def test_second_integer_reads_the_buffered_half(self):
        # a 32-bit draw takes the low half of a 64-bit output and keeps the
        # high half for the next one; random() between them leaves it alone
        numpy_rng, stream = streams([4, 2, 99])
        raw = np.random.default_rng([4, 2, 99]).bit_generator.random_raw(2)
        first, second = (int(x) for x in raw)
        draws = [stream.integers(2**32), stream.random(), stream.integers(2**32)]
        assert draws == [first & 0xFFFFFFFF, (second >> 11) * 2.0**-53, first >> 32]
        assert draws == [numpy_rng.integers(2**32), numpy_rng.random(), numpy_rng.integers(2**32)]

    def test_a_range_of_one_draws_nothing(self):
        numpy_rng, stream = streams([0, 5, 0])
        assert stream.integers(1) == numpy_rng.integers(1) == 0
        assert stream.integers(6, 7) == numpy_rng.integers(6, 7) == 6
        assert stream.choice([7]) == numpy_rng.choice([7]) == 7
        fresh = _Stream([0, 5, 0])
        assert stream._next64() == fresh._next64() == int(numpy_rng.bit_generator.random_raw())

    def test_cold_search_and_verify_leave_numpy_random_unimported(self):
        code = (
            "import json, sys\n"
            "from rhokit import SearchConfig, run_suite, search_lower_bound\n"
            "before = set(sys.modules)\n"
            "config = SearchConfig(block_counts=(2,), restarts=1, iterations=6)\n"
            "search_lower_bound('C3', 'C4', config)\n"
            "run_suite('star_tree', 10, 1)\n"
            "loaded = sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules)\n"
            "print(json.dumps([loaded, sorted(set(sys.modules) - before)]))\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, imported = json.loads(proc.stdout)
        assert loaded == [], f"modules imported beyond import rhokit: {imported}"


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


class TestLogDensityMemo:
    """The suites share each trial graphon's log densities."""

    def test_cold_round_contracts_each_pair_once(self, monkeypatch):
        for gs, hs in _CATALOG_PAIRS:  # the catalog's own hom counts stay out of the count
            rho_exact(gs, hs)
        _sample.cache_clear()
        _log_densities.cache_clear()
        trial = {}

        def seen(fn):
            def suite(rng, w):
                trial["w"] = w
                return fn(rng, w)

            return suite

        for name, fn in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, seen(fn))
        contract, calls = density_module._contract, []

        def counted(g, *args, **kwargs):
            calls.append((g, id(trial["w"])))
            return contract(g, *args, **kwargs)

        monkeypatch.setattr(density_module, "_contract", counted)
        run_all_suites(50, 20240)
        assert len(calls) == len(set(calls)) == 934

    def test_memoized_residual_raises_under_a_lowered_cap(self, monkeypatch):
        w = sample_weighted_graph("uniform", 3, 8)
        first = domination_residual("C4", "P2", 1, w)
        assert domination_residual("C4", "P2", 1, w) == first
        monkeypatch.setenv("RHOKIT_ENUM_CAP", "1")
        for _ in range(2):
            with pytest.raises(EnumerationCapError):
                domination_residual("C4", "P2", 1, w)
        monkeypatch.delenv("RHOKIT_ENUM_CAP")
        assert domination_residual("C4", "P2", 1, w) == first

    def test_signed_zero_weights_share_one_entry(self):
        # -0.0 == 0.0, so the two graphons are equal and must hash alike
        masses = [0.5, 0.5]
        w = WeightedGraph(masses, [[0.0, 0.5], [0.5, 1.0]])
        w_neg = WeightedGraph(masses, [[-0.0, 0.5], [0.5, 1.0]])
        assert w == w_neg and hash(w) == hash(w_neg) and len({w, w_neg}) == 1
        _log_densities.cache_clear()
        assert domination_residual("P2", "P2", 1, w) == domination_residual("P2", "P2", 1, w_neg)
        assert _log_densities.cache_info().currsize == 1

    def test_cold_and_warm_memo_give_equal_reports(self):
        _log_densities.cache_clear()
        cold = [r.to_json() for r in run_all_suites(20, seed=6)]
        assert _log_densities.cache_info().hits > 0
        warm = [r.to_json() for r in run_all_suites(20, seed=6)]
        assert json.dumps(cold) == json.dumps(warm)


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
