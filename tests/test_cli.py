import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from rhokit.cli import run_cli
from rhokit.graphs import WeightedGraph, complete
from rhokit.verify import SUITES


def schema(name):
    path = importlib.resources.files("rhokit") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def invoke(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRho:
    def test_exact_json(self, capsys):
        code, out, err = invoke(capsys, "rho", "P1", "P2")
        assert code == 0 and err == ""
        payload = json.loads(out)
        jsonschema.validate(payload, schema("rho_result"))
        assert payload["status"] == "exact"
        assert payload["value"] == 2.0
        assert payload["value_exact"] == "2/1"

    def test_interval_json(self, capsys):
        code, out, _ = invoke(capsys, "rho", "C3", "C4")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("rho_result"))
        assert (payload["lower"], payload["upper"]) == (1.5, 1.6)

    def test_infinite_json(self, capsys):
        code, out, _ = invoke(capsys, "rho", "K2", "K3")
        payload = json.loads(out)
        jsonschema.validate(payload, schema("rho_result"))
        assert payload["status"] == "infinite"

    def test_byte_identical(self, capsys):
        _, out1, _ = invoke(capsys, "rho", "C3", "C4")
        _, out2, _ = invoke(capsys, "rho", "C3", "C4")
        assert out1 == out2

    def test_bad_spec_exit_2(self, capsys):
        code, out, err = invoke(capsys, "rho", "P(", "P2")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["code"] == "graph-spec"

    @pytest.mark.parametrize(
        "g, h, status, lower, upper",
        [("K[2,2,1]", "P30", "exact", "15/2", "15/2"), ("P30", "S3", "interval", "4/31", "2/15")],
    )
    def test_large_bipartite_graphs(self, capsys, g, h, status, lower, upper):
        # alpha of P30 and delta_i of P30's 31 vertices take no vertex cap
        code, out, _ = invoke(capsys, "rho", g, h)
        payload = json.loads(out)
        assert code == 0
        assert (payload["status"], payload["lower_exact"]) == (status, lower)
        assert payload["upper_exact"] == upper

    def test_large_odd_cycle_hits_the_independence_cap(self, capsys):
        # C25 is one non-bipartite component of 25 vertices, searched under the cap
        assert_input_error(capsys, ("rho", "K3", "C25"), "enumeration-cap")


class TestDensity:
    def test_builtin_graphon(self, capsys):
        code, out, _ = invoke(capsys, "density", "K2", "--graphon", "builtin:constant_p:0.5")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("density"))
        assert payload["density"] == 0.5

    def test_builtin_with_scale(self, capsys):
        code, out, _ = invoke(capsys, "density", "C4", "--graphon", "builtin:looped_star@10")
        assert code == 0
        assert 0 < json.loads(out)["density"] < 1

    def test_graphon_file(self, capsys, tmp_path):
        f = tmp_path / "w.graphon"
        f.write_text("2\n0.5 0.5\n1.0 0.0\n0.0 0.0\n")
        code, out, _ = invoke(capsys, "density", "K3", "--graphon", str(f))
        assert code == 0
        assert json.loads(out)["density"] == pytest.approx(0.125)

    def test_missing_file_exit_2(self, capsys):
        code, _, err = invoke(capsys, "density", "K3", "--graphon", "/nope.graphon")
        assert code == 2
        assert json.loads(err)["code"] == "file-not-found"

    def test_unknown_builtin_exit_2(self, capsys):
        code, _, err = invoke(capsys, "density", "K3", "--graphon", "builtin:nope")
        assert code == 2
        assert json.loads(err)["code"] == "domain"

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "--format", "text", "density", "K2",
                              "--graphon", "builtin:constant_p:0.25")
        assert code == 0
        assert float(out.strip()) == 0.25


class TestCertify:
    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "certify", "C3", "C4", "--family", "two_clique",
                              "--scales", "1,10", "--claimed", "1.5")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("certificate_report"))
        assert payload["achieved"] == pytest.approx(1.5)

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "--format", "csv", "certify", "C3", "C4",
                              "--family", "two_clique", "--scales", "1,10")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "scale,log_t_G,log_t_H,ratio"
        assert len(lines) == 3

    def test_csv_keeps_logs_past_float_underflow(self, capsys):
        # t(C5, W) underflows to 0.0 at this scale, while its log is finite
        args = ("certify", "C5", "C3", "--family", "looped_star", "--scales", "1e150")
        code, out, _ = invoke(capsys, "--format", "csv", *args)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "scale,log_t_G,log_t_H,ratio"
        (entry,) = json.loads(invoke(capsys, *args)[1])["schedule"]
        assert [float(x) for x in row.split(",")[1:]] == [
            entry["log_t_g"], entry["log_t_h"], entry["ratio"]
        ]
        assert entry["log_t_g"] < -700

    def test_scale_past_2_53_is_echoed_exactly(self, capsys):
        args = ("certify", "C5", "C3", "--family", "looped_star", "--scales", "12345678901234567891")
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        (entry,) = json.loads(out)["schedule"]
        assert entry["scale"] == 12345678901234567891

    def test_infinite_ratio_is_null(self, capsys):
        # bipartite W: t(C5, W) = 0, so log t(H, W) = -inf and the ratio is +inf
        code, out, _ = invoke(capsys, "certify", "K2", "C5", "--family", "kpartite_unbalanced",
                              "--params", "2", "1", "--scales", "10,100")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("certificate_report"))
        assert [(r["log_t_h"], r["ratio"]) for r in payload["schedule"]] == [(None, None)] * 2
        assert payload["achieved"] is None

    def test_degenerate_exit_2(self, capsys):
        code, _, err = invoke(capsys, "certify", "C3", "C4", "--family", "constant_p",
                              "--params", "1.0", "--scales", "1")
        assert code == 2
        assert json.loads(err)["code"] == "rhokit"


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "holder", "--trials", "10",
                              "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        for rep in payload["suites"]:
            jsonschema.validate(rep, schema("suite_report"))

    def test_all_suites_with_junit(self, capsys, tmp_path):
        junit = tmp_path / "report.xml"
        code, out, _ = invoke(capsys, "verify", "--suite", "all", "--trials", "5",
                              "--seed", "2", "--junit", str(junit))
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert junit.read_text().startswith("<testsuites>")

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "--format", "text", "verify", "--suite",
                              "kruskal_katona", "--trials", "5", "--seed", "0")
        assert code == 0
        assert "kruskal_katona: pass" in out

    def test_byte_identical(self, capsys):
        _, out1, _ = invoke(capsys, "verify", "--suite", "hub", "--trials", "15", "--seed", "6")
        _, out2, _ = invoke(capsys, "verify", "--suite", "hub", "--trials", "15", "--seed", "6")
        assert out1 == out2

    def test_zero_target_density_is_a_failure(self, capsys, monkeypatch):
        # t(K3, W) = 0 on a bipartite graphon while t(K2, W) > 0, so the
        # residual is -inf: the trial must fail and the report stay valid JSON
        from rhokit.verify import _dominates

        bipartite = WeightedGraph([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])

        def zero_target(rng, w):
            return _dominates(bipartite, complete(2), 1, [(1, complete(3))], "t(K3) >= t(K2)")

        monkeypatch.setitem(SUITES, "zero_target", zero_target)
        code, out, _ = invoke(capsys, "verify", "--suite", "zero_target", "--trials", "3")
        assert code == 1
        (rep,) = json.loads(out)["suites"]
        jsonschema.validate(rep, schema("suite_report"))
        assert rep["passed"] is False
        assert rep["evaluated"] == 3
        assert [f["residual"] for f in rep["failures"]] == [None, None, None]
        assert rep["min_residual"] is None

    def test_negative_trials_exit_2(self, capsys):
        code, out, err = invoke(capsys, "verify", "--suite", "hub", "--trials", "-3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["code"] == "domain"


class TestSearch:
    def test_json_and_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "best.graphon"
        code, out, _ = invoke(capsys, "search", "K3", "K2", "--blocks", "2",
                              "--restarts", "1", "--iterations", "25", "--seed", "1",
                              "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("search_result"))
        assert out_file.exists()

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "--format", "csv", "search", "K3", "K2",
                              "--blocks", "2", "--restarts", "1", "--iterations", "25",
                              "--seed", "1")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "g,h,best_ratio,catalog_upper,restarts,blocks"


def assert_input_error(capsys, args, code):
    """Exit 2, nothing on stdout, and one line of JSON with the code on stderr."""
    got, out, err = invoke(capsys, *args)
    assert (got, out) == (2, "")
    line, = err.splitlines()
    assert json.loads(line)["code"] == code


class TestMalformedInput:
    @pytest.mark.parametrize(
        "args",
        [
            ("certify", "C3", "C4", "--family", "two_clique", "--scales", "1e400"),
            ("certify", "C3", "C4", "--family", "two_clique", "--scales", "abc"),
            ("search", "C3", "C4", "--blocks", "x"),
            ("search", "C3", "C4", "--blocks", "0"),
            ("density", "K2", "--graphon", "builtin:constant_p:abc"),
            ("density", "K2", "--graphon", "builtin:looped_star@abc"),
            ("certify", "C3", "C4", "--family", "constant_p", "--scales", "1"),
            ("density", "K2", "--graphon", "builtin:constant_p:0.5:junk"),
            ("certify", "K2", "C4", "--family", "kpartite_unbalanced", "--params", "2.5", "1",
             "--scales", "10"),
            ("certify", "C3", "C4", "--family", "two_clique", "--scales", "1.5,2.7"),
            ("density", "K2", "--graphon", "builtin:looped_star@2.5"),
        ],
        ids=["scale-overflow", "scale-abc", "blocks-x", "blocks-0", "builtin-param-abc",
             "builtin-scale-abc", "constant_p-without-params", "builtin-extra-field",
             "kpartite-fractional-k", "scale-fractional", "builtin-scale-fractional"],
    )
    def test_argument(self, capsys, args):
        assert_input_error(capsys, args, "domain")

    @pytest.mark.parametrize(
        "args",
        [
            ("density", "K2", "--graphon", "builtin:constant_p:0.5"),
            ("rho", "K2", "K3"),
            ("verify", "--suite", "holder", "--trials", "2"),
        ],
        ids=["density", "rho", "verify"],
    )
    def test_csv_only_for_certify_and_search(self, capsys, args):
        assert_input_error(capsys, ("--format", "csv", *args), "domain")

    @pytest.mark.parametrize(
        "text",
        [
            "-1\n",
            "2\nabc 0.5\n1 0\n0 0\n",
            "2\nnan 0.5\n1 0\n0 0\n",
            "2\n0.5 0.5\n1 0\n0 1\n7 8 9\n",
        ],
        ids=["negative-block-count", "abc", "nan-mass", "extra-tokens"],
    )
    def test_graphon_file(self, capsys, tmp_path, text):
        f = tmp_path / "w.graphon"
        f.write_text(text)
        assert_input_error(capsys, ("density", "K2", "--graphon", str(f)), "domain")

    def test_edge_file(self, capsys, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("3\n0 1\n1 x\n")
        assert_input_error(capsys, ("rho", f"@{f}", "P2"), "graph-spec")

    @pytest.mark.parametrize("spec", ["K[0]", "Gtail[0,1]"])
    def test_spec_outside_its_family(self, capsys, spec):
        assert_input_error(capsys, ("rho", spec, "K2"), "graph-spec")

    @pytest.mark.parametrize("spec", ["K[2,,3]", "K[2,3,]", "Khub[,1]", "K[1 2]"])
    def test_malformed_part_list(self, capsys, spec):
        assert_input_error(capsys, ("rho", spec, "K2"), "graph-spec")

    @pytest.mark.parametrize("text", ["2\n0 0\n", "2\n0 5\n"], ids=["loop", "out-of-range"])
    def test_edge_file_not_a_simple_graph(self, capsys, tmp_path, text):
        f = tmp_path / "g.edges"
        f.write_text(text)
        assert_input_error(capsys, ("rho", f"@{f}", "P2"), "graph-spec")

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_edge_file(self, capsys, tmp_path, kind):
        f = tmp_path / "g.edges"
        f.mkdir() if kind == "directory" else f.write_bytes(b"\xff\xfe 2\n0 1\n")
        assert_input_error(capsys, ("rho", f"@{f}", "K2"), "graph-spec")

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_graphon_file(self, capsys, tmp_path, kind):
        f = tmp_path / "w.graphon"
        f.mkdir() if kind == "directory" else f.write_bytes(b"\xff\xfe 1\n1.0\n0.5\n")
        assert_input_error(capsys, ("density", "C4", "--graphon", str(f)), "domain")

    def test_missing_files(self, capsys, tmp_path):
        edges, graphon = tmp_path / "missing.edges", tmp_path / "missing.graphon"
        assert_input_error(capsys, ("rho", f"@{edges}", "K2"), "file-not-found")
        assert_input_error(capsys, ("density", "C4", "--graphon", str(graphon)), "file-not-found")

    def test_enumeration_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RHOKIT_ENUM_CAP", "abc")
        assert_input_error(capsys, ("density", "K2", "--graphon", "builtin:half_block"), "domain")

    def test_search_checks_its_block_counts(self, capsys):
        code, _, err = invoke(capsys, "search", "C3", "C4", "--blocks", "2,9")
        assert code == 2
        assert "search block counts" in json.loads(err)["message"]

    @pytest.mark.parametrize("flags", [("--restarts", "-1"), ("--iterations", "-3")])
    def test_search_rejects_negative_counts(self, capsys, flags):
        code, out, err = invoke(capsys, "search", "C3", "C4", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "nonnegative" in json.loads(err)["message"]


class TestUsage:
    def test_no_subcommand_exit_2(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert invoke(capsys, "rho", "P1", "P2", "--frobnicate")[0] == 2

    def test_python_dash_m(self, capsys):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "rhokit", "rho", "K3", "K2"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == invoke(capsys, "rho", "K3", "K2")[1]
