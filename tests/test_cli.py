import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import entroscope
from entroscope import census, factors
from entroscope.cli import build_parser, main

B2_DOC = {
    "alphabet": ["a", "b"],
    "vertices": ["v"],
    "edges": [["v", "a", "v"], ["v", "b", "v"]],
    "roots": ["v"],
}


@pytest.fixture
def b2_path(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(B2_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def dense_radius(doc):
    """Spectral radius of the uniform chain, from numpy's dense eigensolver."""
    index = {v: i for i, v in enumerate(doc["vertices"])}
    A = np.zeros((len(index), len(index)))
    for s, _, t in doc["edges"]:
        A[index[s], index[t]] += 1.0
    return float(np.max(np.abs(np.linalg.eigvals(A)))) / len(doc["alphabet"])


class TestCount:
    def test_basic(self, capsys, b2_path):
        code, report = run(capsys, "count", "--graph", b2_path, "--depth", "5")
        assert code == 0
        assert report["results"]["counts"] == [1, 2, 4, 8, 16, 32]
        assert report["command"] == "count"

    def test_forbidden_column(self, capsys, b2_path, tmp_path):
        csv_path = tmp_path / "t.csv"
        code, report = run(
            capsys, "count", "--graph", b2_path, "--depth", "6",
            "--forbid", "aa", "--csv", str(csv_path),
        )
        assert code == 0
        assert report["results"]["counts_forbidden"] == [1, 2, 3, 5, 8, 13, 21]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,c_n,c_n_F"
        assert lines[3] == "2,4,3"

    def test_forbidden_from_document(self, capsys, tmp_path):
        doc = dict(B2_DOC, forbidden=["aa"])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "count", "--graph", str(path), "--depth", "4")
        assert code == 0
        assert report["results"]["counts_forbidden"] == [1, 2, 3, 5, 8]

    def test_forbid_builds_no_ball(self, capsys, b2_path, monkeypatch):
        calls = []
        build = entroscope.graphs.forward_ball

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entroscope"]:
            if getattr(module, "forward_ball", None) is build:
                monkeypatch.setattr(module, "forward_ball", counted)
        code, _ = run(capsys, "count", "--graph", b2_path, "--depth", "5", "--forbid", "aa")
        assert code == 0
        assert calls == []
        # analyze's certificate still materializes the whole graph once
        run(capsys, "analyze", "--graph", b2_path, "--depth", "5", "--forbid", "aa")
        assert len(calls) == 1

    def test_complete_family_skips_the_determinism_check(self, capsys, tmp_path, monkeypatch):
        calls = []
        check = entroscope.graphs.check_deterministic

        def counted(edges):
            calls.append(edges)
            return check(edges)

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entroscope"]:
            if getattr(module, "check_deterministic", None) is check:
                monkeypatch.setattr(module, "check_deterministic", counted)
        code, _ = run(capsys, "count", "--family", "free2_mod_cyclic", "--depth", "5",
                      "--forbid", "ab")
        assert code == 0 and calls == []
        # an explicit graph is still checked, and a nondeterministic one refused
        doc = dict(B2_DOC, edges=B2_DOC["edges"] + [["v", "a", "w"]], vertices=["v", "w"])
        path = tmp_path / "nfa.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "count", "--graph", str(path), "--depth", "3")
        assert code == 2 and "deterministic" in report["error"]["message"]
        assert len(calls) == 1

    def test_config_echo_has_defaults(self, capsys, b2_path):
        _, report = run(capsys, "count", "--graph", b2_path, "--depth", "4")
        config = report["config"]
        assert config["tail"] == 20
        assert config["budget"] == 10**6
        assert config["x"] == "v" and config["y"] == "v"


def parser_options(command):
    """Destinations of the options the subcommand's parser declares."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


class TestConfigEcho:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--graph", "B2", "--depth", "4"],
            ["analyze", "--graph", "B2", "--depth", "12", "--forbid", "aa"],
            ["bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic"],
            ["rho", "--graph", "B2", "--depth", "12", "--forbid", "aa"],
            ["schreier", "--family", "line_Z", "--forbid", "rr", "--depth", "12"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_is_the_parsed_options(self, capsys, b2_path, argv):
        argv = [b2_path if a == "B2" else a for a in argv]
        _, report = run(capsys, *argv)
        assert set(report["config"]) == parser_options(argv[0]) | {"command"}

    def test_transform_check_is_echoed(self, capsys, b2_path):
        argv = ["rho", "--graph", b2_path, "--depth", "12", "--forbid", "aa", "--conn-K", "1"]
        _, plain = run(capsys, *argv)
        _, checked = run(capsys, *argv, "--transform-check")
        assert plain["config"]["transform_check"] is False
        assert checked["config"]["transform_check"] is True

    def test_count_echoes_no_foreign_options(self, capsys, b2_path):
        _, report = run(capsys, "count", "--graph", b2_path, "--depth", "4")
        for name in ("alpha", "hv_scheme", "arithmetic", "D_max"):
            assert name not in report["config"]


class TestAnalyze:
    def test_golden_mean_report(self, capsys, b2_path):
        code, report = run(
            capsys, "analyze", "--graph", b2_path, "--forbid", "aa", "--depth", "30"
        )
        assert code == 0
        results = report["results"]
        assert abs(results["h"]["value"] - math.log(2)) < 1e-6
        assert abs(results["h_forbidden"]["value"] - 0.4812118) < 1e-3
        assert results["certificate"]["bound"] == pytest.approx(0.8660254, abs=1e-6)
        assert results["certificate"]["h_bound"] == pytest.approx(
            math.log(2 * 0.8660254037844386), abs=1e-9
        )

    def test_certification_failure_exit_code(self, capsys, tmp_path):
        doc = {
            "alphabet": ["a", "b"],
            "vertices": ["0", "1"],
            "edges": [["0", "a", "1"], ["1", "a", "0"]],
            "roots": ["0"],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code, report = run(
            capsys, "analyze", "--graph", str(path), "--forbid", "b", "--depth", "20"
        )
        assert code == 4
        assert report["results"]["certificate"] is None
        assert report["warnings"]

    def test_requires_forbid(self, capsys, b2_path):
        code, report = run(capsys, "analyze", "--graph", b2_path, "--depth", "10")
        assert code == 2
        assert "error" in report

    def test_reproducible_reports(self, capsys, b2_path):
        _, first = run(capsys, "analyze", "--graph", b2_path, "--forbid", "aa",
                       "--depth", "20")
        _, second = run(capsys, "analyze", "--graph", b2_path, "--forbid", "aa",
                        "--depth", "20")
        first.pop("generated_at")
        second.pop("generated_at")
        assert first == second


class TestBound:
    def test_stochastic(self, capsys):
        code, report = run(
            capsys, "bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic"
        )
        assert code == 0
        assert report["results"]["bound"] == pytest.approx(0.8660254037844386)
        assert report["results"]["path"] == "stochastic"

    def test_general_with_sigma(self, capsys):
        code, report = run(
            capsys, "bound", "--alpha", "0.5", "--D", "0", "--R", "2",
            "--conn-K", "1", "--rho", "1.0", "--sigma-size", "2",
        )
        assert code == 0
        assert report["results"]["bound"] == pytest.approx(0.9682458365518543)
        assert report["results"]["h_bound"] == pytest.approx(
            math.log(2 * 0.9682458365518543)
        )

    def test_rowsum_check_on_graph(self, capsys, b2_path):
        code, report = run(
            capsys, "bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic",
            "--graph", b2_path, "--forbid", "aa",
        )
        assert code == 0
        check = report["results"]["rowsum_check"]
        assert check["ok"]
        assert check["max_row_sum"] == "3/4"
        assert check["threshold"] == "3/4"

    def test_rowsum_check_uses_the_certificates_alpha(self, capsys, b2_path):
        # b2's edges carry 1/2, so alpha = 0.9 overstates the floor: the bound
        # 0.436 lies below the true restricted rho, the golden ratio over 2
        code, report = run(
            capsys, "bound", "--alpha", "0.9", "--D", "0", "--R", "2", "--stochastic",
            "--sigma-size", "2", "--graph", b2_path, "--forbid", "aa",
        )
        assert code == 4
        assert report["results"]["bound"] < (1 + math.sqrt(5)) / 4
        check = report["results"]["rowsum_check"]
        assert not check["ok"]
        assert check["threshold"] == "19/100"
        assert check["violations"] == [["v", "3/4"]]

    def test_graph_without_forbid_names_the_option(self, capsys, b2_path):
        code, report = run(
            capsys, "bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic",
            "--graph", b2_path,
        )
        assert code == 2
        assert report["error"]["message"].startswith("--forbid is required")

    def test_forbid_without_graph_names_the_option(self, capsys):
        code, report = run(
            capsys, "bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic",
            "--forbid", "aa",
        )
        assert code == 2
        assert report["error"]["message"].startswith("--graph is required")

    def test_invalid_parameters(self, capsys):
        code, report = run(capsys, "bound", "--alpha", "1.5", "--D", "0", "--R", "2")
        assert code == 2
        assert "error" in report

    DEGENERATE = ("bound", "--alpha", "0.25", "--D", "8", "--R", "4", "--conn-K", "3")

    def test_underflowing_bound_fails_certification(self, capsys):
        # alpha_bar^k = 2^-96: 1 - eps rounds to 1, so bound would equal rho
        code, report = run(capsys, *self.DEGENERATE)
        assert code == 4
        assert report["error"]["type"] == "DegenerateBound"

    def test_underflowing_bound_fails_under_optimize(self):
        src = os.path.dirname(os.path.dirname(entroscope.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "entroscope.cli", *self.DEGENERATE],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "DegenerateBound"


class TestCertificateRegressions:
    def test_undeclared_infinite_rho_bounds_the_measured_growth(self, capsys):
        # free2_mod_cyclic declares no rho; a fit at this depth gave 0.7547
        # and h_bound 1.0989, below the counts' own log-ratio 1.131
        code, report = run(
            capsys, "schreier", "--family", "free2_mod_cyclic", "--forbid", "ab",
            "--depth", "12",
        )
        assert code == 0
        results = report["results"]
        counts = results["counts_forbidden"]
        assert counts[-3:] == [27572, 79944, 247754]
        cert = results["certificate"]
        assert (cert["rho"], cert["path"]) == (1.0, "stochastic")
        assert results["certificate_scope"] == "window"
        assert cert["h_bound"] == pytest.approx(1.354025100551105)
        ratios = [math.log(b / a) for a, b in zip(counts, counts[1:])]
        assert max(ratios) == pytest.approx(1.131109928828045)
        assert cert["h_bound"] >= max(ratios)
        assert not any("approximate" in w for w in report["warnings"])

    def test_unreachable_component_does_not_set_rho(self, capsys, tmp_path):
        # w is unreachable from the root v; only v's two loops bound L_{v,v}
        doc = {
            "alphabet": ["a", "b"],
            "vertices": ["v", "w"],
            "edges": [["v", "a", "v"], ["v", "b", "v"], ["w", "a", "w"]],
            "roots": ["v"],
        }
        path = write_doc(tmp_path, "vw.json", doc)
        code, report = run(capsys, "analyze", "--graph", path, "--forbid", "aa", "--depth", "30")
        assert code == 0
        results = report["results"]
        assert results["certificate"]["rho"] == pytest.approx(1.0, abs=1e-12)
        assert results["certificate"]["h_bound"] >= results["h_forbidden"]["value"]

    def test_flat_degree_two_and_four_neighbourhoods(self, capsys, tmp_path):
        # vertex 7 and its out-neighbours have degree 2, vertex 2 and its
        # out-neighbours degree 4: the first Collatz-Wielandt brackets of
        # A + I are (3, 5) twice, with midpoint 4 both times
        n, b_cycle = 10, [0, 2, 4, 1, 3]
        edges = []
        for i in range(n):
            edges += [[str(i), "a", str((i + 1) % n)], [str((i + 1) % n), "A", str(i)]]
        for u, v in zip(b_cycle, b_cycle[1:] + b_cycle[:1]):
            edges += [[str(u), "b", str(v)], [str(v), "B", str(u)]]
        doc = {
            "alphabet": ["A", "B", "a", "b"],
            "vertices": [str(i) for i in range(n)],
            "edges": edges,
            "roots": ["0"],
        }
        path = write_doc(tmp_path, "flat.json", doc)
        code, report = run(capsys, "analyze", "--graph", path, "--forbid", "ab", "--depth", "30")
        assert code == 0
        assert report["results"]["certificate"]["rho"] == pytest.approx(dense_radius(doc), abs=1e-9)

    def test_measured_constants_underflow(self, capsys, tmp_path):
        # a 60-cycle read by a and b, with a c-loop at 0: forbidding b gives
        # D = 0 but conn_K = 59, and alpha_bar^k ~ 2^-60 leaves 1 - eps == 1
        n = 60
        edges = [["0", "c", "0"]]
        for i in range(n):
            edges += [[str(i), a, str((i + 1) % n)] for a in "ab"]
        doc = {
            "alphabet": ["a", "b", "c"],
            "vertices": [str(i) for i in range(n)],
            "edges": edges,
            "roots": ["0"],
        }
        path = write_doc(tmp_path, "cycle.json", doc)
        code, report = run(capsys, "analyze", "--graph", path, "--forbid", "b", "--depth", "30")
        assert code == 4
        assert report["results"]["certificate"] is None
        assert any("degenerates" in w for w in report["warnings"])

    def test_unclosed_perron_bracket_still_certifies(self, capsys, tmp_path):
        # a 200-cycle read by a and b with a c-loop at 0 mixes so slowly that
        # the bracket of A + I is still open after the 10^5-step cap; its
        # upper end bounds the spectral radius all the same
        n = 200
        edges = [["0", "c", "0"]]
        for i in range(n):
            edges += [[str(i), a, str((i + 1) % n)] for a in "ab"]
        doc = {
            "alphabet": ["a", "b", "c"],
            "vertices": [str(i) for i in range(n)],
            "edges": edges,
            "roots": ["0"],
        }
        path = write_doc(tmp_path, "slow.json", doc)
        code, report = run(
            capsys, "analyze", "--graph", path, "--forbid", "bb", "--depth", "20", "--conn-K", "1"
        )
        assert code == 0
        A = np.zeros((n, n))
        for s, _, t in edges:
            A[int(s), int(t)] += 1
        true_rho = max(abs(np.linalg.eigvals(A))) / 3
        certificate = report["results"]["certificate"]
        assert certificate["rho"] >= true_rho
        assert certificate["bound"] < certificate["rho"]


class TestRho:
    def test_table_and_estimate(self, capsys, b2_path, tmp_path):
        csv_path = tmp_path / "rho.csv"
        code, report = run(
            capsys, "rho", "--graph", b2_path, "--depth", "40", "--forbid", "aa",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert report["results"]["rho"] == pytest.approx(1.0, abs=1e-9)
        assert report["results"]["rho_forbidden"] == pytest.approx(
            (1 + math.sqrt(5)) / 4, abs=1e-6
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,p_n,p_n_F"
        assert lines[3].startswith("2,1.0,0.75")

    def test_transform_check(self, capsys, b2_path):
        code, report = run(
            capsys, "rho", "--graph", b2_path, "--depth", "15", "--forbid", "aa",
            "--transform-check", "--conn-K", "1",
        )
        assert code == 0
        identity = report["results"]["transform_identity"]
        assert identity["ok"]
        assert report["results"]["harmonic"]["rho_hat"] == pytest.approx(1.0)

    def test_transform_check_without_conn_k_names_the_option(self, capsys, b2_path):
        code, report = run(
            capsys, "rho", "--graph", b2_path, "--depth", "15", "--forbid", "aa",
            "--transform-check",
        )
        assert code == 2
        assert "--conn-K" in report["error"]["message"]

    def test_conn_k_only_sets_the_transformed_floor(self, capsys):
        results = []
        for conn_k in ("1", "7", "30"):
            code, report = run(
                capsys, "rho", "--family", "grid_Z2", "--depth", "12", "--forbid", "rr",
                "--transform-check", "--conn-K", conn_k,
            )
            assert code == 0
            results.append(report["results"])
        assert results[0] == results[1] == results[2]

    def test_small_harmonic_window_names_the_options(self, capsys, b2_path):
        code, report = run(
            capsys, "rho", "--family", "grid_Z2", "--depth", "12", "--forbid", "rr",
            "--transform-check", "--conn-K", "1", "--hv-radius", "6",
        )
        assert code == 2
        assert report["error"]["type"] == "ChainError"
        message = report["error"]["message"]
        assert "leaves the harmonic window" in message
        assert "--hv-radius 6" in message and "--depth" in message
        # a finite graph's small window can still hold every edge
        code, report = run(
            capsys, "rho", "--graph", b2_path, "--depth", "15", "--forbid", "aa",
            "--transform-check", "--conn-K", "1", "--hv-radius", "2",
        )
        assert code == 0

    def test_transform_check_searches_the_product_ball_once(self, capsys, monkeypatch):
        # the restricted and the transformed tables share one automaton and
        # one product search, derived from the plain census's search; no
        # state of the lazy product graph is expanded
        automata, searches, expanded = [], [], []
        automaton_init = factors.FactorAutomaton.__init__
        product_reach = census._product_reach
        product_graph = factors.product_graph

        def init(self, *args, **kwargs):
            automata.append(self)
            automaton_init(self, *args, **kwargs)

        def counted_reach(g, *args, **kwargs):
            searches.append(g)
            return product_reach(g, *args, **kwargs)

        def counted_product(*args, **kwargs):
            g = product_graph(*args, **kwargs)
            expand = g.expand

            def counted(state):
                expanded.append(state)
                return expand(state)

            g.expand = counted
            return g

        monkeypatch.setattr(factors.FactorAutomaton, "__init__", init)
        monkeypatch.setattr(census, "_product_reach", counted_reach)
        monkeypatch.setattr(factors, "product_graph", counted_product)
        argv = ("rho", "--family", "grid_Z2", "--depth", "12", "--forbid", "ru",
                "--transform-check", "--conn-K", "1")
        code, _ = run(capsys, *argv)
        assert code == 0
        assert len(automata) == len(searches) == 1
        # a second run builds a new graph, whose memo starts empty
        code, _ = run(capsys, *argv)
        assert code == 0
        assert len(automata) == len(searches) == 2
        assert searches[0] is not searches[1]
        assert expanded == []

    def test_transform_check_without_forbid_fails_before_counting(self, capsys):
        # a budget the plain estimate would exceed: the config error comes first
        code, report = run(
            capsys, "rho", "--family", "grid_Z2", "--depth", "40",
            "--transform-check", "--budget", "50",
        )
        assert code == 2
        assert "--forbid" in report["error"]["message"]


class TestSchreierCommand:
    def test_line_certified(self, capsys):
        code, report = run(
            capsys, "schreier", "--family", "line_Z", "--forbid", "rr", "--depth", "40"
        )
        assert code == 0
        results = report["results"]
        assert abs(results["h"]["value"] - math.log(2)) < 0.05
        assert results["certificate"]["D"] == 0
        assert results["certificate"]["conn_K"] == 1

    @pytest.mark.parametrize("family, word", [
        ("line_Z", "rr"), ("grid_Z2", "uu"), ("free2_mod_cyclic", "bab"),
    ])
    def test_schreier_certificate_searches_nothing(self, capsys, monkeypatch, family, word):
        # a complete family's D and stochastic rows are structural: no ball,
        # no denseness or connectedness search, no determinism check
        calls = []
        originals = [
            entroscope.graphs.forward_ball,
            entroscope.factors.estimate_denseness_constant,
            entroscope.graphs.uniform_connectedness_constant,
            entroscope.graphs.check_fully_deterministic,
        ]

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entroscope"]:
            for name, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, name, counted(value))
        code, report = run(capsys, "schreier", "--family", family, "--forbid", word,
                           "--depth", "10")
        assert code == 0 and report["results"]["certificate"]["D"] == 0
        assert calls == []

    def test_unknown_family(self):
        # argparse rejects the choice itself, exiting with the config code
        with pytest.raises(SystemExit) as exc:
            main(["schreier", "--family", "nope", "--forbid", "rr", "--depth", "10"])
        assert exc.value.code == 2


class TestErrorPaths:
    def test_budget_exit_code(self, capsys):
        code, report = run(
            capsys, "schreier", "--family", "grid_Z2", "--forbid", "uu",
            "--depth", "40", "--budget", "50",
        )
        assert code == 3
        assert report["error"]["type"] == "budget-exceeded"

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTROSCOPE_BUDGET", "50")
        code, report = run(
            capsys, "schreier", "--family", "grid_Z2", "--forbid", "uu", "--depth", "40"
        )
        assert code == 3

    def test_missing_graph_source(self, capsys):
        code, report = run(capsys, "count", "--depth", "5")
        assert code == 2

    def test_nondeterministic_graph(self, capsys, tmp_path):
        doc = {
            "alphabet": ["a"],
            "vertices": ["x", "y", "z"],
            "edges": [["x", "a", "y"], ["x", "a", "z"]],
            "roots": ["x"],
        }
        path = tmp_path / "nfa.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "count", "--graph", str(path), "--depth", "4")
        assert code == 2
        assert "deterministic" in report["error"]["message"]

    @pytest.mark.parametrize(
        "doc, field",
        [
            (dict(B2_DOC, edges=[5]), '"edges"'),
            (dict(B2_DOC, vertices=[["v"]]), '"vertices"'),
            (dict(B2_DOC, forbidden=7), '"forbidden"'),
            (dict(B2_DOC, forbidden="ab"), '"forbidden"'),
            (dict(B2_DOC, vertices="vw"), '"vertices" must be a JSON list, got str'),
            (dict(B2_DOC, roots="v"), '"roots" must be a JSON list, got str'),
            (dict(B2_DOC, vertices=5), '"vertices" must be a JSON list, got int'),
            ([B2_DOC], "graph document must be a JSON object, got list"),
        ],
        ids=["edge-not-a-triple", "unhashable-vertex", "forbidden-int", "forbidden-str",
             "vertices-str", "roots-str", "vertices-int", "document-list"],
    )
    def test_malformed_document_is_a_config_error(self, capsys, tmp_path, doc, field):
        path = write_doc(tmp_path, "bad.json", doc)
        code, report = run(capsys, "count", "--graph", path, "--depth", "3")
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        assert field in report["error"]["message"]

    def test_bad_vertex(self, capsys, b2_path):
        code, report = run(
            capsys, "count", "--graph", b2_path, "--depth", "4", "--x", "nope"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "family, x",
        [
            ("grid_Z2", "foo"), ("grid_Z2", "5"), ("line_Z", "(1,2)"),
            ("grid_Z2", "(1,2,3)"), ("free2_mod_cyclic", "foo"),
            ("free2_mod_cyclic", "bB"), ("free2_mod_cyclic", "ab"),
        ],
    )
    def test_bad_family_vertex(self, capsys, family, x):
        code, report = run(capsys, "count", "--family", family, "--x", x, "--depth", "3")
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        assert "--x" in report["error"]["message"]

    @pytest.mark.parametrize(
        "family, x, loops",
        [
            ("grid_Z2", "(1,-2)", [1, 0, 4, 0, 36]),
            ("line_Z", "-3", [1, 0, 2, 0, 6]),
            ("free2_mod_cyclic", "bAb", [1, 0, 4]),
        ],
    )
    def test_canonical_family_vertex(self, capsys, family, x, loops):
        code, report = run(
            capsys, "count", "--family", family, "--x", x, "--y", x, "--depth", "4"
        )
        assert code == 0
        assert report["results"]["counts"][: len(loops)] == loops

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--family", "line_Z"],
            ["analyze", "--family", "line_Z", "--forbid", "rr"],
            ["rho", "--family", "line_Z"],
            ["schreier", "--family", "line_Z", "--forbid", "rr"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_depth_names_the_option(self, capsys, argv):
        code, report = run(capsys, *argv, "--depth", "-1")
        assert code == 2
        assert "--depth" in report["error"]["message"]

    def test_budget_error_quotes_the_vertex_and_names_the_option(self, capsys):
        code, report = run(
            capsys, "count", "--family", "free2_mod_cyclic", "--forbid", "ab",
            "--depth", "14", "--budget", "1000",
        )
        assert code == 3
        assert report["error"]["message"] == (
            "search from vertex '' found more than 1000 vertices (--budget)"
        )

    @pytest.mark.parametrize("tail", ["0", "-1"])
    def test_tail_below_one_names_the_option(self, capsys, tail):
        code, report = run(
            capsys, "count", "--family", "grid_Z2", "--depth", "12", "--tail", tail
        )
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        assert "--tail" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv, fit",
        [
            (["rho", "--family", "line_Z", "--depth", "5"], False),
            (["count", "--family", "line_Z", "--depth", "0"], True),
            (["analyze", "--family", "line_Z", "--forbid", "rr", "--depth", "1"], True),
            (["schreier", "--family", "free2_mod_cyclic", "--forbid", "ab", "--depth", "0"],
             True),
            (["count", "--family", "grid_Z2", "--depth", "12", "--tail", "1"], True),
        ],
        ids=["rho", "count", "analyze", "schreier", "count-tail-1"],
    )
    def test_small_depth_names_the_options(self, capsys, argv, fit):
        code, report = run(capsys, *argv)
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        message = report["error"]["message"]
        assert "--depth" in message and ("--tail" in message) == fit

    def test_internal_key_error_is_not_a_config_error(self, capsys, b2_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(entroscope.chain, "entropy_gap_report", broken)
        with pytest.raises(KeyError):
            main(["analyze", "--graph", b2_path, "--depth", "4", "--forbid", "aa"])

    @pytest.mark.parametrize(
        "option, value",
        [("--hv-tol", "-1"), ("--hv-tol", "0"), ("--hv-tol", "nan"), ("--hv-radius", "1")],
    )
    def test_harmonic_option_out_of_range_names_the_option(self, capsys, option, value):
        code, report = run(
            capsys, "rho", "--family", "grid_Z2", "--depth", "12", "--forbid", "rr",
            "--transform-check", option, value,
        )
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        assert option in report["error"]["message"]

    ANALYZE = ("analyze", "--family", "line_Z", "--depth", "12", "--forbid", "rr")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (ANALYZE + ("--D", "-1"), "--D"),
            (ANALYZE + ("--d-max", "-1"), "--d-max"),
            (("bound", "--alpha", "2", "--D", "0", "--R", "1", "--stochastic"), "--alpha"),
            (("bound", "--alpha", "0.5", "--D", "0", "--R", "2"), "--conn-K"),
            (("bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic",
              "--sigma-size", "-1"), "--sigma-size"),
            (ANALYZE + ("--alpha", "2"), "--alpha"),
            (ANALYZE + ("--alpha", "0"), "--alpha"),
            (ANALYZE + ("--rho", "1.5"), "--rho"),
            (ANALYZE + ("--rho", "0"), "--rho"),
            (ANALYZE + ("--conn-K", "0"), "--conn-K"),
            # the stochastic path never reads conn_K, so it used to certify
            (("schreier", "--family", "line_Z", "--depth", "12", "--forbid", "rr",
              "--conn-K", "0"), "--conn-K"),
        ],
        ids=["D", "d-max", "alpha", "conn-K", "sigma-size", "analyze-alpha-2", "analyze-alpha-0",
             "analyze-rho-1.5", "analyze-rho-0", "analyze-conn-K-0", "schreier-conn-K-0"],
    )
    def test_out_of_range_option_is_named(self, capsys, argv, option):
        code, report = run(capsys, *argv)
        assert code == 2
        assert option in report["error"]["message"]

    @pytest.mark.parametrize("option, value", [
        ("--alpha", "2"), ("--alpha", "0"), ("--rho", "1.5"), ("--rho", "0"), ("--conn-K", "0"),
    ])
    def test_out_of_range_certificate_option_on_a_graph_is_named(
        self, capsys, b2_path, option, value
    ):
        code, report = run(capsys, "analyze", "--graph", b2_path, "--depth", "12",
                           "--forbid", "ab", option, value)
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        assert option in report["error"]["message"]

    def test_bound_R_must_match_the_forbidden_words(self, capsys, b2_path):
        code, report = run(
            capsys, "bound", "--alpha", "0.5", "--D", "0", "--R", "3",
            "--graph", b2_path, "--forbid", "aa", "--stochastic",
        )
        assert code == 2
        assert "--R" in report["error"]["message"]

    def test_internal_value_error_is_not_a_config_error(self, capsys, b2_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(entroscope.chain, "entropy_gap_report", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["analyze", "--graph", b2_path, "--depth", "4", "--forbid", "aa"])

    def test_certificate_bug_is_not_a_certification_failure(self, b2_path, monkeypatch):
        # resolve_certificate turns only ChainError and DegenerateBound into
        # a warning; any other error of certified_gap_bound is a bug
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(entroscope.chain, "certified_gap_bound", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["analyze", "--graph", b2_path, "--depth", "4", "--forbid", "aa"])
