import argparse
import json
import math
import os
import re
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

        def counted(source, label):
            calls.append(source)
            return check(source, label)

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


# every option of every subcommand, each in at least one argv
EVERY_OPTION = [
    ["count", "--graph", "g.json", "--family", "line_Z", "--x", "0", "--y", "1", "--depth", "4",
     "--forbid", "aa", "--forbid", "b", "--tail", "3", "--csv", "t.csv", "--budget", "9",
     "--out", "r.json"],
    ["count", "--depth", "0"],
    ["analyze", "--graph", "g.json", "--family", "grid_Z2", "--x", "(0,0)", "--y", "(1,0)",
     "--depth", "12", "--forbid", "ru", "--tail", "5", "--csv", "t.csv", "--budget", "100",
     "--out", "r.json"],
    ["bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--conn-K", "1", "--rho", "0.75",
     "--stochastic", "--sigma-size", "2", "--graph", "g.json", "--forbid", "aa", "--budget", "5",
     "--out", "r.json"],
    ["bound", "--alpha", "0.5", "--D", "0", "--R", "2"],
    ["rho", "--graph", "g.json", "--family", "free2_mod_cyclic", "--x", "b", "--y", "B",
     "--depth", "12", "--forbid", "ab", "--tail", "4", "--csv", "t.csv", "--conn-K", "3",
     "--transform-check", "--budget", "7", "--out", "r.json"],
    ["schreier", "--family", "line_Z", "--depth", "10", "--forbid", "rr", "--tail", "6",
     "--csv", "t.csv", "--budget", "50", "--out", "r.json"],
]


def subparser(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def cli_exit(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, which argparse may end."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParser:
    COMMANDS = ("count", "analyze", "bound", "rho", "schreier")

    def test_every_option_parses_as_in_a_fresh_parser(self):
        for command in self.COMMANDS:
            used = {a for argv in EVERY_OPTION if argv[0] == command for a in argv}
            options = {o for a in subparser(build_parser(), command)._actions
                       for o in a.option_strings if o not in ("-h", "--help")}
            assert options <= used, command
        for argv in EVERY_OPTION:
            first, again = build_parser().parse_args(argv), build_parser().parse_args(argv)
            fresh = build_parser.__wrapped__().parse_args(argv)
            assert first == again == fresh and first.handler is fresh.handler
            # append options start from their default on every parse
            assert first.forbid is None or first.forbid is not again.forbid

    def test_main_builds_the_parser_once(self, capsys, b2_path, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        build_parser.cache_clear()
        code, _ = run(capsys, "count", "--graph", b2_path, "--depth", "3")
        assert code == 0 and names == list(self.COMMANDS)
        code, _ = run(capsys, "count", "--graph", b2_path, "--depth", "3", "--forbid", "ab")
        cli_exit(capsys, ["schreier", "--help"])
        cli_exit(capsys, ["--version"])
        assert code == 0 and names == list(self.COMMANDS)

    def test_main_reads_sys_argv(self, capsys, b2_path, monkeypatch):
        argv = ["entroscope", "count", "--graph", b2_path, "--depth", "2"]
        monkeypatch.setattr(sys, "argv", argv)
        code = main()
        assert code == 0 and json.loads(capsys.readouterr().out)["results"]["counts"] == [1, 2, 4]

    def test_top_level_exits_and_messages(self, capsys):
        usage = "usage: entroscope [-h] [--version] {count,analyze,bound,rho,schreier} ...\n"
        code, out, err = cli_exit(capsys, [])
        assert (code, out) == (2, "") and err == usage + (
            "entroscope: error: the following arguments are required: command\n")
        assert cli_exit(capsys, ["--version"]) == (0, f"entroscope {entroscope.__version__}\n", "")
        code, out, err = cli_exit(capsys, ["--help"])
        assert (code, err) == (0, "") and out.startswith(usage)
        for command, text in (("count", "word census between two vertices"),
                              ("schreier", "growth sensitivity of a built-in coset family")):
            assert re.search(rf"^    {command} +{text}$", out, re.MULTILINE)
        code, out, err = cli_exit(capsys, ["nope"])
        assert (code, out) == (2, "") and err.startswith(
            usage + "entroscope: error: argument command: invalid choice: 'nope'")
        # a top-level error after a subcommand prints the whole usage line
        code, out, err = cli_exit(capsys, ["count", "--depth", "3", "extra"])
        assert (code, out) == (2, "")
        assert err == usage + "entroscope: error: unrecognized arguments: extra\n"
        code, out, err = cli_exit(capsys, ["rho", "--depth"])
        assert code == 2 and err.endswith(
            "entroscope rho: error: argument --depth: expected one argument\n")


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

    def test_one_matrix_per_window(self, capsys, b2_path, monkeypatch):
        # the two censuses, and one matrix of the certificate's window that
        # the denseness search and the spectral radius share
        calls = []
        adjacency = entroscope.linalg.adjacency
        monkeypatch.setattr(entroscope.linalg, "adjacency",
                            lambda *args: calls.append(args) or adjacency(*args))
        radius = entroscope.linalg.spectral_radius
        radii = []
        monkeypatch.setattr(entroscope.linalg, "spectral_radius",
                            lambda A: radii.append(A) or radius(A))
        code, _ = run(capsys, "analyze", "--graph", b2_path, "--forbid", "aa", "--depth", "20")
        assert code == 0 and len(calls) == 3 and len(radii) == 1
        assert not radii[0].data.flags.writeable

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

    @pytest.mark.parametrize("option, value", [
        ("--rho", "1.0000000005"), ("--alpha", "0"), ("--D", "-1"), ("--conn-K", "0"),
    ])
    def test_constants_are_checked_as_analyze_checks_them(self, capsys, b2_path, option, value):
        given = dict({"--alpha": "0.25", "--D": "1", "--R": "2", "--conn-K": "1"}, **{option: value})
        code, report = run(capsys, "bound", *[a for pair in given.items() for a in pair])
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        # analyze computes or reads every constant: none is an option there
        code, out, err = cli_exit(capsys, ["analyze", "--graph", b2_path, "--forbid", "aa",
                                           "--depth", "10", option, value])
        assert (code, out, err.splitlines()[-1]) == (
            2, "", f"entroscope: error: unrecognized arguments: {option} {value}")
        if option == "--conn-K":   # rho's --conn-K is checked as bound's
            code, rho = run(capsys, "rho", "--graph", b2_path, "--depth", "12", option, value)
            assert code == 2 and rho["error"] == report["error"]

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

    def test_unclosed_perron_bracket_still_certifies(self, capsys, tmp_path, monkeypatch):
        # a 400-vertex path read by a and A, with a c-loop at 0, mixes so
        # slowly that the bracket of A + I is still open after the 10^5-step
        # cap; its upper end bounds the spectral radius all the same
        n = 400
        edges = [[0, "c", 0]] + [[i, "a", i + 1] for i in range(n - 1)]
        edges += [[i + 1, "A", i] for i in range(n - 1)]
        doc = {"alphabet": ["A", "a", "c"], "vertices": list(range(n)), "edges": edges,
               "roots": [0]}
        path = write_doc(tmp_path, "slow.json", doc)
        solves = []
        perron_root = entroscope.linalg.perron_root
        monkeypatch.setattr(entroscope.linalg, "perron_root",
                            lambda A: solves.append(perron_root(A)) or solves[-1])
        code, report = run(capsys, "analyze", "--graph", path, "--forbid", "aa", "--depth", "30")
        assert code == 0
        (solve,) = solves
        lo, hi = solve.bracket
        assert solve.iterations == 100_000 and hi - lo > 1e-6 * hi
        certificate = report["results"]["certificate"]
        assert certificate["conn_K"] == 1   # measured: the path is inverse-closed
        assert certificate["rho"] >= dense_radius(doc)
        assert certificate["bound"] < lo / 3 < certificate["rho"]
        assert (certificate["rho"], certificate["bound"]) == pytest.approx(
            (0.66666174, 0.66600971), abs=1e-8)

    def test_bound_above_the_brackets_lower_end_is_refused(self, capsys, tmp_path):
        # a 400-vertex path read by a and A, with a c-loop at 0: inverse-closed,
        # so conn_K 1 is measured, and D 5, k 10 give eps 9.5e-8, below the
        # width the Perron bracket keeps after 10^5 products; the bound
        # 0.66666168 lies above the true rho 0.66666154, so bound < rho fails
        n = 400
        edges = [[0, "c", 0]] + [[i, "a", i + 1] for i in range(n - 1)]
        edges += [[i + 1, "A", i] for i in range(n - 1)]
        doc = {"alphabet": ["A", "a", "c"], "vertices": list(range(n)), "edges": edges,
               "roots": [0]}
        path = write_doc(tmp_path, "path.json", doc)
        code, report = run(capsys, "analyze", "--graph", path, "--forbid", "aaaaa", "--depth", "30")
        assert code == 4 and report["results"]["certificate"] is None
        (warning,) = report["warnings"]
        assert "too wide for the drop" in warning
        lo, hi, bound = map(float, re.findall(r"\d\.\d+", warning))
        assert lo <= dense_radius(doc) < bound < hi


GOLDEN_DOC = {
    "alphabet": ["a", "b"],
    "vertices": ["0", "1"],
    "edges": [["0", "a", "0"], ["0", "b", "1"], ["1", "a", "0"]],
    "roots": ["0"],
}


# complete: a steps i -> i + 1 and b steps i -> i + 2 (mod 5), so rho = 1
C5_DOC = {
    "alphabet": ["a", "b"],
    "vertices": list("01234"),
    "edges": [[str(i), a, str((i + step) % 5)]
              for i in range(5) for a, step in (("a", 1), ("b", 2))],
    "roots": ["0"],
}


def cycle_doc(n):
    """An n-cycle read forward by a and back by A, with a c-loop at 0."""
    edges = [[0, "c", 0]] + [[i, "a", (i + 1) % n] for i in range(n)]
    edges += [[(i + 1) % n, "A", i] for i in range(n)]
    return {"alphabet": ["A", "a", "c"], "vertices": list(range(n)), "edges": edges,
            "roots": [0]}


class TestCertificateConstantsAreMeasured:
    """A certificate's constants are facts about the graph: alpha is the
    uniform chain's 1/|alphabet|, and D, conn_K and rho are computed on a
    finite graph and declared by a built-in family.  None is an option of
    analyze or schreier."""

    @pytest.mark.parametrize("command", ["analyze", "schreier"])
    def test_no_alpha_or_D_option(self, command):
        assert not {"alpha", "D", "D_max", "conn_K", "rho"} & parser_options(command)

    @pytest.mark.parametrize("argv, tokens", [
        # exited 0 with scope global and h_bound 0.85259, below the exact
        # h_F = log(2 + sqrt 3) = 1.31696
        (["schreier", "--family", "grid_Z2", "--forbid", "rr", "--depth", "20", "--alpha", "0.9"],
         2),
        # reported the bound 0.16940, below the true rho_F = 0.5
        (["analyze", "--graph", "GOLDEN", "--forbid", "aa", "--depth", "40", "--alpha", "0.8"], 2),
        (["schreier", "--family", "grid_Z2", "--forbid", "rr", "--depth", "20", "--D", "3"], 2),
        (["analyze", "--graph", "GOLDEN", "--forbid", "aa", "--depth", "40", "--D", "0"], 2),
        # exited 0 with scope global and h_bound -0.0216, below the exact
        # h_F = log(phi) = 0.48121
        (["analyze", "--graph", "C5", "--forbid", "aa", "--depth", "30", "--rho", "0.6",
          "--conn-K", "2"], 4),
        # h_bound 1.02142, below the exact h_F = 1.17054
        (["schreier", "--family", "free2_mod_cyclic", "--forbid", "ab", "--depth", "12",
          "--rho", "0.7"], 2),
        # scope global, h_bound 0.5377
        (["schreier", "--family", "line_Z", "--forbid", "rr", "--depth", "40", "--rho", "0.9"],
         2),
        # warned that --alpha 0.5 exceeds --rho 0.3, an option analyze lacks
        (["analyze", "--graph", "GOLDEN", "--forbid", "aa", "--depth", "20", "--rho", "0.3"], 2),
        (["analyze", "--graph", "GOLDEN", "--forbid", "aa", "--depth", "20", "--d-max", "8"], 2),
    ], ids=["grid-alpha", "golden-alpha", "grid-D", "golden-D", "C5-rho-conn-K", "free2-rho",
            "line_Z-rho", "golden-rho", "golden-d-max"])
    def test_a_measured_constant_is_refused_as_an_option(self, capsys, tmp_path, argv, tokens):
        paths = {"GOLDEN": write_doc(tmp_path, "golden.json", GOLDEN_DOC),
                 "C5": write_doc(tmp_path, "c5.json", C5_DOC)}
        code, out, err = cli_exit(capsys, [paths.get(a, a) for a in argv])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "entroscope: error: unrecognized arguments: " + " ".join(argv[-tokens:]))

    def test_denseness_is_searched_uncapped(self, capsys, tmp_path):
        # from vertex 10 of the 20-cycle the c-loop is 10 steps away; a
        # search capped at D <= 8 refused this graph
        doc = cycle_doc(20)
        code, report = run(capsys, "analyze", "--graph", write_doc(tmp_path, "c20.json", doc),
                           "--forbid", "c", "--depth", "40")
        results = report["results"]
        assert code == 0 and report["warnings"] == []
        assert results["denseness_D"] == results["certificate"]["D"] == 10
        assert results["certificate"]["conn_K"] == 1
        assert results["certificate"]["rho"] >= dense_radius(doc)
        # h_F = log 2: the words avoiding c are the walks on the cycle
        assert results["certificate"]["h_bound"] >= math.log(2)

    @pytest.mark.parametrize("argv, sigma, D", [
        (["analyze", "--graph", "B2", "--forbid", "aa"], 2, 0),
        (["analyze", "--graph", "GOLDEN", "--forbid", "aa"], 2, 0),
        # from 1 only a is read, so bab needs one step first
        (["analyze", "--graph", "GOLDEN", "--forbid", "bab"], 2, 1),
        (["schreier", "--family", "line_Z", "--forbid", "rr"], 2, 0),
        (["schreier", "--family", "grid_Z2", "--forbid", "rr"], 4, 0),
        (["schreier", "--family", "free2_mod_cyclic", "--forbid", "ab"], 4, 0),
        (["analyze", "--family", "grid_Z2", "--forbid", "ru", "--x", "(1,0)"], 4, 0),
    ], ids=["b2", "golden-aa", "golden-bab", "line_Z", "grid_Z2", "free2", "analyze-grid_Z2"])
    def test_certificate_takes_the_uniform_floor_and_the_measured_D(
        self, capsys, tmp_path, b2_path, argv, sigma, D
    ):
        golden = write_doc(tmp_path, "golden.json", GOLDEN_DOC)
        argv = [{"B2": b2_path, "GOLDEN": golden}.get(a, a) for a in argv]
        code, report = run(capsys, *argv, "--depth", "10")
        results = report["results"]
        assert code == 0
        assert results["certificate"]["alpha"] == 1 / sigma
        assert results["certificate"]["D"] == results["denseness_D"] == D


class TestRho:
    def test_window_without_an_edge_is_refused(self, capsys, tmp_path):
        # a lone vertex passes the window's connectivity test, but its spectral
        # radius is 0, which the h-transform's floor alpha / rho divided by
        path = write_doc(tmp_path, "lone.json",
                         {"alphabet": ["a"], "vertices": ["0"], "edges": [], "roots": ["0"]})
        code, report = run(capsys, "rho", "--graph", path, "--transform-check", "--conn-K", "1",
                           "--depth", "12", "--forbid", "a")
        assert code == 2
        assert report["error"] == {
            "type": "ChainError",
            "message": "the window of radius 14 around '0' has spectral radius 0.0;"
                       " no positive harmonic vector"}

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

    def test_overfull_vertex_is_named(self, capsys, tmp_path):
        path = write_doc(tmp_path, "overfull.json", {
            "alphabet": ["a", "b"], "vertices": ["u", "v"], "roots": ["u"],
            "edges": [["u", "a", "u"], ["u", "a", "v"], ["u", "b", "v"],
                      ["v", "a", "u"], ["v", "b", "v"]],
        })
        code, report = run(capsys, "rho", "--graph", path, "--depth", "12")
        assert code == 2
        assert report["error"]["message"] == "vertex u has out-degree 3 > |alphabet|"

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

    def test_harmonic_window_has_radius_depth_plus_two(self, capsys):
        # the window covers the depth-N ball the transformed table reads, so
        # an edge never leaves it (a library window smaller than that raises)
        code, report = run(capsys, "rho", "--family", "grid_Z2", "--depth", "12",
                           "--forbid", "rr", "--transform-check", "--conn-K", "1")
        assert code == 0 and report["results"]["transform_identity"]["ok"]
        assert report["results"]["harmonic"]["radius"] == 14
        assert report["results"]["harmonic"]["scheme"] == "reflecting"
        assert report["results"]["transform_identity"]["threshold"] == 0.05
        assert not {"hv_radius", "hv_tol", "hv_scheme", "identity_threshold"} & parser_options(
            "rho")

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


class TestReportEntries:
    """The entropy and decay-rate entries of the reports, pinned whole: a
    finite language, a fitted pair of entropies, an all-zero table and a
    converged decay rate."""

    def test_count_of_a_finite_language(self, capsys, b2_path):
        code, report = run(capsys, "count", "--graph", b2_path, "--depth", "10",
                           "--forbid", "a", "--forbid", "b")
        assert code == 0
        results = report["results"]
        assert results["counts_forbidden"] == [1] + [0] * 10
        assert results["entropy"] == {
            "value": 0.6931471805599453, "method": "count-fit", "period": 1,
            "finite_language": False,
            "diagnostics": {"residual": 8.881784197001252e-16, "points_used": 11, "tail": 20,
                            "last_ratio": 0.6931471805599454, "finite_language": False},
        }
        assert results["entropy_forbidden"] == {
            "value": None, "method": "count-fit", "period": 1, "finite_language": True,
            "diagnostics": {"residual": 0.0, "points_used": 0, "tail": 20,
                            "last_ratio": None, "finite_language": True},
        }

    def test_analyze_entropies(self, capsys, b2_path):
        code, report = run(capsys, "analyze", "--graph", b2_path, "--depth", "30",
                           "--forbid", "aa")
        assert code == 0
        results = report["results"]
        assert results["h"] == {
            "value": 0.6931471805599453, "method": "count-fit", "period": 1,
            "finite_language": False,
            "diagnostics": {"residual": 0.0, "points_used": 20, "tail": 20,
                            "last_ratio": 0.6931471805599436, "finite_language": False},
        }
        assert results["h_forbidden"] == {
            "value": 0.4812117858691965, "method": "count-fit", "period": 1,
            "finite_language": False,
            "diagnostics": {"residual": 3.178410532989062e-06, "points_used": 20, "tail": 20,
                            "last_ratio": 0.4812118250594519, "finite_language": False},
        }
        assert results["gap"] == 0.2119353946907488

    def test_rho_of_an_unreachable_end(self, capsys, tmp_path):
        # y = v is not reachable from x = u: every p^(n)(x, y) is 0
        path = write_doc(tmp_path, "apart.json", {
            "alphabet": ["a", "b"], "vertices": ["u", "v"], "roots": ["u"],
            "edges": [["u", "a", "u"], ["v", "a", "v"], ["v", "b", "u"]],
        })
        code, report = run(capsys, "rho", "--graph", path, "--x", "u", "--y", "v",
                           "--depth", "12")
        assert code == 0
        assert report["results"] == {
            "rho": 0.0, "period": 1, "residual": 0.0, "converged": False,
            "entropy_dictionary": {
                "value": None, "method": "rho-dictionary", "period": 1,
                "finite_language": True, "diagnostics": {"rho": 0.0, "residual": 0.0},
            },
        }
        assert report["warnings"] == ["rho estimate did not stabilize (large tail residual)"]

    def test_converged_rho(self, capsys, b2_path):
        code, report = run(capsys, "rho", "--graph", b2_path, "--depth", "20",
                           "--forbid", "aa")
        assert code == 0
        assert report["results"] == {
            "rho": 1.0, "period": 1, "residual": 0.0, "converged": True,
            "entropy_dictionary": {
                "value": 0.6931471805599453, "method": "rho-dictionary", "period": 1,
                "finite_language": False, "diagnostics": {"rho": 1.0, "residual": 0.0},
            },
            "rho_forbidden": 0.8085575377154386, "period_forbidden": 1,
            "residual_forbidden": 0.04690591988171569,
        }
        assert report["warnings"] == []


class TestBudgetReachesEveryStage:
    """The budget set on the graph bounds the searches after the census too."""

    def test_harmonic_window(self, capsys):
        # the radius-12 window is read off the depth-13 search: 365 vertices,
        # more than the census's product search holds at depth 10
        argv = ["rho", "--family", "grid_Z2", "--depth", "10", "--forbid", "rr",
                "--transform-check", "--conn-K", "1"]
        code, report = run(capsys, *argv, "--budget", "364")
        assert code == 3
        assert report["error"]["message"] == (
            "search from vertex '(0,0)' found more than 364 vertices (--budget)")
        assert run(capsys, *argv, "--budget", "365")[0] == 0

    def test_certificate_window(self, capsys, tmp_path):
        # a 900-vertex ring, a forward and b back: the depth-3 census finds 7
        # vertices, the certificate's full window all 900
        n = 900
        doc = {"alphabet": ["a", "b"], "vertices": list(range(n)), "roots": [0],
               "edges": [[i, "a", (i + 1) % n] for i in range(n)]
               + [[(i + 1) % n, "b", i] for i in range(n)]}
        argv = ["analyze", "--graph", write_doc(tmp_path, "ring.json", doc),
                "--depth", "3", "--forbid", "ab"]
        code, report = run(capsys, *argv, "--budget", "899")
        assert code == 3
        assert report["error"]["message"] == (
            "search from vertex '0' found more than 899 vertices (--budget)")
        code, report = run(capsys, *argv, "--budget", "900")
        assert code == 0 and report["results"]["certificate"] is not None


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

    def test_declared_block_is_the_familys(self, capsys):
        # free2 declares no rho, so its certificate takes rho = 1
        for family, word, rho in (("line_Z", "rr", 1.0), ("free2_mod_cyclic", "ab", None)):
            code, report = run(
                capsys, "schreier", "--family", family, "--forbid", word, "--depth", "10",
            )
            assert code == 0
            results = report["results"]
            assert results["declared"] == {"conn_K": 1, "rho": rho}
            cert = results["certificate"]
            assert (cert["conn_K"], cert["rho"], cert["path"]) == (1, 1.0, "stochastic")

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

    def test_env_budget(self, capsys, b2_path, monkeypatch):
        monkeypatch.setenv("ENTROSCOPE_BUDGET", "50")
        code, report = run(
            capsys, "schreier", "--family", "grid_Z2", "--forbid", "uu", "--depth", "40"
        )
        assert code == 3
        # the config echo shows the budget the variable set, with or without a graph
        for argv in (["count", "--graph", b2_path, "--depth", "3"],
                     ["bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic"]):
            code, report = run(capsys, *argv)
            assert code == 0 and report["config"]["budget"] == 50

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["count", "--graph", "B2", "--depth", "3"],
        ["bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic"],
    ], ids=lambda argv: argv[0])
    def test_budget_below_one_names_the_option(self, capsys, b2_path, argv, budget):
        # a search never counts its start vertex, so such a budget would pass it
        argv = [b2_path if a == "B2" else a for a in argv]
        code, report = run(capsys, *argv, "--budget", budget)
        assert code == 2
        assert "--budget" in report["error"]["message"]

    @pytest.mark.parametrize("value", ["abc", "1.5", "0"])
    def test_bad_env_budget_names_the_variable(self, capsys, b2_path, monkeypatch, value):
        monkeypatch.setenv("ENTROSCOPE_BUDGET", value)
        code, report = run(capsys, "count", "--graph", b2_path, "--depth", "3")
        assert code == 2
        assert "ENTROSCOPE_BUDGET" in report["error"]["message"]
        # --budget wins, and the variable is not read
        code, report = run(capsys, "count", "--graph", b2_path, "--depth", "3", "--budget", "5")
        assert code == 0 and report["config"]["budget"] == 5

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

    @pytest.mark.parametrize(
        "vertices, edges, repeated",
        [
            ([1, True], [[1, "a", True]], "vertex id 1 "),
            (["v", "v"], [["v", "a", "v"]], "vertex id 'v' "),
            ([0, 1.0, 1], [[0, "a", 1]], "vertex id 1.0 "),
        ],
        ids=["one-and-true", "same-string", "one-and-one-point-zero"],
    )
    def test_repeated_vertex_id_is_a_config_error(self, capsys, tmp_path, vertices, edges,
                                                  repeated):
        doc = dict(B2_DOC, vertices=vertices, edges=edges, roots=vertices[:1], forbidden=[])
        code, report = run(capsys, "count", "--graph", write_doc(tmp_path, "rep.json", doc),
                           "--depth", "4")
        assert code == 2
        assert report["error"]["type"] == "GraphFormatError"
        message = report["error"]["message"]
        assert message.startswith('"vertices" repeats ') and repeated in message

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
        # rho fixes its harmonic window and threshold: argparse refuses the
        # options that set them and names the one given
        code, out, err = cli_exit(capsys, [
            "rho", "--family", "grid_Z2", "--depth", "12", "--forbid", "rr",
            "--transform-check", option, value,
        ])
        assert (code, out, err.splitlines()[-1]) == (
            2, "", f"entroscope: error: unrecognized arguments: {option} {value}")

    ANALYZE = ("analyze", "--family", "line_Z", "--depth", "12", "--forbid", "rr")
    RHO = ("rho", "--family", "grid_Z2", "--depth", "12", "--forbid", "rr", "--transform-check")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("bound", "--alpha", "0.5", "--D", "-1", "--R", "2", "--stochastic"), "--D"),
            (ANALYZE + ("--d-max", "-1"), "--d-max"),
            (("bound", "--alpha", "2", "--D", "0", "--R", "1", "--stochastic"), "--alpha"),
            (("bound", "--alpha", "0.5", "--D", "0", "--R", "2"), "--conn-K"),
            (("bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic",
              "--sigma-size", "-1"), "--sigma-size"),
            (ANALYZE + ("--rho", "1.5"), "--rho"),
            (ANALYZE + ("--rho", "0"), "--rho"),
            (ANALYZE + ("--conn-K", "0"), "--conn-K"),
            # the stochastic path never reads conn_K, so it used to certify
            (("schreier", "--family", "line_Z", "--depth", "12", "--forbid", "rr",
              "--conn-K", "0"), "--conn-K"),
            # rho and the stochastic bound never read conn_K, so they used to run
            (RHO + ("--conn-K", "0"), "--conn-K"),
            (RHO + ("--conn-K", "-3"), "--conn-K"),
            (("bound", "--alpha", "0.5", "--D", "0", "--R", "2", "--stochastic",
              "--conn-K", "-4"), "--conn-K"),
        ],
        ids=["D", "d-max", "alpha", "conn-K", "sigma-size", "analyze-rho-1.5", "analyze-rho-0",
             "analyze-conn-K-0", "schreier-conn-K-0", "rho-conn-K-0", "rho-conn-K-minus-3",
             "bound-stochastic-conn-K-minus-4"],
    )
    def test_out_of_range_option_is_named(self, capsys, argv, option):
        code, out, err = cli_exit(capsys, list(argv))
        assert code == 2
        if option in {o for a in subparser(build_parser(), argv[0])._actions
                      for o in a.option_strings}:
            assert option in json.loads(out)["error"]["message"]
        else:   # analyze and schreier take no certificate constant: argparse names it
            assert out == "" and err.splitlines()[-1].startswith(
                f"entroscope: error: unrecognized arguments: {option} ")

    @pytest.mark.parametrize("option, value", [("--rho", "1.5"), ("--rho", "0"), ("--conn-K", "0")])
    def test_out_of_range_certificate_option_on_a_graph_is_named(
        self, capsys, b2_path, option, value
    ):
        # a finite graph's constants are computed: no value is taken for them
        code, out, err = cli_exit(capsys, ["analyze", "--graph", b2_path, "--depth", "12",
                                           "--forbid", "ab", option, value])
        assert (code, out, err.splitlines()[-1]) == (
            2, "", f"entroscope: error: unrecognized arguments: {option} {value}")

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
