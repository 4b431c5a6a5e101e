"""The benchmark's checkers accept true reports and reject planted errors.

Run with: PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
from entroscope import cli  # noqa: E402


def _cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return json.loads(buf.getvalue())


def _kinds(findings) -> set:
    return {f.kind for f in findings}


def test_suffix_automaton_detects_exactly_the_factors():
    rng = random.Random(0)
    for _ in range(200):
        words = tuple({"".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 3))})
        auto = checks.SuffixAutomaton(words)
        for length in range(7):
            for text in itertools.product("ab", repeat=length):
                text = "".join(text)
                state = auto.states[0]
                for sym in text:
                    state = auto.step(state, sym)
                    if state is None:
                        break
                assert (state is None) == any(w in text for w in words)


def test_coset_matches_reduce_then_strip():
    assert checks.coset("", "a") == ""
    assert checks.coset("b", "B") == ""
    assert checks.coset("ba", "A") == "b"
    assert checks.coset("b", "a") == "ba"
    assert checks.coset("B", "b") == ""


@pytest.fixture
def finite_case(tmp_path):
    rng = random.Random(3)
    n = 40
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i, u in enumerate(order):
        v = order[(i + 1) % n]
        edges += [(u, "a", v), (v, "A", u)]
    for u, v in zip(rng.sample(range(n), 24), rng.sample(range(n), 24)):
        edges += [(u, "b", v), (v, "B", u)]
    doc = {
        "alphabet": ["A", "B", "a", "b"],
        "vertices": [str(v) for v in range(n)],
        "edges": [[str(u), label, str(v)] for u, label, v in edges],
        "roots": ["0"],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    job = jobs.Job("finite", [], ("ab",), 30, graph=doc)
    report = _cli(["analyze", "--graph", str(path), "--depth", "30", "--forbid", "ab"])
    # the true radii, from dense matrices built here
    A = np.zeros((n, n))
    for u, _, v in edges:
        A[u, v] += 1
    rho = max(abs(np.linalg.eigvals(A))) / 4
    return job, report, rho


def test_finite_counts_agree_and_planted_count_error_is_wrong(finite_case):
    job, report, _ = finite_case
    assert "wrong" not in _kinds(checks.check_finite_analyze(job, report))
    planted = copy.deepcopy(report)
    planted["results"]["counts_forbidden"][17] += 1
    assert "wrong" in _kinds(checks.check_finite_analyze(job, planted))
    planted = copy.deepcopy(report)
    planted["results"]["counts"][30] -= 1
    assert "wrong" in _kinds(checks.check_finite_analyze(job, planted))


def test_finite_sound_certificate_passes_and_lowered_bound_is_refuted(finite_case):
    job, report, rho = finite_case
    sound = copy.deepcopy(report)
    sound["results"]["certificate"].update(rho=rho, bound=rho)
    assert checks.check_finite_analyze(job, sound) == []
    # the restricted radius of this case lies between 0.6 and rho
    lowered = copy.deepcopy(sound)
    lowered["results"]["certificate"]["bound"] = 0.6
    findings = checks.check_finite_analyze(job, lowered)
    assert [f.kind for f in findings] == ["unsound"]
    assert "below the restricted radius" in findings[0].message
    wrong_rho = copy.deepcopy(sound)
    wrong_rho["results"]["certificate"]["rho"] = 0.75
    assert "unsound" in _kinds(checks.check_finite_analyze(job, wrong_rho))


def test_lazy_schreier_checker_rejects_planted_errors():
    depth = 8
    job = jobs.Job("schreier", [], ("bA",), depth)
    counts = _cli(["count", "--family", "free2_mod_cyclic", "--depth", str(depth),
                   "--forbid", "bA"])["results"]
    report = {"results": {
        "counts": counts["counts"],
        "counts_forbidden": counts["counts_forbidden"],
        "certificate_scope": "window",
        "certificate": {"rho": 0.74, "bound": 0.73},
    }}
    assert checks.check_lazy_schreier(job, report) == []
    for mutate in (
        lambda r: r["results"]["counts"].__setitem__(6, r["results"]["counts"][6] + 1),
        lambda r: r["results"]["counts_forbidden"].__setitem__(8, r["results"]["counts"][8] + 1),
        lambda r: r["results"].__setitem__("certificate_scope", "global"),
        lambda r: r["results"]["certificate"].__setitem__("bound", 0.74),
        lambda r: r["results"]["certificate"].__setitem__("rho", 1.01),
    ):
        planted = copy.deepcopy(report)
        mutate(planted)
        assert "wrong" in _kinds(checks.check_lazy_schreier(job, planted))


def test_harmonic_rho_checker_rejects_planted_errors(tmp_path):
    depth = 12
    csv_path = tmp_path / "t.csv"
    job = jobs.Job("harmonic", [], ("rul",), depth, csv=str(csv_path))
    report = _cli(["rho", "--family", "grid_Z2", "--depth", str(depth), "--forbid", "rul",
                   "--transform-check", "--conn-K", "1", "--csv", str(csv_path)])
    text = csv_path.read_text()
    assert checks.check_harmonic_rho(job, report, text) == []

    def edit_cell(n, column, value):
        rows = text.splitlines()
        cells = rows[n + 1].split(",")
        cells[column] = value
        rows[n + 1] = ",".join(cells)
        return "\n".join(rows) + "\n"

    p4 = float(text.splitlines()[5].split(",")[1])
    pf6 = float(text.splitlines()[7].split(",")[2])
    for planted in (edit_cell(4, 1, repr(p4 * (1 + 1e-9))),
                    edit_cell(3, 1, "1e-9"),
                    edit_cell(6, 2, repr(pf6 * (1 - 1e-9)))):
        assert "wrong" in _kinds(checks.check_harmonic_rho(job, report, planted))
    broken = copy.deepcopy(report)
    broken["results"]["transform_identity"]["ok"] = False
    assert "wrong" in _kinds(checks.check_harmonic_rho(job, broken, text))
    broken = copy.deepcopy(report)
    broken["results"]["harmonic"]["residual"] = 0.5
    assert "wrong" in _kinds(checks.check_harmonic_rho(job, broken, text))


def test_repeats_with_different_reports_are_wrong():
    run = {"error": None, "codes": [0, 0], "digests": ["x", "y"], "report": "{}"}
    assert "wrong" in _kinds(checks.check_job("lazy-schreier", None, run))
