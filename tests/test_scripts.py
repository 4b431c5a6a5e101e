"""Smoke runs of the scripts under scripts/, so that a change to the API they
import shows up as a failing test."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, line",
    [
        ("certificate_sweep.py", ["--count", "5"], "violations          : 0"),
        ("cli_fuzz.py", ["--count", "300"], "failures            : 0"),
    ],
)
def test_script_runs(name, args, line):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def test_compare_reports_finds_a_tree_equal_to_itself():
    # the two runs use different PYTHONHASHSEEDs, so no output may depend on
    # the order of a set or dict of strings
    src = os.path.join(ROOT, "src")
    proc = run_script("compare_reports.py", src, src, "--seeds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["29 of 29 jobs identical (seeds 1)"]


def test_compare_reports_names_what_differs():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", os.path.join(ROOT, "scripts", "compare_reports.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    report = {"results": {"rho": 0.5, "words": ["ab"], "ok": True}}
    old = {"w/1/a": {"exit": 0, "report": json.dumps(report), "csv": "n\n0\n"}}
    new = {"w/1/a": dict(old["w/1/a"], report=json.dumps(
        {"results": {"rho": 0.5 + 2**-52, "words": ["ba"], "ok": True}}))}
    assert script.compare(old, old) == []
    assert script.compare(old, new) == [
        "w/1/a: report differs at $.results.rho, $.results.words[0]; "
        "largest relative difference 4.44e-16"]
    new["w/1/a"].update(exit=1, csv="n\n1\n")
    new["w/1/b"] = new["w/1/a"]
    lines = script.compare(old, new)
    assert lines[0].startswith("w/1/a: exit 0 != 1; CSV differs; report differs at")
    assert lines[1] == "w/1/b: run by one tree only"
