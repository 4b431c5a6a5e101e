"""Smoke runs of the scripts under scripts/, so that a change to the API they
import shows up as a failing test."""

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
        ("line_z_experiment.py", ["--depth", "12"], "certificate      : scope=global"),
    ],
)
def test_script_runs(name, args, line):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
