#!/usr/bin/env python3
"""Compare what two entroscope source trees print on the benchmark's jobs.

Usage (from the root of a checkout):

    python3 scripts/compare_reports.py OLD_SRC NEW_SRC [--seeds 1 2 3]

Every job that bench/jobs.py builds for the lazy-schreier, finite-analyze
and harmonic-rho workloads runs once per tree through
``entroscope.cli.main(argv)``, and so do runs of subcommands that no
workload reaches: ``count`` on each finite-analyze graph, ``bound --graph``
on the first, ``count`` and ``rho`` on the first forbidding every letter
(a finite language, an all-zero restricted table), a ``bound`` whose
outward rounding takes powers of order 10^5, and the two families no
workload runs (``schreier`` on line_Z, ``count`` on free2_mod_cyclic), so
that every family is compared.  Each tree runs in its own
interpreter: the old
one under PYTHONHASHSEED=0, the new one under 1, so that an output that
depends on string-hash order differs even between two copies of one tree.
Both runs share one work directory, since reports echo the paths of their
graph and CSV files.  Exit codes, reports (without ``generated_at``) and
CSVs are compared; for each job that differs the script prints the JSON
paths at which the two reports differ and the largest relative difference
between their numbers.  Exits 0 only when every job is identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lazy-schreier", "finite-analyze", "harmonic-rho")
GENERATED_AT = re.compile(r'^\s*"generated_at": .*$\n?', re.MULTILINE)


def run_jobs(src: str, workdir: str, seeds) -> dict:
    """Each job's exit code, report and CSV under the tree at ``src``,
    keyed by workload/seed/job (the child interpreter's half)."""
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import entroscope
    import jobs as jobs_mod
    from entroscope import cli

    origin = os.path.realpath(entroscope.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"entroscope imported from {origin}, not from {src}")
    out = {}
    for workload in WORKLOADS:
        for seed in seeds:
            runs = [(j.name, j.argv, j.csv) for j in jobs_mod.make_jobs(workload, seed, workdir)]
            if workload == "finite-analyze":  # before the next seed rewrites the graphs
                runs += subcommand_jobs(runs, workdir)
            if workload == "lazy-schreier":
                runs += family_jobs(workdir)
            for name, argv, csv_path in runs:
                if csv_path and os.path.exists(csv_path):
                    os.remove(csv_path)
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                except Exception:  # a traceback out of main() is an output too
                    code, buf = None, io.StringIO(traceback.format_exc(limit=-3))
                csv = None
                if csv_path and os.path.exists(csv_path):
                    with open(csv_path, encoding="utf-8") as fh:
                        csv = fh.read()
                out[f"{workload}/{seed}/{name}"] = {
                    "exit": code, "report": GENERATED_AT.sub("", buf.getvalue()), "csv": csv}
    return out


def subcommand_jobs(finite: list, workdir: str) -> list:
    """(name, argv, CSV path) of ``count --depth 100`` on each finite-analyze
    job's graph and word, of one ``bound --graph`` on the first, of
    ``count --depth 30`` and ``rho --depth 12`` on the first forbidding every
    letter, and of ``bound --alpha 0.9999 --D 100000 --R 1 --stochastic``."""
    inputs = [(name, ["--graph", argv[argv.index("--graph") + 1],
                      "--forbid", argv[argv.index("--forbid") + 1]]) for name, argv, _ in finite]
    runs = []
    for name, graph_word in inputs:
        csv_path = os.path.join(workdir, f"count-{name}.csv")
        runs.append((f"count-{name}", ["count", "--depth", "100", *graph_word, "--csv", csv_path],
                     csv_path))
    bound = ["bound", "--alpha", "0.25", "--D", "1", "--R", "2", "--conn-K", "1", "--rho", "0.9",
             "--sigma-size", "4"]
    runs.append(("bound", bound + inputs[0][1], None))
    graph = inputs[0][1][1]  # the first job's --graph
    with open(graph, encoding="utf-8") as fh:
        every_letter = [a for letter in json.load(fh)["alphabet"] for a in ("--forbid", letter)]
    for command, depth in (("count", "30"), ("rho", "12")):
        csv_path = os.path.join(workdir, f"{command}-every-letter.csv")
        runs.append((f"{command}-every-letter", [command, "--depth", depth, "--graph", graph,
                                                 *every_letter, "--csv", csv_path], csv_path))
    runs.append(("bound-large-k", ["bound", "--alpha", "0.9999", "--D", "100000", "--R", "1",
                                   "--stochastic"], None))
    return runs


def family_jobs(workdir: str) -> list:
    """(name, argv, CSV path) of the README's line_Z example and of a
    ``count`` on free2_mod_cyclic, the families lazy-schreier leaves out."""
    runs = []
    for name, argv in (("schreier-line_Z", ["schreier", "--family", "line_Z", "--forbid", "rr",
                                            "--depth", "40"]),
                       ("count-free2", ["count", "--family", "free2_mod_cyclic", "--forbid", "ab",
                                        "--depth", "10"])):
        csv_path = os.path.join(workdir, f"{name}.csv")
        runs.append((name, argv + ["--csv", csv_path], csv_path))
    return runs


def run_tree(src: str, workdir: str, seeds, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, workdir,
         "--seeds", *map(str, seeds)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the run of {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def differences(old, new, path="$"):
    """(path, relative difference or None) of each place where two JSON
    values differ; numbers give |a - b| / max(|a|, |b|)."""
    number = (int, float)
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                yield f"{path}.{key}", None
            else:
                yield from differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif (isinstance(old, number) and isinstance(new, number)
          and not isinstance(old, bool) and not isinstance(new, bool)):
        if old != new:
            yield path, abs(old - new) / max(abs(old), abs(new))
    elif old != new or type(old) is not type(new):
        yield path, None


def compare(old: dict, new: dict) -> list[str]:
    """One line per differing job (and its differing places)."""
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{key}: run by one tree only")
            continue
        found = []
        if a["exit"] != b["exit"]:
            found.append(f"exit {a['exit']} != {b['exit']}")
        if a["csv"] != b["csv"]:
            found.append("CSV differs")
        if a["report"] != b["report"]:
            try:
                diff = list(differences(json.loads(a["report"]), json.loads(b["report"])))
            except json.JSONDecodeError:
                diff = [("report (not JSON)", None)]
            rel = [r for _, r in diff if r is not None]
            found.append(f"report differs at {', '.join(p for p, _ in diff) or 'its layout'}"
                         + (f"; largest relative difference {max(rel):.3g}" if rel else ""))
        lines.append(f"{key}: " + "; ".join(found))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", nargs="?", help="source tree (the directory holding entroscope/)")
    ap.add_argument("new_src", nargs="?", help="source tree to compare with it")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--child", nargs=2, metavar=("SRC", "WORKDIR"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:  # one tree's half, run by run_tree
        json.dump(run_jobs(*args.child, args.seeds), sys.stdout)
        return 0
    if args.new_src is None:
        ap.error("OLD_SRC and NEW_SRC are required")

    workdir = tempfile.mkdtemp(prefix="compare-reports-")
    try:
        old = run_tree(args.old_src, workdir, args.seeds, 0)
        new = run_tree(args.new_src, workdir, args.seeds, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = compare(old, new)
    for line in lines:
        print(line)
    print(f"{len(old) - len(lines)} of {len(old)} jobs identical"
          f" (seeds {' '.join(map(str, args.seeds))})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
