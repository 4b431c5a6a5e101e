#!/usr/bin/env python3
"""Seeded fuzz of the command line: random small graph documents, forbidden
words and options of all five subcommands, in range and out of range.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/cli_fuzz.py --count 2000 --seed 1

A document has at most 6 vertices and 1-3 letters; some are
nondeterministic, some have vertices without out-edges, a few are
malformed.  Every run goes in-process through ``entroscope.cli.main(argv)``
with its stdout and stderr captured apart, the fixed cases first, then
``--count`` random draws.  A run passes when it exits 0, 2 (configuration
error, argparse's own included), 3 (budget) or 4 (certification failed),
and, when ``main`` returns (not on argparse's ``SystemExit``), its stdout
is exactly one JSON document: the report or the error, never both.  A
run that names both a ``--graph`` and a ``--family`` must exit 2.  The
script prints the argv (and document) of every run that raises a
traceback, exits with any other code or prints anything else, and exits 1
if there is one.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import traceback

from entroscope import cli, schreier

PASSING = {0, 2, 3, 4}
FAMILY_DEPTH = {"line_Z": 30, "grid_Z2": 30, "free2_mod_cyclic": 6}
FAMILY_VERTICES = {"line_Z": ["0", "3", "-2", "(0,0)"], "grid_Z2": ["(0,0)", "(1,-2)", "0"],
                   "free2_mod_cyclic": ["", "b", "Ba", "ab", "bB"]}

DOC = "DOC"   # an argv's stand-in for the path its document is written to
DIR = "DIR"   # and for the directory it is written in

# options a subcommand refuses, so that argparse's refusal stays fuzzed:
# the certificate constants that analyze and schreier compute or read off
# the family, the harmonic settings that rho fixes, and the fit's window
CONSTANTS = [("--alpha", "0.5"), ("--D", "1"), ("--d-max", "8"), ("--conn-K", "1"),
           ("--rho", "0.9")]
HARMONIC = [("--hv-radius", "3"), ("--hv-tol", "1e-3"), ("--hv-scheme", "absorbing"),
            ("--identity-threshold", "0.05")]
TAIL = [("--tail", "3")]
FOREIGN = {"count": CONSTANTS + TAIL, "analyze": CONSTANTS + TAIL, "schreier": CONSTANTS + TAIL,
           "rho": [o for o in CONSTANTS if o[0] != "--conn-K"] + HARMONIC + TAIL,
           "bound": HARMONIC}

LONE = {"alphabet": ["a"], "vertices": ["0"], "edges": [], "roots": ["0"]}

# (argv, document): a lone vertex with no out-edge, whose harmonic window
# has spectral radius 0; a directory where a file is read or written
FIXED = [
    (["rho", "--transform-check", "--conn-K", "1", "--depth", "12", "--forbid", "a",
      "--graph", DOC], LONE),
    (["count", "--graph", DIR, "--depth", "3"], LONE),
    (["count", "--graph", DOC, "--depth", "3", "--csv", DIR], LONE),
    (["count", "--graph", DOC, "--depth", "3", "--out", DIR], LONE),
]


def random_doc(rng: random.Random) -> dict:
    alphabet = list("abc"[:rng.randint(1, 3)])
    vertices = [str(i) for i in range(rng.randint(1, 6))]
    edgeless = {v for v in vertices if rng.random() < 0.2}
    edges = [[v, a, rng.choice(vertices)] for v in vertices if v not in edgeless
             for a in alphabet if rng.random() < 0.8]
    if edges and len(vertices) > 1 and rng.random() < 0.3:   # nondeterministic
        v, a, t = rng.choice(edges)
        edges.append([v, a, rng.choice([u for u in vertices if u != t])])
    doc = {"alphabet": alphabet, "vertices": vertices, "edges": edges,
           "roots": [rng.choice(vertices)]}
    if rng.random() < 0.2:
        doc["forbidden"] = [random_word(rng, alphabet)]
    if rng.random() < 0.05:            # malformed: an undeclared vertex or letter
        doc["edges"].append(rng.choice([["0", "z", "0"], ["0", alphabet[0], "9"]]))
    return doc


def random_word(rng: random.Random, alphabet) -> str:
    letters = list(alphabet) + (["z"] if rng.random() < 0.05 else [])
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))


def maybe(rng: random.Random, option: str, good, bad=(), p: float = 0.4) -> list[str]:
    """[option, value] with probability p, the value out of range (from
    ``bad``) one time in ten, else []."""
    if rng.random() >= p:
        return []
    return [option, str(rng.choice(bad if bad and rng.random() < 0.1 else good))]


def random_argv(rng: random.Random, doc: dict, workdir: str) -> list[str]:
    command = rng.choice(("count", "analyze", "bound", "rho", "schreier"))
    argv = [command]
    family = None
    if command == "schreier" or (command != "bound" and rng.random() < 0.2):
        # rho fits no depth below 10, too deep for free2_mod_cyclic here
        family = rng.choice([f for f in sorted(FAMILY_DEPTH)
                             if command != "rho" or FAMILY_DEPTH[f] >= 10])
        argv += ["--family", family]
        alphabet = schreier.builtin_family(family).alphabet
    else:
        alphabet = doc["alphabet"]
    if command == "bound":
        argv += maybe(rng, "--alpha", ["0.25", "0.5", "0.9", "1"], ["0", "1.5"], 1)
        argv += maybe(rng, "--D", [0, 1, 2, 5], [-1], 1)
        argv += maybe(rng, "--conn-K", [1, 2, 5], [-1, 0])
        argv += maybe(rng, "--rho", ["0.3", "0.9", "1"], ["0", "1.5", "nan"])
        argv += maybe(rng, "--sigma-size", [1, 2, 4], [0])
        argv += ["--stochastic"] if rng.random() < 0.5 else []
        word = random_word(rng, alphabet)
        if rng.random() < 0.5:   # the row-sum check, whose --R must be |word|
            argv += ["--graph", DOC, "--forbid", word, "--R", str(len(word))]
        else:                    # --graph or --forbid alone is refused
            argv += maybe(rng, "--R", [1, 2, 4], [0], 1)
            argv += rng.choice((["--graph", DOC], ["--forbid", word], []))
    else:
        # a family run sometimes also names the document, and forbids its
        # words: two graph sources, refused whatever else the run would do
        if family is None or (command != "schreier" and rng.random() < 0.1):
            argv += ["--graph", DOC]
            alphabet = doc["alphabet"]
        low = 10 if command == "rho" else 0   # rho's shortest fit
        argv += maybe(rng, "--depth", range(low, FAMILY_DEPTH.get(family, 30) + 1), [low - 1], 1)
        vertices = FAMILY_VERTICES[family] if family else doc["vertices"] + ["9"]
        if command != "schreier":
            argv += maybe(rng, "--x", vertices, p=0.3) + maybe(rng, "--y", vertices, p=0.3)
        for _ in range(rng.choices((0, 1, 2), (1, 12, 4))[0]):
            argv += ["--forbid", random_word(rng, alphabet)]
        if rng.random() < 0.2:
            argv += ["--csv", os.path.join(workdir, "table.csv")]
    if command == "rho":
        argv += maybe(rng, "--conn-K", [1, 2], [-1, 0], 0.7)
        if rng.random() < 0.6:
            argv += ["--transform-check"]
    argv += maybe(rng, "--budget", [1, 5, 50, 10**6], [0], 0.2)
    if rng.random() < 0.1:
        argv += ["--out", os.path.join(workdir, "report.json")]
    if rng.random() < 0.03:            # an option the subcommand does not take
        argv += list(rng.choice(FOREIGN[command]))
    return argv


def run(argv: list[str]) -> tuple[object, str]:
    """main(argv)'s exit code and what is wrong with the run, "" if
    nothing: the traceback it raised (the code is then None), or the stdout
    of a return whose stdout is not exactly one JSON document."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:          # argparse: --help, --version, usage errors
        return exc.code, ""
    except Exception:
        return None, traceback.format_exc()
    try:
        json.loads(out.getvalue())
    except json.JSONDecodeError as exc:
        return code, f"stdout is not one JSON document ({exc}):\n{out.getvalue()}"
    return code, ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=500, help="random draws after the fixed cases")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    codes: collections.Counter = collections.Counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="cli-fuzz-") as workdir:
        doc_path = os.path.join(workdir, "graph.json")
        cases = list(FIXED)
        for _ in range(args.count):
            doc = random_doc(rng)
            cases.append((random_argv(rng, doc, workdir), doc))
        for case_argv, doc in cases:
            with open(doc_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            case_argv = [{DOC: doc_path, DIR: workdir}.get(a, a) for a in case_argv]
            code, fault = run(case_argv)
            if not fault and {"--graph", "--family"} <= set(case_argv) and code != 2:
                fault = "--graph with --family must exit 2 (two graph sources)"
            codes[code] += 1
            if code not in PASSING or fault:
                failures += 1
                print(f"FAILURE (exit {code}): {' '.join(case_argv)}")
                print(f"  document: {json.dumps(doc)}")
                print("  " + (fault or "no traceback").strip().replace("\n", "\n  "))
    tally = ", ".join(f"{code}: {n}" for code, n in sorted(codes.items(), key=str))
    print(f"{sum(codes.values())} runs ({len(FIXED)} fixed); exit codes {tally}")
    print(f"failures            : {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
