"""Seeded job lists for the three workloads.

A job is the argv a user would type after ``entroscope``, plus the facts
the independent checks need (the benchmark's own copy of each finite
graph, the forbidden words).  Everything here derives from the workload
name and the seed; the program sees only the argv and the graph files.

Sizes and word templates are fixed per job position.  The seed draws the
finite graphs and, for each job, a symmetry of the graph family that
relabels the template into the forbidden word.  A relabelling by a symmetry
leaves the work the same, so on the built-in families the cost of job i
does not depend on the seed, and on finite graphs only the graph draw
moves it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

FREE2_ALPHABET = ("A", "B", "a", "b")

# Letter maps that preserve the coset graph of <a> in the free group, and
# the law of the random finite graphs: invert a, invert b, or both.
FREE2_SYMMETRIES = tuple(
    {"a": a, "A": a.swapcase(), "b": b, "B": b.swapcase()}
    for a in "aA" for b in "bB"
)


def _grid_symmetries() -> tuple:
    """The eight symmetries of the square lattice as letter maps."""
    turn = {"r": "u", "u": "l", "l": "d", "d": "r"}
    mirror = {"r": "r", "l": "l", "u": "d", "d": "u"}
    maps = []
    current = {c: c for c in "dlru"}
    for _ in range(4):
        maps.append(current)
        maps.append({c: mirror[current[c]] for c in current})
        current = {c: turn[current[c]] for c in current}
    return tuple(maps)


GRID_SYMMETRIES = _grid_symmetries()

# lazy-schreier: depth 10 is the smallest horizon rho_estimate accepts.
SCHREIER_DEPTH = 10
# First two letters neither equal nor inverse: of the length-3 words, the
# ones with the largest peak memory, so the peak does not depend on the seed.
SCHREIER_TEMPLATES = ("bab",)

# finite-analyze: (vertices, depth, word template) per job.
FINITE_JOBS = (
    (600, 100, "ab"),
    (600, 100, "ba"),
    (700, 100, "bb"),
    (700, 100, "aa"),
    (800, 100, "ab"),
    (800, 100, "ba"),
    (900, 100, "bB"),
    (900, 100, "aA"),
)
FINITE_PARTIAL_SHARE = 0.6

# harmonic-rho: (depth, word template) per job.
HARMONIC_JOBS = ((20, "rr"), (20, "ru"), (20, "rl"), (20, "rru"), (20, "rur"), (20, "rul"))

WORKLOADS = ("lazy-schreier", "finite-analyze", "harmonic-rho")


@dataclass
class Job:
    name: str
    argv: list
    words: tuple
    depth: int
    csv: str | None = None
    graph: dict | None = field(default=None, repr=False)  # finite graphs only


def _relabel(rng: random.Random, template: str, symmetries) -> str:
    letters = rng.choice(symmetries)
    return "".join(letters[c] for c in template)


def _forbid_args(words) -> list:
    args = []
    for w in words:
        args += ["--forbid", w]
    return args


def lazy_schreier(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"lazy-schreier/{seed}")
    jobs = []
    for i, template in enumerate(SCHREIER_TEMPLATES):
        words = (_relabel(rng, template, FREE2_SYMMETRIES),)
        argv = ["schreier", "--family", "free2_mod_cyclic",
                "--depth", str(SCHREIER_DEPTH)] + _forbid_args(words)
        jobs.append(Job(f"schreier-{i}", argv, words, SCHREIER_DEPTH))
    return jobs


def _has_flat_neighbourhood(adj: dict, degree: int) -> bool:
    """Some vertex of the given out-degree whose out-neighbours all share it."""
    return any(
        len(out) == degree and all(len(adj[t]) == degree for _, t in out)
        for out in adj.values()
    )


def random_inverse_closed_graph(rng: random.Random, n: int) -> dict:
    """Graph document: ``a`` a random n-cycle, ``b`` a random partial
    injection on about 60% of the vertices, ``A``/``B`` their inverses.

    Out-degrees are 2, 3 or 4.  A graph is drawn again until it has a vertex
    whose whole out-neighbourhood has degree 2 and one whose whole
    out-neighbourhood has degree 4; most draws have both (see README).  With both present the first two Collatz-Wielandt brackets of
    A + I are exactly (3, 5), which is the input on which ``perron_root``
    stops early, so every graph exercises that fault and not only most.
    """
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = []
        for i, u in enumerate(order):
            v = order[(i + 1) % n]
            edges += [(u, "a", v), (v, "A", u)]
        k = round(FINITE_PARTIAL_SHARE * n)
        for u, v in zip(rng.sample(range(n), k), rng.sample(range(n), k)):
            edges += [(u, "b", v), (v, "B", u)]
        adj: dict = {v: [] for v in range(n)}
        for u, label, v in edges:
            adj[u].append((label, v))
        if _has_flat_neighbourhood(adj, 2) and _has_flat_neighbourhood(adj, 4):
            break
    return {
        "alphabet": list(FREE2_ALPHABET),
        "vertices": [str(v) for v in range(n)],
        "edges": [[str(u), label, str(v)] for u, label, v in edges],
        "roots": ["0"],
    }


def finite_analyze(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"finite-analyze/{seed}")
    jobs = []
    for i, (n, depth, template) in enumerate(FINITE_JOBS):
        doc = random_inverse_closed_graph(rng, n)
        word = _relabel(rng, template, FREE2_SYMMETRIES)
        path = os.path.join(workdir, f"finite-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["analyze", "--graph", path, "--depth", str(depth), "--forbid", word]
        jobs.append(Job(f"finite-{i}", argv, (word,), depth, graph=doc))
    return jobs


def harmonic_rho(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(f"harmonic-rho/{seed}")
    jobs = []
    for i, (depth, template) in enumerate(HARMONIC_JOBS):
        words = (_relabel(rng, template, GRID_SYMMETRIES),)
        csv_path = os.path.join(workdir, f"harmonic-{i}.csv")
        argv = ["rho", "--family", "grid_Z2", "--depth", str(depth)] + _forbid_args(words) + [
            "--transform-check", "--conn-K", "1", "--csv", csv_path]
        jobs.append(Job(f"harmonic-{i}", argv, words, depth, csv=csv_path))
    return jobs


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    builders = {
        "lazy-schreier": lazy_schreier,
        "finite-analyze": finite_analyze,
        "harmonic-rho": harmonic_rho,
    }
    return builders[workload](seed, workdir)
