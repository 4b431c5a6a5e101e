"""Word censuses and entropy estimates.

Counts words of each length readable from x to y, with or without a
forbidden factor set (via the product construction), estimates the growth
rate from the counts, determinizes nondeterministic windows by the powerset
construction, and computes exact entropy of finite graphs as the log of
the spectral radius of the edge-count matrix of their reachable part.

Counts are exact integers (c_n can reach |alphabet|^n): integer matrix
powers modulo word-size primes, joined by the Chinese remainder theorem.
Weighted path sums run on the same states as float64 matrix powers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .factors import ForbiddenSet, avoiding, base_edge
from .graphs import (
    DEFAULT_BUDGET,
    Edge,
    LabelledGraph,
    Vertex,
    Window,
    bfs,
    check_deterministic,
    explicit_graph,
    full_window,
    vertex_key,
)
from .growth import NEG_INF, GrowthFit, fit_log_growth


class NondeterministicWindow(RuntimeError):
    """Counting was attempted on a window with (vertex, label) collisions;
    determinize first."""

    def __init__(self, violations):
        super().__init__(f"window is not deterministic at {violations[:5]}")
        self.violations = violations


class CountRangeError(ValueError):
    """A state has 2**32 or more incoming edges, so a sparse product of
    residues modulo a prime below 2**31 could overflow int64."""


@functools.cache
def _primes(k: int) -> tuple[int, ...]:
    """The k largest primes below 2**31, by trial division up to 46,341."""
    found = _primes(k - 1) if k > 1 else ()
    c = found[-1] - 2 if found else 2**31 - 1
    divisors = np.arange(3, 46342, 2)
    while not (c % divisors).all():
        c -= 2
    return found + (c,)


@dataclass(frozen=True)
class WordCensus:
    """c_n = number of length-n words readable from x ending at y."""

    x: Vertex
    y: Vertex
    counts: tuple[int, ...]
    forbidden: Optional[ForbiddenSet] = None


@dataclass
class EntropyEstimate:
    """Growth rate in nats; -inf signals a finite language."""

    value: float
    method: str              # "count-fit" | "spectral" | "rho-dictionary"
    period: int = 1
    diagnostics: dict = field(default_factory=dict)

    @property
    def finite_language(self) -> bool:
        return self.value == NEG_INF


def count_words(
    g: LabelledGraph,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
    budget: int = DEFAULT_BUDGET,
) -> WordCensus:
    """Exact word counts per length up to N.

    Words correspond to paths when every state a word of length <= N
    leaves from, those within distance N - 1 of x, is deterministic; that
    is checked on the edges the census counts.  With a forbidden set the
    census runs on the product graph, where dead automaton states are
    already pruned.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    violations = check_deterministic(_reach(g, x, y, N, forbidden, budget)[1])
    if violations:
        raise NondeterministicWindow(violations)
    counts = path_counts(g, x, y, N, forbidden=forbidden, budget=budget)
    return WordCensus(x=x, y=y, counts=tuple(counts), forbidden=forbidden)


def _reach(g, x, y, N, forbidden, budget):
    """States within distance N of the start (x, or (x, start) on the product
    graph) in discovery order; their out-edges but the outer shell's, which
    lie on no path of length <= N; and the indices of the states over y.
    The states and edges are memoized on g (``LabelledGraph.reaches``)."""
    key = (x, N, forbidden, budget)
    if key not in g.reaches:
        graph, start = avoiding(g, x, forbidden)
        distances, _ = bfs(graph, start, N, budget=budget)
        edges = [e for v, d in distances.items() if d < N for e in graph.out_edges(v)]
        g.reaches[key] = list(distances), edges
    states, edges = g.reaches[key]
    at_y = [i for i, s in enumerate(states) if (s if forbidden is None else s[0]) == y]
    return states, edges, at_y


def path_counts(
    g: LabelledGraph,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """Exact number of length-n paths from x to y, for n = 0..N; with a
    forbidden set, of those avoiding it (paths of the product graph).

    The counts are entries of the powers of the edge-count matrix A of the
    states within distance N of the start, taken modulo the fewest primes
    below 2**31 whose product M exceeds Delta^N, Delta the largest row sum
    of A.  No count exceeds the total mass Delta^n < M, so the Chinese
    remainder theorem recovers each one exactly from its residues.
    """
    states, edges, at_y = _reach(g, x, y, N, forbidden, budget)
    A = linalg.adjacency(states, edges).astype(np.int64)
    # residue (< 2**31) times column sum (< 2**32) keeps products below 2**63
    if A.sum(axis=0).max() >= 2**32:
        raise CountRangeError("a state has 2**32 or more incoming edges")
    bound = max(int(A.sum(axis=1).max()), 1) ** N
    primes = _primes(1)
    while math.prod(primes) <= bound:
        primes = _primes(len(primes) + 1)
    modulus = np.array(primes, dtype=np.int64)
    X = np.zeros((len(states), len(primes)), dtype=np.int64)
    X[0] = 1  # the start state, discovered first
    residues = [X[at_y].sum(axis=0)]
    for _ in range(N):
        X = (A.T @ X) % modulus
        residues.append(X[at_y].sum(axis=0))
    M = math.prod(primes)
    basis = [M // p * pow(M // p, -1, p) for p in primes]
    return [sum(a * b for a, b in zip(r, basis)) % M for r in np.array(residues).tolist()]


def path_weights(
    g: LabelledGraph, x: Vertex, y: Vertex, N: int, weight: Callable[[Edge], float],
    forbidden: Optional[ForbiddenSet] = None, budget: int = DEFAULT_BUDGET,
) -> list[float]:
    """Summed weight of the length-n paths from x to y, for n = 0..N, a path
    weighing the product of its edges' ``weight`` (of their base edges on the
    product graph): float64 sparse matrix powers on ``path_counts``'s states.
    """
    states, edges, at_y = _reach(g, x, y, N, forbidden, budget)
    w = weight if forbidden is None else (lambda e: weight(base_edge(e)))
    AT = linalg.adjacency(states, edges, w).T.tocsr()
    v = np.zeros(len(states))
    v[0] = 1.0
    table = [float(v[at_y].sum())]
    for _ in range(N):
        v = AT @ v
        table.append(float(v[at_y].sum()))
    return table


def determinize(g: LabelledGraph, w: Window) -> LabelledGraph:
    """Powerset construction on the window's subgraph.

    Vertices of the result are canonically sorted tuples of window vertices;
    the root is the singleton of the window center.  Word sets L_{x, .} of
    the window's reachable portion are preserved.
    """
    adjacency: dict[Vertex, dict[str, set]] = {}
    for e in w.edges:
        adjacency.setdefault(e.source, {}).setdefault(e.label, set()).add(e.target)

    def expand(subset):
        for a in g.alphabet:
            targets: set = set()
            for v in subset:
                targets |= adjacency.get(v, {}).get(a, set())
            if targets:
                yield Edge(subset, a, tuple(sorted(targets, key=vertex_key)))

    start = (w.center,)
    reached = full_window(LabelledGraph(g.alphabet, expand, roots=[start]))
    return explicit_graph(
        alphabet=g.alphabet,
        edges=reached.edges,
        roots=[start],
        vertices=sorted(reached.vertices, key=vertex_key),
        name=f"{g.name}/determinized" if g.name else "determinized",
    )


def entropy_from_counts(census: WordCensus, tail: int = 20) -> EntropyEstimate:
    """Tail-slope estimate of limsup (1/n) log c_n.

    Period-aware (counts supported on a residue class fit within the class),
    with the plain last-ratio estimator kept as a cross-check diagnostic.
    A trailing run of zeros longer than the period yields the -inf sentinel,
    reported as a finite language.
    """
    fit: GrowthFit = fit_log_growth(census.counts, tail=tail)
    diagnostics = {
        "residual": fit.residual,
        "points_used": fit.points_used,
        "tail": tail,
        "last_ratio": fit.last_ratio,
        "finite_language": fit.finite,
    }
    return EntropyEstimate(
        value=fit.value, method="count-fit", period=fit.period, diagnostics=diagnostics
    )


def spectral_entropy_finite(g: LabelledGraph, budget: int = DEFAULT_BUDGET) -> EntropyEstimate:
    """log of the spectral radius of the edge-count adjacency matrix of the
    part of the graph reachable from the first root.

    That part must be finite and deterministic; it may be reducible, and
    its radius is the largest Perron root of its strongly connected
    components (``linalg.spectral_radius``).  An acyclic part has radius 0
    and gives the -inf sentinel of a finite language.
    """
    w = full_window(g, budget=budget)
    collisions = check_deterministic(w.edges)
    if collisions:
        raise NondeterministicWindow(collisions)
    lam = linalg.spectral_radius(linalg.adjacency(w.sorted_vertices(), w.edges))
    value = math.log(lam) if lam > 0 else NEG_INF
    return EntropyEstimate(
        value=value, method="spectral", diagnostics={"eigenvalue": lam, "states": len(w.vertices)}
    )
