"""Word censuses and entropy estimates.

Counts words of each length readable from x to y, with or without a
forbidden factor set (via the product construction), estimates the growth
rate from the counts, determinizes nondeterministic windows by the powerset
construction, and computes exact entropy of finite graphs as the log of
the spectral radius of the edge-count matrix of their reachable part.

Counts are exact integers (c_n can reach |alphabet|^n): integer matrix
powers modulo word-size primes, joined by the Chinese remainder theorem.
Weighted path sums run on the same states as float64 matrix powers.  Both
read a memoized search held as index arrays (``graphs.Reach``): the plain
breadth-first search of the graph (``graphs.search``, which windows read
too), and with forbidden words the product search derived from it here by
a layered numpy search over (vertex, automaton state).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .factors import FactorAutomaton, ForbiddenSet
from .graphs import (
    DEFAULT_BUDGET,
    Edge,
    LabelledGraph,
    Reach,
    Vertex,
    Window,
    budget_exceeded,
    check_deterministic,
    explicit_graph,
    full_window,
    search,
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
    is checked on the edges the census counts, unless the graph declares
    itself complete (one out-edge per symbol by construction).  With a
    forbidden set the census runs on the product graph, where dead
    automaton states are already pruned.
    """
    if not g.declared.complete:
        reach, _ = _reach(g, x, y, N, forbidden, budget)
        violations = check_deterministic(zip(reach.source.tolist(), reach.label.tolist()))
        if violations:
            raise NondeterministicWindow(
                [(reach.state_at(s), g.alphabet[a]) for s, a in violations])
    counts = path_counts(g, x, y, N, forbidden=forbidden, budget=budget)
    return WordCensus(x=x, y=y, counts=tuple(counts), forbidden=forbidden)


def _reach(g, x, y, N, forbidden, budget):
    """The census search (``graphs.search``; with F, the product search
    derived from it, memoized on g under F) and the indices of its states
    over y."""
    reach = search(g, x, N, budget)
    if forbidden is not None:
        key = (x, N, forbidden, budget)
        if key not in g.reaches:
            g.reaches[key] = _product_reach(g, reach, N, forbidden, budget)
        reach = g.reaches[key]
    at_y = [i for i, v in enumerate(reach.vertices) if v == y]
    return reach, np.flatnonzero(np.isin(reach.vertex, at_y))


def _product_reach(g, plain: Reach, N, forbidden, budget) -> Reach:
    """The product graph's breadth-first search from (x, start), layer by
    layer over keys vertex index * m + automaton state: gather the frontier's
    base out-edges, step the automaton, drop dead steps and number each new
    key at its first occurrence, in the base edge order (the lazy product's
    order but on tied labels, where it compares the paired targets)."""
    automaton = FactorAutomaton(forbidden, g.alphabet)
    m = len(automaton.states)
    # next automaton state per (state, label), -1 where a forbidden word ends
    step = np.array([[automaton.step(s, a) for a in g.alphabet] for s in automaton.states])
    step[np.isin(step, list(automaton.dead))] = -1
    first_edge = np.searchsorted(plain.source, np.arange(len(plain.vertices) + 1))
    layers, edges, found = [np.array([automaton.start])], [(np.zeros(0, np.int64),) * 3], 1
    for _ in range(N):
        fv, fs = np.divmod(layers[-1], m)
        out = first_edge[fv + 1] - first_edge[fv]
        e = np.repeat(first_edge[fv] - np.cumsum(out) + out, out) + np.arange(out.sum())
        src = np.repeat(np.arange(found - len(fv), found), out)
        s2 = step[np.repeat(fs, out), plain.label[e]]
        live = s2 >= 0
        src, e, key = src[live], e[live], plain.target[e[live]] * m + s2[live]
        edges.append((src, e, key))
        unique, first = np.unique(key, return_index=True)
        new = key[np.sort(first[~np.isin(unique, np.concatenate(layers))])]
        if not len(new):
            break
        layers.append(new)
        found += len(new)
        if found > budget:
            raise budget_exceeded((plain.vertices[0], automaton.start), budget)
    src, e, key = (np.concatenate(c) for c in zip(*edges))
    keys = np.concatenate(layers)
    order = np.argsort(keys)
    vertex, state = np.divmod(keys, m)
    target = order[np.searchsorted(keys[order], key)]
    return Reach(plain.vertices, plain.edges, plain.distance, vertex, state, src,
                 plain.label[e], target, e)


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
    reach, at_y = _reach(g, x, y, N, forbidden, budget)
    n = len(reach.vertex)
    AT = linalg.adjacency(n, reach.target, reach.source).astype(np.int64)
    # residue (< 2**31) times column sum of A (< 2**32) keeps products below 2**63
    if AT.sum(axis=1).max() >= 2**32:
        raise CountRangeError("a state has 2**32 or more incoming edges")
    bound = max(int(AT.sum(axis=0).max()), 1) ** N
    primes = _primes(1)
    while math.prod(primes) <= bound:
        primes = _primes(len(primes) + 1)
    modulus = np.array(primes, dtype=np.int64)
    X = np.zeros((n, len(primes)), dtype=np.int64)
    X[0] = 1  # the start state, discovered first
    residues = [X[at_y].sum(axis=0)]
    for _ in range(N):
        X = (AT @ X) % modulus
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
    product graph, each weighed once): float64 sparse matrix powers on
    ``path_counts``'s states.
    """
    reach, at_y = _reach(g, x, y, N, forbidden, budget)
    w = np.array([weight(e) for e in reach.edges], dtype=float)
    AT = linalg.adjacency(len(reach.vertex), reach.target, reach.source, w[reach.base])
    v = np.zeros(len(reach.vertex))
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
    lam = linalg.spectral_radius(w.adjacency())
    value = math.log(lam) if lam > 0 else NEG_INF
    return EntropyEstimate(
        value=value, method="spectral", diagnostics={"eigenvalue": lam, "states": len(w.vertices)}
    )
