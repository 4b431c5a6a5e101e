"""Word censuses.

Counts words of each length readable from x to y, with or without a
forbidden factor set (via the product construction).  ``growth`` fits
their growth rate.

Counts are exact integers (c_n can reach |alphabet|^n): int64 matrix
powers modulo pairwise coprime moduli just below 2**51, reduced only as
often as overflow demands, joined by the Chinese remainder theorem.
Weighted path sums run on the same states as float64 matrix powers.  Both
read a memoized search held as index arrays (``graphs.Reach``): the plain
one (``graphs.search``, which windows read too), and with forbidden words
the product search derived from it here by the same layered numpy search
(``graphs.layered_search``) over (vertex, automaton state).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import linalg
from .factors import FactorAutomaton, ForbiddenSet
from .graphs import (
    LabelledGraph,
    Reach,
    Vertex,
    check_deterministic,
    layered_search,
    search,
)


class NondeterministicWindow(RuntimeError):
    """Counting was attempted on a window with (vertex, label) collisions."""

    def __init__(self, violations):
        super().__init__(f"window is not deterministic at {violations[:5]}")
        self.violations = violations


class CountRangeError(ValueError):
    """A state has 2**32 or more incoming edges, so the census moduli would
    have to fall below 2**31 to keep a sparse product within int64."""


def _moduli(d: int, states: int, bound: int) -> tuple[int, list[int]]:
    """(L, moduli): pairwise coprime moduli below 2**b, greedily from the
    top, whose product exceeds ``bound``, and a reduction every L products.
    With in-degree d, d**L * 2**b <= 2**63 and ``states`` * 2**b <= 2**63
    keep L products and a sum over ``states`` rows exact in int64."""
    c = max((d - 1).bit_length(), 1)
    h = max(12, c, (states - 1).bit_length())  # b = 51 for in-degrees up to 4,096
    moduli, product, m = [], 1, 2 ** (63 - h)
    while product <= bound:
        m -= 1
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
    return h // c, moduli


def count_words(
    g: LabelledGraph,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
) -> tuple[int, ...]:
    """Exact word counts c_n, the number of length-n words readable from x
    ending at y, for n = 0..N.

    Words correspond to paths when every state a word of length <= N
    leaves from, those within distance N - 1 of x, is deterministic; that
    is checked on the edges the census counts, unless the graph is
    complete (given by its action: one out-edge per symbol).  With a
    forbidden set the census runs on the product graph, where dead
    automaton states are already pruned.
    """
    if not g.complete:
        reach, _ = _reach(g, x, y, N, forbidden)
        violations = check_deterministic(reach.source, reach.label)
        if violations:
            raise NondeterministicWindow(
                [(reach.state_at(s), g.alphabet[a]) for s, a in violations])
    return tuple(path_counts(g, x, y, N, forbidden=forbidden))


def _reach(g, x, y, N, forbidden):
    """The census search (``graphs.search``; with F, the product search
    derived from it, memoized on g under F) and the indices of its states
    over y."""
    reach = search(g, x, N)
    if forbidden is not None:
        key = (x, N, forbidden, g.budget)
        if key not in g.reaches:
            g.reaches[key] = _product_reach(g, reach, N, forbidden)
        reach = g.reaches[key]
    try:
        j = reach.vertices.index(y)
    except ValueError:  # y lies beyond N: no state over it
        j = -1
    return reach, np.flatnonzero(reach.vertex == j)


def _product_reach(g, plain: Reach, N, forbidden) -> Reach:
    """The product graph's breadth-first search from (x, start): the
    ``graphs.layered_search`` of the plain search's edges over keys vertex
    index * m + automaton state, in the base edge order (the lazy product's
    order but on tied labels, where it compares the paired targets)."""
    automaton = FactorAutomaton(forbidden, g.alphabet)
    m = len(automaton.states)
    # next automaton state per (state, label), -1 where a forbidden word ends
    step = np.array([[automaton.step(s, a) for a in g.alphabet] for s in automaton.states])
    step[np.isin(step, list(automaton.dead))] = -1
    first_edge = np.searchsorted(plain.source, np.arange(len(plain.vertices) + 1))
    keys, _, src, e, target = layered_search(
        first_edge, plain.label, plain.target, automaton.start, N, g.budget,
        (plain.vertices[0], automaton.start), m, step)
    vertex, state = np.divmod(keys, m)
    return Reach(plain.vertices, plain.distance, vertex, state, src, plain.label[e], target, e)


def path_counts(
    g: LabelledGraph,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
) -> list[int]:
    """Exact number of length-n paths from x to y, for n = 0..N; with a
    forbidden set, of those avoiding it (paths of the product graph).

    The counts are entries of the powers of the edge-count matrix A of the
    states within distance N of the start, taken modulo ``_moduli``'s
    coprime moduli, whose product M exceeds Delta^N (Delta the largest row
    sum of A), and reduced every L products; the y rows are reduced once,
    after the last.  No count exceeds the total mass Delta^n < M: the
    Chinese remainder theorem recovers each exactly.
    """
    reach, at_y = _reach(g, x, y, N, forbidden)
    n = len(reach.vertex)
    AT = linalg.adjacency(n, reach.target, reach.source)
    # scipy's int64 product wraps silently: _moduli's L and b keep every entry exact
    d = int(AT.sum(axis=1).max())
    if d >= 2**32:
        raise CountRangeError("a state has 2**32 or more incoming edges")
    L, moduli = _moduli(d, len(at_y), max(int(AT.sum(axis=0).max()), 1) ** N)
    modulus = np.array(moduli, dtype=np.int64)
    X = np.zeros((n, len(moduli)), dtype=np.int64)
    X[0] = 1  # the start state, discovered first
    rows = np.empty((N + 1, len(at_y), len(moduli)), dtype=np.int64)
    rows[0] = X[at_y]
    for j in range(1, N + 1):
        X = AT @ X if j % L else (AT @ X) % modulus
        rows[j] = X[at_y]
    M = math.prod(moduli)
    basis = [M // p * pow(M // p, -1, p) for p in moduli]
    return [sum(a * b for a, b in zip(r, basis)) % M
            for r in (rows % modulus).sum(axis=1).tolist()]


def path_weights(
    g: LabelledGraph, x: Vertex, y: Vertex, N: int, weights: Callable[..., np.ndarray],
    forbidden: Optional[ForbiddenSet] = None,
) -> list[float]:
    """Summed weight of the length-n paths from x to y, for n = 0..N, a path
    weighing the product of its edges' weights (of their base edges on the
    product graph): float64 sparse matrix powers on ``path_counts``'s
    states.  ``weights(vertices, source, label, target)`` is the weight
    column of the plain search's edges, given as its index columns.
    """
    reach, at_y = _reach(g, x, y, N, forbidden)
    plain = search(g, x, N)
    w = np.asarray(weights(plain.vertices, plain.source, plain.label, plain.target), dtype=float)
    AT = linalg.adjacency(len(reach.vertex), reach.target, reach.source, w[reach.base])
    v = np.zeros(len(reach.vertex))
    v[0] = 1.0
    table = [float(v[at_y].sum())]
    for _ in range(N):
        v = AT @ v
        table.append(float(v[at_y].sum()))
    return table

