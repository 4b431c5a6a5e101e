"""Edge-labelled directed graphs, finite or lazily generated.

A graph is an alphabet, a vertex-expansion function and a nonempty list of
root vertices.  Infinite graphs never enumerate their vertex set: every
algorithm in this package works on finite memoized searches (``search``)
and the forward balls ("windows") read off them, each under the graph's
vertex budget.

Structural predicates (determinism, uniform connectedness) are checked on
windows and their results are certificates about the window only, never
global claims about an infinite graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import linalg

Vertex = Any

DEFAULT_BUDGET = 10**6


class ExpansionBudgetExceeded(RuntimeError):
    """A traversal grew past the configured vertex budget."""


class GraphFormatError(ValueError):
    """Malformed graph description (JSON document or edge list)."""


class Edge(NamedTuple):
    source: Vertex
    label: str
    target: Vertex


def vertex_key(v: Vertex) -> str:
    """Canonical text form of a vertex id.

    Stable across runs and recursive on tuples, so pair vertices of product
    graphs render as ``(v,s)``.  Used for all deterministic orderings and
    for report output.
    """
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "(" + ",".join(vertex_key(c) for c in v) + ")"
    return str(v)


def edge_sort_key(e: Edge):
    return (e.label, vertex_key(e.target))


@dataclass(frozen=True)
class Declared:
    """Constants and structure known to hold on the whole graph.

    ``conn_k``: uniform-connectedness constant (every edge has a return
    path of length <= conn_k).  ``rho``: spectral radius of the uniform
    chain on the graph.  ``complete``: every vertex has exactly one
    out-edge per symbol, so every word is read from every vertex (each
    forbidden set is relatively 0-dense) and the uniform chain is
    stochastic.  Every stage reads the constants off ``g.declared``; to
    assert one, replace it there (``dataclasses.replace(g.declared,
    conn_k=2)``), as the CLI's --conn-K and --rho do.
    """

    conn_k: Optional[int] = None
    rho: Optional[float] = None
    complete: bool = False


class EdgeArrays(NamedTuple):
    """A finite graph's edges in ``out_edges`` order, v's at ``offsets[index[v]]:
    offsets[index[v] + 1]``, with ``label`` and ``target`` (alphabet, vertex index) columns."""

    index: dict
    offsets: np.ndarray
    label: np.ndarray
    target: np.ndarray
    edges: list


class LabelledGraph:
    """Immutable edge-labelled graph given by an expansion function.

    ``expand(v)`` must return every out-edge of ``v``, each with
    ``source == v``, and must be pure: repeated calls yield the same edge
    set.  ``out_edges`` memoizes, validates and sorts the result (by label,
    then canonical target form, built only where labels tie) so all
    downstream traversals and counts are reproducible regardless of
    evaluation order.  ``budget`` caps the vertices one search may find;
    every search of the graph reads it (set ``g.budget = n`` to change it).
    ``reaches`` memoizes searches from a start vertex as index arrays
    (``Reach``): the plain ones (``search``, forbidden set None) behind
    censuses and windows, and the census's product searches derived from
    them, keyed by (start, N, forbidden set, budget) so that a search made
    under another budget is never reused.  A finite graph's ``search``
    walks its ``arrays`` instead of ``out_edges``.
    """

    def __init__(
        self,
        alphabet: Iterable[str],
        expand: Callable[[Vertex], Iterable[Edge]],
        roots: Iterable[Vertex],
        name: str = "",
        vertex_list: Optional[Iterable[Vertex]] = None,
        declared: Optional[Declared] = None,
        arrays: Optional[EdgeArrays] = None,
        budget: int = DEFAULT_BUDGET,
    ):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise GraphFormatError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise GraphFormatError("alphabet contains duplicate symbols")
        self.expand = expand
        self.roots = tuple(roots)
        if not self.roots:
            raise GraphFormatError("graph needs at least one root vertex")
        self.name = name
        self.vertex_list = tuple(vertex_list) if vertex_list is not None else None
        self.declared = declared or Declared()
        self.arrays = arrays
        self.budget = budget
        self._alpha_set = frozenset(self.alphabet)
        self._cache: dict = {}
        self.reaches: dict = {}

    @property
    def is_finite(self) -> bool:
        return self.vertex_list is not None

    def out_edges(self, v: Vertex) -> tuple[Edge, ...]:
        cached = self._cache.get(v)
        if cached is not None:
            return cached
        edges = []
        for e in self.expand(v):
            if not isinstance(e, Edge):
                e = Edge(*e)
            if e.source != v:
                raise GraphFormatError(
                    f"expand({vertex_key(v)}) returned edge with source {vertex_key(e.source)}"
                )
            if e.label not in self._alpha_set:
                raise GraphFormatError(f"edge label {e.label!r} not in alphabet")
            edges.append(e)
        edges.sort(key=lambda e: e.label)
        # distinct labels decide edge_sort_key's order, and duplicates share a label
        if any(a.label == b.label for a, b in zip(edges, edges[1:])):
            edges.sort(key=edge_sort_key)
            for a, b in zip(edges, edges[1:]):
                if a == b:
                    raise GraphFormatError(f"duplicate edge {vertex_key(a.source)}"
                                           f" -{a.label}-> {vertex_key(a.target)}")
        result = tuple(edges)
        self._cache[v] = result
        return result


@dataclass(frozen=True)
class Window:
    """Finite forward ball of an (possibly infinite) graph.

    ``vertices`` are exactly those at forward distance <= radius from the
    center; ``distances`` runs over them in discovery order (layered, center
    first), the window's one vertex order.  ``edges`` have both endpoints
    inside, ``boundary`` edges leave the window from its outer shell; both
    follow the vertex order of their sources.  ``source``, ``label``
    (index in ``alphabet``) and ``target`` are the columns of ``edges`` then
    ``boundary`` (ends from len(vertices) on lie outside the window).
    """

    center: Vertex
    radius: int
    vertices: frozenset
    distances: dict = field(compare=False)
    edges: tuple[Edge, ...]
    boundary: tuple[Edge, ...]
    source: np.ndarray = field(compare=False)
    label: np.ndarray = field(compare=False)
    target: np.ndarray = field(compare=False)
    alphabet: tuple = field(compare=False)

    def adjacency(self, weight: Optional[Callable[[Edge], float]] = None):
        """``linalg.adjacency`` of ``edges`` in the vertex order."""
        k = len(self.edges)
        weights = None if weight is None else [weight(e) for e in self.edges]
        return linalg.adjacency(len(self.distances), self.source[:k], self.target[:k], weights)


class Reach(NamedTuple):
    """A search from x to depth N as index arrays.  ``vertices`` within N
    of x, in discovery order, with their ``distance``, and ``edges`` out of
    those within N - 1.  Per state (vertex, or (vertex, automaton state) on
    a census's product search), in discovery order: ``vertex`` index and
    automaton ``state`` (None on a plain search).  Per edge out of a state
    within N - 1: ``source``, ``label`` (alphabet index), ``target`` and
    ``base`` (its base edge's index in ``edges``)."""

    vertices: list
    edges: list
    distance: np.ndarray
    vertex: np.ndarray
    state: Optional[np.ndarray]
    source: np.ndarray
    label: np.ndarray
    target: np.ndarray
    base: np.ndarray

    def state_at(self, i: int) -> Vertex:
        v = self.vertices[self.vertex[i]]
        return v if self.state is None else (v, int(self.state[i]))


def bfs(
    g: LabelledGraph,
    x: Vertex,
    radius: Optional[int] = None,
    stop: Optional[Callable[[Vertex], Any]] = None,
) -> dict:
    """Breadth-first search from ``x``: the distance of each vertex found.

    Explores at most ``radius`` layers (the whole reachable part when None)
    and stops after the first layer holding a vertex on which ``stop``
    returns a true value; ``stop`` is called on every discovered vertex.
    Raises ExpansionBudgetExceeded once more than ``g.budget`` vertices
    have been discovered.
    """
    if g.budget < 1:
        raise budget_exceeded(x, g.budget)
    distances = {x: 0}
    frontier = [x]
    d = 0
    found = stop is not None and stop(x)
    while frontier and d != radius and not found:
        d += 1
        nxt = []
        for v in frontier:
            for e in g.out_edges(v):
                if e.target not in distances:
                    distances[e.target] = d
                    nxt.append(e.target)
                    if len(distances) > g.budget:
                        raise budget_exceeded(x, g.budget)
                    if stop is not None and stop(e.target):
                        found = True
        frontier = nxt
    return distances


def budget_exceeded(x: Vertex, budget: int) -> ExpansionBudgetExceeded:
    return ExpansionBudgetExceeded(
        f"search from vertex {vertex_key(x)!r} found more than {budget} vertices (--budget)")


def search(g: LabelledGraph, x: Vertex, N: Optional[int] = None) -> Reach:
    """The search from ``x`` to depth N (the whole reachable part when None)
    as a ``Reach``, memoized on ``g.reaches``: ``layered_search`` over a
    finite graph's ``arrays``, else ``bfs``.  Its discovery order is
    layered, and canonical because ``out_edges`` is sorted.  A search that
    runs out of vertices before depth N holds no vertex at N, so it keeps
    every edge and is also memoized as the whole search (N = None)."""
    if N is not None and N < 0:
        raise ValueError("N must be >= 0")
    key = (x, N, None, g.budget)
    if key not in g.reaches:
        arrays = g.arrays
        if arrays is not None and x in arrays.index:
            _, distance, source, e, target, via = layered_search(
                arrays.offsets, arrays.label, arrays.target, arrays.index[x], N, g.budget, x)
            # each vertex as the target of the edge that found it, as bfs keys it
            vertices = [x] + [arrays.edges[i].target for i in via.tolist()]
            edges, label = [arrays.edges[i] for i in e.tolist()], arrays.label[e]
        else:
            distances = bfs(g, x, N)
            index = {v: i for i, v in enumerate(distances)}
            labels = {a: i for i, a in enumerate(g.alphabet)}
            # d != N: every vertex when N is None, else those within N - 1
            edges = [e for v, d in distances.items() if d != N for e in g.out_edges(v)]
            source, label, target = (np.array([d[e[i]] for e in edges], dtype=np.int64)
                                     for i, d in ((0, index), (1, labels), (2, index)))
            vertices, distance = list(distances), np.array(list(distances.values()))
        r = g.reaches[key] = Reach(vertices, edges, distance, np.arange(len(vertices)), None,
                                   source, label, target, np.arange(len(edges)))
        if N is not None and r.distance[-1] < N:
            g.reaches.setdefault((x, None, None, g.budget), r)
    return g.reaches[key]


def layered_search(offsets, label, target, start: int, N: Optional[int], budget: int,
                   origin: Vertex, m: int = 1, step: Optional[np.ndarray] = None):
    """``bfs`` to depth N (all of it when None) over index arrays: i's
    out-edges are ``offsets[i]:offsets[i + 1]`` of ``label`` and ``target``.
    A state is a key i * m + s, and an edge steps s to ``step[s, label]``
    (-1 drops it; no ``step``: m = 1).  Per layer it numbers each new key at
    its first occurrence among the frontier's out-edges.  Returns the keys
    in that order, their distances, per edge out of a key within N - 1 its
    source's number, column index and target's number, and per key after
    ``start`` the edge that found it; over ``budget`` keys raise from
    ``origin``."""
    if budget < 1:
        raise budget_exceeded(origin, budget)
    number = np.full((len(offsets) - 1) * m, -1)
    number[start] = 0
    empty = np.zeros(0, np.int64)
    layers, edges, via, found = [np.array([start])], [(empty,) * 3], [empty], 1
    for _ in itertools.count() if N is None else range(N):
        fv, fs = np.divmod(layers[-1], m)
        out = offsets[fv + 1] - offsets[fv]
        e = np.repeat(offsets[fv] - np.cumsum(out) + out, out) + np.arange(out.sum())
        src, key = np.repeat(np.arange(found - len(fv), found), out), target[e] * m
        if step is not None:
            s2 = step[np.repeat(fs, out), label[e]]
            live = s2 >= 0
            src, e, key = src[live], e[live], key[live] + s2[live]
        edges.append((src, e, key))
        unique, first = np.unique(key, return_index=True)
        first = np.sort(first[number[unique] < 0])
        if not len(first):
            break
        layers.append(key[first])
        via.append(e[first])
        number[key[first]] = np.arange(found, found + len(first))
        found += len(first)
        if found > budget:
            raise budget_exceeded(origin, budget)
    src, e, key = (np.concatenate(c) for c in zip(*edges))
    return (np.concatenate(layers), np.repeat(np.arange(len(layers)), [len(k) for k in layers]),
            src, e, number[key], np.concatenate(via))


def forward_ball(g: LabelledGraph, x: Vertex, radius: Optional[int]) -> Window:
    """The forward ball of the given radius around ``x`` (the whole
    reachable part when radius is None), read off ``search`` to depth
    radius + 1: its edges are exactly those out of the ball, so the budget
    counts the boundary's targets too.

    Raises ExpansionBudgetExceeded once more than ``g.budget`` vertices
    have been discovered, signalling that the ball is too large for
    desk-scale inspection.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    reach = search(g, x, None if radius is None else radius + 1)
    n = len(reach.vertices) if radius is None else int(np.sum(reach.distance <= radius))
    order = np.argsort(reach.target >= n, kind="stable")  # inside edges first
    edges, k = [reach.edges[i] for i in order.tolist()], int(np.sum(reach.target < n))
    inside = reach.vertices[:n]
    return Window(x, int(reach.distance[-1]) if radius is None else radius, frozenset(inside),
                  dict(zip(inside, reach.distance[:n].tolist())), tuple(edges[:k]),
                  tuple(edges[k:]), reach.source[order], reach.label[order], reach.target[order],
                  g.alphabet)


def full_window(g: LabelledGraph) -> Window:
    """The whole part of the graph reachable from the first root.

    Only terminates for graphs whose reachable part is finite; the budget
    guards against accidentally calling this on an infinite family.
    """
    return forward_ball(g, g.roots[0], None)


def check_deterministic(source: np.ndarray, label: np.ndarray) -> list[tuple[int, int]]:
    """(source, label) index pairs shared by two or more of the edges given
    as parallel integer arrays, in order of first appearance.  Empty list
    means the sources are deterministic; a window passes its ``source`` and
    ``label`` columns (edges and boundary), a census its ``Reach``'s."""
    key = source * (int(label.max(initial=0)) + 1) + label
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    shared = np.sort(first[count >= 2])
    return list(zip(source[shared].tolist(), label[shared].tolist()))


def check_fully_deterministic(w: Window) -> list[tuple[Vertex, tuple[str, ...]]]:
    """(vertex, missing labels) for window vertices with out-degree < |alphabet|,
    read off the ``source`` and ``label`` columns, which hold every out-edge
    of every window vertex (edges and boundary).

    Assumes the window already passed check_deterministic; an empty result
    means every window vertex has exactly one out-edge per symbol.
    """
    present = np.zeros((len(w.distances), len(w.alphabet)), dtype=bool)
    present[w.source, w.label] = True
    return [(v, tuple(a for a, p in zip(w.alphabet, row) if not p))
            for v, row in zip(w.distances, present.tolist()) if not all(row)]


def uniform_connectedness_constant(g: LabelledGraph, w: Window, K_max: int) -> Optional[int]:
    """Smallest K <= K_max certifying uniform connectedness on the window,
    or None: the largest return distance d(e.target, e.source) over its
    edges, at least 1.  One array pass finds loops (the empty path returns)
    and edges s -> t with an edge t -> s, inside the window; the others take
    one search per target t, stopped at the layer holding all their sources."""
    k, n, vertices = len(w.edges), len(w.distances), list(w.distances)
    s, t = w.source[:k], w.target[:k]
    near = (s == t) | (K_max >= 1) & np.isin(s * n + t, t * n + s)
    sources: dict = {}
    for i, j in zip(t[~near].tolist(), s[~near].tolist()):
        sources.setdefault(vertices[i], set()).add(vertices[j])
    worst = 1
    for target, wanted in sources.items():
        pending = set(wanted)
        # discard returns None, so the search stops once nothing is pending
        distances = bfs(g, target, K_max, stop=lambda v: pending.discard(v) or not pending)
        if pending:
            return None
        worst = max(worst, *(distances[v] for v in wanted))
    return worst


def explicit_graph(
    alphabet: Iterable[str],
    edges: Iterable[tuple],
    roots: Iterable[Vertex],
    vertices: Optional[Iterable[Vertex]] = None,
    name: str = "",
    declared: Optional[Declared] = None,
) -> LabelledGraph:
    """Finite graph from an explicit edge list of (source, label, target),
    validated in one bulk pass (triples, labels in the alphabet, hashable
    ids, listed in ``vertices`` when given, no repeated id or edge) and
    sorted into its ``EdgeArrays``, which ``expand`` slices."""
    alphabet, edges, roots = tuple(alphabet), list(edges), list(roots)
    bad = [t for t in edges if not isinstance(t, (list, tuple)) or len(t) != 3]
    if bad:
        raise GraphFormatError(f'"edges" entry {bad[0]!r} is not a [source, label, target] triple')
    sources, labels, targets = zip(*edges) if edges else ((), (), ())
    bad = [a for a in labels if a not in alphabet]
    if bad:
        raise GraphFormatError(f'"edges" label {bad[0]!r} not in alphabet')
    listed = None if vertices is None else list(vertices)
    ids = {"vertices": listed or [], "roots": roots, "edges": sources + targets}
    try:
        vertex_list = listed if listed is not None else sorted(dict.fromkeys(
            ids["edges"] + tuple(roots)), key=vertex_key)
        index = {v: i for i, v in enumerate(vertex_list)}
        lost = [r for r in roots if r not in index]
        symbols = {a: i for i, a in enumerate(alphabet)}
        source, label, target = (
            np.fromiter(map(d.get, v, itertools.repeat(-1)), np.int64, len(v))
            for d, v in ((index, sources), (symbols, labels), (index, targets)))
    except TypeError:  # JSON's unhashable values are lists and objects
        found = [(k, v) for k, vs in ids.items() for v in vs if isinstance(v, (list, dict))]
        if not found:
            raise
        raise GraphFormatError('"%s" holds vertex id %r, a list or an object' % found[0]) from None
    if len(index) < len(vertex_list):
        v = next(v for i, v in enumerate(vertex_list) if index[v] != i)
        raise GraphFormatError(f'"vertices" repeats vertex id {v!r} (1, 1.0 and true are one id)')
    if (source < 0).any() or (target < 0).any():
        e = Edge(*edges[np.flatnonzero((source < 0) | (target < 0))[0]])
        raise GraphFormatError(f"edge {e} references unknown vertex")
    if lost:
        raise GraphFormatError(f"root {vertex_key(lost[0])} not in vertex list")
    n, sigma = len(vertex_list), len(alphabet)
    # out_edges order: by source, label text, then canonical target form where labels tie
    pair, label_rank = source * sigma + label, np.argsort(np.argsort(alphabet))[label]
    order = np.argsort(source * sigma + label_rank, kind="stable")
    if (np.diff(pair[order]) == 0).any():
        keys = list(map(vertex_key, targets))
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        order = np.lexsort((np.fromiter(map(rank.get, keys), np.int64, len(keys)), label_rank,
                            source))
        _, first = np.unique(pair * n + target, return_index=True)
        if len(first) < len(edges):
            s, a, t = edges[np.setdiff1d(np.arange(len(edges)), first)[0]]
            raise GraphFormatError(f"duplicate edge {vertex_key(s)} -{a}-> {vertex_key(t)}")
    out = [Edge(*edges[i]) for i in order.tolist()]
    offsets = np.searchsorted(source[order], np.arange(n + 1))

    def expand(v):
        return out[offsets[index[v]]:offsets[index[v] + 1]] if v in index else ()

    return LabelledGraph(alphabet, expand, roots, name, vertex_list, declared,
                         EdgeArrays(index, offsets, label[order], target[order], out))


@dataclass(frozen=True)
class GraphDocument:
    graph: LabelledGraph
    forbidden: tuple[str, ...] = ()


def _list(doc: dict, key: str, required: bool = True) -> list:
    """The JSON list under ``key``; an optional key defaults to []."""
    if key not in doc and required:
        raise GraphFormatError(f'graph document missing field "{key}"')
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise GraphFormatError(f'"{key}" must be a JSON list, got {type(value).__name__}')
    return value


def _strings(doc: dict, key: str, required: bool = True) -> list:
    value = _list(doc, key, required)
    if not all(isinstance(w, str) for w in value):
        raise GraphFormatError(f'"{key}" must be a list of strings, got {value!r}')
    return value


def parse_graph_document(doc: dict, name: str = "") -> GraphDocument:
    """Parse the JSON graph schema.

    The document is a JSON object with keys "alphabet" (list of symbols),
    "vertices" (list of distinct ids), "edges" (list of [source, label,
    target]), "roots" (list of ids), and optionally "forbidden" (list of
    word strings).  An id is any JSON value but a list or an object; ids
    that compare equal in Python (1, 1.0 and true) are one id.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError(f"graph document must be a JSON object, got {type(doc).__name__}")
    alphabet, edges = _strings(doc, "alphabet"), _list(doc, "edges")
    vertices = _list(doc, "vertices")
    g = explicit_graph(alphabet, edges, _list(doc, "roots"), vertices=vertices, name=name)
    return GraphDocument(graph=g, forbidden=tuple(_strings(doc, "forbidden", required=False)))


def load_graph_json(path) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_graph_document(doc, name=str(path))
