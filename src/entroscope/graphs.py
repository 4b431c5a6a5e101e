"""Edge-labelled directed graphs, finite or lazily generated.

A graph is an alphabet, a vertex-expansion function and a nonempty list of
root vertices.  Infinite graphs never enumerate their vertex set: every
algorithm in this package works on finite memoized searches (``search``)
and the forward balls ("windows") read off them, under a vertex budget.

Structural predicates (determinism, uniform connectedness) are checked on
windows and their results are certificates about the window only, never
global claims about an infinite graph.
"""

from __future__ import annotations

import json
from collections import Counter
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
    stochastic.
    """

    conn_k: Optional[int] = None
    rho: Optional[float] = None
    complete: bool = False


class LabelledGraph:
    """Immutable edge-labelled graph given by an expansion function.

    ``expand(v)`` must return every out-edge of ``v``, each with
    ``source == v``, and must be pure: repeated calls yield the same edge
    set.  ``out_edges`` memoizes, validates and sorts the result (by label,
    then canonical target form, built only where labels tie) so all
    downstream traversals and counts are reproducible regardless of
    evaluation order.  ``reaches`` memoizes searches from a start vertex as
    index arrays (``Reach``), keyed by (start, N, forbidden set, budget):
    the plain ones (``search``, forbidden set None) behind censuses and
    windows, and the census's product searches derived from them.
    """

    def __init__(
        self,
        alphabet: Iterable[str],
        expand: Callable[[Vertex], Iterable[Edge]],
        roots: Iterable[Vertex],
        name: str = "",
        vertex_list: Optional[Iterable[Vertex]] = None,
        declared: Optional[Declared] = None,
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
    follow the vertex order of their sources.  ``source`` and ``target``
    index the ends of ``edges`` and then ``boundary`` (from len(vertices) on
    outside the window).
    """

    center: Vertex
    radius: int
    vertices: frozenset
    distances: dict = field(compare=False)
    edges: tuple[Edge, ...]
    boundary: tuple[Edge, ...]
    source: np.ndarray = field(compare=False)
    target: np.ndarray = field(compare=False)

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
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Breadth-first search from ``x``: the distance of each vertex found.

    Explores at most ``radius`` layers (the whole reachable part when None)
    and stops after the first layer holding a vertex on which ``stop``
    returns a true value; ``stop`` is called on every discovered vertex.
    Raises ExpansionBudgetExceeded once more than ``budget`` vertices have
    been discovered.
    """
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
                    if len(distances) > budget:
                        raise budget_exceeded(x, budget)
                    if stop is not None and stop(e.target):
                        found = True
        frontier = nxt
    return distances


def budget_exceeded(x: Vertex, budget: int) -> ExpansionBudgetExceeded:
    return ExpansionBudgetExceeded(
        f"search from vertex {vertex_key(x)!r} found more than {budget} vertices (--budget)")


def search(
    g: LabelledGraph, x: Vertex, N: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> Reach:
    """``bfs`` from ``x`` to depth N (the whole reachable part when None) as
    a ``Reach``, memoized on ``g.reaches``; its discovery order is layered,
    and canonical because ``out_edges`` is sorted."""
    if N is not None and N < 0:
        raise ValueError("N must be >= 0")
    key = (x, N, None, budget)
    if key not in g.reaches:
        distances = bfs(g, x, N, budget=budget)
        index = {v: i for i, v in enumerate(distances)}
        labels = {a: i for i, a in enumerate(g.alphabet)}
        # d != N: every vertex when N is None, else those within N - 1
        edges = [e for v, d in distances.items() if d != N for e in g.out_edges(v)]
        columns = [np.array([d[e[i]] for e in edges], dtype=np.int64)
                   for i, d in ((0, index), (1, labels), (2, index))]
        g.reaches[key] = Reach(list(distances), edges, np.array(list(distances.values())),
                               np.arange(len(index)), None, *columns, np.arange(len(edges)))
    return g.reaches[key]


def forward_ball(
    g: LabelledGraph, x: Vertex, radius: Optional[int], budget: int = DEFAULT_BUDGET
) -> Window:
    """The forward ball of the given radius around ``x`` (the whole
    reachable part when radius is None), read off ``search`` to depth
    radius + 1: its edges are exactly those out of the ball, so the budget
    counts the boundary's targets too.

    Raises ExpansionBudgetExceeded once more than ``budget`` vertices have
    been discovered, signalling that the ball is too large for desk-scale
    inspection.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    reach = search(g, x, None if radius is None else radius + 1, budget)
    n = len(reach.vertices) if radius is None else int(np.sum(reach.distance <= radius))
    order = np.argsort(reach.target >= n, kind="stable")  # inside edges first
    edges, k = [reach.edges[i] for i in order.tolist()], int(np.sum(reach.target < n))
    inside = reach.vertices[:n]
    return Window(x, int(reach.distance[-1]) if radius is None else radius, frozenset(inside),
                  dict(zip(inside, reach.distance[:n].tolist())), tuple(edges[:k]),
                  tuple(edges[k:]), reach.source[order], reach.target[order])


def full_window(g: LabelledGraph, budget: int = DEFAULT_BUDGET) -> Window:
    """The whole part of the graph reachable from the first root.

    Only terminates for graphs whose reachable part is finite; the budget
    guards against accidentally calling this on an infinite family.
    """
    return forward_ball(g, g.roots[0], None, budget)


def check_deterministic(edges: Iterable[tuple]) -> list[tuple[Vertex, str]]:
    """(source, label) pairs shared by two or more of the given edges, in
    order of first appearance; an edge is any tuple that starts with its
    source and label.  Empty list means the sources are deterministic; a
    window passes ``w.edges + w.boundary``."""
    seen = Counter(e[:2] for e in edges)
    return [pair for pair, n in seen.items() if n >= 2]


def check_fully_deterministic(
    g: LabelledGraph, w: Window
) -> list[tuple[Vertex, tuple[str, ...]]]:
    """(vertex, missing labels) for window vertices with out-degree < |alphabet|.

    Assumes the window already passed check_deterministic; an empty result
    means every window vertex has exactly one out-edge per symbol.
    """
    missing = []
    for v in w.distances:
        present = {e.label for e in g.out_edges(v)}
        gap = tuple(a for a in g.alphabet if a not in present)
        if gap:
            missing.append((v, gap))
    return missing


def uniform_connectedness_constant(
    g: LabelledGraph, w: Window, K_max: int, budget: int = DEFAULT_BUDGET
) -> Optional[int]:
    """Smallest K <= K_max certifying uniform connectedness on the window,
    or None: the largest return distance d(e.target, e.source) over its
    edges, at least 1 (loops return by the empty path).  One search per edge
    target t, stopped at the layer where it has found every source of an
    edge into t."""
    sources: dict = {}
    for e in w.edges:
        sources.setdefault(e.target, set()).add(e.source)
    worst = 1
    for t, wanted in sources.items():
        pending = set(wanted)
        # discard returns None, so the search stops once nothing is pending
        distances = bfs(g, t, K_max, stop=lambda v: pending.discard(v) or not pending,
                        budget=budget)
        if pending:
            return None
        worst = max(worst, *(distances[s] for s in wanted))
    return worst


def explicit_graph(
    alphabet: Iterable[str],
    edges: Iterable[tuple],
    roots: Iterable[Vertex],
    vertices: Optional[Iterable[Vertex]] = None,
    name: str = "",
    declared: Optional[Declared] = None,
) -> LabelledGraph:
    """Finite graph from an explicit edge list of (source, label, target)."""
    triples = [Edge(*t) for t in edges]
    adj: dict[Vertex, list[Edge]] = {}
    seen = set()
    for e in triples:
        if e in seen:
            raise GraphFormatError(
                f"duplicate edge {vertex_key(e.source)} -{e.label}-> {vertex_key(e.target)}"
            )
        seen.add(e)
        adj.setdefault(e.source, []).append(e)
    if vertices is None:
        vset = set(adj)
        for e in triples:
            vset.add(e.target)
        vset.update(roots)
        vertex_list = sorted(vset, key=vertex_key)
    else:
        vertex_list = list(vertices)
        vset = set(vertex_list)
        for e in triples:
            if e.source not in vset or e.target not in vset:
                raise GraphFormatError(f"edge {e} references unknown vertex")
        for r in roots:
            if r not in vset:
                raise GraphFormatError(f"root {vertex_key(r)} not in vertex list")
    return LabelledGraph(
        alphabet=alphabet,
        expand=lambda v: adj.get(v, ()),
        roots=roots,
        name=name,
        vertex_list=vertex_list,
        declared=declared,
    )


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
    "vertices" (list of ids), "edges" (list of [source, label, target]),
    "roots" (list of ids), and optionally "forbidden" (list of word
    strings).  An id is any JSON value but a list or an object.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError(f"graph document must be a JSON object, got {type(doc).__name__}")
    alphabet = _strings(doc, "alphabet")
    edges = []
    for t in _list(doc, "edges"):
        if not isinstance(t, list) or len(t) != 3:
            raise GraphFormatError(f'"edges" entry {t!r} is not a [source, label, target] triple')
        if t[1] not in alphabet:
            raise GraphFormatError(f'"edges" label {t[1]!r} not in alphabet')
        edges.append(Edge(*t))
    ids = {"vertices": _list(doc, "vertices"), "roots": _list(doc, "roots"),
           "edges": [v for e in edges for v in (e.source, e.target)]}
    for key, vs in ids.items():
        for v in vs:
            if isinstance(v, (list, dict)):
                raise GraphFormatError(f'"{key}" holds vertex id {v!r}, a list or an object')
    g = explicit_graph(alphabet, edges, ids["roots"], vertices=ids["vertices"], name=name)
    return GraphDocument(graph=g, forbidden=tuple(_strings(doc, "forbidden", required=False)))


def load_graph_json(path) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_graph_document(doc, name=str(path))
