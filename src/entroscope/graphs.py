"""Edge-labelled directed graphs, finite or lazily generated.

A graph is an alphabet, a nonempty list of root vertices and one source of
edges: a finite graph's index arrays, a complete graph's action, or an
expansion function.  Infinite graphs never enumerate their vertex set: every
algorithm in this package works on finite memoized searches (``search``)
and the forward balls ("windows") read off them, each under the graph's
vertex budget.  Searches are index columns (source, label, target) over a
vertex list; ``Edge`` tuples are built only where a caller asks for one
(``out_edges``, ``edge_list``).

Structural predicates (determinism, uniform connectedness) are checked on
windows and their results are certificates about the window only, never
global claims about an infinite graph.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
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


class ActionError(RuntimeError):
    """A complete graph's action failed on a (vertex, letter) pair."""


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
    """Constants known to hold on the whole graph.

    ``conn_k``: uniform-connectedness constant (every edge has a return
    path of length <= conn_k).  ``rho``: spectral radius of the uniform
    chain on the graph.  A certificate reads them only on an infinite graph
    (a finite one's are computed exactly); the h-transform reads ``conn_k``
    on any graph, which the CLI's ``rho --conn-K`` replaces
    (``dataclasses.replace(g.declared, conn_k=2)``).  Completeness is not
    declared: it is the graph's action (``LabelledGraph.complete``).
    """

    conn_k: Optional[int] = None
    rho: Optional[float] = None


class EdgeArrays(NamedTuple):
    """A finite graph: its ``vertices``, numbered by ``index``, and its edges in
    ``out_edges`` order, v's at ``offsets[index[v]]:offsets[index[v] + 1]``,
    with ``label`` and ``target`` (alphabet, vertex index) columns."""

    vertices: tuple
    index: dict
    offsets: np.ndarray
    label: np.ndarray
    target: np.ndarray


class LabelledGraph:
    """Immutable edge-labelled graph given by exactly one source (none or
    two raise GraphFormatError): ``arrays``, a finite graph's
    ``EdgeArrays``, which ``search`` walks and whose vertices are
    ``vertex_list`` (None on a lazy graph); ``act``, a complete graph's
    action, the a-edge out of v being (v, a, act(v, a)); or ``expand``,
    where ``expand(v)`` returns every out-edge of ``v`` as an ``Edge`` or a
    (source, label, target) triple with ``source == v``, and is pure.
    ``complete`` (one out-edge per symbol at every vertex) holds exactly
    when the graph is given by its action.  ``expansions`` reads vertices'
    out-edges off the source, each vertex's sorted (by label, then
    canonical target form where labels tie), so traversals and counts are
    reproducible; ``out_edges`` is that pass on one vertex, memoized.
    ``budget`` caps the vertices one search may find; every search of the
    graph reads it (set ``g.budget = n`` to change it).  ``grown`` keeps the
    ``Growth`` from each start vertex of a lazy graph, which a deeper
    search resumes.  ``reaches`` memoizes searches from a start vertex as
    index arrays (``Reach``): the plain ones (``search``, forbidden set
    None) behind censuses and windows, and the census's product searches
    derived from them, keyed by (start, N, forbidden set, budget) so that
    a search made under another budget is never reused.
    """

    def __init__(
        self,
        alphabet: Iterable[str],
        expand: Optional[Callable[[Vertex], Iterable[Edge]]],
        roots: Iterable[Vertex],
        declared: Optional[Declared] = None,
        arrays: Optional[EdgeArrays] = None,
        budget: int = DEFAULT_BUDGET,
        act: Optional[Callable[[Vertex, str], Vertex]] = None,
    ):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise GraphFormatError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise GraphFormatError("alphabet contains duplicate symbols")
        if sum(source is not None for source in (arrays, act, expand)) != 1:
            raise GraphFormatError("a graph takes exactly one of arrays, act and expand")
        self.expand = expand
        self.act = act
        self.roots = tuple(roots)
        if not self.roots:
            raise GraphFormatError("graph needs at least one root vertex")
        self.declared = declared or Declared()
        self.arrays = arrays
        self.vertex_list = None if arrays is None else arrays.vertices
        self.budget = budget
        self._code = {a: i for i, a in enumerate(self.alphabet)}
        self._rank = {a: i for i, a in enumerate(sorted(self.alphabet))}
        self._in_order = tuple(sorted(self.alphabet))
        self._in_order_codes = list(map(self._code.__getitem__, self._in_order))
        self._cache: dict = {}
        self.grown: dict = {}
        self.reaches: dict = {}

    @property
    def is_finite(self) -> bool:
        return self.arrays is not None

    @property
    def complete(self) -> bool:
        return self.act is not None

    def expansions(self, vertices: list) -> tuple[list, list, list]:
        """Out-degrees of ``vertices``, and the label (alphabet index) and
        target columns of their out-edges grouped by vertex in order, each
        vertex's sorted.  ``arrays`` are sliced in one pass (a vertex outside
        the graph has no edge).  An ``act`` reads the sorted alphabet at each
        vertex; if it raises, the (v, a) pairs rerun, vertices then alphabet
        in order, and the first that fails raises ActionError.  ``expand``
        is called once per vertex and every edge checked (a triple, the
        vertex as source, a label in the alphabet, no edge twice)."""
        arrays = self.arrays
        if arrays is not None:
            i = np.fromiter(map(arrays.index.get, vertices, itertools.repeat(-1)), np.int64,
                            len(vertices))
            lo = arrays.offsets[i]
            out = np.where(i < 0, 0, arrays.offsets[i + 1] - lo)
            e = np.repeat(lo - np.cumsum(out) + out, out) + np.arange(out.sum())
            return (out.tolist(), arrays.label[e].tolist(),
                    list(map(arrays.vertices.__getitem__, arrays.target[e].tolist())))
        if self.act is not None:
            act, letters = self.act, self._in_order
            try:
                targets = [act(v, a) for v in vertices for a in letters]
            except Exception:
                for v, a in itertools.product(vertices, self.alphabet):
                    try:
                        act(v, a)
                    except Exception as exc:
                        raise ActionError(f"action failed on ({v!r}, {a!r}): {exc}") from exc
                raise
            return [len(letters)] * len(vertices), self._in_order_codes * len(vertices), targets
        outs = [list(self.expand(v)) for v in vertices]
        degree = list(map(len, outs))
        edges = list(itertools.chain.from_iterable(outs))
        if not edges:
            return degree, [], []
        if set(map(len, edges)) != {3}:
            bad = next(e for e in edges if len(e) != 3)
            raise GraphFormatError(f"expand returned {bad!r}, not a (source, label, target) triple")
        sources, labels, targets = zip(*edges)
        owners = tuple(itertools.chain.from_iterable(map(itertools.repeat, vertices, degree)))
        sigma = len(self.alphabet)
        if not all(map(operator.eq, sources, owners)):
            v, s = next((v, s) for v, s in zip(owners, sources) if s != v)
            raise GraphFormatError(
                f"expand({vertex_key(v)}) returned edge with source {vertex_key(s)}")
        rank = list(map(self._rank.get, labels))
        if None in rank:
            raise GraphFormatError(f"edge label {labels[rank.index(None)]!r} not in alphabet")
        first = itertools.chain.from_iterable(
            map(itertools.repeat, range(0, sigma * len(vertices), sigma), degree))
        key = list(map(operator.add, first, rank))
        # strictly rising keys: every vertex's labels rise, so no tie needs a sort
        if not all(map(operator.lt, key, itertools.islice(key, 1, None))):
            edges = []
            for edges_v in outs:
                edges_v = sorted(map(Edge._make, edges_v), key=edge_sort_key)
                for a, b in zip(edges_v, edges_v[1:]):
                    if a == b:
                        raise GraphFormatError(f"duplicate edge {vertex_key(a.source)}"
                                               f" -{a.label}-> {vertex_key(a.target)}")
                edges += edges_v
            _, labels, targets = zip(*edges)
        return degree, list(map(self._code.__getitem__, labels)), list(targets)

    def out_edges(self, v: Vertex) -> tuple[Edge, ...]:
        cached = self._cache.get(v)
        if cached is None:
            _, labels, targets = self.expansions([v])
            cached = self._cache[v] = tuple(
                Edge(v, self.alphabet[a], t) for a, t in zip(labels, targets))
        return cached


def edge_list(vertices, alphabet, source, label, target) -> list[Edge]:
    """The edges given as index columns into ``vertices`` and ``alphabet``."""
    return [Edge(vertices[s], alphabet[a], vertices[t])
            for s, a, t in zip(source.tolist(), label.tolist(), target.tolist())]


@dataclass(frozen=True)
class Window:
    """Finite forward ball of an (possibly infinite) graph.

    ``vertices`` are exactly those at forward distance <= radius from the
    center; ``distances`` runs over them in discovery order (layered, center
    first), the window's one vertex order, and ``ids`` continues it with
    the boundary edges' targets outside.  ``source``, ``label`` (index in
    ``alphabet``) and ``target`` are index columns into ``ids`` of the
    ``inside`` edges with both endpoints in the window, then of the
    boundary edges that leave it from its outer shell; both follow the
    vertex order of their sources.  ``edges`` and ``boundary`` build their
    ``Edge`` tuples on demand.
    """

    center: Vertex
    radius: int
    vertices: frozenset
    distances: dict = field(compare=False)
    ids: list = field(compare=False)
    inside: int
    source: np.ndarray = field(compare=False)
    label: np.ndarray = field(compare=False)
    target: np.ndarray = field(compare=False)
    alphabet: tuple = field(compare=False)

    @property
    def edges(self) -> tuple[Edge, ...]:
        columns = self.source, self.label, self.target
        return tuple(edge_list(self.ids, self.alphabet, *columns)[:self.inside])

    @property
    def boundary(self) -> tuple[Edge, ...]:
        columns = self.source, self.label, self.target
        return tuple(edge_list(self.ids, self.alphabet, *columns)[self.inside:])

    def adjacency(self, weights: Optional[np.ndarray] = None):
        """``linalg.adjacency`` of the inside edges in the vertex order,
        weighted by ``weights``, a column over ``source``, when given.  The
        unweighted matrix is built once per window and shared, its ``data``
        read-only; a weighted one is built on each call, so that its caller
        may scale it in place (``chain.harmonic_vector`` does)."""
        if weights is None:
            return self._edge_counts
        k = self.inside
        return linalg.adjacency(len(self.distances), self.source[:k], self.target[:k], weights[:k])

    @functools.cached_property
    def _edge_counts(self):
        k = self.inside
        matrix = linalg.adjacency(len(self.distances), self.source[:k], self.target[:k])
        matrix.data.flags.writeable = False
        return matrix


class Reach(NamedTuple):
    """A search from x to depth N as index arrays.  ``vertices`` within N
    of x, in discovery order, with their ``distance``.  Per state (vertex,
    or (vertex, automaton state) on a census's product search), in
    discovery order: ``vertex`` index and automaton ``state`` (None on a
    plain search).  Per edge out of a state within N - 1: ``source``,
    ``label`` (alphabet index), ``target`` and ``base`` (its base edge's
    index among the plain search's edges)."""

    vertices: list
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


class Growth:
    """A lazy graph's layered search from one vertex, grown a layer at a
    time (``grow``) and kept on ``g.grown``, so that a deeper search
    resumes it: a search to depth N is its prefix.  ``vertices`` in
    discovery order, numbered by ``index``, whose lookup (``[]``) numbers a
    vertex not yet found next (``get`` never does); ``ends[d]`` of them lie
    within d, ``degree`` lists the out-degree of each expanded vertex, and
    the first ``edge_ends[d]`` entries of the ``label`` (alphabet index)
    and ``target`` lists are the edges out of those within d - 1, grouped
    by source in vertex order.  ``columns`` converts the lists to int64
    arrays, each entry once."""

    def __init__(self, x: Vertex):
        self.vertices, self.ends, self.edge_ends = [x], [1], [0]
        self.index = collections.defaultdict(itertools.count(1).__next__, {x: 0})
        self.degree, self.label, self.target = [], [], []
        self.converted = (np.zeros(0, np.int64),) * 3  # degree, label, target

    @property
    def complete(self) -> bool:
        """Whether the last layer found no vertex: every edge is known."""
        return len(self.ends) > 1 and self.ends[-1] == self.ends[-2]

    def grow(self, g: LabelledGraph) -> None:
        """Expand the outer layer once (``g.expansions``) and number its
        targets, the new vertices in order of first appearance, with one
        ``index`` lookup per edge."""
        lo, hi = self.ends[-2] if len(self.ends) > 1 else 0, self.ends[-1]
        degree, labels, targets = g.expansions(self.vertices[lo:hi])
        self.degree += degree
        self.label += labels
        self.target += map(self.index.__getitem__, targets)
        new = len(self.index) - hi  # the vertices this layer numbered, last in the index
        self.vertices += reversed(list(itertools.islice(reversed(self.index), new)))
        self.ends.append(len(self.vertices))
        self.edge_ends.append(len(self.label))

    def columns(self, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The source, label and target columns of the search to ``depth``:
        the list entries grown since the last call are converted and
        appended to ``converted``, and a shallower search slices them."""
        self.converted = tuple(
            a if len(a) == len(c) else np.concatenate((a, np.array(c[len(a):], np.int64)))
            for a, c in zip(self.converted, (self.degree, self.label, self.target)))
        for a in self.converted:  # searches hand out views of them
            a.flags.writeable = False
        degree, label, target = self.converted
        n, k = self.ends[depth - 1] if depth else 0, self.edge_ends[depth]
        return np.repeat(np.arange(n), degree[:n]), label[:k], target[:k]


def grown(g: LabelledGraph, x: Vertex, N: Optional[int]) -> tuple[Growth, int]:
    """``g``'s growth from x, grown to depth N (until complete when None),
    and the depth of its prefix that answers a search to N; more than
    ``g.budget`` vertices within that depth raise ExpansionBudgetExceeded."""
    s = g.grown.get(x) or g.grown.setdefault(x, Growth(x))
    while not s.complete and (N is None or len(s.ends) <= N) and s.ends[-1] <= g.budget:
        s.grow(g)
    depth = len(s.ends) - 1 if N is None else min(N, len(s.ends) - 1)
    if s.ends[depth] > g.budget:
        raise budget_exceeded(x, g.budget)
    return s, depth


def budget_exceeded(x: Vertex, budget: int) -> ExpansionBudgetExceeded:
    return ExpansionBudgetExceeded(
        f"search from vertex {vertex_key(x)!r} found more than {budget} vertices (--budget)")


def search(g: LabelledGraph, x: Vertex, N: Optional[int] = None) -> Reach:
    """The search from ``x`` to depth N (the whole reachable part when None)
    as a ``Reach``, memoized on ``g.reaches``: ``layered_search`` over a
    finite graph's ``arrays``, else the prefix of the ``Growth`` from x.
    Its discovery order is layered, and canonical because expansions are
    sorted.  A search that runs out of vertices before depth N holds no
    vertex at N, so it keeps every edge and is also memoized as the whole
    search (N = None)."""
    if N is not None and N < 0:
        raise ValueError("N must be >= 0")
    key = (x, N, None, g.budget)
    if key not in g.reaches:
        arrays = g.arrays
        if arrays is not None and x in arrays.index:
            keys, distance, source, e, target = layered_search(
                arrays.offsets, arrays.label, arrays.target, arrays.index[x], N, g.budget, x)
            vertex_list = arrays.vertices
            vertices = [x] + [vertex_list[i] for i in keys[1:].tolist()]
            label = arrays.label[e]
        else:
            s, depth = grown(g, x, N)
            vertices = s.vertices[:s.ends[depth]]
            distance = np.repeat(np.arange(depth + 1), np.diff(s.ends[:depth + 1], prepend=0))
            source, label, target = s.columns(depth)
        r = g.reaches[key] = Reach(vertices, distance, np.arange(len(vertices)), None,
                                   source, label, target, np.arange(len(source)))
        if N is not None and r.distance[-1] < N:
            g.reaches.setdefault((x, None, None, g.budget), r)
    return g.reaches[key]


def layered_search(offsets, label, target, start: int, N: Optional[int], budget: int,
                   origin: Vertex, m: int = 1, step: Optional[np.ndarray] = None):
    """A layered search to depth N (all of it when None) over index arrays:
    i's out-edges are ``offsets[i]:offsets[i + 1]`` of ``label`` and
    ``target``.  A state is a key i * m + s, and an edge steps s to
    ``step[s, label]`` (-1 drops it; no ``step``: m = 1).  Per layer it
    numbers each new key at its first occurrence among the frontier's
    out-edges, with no sort: ``np.minimum.at`` (unbuffered, so defined on
    repeated keys) writes its least edge position into its ``number``.
    Returns the keys in that order, their distances, and per edge out of a
    key within N - 1 its source's number, column index and target's
    number; over ``budget`` keys raise from ``origin``."""
    if budget < 1:
        raise budget_exceeded(origin, budget)
    unseen = np.iinfo(np.int64).max
    number = np.full((len(offsets) - 1) * m, unseen)
    number[start] = 0
    empty = np.zeros(0, np.int64)
    layers, edges, found = [np.array([start])], [(empty,) * 3], 1
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
        new = np.flatnonzero(number[key] == unseen)
        if not len(new):
            break
        np.minimum.at(number, key[new], new)
        first = new[number[key[new]] == new]
        layers.append(key[first])
        number[key[first]] = np.arange(found, found + len(first))
        found += len(first)
        if found > budget:
            raise budget_exceeded(origin, budget)
    src, e, key = (np.concatenate(c) for c in zip(*edges))
    return (np.concatenate(layers), np.repeat(np.arange(len(layers)), [len(k) for k in layers]),
            src, e, number[key])


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
    inside = reach.vertices[:n]
    return Window(x, int(reach.distance[-1]) if radius is None else radius, frozenset(inside),
                  dict(zip(inside, reach.distance[:n].tolist())), reach.vertices,
                  int(np.sum(reach.target < n)), reach.source[order], reach.label[order],
                  reach.target[order], g.alphabet)


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
    and edges s -> t with an edge t -> s, inside the window, by looking each
    key s * n + t up in the sorted reverse keys t * n + s (one sort, one
    ``np.searchsorted``); the others grow the search from each target t
    (``grown``) only up to the layer holding all their sources."""
    k, n, vertices = w.inside, len(w.distances), list(w.distances)
    s, t = w.source[:k], w.target[:k]
    near = s == t
    if K_max >= 1 and k:  # no inside edge: nothing to look up, and no last key to clip to
        key, back = s * n + t, np.sort(t * n + s)
        near |= back[np.minimum(np.searchsorted(back, key), k - 1)] == key
    sources: dict = {}
    for i, j in zip(t[~near].tolist(), s[~near].tolist()):
        sources.setdefault(vertices[i], set()).add(vertices[j])
    worst = 1
    for target, wanted in sources.items():
        for d in range(K_max + 1):  # the first layer that holds every source
            growth, depth = grown(g, target, d)
            if max(growth.index.get(v, math.inf) for v in wanted) < growth.ends[depth]:
                worst = max(worst, d)
                break
        else:
            return None
    return worst


def explicit_graph(
    alphabet: Iterable[str],
    edges: Iterable[tuple],
    roots: Iterable[Vertex],
    vertices: Optional[Iterable[Vertex]] = None,
    declared: Optional[Declared] = None,
) -> LabelledGraph:
    """Finite graph from an explicit edge list of (source, label, target),
    validated in one bulk pass (triples, labels in the alphabet, hashable
    ids, listed in ``vertices`` when given, no repeated id or edge) and
    sorted into its ``EdgeArrays``, the graph's one source."""
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
        vertex_list = tuple(listed if listed is not None else sorted(dict.fromkeys(
            ids["edges"] + tuple(roots)), key=vertex_key))
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
    offsets = np.searchsorted(source[order], np.arange(n + 1))
    return LabelledGraph(alphabet, None, roots, declared,
                         EdgeArrays(vertex_list, index, offsets, label[order], target[order]))


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


def parse_graph_document(doc: dict) -> GraphDocument:
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
    g = explicit_graph(alphabet, edges, _list(doc, "roots"), vertices=vertices)
    return GraphDocument(graph=g, forbidden=tuple(_strings(doc, "forbidden", required=False)))


def load_graph_json(path) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_graph_document(doc)
