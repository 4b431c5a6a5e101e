"""Independent brute-force oracles for the test suite.

Everything here enumerates explicitly (paths, words, reduced words) and
never calls the code paths it is used to check.
"""

from __future__ import annotations

import random

import numpy as np

import entroscope as es


def contains_factor(word: tuple, patterns) -> bool:
    for p in patterns:
        m = len(p)
        for i in range(len(word) - m + 1):
            if tuple(word[i : i + m]) == tuple(p):
                return True
    return False


def iter_paths(g, x, n):
    """All (label word, endpoint) pairs of length-n paths starting at x."""
    if n == 0:
        yield (), x
        return
    for e in g.out_edges(x):
        for word, end in iter_paths(g, e.target, n - 1):
            yield (e.label,) + word, end


def brute_count(g, x, y, n, forbidden=None) -> int:
    """Number of length-n paths x -> y whose label avoids the forbidden
    words (paths, not words: equals the word count on deterministic graphs)."""
    total = 0
    for word, end in iter_paths(g, x, n):
        if end != y:
            continue
        if forbidden is not None and contains_factor(word, forbidden):
            continue
        total += 1
    return total


def brute_census(g, x, y, N, forbidden=None) -> list[int]:
    return [brute_count(g, x, y, n, forbidden) for n in range(N + 1)]


def dict_census(g, x, y, N, forbidden=()) -> list[int]:
    """Path counts x -> y for n = 0..N by a dictionary DP with big-integer
    values, over states (vertex, last R - 1 labels read), R the longest
    forbidden word: a step is dropped when a forbidden word ends with it."""
    keep = max((len(w) for w in forbidden), default=1) - 1
    frontier = {(x, ()): 1}
    counts = []
    for _ in range(N + 1):
        counts.append(sum(c for (v, _), c in frontier.items() if v == y))
        nxt: dict = {}
        for (v, recent), c in frontier.items():
            for e in g.out_edges(v):
                read = recent + (e.label,)
                if any(read[len(read) - len(w):] == tuple(w) for w in forbidden
                       if len(w) <= len(read)):
                    continue
                key = (e.target, read[len(read) - keep:])
                nxt[key] = nxt.get(key, 0) + c
        frontier = nxt
    return counts


def lazy_reach(g, x, N, forbidden=None):
    """The census search as a breadth-first search of the lazy product
    graph (``factors.product_graph``): the states within distance N of the
    start in discovery order, and the out-edges of those within N - 1."""
    graph, start = es.factors.avoiding(g, x, forbidden)
    distances = es.graphs.bfs(graph, start, N)
    edges = [e for v, d in distances.items() if d < N for e in graph.out_edges(v)]
    return list(distances), edges


def reference_window(g, x, radius):
    """The forward ball by its definition: ``bfs`` to the radius, then each
    ball vertex's out-edges split by whether their target is in the ball.
    Returns (distances, inside edges, boundary edges, dense adjacency in the
    search's vertex order)."""
    distances = es.graphs.bfs(g, x, radius)
    edges = [e for v in distances for e in g.out_edges(v)]
    inside = [e for e in edges if e.target in distances]
    index = {v: i for i, v in enumerate(distances)}
    A = np.zeros((len(index), len(index)))
    for e in inside:
        A[index[e.source], index[e.target]] += 1
    return distances, inside, [e for e in edges if e.target not in distances], A


def connectedness_per_edge(g, w, K_max):
    """Uniform-connectedness constant by its definition: the largest return
    distance d(e.target, e.source) over the window's edges (at least 1), or
    None when some edge has no return path of length <= K_max."""
    worst = 0
    for e in w.edges:
        back = es.graphs.bfs(g, e.target, K_max).get(e.source)
        if back is None:
            return None
        worst = max(worst, back)
    return max(worst, 1)


def readable_words(g, start, max_len) -> dict[int, set]:
    """Words per length readable from start (NFA-safe: frontier of vertex
    sets per word)."""
    result = {0: {()}}
    frontier = {(): {start}}
    for length in range(1, max_len + 1):
        nxt: dict = {}
        for word, verts in frontier.items():
            for v in verts:
                for e in g.out_edges(v):
                    nxt.setdefault(word + (e.label,), set()).add(e.target)
        frontier = nxt
        result[length] = set(nxt)
    return result


def harmonic_residual(chain, hv) -> float:
    """max |P h - rho h| / h over the vertices at distance < radius from the
    window center, one vertex at a time over its full row of the chain."""
    dist = {hv.center: 0}
    layer = [hv.center]
    for d in range(1, hv.radius):
        nxt = []
        for v in layer:
            for e in chain.graph.out_edges(v):
                if e.target not in dist:
                    dist[e.target] = d
                    nxt.append(e.target)
        layer = nxt
    h = hv.values
    worst = 0.0
    for v in dist:
        ph = sum(float(chain.weight(e)) * h[e.target] for e in chain.graph.out_edges(v))
        worst = max(worst, abs(ph - hv.rho_hat * h[v]) / h[v])
    return worst


def strongly_connected(g) -> bool:
    verts = list(g.vertex_list)
    if not verts:
        return False
    fwd = {v: [e.target for e in g.out_edges(v)] for v in verts}
    bwd: dict = {v: [] for v in verts}
    for v in verts:
        for t in fwd[v]:
            bwd[t].append(v)

    def reach(adj):
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return len(seen) == len(verts)

    return reach(fwd) and reach(bwd)


# free group on a, b with capital-letter inverses; subgroup generated by a

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


def free_reduce(word) -> str:
    out: list[str] = []
    for sym in word:
        if out and out[-1] == _INV[sym]:
            out.pop()
        else:
            out.append(sym)
    return "".join(out)


def coset_rep(word) -> str:
    """Canonical representative of <a> * word: freely reduce, then drop the
    maximal leading run of a/A letters."""
    return free_reduce(word).lstrip("aA")


def random_det_scc_graph(rng: random.Random, max_states=8, max_sigma=3):
    """Random deterministic strongly connected graph (every vertex keeps at
    least one out-edge by construction of strong connectivity)."""
    while True:
        n = rng.randint(1, max_states)
        sigma = rng.randint(1, max_sigma)
        alphabet = ("a", "b", "c")[:sigma]
        edges = []
        for v in range(n):
            for a in alphabet:
                if rng.random() < 0.8:
                    edges.append((v, a, rng.randrange(n)))
        if not edges:
            continue
        g = es.explicit_graph(alphabet, edges, roots=[0])
        if len(g.vertex_list) == n and strongly_connected(g):
            return g


def random_word_on_graph(rng: random.Random, g, max_len=3):
    """Label word of a random walk from a random vertex (None on dead ends)."""
    v = rng.choice(list(g.vertex_list))
    word = []
    for _ in range(rng.randint(1, max_len)):
        edges = g.out_edges(v)
        if not edges:
            return None
        e = rng.choice(list(edges))
        word.append(e.label)
        v = e.target
    return tuple(word)


def random_nfa(rng: random.Random, max_states=5, max_sigma=2):
    n = rng.randint(1, max_states)
    sigma = rng.randint(1, max_sigma)
    alphabet = ("a", "b")[:sigma]
    edges = []
    for v in range(n):
        for a in alphabet:
            for t in range(n):
                if rng.random() < 0.35:
                    edges.append((v, a, t))
    return es.explicit_graph(alphabet, edges, roots=[0], vertices=list(range(n)))


def nearest_denseness_witnesses(g, words, xs, D) -> dict:
    """Reference denseness search, one radius-D ball per start vertex.

    For each x in ``xs``: (y, word, distance) for the nearest vertex y within
    forward distance D from which some word labels a path (the first in
    ``vertex_key`` order among the nearest), with the first such word; None
    when no vertex within D reads a word.  Readability is decided by
    following the set of vertices a word prefix can reach.
    """

    def readable(y, word):
        current = {y}
        for sym in word:
            current = {e.target for v in current for e in g.out_edges(v) if e.label == sym}
        return bool(current)

    result = {}
    for x in xs:
        dist = {x: 0}
        layer = [x]
        for d in range(1, D + 1):
            nxt = []
            for v in layer:
                for e in g.out_edges(v):
                    if e.target not in dist:
                        dist[e.target] = d
                        nxt.append(e.target)
            layer = nxt
        result[x] = None
        for y in sorted(dist, key=lambda v: (dist[v], es.vertex_key(v))):
            word = next((wd for wd in words if readable(y, wd)), None)
            if word is not None:
                result[x] = (y, word, dist[y])
                break
    return result


def with_dangling_tail(rng: random.Random, g):
    """g (vertices 0..n-1) plus a randomly labelled path of new vertices
    hanging off one of its vertices and ending either in a sink, from which
    no word can be read, or back in g.  The result may be nondeterministic."""
    n = len(g.vertex_list)
    edges = [tuple(e) for v in g.vertex_list for e in g.out_edges(v)]
    path = [rng.randrange(n)] + list(range(n, n + rng.randint(1, 4)))
    if rng.random() < 0.5:
        path.append(rng.randrange(n))
    edges += [(s, rng.choice(g.alphabet), t) for s, t in zip(path, path[1:])]
    return es.explicit_graph(g.alphabet, edges, roots=[0])
