import json
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entroscope as es
from entroscope.graphs import Edge

from oracles import (
    bfs, connectedness_per_edge, expand_only, iter_paths, lazy_reach, random_det_scc_graph,
    random_inverse_closed_graph, random_nfa, reference_window, shared_pairs, with_dangling_tail,
)


@pytest.fixture
def expansions(monkeypatch):
    """Every vertex ``LabelledGraph.expansions`` expands, in order: a
    layer's vertices, or ``out_edges``'s one, on both the action path of a
    complete graph (which calls no ``expand``) and the general path."""
    calls = []
    expand = es.LabelledGraph.expansions

    def counted(g, vertices):
        calls.extend(vertices)
        return expand(g, vertices)

    monkeypatch.setattr(es.LabelledGraph, "expansions", counted)
    return calls


def forward_distance(g, x, y, cap):
    """d(x, y) read off the search from x to depth cap, None beyond it."""
    reach = es.graphs.search(g, x, cap)
    return dict(zip(reach.vertices, reach.distance.tolist())).get(y)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The start of every ``graphs.layered_search`` that ``graphs.search``
    runs on a finite graph from here on."""
    calls = []
    kernel = es.graphs.layered_search
    monkeypatch.setattr(es.graphs, "layered_search",
                        lambda *a, **k: calls.append(a[3]) or kernel(*a, **k))
    return calls


def one_way_ray():
    return es.LabelledGraph(
        alphabet=["f"],
        expand=lambda n: [Edge(n, "f", n + 1)],
        roots=[0],
    )


class TestForwardBall:
    def test_line_radius_two(self, line_z):
        w = es.forward_ball(line_z, 0, 2)
        assert w.vertices == frozenset({-2, -1, 0, 1, 2})
        assert list(w.distances) == [0, -1, 1, -2, 2]  # discovery order: l before r

    def test_full_shift_single_vertex(self, b2):
        w = es.forward_ball(b2, "v", 5)
        assert len(w.vertices) == 1
        assert len(w.edges) == 2

    def test_grid_taxicab(self, grid_z2):
        w = es.forward_ball(grid_z2, (0, 0), 1)
        assert len(w.vertices) == 5

    def test_budget(self, grid_z2):
        grid_z2.budget = 100
        with pytest.raises(es.ExpansionBudgetExceeded):
            es.forward_ball(grid_z2, (0, 0), 40)

    def test_boundary_edges_flagged(self, line_z):
        w = es.forward_ball(line_z, 0, 2)
        outside = {e.target for e in w.boundary}
        assert outside == {-3, 3}
        assert all(e.target in w.vertices for e in w.edges)

    @given(r=st.integers(min_value=0, max_value=6))
    def test_ball_monotone(self, r):
        g = es.schreier_graph(es.builtin_family("line_Z"))
        small = es.forward_ball(g, 0, r)
        big = es.forward_ball(g, 0, r + 1)
        assert small.vertices <= big.vertices


class TestWindowSearch:
    """Windows are read off the memoized ``graphs.search`` one layer deeper
    than their radius; ``oracles.reference_window`` is the ball by its
    definition."""

    def test_matches_the_reference_ball(self):
        rng = random.Random(11)
        cases = [(es.schreier_graph(es.builtin_family(name)), r)
                 for name in ("line_Z", "grid_Z2", "free2_mod_cyclic") for r in range(5)]
        for i in range(30):
            g = random_det_scc_graph(rng)
            if i % 2:
                g = with_dangling_tail(rng, g)
            cases += [(g, r) for r in (0, 1, 2, 3, 4, None)]
        for g, r in cases:
            x = g.roots[0]
            w = es.forward_ball(g, x, r)
            distances, inside, boundary, A = reference_window(g, x, r)
            assert w.vertices == frozenset(distances) and w.distances == distances
            assert list(w.distances) == list(distances)  # bfs's discovery order
            assert sorted(w.edges) == sorted(inside) and sorted(w.boundary) == sorted(boundary)
            assert w.center == x and w.radius == (max(distances.values()) if r is None else r)
            assert (w.adjacency().toarray() == A).all()

    def test_unweighted_matrix_is_built_once(self, golden_mean, monkeypatch):
        calls = []
        adjacency = es.linalg.adjacency
        monkeypatch.setattr(es.linalg, "adjacency",
                            lambda *args: calls.append(args) or adjacency(*args))
        w = es.full_window(golden_mean)
        A = w.adjacency()
        assert w.adjacency() is A and len(calls) == 1
        assert not A.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            A.data *= 2
        # a weighted matrix is the caller's own, built on each call
        ones = np.ones(len(w.source))
        weighted = w.adjacency(ones)
        assert weighted is not A and w.adjacency(ones) is not weighted and len(calls) == 3
        weighted.data *= 2
        assert (A.toarray() == reference_window(golden_mean, "v1", None)[3]).all()

    def test_second_call_searches_nothing(self, expansions):
        g = es.schreier_graph(es.builtin_family("grid_Z2"))
        first = es.forward_ball(g, (0, 0), 3)
        assert len(expansions) == 25  # the ball's vertices, each once
        assert es.forward_ball(g, (0, 0), 3) == first and len(expansions) == 25

    def test_complete_search_is_the_whole_search(self, kernel_calls):
        # depth 30 on at most 8 vertices runs out of vertices first; a search
        # that stops at its depth on an infinite graph answers only itself
        rng = random.Random(3)
        for g in [random_det_scc_graph(rng) for _ in range(10)]:
            x = g.roots[0]
            fresh = es.graphs.search(g, x)
            g.reaches.clear()
            es.graphs.search(g, x, 30)
            assert len(kernel_calls) == 2  # the patch takes
            kernel_calls.clear()
            reused = es.graphs.search(g, x)
            assert kernel_calls == []
            assert reused.vertices == fresh.vertices
            for column in ("distance", "vertex", "source", "label", "target", "base"):
                assert np.array_equal(getattr(reused, column), getattr(fresh, column))
        for name in ("line_Z", "grid_Z2"):
            g = es.schreier_graph(es.builtin_family(name))
            es.graphs.search(g, g.roots[0], 6)
            assert list(g.reaches) == [(g.roots[0], 6, None, es.graphs.DEFAULT_BUDGET)]

    def test_full_window_reuses_the_census_search(self, kernel_calls, golden_mean):
        es.count_words(golden_mean, "v1", "v1", 10)  # eccentricity 1
        w = es.full_window(golden_mean)
        assert len(kernel_calls) == 1
        assert w.vertices == frozenset(golden_mean.vertex_list) and len(w.edges) == 3

    def test_negative_depth_is_refused(self, line_z, b2):
        with pytest.raises(ValueError):
            es.graphs.search(line_z, 0, -1)
        with pytest.raises(ValueError):
            es.census.path_counts(b2, "v", "v", -1)

    @pytest.mark.parametrize("r", range(5))
    def test_budget_counts_the_boundary_targets(self, line_z, r):
        # the ball holds 2r + 1 vertices, its search to r + 1 finds 2r + 3
        line_z.budget = 2 * r + 2
        with pytest.raises(es.ExpansionBudgetExceeded):
            es.forward_ball(line_z, 0, r)
        line_z.budget = 2 * r + 3
        assert len(es.forward_ball(line_z, 0, r).vertices) == 2 * r + 1


class TestArraySearch:
    """On a finite graph ``graphs.search`` runs ``layered_search`` over the
    graph's arrays; the same edges behind an ``expand``-only graph
    (``oracles.expand_only``) are searched by its ``Growth``, and the two
    ``Reach``es agree column for column."""

    COLUMNS = ("distance", "vertex", "source", "label", "target", "base")

    @staticmethod
    def cases(rng, count=40):
        # deterministic SCCs, dangling tails, nondeterministic graphs, and
        # unreachable parts (vertices listed but not reached from the start);
        # first an edge naming a listed id by an equal one (1.0 for 1), which
        # both searches key by the listed id
        yield es.explicit_graph("a", [(0, "a", 1.0), (1, "a", 0)], roots=[0], vertices=[0, 1])
        for i in range(count):
            g = random_det_scc_graph(rng)
            yield with_dangling_tail(rng, g) if i % 2 else g
            yield random_nfa(rng)
            yield random_inverse_closed_graph(rng, keep_reverse=0.5)

    @staticmethod
    def outcome(g, x, N):
        try:
            return es.graphs.search(g, x, N)
        except es.ExpansionBudgetExceeded as exc:
            return str(exc)

    def test_matches_the_bfs_search(self, kernel_calls):
        rng = random.Random(16)
        for g in self.cases(rng):
            lazy = expand_only(g)
            for x in dict.fromkeys([g.roots[0], rng.choice(g.vertex_list)]):
                for N in (0, 1, 2, 5, None):
                    kernel_calls.clear()
                    g.reaches.clear()  # a shallower search may hold the whole one
                    got, want = es.graphs.search(g, x, N), es.graphs.search(lazy, x, N)
                    assert kernel_calls == [g.arrays.index[x]]
                    assert got.vertices == want.vertices
                    assert list(map(type, got.vertices)) == list(map(type, want.vertices))
                    assert got.state is None and want.state is None
                    for column in self.COLUMNS:
                        assert np.array_equal(getattr(got, column), getattr(want, column))

    def test_budget_overflow_matches_the_bfs_search(self):
        rng = random.Random(17)
        raised = 0
        for g in self.cases(rng, 20):
            x = g.roots[0]
            for budget in range(len(g.vertex_list) + 1):
                for N in (2, None):
                    lazy = expand_only(g)
                    g.budget = lazy.budget = budget
                    got, want = self.outcome(g, x, N), self.outcome(lazy, x, N)
                    if isinstance(want, str):
                        raised += 1
                        assert got == want
                    else:
                        assert got.vertices == want.vertices
                        for column in self.COLUMNS:
                            assert np.array_equal(getattr(got, column), getattr(want, column))
        assert raised > 100


    def test_a_finite_graph_is_its_arrays(self, golden_mean):
        # the vertex list is the arrays' own; a graph built without arrays is
        # lazy, and no option makes a "finite" graph that has none
        assert golden_mean.is_finite and golden_mean.vertex_list is golden_mean.arrays.vertices
        assert golden_mean.vertex_list == ("v1", "v2")
        lazy = expand_only(golden_mean)
        assert not lazy.is_finite and lazy.vertex_list is None
        with pytest.raises(TypeError):
            es.LabelledGraph("ab", golden_mean.out_edges, roots=["v1"], vertex_list=["v1"])

    def test_a_graph_has_one_source(self, golden_mean):
        arrays, act, expand = golden_mean.arrays, (lambda v, a: v), golden_mean.out_edges
        for sources in ({}, {"arrays": arrays, "act": act}, {"arrays": arrays, "expand": expand},
                        {"act": act, "expand": expand},
                        {"arrays": arrays, "act": act, "expand": expand}):
            with pytest.raises(es.GraphFormatError, match="exactly one of arrays, act and expand"):
                es.LabelledGraph("ab", sources.pop("expand", None), ["v1"], **sources)
        assert es.LabelledGraph("ab", None, ["v1"], act=act).complete
        assert not expand_only(golden_mean).complete and not golden_mean.complete

    def test_start_vertex_counts_against_the_budget(self, b2):
        # a budget below 1 leaves no room for the start vertex: on the lazy
        # path (constructor keyword), the array path (attribute) and the
        # product search; a budget of 1 holds it
        lazy = expand_only(b2, budget=0)
        b2.budget = 0
        for g in (lazy, b2):
            with pytest.raises(es.ExpansionBudgetExceeded, match="from vertex 'v' found more"):
                es.graphs.search(g, "v", 0)
            g.budget = 1
            assert es.graphs.search(g, "v", 0).vertices == ["v"]
        with pytest.raises(es.ExpansionBudgetExceeded, match="from vertex 'v' found more"):
            es.graphs.layered_search(np.array([0, 2]), np.array([0, 1]), np.array([0, 0]),
                                     0, 0, 0, "v")
        F = es.ForbiddenSet.from_strings(["aa"], b2.alphabet)
        assert es.count_words(b2, "v", "v", 0, forbidden=F) == (1,)


class TestArrayExpansions:
    """A finite graph's ``expansions`` slice its arrays; the same document's
    edge triples, in document order, behind an ``expand``-only graph take
    the general path, which checks and sorts them.  Both read the same
    out-edges, grow the same search and build the same ``out_edges``."""

    FIELDS = ("vertices", "ends", "edge_ends", "degree", "label", "target")

    def test_arrays_are_the_document(self, monkeypatch):
        documents = []
        explicit = es.explicit_graph

        def recorded(alphabet, edges, *args, **kwargs):
            documents.append(list(edges))
            return explicit(alphabet, documents[-1], *args, **kwargs)

        monkeypatch.setattr(es, "explicit_graph", recorded)
        rng = random.Random(33)
        tied = 0
        for i in range(60):
            # deterministic SCCs, dangling tails, and NFAs with tied labels on
            # up to 12 vertices, whose canonical forms sort 10 and 11 before 2
            if i % 3 == 0:
                g = random_det_scc_graph(rng)
            elif i % 3 == 1:
                g = with_dangling_tail(rng, random_det_scc_graph(rng))
            else:
                g = random_nfa(rng, max_states=12)
            edges = documents[-1]
            tied += len(shared_pairs(edges)) > 0
            document = es.LabelledGraph(
                g.alphabet, lambda v, edges=edges: [e for e in edges if e[0] == v], g.roots)
            outside = len(g.vertex_list) + 1  # not a vertex: no out-edge
            vs = rng.sample(g.vertex_list, len(g.vertex_list))
            vs.insert(rng.randrange(len(vs) + 1), outside)
            assert g.expansions(vs) == document.expansions(vs)
            assert g.expansions([outside]) == ([0], [], [])
            for x in (0, rng.choice(g.vertex_list), outside):
                got, want = es.graphs.grown(g, x, 6), es.graphs.grown(document, x, 6)
                assert got[1] == want[1]
                for field in self.FIELDS:
                    assert getattr(got[0], field) == getattr(want[0], field)
            for v in vs:
                assert g.out_edges(v) == document.out_edges(v)
        assert tied > 10


class TestGrowingSearch:
    """A lazy graph's searches are prefixes of one ``graphs.Growth`` per
    start vertex (``g.grown``): a deeper search resumes a shallower one, and
    each layer's expansions are checked in one pass, as ``out_edges`` checks
    one vertex's."""

    COLUMNS = ("distance", "vertex", "source", "label", "target", "base")

    def test_resumed_search_equals_a_fresh_one(self, expansions):
        cases = [("grid_Z2", (0, 0), 20, 23), ("free2_mod_cyclic", "", 5, 7), ("line_Z", 3, 0, 9)]
        for name, x, first, second in cases:
            spec = es.builtin_family(name)
            g, fresh = es.schreier_graph(spec), es.schreier_graph(spec)
            es.graphs.search(g, x, first)
            expansions.clear()
            resumed = es.graphs.search(g, x, second)
            grown = list(expansions)
            want = es.graphs.search(fresh, x, second)
            assert resumed.vertices == want.vertices and list(g.grown) == [x]
            for column in self.COLUMNS:
                assert np.array_equal(getattr(resumed, column), getattr(want, column))
            # the second call expands only the new layers, each vertex once
            assert grown == [v for v, d in zip(want.vertices, want.distance) if first <= d < second]

    def test_resumed_search_converts_only_new_edges(self, monkeypatch):
        # every list-to-array conversion in graphs goes through np.array
        converted = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def array(self, values, *args, **kwargs):
                converted.append(list(values))
                return np.array(values, *args, **kwargs)

        monkeypatch.setattr(es.graphs, "np", Numpy())
        cases = [("grid_Z2", (0, 0), 20, 23, [3044, 1008]), ("free2_mod_cyclic", "", 5, 7, None)]
        for name, x, first, second, sizes in cases:
            spec = es.builtin_family(name)
            g = es.schreier_graph(spec)
            converted.clear()
            es.graphs.search(g, x, first)
            resumed = es.graphs.search(g, x, second)
            shallower = es.graphs.search(g, x, first - 2)  # slices, converts nothing
            # one conversion of each column (degree, label, target) per search, of the
            # entries grown since the last one: each grown edge's label and target once
            s = g.grown[x]
            assert len(converted) == 6
            assert [converted[i] + converted[i + 3] for i in range(3)] == [
                s.degree, s.label, s.target]
            assert sizes is None or [len(c) for c in converted[1::3]] == sizes
            fresh = es.schreier_graph(spec)
            for got, depth in ((resumed, second), (shallower, first - 2)):
                want = es.graphs.search(fresh, x, depth)
                for column in self.COLUMNS:
                    assert np.array_equal(getattr(got, column), getattr(want, column))

    def test_resumed_search_runs_out_of_vertices(self):
        rng = random.Random(22)
        for _ in range(20):
            g = with_dangling_tail(rng, random_det_scc_graph(rng))
            lazy, fresh = (expand_only(g) for _ in range(2))
            es.graphs.search(lazy, 0, 2)
            for N in (3, None, 40):
                got, want = es.graphs.search(lazy, 0, N), es.graphs.search(fresh, 0, N)
                assert got.vertices == want.vertices
                for column in self.COLUMNS:
                    assert np.array_equal(getattr(got, column), getattr(want, column))
            assert lazy.grown[0].complete

    @pytest.mark.parametrize("bad, message", [
        ([(2, "a", 0)], "expand(1) returned edge with source 2"),
        ([(1, "c", 0)], "edge label 'c' not in alphabet"),
        ([(1, "b", 0), (1, "a", 2), (1, "b", 0)], "duplicate edge 1 -b-> 0"),
        ([(1, "a")], "returned (1, 'a'), not a (source, label, target) triple"),
        # labels that read the sorted alphabet, as an in-order layer's do
        ([(1, "a", 0), (2, "b", 0)], "expand(1) returned edge with source 2"),
        ([(1, "a", 0, 9), (1, "b", 0)], "returned (1, 'a', 0, 9), not a (source, label, target)"),
    ])
    def test_layer_checks_match_out_edges(self, bad, message):
        # vertex 1 expands badly, in one layer with vertex 2, which reads the
        # whole alphabet in order
        def expand(v):
            return bad if v == 1 else [(v, "a", 1), (v, "b", 2)] if v == 0 else [
                (v, "a", 0), (v, "b", 0)]

        errors = []
        for run in (lambda g: g.out_edges(1), lambda g: es.graphs.search(g, 0, 2)):
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                run(es.LabelledGraph("ab", expand, roots=[0]))
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_uneven_split_is_sorted_per_vertex(self):
        # the layer's labels a, b, a, b read the sorted alphabet twice, but
        # vertex 1 reads a, b, a and vertex 2 reads b alone
        out = {0: [(0, "a", 1), (0, "b", 2)], 1: [(1, "a", 0), (1, "b", 0), (1, "a", 2)],
               2: [(2, "b", 0)]}
        g = es.LabelledGraph("ab", out.__getitem__, roots=[0])
        r = es.graphs.search(g, 0, 2)
        assert es.graphs.edge_list(r.vertices, g.alphabet, r.source, r.label, r.target) == [
            e for v in r.vertices for e in g.out_edges(v)]
        assert [(e.label, e.target) for e in g.out_edges(1)] == [("a", 0), ("a", 2), ("b", 0)]

    @pytest.mark.parametrize("name", es.schreier.family_names())
    def test_builtin_families_take_the_in_order_path(self, monkeypatch, name):
        # every built-in family lists its letters in sorted order, so no
        # layer needs a sort, nor the general pass, which reads ``_rank``
        def refuse(*args):
            raise AssertionError("a layer left the in-order path")

        monkeypatch.setattr(es.graphs, "edge_sort_key", refuse)
        spec = es.builtin_family(name)
        g, fresh = es.schreier_graph(spec), es.schreier_graph(spec)
        g._rank = None
        got, want = es.graphs.search(g, spec.root, 8), bfs(fresh, spec.root, 8)
        assert got.vertices == list(want) and got.distance.tolist() == list(want.values())


class TestFirstOccurrence:
    """A layer numbers its new vertices in the order their first edges
    come, not in the order of their ids: here vertex 5 comes before 3 and
    both are reached twice, and 4 before 2."""

    EDGES = [(0, "a", 5), (0, "b", 3), (0, "c", 5), (5, "a", 4), (5, "b", 2), (5, "c", 4),
             (3, "a", 2), (3, "b", 6), (3, "c", 1), (4, "a", 0), (4, "b", 1), (2, "a", 1),
             (2, "c", 0), (6, "b", 6), (1, "a", 3)]

    @staticmethod
    def out_of_order(keys, layer_of, sources, targets):
        """Whether some layer's keys are out of key order, and some key is
        the target of two of the edges into its layer (numbers index
        ``keys`` and ``layer_of``)."""
        layers: dict = {}
        for k, d in zip(keys, layer_of):
            layers.setdefault(d, []).append(k)
        into = [t for s, t in zip(sources, targets) if layer_of[t] == layer_of[s] + 1]
        return any(ks != sorted(ks) for ks in layers.values()) and len(set(into)) < len(into)

    def test_finite_search_matches_bfs(self):
        g = es.explicit_graph("abc", self.EDGES, roots=[0])
        assert g.vertex_list == tuple(range(7))
        for N in (1, 2, 3, None):
            g.reaches.clear()
            r = es.graphs.search(g, 0, N)
            want = bfs(g, 0, N)
            assert r.vertices == list(want) and r.distance.tolist() == list(want.values())
            assert r.vertex.tolist() == list(range(len(want)))
            assert es.graphs.edge_list(r.vertices, g.alphabet, r.source, r.label, r.target) == [
                e for v, d in want.items() if N is None or d < N for e in g.out_edges(v)]
            assert r.base.tolist() == list(range(len(r.source)))
        assert r.vertices == [0, 5, 3, 4, 2, 6, 1]
        assert self.out_of_order(r.vertices, r.distance.tolist(), r.source, r.target)

    def test_product_search_matches_lazy_reach(self):
        g = es.explicit_graph("abc", self.EDGES, roots=[0])
        seen = 0
        for words in (["ca"], ["bb", "ac"], ["aa", "cc"]):
            F = es.ForbiddenSet.from_strings(words, g.alphabet)
            for N in (1, 2, 3, 6):
                g.reaches.clear()
                reach, _ = es.census._reach(g, 0, 0, N, F)
                states, edges = lazy_reach(g, 0, N, F)
                assert [reach.state_at(i) for i in range(len(reach.vertex))] == states
                assert [(reach.state_at(s), g.alphabet[a], reach.state_at(t))
                        for s, a, t in zip(reach.source, reach.label, reach.target)] == [
                    tuple(e) for e in edges]
                plain = es.graphs.search(g, 0, N)
                assert [(plain.vertices[plain.source[b]], g.alphabet[plain.label[b]],
                         plain.vertices[plain.target[b]]) for b in reach.base] == [
                    (e.source[0], e.label, e.target[0]) for e in edges]
                keys = list(zip(reach.vertex.tolist(), reach.state.tolist()))
                depth = {0: 0}  # a state's layer: one past its first edge's source's
                for u, t in zip(reach.source.tolist(), reach.target.tolist()):
                    depth.setdefault(t, depth[u] + 1)
                seen += self.out_of_order(keys, list(depth.values()), reach.source, reach.target)
        assert seen


class TestForwardDistance:
    def test_line(self, line_z):
        assert forward_distance(line_z, 0, 3, 10) == 3

    def test_self_distance_zero(self, golden_mean):
        assert forward_distance(golden_mean, "v2", "v2", 0) == 0

    def test_not_found_under_cap(self, line_z):
        assert forward_distance(line_z, 0, 5, 3) is None

    def test_triangle_inequality(self, golden_mean, line_z):
        for g, triples in [
            (golden_mean, [("v1", "v2", "v1")]),
            (line_z, [(0, 2, -1), (-2, 1, 3)]),
        ]:
            for x, y, z in triples:
                dxy = forward_distance(g, x, y, 20)
                dyz = forward_distance(g, y, z, 20)
                dxz = forward_distance(g, x, z, 20)
                assert dxz <= dxy + dyz


class TestDeterminism:
    def test_full_shift_ok(self, b2):
        w = es.forward_ball(b2, "v", 3)
        assert es.check_deterministic(w.source, w.label) == []

    def test_collision_reported(self):
        g = es.explicit_graph(
            ["a"], [("x", "a", "y"), ("x", "a", "z")], roots=["x"]
        )
        w = es.forward_ball(g, "x", 1)
        assert es.check_deterministic(w.source, w.label) == [(0, 0)]  # ("x", "a")

    def test_line_ok(self, line_z):
        w = es.forward_ball(line_z, 0, 3)
        assert es.check_deterministic(w.source, w.label) == []

    def test_fully_deterministic(self, b2, line_z):
        for g, c in [(b2, "v"), (line_z, 0)]:
            w = es.forward_ball(g, c, 3)
            assert es.check_fully_deterministic(w) == []

    def test_missing_label_listed(self):
        g = es.explicit_graph(["a", "b"], [("v", "a", "v")], roots=["v"])
        w = es.forward_ball(g, "v", 2)
        assert es.check_fully_deterministic(w) == [("v", ("b",))]

    def test_missing_labels_match_the_out_edges_pass(self, grid_z2):
        rng = random.Random(6)
        graphs = [random_nfa(rng) for _ in range(20)]
        graphs += [with_dangling_tail(rng, random_det_scc_graph(rng)) for _ in range(20)]
        missing = 0
        for g in graphs + [grid_z2]:
            for r in (0, 1, 2, None if g.is_finite else 3):
                w = es.forward_ball(g, g.roots[0], r)
                want = []
                for v in w.distances:
                    present = {e.label for e in g.out_edges(v)}
                    gap = tuple(a for a in g.alphabet if a not in present)
                    want += [(v, gap)] if gap else []
                assert es.check_fully_deterministic(w) == want
                missing += bool(want)
        assert missing >= 20

    def test_index_pairs_match_the_reference(self):
        rng = random.Random(5)
        collided = 0
        for _ in range(40):
            g = random_nfa(rng)
            for r in (0, 1, 2, None):
                w = es.forward_ball(g, 0, r)
                vertices = list(w.distances)
                pairs = [(vertices[s], g.alphabet[a])
                         for s, a in es.check_deterministic(w.source, w.label)]
                assert pairs == shared_pairs(w.edges + w.boundary)
                collided += bool(pairs)
        assert collided >= 20

    def test_determinism_transfer(self, golden_mean):
        # a deterministic window has at most one path per label word
        w = es.forward_ball(golden_mean, "v1", 3)
        assert es.check_deterministic(w.source, w.label) == []
        for v in w.vertices:
            for n in range(4):
                words = [word for word, _ in iter_paths(golden_mean, v, n)]
                assert len(words) == len(set(words))


class TestUniformConnectedness:
    def test_line_k1(self, line_z):
        w = es.forward_ball(line_z, 0, 3)
        assert es.graphs.uniform_connectedness_constant(line_z, w) == 1
        assert connectedness_per_edge(line_z, w, len(w.vertices)) == 1

    def test_full_shift_loops(self, b2):
        w = es.forward_ball(b2, "v", 2)
        # loops return via the empty path, so nothing is searched
        assert es.graphs.uniform_connectedness_constant(b2, w) == 1
        assert b2.grown == {}

    def test_one_way_ray_fails_everywhere(self):
        g = one_way_ray()
        w = es.forward_ball(g, 0, 4)
        assert es.graphs.uniform_connectedness_constant(g, w) is None
        assert all(bfs(g, e.target, 5).get(e.source) is None for e in w.edges)

    def test_one_search_per_target_matches_the_per_edge_definition(self, grid_z2, free2):
        rng = random.Random(7)
        cases = [(one_way_ray(), es.forward_ball(one_way_ray(), 0, 3))]
        cases += [(g, es.forward_ball(g, g.roots[0], r)) for g, r in [(grid_z2, 3), (free2, 2)]]
        for _ in range(20):
            # reducible and nondeterministic graphs too; a sink has no return path
            # inverse-closed graphs return every edge in one step, and lose
            # that when half their reverse edges are dropped
            for g in (random_det_scc_graph(rng), random_nfa(rng),
                      with_dangling_tail(rng, random_det_scc_graph(rng)),
                      random_inverse_closed_graph(rng),
                      random_inverse_closed_graph(rng, keep_reverse=0.5)):
                cases.append((g, es.full_window(g)))
        results = set()
        for g, w in cases:
            K = es.graphs.uniform_connectedness_constant(g, w)
            assert K == connectedness_per_edge(g, w, len(w.vertices))
            results.add(K)
        assert None in results and {1, 2, 3, 4} <= results

    def test_reverse_edges_are_found_as_isin_finds_them(self, monkeypatch):
        # loops, parallel edges (one pair of vertices, two labels) and one-way edges;
        # each target with an edge that is neither a loop nor returned in one step
        # is searched, in edge order, until one has no return path
        rng = random.Random(24)
        cases = []
        for _ in range(60):
            n = rng.randint(1, 9)
            edges = {(rng.randrange(n), rng.choice("abc"), rng.randrange(n))
                     for _ in range(rng.randint(0, 3 * n))}
            g = es.explicit_graph("abc", sorted(edges), roots=[0], vertices=range(n))
            cases += [(g, es.full_window(g)), (g, es.forward_ball(g, 0, 1))]
        # windows with no inside edge: a vertex with no edges, a radius 0 ball without a loop
        lone, ray = (es.explicit_graph("a", edges, roots=[0]) for edges in ([], [(0, "a", 1)]))
        cases += [(lone, es.full_window(lone)), (ray, es.forward_ball(ray, 0, 0))]
        assert cases[-1][1].inside == 0 and len(cases[-1][1].source) == 1
        searched = []
        grown = es.graphs.grown
        monkeypatch.setattr(es.graphs, "grown",
                            lambda g, x, N: searched.append(x) or grown(g, x, N))
        results = set()
        for g, w in cases:
            k, n, vertices = w.inside, len(w.distances), list(w.distances)
            s, t = w.source[:k], w.target[:k]
            near = (s == t) | np.isin(s * n + t, t * n + s)
            expected = [vertices[i] for i in dict.fromkeys(t[~near].tolist())]
            searched.clear()
            K = es.graphs.uniform_connectedness_constant(g, w)
            assert K == connectedness_per_edge(g, w, n)
            order = list(dict.fromkeys(searched))
            assert order == (expected if K is not None else expected[:len(order)])
            results.add(K)
        assert results == {None, 1, 2, 3, 4}
        for g, w in cases[-2:]:
            assert es.graphs.uniform_connectedness_constant(g, w) == 1

    def test_inverse_closed_windows_search_nothing(self, expansions, grid_z2, free2):
        rng = random.Random(9)
        graphs = [random_inverse_closed_graph(rng) for _ in range(20)]
        cases = [(g, es.full_window(g)) for g in graphs]
        cases += [(g, es.forward_ball(g, g.roots[0], 3)) for g in (grid_z2, free2)]
        # the patch takes: the lazy balls expanded their vertices, each once
        assert len(expansions) == sum(len(w.vertices) for _, w in cases[20:])
        expansions.clear()
        for g, w in cases:
            assert es.graphs.uniform_connectedness_constant(g, w) == 1
        assert expansions == [] and all(g.grown == {} for g, _ in cases[:20])


class TestExpansionPurity:
    def test_replay(self, free2):
        act = es.builtin_family("free2_mod_cyclic").act
        w = es.forward_ball(free2, "", 3)
        for v in w.vertices:
            assert free2.out_edges(v) == tuple(
                sorted((Edge(v, a, act(v, a)) for a in free2.alphabet),
                       key=es.graphs.edge_sort_key)
            )

    def test_bad_source_rejected(self):
        g = es.LabelledGraph(["a"], lambda v: [Edge("other", "a", v)], roots=["x"])
        with pytest.raises(es.GraphFormatError):
            g.out_edges("x")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(es.GraphFormatError):
            es.explicit_graph(["a"], [("x", "a", "y"), ("x", "a", "y")], roots=["x"])

    @pytest.mark.parametrize("labels", ["abcd", "abcc", "aaab", "aaaa"])
    def test_shuffled_expansion_sorts_by_edge_key(self, labels):
        # targets whose canonical forms order differently from their values,
        # and two (10 and "10") that tie on it
        rng = random.Random(labels)
        targets = [9, 10, (1, 2), "x", (10,), 100, -3, "10"]
        for _ in range(25):
            edges = [Edge("v", a, t) for a, t in zip(labels, rng.sample(targets, len(labels)))]
            shuffled = rng.sample(edges, len(edges))
            g = es.LabelledGraph("abcd", lambda v: shuffled if v == "v" else [], roots=["v"])
            assert g.out_edges("v") == tuple(sorted(shuffled, key=es.graphs.edge_sort_key))
            # a search's edges come in the same order
            r = es.graphs.search(g, "v", 1)
            assert [(g.alphabet[a], r.vertices[t]) for a, t in zip(r.label, r.target)] == [
                (e.label, e.target) for e in g.out_edges("v")]

    @pytest.mark.parametrize("extra", [[], [Edge("v", "a", 2)]])
    def test_duplicate_from_custom_expand_rejected(self, extra):
        edges = [Edge("v", "b", 1), Edge("v", "a", 3), Edge("v", "b", 1)] + extra
        g = es.LabelledGraph("ab", lambda v: edges, roots=["v"])
        with pytest.raises(es.GraphFormatError, match="duplicate edge"):
            g.out_edges("v")


class TestJsonInterface:
    DOC = {
        "alphabet": ["a", "b"],
        "vertices": ["v"],
        "edges": [["v", "a", "v"], ["v", "b", "v"]],
        "roots": ["v"],
        "forbidden": ["aa"],
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(self.DOC))
        doc = es.load_graph_json(path)
        assert doc.forbidden == ("aa",)
        assert doc.graph.vertex_list == ("v",)
        assert len(doc.graph.out_edges("v")) == 2

    def test_document_loads_as_its_triples(self):
        # ids whose canonical forms order differently from their values, two
        # pairs that tie on it (10 and "10", 9 and "9"), and a shuffled alphabet
        rng = random.Random(16)
        pool = [9, 10, "10", "x", -3, 100, "9", "b", (1, 2)]
        for i in range(60):
            g = random_nfa(rng) if i % 2 else random_inverse_closed_graph(rng)
            ids = dict(zip(g.vertex_list, rng.sample(pool[:-1], len(g.vertex_list))))
            triples = [[ids[e.source], e.label, ids[e.target]]
                       for v in g.vertex_list for e in g.out_edges(v)]
            rng.shuffle(triples)
            alphabet, vertices = rng.sample(g.alphabet, len(g.alphabet)), list(ids.values())
            doc = {"alphabet": alphabet, "vertices": vertices, "edges": triples,
                   "roots": vertices[:1]}
            loaded = es.parse_graph_document(doc).graph
            built = es.explicit_graph(alphabet, map(tuple, triples), vertices[:1],
                                      vertices=vertices)
            for v in vertices:
                want = sorted((Edge(*t) for t in triples if t[0] == v),
                              key=es.graphs.edge_sort_key)
                assert loaded.out_edges(v) == built.out_edges(v) == tuple(want)
            arrays, edges = loaded.arrays, [e for v in vertices for e in loaded.out_edges(v)]
            assert arrays.label.tolist() == [alphabet.index(e.label) for e in edges]
            assert arrays.target.tolist() == [vertices.index(e.target) for e in edges]
        # without a vertex list the ids come from the edges and roots
        edges = [(pool[-1], "a", 10), (10, "a", "10"), ("10", "b", 9)]
        g = es.explicit_graph("ab", edges, roots=["x"])
        assert g.vertex_list == tuple(sorted([(1, 2), 10, "10", 9, "x"], key=es.vertex_key))
        assert g.out_edges("x") == () and g.out_edges(10) == (Edge(10, "a", "10"),)

    def test_unknown_vertex_rejected(self):
        bad = dict(self.DOC, edges=[["v", "a", "w"]])
        with pytest.raises(es.GraphFormatError):
            es.parse_graph_document(bad)

    def test_unknown_label_rejected(self):
        bad = dict(self.DOC, edges=[["v", "z", "v"]])
        with pytest.raises(es.GraphFormatError):
            es.parse_graph_document(bad)

    def test_missing_field_rejected(self):
        bad = {k: v for k, v in self.DOC.items() if k != "roots"}
        with pytest.raises(es.GraphFormatError):
            es.parse_graph_document(bad)

    @pytest.mark.parametrize("edges", [[5], ["vav"], [["v", "a"]], [["v", "a", "v", "b"]]])
    def test_edge_entry_not_a_triple_rejected(self, edges):
        with pytest.raises(es.GraphFormatError, match="triple"):
            es.parse_graph_document(dict(self.DOC, edges=edges))

    # the messages name the first bad entry or label as its repr
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, "a", 1], [0, "a"]], "entry [0, 'a'] is not a [source, label, target] triple"),
            ([[0, "a", 1], (0, "a", 1, 2)],
             "entry (0, 'a', 1, 2) is not a [source, label, target] triple"),
            ([[0, "a", 1], 7], "entry 7 is not a [source, label, target] triple"),
            ([[0, "a", 1], "abc"], "entry 'abc' is not a [source, label, target] triple"),
            ([[0, "a", 1], "xyz", [0, "a"], 5],
             "entry 'xyz' is not a [source, label, target] triple"),
            ([[0, "a", 1], [0, ["a"], 1]], "label ['a'] not in alphabet"),
            ([[0, "a", 1], [1, "c", 0]], "label 'c' not in alphabet"),
            ([[0, None, 1]], "label None not in alphabet"),
            ([[0, "a", 1], [0, {"b": 1}, 1], [1, "z", 0]], "label {'b': 1} not in alphabet"),
            ([[0, "a", 1], [1, "z", 0], [0, ["b"], 1]], "label 'z' not in alphabet"),
        ],
    )
    def test_bad_entry_messages(self, edges, message):
        with pytest.raises(es.GraphFormatError) as exc:
            es.explicit_graph(["a", "b"], edges, roots=[0])
        assert str(exc.value) == '"edges" ' + message

    def test_edge_tuples_are_triples(self):
        g = es.explicit_graph("ab", [Edge(0, "a", 1), [1, "b", 0]], roots=[0])
        assert g.out_edges(0) == (Edge(0, "a", 1),) and g.out_edges(1) == (Edge(1, "b", 0),)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vertices", ["v", ["v"]]),
            ("roots", [{"id": "v"}]),
            ("edges", [[["v"], "a", "v"]]),
            ("edges", [["v", "a", ["v"]]]),
        ],
    )
    def test_unhashable_vertex_id_rejected(self, field, value):
        with pytest.raises(es.GraphFormatError, match="vertex id"):
            es.parse_graph_document(dict(self.DOC, **{field: value}))

    def test_other_unhashable_id_keeps_its_type_error(self):
        # only JSON's unhashable values (lists, objects) get a document message
        with pytest.raises(TypeError, match="unhashable"):
            es.explicit_graph(["a"], [({"v"}, "a", "w")], roots=["w"])

    @pytest.mark.parametrize("forbidden", [7, "ab", ["aa", 3], {"aa": 1}])
    def test_forbidden_not_a_list_of_strings_rejected(self, forbidden):
        with pytest.raises(es.GraphFormatError, match='"forbidden"'):
            es.parse_graph_document(dict(self.DOC, forbidden=forbidden))

    @pytest.mark.parametrize("alphabet", ["ab", [["a"], "b"], ["a", 1]])
    def test_alphabet_not_a_list_of_strings_rejected(self, alphabet):
        with pytest.raises(es.GraphFormatError, match='"alphabet"'):
            es.parse_graph_document(dict(self.DOC, alphabet=alphabet))
