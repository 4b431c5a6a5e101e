import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import entroscope as es
from entroscope.graphs import Edge

from oracles import (
    connectedness_per_edge, iter_paths, random_det_scc_graph, random_nfa, with_dangling_tail,
)


def one_way_ray():
    return es.LabelledGraph(
        alphabet=["f"],
        expand=lambda n: [Edge(n, "f", n + 1)],
        roots=[0],
        name="ray",
    )


class TestForwardBall:
    def test_line_radius_two(self, line_z):
        w = es.forward_ball(line_z, 0, 2)
        assert w.vertices == frozenset({-2, -1, 0, 1, 2})
        assert w.sorted_vertices() == sorted(w.vertices, key=lambda v: (abs(v), es.vertex_key(v)))

    def test_full_shift_single_vertex(self, b2):
        w = es.forward_ball(b2, "v", 5)
        assert len(w.vertices) == 1
        assert len(w.edges) == 2

    def test_grid_taxicab(self, grid_z2):
        w = es.forward_ball(grid_z2, (0, 0), 1)
        assert len(w.vertices) == 5

    def test_budget(self, grid_z2):
        with pytest.raises(es.ExpansionBudgetExceeded):
            es.forward_ball(grid_z2, (0, 0), 40, budget=100)

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


class TestForwardDistance:
    def test_line(self, line_z):
        assert es.forward_distance(line_z, 0, 3, cap=10) == 3

    def test_self_distance_zero(self, golden_mean):
        assert es.forward_distance(golden_mean, "v2", "v2", cap=0) == 0

    def test_not_found_under_cap(self, line_z):
        assert es.forward_distance(line_z, 0, 5, cap=3) is None

    def test_triangle_inequality(self, golden_mean, line_z):
        for g, triples in [
            (golden_mean, [("v1", "v2", "v1")]),
            (line_z, [(0, 2, -1), (-2, 1, 3)]),
        ]:
            for x, y, z in triples:
                dxy = es.forward_distance(g, x, y, cap=20)
                dyz = es.forward_distance(g, y, z, cap=20)
                dxz = es.forward_distance(g, x, z, cap=20)
                assert dxz <= dxy + dyz


class TestDeterminism:
    def test_full_shift_ok(self, b2):
        w = es.forward_ball(b2, "v", 3)
        assert es.check_deterministic(w.edges + w.boundary) == []

    def test_collision_reported(self):
        g = es.explicit_graph(
            ["a"], [("x", "a", "y"), ("x", "a", "z")], roots=["x"]
        )
        w = es.forward_ball(g, "x", 1)
        assert es.check_deterministic(w.edges + w.boundary) == [("x", "a")]

    def test_line_ok(self, line_z):
        w = es.forward_ball(line_z, 0, 3)
        assert es.check_deterministic(w.edges + w.boundary) == []

    def test_fully_deterministic(self, b2, line_z):
        for g, c in [(b2, "v"), (line_z, 0)]:
            w = es.forward_ball(g, c, 3)
            assert es.check_fully_deterministic(g, w) == []

    def test_missing_label_listed(self):
        g = es.explicit_graph(["a", "b"], [("v", "a", "v")], roots=["v"])
        w = es.forward_ball(g, "v", 2)
        assert es.check_fully_deterministic(g, w) == [("v", ("b",))]

    def test_determinism_transfer(self, golden_mean):
        # a deterministic window has at most one path per label word
        w = es.forward_ball(golden_mean, "v1", 3)
        assert es.check_deterministic(w.edges + w.boundary) == []
        for v in w.vertices:
            for n in range(4):
                words = [word for word, _ in iter_paths(golden_mean, v, n)]
                assert len(words) == len(set(words))


class TestUniformConnectedness:
    def test_line_k1(self, line_z):
        w = es.forward_ball(line_z, 0, 3)
        assert es.graphs.uniform_connectedness_constant(line_z, w, K_max=1) == 1
        assert es.graphs.uniform_connectedness_constant(line_z, w, K_max=0) is None

    def test_full_shift_loops(self, b2):
        w = es.forward_ball(b2, "v", 2)
        # loops return via the empty path, so a cap of 0 suffices
        assert es.graphs.uniform_connectedness_constant(b2, w, K_max=0) == 1

    def test_one_way_ray_fails_everywhere(self):
        g = one_way_ray()
        w = es.forward_ball(g, 0, 4)
        assert es.graphs.uniform_connectedness_constant(g, w, K_max=5) is None
        assert all(es.forward_distance(g, e.target, e.source, 5) is None for e in w.edges)

    def test_one_search_per_target_matches_the_per_edge_definition(self, grid_z2, free2):
        rng = random.Random(7)
        cases = [(one_way_ray(), es.forward_ball(one_way_ray(), 0, 3))]
        cases += [(g, es.forward_ball(g, g.roots[0], r)) for g, r in [(grid_z2, 3), (free2, 2)]]
        for _ in range(20):
            # reducible and nondeterministic graphs too; a sink has no return path
            for g in (random_det_scc_graph(rng), random_nfa(rng),
                      with_dangling_tail(rng, random_det_scc_graph(rng))):
                cases.append((g, es.full_window(g)))
        results = set()
        for g, w in cases:
            for K_max in range(5):
                K = es.graphs.uniform_connectedness_constant(g, w, K_max)
                assert K == connectedness_per_edge(g, w, K_max)
                results.add(K)
        assert None in results and {1, 2, 3, 4} <= results


class TestExpansionPurity:
    def test_replay(self, free2):
        w = es.forward_ball(free2, "", 3)
        for v in w.vertices:
            assert free2.out_edges(v) == tuple(
                sorted(free2.expand(v), key=es.graphs.edge_sort_key)
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
            g = es.LabelledGraph("abcd", lambda v: shuffled, roots=["v"])
            assert g.out_edges("v") == tuple(sorted(shuffled, key=es.graphs.edge_sort_key))

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

    @pytest.mark.parametrize("forbidden", [7, "ab", ["aa", 3], {"aa": 1}])
    def test_forbidden_not_a_list_of_strings_rejected(self, forbidden):
        with pytest.raises(es.GraphFormatError, match='"forbidden"'):
            es.parse_graph_document(dict(self.DOC, forbidden=forbidden))

    @pytest.mark.parametrize("alphabet", ["ab", [["a"], "b"], ["a", 1]])
    def test_alphabet_not_a_list_of_strings_rejected(self, alphabet):
        with pytest.raises(es.GraphFormatError, match='"alphabet"'):
            es.parse_graph_document(dict(self.DOC, alphabet=alphabet))
