import itertools
import math
import re

import numpy as np
import pytest

import entroscope as es
from entroscope.schreier import ActionError, builtin_family, schreier_graph

from oracles import brute_census, coset_rep

INV = {"a": "A", "A": "a", "b": "B", "B": "b", "r": "l", "l": "r",
       "u": "d", "d": "u"}


class TestBuiltinFamilies:
    def test_line_structure(self):
        spec = builtin_family("line_Z")
        g = schreier_graph(spec)
        assert spec.root == 0
        assert {(e.label, e.target) for e in g.out_edges(0)} == {("r", 1), ("l", -1)}
        assert spec.declared.conn_k == 1
        assert spec.declared.rho == 1.0

    def test_grid_structure(self):
        g = schreier_graph(builtin_family("grid_Z2"))
        targets = {(e.label, e.target) for e in g.out_edges((0, 0))}
        assert targets == {("r", (1, 0)), ("l", (-1, 0)), ("u", (0, 1)), ("d", (0, -1))}

    def test_free2_root_loops(self):
        spec = builtin_family("free2_mod_cyclic")
        g = schreier_graph(spec)
        assert spec.root == ""
        edges = {(e.label, e.target) for e in g.out_edges("")}
        assert edges == {("a", ""), ("A", ""), ("b", "b"), ("B", "B")}

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            builtin_family("lamplighter")

    def test_action_error_is_hard(self):
        spec = es.ActionSpec(
            alphabet=("a",), act=lambda v, a: 1 / 0, root="o"
        )
        g = schreier_graph(spec)
        with pytest.raises(ActionError):
            g.out_edges("o")

    def test_action_error_deep_in_a_layer(self):
        # (2, 1) is neither the first nor the last vertex of the grid's third
        # layer; only a search reaches it, and it fails on one letter
        act = builtin_family("grid_Z2").act

        def faulty(v, a):
            if v == (2, 1) and a == "u":
                raise ValueError("no edge up here")
            return act(v, a)

        g = schreier_graph(es.ActionSpec(("d", "l", "r", "u"), faulty, root=(0, 0)))
        es.forward_ball(g, (0, 0), 2)
        layer = g.grown[(0, 0)].vertices[13:25]
        assert (2, 1) in layer[1:-1]
        message = re.escape("action failed on ((2, 1), 'u'): no edge up")
        with pytest.raises(ActionError, match=message) as e:
            es.forward_ball(g, (0, 0), 4)
        assert isinstance(e.value.__cause__, ValueError)

    def test_action_error_names_the_first_letter_in_spec_order(self):
        # 2 is the second vertex of the line's third layer [-2, 2] and fails
        # on both letters; a layer reads l before r, but the error names r,
        # the spec's first letter, on a search and on out_edges alike
        def act(n, a):
            if n == 2:
                raise ValueError(f"no {a} step from 2")
            return n + 1 if a == "r" else n - 1

        spec = es.ActionSpec(("r", "l"), act, root=0)
        g = schreier_graph(spec)
        es.graphs.search(g, 0, 2)
        assert g.grown[0].vertices[3:] == [-2, 2]
        assert es.schreier.ActionError is es.graphs.ActionError
        message = re.escape("action failed on (2, 'r'): no r step from 2")
        for run in (lambda g: es.graphs.search(g, 0, 4), lambda g: g.out_edges(2)):
            with pytest.raises(ActionError, match=message) as e:
                run(g)
            assert isinstance(e.value.__cause__, ValueError)
            assert str(e.value.__cause__) == "no r step from 2"

    @pytest.mark.parametrize("family", ["line_Z", "grid_Z2", "free2_mod_cyclic"])
    def test_fully_deterministic_on_window(self, family):
        g = schreier_graph(builtin_family(family))
        w = es.forward_ball(g, g.roots[0], 3)
        assert es.check_deterministic(w.source, w.label) == []
        assert es.check_fully_deterministic(w) == []
        assert g.complete

    @pytest.mark.parametrize("family", ["line_Z", "grid_Z2", "free2_mod_cyclic"])
    def test_inverse_closure(self, family):
        g = schreier_graph(builtin_family(family))
        spec = builtin_family(family)
        w = es.forward_ball(g, g.roots[0], 4)
        for d in w.vertices:
            for sym in g.alphabet:
                assert spec.act(spec.act(d, sym), INV[sym]) == d


class TestFree2Cosets:
    def test_act_composition_matches_reduced_word_oracle(self):
        spec = builtin_family("free2_mod_cyclic")
        for n in range(6):
            for word in itertools.product("aAbB", repeat=n):
                d = spec.root
                for sym in word:
                    d = spec.act(d, sym)
                assert d == coset_rep(word)

    def test_census_small(self):
        spec = builtin_family("free2_mod_cyclic")
        census = es.count_words(schreier_graph(spec), spec.root, spec.root, 2)
        # oracle: words of length <= 2 reducing into the a-span
        expected = [
            sum(1 for w in itertools.product("aAbB", repeat=n) if coset_rep(w) == "")
            for n in range(3)
        ]
        assert expected == [1, 2, 6]
        assert census == (1, 2, 6)


class TestWordProblemCensus:
    def test_line_plain(self):
        spec = builtin_family("line_Z")
        assert es.count_words(schreier_graph(spec), spec.root, spec.root, 4) == (1, 0, 2, 0, 6)

    def test_line_no_double_right(self, line_z):
        spec = builtin_family("line_Z")
        F = es.ForbiddenSet.from_strings(["rr"], spec.alphabet)
        expected = tuple(brute_census(line_z, 0, 0, 4, F.words))
        assert expected == (1, 0, 2, 0, 3)
        assert es.count_words(schreier_graph(spec), spec.root, spec.root, 4, forbidden=F) == expected

    def test_word_over_wrong_alphabet_rejected(self):
        spec = builtin_family("line_Z")
        with pytest.raises(es.ForbiddenWordError):
            es.ForbiddenSet.from_strings(["rx"], spec.alphabet)


class TestGrowthSensitivity:
    def test_line_certified_drop(self):
        spec = builtin_family("line_Z")
        F = es.ForbiddenSet.from_strings(["rr"], spec.alphabet)
        report = es.entropy_gap_report(schreier_graph(spec), spec.root, spec.root, F, 40)
        assert abs(report.h.value - math.log(2)) < 0.05
        assert report.h_forbidden.value < report.h.value - 0.05
        cert = report.certificate
        assert cert is not None
        assert (cert.alpha, cert.D, cert.R, cert.conn_k) == (0.5, 0, 2, 1)
        assert report.certificate_scope == "global"
        assert report.h_forbidden.value < cert.h_bound(2)

    def test_grid_certified_drop(self):
        spec = builtin_family("grid_Z2")
        F = es.ForbiddenSet.from_strings(["uu"], spec.alphabet)
        report = es.entropy_gap_report(schreier_graph(spec), spec.root, spec.root, F, 20)
        assert report.certificate is not None
        assert report.certificate.alpha == 0.25
        assert report.h_forbidden.value < report.h.value

    def test_free2_window_scoped(self):
        spec = builtin_family("free2_mod_cyclic")
        F = es.ForbiddenSet.from_strings(["bb"], spec.alphabet)
        report = es.entropy_gap_report(schreier_graph(spec), spec.root, spec.root, F, 10)
        assert report.h_forbidden.value < report.h.value
        assert report.certificate is not None
        assert report.certificate_scope == "window"
        assert any("declares no rho" in w for w in report.warnings)


class TestActionPath:
    """A complete graph given its action grows each layer straight from
    ``act``; the same action given as an ``expand`` takes the general
    path, which builds and checks every edge triple.  Both grow the same
    search."""

    SPECS = {
        "line_Z": builtin_family("line_Z"),
        "grid_Z2": builtin_family("grid_Z2"),
        "free2_mod_cyclic": builtin_family("free2_mod_cyclic"),
        # an alphabet out of sorted order: the action path reads it sorted
        "unsorted": es.ActionSpec(("r", "l"), lambda n, a: n + 1 if a == "r" else n - 1, root=0),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_equals_the_validating_path(self, name):
        spec = self.SPECS[name]
        g = schreier_graph(spec)
        general = es.LabelledGraph(
            g.alphabet, lambda v: [(v, a, spec.act(v, a)) for a in spec.alphabet], g.roots)
        assert g.act is not None and general.act is None
        x = g.roots[0]
        got, want = es.graphs.search(g, x, 6), es.graphs.search(general, x, 6)
        assert got.vertices == want.vertices
        for column in ("distance", "vertex", "source", "label", "target", "base"):
            assert np.array_equal(getattr(got, column), getattr(want, column))
        for field in ("vertices", "ends", "edge_ends", "degree", "label", "target"):
            assert getattr(g.grown[x], field) == getattr(general.grown[x], field)
        for v in got.vertices[:10]:
            assert g.out_edges(v) == general.out_edges(v)
