import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import entroscope as es
from entroscope.chain import ChainError

from oracles import (
    harmonic_residual,
    random_det_scc_graph,
    reflecting_matrix,
    random_nfa,
    random_word_on_graph,
    strongly_connected,
    tilted_growth,
)

PHI = (1 + math.sqrt(5)) / 2


def F_of(words, alphabet):
    return es.ForbiddenSet.from_strings(words, alphabet)


def product_rho_measured(g, forbidden):
    """Oracle: spectral radius (dense eigvals) of the uniform-weight product
    matrix over states reachable from every (x, start)."""
    A = es.FactorAutomaton(forbidden, g.alphabet)
    pg = es.product_graph(g, A, roots=list(g.vertex_list))
    seen = list(pg.roots)
    seen_set = set(seen)
    i = 0
    while i < len(seen):
        for e in pg.out_edges(seen[i]):
            if e.target not in seen_set:
                seen_set.add(e.target)
                seen.append(e.target)
        i += 1
    order = sorted(seen_set, key=es.vertex_key)
    index = {v: j for j, v in enumerate(order)}
    M = np.zeros((len(order), len(order)))
    for v in order:
        for e in pg.out_edges(v):
            M[index[v], index[e.target]] += 1.0 / len(g.alphabet)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def base_rho_measured(g):
    order = sorted(g.vertex_list, key=es.vertex_key)
    index = {v: j for j, v in enumerate(order)}
    M = np.zeros((len(order), len(order)))
    for v in order:
        for e in g.out_edges(v):
            M[index[v], index[e.target]] += 1.0 / len(g.alphabet)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


class TestUniformWeights:
    def test_full_shift_stochastic(self, b2):
        ch = es.uniform_weights(b2)
        assert ch.alpha == Fraction(1, 2)
        assert sum(ch.weight(e) for e in b2.out_edges("v")) == 1

    def test_line_stochastic(self, line_z):
        ch = es.uniform_weights(line_z)
        assert sum(ch.weight(e) for e in line_z.out_edges(0)) == 1

    def test_substochastic_row(self):
        g = es.explicit_graph(["a", "b"], [("v", "a", "v")], roots=["v"])
        ch = es.uniform_weights(g)
        assert sum(ch.weight(e) for e in g.out_edges("v")) == Fraction(1, 2)

    def test_overfull_vertex_rejected(self):
        g = es.explicit_graph(
            ["a"], [("x", "a", "y"), ("x", "a", "z")], roots=["x"]
        )
        with pytest.raises(ChainError):
            es.uniform_weights(g)

    def test_first_overfull_vertex_is_named(self):
        # v lists first and is full; u is the first overfull vertex in vertex order
        g = es.explicit_graph(
            ["a", "b"],
            [("v", "a", "u"), ("v", "b", "v"), ("u", "a", "u"), ("u", "a", "v"),
             ("u", "b", "v"), ("w", "a", "w"), ("w", "a", "v"), ("w", "b", "u")],
            roots=["v"], vertices=["v", "u", "w"],
        )
        with pytest.raises(ChainError, match=r"^vertex u has out-degree 3 > \|alphabet\|$"):
            es.uniform_weights(g)


class TestStepDistributions:
    def test_full_shift_returns(self, b2):
        ch = es.uniform_weights(b2)
        dist = es.n_step_vector(ch, "v", 3)
        assert dist.by_vertex() == {"v": Fraction(1)}

    def test_restricted_two_step(self, b2):
        ch = es.uniform_weights(b2)
        table = es.probability_table(ch, "v", "v", 2, forbidden=F_of(["aa"], b2.alphabet))
        assert table[2] == Fraction(3, 4)

    def test_product_frontier_keeps_the_budget(self, b2):
        # avoiding aaa, the product's second step reaches all three states
        b2.budget = 2
        F = F_of(["aaa"], b2.alphabet)
        assert es.factors.avoiding(b2, "v", F)[0].budget == 2
        assert len(es.n_step_vector(es.uniform_weights(b2), "v", 1, forbidden=F).mass) == 2
        with pytest.raises(es.ExpansionBudgetExceeded,
                           match="step frontier from vertex 'v' exceeded --budget 2 states"):
            es.n_step_vector(es.uniform_weights(b2), "v", 2, forbidden=F)

    def test_line_return_probability(self, line_z):
        ch = es.uniform_weights(line_z)
        assert es.probability_table(ch, 0, 0, 2)[2] == Fraction(1, 2)

    @pytest.mark.parametrize("fixture,x", [("b2", "v"), ("golden_mean", "v1"), ("line_z", 0)])
    def test_mass_monotonicity(self, fixture, x, request):
        g = request.getfixturevalue(fixture)
        ch = es.uniform_weights(g)
        F = F_of(["ab"], g.alphabet) if "b" in g.alphabet else F_of(["rr"], g.alphabet)
        plain = es.initial_distribution(ch, x)
        restricted = es.initial_distribution(ch, x, F)
        for _ in range(10):
            plain = es.step(ch, plain)
            restricted = es.step(ch, restricted)
            assert restricted.total() <= plain.total() <= 1
            by_v_plain = plain.by_vertex()
            for v, p in restricted.by_vertex().items():
                assert p <= by_v_plain[v]

    @pytest.mark.parametrize("fixture,x,y", [("golden_mean", "v1", "v2"), ("line_z", 0, 0)])
    def test_chapman_kolmogorov_exact(self, fixture, x, y, request):
        g = request.getfixturevalue(fixture)
        ch = es.uniform_weights(g)
        for m, n in [(1, 1), (2, 3), (4, 2), (5, 5)]:
            lhs = es.probability_table(ch, x, y, m + n)[m + n]
            mid = es.n_step_vector(ch, x, m).by_vertex()
            rhs = sum(
                p * es.probability_table(ch, z, y, n)[n] for z, p in mid.items()
            )
            assert lhs == rhs

    @pytest.mark.parametrize("fixture,x,y,words", [
        ("golden_mean", "v1", "v1", ["ab"]),
        ("b2", "v", "v", ["aa"]),
        ("line_z", 0, 0, ["rr"]),
    ])
    def test_restricted_chapman_kolmogorov_inequality(self, fixture, x, y, words, request):
        g = request.getfixturevalue(fixture)
        ch = es.uniform_weights(g)
        F = F_of(words, g.alphabet)
        for m, n in [(1, 1), (2, 3), (3, 2), (5, 5), (4, 6)]:
            lhs = es.probability_table(ch, x, y, m + n, forbidden=F)[m + n]
            mid = es.n_step_vector(ch, x, m, forbidden=F).by_vertex()
            rhs = sum(
                p * es.probability_table(ch, z, y, n, forbidden=F)[n]
                for z, p in mid.items()
            )
            assert lhs <= rhs


class TestDictionaryIdentity:
    @pytest.mark.parametrize("fixture,x,y", [
        ("b2", "v", "v"),
        ("golden_mean", "v1", "v1"),
        ("golden_mean", "v1", "v2"),
        ("two_cycle", "x", "y"),
        ("three_cycle", "0", "0"),
        ("line_z", 0, 0),
    ])
    def test_exact_identity(self, fixture, x, y, request):
        g = request.getfixturevalue(fixture)
        sigma = len(g.alphabet)
        ch = es.uniform_weights(g)
        counts = es.count_words(g, x, y, 15)
        probs = es.probability_table(ch, x, y, 15)
        for n in range(16):
            assert probs[n] * sigma**n == counts[n]

    @pytest.mark.parametrize("fixture,x,y,words", [
        ("b2", "v", "v", ["aa"]),
        ("golden_mean", "v1", "v1", ["bb"]),
        ("line_z", 0, 0, ["rr"]),
    ])
    def test_exact_identity_restricted(self, fixture, x, y, words, request):
        g = request.getfixturevalue(fixture)
        sigma = len(g.alphabet)
        F = F_of(words, g.alphabet)
        ch = es.uniform_weights(g)
        counts = es.count_words(g, x, y, 15, forbidden=F)
        probs = es.probability_table(ch, x, y, 15, forbidden=F)
        for n in range(16):
            assert probs[n] * sigma**n == counts[n]


class TestWeightedTables:
    def test_float_table_matches_exact_push(self):
        # random nondeterministic chains, with parallel edges and edges
        # sharing a label, under exact rational weights
        rng = random.Random(11)
        for _ in range(120):
            g = random_nfa(rng, max_states=5, max_sigma=2)
            weight = {
                e: Fraction(rng.randint(1, 9), 10 * len(g.alphabet) * len(g.vertex_list))
                for v in g.vertex_list for e in g.out_edges(v)
            }
            ch = es.WeightedChain(graph=g, weight=weight.__getitem__, alpha=Fraction(1, 100))
            x, y = rng.choice(g.vertex_list), rng.choice(g.vertex_list)
            words = ["".join(rng.choice(g.alphabet) for _ in range(rng.randint(1, 3)))]
            for F in (None, F_of(words, g.alphabet)):
                table = es.probability_table(ch, x, y, 8, forbidden=F)
                assert all(isinstance(p, float) for p in table)
                for n, p in enumerate(table):
                    exact = es.n_step_vector(ch, x, n, forbidden=F).by_vertex().get(y, 0)
                    assert p == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_weights_leaving_the_domain_raise(self, line_z):
        # the table reads every edge out of the states within N - 1 steps
        hv = es.harmonic_vector(es.uniform_weights(line_z), 0, 3)
        out = es.h_transform(es.uniform_weights(line_z), hv)
        assert len(es.probability_table(out, 0, 0, 3)) == 4
        with pytest.raises(ChainError):
            es.probability_table(out, 0, 0, 4)


class TestRhoEstimate:
    def test_full_shift(self, b2):
        ch = es.uniform_weights(b2)
        est = es.rho_estimate(ch, "v", "v", 20)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_full_shift_restricted(self, b2):
        ch = es.uniform_weights(b2)
        est = es.rho_estimate(ch, "v", "v", 40, forbidden=F_of(["aa"], b2.alphabet))
        assert est.value == pytest.approx(PHI / 2, abs=1e-9)

    def test_line_even_subsequence(self, line_z):
        ch = es.uniform_weights(line_z)
        est = es.rho_estimate(ch, 0, 0, 40)
        assert est.fit.period == 2
        assert abs(est.value - 1.0) < 0.05

    def test_all_zero_sentinel(self, two_cycle):
        ch = es.uniform_weights(two_cycle)
        est = es.rho_estimate(ch, "x", "x", 11, forbidden=F_of(["ab"], two_cycle.alphabet))
        # the only loops at x read (ab)^k, all killed
        assert est.value == 0.0

    def test_requires_depth(self, b2):
        with pytest.raises(ValueError):
            es.rho_estimate(es.uniform_weights(b2), "v", "v", 5)


class TestHarmonicVector:
    def test_full_shift_trivial(self, b2):
        hv = es.harmonic_vector(es.uniform_weights(b2), "v", 2)
        assert hv.rho_hat == pytest.approx(1.0, abs=1e-12)
        assert hv.values == {"v": 1.0}
        assert hv.residual == pytest.approx(0.0, abs=1e-12)

    def test_golden_mean_perron(self, golden_mean):
        hv = es.harmonic_vector(es.uniform_weights(golden_mean), "v1", 4)
        assert hv.rho_hat == pytest.approx(PHI / 2, abs=1e-10)
        assert hv.values["v1"] == 1.0
        assert hv.values["v2"] == pytest.approx(1 / PHI, abs=1e-9)
        assert hv.accepted

    def test_line_reflecting(self, line_z):
        hv = es.harmonic_vector(es.uniform_weights(line_z), 0, 30)
        assert 0.99 <= hv.rho_hat <= 1.0
        inner = [hv.values[v] for v in range(-29, 30)]
        assert max(inner) - min(inner) < 1e-9
        reflecting = es.harmonic_vector(es.uniform_weights(line_z), 0, 10)
        assert reflecting.rho_hat == pytest.approx(1.0, abs=1e-12)

    def test_inside_root_lies_below_one(self, line_z, free2):
        # the Perron root of a window's inside edges, over |alphabet|, is the
        # decay rate of a finite restriction of the uniform chain: below 1
        # on a recurrent line and on a tree, and near 1 on a wide line window
        def inside_root(g, x, radius):
            lo, hi = es.linalg.spectral_radius(es.forward_ball(g, x, radius).adjacency())
            return lo / len(g.alphabet), hi / len(g.alphabet)

        assert inside_root(line_z, 0, 10)[1] < 1.0
        lo, hi = inside_root(line_z, 0, 30)
        assert 0.99 < lo <= hi < 1.0
        assert inside_root(free2, "", 5)[1] < 0.95

    def test_tolerance_follows_the_graph(self, golden_mean, line_z):
        # accepted at 1e-8 on a finite graph, at 1e-3 on a family's window
        assert es.harmonic_vector(es.uniform_weights(golden_mean), "v1", 4).tol == 1e-8
        assert es.harmonic_vector(es.uniform_weights(line_z), 0, 4).tol == 1e-3

    def test_residual_matches_vertex_loop(self, line_z, grid_z2, monkeypatch):
        # the solver's own vector leaves a residual of rounding size; a
        # perturbed one makes it large enough for a 1e-12 relative check
        rng = random.Random(8)
        perron_root = es.linalg.perron_root

        def perturbed(*args, **kwargs):
            res = perron_root(*args, **kwargs)
            res.vector = res.vector * (1 + np.array([rng.random() for _ in res.vector]))
            return res

        monkeypatch.setattr(es.linalg, "perron_root", perturbed)
        cases = [(es.uniform_weights(line_z), 0, 9), (es.uniform_weights(grid_z2), (0, 0), 6)]
        while len(cases) < 40:
            g = random_det_scc_graph(rng)
            if len(g.vertex_list) == 1:  # h is pinned to 1 at the center
                continue
            sigma = len(g.alphabet)
            weight = {
                e: Fraction(rng.randint(1, 9), 10 * sigma)
                for v in g.vertex_list for e in g.out_edges(v)
            }
            ch = es.WeightedChain(graph=g, weight=weight.__getitem__, alpha=Fraction(1, 10 * sigma))
            cases.append((ch, 0, len(g.vertex_list) + 1))
        for ch, center, radius in cases:
            hv = es.harmonic_vector(ch, center, radius)
            oracle = harmonic_residual(ch, hv)
            assert oracle > 1e-3
            assert hv.residual == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_in_place_scaling_never_reaches_the_windows_matrix(self, monkeypatch):
        # the reflecting rows are scaled in place on a weighted matrix of the
        # ball; its shared unweighted matrix, built before, keeps its entries
        def solve(g, x, radius, built_before):
            ball = es.forward_ball(g, x, radius)
            if built_before:
                ball.adjacency()
            with monkeypatch.context() as m:
                m.setattr(es.chain, "forward_ball", lambda *args: ball)
                hv = es.harmonic_vector(es.uniform_weights(g), x, radius)
            return hv, es.linalg.spectral_radius(ball.adjacency()), ball.adjacency().toarray()

        def finite(seed):  # every vertex steps to 0 by a: each ball is strongly connected
            rng = random.Random(seed)
            n = rng.randint(3, 12)
            edges = {(v, "a", 0) for v in range(n)}
            edges |= {(v, rng.choice("bc"), rng.randrange(n)) for v in range(n) for _ in "bc"}
            return es.explicit_graph("abc", sorted(edges), roots=[0], vertices=range(n))

        cases = [(lambda name=name: es.schreier_graph(es.builtin_family(name)), x, radius)
                 for name, x in (("grid_Z2", (0, 0)), ("line_Z", 0)) for radius in (2, 6)]
        cases += [(lambda seed=seed: finite(seed), 0, 2) for seed in range(10)]
        for make, x, radius in cases:
            hv, rho, A = solve(make(), x, radius, True)
            fresh_hv, fresh_rho, fresh_A = solve(make(), x, radius, False)
            assert hv == fresh_hv and rho == fresh_rho and (A == fresh_A).all()
            assert rho == es.linalg.spectral_radius(es.forward_ball(make(), x, radius).adjacency())

    def test_windows_match_the_diagonal_product(self, line_z, grid_z2, free2):
        # the reflecting rows are scaled in place: h, rho_hat, the residual
        # and the iteration count equal, bit for bit, a Perron solve of the
        # window's matrix multiplied by the diagonal of its row scales
        def check(chain, center, radius):
            hv = es.harmonic_vector(chain, center, radius)
            w, matrix = reflecting_matrix(chain, center, radius)
            res = es.linalg.perron_root(matrix)
            h = res.vector / res.vector[0]
            inner = sum(d < radius for d in w.distances.values())
            residual = float(np.max(np.abs(matrix @ h - res.value * h)[:inner] / h[:inner]))
            assert list(hv.values) == list(w.distances)
            assert list(hv.values.values()) == h.tolist()
            assert (hv.rho_hat, hv.residual, hv.diagnostics["iterations"]) == (
                res.value, residual, res.iterations)
            return w

        for radius in (*range(2, 9), 22):
            check(es.uniform_weights(grid_z2), (0, 0), radius)
        for radius in (2, 5, 30):
            check(es.uniform_weights(line_z), 0, radius)
        for radius in range(2, 7):
            check(es.uniform_weights(free2), "", radius)
        # finite graphs: every vertex steps to 0 by a, so each window is strongly
        # connected; b and c often share a target, so rows hold parallel edges
        rng = random.Random(23)
        shapes = []
        for _ in range(20):
            n = rng.randint(3, 12)
            edges = [(v, "a", 0) for v in range(n)]
            for v in range(n):
                t = rng.randrange(n)
                edges += [(v, "b", t), (v, "c", t if rng.random() < 0.5 else rng.randrange(n))]
            g = es.explicit_graph("abc", edges, roots=[0], vertices=range(n))
            weight = {e: Fraction(rng.randint(1, 9), 30) for v in range(n) for e in g.out_edges(v)}
            weighted = es.WeightedChain(graph=g, weight=weight.__getitem__, alpha=Fraction(1, 30))
            for chain in (es.uniform_weights(g), weighted):
                for radius in (2, 3):
                    check(chain, 0, radius)
            w = es.graphs.forward_ball(g, 0, 2)
            pairs = w.source * n + w.target
            shapes.append((len(w.boundary) > 0, len(np.unique(pairs)) < len(pairs)))
        assert shapes.count((True, True)) >= 5  # boundary edges beside parallel ones
        # an h-transformed chain: non-uniform weights read through its column
        g.declared = replace(g.declared, conn_k=1)
        hv = es.harmonic_vector(weighted, 0, n + 1)
        transformed = es.h_transform(weighted, hv)
        w = es.graphs.full_window(g)
        assert len(np.unique(es.chain.edge_weights(transformed, w.ids, w.source, w.label,
                                                   w.target))) > 2
        for radius in (2, 3):
            check(transformed, 0, radius)

    def test_radius_too_small(self, b2):
        with pytest.raises(ValueError):
            es.harmonic_vector(es.uniform_weights(b2), "v", 1)

    def test_window_with_a_sink_is_refused(self):
        # 0 <-> 1 -> 2, and 2 has no way back to the center
        g = es.explicit_graph(["a", "b"], [(0, "a", 1), (1, "a", 0), (1, "b", 2)], roots=[0])
        with pytest.raises(ChainError, match="not strongly connected"):
            es.harmonic_vector(es.uniform_weights(g), 0, 3)

    def test_connectivity_check_runs_no_tarjan(self, grid_z2, monkeypatch):
        calls = []
        tarjan = es.linalg.strong_components

        def counted(A):
            calls.append(A.shape)
            return tarjan(A)

        monkeypatch.setattr(es.linalg, "strong_components", counted)
        hv = es.harmonic_vector(es.uniform_weights(grid_z2), (0, 0), 6)
        assert hv.accepted and calls == []
        es.linalg.spectral_radius(np.eye(2))  # the patch takes
        assert calls == [(2, 2)]

    def test_tree_like_window(self, free2):
        # stochastic chain: reflecting pins the trivial pair
        hv = es.harmonic_vector(es.uniform_weights(free2), "", 5)
        assert hv.rho_hat == pytest.approx(1.0, abs=1e-12)
        assert hv.residual <= 1e-12


def exact_golden_hv():
    return es.HarmonicVector(
        rho_hat=PHI / 2,
        values={"v1": 1.0, "v2": 1 / PHI},
        residual=0.0,
        center="v1",
        radius=4,
        tol=1e-8,
    )


class TestSpectralRadius:
    """Two ``steps_to`` sweeps send an irreducible matrix straight to one
    Perron root, anything else to Tarjan's components; both routes agree
    with numpy's eigenvalues on the strongly connected blocks."""

    @staticmethod
    def reference(A):
        n = len(A)
        reach = np.linalg.matrix_power(np.eye(n) + (A > 0), n) > 0
        blocks = {tuple(np.flatnonzero(reach[i] & reach[:, i])) for i in range(n)}
        return max(max(abs(np.linalg.eigvals(A[np.ix_(b, b)]))) for b in blocks), len(blocks) == 1

    def test_both_routes_match_eigvals(self, monkeypatch):
        calls = []
        tarjan = es.linalg.strong_components
        monkeypatch.setattr(es.linalg, "strong_components",
                            lambda A: calls.append(A.shape) or tarjan(A))
        rng = np.random.default_rng(16)
        matrices = [np.zeros((1, 1)), np.full((1, 1), 2.0), np.eye(2), np.ones((3, 3))]
        for _ in range(80):
            n = int(rng.integers(1, 9))
            mask = rng.random((n, n)) < rng.uniform(0.1, 0.6)
            matrices.append(mask * rng.integers(1, 3, (n, n)).astype(float))
        routes = []
        for A in matrices:
            calls.clear()
            want, irreducible = self.reference(A)
            lo, hi = es.linalg.spectral_radius(A)
            assert lo <= hi and (lo, hi) == pytest.approx((want, want), rel=1e-9, abs=1e-12)
            assert (calls == []) == irreducible
            routes.append(irreducible)
        assert routes[:4] == [True, True, False, True] and 10 < sum(routes) < len(routes) - 10


class TestHTransform:
    def test_identity_when_harmonic_constant(self, b2):
        b2.declared = replace(b2.declared, conn_k=1)
        ch = es.uniform_weights(b2)
        hv = es.harmonic_vector(ch, "v", 2)
        out = es.h_transform(ch, hv)
        for e in b2.out_edges("v"):
            assert out.weight(e) == pytest.approx(0.5, abs=1e-12)

    def test_golden_mean_rows_stochastic(self, golden_mean):
        ch = es.uniform_weights(golden_mean)
        out = es.h_transform(ch, exact_golden_hv())
        for v in ("v1", "v2"):
            row = sum(out.weight(e) for e in golden_mean.out_edges(v))
            assert row == pytest.approx(1.0, abs=1e-12)

    def test_floor_preserved(self, golden_mean):
        ch = es.uniform_weights(golden_mean)
        out = es.h_transform(ch, exact_golden_hv())
        expected_floor = (0.5 / (PHI / 2)) ** 2
        assert out.alpha == pytest.approx(expected_floor, abs=1e-12)
        for v in ("v1", "v2"):
            for e in golden_mean.out_edges(v):
                assert out.weight(e) >= out.alpha - 1e-12

    def test_line_unchanged(self, line_z):
        ch = es.uniform_weights(line_z)
        hv = es.harmonic_vector(ch, 0, 12)
        out = es.h_transform(ch, hv)
        for e in line_z.out_edges(0):
            assert out.weight(e) == pytest.approx(0.5, abs=1e-9)

    def test_uniform_chain_matches_its_general_twin(self, grid_z2):
        # the uniform chain reads one float weight; the twin converts its
        # Fraction weight per edge: the windows and tables agree bit for bit
        rng = random.Random(3)
        dfa = random_det_scc_graph(rng)
        while len(dfa.alphabet) != 3:
            dfa = random_det_scc_graph(rng)
        dfa.declared = replace(dfa.declared, conn_k=1)
        F = F_of(["ru"], grid_z2.alphabet)
        for g, x, radius, forbidden in ((grid_z2, (0, 0), 14, F), (dfa, 0, 9, None)):
            ch = es.uniform_weights(g)
            twin = es.WeightedChain(graph=g, weight=ch.weight, alpha=ch.alpha)
            assert not twin.uniform
            hv = es.harmonic_vector(ch, x, radius)
            hv_twin = es.harmonic_vector(twin, x, radius)
            assert (hv.values, hv.rho_hat, hv.residual) == (
                hv_twin.values, hv_twin.rho_hat, hv_twin.residual
            )
            tables = [
                es.probability_table(es.h_transform(c, hv), x, x, 12, forbidden)
                for c in (ch, twin)
            ]
            assert tables[0] == tables[1]

    def test_requires_conn_k(self, b2):
        ch = es.uniform_weights(b2)
        hv = es.harmonic_vector(ch, "v", 2)
        with pytest.raises(ChainError):
            es.h_transform(ch, hv)

    def test_rejects_unaccepted_vector(self, golden_mean):
        hv = exact_golden_hv()
        hv.residual = 1.0
        with pytest.raises(ChainError):
            es.h_transform(es.uniform_weights(golden_mean), hv)

    def test_edge_out_of_window(self, line_z):
        ch = es.uniform_weights(line_z)
        hv = es.harmonic_vector(ch, 0, 3)
        out = es.h_transform(ch, hv)
        far_edge = line_z.out_edges(3)[1]
        assert far_edge.target == 4
        with pytest.raises(ChainError):
            out.weight(far_edge)


class TestCertifiedGapBound:
    def test_stochastic_fast_path(self):
        cert = es.certified_gap_bound(alpha=0.5, D=0, R=2, stochastic=True)
        assert cert.k == 2
        assert cert.eps0 == pytest.approx(0.25)
        assert cert.bound == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_k_additivity(self):
        a = es.certified_gap_bound(alpha=0.5, D=0, R=2, stochastic=True)
        b = es.certified_gap_bound(alpha=0.5, D=1, R=1, stochastic=True)
        assert a.k == b.k == 2
        assert a.bound == b.bound

    def test_general_path(self):
        cert = es.certified_gap_bound(alpha=0.5, D=0, R=2, conn_k=1, rho=1.0)
        assert cert.alpha_bar == pytest.approx(0.25)
        assert cert.eps0_prime == pytest.approx(1 / 16)
        assert cert.bound == pytest.approx(math.sqrt(15) / 4, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.25, D=4, R=1, stochastic=True),
        dict(alpha=0.2, D=3, R=1, conn_k=4, rho=0.5902853252193181),
        # alpha_bar^k is 1 - 2e-15: the float formula falls 8% short
        dict(alpha=1 / 3, D=2, R=3, conn_k=2, rho=0.33333333333333337),
    ])
    def test_bound_is_rounded_outward(self, kwargs):
        cert = es.certified_gap_bound(**kwargs)
        k, rho = cert.k, Fraction(cert.rho)
        power = k if cert.stochastic_path else (cert.conn_k + 1) * k
        exact = rho**k * (1 - (Fraction(cert.alpha) / rho) ** power)
        float_formula = cert.rho * (1.0 - cert.eps)
        assert Fraction(float_formula) ** k < exact <= Fraction(cert.bound) ** k
        assert cert.bound < cert.rho

    def test_bound_strictly_below_rho(self):
        cert = es.certified_gap_bound(alpha=0.4, D=2, R=3, conn_k=2, rho=0.9)
        assert 0 < cert.eps0_prime < 1
        assert cert.bound < cert.rho

    def test_entropy_form(self):
        cert = es.certified_gap_bound(alpha=0.5, D=0, R=2, stochastic=True)
        assert cert.h_bound(2) == pytest.approx(math.log(math.sqrt(3)), abs=1e-12)

    def test_degenerate_bound_builds_no_exact_power(self, monkeypatch):
        # alpha^k ~ 1e-13 at k = 300001: the float bound already equals rho,
        # so the outward rounding must not build the exact power first
        calls = []

        def counted(*args):
            calls.append(args)
            return Fraction(*args)

        monkeypatch.setattr(es.chain, "Fraction", counted)
        with pytest.raises(es.chain.DegenerateBound):
            es.certified_gap_bound(alpha=0.9999, D=300000, R=1, stochastic=True)
        assert calls == []

    def test_large_k_builds_no_large_exact_power(self, monkeypatch):
        # k = 100001: the outward rounding is decided on fixed-point bounds
        power = Fraction.__pow__

        def bounded(self, exponent, *args):
            if abs(exponent) > 10**3:
                raise RuntimeError(f"an exact power of order {exponent}")
            return power(self, exponent, *args)

        monkeypatch.setattr(Fraction, "__pow__", bounded)
        cert = es.certified_gap_bound(alpha=0.9999, D=100000, R=1, stochastic=True)
        assert cert.bound == 0.9999999995462673

    def test_fixed_point_decisions_are_exact(self):
        # the outward rounding's test (bound/r)^k + (alpha/r)^(jk) >= 1, at
        # each certified bound and 3 ulps either side, against exact powers
        rng = random.Random(5)
        decisions = 0
        while decisions < 2000:
            stochastic = rng.random() < 0.4
            alpha = 1 / rng.randint(2, 9) if rng.random() < 0.3 else rng.uniform(0.01, 1.0)
            rho = 1.0 if stochastic or rng.random() < 0.5 else rng.uniform(alpha, 1.0)
            conn_k = rng.randint(1, 4)
            try:
                cert = es.certified_gap_bound(
                    alpha, rng.randint(0, 54), rng.randint(1, 6), conn_k, rho, stochastic)
            except es.chain.DegenerateBound:
                continue
            r, j = (Fraction(1), 1) if stochastic else (Fraction(cert.rho), conn_k + 1)
            a, k = Fraction(alpha) / r, cert.k
            for i in range(-3, 4):
                q = Fraction(cert.bound + i * math.ulp(cert.bound)) / r
                if q <= 1:
                    decisions += 1
                    exact = q**k + a ** (j * k) >= 1
                    assert es.chain._reaches_one(q, k, a, j * k) == exact

    def test_power_bounds_bracket_the_power(self):
        rng = random.Random(6)
        for _ in range(500):
            x = Fraction(rng.randint(0, 10**9), 10**9) if rng.random() < 0.9 else Fraction(1)
            n = rng.randint(0, 300)
            lo, hi = es.chain._power_bounds(x, n)
            exact = x**n * 2**es.chain.FIXED_BITS
            assert lo <= exact <= hi and hi - lo <= 4 * n + 2

    def test_sums_of_exactly_one_are_decided_exactly(self):
        # no fixed-point number holds 1/3: its bounds straddle 1, and the
        # exact powers decide; dyadic sums are decided on the bounds alone
        third = Fraction(1, 3)
        assert es.chain._reaches_one(third, 1, 1 - third, 1)
        assert not es.chain._reaches_one(third, 1, 1 - third - Fraction(1, 10**60), 1)
        assert es.chain._reaches_one(Fraction(1, 2), 2, Fraction(3, 4), 1)
        assert not es.chain._reaches_one(Fraction(1, 2), 2, Fraction(3, 4) - Fraction(1, 2**200), 1)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, D=0, R=2),
        dict(alpha=0.5, D=-1, R=2),
        dict(alpha=0.5, D=0, R=0),
        dict(alpha=0.5, D=0, R=2, rho=1.5),
        dict(alpha=0.5, D=0, R=2, rho=0.9, stochastic=True),
        dict(alpha=0.5, D=0, R=2, rho=0.9),              # conn_k missing
        dict(alpha=0.5, D=0, R=2, conn_k=1, rho=0.5),    # alpha == rho degenerates
        dict(alpha=0.5, D=0, R=2, conn_k=0),
        dict(alpha=0.5, D=0, R=2, conn_k=-4, stochastic=True),
    ])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            es.certified_gap_bound(**kwargs)


class TestRowSumCheck:
    def test_full_shift_exact(self, b2):
        ch = es.uniform_weights(b2)
        w = es.full_window(b2)
        check = es.k_step_restricted_rowsum_check(
            ch, F_of(["aa"], b2.alphabet), D=0, w=w
        )
        assert check.ok
        assert check.rows == {"v": Fraction(3, 4)}
        assert check.threshold == Fraction(3, 4)

    def test_line_exact(self, line_z):
        ch = es.uniform_weights(line_z)
        w = es.forward_ball(line_z, 0, 3)
        check = es.k_step_restricted_rowsum_check(
            ch, F_of(["rr"], line_z.alphabet), D=0, w=w
        )
        assert check.ok
        assert set(check.rows.values()) == {Fraction(3, 4)}

    def test_unreachable_forbidden_word_counterexample(self, two_cycle):
        # probability-1 edges: stochastic, but aa labels no path, so a wrong
        # D produces full rows and the check reports them
        ch = es.WeightedChain(
            graph=two_cycle, weight=lambda e: Fraction(1), alpha=Fraction(1)
        )
        w = es.full_window(two_cycle)
        check = es.k_step_restricted_rowsum_check(
            ch, F_of(["aa"], two_cycle.alphabet), D=0, w=w
        )
        assert not check.ok
        assert check.max_row_sum() == 1
        assert len(check.violations) == 2


class TestTransformIdentity:
    def test_trivial_fixture(self, b2):
        b2.declared = replace(b2.declared, conn_k=1)
        ch = es.uniform_weights(b2)
        hv = es.harmonic_vector(ch, "v", 2)
        F = F_of(["aa"], b2.alphabet)
        rep = es.transform_identity_check(ch, hv, F, "v", "v", 40,
                                          es.rho_estimate(ch, "v", "v", 40, forbidden=F))
        assert rep.difference < 1e-12

    def test_golden_mean_exact(self, golden_mean):
        ch = es.uniform_weights(golden_mean)
        F = F_of(["a"], golden_mean.alphabet)
        rep = es.transform_identity_check(ch, exact_golden_hv(), F, "v1", "v1", 40,
                                          es.rho_estimate(ch, "v1", "v1", 40, forbidden=F))
        # lhs = 1/phi exactly; rhs = 1/2, rho = phi/2
        assert rep.lhs == pytest.approx(1 / PHI, abs=1e-9)
        assert rep.rhs == pytest.approx(0.5, abs=1e-9)
        assert rep.difference < 1e-6

    def test_line_within_threshold(self, line_z):
        ch = es.uniform_weights(line_z)
        hv = es.harmonic_vector(ch, 0, 42)
        F = F_of(["rr"], line_z.alphabet)
        rep = es.transform_identity_check(ch, hv, F, 0, 0, 40,
                                          es.rho_estimate(ch, 0, 0, 40, forbidden=F))
        assert rep.difference < 0.05

    def test_small_window_names_its_radius(self, grid_z2, b2):
        # the transformed table reads h on the depth-N ball around x
        F = F_of(["rr"], grid_z2.alphabet)
        ch = es.uniform_weights(grid_z2)
        hv = es.harmonic_vector(ch, (0, 0), 6)
        with pytest.raises(ChainError, match="leaves the harmonic window of radius 6;"):
            es.transform_identity_check(ch, hv, F, (0, 0), (0, 0), 12,
                                        es.rho_estimate(ch, (0, 0), (0, 0), 12, forbidden=F))
        # a finite graph's small window can still hold every edge
        b2.declared = replace(b2.declared, conn_k=1)
        ch = es.uniform_weights(b2)
        hv = es.harmonic_vector(ch, "v", 2)
        F = F_of(["aa"], b2.alphabet)
        rep = es.transform_identity_check(ch, hv, F, "v", "v", 15,
                                          es.rho_estimate(ch, "v", "v", 15, forbidden=F))
        assert rep.ok


class TestEntropyFromRho:
    def test_values(self):
        assert es.entropy_from_rho(1.0, 2) == pytest.approx(math.log(2))
        assert es.entropy_from_rho(PHI / 2, 2) == pytest.approx(math.log(PHI))
        assert es.entropy_from_rho(0.5, 2) == pytest.approx(0.0)
        assert es.entropy_from_rho(0.0, 2) == float("-inf")


class TestCertificateSoundnessFixtures:
    @pytest.mark.parametrize("fixture,words", [
        ("b2", ["aa"]),
        ("golden_mean", ["b"]),
        ("two_cycle", ["ab"]),
        ("three_cycle", ["abc"]),
    ])
    def test_measured_rho_f_below_bound(self, fixture, words, request):
        g = request.getfixturevalue(fixture)
        assert strongly_connected(g)
        F = F_of(words, g.alphabet)
        w = es.full_window(g)
        dense = es.estimate_denseness_constant(F, w)
        assert dense is not None
        conn_k = es.graphs.uniform_connectedness_constant(g, w)
        rho = base_rho_measured(g)
        cert = es.certified_gap_bound(
            alpha=1.0 / len(g.alphabet), D=dense.D, R=F.max_length,
            conn_k=conn_k, rho=rho,
        )
        rho_f = product_rho_measured(g, F)
        assert rho_f <= cert.bound + 1e-9
        assert rho - rho_f > 0


class TestResolveCertificateSweep:
    def test_reachable_rho_and_sound_bound(self):
        # random strongly connected graphs, half of them with an unreachable
        # full-shift vertex "u" whose radius 1 must not enter the certificate
        rng = random.Random(20261018)
        certified = with_unreachable = 0
        for _ in range(300):
            g0 = random_det_scc_graph(rng, max_states=8, max_sigma=3)
            word = random_word_on_graph(rng, g0, max_len=3)
            if word is None:
                continue
            F = es.ForbiddenSet((word,))
            edges = [e for v in g0.vertex_list for e in g0.out_edges(v)]
            unreachable = rng.random() < 0.5
            if unreachable:
                edges += [("u", a, "u") for a in g0.alphabet]
            g = es.explicit_graph(g0.alphabet, edges, roots=[0])
            cert, scope, _D, _warnings = es.resolve_certificate(g, F)
            if cert is None:
                continue
            rho = base_rho_measured(g0)
            assert cert.rho == pytest.approx(rho, abs=1e-9)
            assert product_rho_measured(g0, F) <= cert.bound + 1e-9
            # the strict drop holds for the eigensolved rho (up to its few ulps of
            # error), not only for the Perron bracket's upper end
            assert scope == "global" and cert.bound < rho * (1 + 1e-13)
            certified += 1
            with_unreachable += unreachable
        assert certified >= 100 and with_unreachable >= 40


# each letter's move on the lattice, and the census depth of the sweep
LATTICES = {
    "line_Z": ({"l": (-1,), "r": (1,)}, 40),
    "grid_Z2": ({"d": (0, -1), "l": (-1, 0), "r": (1, 0), "u": (0, 1)}, 24),
}


class TestLatticeGrowth:
    """The exact restricted growth h_F on line_Z and grid_Z2 by an
    exponential tilt (``oracles.tilted_growth``): its closed forms, and a
    sweep over every one-word F of length 2-3 in which each certificate's
    h_bound lies above it and the census's last ratio within 1.1/N of it."""

    @pytest.mark.parametrize("family, words, exact, tol", [
        ("line_Z", [], math.log(2), 1e-9),
        ("grid_Z2", [], math.log(4), 1e-9),
        ("line_Z", ["rrl"], math.log(math.sqrt(2)), 1e-9),
        ("grid_Z2", ["rr"], math.log(2 + math.sqrt(3)), 1e-9),
        ("grid_Z2", ["rl"], math.log(2 + math.sqrt(3)), 1e-9),
        ("grid_Z2", ["ru"], 1.301345, 1e-6),
        ("grid_Z2", ["rur"], 1.369737, 1e-6),
        ("line_Z", ["rr"], 0.0, 1e-6),  # counts grow like n: the infimum is not attained
    ])
    def test_closed_forms(self, family, words, exact, tol):
        moves, _ = LATTICES[family]
        assert abs(tilted_growth(sorted(moves), moves, words) - exact) < tol

    @pytest.mark.parametrize("family", sorted(LATTICES))
    def test_one_word_certificates_and_censuses(self, family):
        moves, N = LATTICES[family]
        g = es.schreier_graph(es.builtin_family(family))
        x, sigma = g.roots[0], len(g.alphabet)
        words = ["".join(w) for n in (2, 3) for w in itertools.product(g.alphabet, repeat=n)]
        for word in words:
            h_f, F = tilted_growth(g.alphabet, moves, [word]), F_of([word], g.alphabet)
            cert, _, _, _ = es.resolve_certificate(g, F)
            assert cert is not None and cert.h_bound(sigma) >= h_f, word
            counts = es.count_words(g, x, x, N, forbidden=F)
            last_ratio = es.fit_log_growth(counts).last_ratio
            assert abs(last_ratio - h_f) <= 1.1 / N, word


class TestCertificateRegressions:
    def test_certificate_measures_the_part_reachable_from_x(self):
        # the root's part {0, 3} reads bb nowhere and has rho 0.80902 < 1, but
        # x = 1 carries both loops: its restricted growth is log(phi), which a
        # certificate measured on the root's part put above h_bound (0.40236)
        edges = [("0", "b", "0"), ("0", "a", "3"), ("3", "b", "0"),
                 ("1", "a", "1"), ("1", "b", "1")]
        g = es.explicit_graph(("a", "b"), edges, roots=["0"])
        F = F_of(["bb"], g.alphabet)
        h_f = es.fit_log_growth(es.count_words(g, "1", "1", 60, forbidden=F))
        cert, _, _, _ = es.resolve_certificate(g, F, "1")
        assert h_f.value == pytest.approx(math.log(PHI), abs=1e-3)
        assert cert.h_bound(2) >= math.log(PHI)
        part = es.explicit_graph(("a", "b"), edges[3:], roots=["1"])
        assert cert.rho == pytest.approx(base_rho_measured(part), abs=1e-12)
        assert product_rho_measured(part, F) <= cert.bound + 1e-9
        # x defaults to the root, whose part is measured as before
        root_cert, _, _, _ = es.resolve_certificate(g, F)
        assert root_cert.rho == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-12)


class TestResolveCertificateRules:
    """alpha is the uniform chain's 1/|alphabet|.  A finite graph's D,
    conn_k and rho are computed on its part reachable from x, whatever it
    declares; an infinite graph takes D = 0 when complete and reads conn_k
    and rho off its declaration."""

    def test_vertex_without_a_reader_gets_no_certificate(self, golden_mean):
        # v2 reads only b, so aba needs one step first: D = 1
        F = F_of(["aba"], golden_mean.alphabet)
        cert, scope, D, warnings = es.resolve_certificate(golden_mean, F)
        assert (cert.D, scope, D, warnings) == (1, "global", 1, [])
        # from 1 only the a-loop is read, and 1 never returns to 0
        g = es.explicit_graph(("a", "b"), [(0, "a", 0), (0, "b", 1), (1, "a", 1)], roots=[0])
        cert, scope, D, warnings = es.resolve_certificate(g, F_of(["b"], g.alphabet))
        assert (cert, scope, D) == (None, None, None)
        assert len(warnings) == 1 and "some vertex reaches no reader" in warnings[0]

    def test_finite_graph_ignores_its_declaration(self, golden_mean):
        F = F_of(["b"], golden_mean.alphabet)
        measured, _, D, _ = es.resolve_certificate(golden_mean, F)
        assert (measured.conn_k, D) == (1, 0)
        assert measured.rho == pytest.approx(PHI / 2, abs=1e-12)
        golden_mean.declared = replace(golden_mean.declared, conn_k=2, rho=0.9)
        cert, scope, D, _ = es.resolve_certificate(golden_mean, F)
        assert cert == measured and (D, scope) == (0, "global")

    def test_incomplete_infinite_graph_gets_no_certificate(self):
        # one out-edge per vertex over two symbols: bb is read nowhere
        ray = es.LabelledGraph(("a", "b"), lambda n: [es.Edge(n, "a", n + 1)], roots=[0],
                               declared=es.Declared(conn_k=1, rho=1.0))
        cert, scope, D, warnings = es.resolve_certificate(ray, F_of(["bb"], ray.alphabet))
        assert (cert, scope, D) == (None, None, None)
        assert len(warnings) == 1 and "not given by its action (act=)" in warnings[0]

    def test_product_of_a_complete_graph_declares_nothing(self, free2):
        # on the product of free2 with the ab-automaton, ab is read nowhere
        F = F_of(["ab"], free2.alphabet)
        product = es.product_graph(free2, es.FactorAutomaton(F, free2.alphabet))
        assert product.declared == es.Declared()
        cert, scope, D, warnings = es.resolve_certificate(product, F)
        assert (cert, scope, D) == (None, None, None)
        assert len(warnings) == 1 and "not given by its action (act=)" in warnings[0]

    def test_complete_family_needs_conn_k(self):
        spec = es.ActionSpec(
            alphabet=("l", "r"),
            act=lambda n, a: (n + (1 if a == "r" else -1)) % 5, root=0,
        )
        g, F = es.schreier_graph(spec), F_of(["rr"], spec.alphabet)
        cert, scope, D, warnings = es.resolve_certificate(g, F)
        assert (cert, scope, D) == (None, None, 0)
        assert len(warnings) == 1 and "no uniform-connectedness constant" in warnings[0]
        g.declared = replace(g.declared, conn_k=1)
        cert, scope, D, warnings = es.resolve_certificate(g, F)
        assert (cert.D, cert.conn_k, cert.rho, cert.stochastic_path) == (0, 1, 1.0, True)
        assert (scope, D, len(warnings)) == ("window", 0, 1)

    def test_undeclared_infinite_rho_is_one(self, free2):
        F = F_of(["ab"], free2.alphabet)
        cert, scope, _, warnings = es.resolve_certificate(free2, F)
        assert (cert.rho, cert.stochastic_path, scope) == (1.0, True, "window")
        assert len(warnings) == 1
