import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import entroscope as es
from entroscope.growth import InsufficientData

from oracles import (
    brute_census, determinize, dict_census, lazy_reach, random_det_scc_graph, random_nfa,
    readable_words, shared_pairs, spectral_entropy, with_dangling_tail,
)

PHI = (1 + math.sqrt(5)) / 2

forbidden_sets = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=3), min_size=1, max_size=2
).map(lambda ws: es.ForbiddenSet(tuple(tuple(w) for w in ws)))


class TestCountWords:
    def test_full_shift_plain(self, b2):
        c = es.count_words(b2, "v", "v", 3)
        assert c == (1, 2, 4, 8)

    def test_counts_are_the_path_counts(self, golden_mean, line_z):
        F = es.ForbiddenSet.from_strings(["aa"], golden_mean.alphabet)
        for g, x, y, forbidden in ((golden_mean, "v1", "v2", None),
                                   (golden_mean, "v1", "v1", F), (line_z, 0, 2, None)):
            assert es.count_words(g, x, y, 12, forbidden=forbidden) == tuple(
                es.census.path_counts(g, x, y, 12, forbidden=forbidden))

    def test_full_shift_fibonacci(self, b2):
        F = es.ForbiddenSet.from_strings(["aa"], b2.alphabet)
        expected = tuple(brute_census(b2, "v", "v", 6, F.words))
        assert expected == (1, 2, 3, 5, 8, 13, 21)
        assert es.count_words(b2, "v", "v", 6, forbidden=F) == expected

    def test_line_central_binomials(self, line_z):
        expected = tuple(brute_census(line_z, 0, 0, 4))
        assert expected == (1, 0, 2, 0, 6)
        assert es.count_words(line_z, 0, 0, 4) == expected

    def test_empty_word_count(self, two_cycle):
        assert es.count_words(two_cycle, "x", "y", 2)[0] == 0
        assert es.count_words(two_cycle, "x", "x", 2)[0] == 1

    def test_nondeterministic_rejected(self):
        g = es.explicit_graph(["a"], [("x", "a", "y"), ("x", "a", "z")], roots=["x"])
        with pytest.raises(es.NondeterministicWindow):
            es.count_words(g, "x", "y", 2)

    def test_a_finite_graph_is_never_complete(self):
        # completeness is a graph's action, not a declaration: this finite
        # graph has no action, so the census checks it and refuses to count
        # its paths (1, 1, 2, 3, 5, 8, 13) as words
        g = es.explicit_graph(["a"], [(0, "a", 0), (0, "a", 1), (1, "a", 0)], roots=[0])
        with pytest.raises(es.NondeterministicWindow):
            es.count_words(g, 0, 0, 6)
        assert g.complete is False
        with pytest.raises(AttributeError):
            g.complete = True
        with pytest.raises(TypeError):
            es.Declared(complete=True)

    @staticmethod
    def fork_at(d):
        """Path 0 -a-> 1 -a-> ... -a-> 6 with b-edges back to 0 and two
        c-edges at vertex d, which is at distance d from 0."""
        edges = [(i, "a", i + 1) for i in range(6)] + [(i, "b", 0) for i in range(7)]
        return es.explicit_graph(["a", "b", "c"], edges + [(d, "c", 0), (d, "c", d)], roots=[0])

    def test_fork_at_distance_N_is_counted(self):
        g = self.fork_at(4)
        assert es.count_words(g, 0, 0, 4) == tuple(brute_census(g, 0, 0, 4))
        F = es.ForbiddenSet.from_strings(["ab"], g.alphabet)
        restricted = es.count_words(g, 0, 0, 4, forbidden=F)
        assert restricted == tuple(brute_census(g, 0, 0, 4, F.words))

    def test_fork_at_distance_N_minus_1_is_rejected(self):
        with pytest.raises(es.NondeterministicWindow, match="3, 'c'"):
            es.count_words(self.fork_at(3), 0, 0, 4)

    @pytest.mark.parametrize(
        "fixture,x,y", [("golden_mean", "v1", "v1"), ("two_cycle", "x", "y"), ("line_z", 0, 1)]
    )
    def test_oracle_equivalence(self, fixture, x, y, request):
        g = request.getfixturevalue(fixture)
        assert es.count_words(g, x, y, 8) == tuple(brute_census(g, x, y, 8))

    @pytest.mark.parametrize("words", [["aa"], ["ab"], ["ba", "bb"], ["aba"]])
    def test_oracle_equivalence_forbidden(self, golden_mean, words):
        F = es.ForbiddenSet.from_strings(words, golden_mean.alphabet)
        got = es.count_words(golden_mean, "v1", "v1", 8, forbidden=F)
        assert got == tuple(brute_census(golden_mean, "v1", "v1", 8, F.words))

    @given(F=forbidden_sets)
    def test_forbidding_never_increases_counts(self, F):
        b2 = es.explicit_graph(
            ["a", "b"], [("v", "a", "v"), ("v", "b", "v")], roots=["v"]
        )
        plain = es.count_words(b2, "v", "v", 8)
        restricted = es.count_words(b2, "v", "v", 8, forbidden=F)
        assert all(cf <= c for cf, c in zip(restricted, plain))

    def test_product_consistency(self, golden_mean):
        F = es.ForbiddenSet.from_strings(["ab"], golden_mean.alphabet)
        A = es.FactorAutomaton(F, golden_mean.alphabet)
        pg = es.product_graph(golden_mean, A, roots=["v1"])
        start = ("v1", A.start)
        states = es.forward_ball(pg, start, 8).vertices
        for n in range(9):
            direct = es.count_words(golden_mean, "v1", "v1", n, forbidden=F)[n]
            via_product = sum(
                es.count_words(pg, start, q, n)[n]
                for q in states
                if q[0] == "v1"
            )
            assert direct == via_product


class TestPathCounts:
    @pytest.fixture
    def plans(self, monkeypatch):
        """Every census's ((d, states, bound), (L, moduli)) from ``_moduli``,
        checked on teardown: pairwise coprime moduli below 2**b whose product
        exceeds the bound, with d**L * 2**b and states * 2**b within 2**63."""
        plans, moduli = [], es.census._moduli
        monkeypatch.setattr(es.census, "_moduli",
                            lambda *args: plans.append((args, moduli(*args))) or plans[-1][1])
        yield plans
        assert plans
        for (d, states, bound), (L, ms) in plans:
            b = max(ms).bit_length()
            assert all(math.gcd(p, q) == 1 for p, q in itertools.combinations(ms, 2))
            assert d**L * 2**b <= 2**63 and states * 2**b <= 2**63
            assert math.prod(ms) > bound

    def test_full_shift_beyond_int64(self, b2, plans):
        counts = es.count_words(b2, "v", "v", 200)
        assert counts == tuple(2**n for n in range(201))
        # 2**200 takes four 51-bit moduli, reduced every 12 products
        assert plans[0][0] == (2, 1, 2**200)
        L, moduli = plans[0][1]
        assert L == 12 and len(moduli) == 4 and max(moduli) < 2**51
        F = es.ForbiddenSet.from_strings(["aa"], b2.alphabet)
        restricted = es.count_words(b2, "v", "v", 200, forbidden=F)
        assert restricted[200] > 2**64
        assert list(restricted) == dict_census(b2, "v", "v", 200, F.words)

    def test_in_degree_nine_through_parallel_labels(self, plans):
        # v sends all nine labels to w and w all nine back: every state has
        # in-degree 9, so residues are reduced every 3 products
        alphabet = "abcdefghi"
        edges = [(s, a, t) for s, t in (("v", "w"), ("w", "v")) for a in alphabet]
        g = es.explicit_graph(alphabet, edges, roots=["v"])
        assert es.count_words(g, "v", "v", 40) == tuple(
            9**n * (n % 2 == 0) for n in range(41))
        assert plans[0][0][0] == 9 and plans[0][1][0] == 3
        F = es.ForbiddenSet.from_strings(["ab", "ca", "iii"], alphabet)
        for y in ("v", "w"):
            counts = list(es.count_words(g, "v", y, 40, forbidden=F))
            assert counts == dict_census(g, "v", y, 40, F.words)
            assert counts[:5] == brute_census(g, "v", y, 4, F.words)
        assert counts[39] > 2**63

    def test_many_automaton_states_over_y(self, b2, plans):
        # twelve words of length 8 leave dozens of automaton states over v,
        # each holding its own residues; the census sums them after the loop
        rng = random.Random(3)
        words = ["".join(rng.choice("ab") for _ in range(8)) for _ in range(12)]
        F = es.ForbiddenSet.from_strings(words, b2.alphabet)
        counts = es.census.path_counts(b2, "v", "v", 100, forbidden=F)
        assert plans[-1][0][1] > 50
        assert counts == dict_census(b2, "v", "v", 100, F.words)
        assert counts[:13] == brute_census(b2, "v", "v", 12, F.words)
        assert counts[100] > 2**63

    def test_moduli_leave_room_for_the_sum_over_many_states(self):
        # 2**20 states over y leave 43-bit moduli, reduced every 10 products at d = 4
        L, moduli = es.census._moduli(4, 2**20, 4**100)
        assert max(moduli) < 2**43 <= 2 * max(moduli) and L == 10
        assert math.prod(moduli) > 4**100

    def test_two_labels_to_one_target(self):
        g = es.explicit_graph(
            ["a", "b"], [("v", "a", "w"), ("v", "b", "w"), ("w", "a", "v")], roots=["v"]
        )
        counts = es.count_words(g, "v", "v", 12)
        assert counts[:5] == (1, 0, 2, 0, 4)
        assert list(counts) == dict_census(g, "v", "v", 12) == brute_census(g, "v", "v", 12)

    def test_targets_on_and_outside_the_shell(self, line_z, b2):
        # 3 is on the outer shell of the radius-3 ball, reached by rrr only
        assert es.count_words(line_z, 0, 3, 3) == (0, 0, 0, 1)
        G = es.ForbiddenSet.from_strings(["rl"], line_z.alphabet)
        assert es.count_words(line_z, 0, 3, 3, forbidden=G) == (0, 0, 0, 1)
        F = es.ForbiddenSet.from_strings(["rr"], line_z.alphabet)
        assert es.count_words(line_z, 0, 5, 3) == (0, 0, 0, 0)
        assert es.count_words(line_z, 0, 5, 3, forbidden=F) == (0, 0, 0, 0)
        assert es.count_words(line_z, 0, 0, 0, forbidden=F) == (1,)
        assert es.count_words(line_z, 0, 1, 0) == (0,)
        assert es.count_words(b2, "v", "v", 0) == (1,)

    def test_random_dfas(self):
        rng = random.Random(6)
        for _ in range(100):
            g = random_det_scc_graph(rng)
            x, y = rng.choice(g.vertex_list), rng.choice(g.vertex_list)
            words = [
                "".join(rng.choice(g.alphabet) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            ]
            F = es.ForbiddenSet.from_strings(words, g.alphabet)
            assert list(es.count_words(g, x, y, 60)) == dict_census(g, x, y, 60)
            restricted = es.count_words(g, x, y, 60, forbidden=F)
            assert list(restricted) == dict_census(g, x, y, 60, F.words)

    @pytest.mark.parametrize("words", [None, ["aa"], ["ab", "bbb"]])
    def test_uniform_probability_table(self, golden_mean, words):
        F = words and es.ForbiddenSet.from_strings(words, golden_mean.alphabet)
        table = es.probability_table(es.uniform_weights(golden_mean), "v1", "v1", 30, F)
        counts = es.count_words(golden_mean, "v1", "v1", 30, forbidden=F)
        assert table == [Fraction(c, 2**n) for n, c in enumerate(counts)]

    def test_uniform_table_counts_paths_without_determinism(self):
        g = es.explicit_graph(
            ["a", "b"], [("x", "a", "y"), ("x", "a", "x"), ("y", "b", "x")], roots=["x"]
        )
        table = es.probability_table(es.uniform_weights(g), "x", "x", 10)
        assert table == [Fraction(c, 2**n) for n, c in enumerate(brute_census(g, "x", "x", 10))]

    def test_product_search_respects_budget(self, b2):
        # the base ball has one vertex, the product three states
        F = es.ForbiddenSet.from_strings(["aaa"], b2.alphabet)
        b2.budget = 3
        assert es.count_words(b2, "v", "v", 5, forbidden=F)[5] == 24
        b2.budget = 2
        with pytest.raises(es.ExpansionBudgetExceeded):
            es.count_words(b2, "v", "v", 5, forbidden=F)

    def test_memoized_reach_keeps_its_budget(self, grid_z2):
        # the radius-8 product ball holds more than 20 states
        F = es.ForbiddenSet.from_strings(["ru"], grid_z2.alphabet)
        origin = (0, 0)
        counts = es.census.path_counts(grid_z2, origin, origin, 8, forbidden=F)
        assert counts == dict_census(grid_z2, origin, origin, 8, F.words)
        grid_z2.budget = 20
        with pytest.raises(es.ExpansionBudgetExceeded):
            es.census.path_counts(grid_z2, origin, origin, 8, forbidden=F)
        with pytest.raises(es.ExpansionBudgetExceeded):
            es.census.path_weights(grid_z2, origin, origin, 8,
                                   lambda vertices, s, a, t: [0.25] * len(s), forbidden=F)
        grid_z2.budget = es.DEFAULT_BUDGET
        assert es.census.path_counts(grid_z2, origin, origin, 8, forbidden=F) == counts

    def test_reach_memo_lives_on_the_graph(self):
        spec = es.builtin_family("grid_Z2")
        g = es.schreier_graph(spec)
        es.census.path_counts(g, (0, 0), (1, 1), 6)
        assert list(g.reaches) == [((0, 0), 6, None, es.DEFAULT_BUDGET)]
        assert es.schreier_graph(spec).reaches == {}

    @pytest.mark.parametrize("k", [3, 5])
    def test_lazy_reduction_at_odd_in_degree(self, k):
        # each vertex sends label i to vertex i: in-degree k, so residues are
        # reduced every 6 (k = 3) or 4 (k = 5) products
        alphabet = "abcde"[:k]
        edges = [(v, a, i) for v in range(k) for i, a in enumerate(alphabet)]
        g = es.explicit_graph(alphabet, edges, roots=[0])
        for x in range(k):
            for y in range(k):
                expected = [int(x == y)] + [k ** (n - 1) for n in range(1, 151)]
                assert es.census.path_counts(g, x, y, 150) == expected
        F = es.ForbiddenSet.from_strings(["ab" + alphabet[-1]], alphabet)
        expected = dict_census(g, 0, 1, 100, F.words)
        assert es.census.path_counts(g, 0, 1, 100, forbidden=F) == expected

    def test_column_sum_guard(self, b2, monkeypatch):
        # b2's one column sums to 2 * scale: counted exactly below 2**32, with
        # residues reduced after every product, and refused at it
        adjacency = es.linalg.adjacency
        scale = 2**31 - 1
        monkeypatch.setattr(es.linalg, "adjacency", lambda *args: adjacency(*args) * scale)
        assert es.count_words(b2, "v", "v", 8) == tuple((2 * scale) ** n for n in range(9))
        monkeypatch.setattr(es.linalg, "adjacency", lambda *args: adjacency(*args) * 2**31)
        with pytest.raises(es.census.CountRangeError):
            es.count_words(b2, "v", "v", 8)


def _reach_cases():
    """(graph, x, y, N, forbidden set or None): a seeded sweep over random
    finite graphs, deterministic, nondeterministic and reducible ones, and
    the built-in families, with F of words of length <= 3."""
    rng = random.Random(2024)
    cases = []
    for i in range(60):
        g = [
            lambda: random_det_scc_graph(rng),
            lambda: random_nfa(rng),
            lambda: with_dangling_tail(rng, random_det_scc_graph(rng)),
        ][i % 3]()
        cases.append((g, 0, rng.choice(g.vertex_list), rng.randint(0, 12)))
    families = [("grid_Z2", (0, 0), 12), ("grid_Z2", (1, 1), 9), ("line_Z", 0, 12),
                ("line_Z", 3, 11), ("free2_mod_cyclic", "", 7), ("free2_mod_cyclic", "b", 6)]
    for name, y, N in families:
        spec = es.builtin_family(name)
        cases += [(es.schreier_graph(spec), spec.root, y, N) for _ in range(3)]
    for g, x, y, N in cases:
        words = {
            tuple(rng.choice(g.alphabet) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        }
        F = None if rng.random() < 0.2 else es.ForbiddenSet(tuple(sorted(words)))
        yield g, x, y, N, F


class TestArrayReach:
    """The census's index-array search against the breadth-first search of
    the lazy product graph."""

    def test_sweep_matches_the_lazy_product_search(self):
        for g, x, y, N, F in _reach_cases():
            reach, at_y = es.census._reach(g, x, y, N, F)
            states, edges = lazy_reach(g, x, N, F)
            assert [reach.state_at(i) for i in range(len(reach.vertex))] == states
            # the states over y, none when y lies beyond N
            assert at_y.tolist() == [i for i, s in enumerate(states)
                                     if (s if F is None else s[0]) == y]
            assert [
                (reach.state_at(s), g.alphabet[a], reach.state_at(t))
                for s, a, t in zip(reach.source, reach.label, reach.target)
            ] == [tuple(e) for e in edges]
            expected = dict_census(g, x, y, N, F.words if F else ())
            assert es.census.path_counts(g, x, y, N, forbidden=F) == expected
            violations = shared_pairs(edges)
            assert [(reach.state_at(s), g.alphabet[a])
                    for s, a in es.check_deterministic(reach.source, reach.label)] == violations
            if violations:
                with pytest.raises(es.NondeterministicWindow) as info:
                    es.count_words(g, x, y, N, forbidden=F)
                assert info.value.violations == violations
            else:
                assert list(es.count_words(g, x, y, N, forbidden=F)) == expected

    def test_weights_are_read_per_base_edge(self):
        # a weighted sum over the lazy product's edges, each weighed by its base edge
        for g, x, y, N, F in _reach_cases():
            weight = lambda e: 1.0 / (2 + len(es.vertex_key(e.target)) + g.alphabet.index(e.label))
            states, edges = lazy_reach(g, x, N, F)
            at_y = [s for s in states if (s if F is None else s[0]) == y]
            mass = {states[0]: 1.0}
            expected = [mass.get(s, 0.0) for s in at_y]
            table = [sum(expected)]
            for _ in range(N):
                nxt = dict.fromkeys(states, 0.0)
                for e in edges:
                    base = e if F is None else es.Edge(e.source[0], e.label, e.target[0])
                    nxt[e.target] += mass.get(e.source, 0.0) * weight(base)
                mass = nxt
                table.append(sum(mass[s] for s in at_y))
            got = es.census.path_weights(
                g, x, y, N, lambda *columns: list(map(weight, es.graphs.edge_list(
                    columns[0], g.alphabet, *columns[1:]))), forbidden=F)
            assert got == pytest.approx(table, rel=1e-12, abs=1e-300)


class TestDeterminize:
    def test_already_deterministic(self, golden_mean):
        w = es.full_window(golden_mean)
        dfa = determinize(golden_mean, w)
        assert dfa.roots == (("v1",),)
        assert readable_words(dfa, dfa.roots[0], 6) == readable_words(
            golden_mean, "v1", 6
        )

    def test_subset_vertex_after_collision(self):
        g = es.explicit_graph(
            ["a"], [("x", "a", "y"), ("x", "a", "z")], roots=["x"]
        )
        w = es.full_window(g)
        dfa = determinize(g, w)
        (edge,) = dfa.out_edges(("x",))
        assert edge.target == ("y", "z")

    def test_three_state_nfa_language_equal(self):
        nfa = es.explicit_graph(
            ["a", "b"],
            [
                ("0", "a", "1"),
                ("0", "a", "2"),
                ("1", "b", "0"),
                ("2", "b", "2"),
                ("2", "a", "1"),
            ],
            roots=["0"],
        )
        w = es.full_window(nfa)
        dfa = determinize(nfa, w)
        ball = es.forward_ball(dfa, dfa.roots[0], 8)
        assert es.check_deterministic(ball.source, ball.label) == []
        assert readable_words(dfa, dfa.roots[0], 8) == readable_words(nfa, "0", 8)


class TestEntropyFromCounts:
    def test_fibonacci_slope(self, b2):
        F = es.ForbiddenSet.from_strings(["aa"], b2.alphabet)
        census = es.count_words(b2, "v", "v", 30, forbidden=F)
        fit = es.fit_log_growth(census)
        assert abs(fit.value - math.log(PHI)) < 0.01

    def test_full_shift_exact_line(self, b2):
        fit = es.fit_log_growth(es.count_words(b2, "v", "v", 40))
        assert abs(fit.value - math.log(2)) < 1e-9
        assert fit.residual < 1e-9

    def test_line_period_two(self, line_z):
        fit = es.fit_log_growth(es.count_words(line_z, 0, 0, 40))
        assert fit.period == 2
        assert abs(fit.value - math.log(2)) < 0.05

    def test_finite_language_sentinel(self, b2):
        F = es.ForbiddenSet.from_strings(["a", "b"], b2.alphabet)
        census = es.count_words(b2, "v", "v", 10, forbidden=F)
        assert census == (1,) + (0,) * 10
        fit = es.fit_log_growth(census)
        assert fit.finite
        assert fit.value == float("-inf")

    def test_insufficient_data(self, b2):
        with pytest.raises(InsufficientData):
            es.fit_log_growth(es.count_words(b2, "v", "v", 0))

    def test_last_ratio_diagnostic(self, b2):
        fit = es.fit_log_growth(es.count_words(b2, "v", "v", 30))
        assert abs(fit.last_ratio - math.log(2)) < 1e-12


class TestSpectralEntropy:
    """The entropy of a finite deterministic graph on the spectral path
    certificates use, against closed forms and the counts."""

    def test_full_shift(self, b2):
        assert abs(spectral_entropy(b2) - math.log(2)) < 1e-12

    def test_golden_mean(self, golden_mean):
        assert abs(spectral_entropy(golden_mean) - math.log(PHI)) < 1e-9

    def test_three_cycle_zero(self, three_cycle):
        assert abs(spectral_entropy(three_cycle)) < 1e-12

    def test_acyclic_is_a_finite_language(self):
        g = es.explicit_graph(["a"], [("x", "a", "y")], roots=["x"])
        assert spectral_entropy(g) == float("-inf")

    def test_dangling_tail_keeps_the_entropy(self):
        # a tail ending in a sink adds only one-vertex components without loops
        gm = es.explicit_graph(["a", "b"], [(0, "a", 1), (0, "b", 0), (1, "b", 0)], roots=[0])
        checked = 0
        for seed in range(40):
            g = with_dangling_tail(random.Random(seed), gm)
            w = es.full_window(g)
            if not es.check_deterministic(w.source, w.label) and any(
                    not g.out_edges(v) for v in w.vertices):
                assert abs(spectral_entropy(g) - math.log(PHI)) < 1e-12
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("fixture", ["b2", "golden_mean", "three_cycle"])
    def test_count_agreement(self, fixture, request):
        g = request.getfixturevalue(fixture)
        root = g.roots[0]
        counted = es.fit_log_growth(es.count_words(g, root, root, 40), tail=20)
        assert abs(spectral_entropy(g) - counted.value) < 0.02


class TestGapReport:
    def test_golden_mean_drop(self, b2):
        F = es.ForbiddenSet.from_strings(["aa"], b2.alphabet)
        report = es.entropy_gap_report(b2, "v", "v", F, 40)
        assert abs(report.h.value - math.log(2)) < 1e-9
        assert abs(report.h_forbidden.value - math.log(PHI)) < 1e-4
        assert abs(report.gap - (math.log(2) - math.log(PHI))) < 1e-3
        assert report.certificate is not None
        assert report.certificate.bound < 1.0
        assert report.certificate_scope == "global"

    def test_polynomial_survivor(self, b2):
        # words avoiding ab are b^i a^j: exactly n + 1 per length
        F = es.ForbiddenSet.from_strings(["ab"], b2.alphabet)
        report = es.entropy_gap_report(b2, "v", "v", F, 40)
        assert report.counts_forbidden == tuple(range(1, 42))
        assert report.h_forbidden.value < 0.05
        assert abs(report.gap - math.log(2)) < 0.05

    def test_undense_forbidden_warns(self):
        # b is in the alphabet but labels no edge, so forbidding it is free
        g = es.explicit_graph(
            ["a", "b"],
            [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "0")],
            roots=["0"],
        )
        F = es.ForbiddenSet.from_strings(["b"], g.alphabet)
        report = es.entropy_gap_report(g, "0", "0", F, 30)
        assert report.certificate is None
        assert report.gap == 0
        assert any("dense" in w for w in report.warnings)
        assert any("drop" in w for w in report.warnings)
