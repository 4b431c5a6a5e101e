import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import entroscope as es

from oracles import (
    brute_count,
    contains_factor,
    iter_paths,
    nearest_denseness_witnesses,
    random_det_scc_graph,
    random_nfa,
    random_word_on_graph,
    readers_by_sets,
    with_dangling_tail,
)


def make_forbidden(*words):
    return es.ForbiddenSet(tuple(tuple(w) for w in words))


words_strategy = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=3), min_size=1, max_size=3
).map(lambda ws: make_forbidden(*ws))


class TestFactorAutomaton:
    def test_double_a(self):
        A = es.FactorAutomaton(make_forbidden("aa"), ["a", "b"])
        assert len(A.states) == 3
        assert len(A.dead) == 1
        s_a = A.step(A.start, "a")
        assert A.step(s_a, "a") in A.dead
        assert A.step(s_a, "b") == A.start

    def test_ab(self):
        A = es.FactorAutomaton(make_forbidden("ab"), ["a", "b"])
        assert len(A.states) == 3
        s_a = A.step(A.start, "a")
        assert A.step(s_a, "b") in A.dead
        # another a keeps the a-prefix alive
        assert A.step(s_a, "a") == s_a

    # state i is the i-th prefix of F in order of first appearance; the table
    # gives step(i, a) and step(i, b).  Product vertex ids (v, state) show
    # these numbers, so they are pinned literally.
    @pytest.mark.parametrize("words, prefixes, dead, table", [
        (["aa"], ["", "a", "aa"], {2}, [(1, 0), (2, 0), (2, 2)]),
        (["ab"], ["", "a", "ab"], {2}, [(1, 0), (1, 2), (2, 2)]),
        (["aba", "bb"], ["", "a", "ab", "aba", "b", "bb"], {3, 5},
         [(1, 4), (1, 2), (3, 5), (3, 3), (1, 5), (5, 5)]),
        # a word that is a prefix of another: ab's state is dead through a
        (["a", "ab"], ["", "a", "ab"], {1, 2}, [(1, 0), (1, 1), (2, 2)]),
        (["abab", "bab"], ["", "a", "ab", "aba", "abab", "b", "ba", "bab"], {4, 7},
         [(1, 5), (1, 2), (3, 5), (1, 4), (4, 4), (6, 5), (1, 7), (7, 7)]),
    ])
    def test_pinned_tables(self, words, prefixes, dead, table):
        A = es.FactorAutomaton(make_forbidden(*words), ["a", "b"])
        assert A.states == tuple(range(len(prefixes))) and A.start == 0
        assert A.dead == frozenset(dead)
        assert [(A.step(s, "a"), A.step(s, "b")) for s in A.states] == table
        # a live state is reached by reading its own prefix
        assert all(A.run(p) == s for s, p in enumerate(prefixes) if s not in dead)

    def test_single_letter_alphabet(self):
        A = es.FactorAutomaton(make_forbidden("a"), ["a"])
        assert A.step(A.start, "a") in A.dead
        assert A.rejects("a")
        assert not A.rejects("")

    def test_dead_states_absorb(self):
        A = es.FactorAutomaton(make_forbidden("aa"), ["a", "b"])
        dead = A.run("aa")
        assert dead in A.dead
        assert A.step(dead, "b") == dead

    def test_state_count_bound(self):
        F = make_forbidden("aba", "bb", "a")
        A = es.FactorAutomaton(F, ["a", "b"])
        assert len(A.states) <= 1 + sum(len(w) for w in F.words)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(es.ForbiddenWordError):
            es.FactorAutomaton(make_forbidden("ac"), ["a", "b"])

    def test_membership_oracle_double_a(self):
        # frozen from the oracle: exhaustive words up to length 6
        A = es.FactorAutomaton(make_forbidden("aa"), ["a", "b"])
        for n in range(7):
            for u in itertools.product("ab", repeat=n):
                assert A.rejects(u) == contains_factor(u, [("a", "a")])

    def test_overlapping_patterns(self):
        # abab: the second ab starts inside the first aba-prefix match attempt
        A = es.FactorAutomaton(make_forbidden("aba", "bb"), ["a", "b"])
        for n in range(7):
            for u in itertools.product("ab", repeat=n):
                expected = contains_factor(u, [("a", "b", "a"), ("b", "b")])
                assert A.rejects(u) == expected

    @given(F=words_strategy)
    def test_membership_matches_oracle(self, F):
        A = es.FactorAutomaton(F, ["a", "b"])
        depth = F.max_length + 3
        for n in range(depth + 1):
            for u in itertools.product("ab", repeat=n):
                assert A.rejects(u) == contains_factor(u, F.words)


class TestForbiddenSetParsing:
    def test_per_character(self):
        F = es.ForbiddenSet.from_strings(["aa", "ab"], ["a", "b"])
        assert F.words == (("a", "a"), ("a", "b"))
        assert F.max_length == 2

    def test_comma_separated(self):
        F = es.ForbiddenSet.from_strings(["up,up"], ["up", "down"])
        assert F.words == (("up", "up"),)

    def test_unknown_symbol(self):
        with pytest.raises(es.ForbiddenWordError):
            es.ForbiddenSet.from_strings(["ax"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(es.ForbiddenWordError):
            es.ForbiddenSet(())


class TestProductGraph:
    def test_full_shift_avoid_double_a(self, b2):
        F = make_forbidden("aa")
        A = es.FactorAutomaton(F, b2.alphabet)
        pg = es.product_graph(b2, A)
        start = ("v", A.start)
        out = pg.out_edges(start)
        assert [(e.label, e.target[0]) for e in out] == [("a", "v"), ("b", "v")]
        (state_a,) = [e.target for e in out if e.label == "a"]
        # from the a-state only b survives
        assert [e.label for e in pg.out_edges(state_a)] == ["b"]
        assert pg.out_edges(state_a)[0].target == start

    def test_forbid_whole_alphabet(self, b2):
        A = es.FactorAutomaton(make_forbidden("a", "b"), b2.alphabet)
        pg = es.product_graph(b2, A)
        assert pg.out_edges(("v", A.start)) == ()

    @pytest.mark.parametrize("n", range(7))
    def test_line_no_double_right_bijection(self, line_z, n):
        F = make_forbidden("rr")
        A = es.FactorAutomaton(F, line_z.alphabet)
        pg = es.product_graph(line_z, A, roots=[0])
        for y in (-n, -1, 0, 1, n):
            product_count = sum(
                1 for _w, end in iter_paths(pg, (0, A.start), n) if end[0] == y
            )
            assert product_count == brute_count(line_z, 0, y, n, F.words)

    def test_alphabet_mismatch(self, b2):
        A = es.FactorAutomaton(make_forbidden("rr"), ["r", "l"])
        with pytest.raises(es.ForbiddenWordError):
            es.product_graph(b2, A)

    @given(F=words_strategy)
    def test_bijection_on_golden_mean(self, F):
        gm = es.explicit_graph(
            ["a", "b"],
            [("v1", "a", "v2"), ("v1", "b", "v1"), ("v2", "b", "v1")],
            roots=["v1"],
        )
        A = es.FactorAutomaton(F, gm.alphabet)
        pg = es.product_graph(gm, A, roots=["v1"])
        for n in range(5):
            for y in ("v1", "v2"):
                product_count = sum(
                    1 for _w, end in iter_paths(pg, ("v1", A.start), n) if end[0] == y
                )
                assert product_count == brute_count(gm, "v1", y, n, F.words)


def cycle_z(n):
    """The line's quotient Z/n: r steps i -> i + 1, l steps back."""
    edges = [(i, "r", (i + 1) % n) for i in range(n)] + [((i + 1) % n, "l", i) for i in range(n)]
    return es.explicit_graph(["l", "r"], edges, roots=[0])


class TestDenseness:
    def test_full_shift_distance_zero(self, b2):
        w = es.forward_ball(b2, "v", 2)
        cert = es.certify_denseness(make_forbidden("aa"), 0, w)
        assert isinstance(cert, es.DensenessCertificate)
        assert cert.distances == {"v": 0}

    def test_cycle_distance_zero(self):
        w = es.full_window(cycle_z(5))
        cert = es.certify_denseness(make_forbidden("rr"), 0, w)
        assert isinstance(cert, es.DensenessCertificate)
        assert cert.distances == dict.fromkeys(w.distances, 0)

    def test_absent_letter_fails_everywhere(self):
        g = es.explicit_graph(
            ["a", "b"],
            [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "0")],
            roots=["0"],
        )
        w = es.full_window(g)
        result = es.certify_denseness(make_forbidden("b"), 4, w)
        assert result == sorted(w.vertices)

    def test_two_cycle_needs_distance_one(self, two_cycle):
        # frozen by hand enumeration: from x the word ab reads immediately,
        # from y one must first step to x
        w = es.full_window(two_cycle)
        F = make_forbidden("ab")
        assert es.certify_denseness(F, 0, w) == ["y"]
        cert = es.estimate_denseness_constant(F, w)
        assert cert.D == 1 and cert.distances == {"x": 0, "y": 1}

    def test_smallest_constant_full_shift(self, b2):
        w = es.forward_ball(b2, "v", 2)
        cert = es.estimate_denseness_constant(make_forbidden("aa"), w)
        assert cert.D == 0

    def test_monotone_in_distance(self, two_cycle):
        w = es.full_window(two_cycle)
        F = make_forbidden("ab")
        for D in (1, 2, 3):
            assert isinstance(es.certify_denseness(F, D, w), es.DensenessCertificate)

    def test_open_window_is_refused(self, line_z):
        w = es.forward_ball(line_z, 0, 3)
        with pytest.raises(ValueError, match="closed windows"):
            es.certify_denseness(make_forbidden("rr"), 0, w)
        with pytest.raises(ValueError, match="closed windows"):
            es.estimate_denseness_constant(make_forbidden("rr"), w)

    def test_runs_no_graph_search(self, monkeypatch):
        # one backward sweep of the window's own edges, no breadth-first search
        # (the layered kernel on finite graphs; lazy ones grow by ``expand``)
        calls = []
        search = es.graphs.layered_search
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entroscope"]:
            if getattr(module, "layered_search", None) is search:
                monkeypatch.setattr(module, "layered_search", lambda *args, **kwargs:
                                    calls.append(args[1]) or search(*args, **kwargs))
        w = es.full_window(cycle_z(7))
        assert len(calls) == 1  # the patch takes: full_window searches once
        cert = es.estimate_denseness_constant(make_forbidden("rrl", "ll"), w)
        assert cert.D == 0 and len(calls) == 1

    def test_readers_match_the_set_pass(self):
        # at D = 0 the covered vertices are the readers, the rest come back
        rng = random.Random(16)
        for i in range(150):
            g = random_det_scc_graph(rng) if i % 3 else random_nfa(rng)
            if i % 3 == 1:
                g = with_dangling_tail(rng, g)
            w = es.full_window(g)
            words = {random_word_on_graph(rng, g) for _ in range(rng.choice((1, 2, 3)))}
            words |= {tuple(rng.choices(g.alphabet, k=rng.randint(1, 3)))}
            F = es.ForbiddenSet(words=tuple(sorted(wd for wd in words if wd)))
            cert = es.certify_denseness(F, 0, w)
            covered = (w.vertices if isinstance(cert, es.DensenessCertificate)
                       else w.vertices - set(cert))
            assert covered == readers_by_sets(F.words, w)

    def test_matches_reference_search(self):
        rng = random.Random(4)
        seen_D = set()
        for i in range(200):
            g = random_det_scc_graph(rng)
            if i % 2:
                g = with_dangling_tail(rng, g)
            draws = [random_word_on_graph(rng, g) for _ in range(rng.choice((1, 2)))]
            words = [w for w in dict.fromkeys(draws) if w] or [(g.alphabet[0],)]
            F = es.ForbiddenSet(words=tuple(words))
            w = es.full_window(g)
            order = list(w.distances)
            for D in range(4):
                ref = nearest_denseness_witnesses(g, F.words, order, D)
                result = es.certify_denseness(F, D, w)
                uncovered = [x for x in order if ref[x] is None]
                if uncovered:
                    assert result == uncovered
                    continue
                assert result.D == D and list(result.distances) == order
                assert result.distances == {x: ref[x][2] for x in order}
            # uncapped: no distance in the closed window reaches its size
            ref = nearest_denseness_witnesses(g, F.words, order, len(order))
            expected = (
                None if None in ref.values() else max(r[2] for r in ref.values())
            )
            cert = es.estimate_denseness_constant(F, w)
            assert (None if cert is None else cert.D) == expected
            seen_D.add(expected)
        # the draws reach uncovered windows and D > 0
        assert {None, 0, 1, 2, 3} <= seen_D
