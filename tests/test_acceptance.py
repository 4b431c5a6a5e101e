"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with -s to see them inline).

Expected values are frozen from independent oracles computed in place:
exhaustive word enumeration, dense eigensolves on explicitly built
matrices, and exact rational arithmetic.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import entroscope as es

from oracles import (
    determinize,
    random_det_scc_graph,
    random_nfa,
    random_word_on_graph,
    readable_words,
    spectral_entropy,
)

PHI = (1 + math.sqrt(5)) / 2
LOG2 = math.log(2)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def fixture_zoo():
    b2 = es.explicit_graph(
        ["a", "b"], [("v", "a", "v"), ("v", "b", "v")], roots=["v"]
    )
    golden = es.explicit_graph(
        ["a", "b"],
        [("v1", "a", "v2"), ("v1", "b", "v1"), ("v2", "b", "v1")],
        roots=["v1"],
    )
    two_cycle = es.explicit_graph(
        ["a", "b"], [("x", "a", "y"), ("y", "b", "x")], roots=["x"]
    )
    three_cycle = es.explicit_graph(
        ["a", "b", "c"],
        [("0", "a", "1"), ("1", "b", "2"), ("2", "c", "0")],
        roots=["0"],
    )
    line = es.schreier_graph(es.builtin_family("line_Z"))
    return [
        (b2, "v", "v", ["aa"]),
        (golden, "v1", "v1", ["bb"]),
        (golden, "v1", "v2", ["ab"]),
        (two_cycle, "x", "y", ["ab"]),
        (three_cycle, "0", "0", ["abc"]),
        (line, 0, 0, ["rr"]),
    ]


def weighted_matrix(g, vertices):
    order = sorted(vertices, key=es.vertex_key)
    index = {v: i for i, v in enumerate(order)}
    M = np.zeros((len(order), len(order)))
    for v in order:
        for e in g.out_edges(v):
            M[index[v], index[e.target]] += 1.0 / len(g.alphabet)
    return M


def product_rho_measured(g, forbidden):
    """Oracle for sup_{x,y} rho_{x,y}(P_F): dense eigvals of the uniform
    product matrix over states reachable from every (x, start)."""
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
    M = weighted_matrix(pg, seen_set)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def test_criterion_1_full_shift_baseline():
    with criterion("1 full-shift baseline (h = log 2, spectral 1e-9 / count 1e-3, < 1 s)"):
        start = time.perf_counter()
        b2 = es.explicit_graph(
            ["a", "b"], [("v", "a", "v"), ("v", "b", "v")], roots=["v"]
        )
        assert abs(spectral_entropy(b2) - LOG2) < 1e-9
        counted = es.fit_log_growth(es.count_words(b2, "v", "v", 40))
        assert abs(counted.value - LOG2) < 1e-3
        assert time.perf_counter() - start < 1.0


def test_criterion_2_golden_mean_drop():
    with criterion("2 golden-mean drop (h^F = log phi 1e-6 spectral, gap 1e-3 vs n<=20 oracle)"):
        b2 = es.explicit_graph(
            ["a", "b"], [("v", "a", "v"), ("v", "b", "v")], roots=["v"]
        )
        F = es.ForbiddenSet.from_strings(["aa"], b2.alphabet)

        # independent oracle: exhaustive enumeration of binary words
        oracle_counts = [
            sum(1 for w in itertools.product("ab", repeat=n) if "aa" not in "".join(w))
            for n in range(21)
        ]
        assert es.count_words(b2, "v", "v", 20, forbidden=F) == tuple(oracle_counts)

        automaton = es.FactorAutomaton(F, b2.alphabet)
        product = es.product_graph(b2, automaton)
        assert abs(spectral_entropy(product) - math.log(PHI)) < 1e-6

        gap = (es.fit_log_growth(es.count_words(b2, "v", "v", 40)).value
               - es.fit_log_growth(es.count_words(b2, "v", "v", 40, forbidden=F)).value)
        assert abs(gap - 0.2119) < 1e-3
        assert abs(gap - (LOG2 - math.log(PHI))) < 1e-3


def test_criterion_3_k_step_row_sums_exact():
    with criterion("3 k-step restricted row sums exactly 3/4 (exact rationals, < 1 s)"):
        start = time.perf_counter()
        b2 = es.explicit_graph(
            ["a", "b"], [("v", "a", "v"), ("v", "b", "v")], roots=["v"]
        )
        chain_b2 = es.uniform_weights(b2)
        check = es.k_step_restricted_rowsum_check(
            chain_b2,
            es.ForbiddenSet.from_strings(["aa"], b2.alphabet),
            D=0, w=es.full_window(b2),
        )
        assert check.ok and check.k == 2
        assert set(check.rows.values()) == {Fraction(3, 4)}
        assert check.threshold == 1 - Fraction(1, 2) ** 2 == Fraction(3, 4)

        line = es.schreier_graph(es.builtin_family("line_Z"))
        chain_z = es.uniform_weights(line)
        check_z = es.k_step_restricted_rowsum_check(
            chain_z,
            es.ForbiddenSet.from_strings(["rr"], line.alphabet),
            D=0, w=es.forward_ball(line, 0, 3),
        )
        assert check_z.ok
        assert set(check_z.rows.values()) == {Fraction(3, 4)}
        assert time.perf_counter() - start < 1.0


def test_criterion_4_certificate_soundness_sweep():
    with criterion("4 certificate soundness sweep (200 random graphs, rho_F <= bound + 1e-9, < 60 s)"):
        start = time.perf_counter()
        rng = random.Random(20260810)
        accepted = 0
        attempts = 0
        while accepted < 200:
            attempts += 1
            assert attempts < 20000, "sweep generator starved"
            g = random_det_scc_graph(rng, max_states=8, max_sigma=3)
            word = random_word_on_graph(rng, g, max_len=3)
            if word is None:
                continue
            F = es.ForbiddenSet((word,))
            w = es.full_window(g)
            dense = es.estimate_denseness_constant(F, w)
            if dense is None:
                continue
            sigma = len(g.alphabet)
            alpha = 1.0 / sigma
            rho = float(np.max(np.abs(np.linalg.eigvals(weighted_matrix(g, g.vertex_list)))))
            if rho <= alpha + 1e-9:
                # single-out-degree graphs: the floor formula degenerates
                continue
            conn_k = es.graphs.uniform_connectedness_constant(g, w)
            assert conn_k is not None
            cert = es.certified_gap_bound(
                alpha=alpha, D=dense.D, R=F.max_length, conn_k=conn_k, rho=rho
            )
            rho_f = product_rho_measured(g, F)
            assert rho_f <= cert.bound + 1e-9, (
                f"bound violated: rho_F={rho_f} > bound={cert.bound} "
                f"(states={len(g.vertex_list)}, word={word})"
            )
            assert rho - rho_f > 0, f"no strict gap: rho={rho}, rho_F={rho_f}"
            accepted += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


def test_criterion_5_dictionary_identity_exact():
    with criterion("5 dictionary identity p^(n) * sigma^n = c_n (exact, n <= 15)"):
        for g, x, y, words in fixture_zoo():
            sigma = len(g.alphabet)
            ch = es.uniform_weights(g)
            for F in (None, es.ForbiddenSet.from_strings(words, g.alphabet)):
                counts = es.count_words(g, x, y, 15, forbidden=F)
                probs = es.probability_table(ch, x, y, 15, forbidden=F)
                for n in range(16):
                    assert probs[n] * sigma**n == counts[n]


def test_criterion_6_h_transform_identity():
    with criterion("6 h-transform (rows 1e-12, floor, rho identity 1e-6 exact both sides)"):
        golden = es.explicit_graph(
            ["a", "b"],
            [("v1", "a", "v2"), ("v1", "b", "v1"), ("v2", "b", "v1")],
            roots=["v1"],
            declared=es.Declared(conn_k=1),
        )
        rho = PHI / 2
        hv = es.HarmonicVector(
            rho_hat=rho,
            values={"v1": 1.0, "v2": 1 / PHI},
            residual=0.0,
            center="v1",
            radius=4,
        )
        ch = es.uniform_weights(golden)
        transformed = es.h_transform(ch, hv)

        for v in ("v1", "v2"):
            row = sum(transformed.weight(e) for e in golden.out_edges(v))
            assert abs(row - 1.0) <= 1e-12
        floor = (0.5 / rho) ** 2
        for v in ("v1", "v2"):
            for e in golden.out_edges(v):
                assert transformed.weight(e) >= floor - 1e-12

        # exact finite computation of the identity, for every 1-letter F
        index = {"v1": 0, "v2": 1}
        for letter in ("a", "b"):
            P_f = np.zeros((2, 2))
            Ph_f = np.zeros((2, 2))
            for v in ("v1", "v2"):
                for e in golden.out_edges(v):
                    if e.label == letter:
                        continue
                    P_f[index[v], index[e.target]] += 0.5
                    Ph_f[index[v], index[e.target]] += transformed.weight(e)
            lhs = float(np.max(np.abs(np.linalg.eigvals(Ph_f))))
            rhs = float(np.max(np.abs(np.linalg.eigvals(P_f)))) / rho
            assert abs(lhs - rhs) < 1e-6


def test_criterion_7_line_desk_experiment():
    with criterion("7 integer-line desk run (h ~ log 2 +- 0.05, drop, certificate, < 10 s)"):
        start = time.perf_counter()
        spec = es.builtin_family("line_Z")
        F = es.ForbiddenSet.from_strings(["rr"], spec.alphabet)
        g, x = es.schreier_graph(spec), spec.root
        h = es.fit_log_growth(es.count_words(g, x, x, 40))
        h_f = es.fit_log_growth(es.count_words(g, x, x, 40, forbidden=F))
        cert, scope, _, _ = es.resolve_certificate(g, F, x)
        assert abs(h.value - LOG2) < 0.05
        assert h_f.value < h.value - 0.05
        assert cert is not None
        assert cert.conn_k == 1
        assert cert.D == 0
        assert scope == "global"
        assert time.perf_counter() - start < 10.0


def test_criterion_8_determinization_soundness():
    with criterion("8 determinization soundness (50 random NFAs, words to length 8)"):
        rng = random.Random(8754)
        for _ in range(50):
            nfa = random_nfa(rng, max_states=5)
            w = es.full_window(nfa)
            dfa = determinize(nfa, w)
            ball = es.forward_ball(dfa, dfa.roots[0], 8)
            assert es.check_deterministic(ball.source, ball.label) == []
            assert readable_words(dfa, dfa.roots[0], 8) == readable_words(nfa, 0, 8)


def test_criterion_9_restricted_ck_and_mass_monotonicity():
    with criterion("9 restricted Chapman-Kolmogorov and mass monotonicity (exact, m, n <= 10)"):
        for g, x, y, words in fixture_zoo():
            ch = es.uniform_weights(g)
            F = es.ForbiddenSet.from_strings(words, g.alphabet)

            plain = es.initial_distribution(ch, x)
            restricted = es.initial_distribution(ch, x, F)
            for _ in range(10):
                plain = es.step(ch, plain)
                restricted = es.step(ch, restricted)
                assert restricted.total() <= plain.total() <= 1

            full_table = es.probability_table(ch, x, y, 20, forbidden=F)
            tails: dict = {}
            for m in range(1, 11):
                mid = es.n_step_vector(ch, x, m, forbidden=F).by_vertex()
                for z in mid:
                    if z not in tails:
                        tails[z] = es.probability_table(ch, z, y, 10, forbidden=F)
                for n in range(1, 11):
                    lhs = full_table[m + n]
                    rhs = sum(p * tails[z][n] for z, p in mid.items())
                    assert lhs <= rhs
