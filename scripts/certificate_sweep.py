#!/usr/bin/env python3
"""Soundness sweep of the certificates the program emits over random finite
automata.

Generates random deterministic strongly connected graphs, half of them
with a second such part that holds the start vertex x while the root stays
in the first, forbids a random word readable in x's part (one draw in ten
is instead a long cycle or path with one reader of c, forbidding a power
of c, so that denseness constants above 8 are checked too), takes the
certificate ``resolve_certificate`` assembles for the words from x (None
counts as skipped), and compares the measured restricted spectral radius
(dense eigensolve on the product graph over x's part) against its bound,
and, for a certificate of scope "global", the bound against the measured
spectral radius of x's part (the strict drop bound < rho).  Prints
worst-case margins and exits 1 on any violation.
"""

import argparse
import random
import sys

import numpy as np

import entroscope as es


def weighted_matrix(g, vertices):
    order = sorted(vertices, key=es.vertex_key)
    index = {v: i for i, v in enumerate(order)}
    M = np.zeros((len(order), len(order)))
    for v in order:
        for e in g.out_edges(v):
            M[index[v], index[e.target]] += 1.0 / len(g.alphabet)
    return M


def spectral(M):
    return float(np.max(np.abs(np.linalg.eigvals(M)))) if M.size else 0.0


def reachable(g, starts):
    seen, stack = set(starts), list(starts)
    while stack:
        for e in g.out_edges(stack.pop()):
            if e.target not in seen:
                seen.add(e.target)
                stack.append(e.target)
    return seen


def random_part(rng, max_states, alphabet, offset):
    """Edges of a random deterministic strongly connected graph on the
    vertices offset, ..., offset + n - 1."""
    while True:
        n = rng.randint(1, max_states)
        edges = [
            (offset + v, a, offset + rng.randrange(n))
            for v in range(n)
            for a in alphabet
            if rng.random() < 0.8
        ]
        if not edges:
            continue
        g = es.explicit_graph(alphabet, edges, roots=[offset])
        if len(reachable(g, [offset])) == n and all(
            offset in reachable(g, [v]) for v in range(offset, offset + n)
        ):
            return edges, n


def random_graph(rng, max_states, max_sigma):
    """A random strongly connected graph with x = its root 0, or, half of
    the time, two such parts with the root 0 in the first and x in the
    second, which the first enters by a few one-way edges or not at all."""
    alphabet = ("a", "b", "c")[:rng.randint(1, max_sigma)]
    edges, n = random_part(rng, max_states, alphabet, 0)
    if rng.random() < 0.5:
        return es.explicit_graph(alphabet, edges, roots=[0]), 0
    second, m = random_part(rng, max_states, alphabet, n)
    # bridges take labels the first part leaves free, so g stays deterministic
    free = sorted({(v, a) for v in range(n) for a in alphabet} - {(v, a) for v, a, _ in edges})
    bridges = [(v, a, n + rng.randrange(m))
               for v, a in rng.sample(free, min(len(free), rng.choice((0, 0, 1, 2))))]
    g = es.explicit_graph(alphabet, edges + second + bridges, roots=[0])
    return g, n + rng.randrange(m)


def long_graph(rng):
    """A 20-60-vertex cycle or path read forward by a and back by b, with a
    c-loop at one vertex, the one reader of any power of c, and a start
    vertex x: its denseness constant, the largest distance to the reader,
    runs up to 59."""
    n = rng.randint(20, 60)
    last = n if rng.random() < 0.5 else n - 1   # a cycle closes, a path stops
    edges = [(i, "a", (i + 1) % n) for i in range(last)]
    edges += [((i + 1) % n, "b", i) for i in range(last)]
    reader = rng.randrange(n)
    g = es.explicit_graph(("a", "b", "c"), edges + [(reader, "c", reader)], roots=[0])
    return g, rng.randrange(n)


def random_word(rng, g, vertices, max_len):
    v = rng.choice(sorted(vertices))
    word = []
    for _ in range(rng.randint(1, max_len)):
        edges = g.out_edges(v)
        if not edges:
            return None
        e = rng.choice(list(edges))
        word.append(e.label)
        v = e.target
    return tuple(word)


def product_rho(g, forbidden, vertices):
    A = es.FactorAutomaton(forbidden, g.alphabet)
    pg = es.product_graph(g, A, roots=sorted(vertices))
    return spectral(weighted_matrix(pg, reachable(pg, pg.roots)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--max-states", type=int, default=8)
    ap.add_argument("--max-sigma", type=int, default=3)
    ap.add_argument("--max-len", type=int, default=3, help="longest forbidden word drawn")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    accepted = skipped = stochastic = two_parts = far = 0
    worst_margin = float("inf")     # bound - rho_F
    smallest_gap = float("inf")     # rho - rho_F
    violations = 0

    while accepted < args.count:
        if rng.random() < 0.1:
            g, x = long_graph(rng)
            part, word = reachable(g, [x]), ("c",) * rng.randint(1, args.max_len)
        else:
            g, x = random_graph(rng, args.max_states, args.max_sigma)
            part = reachable(g, [x])
            word = random_word(rng, g, part, args.max_len)
        if word is None:
            continue
        forbidden = es.ForbiddenSet((word,))
        cert, scope, _D, _warnings = es.resolve_certificate(g, forbidden, x)
        if cert is None:
            skipped += 1
            continue
        rho_f = product_rho(g, forbidden, part)
        worst_margin = min(worst_margin, cert.bound - rho_f)
        smallest_gap = min(smallest_gap, cert.rho - rho_f)
        if rho_f > cert.bound + 1e-9:
            violations += 1
            print(f"VIOLATION: rho_F={rho_f:.12f} > bound={cert.bound:.12f} "
                  f"states={len(g.vertex_list)} word={''.join(word)}")
        # numpy's eigensolve errs by a few ulps: a bound 4 ulps below the true root
        # 0.85086374835688181 was once seen 3 ulps above numpy's value
        rho = spectral(weighted_matrix(g, part)) * (1 + 1e-13)
        if scope == "global" and not cert.bound < rho:
            violations += 1
            print(f"VIOLATION: bound={cert.bound:.12f} >= rho={rho:.12f} "
                  f"states={len(g.vertex_list)} word={''.join(word)}")
        accepted += 1
        stochastic += cert.stochastic_path
        two_parts += 0 not in part   # the second part never reaches the first
        far += cert.D > 8

    print(f"checked {accepted} certified pairs, {stochastic} on the stochastic path "
          f"(skipped: {skipped} without a certificate), {two_parts} with x outside"
          f" the root's part, {far} with D > 8")
    print(f"violations          : {violations}")
    # %.3g: a margin of a few ulps of eigensolver noise reads as such, not as -0.000000
    print(f"worst bound margin  : {worst_margin:.3g} (bound - measured rho_F)")
    print(f"smallest strict gap : {smallest_gap:.3g} (rho - rho_F)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
