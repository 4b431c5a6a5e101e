#!/usr/bin/env python3
"""Soundness sweep of the certificates the program emits over random finite
automata.

Generates random deterministic strongly connected graphs, forbids a random
readable word, takes the certificate ``resolve_certificate`` assembles for
the pair (None counts as skipped), and compares the measured restricted
spectral radius (dense eigensolve on the product graph) against its bound,
and, for a certificate of scope "global", the bound against the measured
spectral radius of the graph (the strict drop bound < rho).  Prints
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


def strongly_connected(g):
    verts = list(g.vertex_list)
    fwd = {v: [e.target for e in g.out_edges(v)] for v in verts}
    bwd = {v: [] for v in verts}
    for v in verts:
        for t in fwd[v]:
            bwd[t].append(v)

    def reach(adj):
        seen, stack = {verts[0]}, [verts[0]]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return len(seen) == len(verts)

    return bool(verts) and reach(fwd) and reach(bwd)


def random_graph(rng, max_states, max_sigma):
    while True:
        n = rng.randint(1, max_states)
        sigma = rng.randint(1, max_sigma)
        alphabet = ("a", "b", "c")[:sigma]
        edges = [
            (v, a, rng.randrange(n))
            for v in range(n)
            for a in alphabet
            if rng.random() < 0.8
        ]
        if not edges:
            continue
        g = es.explicit_graph(alphabet, edges, roots=[0])
        if len(g.vertex_list) == n and strongly_connected(g):
            return g


def random_word(rng, g, max_len):
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


def product_rho(g, forbidden):
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
    return spectral(weighted_matrix(pg, seen_set))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--max-states", type=int, default=8)
    ap.add_argument("--max-sigma", type=int, default=3)
    ap.add_argument("--d-max", type=int, default=3)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    inputs = es.CertificateInputs(D_max=args.d_max)
    accepted = skipped = stochastic = 0
    worst_margin = float("inf")     # bound - rho_F
    smallest_gap = float("inf")     # rho - rho_F
    violations = 0

    while accepted < args.count:
        g = random_graph(rng, args.max_states, args.max_sigma)
        word = random_word(rng, g, args.d_max)
        if word is None:
            continue
        forbidden = es.ForbiddenSet((word,))
        cert, scope, _D, _warnings = es.resolve_certificate(g, forbidden, inputs)
        if cert is None:
            skipped += 1
            continue
        rho_f = product_rho(g, forbidden)
        worst_margin = min(worst_margin, cert.bound - rho_f)
        smallest_gap = min(smallest_gap, cert.rho - rho_f)
        if rho_f > cert.bound + 1e-9:
            violations += 1
            print(f"VIOLATION: rho_F={rho_f:.12f} > bound={cert.bound:.12f} "
                  f"states={len(g.vertex_list)} word={''.join(word)}")
        # numpy's eigensolve errs by a few ulps: at this seed one bound lies 4 ulps
        # below the true root (0.85086374835688181) and 3 ulps above numpy's
        rho = spectral(weighted_matrix(g, g.vertex_list)) * (1 + 1e-13)
        if scope == "global" and not cert.bound < rho:
            violations += 1
            print(f"VIOLATION: bound={cert.bound:.12f} >= rho={rho:.12f} "
                  f"states={len(g.vertex_list)} word={''.join(word)}")
        accepted += 1
        stochastic += cert.stochastic_path

    print(f"checked {accepted} certified pairs, {stochastic} on the stochastic path "
          f"(skipped: {skipped} without a certificate)")
    print(f"violations          : {violations}")
    print(f"worst bound margin  : {worst_margin:.6f} (bound - measured rho_F)")
    print(f"smallest strict gap : {smallest_gap:.6f} (rho - rho_F)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
