"""Independent checks of each job's report.

Nothing here calls entroscope.  Counts are recomputed by dynamic
programming over the benchmark's own adjacency (finite graphs), its own
free reduction (free2_mod_cyclic) or its own lattice moves (grid_Z2), and
forbidden counts over the benchmark's own suffix automaton.  Spectral
radii come from scipy's sparse eigensolvers.  The remaining checks are
properties the method must have.

Each checker returns a list of Finding.  ``unsound`` findings are
certificates refuted by an independent eigensolve, certificates the job
should have produced and did not, and jobs that crashed: the job failed,
but its output is not wrong.  ``wrong`` findings are outputs that
disagree with an independent computation or a required property.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as splinalg

MODULUS = 2**31 - 1  # counts of finite graphs are compared modulo this prime
RADIUS_TOL = 1e-9


@dataclass(frozen=True)
class Finding:
    kind: str  # "unsound" | "wrong"
    message: str


def _wrong(message: str) -> Finding:
    return Finding("wrong", message)


def _unsound(message: str) -> Finding:
    return Finding("unsound", message)


class SuffixAutomaton:
    """Longest suffix of the text read so far that is a proper prefix of a
    forbidden word; None once a forbidden word has been read."""

    def __init__(self, words):
        self.words = tuple(words)
        self.prefixes = {w[:i] for w in self.words for i in range(len(w))}
        self.states = sorted(self.prefixes, key=lambda s: (len(s), s))

    def step(self, state: str, symbol: str):
        text = state + symbol
        if any(text.endswith(w) for w in self.words):
            return None
        for i in range(len(text) + 1):
            if text[i:] in self.prefixes:
                return text[i:]
        raise AssertionError("the empty prefix is always a state")


# -- finite graphs ------------------------------------------------------------


def _finite_adjacency(doc: dict):
    index = {v: i for i, v in enumerate(doc["vertices"])}
    edges = [(index[s], label, index[t]) for s, label, t in doc["edges"]]
    return index, edges


def _matrix(n: int, pairs, dtype) -> sparse.csr_matrix:
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    data = np.ones(len(pairs), dtype=dtype)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=dtype)


def _product(edges, n: int, automaton: SuffixAutomaton):
    """Edges of the F-avoiding product graph over (vertex, automaton state)."""
    s_index = {s: i for i, s in enumerate(automaton.states)}
    width = len(automaton.states)
    pairs = []
    for u, label, v in edges:
        for s, si in s_index.items():
            t = automaton.step(s, label)
            if t is not None:
                pairs.append((u * width + si, v * width + s_index[t]))
    return pairs, n * width, width


def _counts_mod(matrix: sparse.csr_matrix, start: int, ends, depth: int) -> list[int]:
    """(A^n)[start, ends] summed, modulo MODULUS, for n = 0..depth."""
    vec = np.zeros(matrix.shape[0], dtype=np.int64)
    vec[start] = 1
    transposed = matrix.T.tocsr()
    out = []
    for n in range(depth + 1):
        if n:
            vec = (transposed @ vec) % MODULUS
        out.append(int(vec[ends].sum() % MODULUS))
    return out


def _perron(matrix: sparse.csr_matrix) -> float:
    """Largest real eigenvalue: the spectral radius of a nonnegative matrix."""
    if matrix.shape[0] == 1:
        return float(matrix[0, 0])
    values = splinalg.eigs(
        matrix.astype(float), k=1, which="LR", v0=np.ones(matrix.shape[0]), tol=1e-13
    )[0]
    return float(values[0].real)


def _on_paths(matrix: sparse.csr_matrix, start: int, ends) -> np.ndarray:
    """States reachable from start that can reach one of ends."""
    forward = np.zeros(matrix.shape[0], dtype=bool)
    forward[csgraph.breadth_first_order(matrix, start, return_predecessors=False)] = True
    backward = np.zeros(matrix.shape[0], dtype=bool)
    reverse = matrix.T.tocsr()
    for e in ends:
        if not backward[e]:
            backward[csgraph.breadth_first_order(reverse, e, return_predecessors=False)] = True
    return np.flatnonzero(forward & backward)


def check_finite_analyze(job, report: dict) -> list[Finding]:
    doc = job.graph
    sigma = len(doc["alphabet"])
    index, edges = _finite_adjacency(doc)
    n = len(index)
    x = y = index[doc["roots"][0]]
    results = report["results"]
    findings = []

    plain = _matrix(n, [(u, v) for u, _, v in edges], np.int64)
    expected = _counts_mod(plain, x, [y], job.depth)
    got = [c % MODULUS for c in results["counts"]]
    if got != expected:
        findings.append(_wrong("counts disagree with the adjacency DP"))

    automaton = SuffixAutomaton(job.words)
    pairs, size, width = _product(edges, n, automaton)
    product = _matrix(size, pairs, np.int64)
    ends = [y * width + i for i in range(width)]
    expected_f = _counts_mod(product, x * width, ends, job.depth)
    got_f = [c % MODULUS for c in results["counts_forbidden"]]
    if got_f != expected_f:
        findings.append(_wrong("counts_forbidden disagree with the product DP"))

    cert = results.get("certificate")
    if cert is None:
        findings.append(_unsound("no certificate emitted"))
        return findings
    rho = _perron(plain) / sigma
    if not math.isclose(cert["rho"], rho, rel_tol=1e-7):
        findings.append(_unsound(f"certificate rho {cert['rho']:.6g} but eigensolve gives {rho:.6g}"))
    keep = _on_paths(product, x * width, ends)
    rho_f = _perron(product[keep][:, keep]) / sigma if len(keep) else 0.0
    if cert["bound"] < rho_f - RADIUS_TOL:
        findings.append(_unsound(
            f"certificate bound {cert['bound']:.6g} is below the restricted radius {rho_f:.6g}"
        ))
    return findings


# -- free2_mod_cyclic ----------------------------------------------------------

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def coset(descriptor: str, symbol: str) -> str:
    """Right-multiply, freely reduce, then strip the leading a/A run: the
    coset of <a> in the free group on a, b."""
    if descriptor and descriptor[-1] == _INVERSE[symbol]:
        word = descriptor[:-1]
    else:
        word = descriptor + symbol
    while word and word[0] in "aA":
        word = word[1:]
    return word


def _loop_counts(move, start, alphabet, depth, automaton=None, distance=len) -> list[int]:
    """Exact counts of length-n loops at start, n = 0..depth, avoiding the
    automaton's words if given.  States farther than depth - n from start
    cannot come back and are dropped; ``distance`` is a lower bound on it.
    """
    state0 = automaton.states[0] if automaton else None
    frontier = {(start, state0): 1}
    counts = []
    for n in range(depth + 1):
        counts.append(sum(c for (v, _), c in frontier.items() if v == start))
        if n == depth:
            break
        nxt: dict = {}
        for (v, s), c in frontier.items():
            for a in alphabet:
                t = automaton.step(s, a) if automaton else None
                if automaton and t is None:
                    continue
                w = move(v, a)
                if distance(w) <= depth - n - 1:
                    nxt[(w, t)] = nxt.get((w, t), 0) + c
        frontier = nxt
    return counts


def check_lazy_schreier(job, report: dict) -> list[Finding]:
    results = report["results"]
    findings = []
    alphabet = "ABab"
    expected = _loop_counts(coset, "", alphabet, job.depth)
    expected_f = _loop_counts(coset, "", alphabet, job.depth, SuffixAutomaton(job.words))
    if results["counts"] != expected:
        findings.append(_wrong("counts disagree with the free-reduction DP"))
    if results["counts_forbidden"] != expected_f:
        findings.append(_wrong("counts_forbidden disagree with the free-reduction DP"))
    if any(f > c for f, c in zip(results["counts_forbidden"], results["counts"])):
        findings.append(_wrong("counts_forbidden exceed counts"))
    if results["certificate_scope"] != "window":
        findings.append(_wrong(f"certificate scope {results['certificate_scope']!r}, not 'window'"))
    cert = results.get("certificate")
    if cert is None:
        findings.append(_unsound("no certificate emitted"))
    elif not cert["bound"] < cert["rho"] <= 1:
        findings.append(_wrong(f"bound {cert['bound']} < rho {cert['rho']} <= 1 fails"))
    return findings


# -- grid_Z2 ------------------------------------------------------------------

_MOVES = {"d": (0, -1), "l": (-1, 0), "r": (1, 0), "u": (0, 1)}


def _grid_move(v, a):
    dx, dy = _MOVES[a]
    return (v[0] + dx, v[1] + dy)


def check_harmonic_rho(job, report: dict, csv_text: str | None) -> list[Finding]:
    results = report["results"]
    findings = []
    if csv_text is None:
        return [_wrong("no CSV table written")]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["n", "p_n", "p_n_F"] or len(rows) != job.depth + 2:
        return [_wrong("CSV table has the wrong header or length")]
    table = [(int(n), float(p), float(pf)) for n, p, pf in rows[1:]]
    closed = []
    for n in range(job.depth + 1):
        closed.append(
            float(Fraction(math.comb(n, n // 2), 4 ** (n // 2)) ** 2) if n % 2 == 0 else 0.0
        )
    avoiding = _loop_counts(
        _grid_move, (0, 0), "dlru", job.depth, SuffixAutomaton(job.words),
        distance=lambda v: abs(v[0]) + abs(v[1]),
    )
    if [n for n, _, _ in table] != list(range(job.depth + 1)):
        findings.append(_wrong("CSV rows are not n = 0..depth"))
    if any(not math.isclose(p, c, rel_tol=1e-12, abs_tol=0.0) for (_, p, _), c in zip(table, closed)):
        findings.append(_wrong("p_n disagrees with (C(2m,m)/4^m)^2 at n = 2m, or is nonzero at odd n"))
    if any(
        not math.isclose(pf, float(Fraction(c, 4**n)), rel_tol=1e-12, abs_tol=0.0)
        for (n, _, pf), c in zip(table, avoiding)
    ):
        findings.append(_wrong("p_n_F disagrees with the avoiding-loop DP"))
    identity = results.get("transform_identity") or {}
    if identity.get("ok") is not True:
        findings.append(_wrong("transform_identity.ok is not true"))
    tol = report["config"].get("hv_tol") or 1e-3  # the CLI default on infinite graphs
    harmonic = results.get("harmonic") or {}
    if harmonic.get("residual") is None or harmonic["residual"] > tol:
        findings.append(_wrong(f"harmonic residual {harmonic.get('residual')} above {tol}"))
    return findings


def check_job(workload: str, job, run: dict) -> list[Finding]:
    """Every finding for one job: its exit, its repeats and its first report."""
    if run["error"] is not None:
        return [_unsound("crashed: " + run["error"].strip().splitlines()[-1])]
    findings = []
    if len(set(run["digests"])) != 1:
        findings.append(_wrong("repeats produced different reports"))
    if len(set(run["codes"])) != 1:
        findings.append(_wrong(f"repeats exited with different codes {sorted(set(run['codes']))}"))
    if run["codes"][0] != 0:
        findings.append(_unsound(f"exit code {run['codes'][0]}"))
    try:
        report = json.loads(run["report"])
    except json.JSONDecodeError:
        return findings + [_wrong("report is not JSON")]
    if "results" not in report:
        return findings + [_unsound(f"no results: {report.get('error')}")]
    if workload == "finite-analyze":
        findings += check_finite_analyze(job, report)
    elif workload == "lazy-schreier":
        findings += check_lazy_schreier(job, report)
    else:
        findings += check_harmonic_rho(job, report, run.get("csv"))
    return findings
