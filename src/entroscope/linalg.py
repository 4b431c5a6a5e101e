"""Nonnegative-matrix spectral helpers, on scipy sparse matrices.

Power iteration on A + I makes periodic cases (cycles) converge, and the
Collatz-Wielandt quotients min_i (Bx)_i/x_i <= lambda <= max_i (Bx)_i/x_i
give a certified bracket around the Perron root of the shifted matrix at
every step; ``perron_root`` returns only once that bracket has closed,
which it does for irreducible matrices.  Reducible matrices (product
graphs, windows with unreachable parts) go through their strongly
connected components: the spectral radius is the largest Perron root of
a component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


TOL = 1e-12          # relative width at which a Perron bracket counts as closed
MAX_ITER = 10**5     # power-iteration steps before ConvergenceError


class ConvergenceError(RuntimeError):
    """Iteration cap reached before the bracket closed."""


@dataclass
class PerronResult:
    value: float
    vector: np.ndarray
    iterations: int
    bracket: tuple[float, float]   # Collatz-Wielandt bounds on the Perron root


def adjacency(n, sources, targets, weights=None) -> sparse.csr_matrix:
    """n x n matrix of edges given as parallel index sequences: entry (i, j)
    is the number of edges i -> j, or the sum of their ``weights``."""
    data = np.ones(len(sources)) if weights is None else np.asarray(weights, dtype=float)
    return sparse.csr_matrix((data, (sources, targets)), shape=(n, n))


def strong_components(A) -> tuple[int, np.ndarray]:
    """(number of strongly connected components, component label of each
    index) of the directed graph of A's stored entries; iterative Tarjan."""
    # not scipy.sparse.csgraph: its import lifts `import entroscope.cli` from 51.5 to 61 MB RSS
    A = sparse.csr_matrix(A)
    n = A.shape[0]
    indptr, indices = A.indptr.tolist(), A.indices.tolist()
    order = [-1] * n
    low = [0] * n
    labels = [-1] * n
    stack: list[int] = []
    count = components = 0
    # work items (v, i): i is v's next stored entry, or -1 before v is entered
    work = [(root, -1) for root in reversed(range(n))]
    while work:
        v, i = work.pop()
        if i < 0:
            if order[v] >= 0:
                continue
            order[v] = low[v] = count
            count += 1
            stack.append(v)
            i = indptr[v]
        if i < indptr[v + 1]:
            w = indices[i]
            work.append((v, i + 1))
            if order[w] < 0:
                work.append((w, -1))
            elif labels[w] < 0:
                low[v] = min(low[v], order[w])
            continue
        if work and work[-1][1] >= 0:
            u = work[-1][0]
            low[u] = min(low[u], low[v])
        if low[v] == order[v]:
            while True:
                w = stack.pop()
                labels[w] = components
                if w == v:
                    break
            components += 1
    return components, np.array(labels, dtype=int)


def perron_root(A, vector_tol: float | None = None) -> PerronResult:
    """Leading eigenvalue and positive eigenvector of an irreducible
    nonnegative matrix (ndarray or scipy sparse), by power iteration on A + I.

    Stops once the Collatz-Wielandt bracket [lo, hi] of A + I has closed,
    hi - lo <= TOL * hi (and, when ``vector_tol`` is given, the
    sup-normalized iterate moved by at most that much, for callers that
    need the eigenvector itself).  Raises ConvergenceError after MAX_ITER
    steps, which is where reducible inputs end.
    """
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    B = sparse.csr_matrix(A) + sparse.identity(n, format="csr")
    x = np.ones(n)
    for it in range(1, MAX_ITER + 1):
        y = B @ x
        quot = y / x
        lo, hi = float(quot.min()), float(quot.max())
        x_new = y / y.max()
        moved = float(np.max(np.abs(x_new - x)))
        x = x_new
        if hi - lo <= TOL * hi and (vector_tol is None or moved <= vector_tol):
            return PerronResult(
                value=(lo + hi) / 2.0 - 1.0,
                vector=x,
                iterations=it,
                bracket=(lo - 1.0, hi - 1.0),
            )
    raise ConvergenceError(
        f"power iteration bracket still ({lo - 1.0:.6g}, {hi - 1.0:.6g}) after {MAX_ITER} steps"
    )


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative matrix, reducible or not: the
    largest Perron root over its strongly connected components."""
    A = sparse.csr_matrix(A)
    components, labels = strong_components(A)
    sizes = np.bincount(labels, minlength=components)
    # a one-vertex component's radius is its loop weight
    radius = float(A.diagonal()[sizes[labels] == 1].max(initial=0.0))
    for c in np.flatnonzero(sizes > 1):
        members = np.flatnonzero(labels == c)
        block = A[members][:, members]
        radius = max(radius, perron_root(block).value)
    return radius
