"""Nonnegative-matrix spectral helpers, on scipy sparse matrices.

Power iteration on A + I makes periodic cases (cycles) converge, and the
Collatz-Wielandt quotients min_i (Bx)_i/x_i <= lambda <= max_i (Bx)_i/x_i
give a certified bracket around the Perron root of the shifted matrix at
every step; ``perron_root`` takes the bracket's upper end, an upper bound
on the root whether or not the bracket has closed.  Reducible matrices
(product graphs, windows with unreachable parts) go through their
strongly connected components, which two searches rule out first: the
spectral radius is the largest Perron root of a component.  ``steps_to`` is
the one multi-source search over a nonnegative matrix's entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


TOL = 1e-12          # relative width at which a Perron bracket counts as closed
MAX_ITER = 10**5     # power-iteration steps before the open bracket is returned


@dataclass
class PerronResult:
    value: float                   # the bracket's upper end
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
    index) of the directed graph of A's stored entries."""
    # imported here: scipy.sparse.csgraph lifts `import entroscope.cli` from 51.5 to
    # 61 MB RSS, and spectral_radius needs it only for a reducible matrix
    from scipy.sparse.csgraph import connected_components

    return connected_components(A, directed=True, connection="strong")


def perron_root(A) -> PerronResult:
    """Leading eigenvalue and positive eigenvector of an irreducible
    nonnegative matrix (ndarray or scipy sparse), by power iteration on A + I.

    Stops once the Collatz-Wielandt bracket [lo, hi] of A + I has closed,
    hi - lo <= TOL * hi, or after MAX_ITER steps (where reducible inputs
    end) with the bracket still open.  ``value`` is the upper end, which
    bounds the root from above either way.
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
        x = y / y.max()
        if hi - lo <= TOL * hi:
            break
    return PerronResult(value=hi - 1.0, vector=x, iterations=it, bracket=(lo - 1.0, hi - 1.0))


def steps_to(A, target, cap: int | None = None) -> np.ndarray:
    """Per index, the fewest steps along A's positive entries (rows are
    sources) to an index where the boolean mask ``target`` holds, or -1
    when there is none within ``cap`` steps (at any distance when None)."""
    A = sparse.csr_matrix(A)
    steps = np.where(target, 0, -1)
    frontier = np.asarray(target, dtype=bool)
    d = 0
    while frontier.any() and d != cap:
        d += 1
        frontier = (A @ frontier.astype(float) > 0) & (steps < 0)
        steps[frontier] = d
    return steps


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative matrix, reducible or not: one Perron
    root when index 0 reaches every index and every index reaches it (two
    ``steps_to`` sweeps, on A and on its transpose), else the largest Perron
    root over its strongly connected components."""
    A = sparse.csr_matrix(A)
    start = np.arange(A.shape[0]) == 0
    if start.any() and (steps_to(A, start) >= 0).all() and (steps_to(A.T, start) >= 0).all():
        return perron_root(A).value
    components, labels = strong_components(A)
    sizes = np.bincount(labels, minlength=components)
    # a one-vertex component's radius is its loop weight
    radius = float(A.diagonal()[sizes[labels] == 1].max(initial=0.0))
    for c in np.flatnonzero(sizes > 1):
        members = np.flatnonzero(labels == c)
        block = A[members][:, members]
        radius = max(radius, perron_root(block).value)
    return radius
