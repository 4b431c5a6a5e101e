"""Nonnegative-matrix spectral helpers, on scipy sparse matrices.

The Collatz-Wielandt quotients min_i (Bx)_i/x_i <= lambda <= max_i (Bx)_i/x_i
of B = A + I bracket its Perron root for any positive x; ``perron_root``'s
value is the upper end, an upper bound on the root whether or not the
bracket has closed, and ``spectral_radius`` returns the bracket.  x comes
from power iteration (the shift makes cycles converge) or, where that
would take long, from restarted Arnoldi (Saad 2011, ch. 6).
Reducible matrices (product graphs, windows with unreachable parts) go
through their strongly connected components, which two searches rule out
first: the spectral radius is the largest Perron root of a component.
``steps_to`` is the one multi-source search over a nonnegative matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse


TOL = 1e-12          # relative width at which a Perron bracket counts as closed
MAX_ITER = 10**5     # products before the open bracket is returned
WARMUP = 8           # power steps over which the bracket's shrinking rate is read
SLOW = 64            # further power steps that would call for an Arnoldi restart
KRYLOV = 16          # Arnoldi steps (products) per restart
RESTARTS = 8         # restarts before power iteration runs alone


@dataclass
class PerronResult:
    value: float                   # the bracket's upper end
    vector: np.ndarray
    iterations: int
    bracket: tuple[float, float]   # Collatz-Wielandt bounds on the Perron root


def adjacency(n, sources, targets, weights=None) -> sparse.csr_matrix:
    """n x n matrix of edges given as parallel index sequences: entry (i, j)
    is the number of edges i -> j (int64), or the sum of their ``weights``."""
    data = np.ones(len(sources), np.int64) if weights is None else np.asarray(weights, float)
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
    nonnegative matrix (ndarray or scipy sparse), by power iteration on
    B = A + I, with Arnoldi restarts where that is slow (``_arnoldi_restart``).

    Stops once the Collatz-Wielandt bracket [lo, hi] of B has closed,
    hi - lo <= TOL * hi, or after MAX_ITER power steps (where reducible
    inputs end) with the bracket still open.  Restarts end after RESTARTS,
    at a Ritz vector that is not positive, or at one that is the iterate
    itself (its Krylov space invariant at the first step).  Where they end
    on a wider bracket than the power iterate they began from, power
    iteration resumes from that iterate, as if no restart had been taken;
    ``iterations`` counts every product with B.  ``value`` is the upper
    end, which bounds the root from above either way.
    """
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    B = sparse.csr_matrix(A) + sparse.identity(n, format="csr")
    x, widths, it, restarts, spent = np.ones(n), deque(maxlen=WARMUP + 1), 0, 0, 0
    saved = None  # (power iterate, its bracket's width, power steps) at the first restart
    while True:
        y = B @ x
        it += 1
        quot = y / x
        lo, hi = float(quot.min()), float(quot.max())
        widths.append(hi - lo)
        if hi - lo <= TOL * hi or it - spent >= MAX_ITER:
            break
        ritz = None
        if restarts == RESTARTS and saved is not None:
            if hi - lo > saved[1]:
                ritz, spent = saved[0], it - saved[2]
            saved = None
        # restart where, shrinking as over its last WARMUP steps, the bracket needs over SLOW more
        elif restarts < RESTARTS and (restarts or it > WARMUP and (hi - lo) * (
                widths[-1] / widths[0]) ** (SLOW / WARMUP) > TOL * hi):
            saved = saved or (y / y.max(), hi - lo, it)
            ritz, products = _arnoldi_restart(B, x, y)
            it += products
            restarts = restarts + 1 if ritz is not None else RESTARTS
        x = y / y.max() if ritz is None else ritz
    return PerronResult(hi - 1.0, y / y.max(), it, (lo - 1.0, hi - 1.0))


def _arnoldi_restart(B, x, y):
    """The Ritz vector of the largest real Ritz value after KRYLOV Arnoldi
    steps of B from x (y = B @ x), scaled to maximum 1, or None unless it is
    positive or when x's Krylov space is invariant at the first step (x is
    then its own Ritz vector); and the number of products taken beyond y."""
    V, H = np.empty((KRYLOV + 1, len(x))), np.zeros((KRYLOV + 1, KRYLOV))
    V[0] = x / np.linalg.norm(x)
    for j in range(KRYLOV):
        w = B @ V[j] if j else y / np.linalg.norm(x)
        H[:j + 1, j] = h = V[:j + 1] @ w  # one classical Gram-Schmidt pass
        w = w - h @ V[:j + 1]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] <= TOL * H[0, 0]:  # x's Krylov space is invariant
            if not j:  # restarting from x returns x: power iteration finishes
                return None, 0
            break
        V[j + 1] = w / H[j + 1, j]
    values, vectors = np.linalg.eig(H[:j + 1, :j + 1])
    u = vectors[:, np.argmax(np.where(values.imag == 0, values.real, -np.inf))].real @ V[:j + 1]
    u /= u[np.argmax(np.abs(u))]
    return (u if (u > 0).all() else None), j


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


def spectral_radius(A) -> tuple[float, float]:
    """Bracket (lo, hi) of the spectral radius of a nonnegative matrix,
    reducible or not: one Perron bracket when index 0 reaches every index
    and every index reaches it (two ``steps_to`` sweeps, on A and on its
    transpose), else the largest ends over its strongly connected
    components' Perron brackets."""
    A = sparse.csr_matrix(A)
    start = np.arange(A.shape[0]) == 0
    if start.any() and (steps_to(A, start) >= 0).all() and (steps_to(A.T, start) >= 0).all():
        return perron_root(A).bracket
    components, labels = strong_components(A)
    sizes = np.bincount(labels, minlength=components)
    # a one-vertex component's radius is its loop weight
    lo = hi = float(A.diagonal()[sizes[labels] == 1].max(initial=0.0))
    for c in np.flatnonzero(sizes > 1):
        members = np.flatnonzero(labels == c)
        bracket = perron_root(A[members][:, members]).bracket
        lo, hi = max(lo, bracket[0]), max(hi, bracket[1])
    return lo, hi
