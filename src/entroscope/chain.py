"""Markov chains on edge-labelled graphs, with forbidden transition words.

Each edge carries a probability p(e) >= alpha > 0 with row sums at most 1
(a particle may die).  Restricted n-step vectors forbid traversing any
label sequence of F, realized by running the same weights on the product
graph.  The certified entropy-gap bound composes two facts:

  * every k = D + R steps, an F-avoiding walk misses at least one readable
    forbidden word, so the k-step restricted row sums are <= 1 - alpha^k;
  * a rho-harmonic reweighting (h-transform) turns the general case into
    the stochastic one at the price of lowering the edge floor to
    alpha_bar = (alpha/rho)^(conn_k + 1).

Together: rho_F <= rho * (1 - alpha_bar^k)^(1/k) < rho, strictly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import linalg
from .census import path_counts, path_weights
from .factors import ForbiddenSet, avoiding, base_edge, estimate_denseness_constant
from .graphs import (
    Edge,
    ExpansionBudgetExceeded,
    LabelledGraph,
    Vertex,
    Window,
    check_fully_deterministic,
    edge_list,
    forward_ball,
    uniform_connectedness_constant,
    vertex_key,
)
from .growth import GrowthFit, InsufficientData, fit_log_growth

NEG_INF = float("-inf")
MIN_DEPTH = 10   # shortest horizon rho_estimate fits a decay rate on


class ChainError(ValueError):
    pass


class DegenerateBound(ValueError):
    """The certified drop is lost to floating point: alpha_bar^k is 0 or 1,
    or 1 - eps rounds to 1 so that the bound would equal rho."""


@dataclass(frozen=True)
class WeightedChain:
    """Edge probabilities p(e) >= alpha with substochastic rows.

    ``uniform`` chains (every edge 1/|alphabet|) read their probability
    tables off exact path counts, as count/|alphabet|^n, others' are float64.
    n-step vectors are Fractions when the weights are, and a Fraction
    ``alpha`` makes the row-sum comparisons exact.  ``column``, when given,
    computes ``edge_weights`` from index columns without ``Edge`` tuples.
    """

    graph: LabelledGraph
    weight: Callable[[Edge], object] = field(compare=False)
    alpha: object = 0.0            # Fraction or float lower bound
    uniform: bool = False
    column: Optional[Callable[..., np.ndarray]] = field(default=None, compare=False)


def uniform_weights(g: LabelledGraph) -> WeightedChain:
    """Every edge gets probability Fraction(1, |alphabet|).

    On deterministic graphs the rows sum to out-degree/|alphabet| <= 1; an
    out-degree above |alphabet| is refused on finite graphs.
    """
    sigma = len(g.alphabet)
    p = Fraction(1, sigma)
    if g.is_finite:
        degree = np.diff(g.arrays.offsets)
        i = np.argmax(degree > sigma)   # the first overfull vertex, if any
        if degree[i] > sigma:
            raise ChainError(
                f"vertex {vertex_key(g.vertex_list[i])} has out-degree {degree[i]} > |alphabet|"
            )
    return WeightedChain(graph=g, weight=lambda e: p, alpha=p, uniform=True)


def edge_weights(chain: WeightedChain, vertices, source, label, target) -> np.ndarray:
    """The chain's float weights of the edges given as index columns into
    ``vertices`` and the alphabet: a uniform chain's one constant, else its
    ``column``, else ``weight`` called on each edge."""
    if chain.uniform:
        return np.full(len(source), float(chain.alpha))
    if chain.column is not None:
        return chain.column(vertices, source, label, target)
    edges = edge_list(vertices, chain.graph.alphabet, source, label, target)
    return np.array([float(chain.weight(e)) for e in edges], dtype=float)


@dataclass
class StepDistribution:
    """Mass of the particle after n steps from x.

    Unrestricted distributions live on base vertices; restricted ones live
    on product states (vertex, automaton state) and collapse through
    ``by_vertex``.  Total mass <= 1, the deficit is the death probability.
    """

    mass: dict
    forbidden: Optional[ForbiddenSet] = None
    graph: LabelledGraph = None  # graph the DP steps on (base or product)
    origin: Vertex = None        # x, named by a budget error

    def by_vertex(self) -> dict:
        out: dict = {}
        for state, m in self.mass.items():
            v = state if self.forbidden is None else state[0]
            out[v] = out.get(v, 0) + m
        return out

    def total(self):
        return sum(self.mass.values())


def initial_distribution(
    chain: WeightedChain, x: Vertex, forbidden: Optional[ForbiddenSet] = None
) -> StepDistribution:
    graph, start = avoiding(chain.graph, x, forbidden)
    return StepDistribution({start: 1}, forbidden, graph, x)


def step(chain: WeightedChain, dist: StepDistribution) -> StepDistribution:
    """One transition-matrix multiplication over lazily expanded edges; a
    frontier of more than the graph's budget states raises."""
    weight = chain.weight
    if dist.forbidden is not None:
        weight = lambda e: chain.weight(base_edge(e))
    mass: dict = {}
    for v, m in dist.mass.items():
        for e in dist.graph.out_edges(v):
            mass[e.target] = mass.get(e.target, 0) + m * weight(e)
    if len(mass) > dist.graph.budget:
        raise ExpansionBudgetExceeded(
            f"step frontier from vertex {vertex_key(dist.origin)!r} exceeded"
            f" --budget {dist.graph.budget} states")
    return StepDistribution(mass, dist.forbidden, dist.graph, dist.origin)


def n_step_vector(
    chain: WeightedChain,
    x: Vertex,
    n: int,
    forbidden: Optional[ForbiddenSet] = None,
) -> StepDistribution:
    """The exact distribution after n steps from x, one ``step`` at a time."""
    dist = initial_distribution(chain, x, forbidden)
    for _ in range(n):
        dist = step(chain, dist)
    return dist


def probability_table(
    chain: WeightedChain,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
) -> list:
    """p^(n)(x, y) (or the F-restricted variant) for n = 0..N.

    A uniform chain's p^(n)(x, y) is c_n / |alphabet|^n for the exact path
    count c_n of ``census.path_counts``; any other chain's table is the
    float64 weighted path sum of ``census.path_weights``.
    """
    if not chain.uniform:
        weights = functools.partial(edge_weights, chain)
        return path_weights(chain.graph, x, y, N, weights, forbidden=forbidden)
    counts = path_counts(chain.graph, x, y, N, forbidden=forbidden)
    sigma = len(chain.graph.alphabet)
    return [Fraction(c, sigma**n) for n, c in enumerate(counts)]


@dataclass
class RhoEstimate:
    """Decay rate limsup p^(n)(x,y)^(1/n): exp of the fit's slope, 0.0 on finite support."""

    value: float
    fit: GrowthFit
    table: list = field(repr=False)

    @property
    def converged(self) -> bool:
        return not self.fit.finite and self.fit.residual <= 0.1


def rho_estimate(
    chain: WeightedChain,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
) -> RhoEstimate:
    """Periodicity-aware decay-rate estimate of the n-step probabilities.

    Shares the estimator used for word counts; polynomial prefactors (e.g.
    the n^(-1/2) of recurrent walks) bias the slope at desk horizons, which
    shows up in the fit's residual.
    """
    if N < MIN_DEPTH:
        raise InsufficientData(f"a decay-rate fit needs N >= {MIN_DEPTH}, got N = {N}")
    table = probability_table(chain, x, y, N, forbidden=forbidden)
    fit = fit_log_growth(table)
    return RhoEstimate(math.exp(fit.value), fit, table)


@dataclass
class HarmonicVector:
    """Approximate positive solution of P h = rho h on a window."""

    rho_hat: float
    values: dict                       # vertex -> positive float
    residual: float                    # max |Ph - rho h| / h on the inner window
    center: Vertex
    radius: int
    tol: float = 1e-8
    diagnostics: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.residual <= self.tol


def harmonic_vector(chain: WeightedChain, center: Vertex, radius: int) -> HarmonicVector:
    """Leading eigenpair of the window-truncated transition matrix, with
    reflecting truncation: rows that leak mass out of the window are
    renormalized back to their full row sum (killing the boundary would
    bias the eigenvalue downward on recurrent graphs).  The residual is
    measured against the untruncated rows on the inner window (radius - 1),
    where no edge leaves the ball; it is accepted at 1e-8 on a finite graph
    and at 1e-3 on a lazy one.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2")
    ball = forward_ball(chain.graph, center, radius)
    verts = list(ball.distances)
    weights = edge_weights(chain, ball.ids, ball.source, ball.label, ball.target)
    matrix = ball.adjacency(weights)
    # every vertex of a forward ball is reached from the center (index 0),
    # so the window is strongly connected iff every vertex reaches it
    if (linalg.steps_to(matrix, np.arange(len(verts)) == 0) < 0).any():
        raise ChainError("the window is not strongly connected; no positive harmonic vector")
    kept = np.asarray(matrix.sum(axis=1)).ravel()
    leaked = np.bincount(ball.source[ball.inside:], weights[ball.inside:], minlength=len(verts))
    scale = np.divide(kept + leaked, kept, out=np.ones(len(verts)), where=kept > 0)
    # row i times scale[i] in place, each row stored in descending column order as the
    # product sparse.diags(scale) @ matrix stores it, so every sum keeps that product's order
    degree = np.diff(matrix.indptr)
    flip = np.repeat(matrix.indptr[1:] + matrix.indptr[:-1] - 1, degree) - np.arange(matrix.nnz)
    matrix.data = (matrix.data * np.repeat(scale, degree))[flip]
    matrix.indices, matrix.has_sorted_indices = matrix.indices[flip], False
    res = linalg.perron_root(matrix)
    if not res.value > 0:   # a lone vertex with no edge in the window
        raise ChainError(
            f"the window of radius {radius} around {vertex_key(center)!r} has spectral"
            f" radius {res.value}; no positive harmonic vector")
    h = res.vector / res.vector[0]
    # verts run by distance, so the inner rows come first; no edge leaves the
    # window from them, so they are complete and reflecting left them unscaled
    inner = np.count_nonzero(np.fromiter(ball.distances.values(), np.int64, len(verts)) < radius)
    residual = float(np.max(np.abs(matrix @ h - res.value * h)[:inner] / h[:inner]))
    tol = 1e-8 if chain.graph.is_finite else 1e-3
    return HarmonicVector(res.value, dict(zip(verts, h.tolist())), residual, center, radius,
                          tol, {"rho_reflecting": res.value, "iterations": res.iterations,
                                "window_size": len(verts)})


def h_transform(chain: WeightedChain, hv: HarmonicVector) -> WeightedChain:
    """Reweight p^h(e) = p(e) h(e+) / (rho h(e-)) on the harmonic window.

    With an exact harmonic vector the result is stochastic; the new edge
    floor is alpha_bar = (alpha/rho)^(conn_k + 1), which requires the
    graph's declared uniform-connectedness constant.
    """
    conn_k = chain.graph.declared.conn_k
    if conn_k is None:
        raise ChainError(
            "h_transform requires a uniform-connectedness constant: the graph"
            " declares none, so pass --conn-K"
        )
    if not hv.accepted:
        raise ChainError(
            f"harmonic vector not accepted: residual {hv.residual:.3g} > tol {hv.tol:.3g}"
        )
    rho, values, alphabet = hv.rho_hat, hv.values, chain.graph.alphabet

    def column(vertices, source, label, target):
        # NaN: outside the window
        h = np.fromiter(map(values.get, vertices, itertools.repeat(np.nan)), float, len(vertices))
        hs, ht = h[source], h[target]
        outside = np.flatnonzero(np.isnan(hs) | np.isnan(ht))[:1]
        if len(outside):
            e = edge_list(vertices, alphabet, source[outside], label[outside], target[outside])[0]
            raise ChainError(
                f"edge {vertex_key(e.source)} -{e.label}-> {vertex_key(e.target)}"
                f" leaves the harmonic window of radius {hv.radius}; the window"
                " must cover the depth-N ball around x")
        return edge_weights(chain, vertices, source, label, target) * ht / (rho * hs)

    def weight(e: Edge):
        one = np.array([[0], [alphabet.index(e.label)], [1]])  # e as index columns
        return float(column([e.source, e.target], *one)[0])

    alpha_bar = (float(chain.alpha) / rho) ** (conn_k + 1)
    return WeightedChain(graph=chain.graph, weight=weight, alpha=alpha_bar, column=column)


@dataclass(frozen=True)
class GapCertificate:
    """Machine-checkable witness that rho_F <= bound < rho.

    ``eps0`` is the pre-transform k-step mass deficit alpha^k; the bound is
    computed from the post-transform floor ``eps0_prime`` = alpha_bar^k.
    On the stochastic fast path (rows sum to 1, rho = 1) no transform is
    needed and alpha_bar = alpha.  ``eps`` is the per-step drop:
    bound = rho * (1 - eps), rounded outward.
    """

    alpha: float
    D: int
    R: int
    k: int
    eps0: float
    conn_k: Optional[int]
    alpha_bar: float
    eps0_prime: float
    eps: float
    rho: float
    bound: float
    stochastic_path: bool

    def h_bound(self, sigma_size: int) -> float:
        """Entropy form log(bound * |alphabet|) of the certified bound."""
        return math.log(self.bound * sigma_size)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["conn_K"] = d.pop("conn_k")
        d["path"] = "stochastic" if d.pop("stochastic_path") else "general"
        return d


FIXED_BITS = 128   # fractional bits of _power_bounds' fixed-point numbers


def _power_bounds(x: Fraction, n: int) -> tuple[int, int]:
    """Integers lo <= x^n 2^FIXED_BITS <= hi, for 0 <= x <= 1: binary
    powering with every product rounded down for lo and up for hi."""
    lo, rem = divmod(x.numerator << FIXED_BITS, x.denominator)
    hi = lo + (rem > 0)
    plo = phi = 1 << FIXED_BITS
    while n:
        if n & 1:
            plo, phi = plo * lo >> FIXED_BITS, -(-phi * hi >> FIXED_BITS)
        lo, hi, n = lo * lo >> FIXED_BITS, -(-hi * hi >> FIXED_BITS), n >> 1
    return plo, phi


def _reaches_one(q: Fraction, k: int, a: Fraction, m: int) -> bool:
    """Whether q^k + a^m >= 1, for q and a in [0, 1]: decided on
    ``_power_bounds``, and on the exact powers only when those straddle 1
    (as they do when the sum is exactly 1 in non-dyadic fractions)."""
    (qlo, qhi), (alo, ahi) = _power_bounds(q, k), _power_bounds(a, m)
    if qlo + alo < 1 << FIXED_BITS <= qhi + ahi:
        return q**k + a**m >= 1
    return qlo + alo >= 1 << FIXED_BITS


def certified_gap_bound(
    alpha: float,
    D: int,
    R: int,
    conn_k: Optional[int] = None,
    rho: float = 1.0,
    stochastic: bool = False,
) -> GapCertificate:
    """Compose the k-step substochasticity bound with the h-transform.

    Set k = D + R.  General path: alpha_bar = (alpha/rho)^(conn_k+1),
    eps0' = alpha_bar^k, bound = rho * (1 - eps0')^(1/k).  Stochastic fast
    path (rows sum to 1 and rho = 1): no transform, eps0' = eps0 = alpha^k.
    A given conn_k below 1 is refused on either path.
    """
    alpha = float(alpha)
    rho = float(rho)
    if not (0 < alpha <= 1):
        raise ChainError(f"--alpha must be in (0, 1], got {alpha}")
    if D < 0 or R < 1:
        raise ChainError(f"need --D >= 0 and --R >= 1, got D={D}, R={R}")
    # measured spectral radii of stochastic chains can overshoot 1 by eig noise
    if 1.0 < rho <= 1.0 + 1e-9:
        rho = 1.0
    if not (0 < rho <= 1):
        raise ChainError(f"--rho must be in (0, 1], got {rho}")
    if not stochastic and (conn_k is None or conn_k < 1):
        raise ChainError(f"the general path requires --conn-K >= 1, got {conn_k}")
    if conn_k is not None and conn_k < 1:
        raise ChainError(f"--conn-K must be >= 1, got {conn_k}")
    if stochastic and abs(rho - 1.0) > 1e-12:
        raise ChainError(f"the stochastic fast path requires --rho 1, got {rho}")
    if not stochastic and alpha > rho:
        raise ChainError(f"--alpha {alpha} exceeds --rho {rho}; weights are inconsistent")
    # the stochastic path is the general one without a transform
    r, j = (1.0, 1) if stochastic else (rho, conn_k + 1)
    k = D + R
    eps0 = alpha**k
    alpha_bar = (alpha / r) ** j
    eps0_prime = alpha_bar**k
    if not (0 < eps0_prime < 1):
        raise DegenerateBound(
            f"post-transform floor alpha_bar^k = {eps0_prime} outside (0, 1);"
            " the bound degenerates"
        )
    eps = -math.expm1(math.log1p(-eps0_prime) / k)
    bound = rho * (1.0 - eps)
    # round outward, by 1, 2, 4, ... ulps (when alpha_bar^k is near 1 the
    # float formula can fall far short), until bound^k >= r^k (1 - alpha_bar^k)
    # holds exactly for the inputs' exact alpha_bar = (alpha/r)^j
    # (no check when the float bound already equals rho: it degenerates)
    step = math.ulp(bound)
    if bound < rho:
        r = Fraction(r)
        a = Fraction(alpha) / r
        while bound < rho and not _reaches_one(Fraction(bound) / r, k, a, j * k):
            bound, step = bound + step, 2 * step
    if not bound < rho:
        raise DegenerateBound(
            f"per-step drop eps = {eps:.3g} is below float resolution at rho = {rho};"
            " the bound degenerates to rho"
        )
    return GapCertificate(
        alpha=alpha,
        D=D,
        R=R,
        k=k,
        eps0=eps0,
        conn_k=conn_k,
        alpha_bar=alpha_bar,
        eps0_prime=eps0_prime,
        eps=eps,
        rho=rho,
        bound=bound,
        stochastic_path=stochastic,
    )


@dataclass
class RowSumCheck:
    """Result of empirically checking sum_y p_F^(k)(x, y) <= 1 - alpha^k."""

    k: int
    threshold: object
    rows: dict = field(compare=False)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def max_row_sum(self):
        return max(self.rows.values())


def k_step_restricted_rowsum_check(
    chain: WeightedChain,
    forbidden: ForbiddenSet,
    D: int,
    w: Window,
    alpha=None,
) -> RowSumCheck:
    """Empirical check that restricted k-step row sums drop below 1 - alpha^k,
    for k = D + R with R the length of the longest forbidden word.

    With F relatively D-dense, every vertex can reach and read some
    forbidden word within k steps, and that excluded bundle of paths
    carries mass at least alpha^k.  ``alpha`` is the floor a certificate
    claims (default the chain's own).  A counterexample indicates a wrong D
    or alpha (or a window-boundary effect on finite inspection) and is
    reported as data rather than raised.
    """
    k = D + forbidden.max_length
    threshold = 1 - (chain.alpha if alpha is None else alpha) ** k
    slack = 0 if isinstance(threshold, Fraction) else 1e-12
    rows = {}
    violations = []
    for x in w.distances:
        total = n_step_vector(chain, x, k, forbidden=forbidden).total()
        rows[x] = total
        if total > threshold + slack:
            violations.append((x, total))
    return RowSumCheck(k=k, threshold=threshold, rows=rows, violations=violations)


IDENTITY_THRESHOLD = 0.05   # the largest difference a transform identity check accepts


@dataclass
class TransformIdentityReport:
    """Numerical check of rho_{x,y}(P^h_F) = rho_{x,y}(P_F) / rho(P)."""

    lhs: float
    rhs: float
    rho_hat: float
    difference: float

    @property
    def ok(self) -> bool:
        return self.difference <= IDENTITY_THRESHOLD


def transform_identity_check(
    chain: WeightedChain,
    hv: HarmonicVector,
    forbidden: ForbiddenSet,
    x: Vertex,
    y: Vertex,
    N: int,
    restricted: RhoEstimate,
) -> TransformIdentityReport:
    """Compare the decay rate of the transformed restricted chain with
    ``restricted``, the original's estimate at the same x, y and N, divided
    by the window's rho; the check passes within ``IDENTITY_THRESHOLD``."""
    lhs = rho_estimate(h_transform(chain, hv), x, y, N, forbidden=forbidden).value
    return TransformIdentityReport(lhs=lhs, rhs=restricted.value, rho_hat=hv.rho_hat,
                                   difference=abs(lhs - restricted.value / hv.rho_hat))


def entropy_from_rho(rho: float, sigma_size: int) -> float:
    """Dictionary between decay rates and entropies: log(rho * |alphabet|)."""
    if rho <= 0:
        return NEG_INF
    return math.log(rho * sigma_size)


def resolve_certificate(
    g: LabelledGraph,
    forbidden: ForbiddenSet,
    x: Optional[Vertex] = None,
):
    """Assemble a GapCertificate for the words read from x (default: the
    first root).

    The certificate is the uniform chain's, so alpha = 1/|alphabet|, its
    exact edge floor.  On a finite graph D, conn_k and rho are computed
    exactly on its part reachable from x, whatever it declares: D is the
    largest distance from a vertex to a reader of a word of F, conn_k the
    largest return distance of an edge, and rho the upper end of its
    Perron bracket (``linalg.spectral_radius``); the certificate is
    emitted only when the bound lies below the bracket's lower end, so
    that bound < rho holds for the true rho.  An infinite graph reads
    conn_k and rho off its ``Declared``: when it is complete it reads every
    word of F from every vertex, so D = 0, and its uniform chain is
    stochastic.  It gets no certificate when it is not given by its
    action or declares no conn_k: nothing is measured on a finite part of
    it.  rho is never fitted: an infinite graph that declares none takes
    rho = 1, which bounds the spectral radius of every substochastic
    chain, and the bound grows with rho.

    Returns (certificate or None, scope, D or None, warnings).  Scope is
    "window" when rho is that default, otherwise "global".
    """
    warnings: list[str] = []
    sigma = len(g.alphabet)
    scope = "global"
    if g.is_finite:
        w = forward_ball(g, g.roots[0] if x is None else x, None)
        dense = estimate_denseness_constant(forbidden, w)
        if dense is None:
            warnings.append(
                "forbidden set is not relatively dense on the window: some vertex"
                " reaches no reader of a forbidden word; no certificate emitted"
            )
            return None, None, None, warnings
        D = dense.D
        conn_k = uniform_connectedness_constant(g, w)
        if conn_k is None:
            warnings.append(
                "window is not uniformly connected (some edge has no short return"
                " path); no certificate emitted"
            )
            return None, None, D, warnings
        # w is the part reachable from x: unreachable vertices do not
        # bound the language of x
        lo, rho = (end / sigma for end in linalg.spectral_radius(w.adjacency()))
    else:
        if not g.complete:
            warnings.append(
                "the infinite graph is not given by its action (act=), so no"
                " denseness constant is known on all of it; no certificate emitted"
            )
            return None, None, None, warnings
        D = 0
        conn_k, rho = g.declared.conn_k, g.declared.rho
        if conn_k is None:
            warnings.append(
                "the infinite graph declares no uniform-connectedness constant;"
                " no certificate emitted"
            )
            return None, None, D, warnings
        if rho is None:
            rho, scope = 1.0, "window"
        lo = rho

    # an infinite graph here is complete, so fully deterministic
    stochastic = abs(rho - 1.0) <= 1e-12 and (
        not g.is_finite or not check_fully_deterministic(w))
    try:
        certificate = certified_gap_bound(
            alpha=1.0 / sigma, D=D, R=forbidden.max_length, conn_k=conn_k, rho=rho,
            stochastic=stochastic,
        )
    except (ChainError, DegenerateBound) as exc:
        warnings.append(f"certificate parameters out of range: {exc}")
        return None, None, D, warnings
    if not certificate.bound < lo:
        warnings.append(
            f"rho's Perron bracket [{lo!r}, {rho!r}] is too wide for the drop: the bound"
            f" {certificate.bound!r} is not below its lower end; no certificate emitted"
        )
        return None, None, D, warnings
    if scope == "window":
        warnings.append(
            "the graph declares no rho, so rho = 1 was taken (it bounds the"
            " spectral radius of every substochastic chain); the certificate"
            " scope reads 'window'"
        )
    return certificate, scope, D, warnings

