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

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from . import linalg
from .census import (
    EntropyEstimate,
    WordCensus,
    count_words,
    entropy_from_counts,
    path_counts,
    path_weights,
)
from .factors import ForbiddenSet, avoiding, base_edge, estimate_denseness_constant
from .graphs import (
    DEFAULT_BUDGET,
    Edge,
    ExpansionBudgetExceeded,
    LabelledGraph,
    Vertex,
    Window,
    check_fully_deterministic,
    forward_ball,
    full_window,
    uniform_connectedness_constant,
    vertex_key,
)
from .growth import InsufficientData, fit_log_growth

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
    ``alpha`` makes the row-sum comparisons exact.
    """

    graph: LabelledGraph
    weight: Callable[[Edge], object] = field(compare=False)
    alpha: object = 0.0            # Fraction or float lower bound
    uniform: bool = False


def uniform_weights(g: LabelledGraph) -> WeightedChain:
    """Every edge gets probability Fraction(1, |alphabet|).

    On deterministic graphs the rows sum to out-degree/|alphabet| <= 1; an
    out-degree above |alphabet| is refused on finite graphs.
    """
    sigma = len(g.alphabet)
    p = Fraction(1, sigma)
    chain = WeightedChain(graph=g, weight=lambda e: p, alpha=p, uniform=True)
    if g.is_finite:
        for v in g.vertex_list:
            if len(g.out_edges(v)) > sigma:
                raise ChainError(
                    f"vertex {vertex_key(v)} has out-degree {len(g.out_edges(v))} > |alphabet|"
                )
    return chain


def _float_weight(chain: WeightedChain) -> Callable[[Edge], float]:
    """The chain's edge weight as a float; a uniform chain's is one constant."""
    p = float(chain.alpha)
    return (lambda e: p) if chain.uniform else (lambda e: float(chain.weight(e)))


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
    return StepDistribution({start: 1}, forbidden, graph)


def step(
    chain: WeightedChain, dist: StepDistribution, budget: int = DEFAULT_BUDGET
) -> StepDistribution:
    """One transition-matrix multiplication over lazily expanded edges."""
    weight = chain.weight
    if dist.forbidden is not None:
        weight = lambda e: chain.weight(base_edge(e))
    mass: dict = {}
    for v, m in dist.mass.items():
        for e in dist.graph.out_edges(v):
            mass[e.target] = mass.get(e.target, 0) + m * weight(e)
    if len(mass) > budget:
        raise ExpansionBudgetExceeded(f"step frontier exceeded --budget {budget} states")
    return StepDistribution(mass, dist.forbidden, dist.graph)


def n_step_vector(
    chain: WeightedChain,
    x: Vertex,
    n: int,
    forbidden: Optional[ForbiddenSet] = None,
    budget: int = DEFAULT_BUDGET,
) -> StepDistribution:
    """The exact distribution after n steps from x, one ``step`` at a time."""
    dist = initial_distribution(chain, x, forbidden)
    for _ in range(n):
        dist = step(chain, dist, budget=budget)
    return dist


def probability_table(
    chain: WeightedChain,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
    budget: int = DEFAULT_BUDGET,
) -> list:
    """p^(n)(x, y) (or the F-restricted variant) for n = 0..N.

    A uniform chain's p^(n)(x, y) is c_n / |alphabet|^n for the exact path
    count c_n of ``census.path_counts``; any other chain's table is the
    float64 weighted path sum of ``census.path_weights``.
    """
    if not chain.uniform:
        return path_weights(chain.graph, x, y, N, chain.weight, forbidden=forbidden, budget=budget)
    counts = path_counts(chain.graph, x, y, N, forbidden=forbidden, budget=budget)
    sigma = len(chain.graph.alphabet)
    return [Fraction(c, sigma**n) for n, c in enumerate(counts)]


@dataclass
class RhoEstimate:
    """Tail-slope estimate of limsup p^(n)(x,y)^(1/n)."""

    value: float
    period: int
    residual: float
    converged: bool
    table: list = field(repr=False, default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def rho_estimate(
    chain: WeightedChain,
    x: Vertex,
    y: Vertex,
    N: int,
    forbidden: Optional[ForbiddenSet] = None,
    tail: int = 20,
    budget: int = DEFAULT_BUDGET,
) -> RhoEstimate:
    """Periodicity-aware decay-rate estimate of the n-step probabilities.

    Shares the estimator used for word counts; polynomial prefactors (e.g.
    the n^(-1/2) of recurrent walks) bias the slope at desk horizons, which
    shows up in the residual diagnostic.
    """
    if N < MIN_DEPTH:
        raise InsufficientData(f"a decay-rate fit needs N >= {MIN_DEPTH}, got N = {N}")
    table = probability_table(chain, x, y, N, forbidden=forbidden, budget=budget)
    fit = fit_log_growth(table, tail=tail)
    if fit.finite:
        flag = "finite_support" if any(table) else "all_zero"
        return RhoEstimate(
            value=0.0, period=fit.period, residual=0.0, converged=False, table=table,
            diagnostics={flag: True},
        )
    return RhoEstimate(
        value=math.exp(fit.value),
        period=fit.period,
        residual=fit.residual,
        converged=fit.residual <= 0.1,
        table=table,
        diagnostics={"last_ratio": fit.last_ratio, "points_used": fit.points_used},
    )


@dataclass
class HarmonicVector:
    """Approximate positive solution of P h = rho h on a window."""

    rho_hat: float
    values: dict                       # vertex -> positive float
    residual: float                    # max |Ph - rho h| / h on the inner window
    center: Vertex
    radius: int
    scheme: str = "reflecting"
    tol: float = 1e-8
    diagnostics: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.residual <= self.tol


def harmonic_vector(
    chain: WeightedChain,
    center: Vertex,
    radius: int,
    tol: float = 1e-8,
    scheme: str = "reflecting",
    budget: int = DEFAULT_BUDGET,
) -> HarmonicVector:
    """Leading eigenpair of the window-truncated transition matrix.

    ``reflecting`` renormalizes rows that leak mass out of the window back
    to their full row sum (the default: killing the boundary biases the
    eigenvalue downward on recurrent graphs); ``absorbing`` keeps the
    truncated rows.  The residual is measured against the untruncated rows
    on the inner window (radius - 1), where no edge leaves the ball.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2")
    if scheme not in ("reflecting", "absorbing"):
        raise ValueError(f"unknown truncation scheme {scheme!r}")
    ball = forward_ball(chain.graph, center, radius, budget=budget)
    verts = list(ball.distances)
    weight = _float_weight(chain)
    matrix = ball.adjacency(weight)
    # every vertex of a forward ball is reached from the center (index 0),
    # so the window is strongly connected iff every vertex reaches it
    if (linalg.steps_to(matrix, np.arange(len(verts)) == 0) < 0).any():
        raise ChainError("the window is not strongly connected; no positive harmonic vector")
    if scheme == "reflecting":
        kept = np.asarray(matrix.sum(axis=1)).ravel()
        leaked = np.bincount(ball.source[len(ball.edges):], [weight(e) for e in ball.boundary],
                             minlength=len(verts))
        scale = np.divide(kept + leaked, kept, out=np.ones(len(verts)), where=kept > 0)
        matrix = sparse.diags(scale) @ matrix
    res = linalg.perron_root(matrix)
    h = res.vector / res.vector[0]
    values = dict(zip(verts, h.tolist()))
    rho_hat = res.value
    # verts run by distance, so the inner rows come first; no edge leaves the
    # window from them, so they are complete and reflecting left them unscaled
    inner = sum(d < radius for d in ball.distances.values())
    residual = float(np.max(np.abs(matrix @ h - rho_hat * h)[:inner] / h[:inner]))
    return HarmonicVector(
        rho_hat=rho_hat,
        values=values,
        residual=residual,
        center=center,
        radius=radius,
        scheme=scheme,
        tol=tol,
        diagnostics={
            "rho_" + scheme: rho_hat,
            "iterations": res.iterations,
            "window_size": len(verts),
        },
    )


def h_transform(
    chain: WeightedChain, hv: HarmonicVector, conn_k: Optional[int] = None
) -> WeightedChain:
    """Reweight p^h(e) = p(e) h(e+) / (rho h(e-)) on the harmonic window.

    With an exact harmonic vector the result is stochastic; the new edge
    floor is alpha_bar = (alpha/rho)^(conn_k + 1), which requires the
    uniform-connectedness constant.
    """
    if conn_k is None:
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
    rho = hv.rho_hat
    values = hv.values
    base = _float_weight(chain)

    def weight(e: Edge):
        try:
            hy = values[e.target]
            hx = values[e.source]
        except KeyError as exc:
            raise ChainError(
                f"edge {vertex_key(e.source)} -{e.label}-> {vertex_key(e.target)}"
                f" leaves the harmonic window (--hv-radius {hv.radius}); the window"
                " must cover the --depth ball around x"
            ) from exc
        return base(e) * hy / (rho * hx)

    alpha_bar = (float(chain.alpha) / rho) ** (conn_k + 1)
    return WeightedChain(graph=chain.graph, weight=weight, alpha=alpha_bar)


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
    k = D + R
    eps0 = alpha**k
    if stochastic:
        if abs(rho - 1.0) > 1e-12:
            raise ChainError(f"the stochastic fast path requires --rho 1, got {rho}")
        alpha_bar = alpha
    else:
        if conn_k is None or conn_k < 1:
            raise ChainError(f"the general path requires --conn-K >= 1, got {conn_k}")
        if alpha > rho:
            raise ChainError(f"--alpha {alpha} exceeds --rho {rho}; weights are inconsistent")
        alpha_bar = (alpha / rho) ** (conn_k + 1)
    eps0_prime = alpha_bar**k
    if not (0 < eps0_prime < 1):
        raise DegenerateBound(
            f"post-transform floor alpha_bar^k = {eps0_prime} outside (0, 1);"
            " the bound degenerates"
        )
    eps = -math.expm1(math.log1p(-eps0_prime) / k)
    bound = rho * (1.0 - eps)
    # round outward, by 1, 2, 4, ... ulps (when alpha_bar^k is near 1 the
    # float formula can fall far short), until bound^k >= rho^k (1 - alpha_bar^k)
    # holds exactly for the inputs' exact alpha_bar (alpha on the stochastic path)
    # (no exact power when the float bound already equals rho: it degenerates)
    step = math.ulp(bound)
    if bound < rho:
        r = Fraction(1 if stochastic else rho)
        exact = r**k * (1 - (Fraction(alpha) / r) ** (k if stochastic else (conn_k + 1) * k))
        while bound < rho and Fraction(bound) ** k < exact:
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
    k: int,
    w: Window,
    budget: int = DEFAULT_BUDGET,
    alpha=None,
) -> RowSumCheck:
    """Empirical check that restricted k-step row sums drop below 1 - alpha^k.

    With k = D + R and F relatively D-dense, every vertex can reach and read
    some forbidden word within k steps, and that excluded bundle of paths
    carries mass at least alpha^k.  ``alpha`` is the floor a certificate
    claims (default the chain's own).  A counterexample indicates a wrong D
    or alpha (or a window-boundary effect on finite inspection) and is
    reported as data rather than raised.
    """
    if k != D + forbidden.max_length:
        raise ChainError(
            f"k = {k} is not D + R = {D} + {forbidden.max_length}:"
            " --R must be the length of the longest forbidden word"
        )
    threshold = 1 - (chain.alpha if alpha is None else alpha) ** k
    slack = 0 if isinstance(threshold, Fraction) else 1e-12
    rows = {}
    violations = []
    for x in w.distances:
        total = n_step_vector(chain, x, k, forbidden=forbidden, budget=budget).total()
        rows[x] = total
        if total > threshold + slack:
            violations.append((x, total))
    return RowSumCheck(k=k, threshold=threshold, rows=rows, violations=violations)


@dataclass
class TransformIdentityReport:
    """Numerical check of rho_{x,y}(P^h_F) = rho_{x,y}(P_F) / rho(P)."""

    lhs: float
    rhs: float
    rho_hat: float
    difference: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.difference <= self.threshold


def transform_identity_check(
    chain: WeightedChain,
    hv: HarmonicVector,
    forbidden: ForbiddenSet,
    x: Vertex,
    y: Vertex,
    N: int,
    conn_k: Optional[int] = None,
    threshold: float = 0.05,
    tail: int = 20,
    budget: int = DEFAULT_BUDGET,
    restricted: Optional[RhoEstimate] = None,
) -> TransformIdentityReport:
    """Compare the decay rates of the transformed and original restricted
    chains; ``restricted`` is the original's estimate when the caller
    already has it (same x, y, N, tail)."""
    transformed = h_transform(chain, hv, conn_k=conn_k)
    lhs = rho_estimate(transformed, x, y, N, forbidden=forbidden, tail=tail, budget=budget)
    rhs = restricted
    if rhs is None:
        rhs = rho_estimate(chain, x, y, N, forbidden=forbidden, tail=tail, budget=budget)
    difference = abs(lhs.value - rhs.value / hv.rho_hat)
    return TransformIdentityReport(
        lhs=lhs.value,
        rhs=rhs.value,
        rho_hat=hv.rho_hat,
        difference=difference,
        threshold=threshold,
    )


def entropy_from_rho(rho: float, sigma_size: int) -> float:
    """Dictionary between decay rates and entropies: log(rho * |alphabet|)."""
    if rho <= 0:
        return NEG_INF
    return math.log(rho * sigma_size)


@dataclass
class CertificateInputs:
    """User declarations and search limits for certificate resolution."""

    alpha: Optional[float] = None
    D: Optional[int] = None
    D_max: int = 8
    conn_k: Optional[int] = None
    rho: Optional[float] = None


def resolve_certificate(
    g: LabelledGraph,
    forbidden: ForbiddenSet,
    cert_inputs: Optional[CertificateInputs] = None,
    budget: int = DEFAULT_BUDGET,
):
    """Assemble a GapCertificate for the graph.

    Each constant is the option in ``cert_inputs``, else the graph's
    ``Declared`` value or structure, else computed exactly on a finite
    graph (its part reachable from the root).  D is the option once the
    finite graph confirms it, else the smallest D <= D_max found there.  A
    complete infinite graph reads every word of F from every vertex, so
    D = 0 (or the option), and its uniform chain is stochastic.  An
    infinite graph gets no certificate when it is not complete or has no
    conn_k: nothing is measured on a finite part of it.  rho is never
    fitted: an infinite graph that declares none takes rho = 1, which
    bounds the spectral radius of every substochastic chain, and the bound
    grows with rho.

    Returns (certificate or None, scope, D or None, warnings).  Scope is
    "window" when rho is that default, otherwise "global".
    """
    inputs = cert_inputs or CertificateInputs()
    warnings: list[str] = []
    sigma = len(g.alphabet)
    alpha = inputs.alpha if inputs.alpha is not None else 1.0 / sigma
    conn_k = g.declared.conn_k if inputs.conn_k is None else inputs.conn_k
    rho = g.declared.rho if inputs.rho is None else inputs.rho
    scope = "global"
    if g.is_finite:
        w = full_window(g, budget=budget)
        cap, option = (inputs.D_max, "--d-max") if inputs.D is None else (inputs.D, "--D")
        dense = estimate_denseness_constant(forbidden, w, cap)
        if dense is None:
            warnings.append(
                f"forbidden set is not relatively dense on the window within"
                f" D <= {cap} ({option}); no certificate emitted"
            )
            return None, None, None, warnings
        D = dense.D if inputs.D is None else inputs.D
        if conn_k is None:
            conn_k = uniform_connectedness_constant(g, w, K_max=len(w.vertices), budget=budget)
        if conn_k is None:
            warnings.append(
                "window is not uniformly connected (some edge has no short return"
                " path); no certificate emitted"
            )
            return None, None, D, warnings
        if rho is None:
            # w is the part reachable from the root: unreachable vertices do
            # not bound the root's language
            rho = linalg.spectral_radius(w.adjacency()) / sigma
    else:
        if not g.declared.complete:
            warnings.append(
                "the infinite graph is not declared complete, so no denseness"
                " constant is known on all of it; no certificate emitted"
            )
            return None, None, None, warnings
        D = 0 if inputs.D is None else inputs.D
        if conn_k is None:
            warnings.append(
                "the infinite graph declares no uniform-connectedness constant"
                " (--conn-K); no certificate emitted"
            )
            return None, None, D, warnings
        if rho is None:
            rho, scope = 1.0, "window"

    # a complete graph is fully deterministic
    stochastic = (
        abs(rho - 1.0) <= 1e-12
        and abs(alpha - 1.0 / sigma) <= 1e-12
        and (g.declared.complete or not check_fully_deterministic(g, w))
    )
    try:
        certificate = certified_gap_bound(
            alpha=alpha, D=D, R=forbidden.max_length, conn_k=conn_k, rho=rho,
            stochastic=stochastic,
        )
    except (ChainError, DegenerateBound) as exc:
        warnings.append(f"certificate parameters out of range: {exc}")
        return None, None, D, warnings
    if scope == "window":
        warnings.append(
            "the graph declares no rho, so rho = 1 was taken (it bounds the"
            " spectral radius of every substochastic chain); the certificate"
            " scope reads 'window'"
        )
    return certificate, scope, D, warnings


@dataclass
class GapReport:
    """Entropy with and without the forbidden set, their difference, and
    (when the chain constants are resolvable) the certified bound."""

    h: EntropyEstimate
    h_forbidden: EntropyEstimate
    gap: float
    census: WordCensus
    census_forbidden: WordCensus
    certificate: Optional[GapCertificate] = None
    certificate_scope: Optional[str] = None   # "global" | "window"
    denseness_D: Optional[int] = None
    warnings: list = field(default_factory=list)


def entropy_gap_report(
    g: LabelledGraph,
    x: Vertex,
    y: Vertex,
    forbidden: ForbiddenSet,
    N: int,
    tail: int = 20,
    cert_inputs: Optional[CertificateInputs] = None,
    budget: int = DEFAULT_BUDGET,
) -> GapReport:
    """Theorem-level analysis: measure h and h^F from counts and attach a
    certified entropy-gap bound when alpha, D, R, conn_k and rho can be
    declared, measured, or (finite graphs) computed exactly.
    """
    plain = count_words(g, x, y, N, budget=budget)
    restricted = count_words(g, x, y, N, forbidden=forbidden, budget=budget)
    h = entropy_from_counts(plain, tail=tail)
    h_f = entropy_from_counts(restricted, tail=tail)
    certificate, scope, D_used, warnings = resolve_certificate(
        g, forbidden, cert_inputs=cert_inputs, budget=budget
    )
    report = GapReport(
        h=h, h_forbidden=h_f, gap=h.value - h_f.value, census=plain,
        census_forbidden=restricted, certificate=certificate,
        certificate_scope=scope, denseness_D=D_used, warnings=warnings,
    )
    if h_f.value >= h.value - 1e-12 and not h.finite_language:
        report.warnings.append(
            "no measurable entropy drop at this depth; forbidden set may not be"
            " relatively dense (gap ~ 0)"
        )
    return report
