"""Forbidden-factor machinery.

Builds the matching automaton for a finite set F of forbidden words (its
states the prefixes of F, each step to the longest suffix that is a
prefix, a state dead once a word of F ends it), forms the product graph
whose paths are exactly the F-avoiding paths of a base graph, and
certifies relative denseness: from every vertex, within forward distance
D, some word of F can be read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import linalg
from .graphs import Edge, LabelledGraph, Vertex, Window

Word = tuple[str, ...]


class ForbiddenWordError(ValueError):
    """A forbidden word is empty or uses a symbol outside the alphabet."""


@dataclass(frozen=True)
class ForbiddenSet:
    """Finite nonempty set of nonempty words over the graph alphabet."""

    words: tuple[Word, ...]

    def __post_init__(self):
        if not self.words:
            raise ForbiddenWordError("forbidden set must be nonempty")
        for w in self.words:
            if len(w) == 0:
                raise ForbiddenWordError("the empty word cannot be forbidden")

    @property
    def max_length(self) -> int:
        return max(len(w) for w in self.words)

    @classmethod
    def from_strings(cls, words: Iterable[str], alphabet: Iterable[str]) -> "ForbiddenSet":
        """Parse text words into label sequences.

        If every alphabet symbol is a single character, a word like "aa"
        splits per character; otherwise symbols must be comma-separated
        ("up,up").  Unknown symbols raise ForbiddenWordError.
        """
        alpha = tuple(alphabet)
        alpha_set = set(alpha)
        single = all(len(a) == 1 for a in alpha)
        parsed = []
        for text in words:
            if "," in text:
                parts = tuple(p for p in text.split(",") if p)
            elif text in alpha_set:
                parts = (text,)
            elif single:
                parts = tuple(text)
            else:
                raise ForbiddenWordError(
                    f"cannot split word {text!r} over multi-character alphabet; use commas"
                )
            for sym in parts:
                if sym not in alpha_set:
                    raise ForbiddenWordError(f"symbol {sym!r} not in alphabet {alpha}")
            parsed.append(parts)
        return cls(words=tuple(dict.fromkeys(parsed)))

    def as_strings(self) -> tuple[str, ...]:
        return tuple(
            "".join(w) if all(len(s) == 1 for s in w) else ",".join(w) for w in self.words
        )


class FactorAutomaton:
    """Deterministic automaton detecting occurrences of the words of F.

    The states are the prefixes of the words of F (ints numbered in order
    of first appearance, 0 = the empty prefix).  ``step`` moves from
    prefix p on symbol a to the longest suffix of p·a that is a prefix, so
    after reading any word u the current state is the longest prefix that
    is a suffix of u.  A state is dead iff some word of F is a suffix of
    its prefix, i.e. the automaton is in a dead state at position i
    exactly when some forbidden word ends at position i.  Dead states are
    absorbing.
    """

    def __init__(self, forbidden: ForbiddenSet, alphabet: Iterable[str]):
        self.alphabet = tuple(alphabet)
        alpha_set = set(self.alphabet)
        for w in forbidden.words:
            for sym in w:
                if sym not in alpha_set:
                    raise ForbiddenWordError(
                        f"forbidden word {w} uses symbol {sym!r} outside the alphabet"
                    )
        self.start = 0
        words = set(forbidden.words)
        prefixes = list(dict.fromkeys(w[:i] for w in forbidden.words for i in range(len(w) + 1)))
        index = {p: s for s, p in enumerate(prefixes)}

        def longest(u: Word) -> int:
            # the empty suffix u[len(u):] is always a prefix
            return next(index[u[i:]] for i in range(len(u) + 1) if u[i:] in index)

        self.dead = frozenset(
            s for s, p in enumerate(prefixes) if any(p[i:] in words for i in range(len(p)))
        )
        self._table = [
            dict.fromkeys(self.alphabet, s) if s in self.dead
            else {a: longest(p + (a,)) for a in self.alphabet}
            for s, p in enumerate(prefixes)
        ]
        self.states = tuple(range(len(prefixes)))

    def step(self, state: int, symbol: str) -> int:
        return self._table[state][symbol]

    def run(self, word: Iterable[str]) -> int:
        """State after reading the word; stays in a dead state once entered."""
        s = self.start
        for sym in word:
            s = self.step(s, sym)
        return s

    def rejects(self, word: Iterable[str]) -> bool:
        """True iff some forbidden word occurs as a factor of the word."""
        return self.run(word) in self.dead


def product_graph(
    g: LabelledGraph,
    automaton: FactorAutomaton,
    roots: Optional[Iterable[Vertex]] = None,
) -> LabelledGraph:
    """Lazy graph over pair vertices (v, state) whose paths from (x, start)
    are exactly the F-avoiding paths from x in the base graph.

    Edges stepping into a dead automaton state are pruned, so path counting
    on the product directly counts F-avoiding paths.  ``roots`` defaults to
    the base roots paired with the start state.  The product is given by
    its ``expand`` and declares nothing: it is not complete even when the
    base graph is.  It keeps the
    base graph's search budget.
    """
    if set(automaton.alphabet) != set(g.alphabet):
        raise ForbiddenWordError("graph and factor automaton use different alphabets")
    if roots is None:
        roots = g.roots
    start = automaton.start

    def expand(pair):
        v, s = pair
        out = []
        for e in g.out_edges(v):
            s2 = automaton.step(s, e.label)
            if s2 not in automaton.dead:
                out.append(Edge(pair, e.label, (e.target, s2)))
        return out

    return LabelledGraph(
        alphabet=g.alphabet,
        expand=expand,
        roots=[(r, start) for r in roots],
        budget=g.budget,
    )


def avoiding(
    g: LabelledGraph, x: Vertex, forbidden: Optional[ForbiddenSet]
) -> tuple[LabelledGraph, Vertex]:
    """(graph, start) whose paths from start are the paths from x in g that
    avoid the forbidden words: the product graph, or g itself without F."""
    if forbidden is None:
        return g, x
    automaton = FactorAutomaton(forbidden, g.alphabet)
    return product_graph(g, automaton, roots=[x]), (x, automaton.start)


def base_edge(e: Edge) -> Edge:
    """The base-graph edge underlying a product-graph edge."""
    (v, _), (t, _) = e.source, e.target
    return Edge(v, e.label, t)


@dataclass(frozen=True)
class DensenessCertificate:
    """Proof that F is relatively D-dense on a window: per vertex, the
    number of steps to its nearest reader of a forbidden word, each <= D."""

    D: int
    distances: dict = field(compare=False)  # vertex -> steps


def certify_denseness(forbidden: ForbiddenSet, D: int, w: Window):
    """Check that from every vertex of a closed window some forbidden word
    can be read within forward distance D.

    The readers, vertices from which a word of F labels a path, come from a
    backward pass over each word's letters on boolean masks of the window's
    ``label`` and ``target`` columns; the distances to them from one
    backward search (``linalg.steps_to``).
    Returns a DensenessCertificate, or the uncovered vertices in window
    order.  A window with boundary edges raises ValueError: its distances
    would ignore the paths that leave it.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    if w.inside < len(w.source):
        raise ValueError("denseness is certified on closed windows only (no boundary edges)")
    n, code = len(w.distances), {a: i for i, a in enumerate(w.alphabet)}
    readers = np.zeros(n, dtype=bool)
    for word in forbidden.words:
        r = np.ones(n, dtype=bool)
        for a in reversed(word):
            r = np.bincount(w.source[(w.label == code.get(a, -1)) & r[w.target]], minlength=n) > 0
        readers |= r
    order = list(w.distances)
    steps = linalg.steps_to(w.adjacency(), readers, D).tolist()
    uncovered = [v for v, d in zip(order, steps) if d < 0]
    if uncovered:
        return uncovered
    return DensenessCertificate(D=D, distances=dict(zip(order, steps)))


def estimate_denseness_constant(
    forbidden: ForbiddenSet, w: Window
) -> Optional[DensenessCertificate]:
    """Smallest D admitting a denseness certificate on the closed window,
    the largest distance from a window vertex to a reader, or None when
    some vertex reaches no reader.  The search is uncapped: a distance in
    a closed window is below its vertex count."""
    cert = certify_denseness(forbidden, len(w.distances), w)
    if not isinstance(cert, DensenessCertificate):
        return None
    return DensenessCertificate(D=max(cert.distances.values()), distances=cert.distances)
