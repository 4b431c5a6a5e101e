"""Forbidden-factor machinery.

Builds the matching automaton for a finite set F of forbidden words
(prefix trie plus failure links, with factor detection closed under the
failure chain), forms the product graph whose paths are exactly the
F-avoiding paths of a base graph, and certifies relative denseness: from
every vertex, within forward distance D, some word of F can be read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

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

    States are prefix-trie nodes (ints, 0 = empty prefix); ``step`` follows
    the goto table completed through failure links, so after reading any
    word u the current state is the longest trie prefix that is a suffix
    of u.  A state is dead iff its failure chain meets a full word of F,
    i.e. the automaton is in a dead state at position i exactly when some
    forbidden word ends at position i.  Dead states are absorbing.
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
        self.forbidden = forbidden
        self.start = 0
        goto: list[dict[str, int]] = [{}]
        terminal: list[bool] = [False]
        for w in forbidden.words:
            s = 0
            for sym in w:
                if sym not in goto[s]:
                    goto.append({})
                    terminal.append(False)
                    goto[s][sym] = len(goto) - 1
                s = goto[s][sym]
            terminal[s] = True
        # full transition table, filled in breadth-first order over the trie:
        # a move the trie lacks is the move of the failure state, a shallower
        # state whose row is already complete
        fail = [0] * len(goto)
        table: list[dict[str, int]] = [{} for _ in goto]
        queue = [0]
        for s in queue:
            for sym in self.alphabet:
                t = goto[s].get(sym)
                if t is None:
                    table[s][sym] = table[fail[s]][sym] if s else 0
                    continue
                table[s][sym] = t
                fail[t] = table[fail[s]][sym] if s else 0
                terminal[t] = terminal[t] or terminal[fail[t]]
                queue.append(t)
        dead = frozenset(s for s, t in enumerate(terminal) if t)
        for s in dead:
            table[s] = dict.fromkeys(self.alphabet, s)
        self._table = table
        self.dead = dead
        self.states = tuple(range(len(goto)))

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
    the base roots paired with the start state.  The product declares
    nothing: it is not complete even when the base graph is.
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
        name=f"{g.name}/avoiding" if g.name else "product",
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
    backward pass over each word's letters on the window's edges; the
    distances to them from one backward search (``linalg.steps_to``).
    Returns a DensenessCertificate, or the uncovered vertices in window
    order.  A window with boundary edges raises ValueError: its distances
    would ignore the paths that leave it.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    if w.boundary:
        raise ValueError("denseness is certified on closed windows only (no boundary edges)")
    readers: set = set()
    for word in forbidden.words:
        r = w.vertices
        for a in reversed(word):
            r = {e.source for e in w.edges if e.label == a and e.target in r}
        readers |= r
    order = list(w.distances)
    steps = linalg.steps_to(w.adjacency(), [v in readers for v in order], D).tolist()
    uncovered = [v for v, d in zip(order, steps) if d < 0]
    if uncovered:
        return uncovered
    return DensenessCertificate(D=D, distances=dict(zip(order, steps)))


def estimate_denseness_constant(
    forbidden: ForbiddenSet, w: Window, D_max: int
) -> Optional[DensenessCertificate]:
    """Smallest D <= D_max admitting a denseness certificate on the closed
    window, or None: the largest distance from a window vertex to a reader."""
    if D_max < 0:
        raise ValueError("D_max must be >= 0")
    cert = certify_denseness(forbidden, D_max, w)
    if not isinstance(cert, DensenessCertificate):
        return None
    return DensenessCertificate(D=max(cert.distances.values()), distances=cert.distances)
