"""Schreier coset graphs as lazy labelled graphs.

A group action specification gives, for each coset descriptor and alphabet
symbol, the descriptor of the right-translated coset.  The resulting graph
is given by that action (``LabelledGraph(..., act=...)``), so it is
complete (exactly one out-edge per symbol) by construction, and the
language of loops at the root coset is the word problem of the pair
(group, subgroup) with respect to the chosen presentation.

Built-in families ship canonical descriptor forms and declared global
constants; arbitrary user actions plug in through ActionSpec with opaque
text descriptors and a pure ``act`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .graphs import ActionError, Declared, LabelledGraph, Vertex  # noqa: F401 (re-exported)


@dataclass(frozen=True)
class ActionSpec:
    """Right action of alphabet symbols on canonical coset descriptors."""

    alphabet: tuple[str, ...]
    act: Callable[[Vertex, str], Vertex] = field(compare=False)
    root: Vertex = ""
    declared: Declared = field(default_factory=Declared)


def schreier_graph(spec: ActionSpec) -> LabelledGraph:
    """The graph given by the spec's action: the a-edge out of v is
    (v, a, act(v, a)).  Out-degree is exactly |alphabet| everywhere, so the
    graph is complete, and its searches read a layer's targets off the
    action, with no edge triple built or checked.  An action failure is a
    hard error, not a missing edge: ``ActionError`` names the (v, a).
    """
    return LabelledGraph(spec.alphabet, None, [spec.root], spec.declared, act=spec.act)


def line_z() -> ActionSpec:
    """The integer line: generator r steps +1, its inverse l steps -1.

    Cayley graph of the integers; the uniform chain is the simple random
    walk, rho = 1.
    """
    return ActionSpec(
        alphabet=("l", "r"),
        act=lambda n, a: n + 1 if a == "r" else n - 1,
        root=0,
        declared=Declared(conn_k=1, rho=1.0),
    )


def grid_z2() -> ActionSpec:
    """The square grid: u/d move the second coordinate, r/l the first."""
    moves = {"r": (1, 0), "l": (-1, 0), "u": (0, 1), "d": (0, -1)}

    def act(v, a):
        dx, dy = moves[a]
        return (v[0] + dx, v[1] + dy)

    return ActionSpec(
        alphabet=("d", "l", "r", "u"),
        act=act,
        root=(0, 0),
        declared=Declared(conn_k=1, rho=1.0),
    )


_FREE2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _free_reduce_append(word: str, sym: str) -> str:
    if word and word[-1] == _FREE2_INVERSE[sym]:
        return word[:-1]
    return word + sym


def free2_mod_cyclic() -> ActionSpec:
    """Cosets of the cyclic subgroup generated by a inside the free group
    on a, b (capital letters are inverses).

    A coset descriptor is the freely reduced word with its maximal leading
    run of a/A letters removed: the root coset reads both a and A as loops.
    Not vertex-transitive, and no rho is declared, so a certificate takes
    rho = 1.
    """

    def act(d, sym):
        w = _free_reduce_append(d, sym)
        return w.lstrip("aA")

    return ActionSpec(
        alphabet=("A", "B", "a", "b"),
        act=act,
        root="",
        declared=Declared(conn_k=1),
    )


_FAMILIES = {
    "line_Z": line_z,
    "grid_Z2": grid_z2,
    "free2_mod_cyclic": free2_mod_cyclic,
}


def builtin_family(name: str) -> ActionSpec:
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; available: {', '.join(sorted(_FAMILIES))}"
        ) from None


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))

