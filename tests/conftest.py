import hypothesis
import pytest

import entroscope as es

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def b2():
    """Full 2-shift: one vertex, loops a and b."""
    return es.explicit_graph(
        ["a", "b"], [("v", "a", "v"), ("v", "b", "v")], roots=["v"]
    )


@pytest.fixture
def golden_mean():
    """Two vertices; words avoiding aa.  Entropy log((1+sqrt5)/2)."""
    return es.explicit_graph(
        ["a", "b"],
        [("v1", "a", "v2"), ("v1", "b", "v1"), ("v2", "b", "v1")],
        roots=["v1"],
        declared=es.Declared(conn_k=1),
    )


@pytest.fixture
def three_cycle():
    """Directed 3-cycle, one label per edge: one word per length multiple of 3."""
    return es.explicit_graph(
        ["a", "b", "c"],
        [("0", "a", "1"), ("1", "b", "2"), ("2", "c", "0")],
        roots=["0"],
    )


@pytest.fixture
def two_cycle():
    """x -a-> y -b-> x."""
    return es.explicit_graph(
        ["a", "b"], [("x", "a", "y"), ("y", "b", "x")], roots=["x"]
    )


@pytest.fixture
def line_z():
    return es.schreier_graph(es.builtin_family("line_Z"))


@pytest.fixture
def grid_z2():
    return es.schreier_graph(es.builtin_family("grid_Z2"))


@pytest.fixture
def free2():
    return es.schreier_graph(es.builtin_family("free2_mod_cyclic"))
