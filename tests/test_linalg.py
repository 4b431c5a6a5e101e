import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import entroscope as es

perron_root = es.linalg.perron_root


@contextlib.contextmanager
def counting_products():
    """Counts the products of every sparse matrix with a vector."""
    count = [0]
    matmul = sparse.csr_matrix.__matmul__

    def counting(self, other):
        count[0] += np.ndim(other) == 1
        return matmul(self, other)

    with mock.patch.object(sparse.csr_matrix, "__matmul__", counting):
        yield count


def irreducible(n, seed, kind):
    """A random irreducible nonnegative integer matrix: a random n-cycle plus
    random entries, symmetrized for ``symmetric``; for ``periodic``, every
    entry leads from one of p classes to the next, p dividing n, so every
    cycle's length and the period are multiples of p."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    A = np.zeros((n, n))
    A[order, np.roll(order, -1)] = rng.integers(1, 4, n)
    extra = (rng.random((n, n)) < rng.uniform(0, 0.3)) * rng.integers(1, 4, (n, n))
    if kind == "periodic":
        p = int(rng.choice([q for q in range(1, n + 1) if n % q == 0]))
        position = np.empty(n, dtype=int)
        position[order] = np.arange(n)
        extra *= (position[:, None] + 1) % p == position[None, :] % p
    A += extra
    return A + A.T if kind == "symmetric" else A


class TestPerronRoot:
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["general", "symmetric", "periodic"]))
    def test_bracket_holds_the_root(self, n, seed, kind):
        A = irreducible(n, seed, kind)
        root = max(abs(np.linalg.eigvals(A)))
        with counting_products() as products:
            res = perron_root(A)
        assert res.iterations == products[0]
        lo, hi = res.bracket
        assert lo <= root * (1 + 1e-12) + 1e-12 and res.value == hi
        assert res.value >= root * (1 - 1e-12)
        assert (res.vector > 0).all()

    @staticmethod
    def inverse_closed_600():
        # a random 600-cycle a, a partial injection b on 360 vertices and
        # their inverses: power iteration alone takes 350-450 products here
        rng = np.random.default_rng(19)
        n = 600
        order = rng.permutation(n)
        A = np.zeros((n, n))
        A[order, np.roll(order, -1)] += 1
        A[rng.choice(n, 360, replace=False), rng.choice(n, 360, replace=False)] += 1
        return A + A.T

    def test_random_inverse_closed_graph_closes_fast(self):
        with counting_products() as products:
            res = perron_root(sparse.csr_matrix(self.inverse_closed_600()))
        lo, hi = res.bracket
        assert hi - lo <= es.linalg.TOL * (hi + 1)
        assert res.iterations == products[0] <= 150

    def test_restarts_stop_once_the_iterate_is_its_own_ritz_vector(self, monkeypatch):
        # four restarts of 15 products, then one whose first Arnoldi step finds
        # the iterate's Krylov space invariant: restarting again would only
        # return the iterate, so power iteration closes the bracket from there
        A = self.inverse_closed_600()
        taken, restart = [], es.linalg._arnoldi_restart

        def recorded(*args):
            taken.append(restart(*args))
            return taken[-1]

        monkeypatch.setattr(es.linalg, "_arnoldi_restart", recorded)
        with counting_products() as products:
            res = perron_root(sparse.csr_matrix(A))
        assert [products for _, products in taken] == [es.linalg.KRYLOV - 1] * 4 + [0]
        assert taken[-1][0] is None and res.iterations == products[0]
        lo, hi = res.bracket
        root = max(abs(np.linalg.eigvals(A)))
        assert hi - lo <= es.linalg.TOL * (hi + 1)
        assert lo <= root * (1 + 1e-12) and hi >= root * (1 - 1e-12)

    def test_restarts_that_widen_the_bracket_are_undone(self, monkeypatch):
        # the one-way 400-cycle read by a and b, with a c-loop at vertex 0:
        # every Ritz vector's bracket is wider than the power iterate's at the
        # first restart, so power iteration resumes from that iterate and ends
        # on its own bracket after as many power steps (at 10^5 steps the
        # upper end reads 2.0038929, against 2.0038958 from the last Ritz vector)
        n = 400
        A = sparse.csr_matrix((np.r_[np.full(n, 2.0), 1.0],
                               (np.r_[np.arange(n), 0], np.r_[np.arange(1, n + 1) % n, 0])))
        monkeypatch.setattr(es.linalg, "MAX_ITER", 20000)
        calls = []
        restart = es.linalg._arnoldi_restart
        monkeypatch.setattr(es.linalg, "_arnoldi_restart",
                            lambda *args: calls.append(1) or restart(*args))
        with counting_products() as products:
            res = perron_root(A)
        assert len(calls) == es.linalg.RESTARTS and res.iterations == products[0] > 20000
        monkeypatch.setattr(es.linalg, "RESTARTS", 0)
        power = perron_root(A)
        assert power.iterations == 20000 and res.bracket == power.bracket
        assert (res.vector == power.vector).all()

    def test_fast_power_iteration_takes_no_restart(self, monkeypatch):
        # a random 300-cycle plus 1% random entries: nonsymmetric, and power
        # iteration alone closes the bracket in 57 products, faster than a
        # restart would
        rng = np.random.default_rng(2)
        n = 300
        order = rng.permutation(n)
        A = (rng.random((n, n)) < 0.01) * 1.0
        A[order, np.roll(order, -1)] += 1
        calls = []
        restart = es.linalg._arnoldi_restart
        monkeypatch.setattr(es.linalg, "_arnoldi_restart",
                            lambda *args: calls.append(1) or restart(*args))
        res = perron_root(A)
        assert calls == [] and res.iterations < es.linalg.SLOW
        assert res.value == pytest.approx(max(abs(np.linalg.eigvals(A))), rel=1e-12)
