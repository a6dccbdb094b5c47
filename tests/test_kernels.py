"""The shared kernels: the bilinear contraction and the common kernel.

common_kernel is checked against a sympy rank on random families of
maps, and the kernels built on it (the center and both multiplication
kernels) are checked to move with a dense change of basis.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplie
from oracles import sympy_rank
from symplie import catalog
from symplie.linalg import (Matrix, ProductTensor, Subspace, common_kernel,
                            inverse)
from symplie.rationals import Q
from symplie.symplectic import change_of_basis, multiplication_kernels

# mostly zeros, so that random families often have a nonzero common kernel
entries = st.one_of(st.just(Q(0)), st.just(Q(0)),
                    st.builds(Q, st.integers(-3, 3), st.integers(1, 3)))


def stacked(maps, rows, cols, n) -> Matrix:
    """One equation per grid entry, one unknown per map."""
    eqs = [[m[a][b] for m in maps] for a in range(rows) for b in range(cols)]
    return Matrix.from_rows(eqs) if n else Matrix.zeros(rows * cols, 0)


class TestCommonKernel:
    @given(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=120, deadline=None)
    def test_dimension_and_annihilation(self, n, rows, cols, data):
        grid = st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
        maps = data.draw(st.lists(grid, min_size=n, max_size=n))
        k = common_kernel(maps, n)
        assert k.ambient_dim == n
        assert k.dim == n - sympy_rank(stacked(maps, rows, cols, n))
        for u in k.columns():
            for a in range(rows):
                for b in range(cols):
                    assert sum((ui * m[a][b] for ui, m in zip(u, maps)), Q(0)) == 0

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equation_order_does_not_matter(self, n, rows, data):
        grid = st.lists(st.lists(entries, min_size=2, max_size=2),
                        min_size=rows, max_size=rows)
        maps = data.draw(st.lists(grid, min_size=n, max_size=n))
        order = data.draw(st.permutations(range(rows)))
        shuffled = [[m[a] for a in order] for m in maps]
        assert common_kernel(shuffled, n) == common_kernel(maps, n)

    def test_empty_family(self):
        assert common_kernel([], 0) == Subspace.zero(0)


def dense_change_of_basis(rng: random.Random, n: int) -> Matrix:
    """L U with every entry off the diagonal of both factors nonzero."""
    low = Matrix.from_rows([[1 if i == j else (rng.choice((-1, 1)) if i > j else 0)
                             for j in range(n)] for i in range(n)])
    up = Matrix.from_rows([[rng.choice((2, Q(1, 2), -2)) if i == j
                            else (rng.choice((-1, 1)) if i < j else 0)
                            for j in range(n)] for i in range(n)])
    return low @ up


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if catalog.get(n).algebra.dim >= 2])
def test_kernels_follow_a_dense_change_of_basis(name):
    s = catalog.get(name).algebra
    n = s.dim
    rng = random.Random(f"kernels {name}")
    for _ in range(2):
        t = dense_change_of_basis(rng, n)
        moved = change_of_basis(s, t)
        t_inv = inverse(t)

        def carried(sub: Subspace) -> Subspace:
            return Subspace.span(n, [t_inv.apply(c) for c in sub.columns()])

        assert moved.algebra.center() == carried(s.algebra.center())
        old, new = multiplication_kernels(s), multiplication_kernels(moved)
        assert new.left_kernel == carried(old.left_kernel)
        assert new.right_kernel == carried(old.right_kernel)
        assert new.product_span == carried(old.product_span)


def test_bracket_tensor_shares_the_table():
    g = catalog.get("g6_3").algebra.algebra
    assert g.bracket_tensor.table is g.table
    assert symplie.ProductTensor is ProductTensor
    assert symplie.symplectic.ProductTensor is ProductTensor
