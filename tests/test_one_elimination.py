"""One fraction-free elimination per canonical subspace.

``kernel`` and ``common_kernel`` eliminate with the columns reversed and
read the canonical rows straight off the generators; ``subspace_intersect``
is one kernel of two annihilators; the center and the multiplication
kernels write one equation per nonzero cell of their tensor.  Each is
compared with the body it replaced (the ``respan_*``, ``three_elimination_*``
and ``grid_*`` functions of oracles.py) on Hypothesis int matrices and on
every catalog entry, dense basis and sweep extension, and a spy on
``linalg._rref_rows`` shows that each eliminates once.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (grid_center, grid_multiplication_kernels, respan_common_kernel,
                     respan_kernel, three_elimination_intersect)
from symplie import linalg
from symplie.lie import LieAlgebra
from symplie.linalg import (Matrix, Subspace, common_kernel, dense, kernel,
                            subspace_intersect, subspace_sum)
from symplie.symplectic import multiplication_kernels, perp
from test_sparse_kernels import dense_bases

BIG = 2 ** 64
# small numerators, and numerators within a few units of +-2^64
numerators = st.one_of(st.integers(-3, 3), st.integers(BIG - 3, BIG + 3),
                       st.integers(-BIG - 3, -BIG + 3))


@st.composite
def int_rows(draw, max_rows=7, max_cols=7):
    """(rows, ncols): int matrices up to 7 x 7 of rank 0, full rank or
    anything between, some with zero rows and zero columns."""
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    kind = draw(st.sampled_from(["random", "rank0", "full", "low"]))
    if kind == "rank0":
        rows = [[0] * n for _ in range(m)]
    elif kind == "full":
        # unit diagonal over arbitrary entries above it: rank min(m, n)
        rows = [[1 if i == j else draw(numerators) if j > i else 0 for j in range(n)]
                for i in range(m)]
    elif kind == "low" and m and n:
        k = draw(st.integers(1, min(m, n)))
        a = [[draw(numerators) for _ in range(k)] for _ in range(m)]
        b = [[draw(numerators) for _ in range(n)] for _ in range(k)]
        rows = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]
    else:
        rows = [[draw(numerators) for _ in range(n)] for _ in range(m)]
    for i in draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=2)) if m else ():
        rows[i] = [0] * n
    for j in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)) if n else ():
        for row in rows:
            row[j] = 0
    return rows, n


def subspaces(n):
    return int_rows(max_cols=n).map(lambda case: Subspace.from_integral(
        n, [row + [0] * (n - len(row)) for row in case[0]]))


def assert_canonical(s: Subspace):
    """The state of s is what one span of its own rows gives: primitive
    rows with a positive pivot first, in reduced echelon form."""
    for col in s.integral:
        assert col[0][1] > 0 and gcd(*(x for _, x in col)) == 1
        assert [k for k, _ in col] == sorted(k for k, _ in col)
    assert Subspace.span(s.ambient_dim, [dense(c, s.ambient_dim) for c in s.integral]) == s


# ---------------------------------------------------------------------------
# against the replaced bodies on int matrices

@settings(max_examples=300, deadline=None)
@given(int_rows())
@example(([], 0))
@example(([], 4))
@example(([[0, 0, 0]], 3))
@example(([[BIG + 1, -BIG, 3], [BIG, BIG - 1, -2]], 3))
def test_kernel_matches_respan(case):
    rows, n = case
    m = Matrix.from_integral(1, rows) if rows else Matrix.zeros(0, n)
    got = kernel(m)
    assert got == respan_kernel([list(row) for row in rows], n)
    assert_canonical(got)
    assert got.dim == n - linalg.rank(m)
    # every generator solves every equation
    assert all(not sum(x * row[k] for k, x in col) for col in got.integral for row in rows)


@settings(max_examples=200, deadline=None)
@given(int_rows(max_rows=4))
def test_common_kernel_matches_respan(case):
    # the rows, read as 1 x ncols grids, one per unknown
    rows, n = case
    maps = [[[x] for x in row] for row in zip(*rows)] if rows else [[[0]]] * n
    assert common_kernel(maps, n) == respan_common_kernel(maps, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(subspaces(n), subspaces(n))))
def test_intersection_and_sum_match_three_eliminations(pair):
    a, b = pair
    n = a.ambient_dim
    meet = subspace_intersect(a, b)
    assert meet == three_elimination_intersect(a, b)
    assert_canonical(meet)
    assert meet.is_subspace_of(a) and meet.is_subspace_of(b)
    total = subspace_sum(a, b)
    assert total == Subspace.span(n, [dense(c, n) for c in a.integral + b.integral])
    assert meet.dim + total.dim == a.dim + b.dim
    assert subspace_intersect(a, a) == a and subspace_intersect(b, a) == meet


def test_intersection_edge_cases():
    full, zero = Subspace.full(3), Subspace.zero(3)
    line = Subspace.span(3, [[1, 2, 3]])
    assert subspace_intersect(full, full) == full
    assert subspace_intersect(full, line) == line
    assert subspace_intersect(zero, line) == zero == subspace_intersect(line, zero)
    assert subspace_intersect(Subspace.full(0), Subspace.full(0)) == Subspace.zero(0)
    with pytest.raises(ValueError):
        subspace_intersect(full, Subspace.full(2))


# ---------------------------------------------------------------------------
# a subspace from its reduced column echelon basis

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(subspaces))
def test_subspace_from_basis_reads_numerators(s):
    n = s.ambient_dim
    basis = Matrix.from_integral(*s.basis.integral) if n else Matrix.zeros(0, s.dim)
    assert Subspace(n, basis) == s
    assert "entries" not in basis.__dict__


def test_subspace_from_other_bases_raises():
    half = Fraction(1, 2)
    good = Matrix.from_cols([[1, 0, half], [0, 1, -Fraction(1, 3)]])
    assert Subspace(3, good) == Subspace.span(3, [[2, 0, 1], [0, 3, -1]])
    for basis in (Matrix.from_cols([[half, 0, 1]]),              # pivot is not 1
                  Matrix.from_cols([[-1, 0, half]]),             # negative pivot
                  Matrix.from_cols([[1, half, 0], [0, 1, 0]]),   # not fully reduced
                  Matrix.from_cols([[0, 1, 0], [1, 0, 0]]),      # pivots decrease
                  Matrix.from_cols([[1, 0, 0], [1, 0, 0]]),      # repeated column
                  Matrix.from_cols([[0, 0, 0]]),                 # zero column
                  Matrix.zeros(0, 1)):                           # a column in Q^0
        with pytest.raises(ValueError):
            Subspace(basis.rows, basis)
        assert "entries" not in basis.__dict__
    with pytest.raises(ValueError):
        Subspace(2, good)


# ---------------------------------------------------------------------------
# against the replaced bodies on every algebra the workloads see

def assert_same_kernels(s):
    alg = s.algebra
    fresh = LieAlgebra._of(alg.basis_names, alg.bracket_tensor)
    center, expected = fresh.center(), grid_center(alg)
    assert center == expected
    kernels = multiplication_kernels(s)
    assert kernels == grid_multiplication_kernels(s)
    derived = alg.derived_subspace()
    zperp, dperp = perp(s, center), perp(s, derived)
    for a, b in ((center, zperp), (derived, dperp), (kernels.left_kernel,
                 kernels.right_kernel), (kernels.left_kernel, dperp)):
        assert subspace_intersect(a, b) == three_elimination_intersect(a, b)


def test_catalog_entries(entries):
    assert len(entries) == 13
    for entry in entries.values():
        assert_same_kernels(entry.algebra)


def test_dense_bases(entries):
    bases = dense_bases(entries)
    assert len(bases) == 36
    for _, s in bases:
        assert_same_kernels(s)


def test_sweep_extensions(family_sweep):
    exts = [ext for points in family_sweep.values() for _, _, ext, _ in points]
    assert len(exts) == 439
    for ext in exts:
        assert_same_kernels(ext)


# ---------------------------------------------------------------------------
# one elimination each

@pytest.fixture
def eliminations(monkeypatch):
    """A list that gets one entry per call of linalg._rref_rows."""
    calls = []
    original = linalg._rref_rows

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    return calls


def test_each_canonical_subspace_eliminates_once(entries, eliminations):
    s = entries["g6_3"].algebra
    n = s.dim
    alg = LieAlgebra._of(s.algebra.basis_names, s.algebra.bracket_tensor)
    form = s.form
    a = Subspace.span(n, [[1, 2, 0, 0, 1, 0], [0, 1, 1, 0, 0, 3], [0, 0, 0, 1, 1, 1]])
    b = Subspace.span(n, [[1, 0, 0, 0, 0, 1], [1, 3, 1, 0, 1, 3], [2, 1, 0, 0, 1, 1]])
    cases = [
        ("kernel", lambda: kernel(Matrix.from_rows([[1, 2, 0, 0, 1, 0], [0, 1, 1, 0, 0, 3]]))),
        ("perp", lambda: perp(form, a)),
        ("subspace_intersect", lambda: subspace_intersect(a, b)),
        ("center", alg.center),
    ]
    for name, call in cases:
        eliminations.clear()
        assert call().dim > 0, name
        assert len(eliminations) == 1, name
