"""Fraction-free elimination against the scalar Gauss-Jordan it replaced.

linalg eliminates integer rows and turns each pivot row into scalars
once, over its pivot.  The reduced row echelon form is unique, so every
public result must equal, entry for entry, what reference_rref_rows in
oracles.py gives on the same scalars: rref, rank, solve, inverse,
kernel, common_kernel, Subspace.span, subspace_intersect and
Subspace.contains.  The ``ref_*`` helpers below are the formulations
the library used around that loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_rref_rows
from symplie.linalg import (Matrix, NoSolutionError, SingularMatrixError,
                            Subspace, accumulate, common_kernel, inverse,
                            kernel, rank, rref, solve, subspace_intersect,
                            subspace_sum)
from symplie.rationals import ONE, ZERO, Q, integral

SCALAR = type(ZERO)
DENOMINATORS = (1, 2, 3, 5, 7, 9)

nonzero = st.builds(Q, st.integers(-9, 9).filter(bool), st.sampled_from(DENOMINATORS))
# half of all entries are zero, so sparse and rank-deficient grids are common
entries = st.one_of(st.just(ZERO), nonzero)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Matrices up to 7 x 7, wide, tall or empty, some of low rank, some
    with zero rows and columns."""
    m = draw(st.integers(0, 7)) if rows is None else rows
    n = draw(st.integers(0, 7)) if cols is None else cols
    if m and n and draw(st.booleans()):
        # rank at most k: a product of m x k and k x n factors
        k = draw(st.integers(0, min(m, n)))
        a = [[draw(entries) for _ in range(k)] for _ in range(m)]
        b = [[draw(entries) for _ in range(n)] for _ in range(k)]
        grid = [[sum((a[i][t] * b[t][j] for t in range(k)), ZERO) for j in range(n)]
                for i in range(m)]
    else:
        grid = [[draw(entries) for _ in range(n)] for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=2))
    grid = [[ZERO if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(grid)]
    return Matrix(m, n, tuple(tuple(row) for row in grid))


# ---------------------------------------------------------------------------
# the formulations around reference_rref_rows

def ref_rref(m: Matrix) -> tuple:
    rows = [list(row) for row in m.entries]
    pivots = reference_rref_rows(rows, m.cols)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def ref_solve(m: Matrix, b) -> tuple:
    rows = [list(row) + [bi] for row, bi in zip(m.entries, b)]
    pivots = reference_rref_rows(rows, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.cols]
    return tuple(x)


def ref_inverse(m: Matrix):
    n = m.rows
    rows = [list(row) + [ONE if k == i else ZERO for k in range(n)]
            for i, row in enumerate(m.entries)]
    pivots = reference_rref_rows(rows, 2 * n)
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    return tuple(tuple(row[n:]) for row in rows)


def ref_span(n: int, vectors) -> tuple:
    """The basis entries of the canonical span."""
    rows = [[Q(x) for x in v] for v in vectors]
    reference_rref_rows(rows, n)
    cols = [r for r in rows if any(r)]
    return tuple(zip(*cols)) if cols else ((),) * n


def ref_kernel(m: Matrix) -> tuple:
    reduced, pivots = ref_rref(m)
    gens = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        gens.append(v)
    return ref_span(m.cols, gens)


def ref_intersect(a: Subspace, b: Subspace) -> tuple:
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return ((),) * n
    stacked = a.basis.hstack(-b.basis)
    kernel_cols = list(zip(*ref_kernel(stacked)))
    gens = [accumulate([ZERO] * n, k[:a.dim], a.basis.columns())
            for k in kernel_cols]
    return ref_span(n, gens)


def assert_scalars(values):
    for x in values:
        assert type(x) is SCALAR, (x, type(x))


def assert_scalar_subspace(s: Subspace):
    for row in s.basis.entries:
        assert_scalars(row)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_and_rank(m):
    res = rref(m)
    reduced, pivots = ref_rref(m)
    assert res.pivot_cols == pivots
    assert res.matrix.entries == reduced
    assert res.rank == rank(m) == len(pivots)
    assert res.matrix.shape == m.shape
    for row in res.matrix.entries:
        assert_scalars(row)


@st.composite
def systems(draw):
    m = draw(matrices())
    if draw(st.booleans()):
        b = [draw(entries) for _ in range(m.rows)]
    else:
        # b in the image
        x = [draw(entries) for _ in range(m.cols)]
        b = m.apply(x) if m.rows else []
    return m, b


@settings(max_examples=120, deadline=None)
@given(systems())
def test_solve(system):
    m, b = system
    expected = ref_solve(m, b)
    if expected is None:
        with pytest.raises(NoSolutionError):
            solve(m, b)
        return
    x = solve(m, b)
    assert x == expected
    assert_scalars(x)
    assert m.apply(x) == tuple(b)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse(m):
    expected = ref_inverse(m)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    inv = inverse(m)
    assert inv.entries == expected
    for row in inv.entries:
        assert_scalars(row)
    assert m @ inv == Matrix.identity(m.rows)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel(m):
    k = kernel(m)
    assert k.basis.entries == ref_kernel(m)
    assert k.dim == m.cols - rank(m)
    assert_scalar_subspace(k)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_span_of_rows(m):
    s = Subspace.span(m.cols, m.entries)
    assert s.basis.entries == ref_span(m.cols, m.entries)
    assert_scalar_subspace(s)
    # the integral columns span seeds are those computed from the basis
    assert s.integral == Subspace(s.ambient_dim, s.basis).integral


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(matrices(cols=n), min_size=2, max_size=2))))
def test_intersect_and_sum(data):
    n, (ma, mb) = data
    a = Subspace.span(n, ma.entries)
    b = Subspace.span(n, mb.entries)
    meet = subspace_intersect(a, b)
    assert meet.basis.entries == ref_intersect(a, b)
    assert_scalar_subspace(meet)
    join = subspace_sum(a, b)
    assert join.basis.entries == ref_span(n, a.columns() + b.columns())
    assert meet.dim + join.dim == a.dim + b.dim


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(matrices(cols=n), st.lists(entries, min_size=n, max_size=n))))
def test_contains(data):
    m, v = data
    s = Subspace.span(m.cols, m.entries)
    inside = len(ref_span(m.cols, list(s.columns()) + [v])[0]) == s.dim
    assert s.contains(v) == inside
    # a combination of the spanning rows always lies in the span
    combo = accumulate([ZERO] * m.cols, v[:m.rows], m.entries)
    assert s.contains(combo)


@st.composite
def int_grids(draw):
    """n maps, each a grid of int vectors: sum_i u_i maps[i] = 0."""
    n = draw(st.integers(1, 5))
    cells = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    maps = [[[draw(small) for _ in range(width)] for _ in range(cells)]
            for _ in range(n)]
    return n, maps


@settings(max_examples=120, deadline=None)
@given(int_grids())
def test_int_grids_equal_their_scalar_copies(data):
    n, maps = data
    copies = [[[Q(x) for x in cell] for cell in grid] for grid in maps]
    ints = common_kernel(maps, n)
    assert ints == common_kernel(copies, n)
    assert_scalar_subspace(ints)
    # the same equations as a matrix, through the scalar reference
    rows = [r for r in zip(*[[x for cell in grid for x in cell] for grid in copies])
            if any(r)]
    expected = ref_kernel(Matrix(len(rows), n, tuple(rows))) if rows \
        else Subspace.full(n).basis.entries
    assert ints.basis.entries == expected
    width = len(maps[0][0])
    spanned = Subspace.span(width, [cell for grid in maps for cell in grid])
    assert spanned == Subspace.span(width, [cell for grid in copies for cell in grid])
    assert_scalar_subspace(spanned)
    equations = tuple(zip(*[[x for cell in grid for x in cell] for grid in maps]))
    assert kernel(Matrix(len(equations), n, equations)) \
        == kernel(Matrix.from_rows(equations))


def test_empty_shapes():
    empty = Matrix.zeros(0, 0)
    assert rref(empty).matrix == empty and rref(empty).pivot_cols == ()
    assert rank(empty) == 0
    assert solve(empty, ()) == ()
    assert inverse(empty) == empty
    assert kernel(empty) == Subspace.zero(0)
    assert Subspace.span(0, []) == Subspace.zero(0)
    assert common_kernel([], 0) == Subspace.zero(0)
    assert kernel(Matrix.zeros(0, 3)) == Subspace.full(3)
    assert kernel(Matrix.zeros(2, 0)) == Subspace.zero(0)
    assert solve(Matrix.zeros(0, 2), ()) == (ZERO, ZERO)
    with pytest.raises(NoSolutionError):
        solve(Matrix.zeros(1, 0), (1,))


def test_errors_are_kept():
    with pytest.raises(NoSolutionError):
        solve(Matrix.from_rows([[1, 2], [2, 4]]), (1, 1))
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.from_rows([[1, Q(1, 2)], [2, 1]]))
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(2, 3))
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            rref(Matrix(1, 2, ((1, bad),)))
        with pytest.raises(TypeError):
            rank(Matrix(1, 1, ((bad,),)))
        with pytest.raises(TypeError):
            kernel(Matrix(1, 2, ((bad, 1),)))
        with pytest.raises(TypeError):
            inverse(Matrix(1, 1, ((bad,),)))
        with pytest.raises(TypeError):
            solve(Matrix.identity(1), (bad,))
        with pytest.raises(TypeError):
            Subspace.span(2, [(1, bad)])
        with pytest.raises(TypeError):
            common_kernel([[[bad]]], 1)
        with pytest.raises(TypeError):
            Subspace.full(2).contains((bad, 0))
    with pytest.raises(ValueError):
        Subspace.span(2, [(1, 2, 3)])


def test_integral_columns_are_primitive_with_positive_pivots():
    s = Subspace.span(3, [(Q(2, 3), Q(4, 9), 0), (0, Q(-6, 7), Q(3, 5))])
    for col, numerators in zip(s.integral, s.columns()):
        _, nums = integral(numerators)
        assert col == tuple((k, x) for k, x in enumerate(nums) if x)
        assert col[0][1] > 0
