"""Int numerators as the only state of Matrix, SkewForm and AdmissiblePair.

A Matrix keeps (den, rows) in canonical form and derives its scalar
``entries`` on first read; its arithmetic and elimination read the
numerators.  Each operation is compared with the scalar body it replaced
(the ``fraction_matrix_*`` functions of oracles.py), the canonical form
is shown unique, and a walk over the state of each exact type built from
ints finds no scalar until a scalar view is read.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (fraction_matrix_add, fraction_matrix_apply, fraction_matrix_hstack,
                     fraction_matrix_inverse, fraction_matrix_kernel,
                     fraction_matrix_matmul, fraction_matrix_neg, fraction_matrix_rref,
                     fraction_matrix_scale, fraction_matrix_solve, fraction_matrix_sub,
                     fraction_matrix_trace, fraction_matrix_transpose)
from symplie.extension import AdmissiblePair
from symplie.lie import LieAlgebra
from symplie.linalg import (Matrix, NoSolutionError, ProductTensor, SingularMatrixError,
                            Subspace, inverse, kernel, rref, solve)
from symplie.rationals import ZERO, Q
from symplie.symplectic import SkewForm
from test_elimination import entries, matrices

SHAPES = st.tuples(st.integers(0, 5), st.integers(0, 5))


def assert_same(got: Matrix, ref: Matrix):
    """Equal matrices, equal scalar views, and the canonical state that
    the scalar constructor gives for those entries."""
    assert got == ref and hash(got) == hash(ref)
    assert got.shape == ref.shape and got.entries == ref.entries
    assert got.integral == Matrix(got.rows, got.cols, got.entries).integral


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n)


# ---------------------------------------------------------------------------
# every operation against the scalar body it replaced

@settings(max_examples=100, deadline=None)
@given(SHAPES.flatmap(lambda s: st.tuples(matrices(*s), matrices(*s))), entries)
def test_sum_difference_negation_scale(pair, c):
    a, b = pair
    assert_same(a + b, fraction_matrix_add(a, b))
    assert_same(a - b, fraction_matrix_sub(a, b))
    assert_same(-a, fraction_matrix_neg(a))
    assert_same(a.scale(c), fraction_matrix_scale(a, c))
    assert (a - a).is_zero() and (a + b - b) == a


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]), vectors(s[1]))))
def test_product_apply_transpose_hstack(case):
    a, b, v = case
    assert_same(a @ b, fraction_matrix_matmul(a, b))
    assert a.apply(v) == fraction_matrix_apply(a, v)
    assert all(type(x) is Fraction for x in a.apply(v))
    assert_same(a.transpose(), fraction_matrix_transpose(a))
    assert a.transpose().transpose() == a
    c = Matrix.from_rows([row[::-1] for row in a.entries]) if a.cols else a
    assert_same(a.hstack(c), fraction_matrix_hstack(a, c))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: matrices(n, n)))
def test_trace_and_inverse(m):
    assert m.trace() == fraction_matrix_trace(m)
    try:
        ref = fraction_matrix_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    got = inverse(m)
    assert_same(got, ref)
    assert got @ m == Matrix.identity(m.rows)


@settings(max_examples=100, deadline=None)
@given(SHAPES.flatmap(lambda s: st.tuples(matrices(*s), vectors(s[0]))))
def test_rref_solve_kernel(case):
    m, b = case
    got, ref = rref(m), fraction_matrix_rref(m)
    assert got == ref
    assert_same(got.matrix, ref.matrix)
    assert kernel(m) == fraction_matrix_kernel(m)
    try:
        x = fraction_matrix_solve(m, b)
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            solve(m, b)
        return
    assert solve(m, b) == x


def test_shape_errors():
    a, b = Matrix.zeros(2, 3), Matrix.zeros(3, 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a @ a, lambda: a.hstack(b),
               lambda: a.trace(), lambda: inverse(a), lambda: a.apply((0, 0))):
        with pytest.raises(ValueError):
            op()


# ---------------------------------------------------------------------------
# the canonical form

int_grids = SHAPES.flatmap(lambda s: st.lists(
    st.lists(st.integers(-12, 12), min_size=s[1], max_size=s[1]),
    min_size=s[0], max_size=s[0]).filter(lambda rows: rows and rows[0]))


@settings(max_examples=100, deadline=None)
@given(int_grids, st.integers(1, 30), st.integers(1, 6))
@example([[0, 0]], 4, 3)
@example([[6, -4], [2, 0]], 8, 1)
def test_canonical_form(rows, den, k):
    fractions = [[Q(x, den) for x in row] for row in rows]
    m = Matrix.from_rows(fractions)
    scaled = Matrix.from_integral(k * den, [[k * x for x in row] for row in rows])
    assert m == scaled and hash(m) == hash(scaled)
    assert m.integral == scaled.integral
    mden, mrows = m.integral
    assert mden > 0 and all(type(x) is int for row in mrows for x in row)
    assert gcd(mden, *(x for row in mrows for x in row)) == 1
    assert m.entries == tuple(map(tuple, fractions))
    if any(map(any, rows)):
        assert Matrix.from_integral(den + 1, rows) != m


def test_empty_shapes():
    for r, c in ((0, 0), (3, 0), (0, 3)):
        z = Matrix.zeros(r, c)
        assert z.shape == (r, c) and z.integral == (1, ((),) * r)
        assert z == Matrix(r, c, ((),) * r) and z.is_zero()
        assert z.entries == ((),) * r and len(z.columns()) == c
        assert z.transpose().shape == (c, r)
        assert (z @ Matrix.zeros(c, 2)).shape == (r, 2)
        assert (Matrix.zeros(2, r) @ z).shape == (2, c)
        assert z + z == z and -z == z and z.scale(5) == z
        assert kernel(z).dim == c and rref(z).rank == 0
    assert Matrix.zeros(0, 3) != Matrix.zeros(0, 0) != Matrix.zeros(3, 0)
    assert Matrix.zeros(3, 0).hstack(Matrix.identity(3)) == Matrix.identity(3)
    assert Matrix.from_rows([]) == Matrix.from_cols([]) == Matrix.identity(0)
    assert inverse(Matrix.identity(0)) == Matrix.identity(0)
    assert Matrix.identity(0).trace() == ZERO


def test_inexact_entries_raise_type_error():
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            Matrix(1, 1, ((bad,),))
        with pytest.raises(TypeError):
            Matrix.from_rows([[1, bad]])
        with pytest.raises(TypeError):
            Matrix.from_cols([[bad]])
    with pytest.raises(ValueError):
        Matrix(2, 1, ((1,),))
    with pytest.raises(ValueError):
        Matrix(1, 2, ((1,),))


# ---------------------------------------------------------------------------
# AdmissiblePair

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(matrices(n, n), vectors(n))),
       st.integers(1, 5))
def test_pair_routes_agree(case, k):
    xi, b0 = case
    pair = AdmissiblePair(xi, b0)
    assert pair.xi == xi and pair.b0 == tuple(b0) and pair.base_dim == xi.rows
    den, rows = pair.integral
    scaled = AdmissiblePair.from_integral(k * den, [[k * x for x in row] for row in rows])
    assert pair == scaled and hash(pair) == hash(scaled)
    assert scaled.xi == xi and scaled.b0 == tuple(b0)
    assert pair.integral == xi.hstack(Matrix.from_cols([b0])).integral
    if xi.rows and (any(b0) or not xi.is_zero()):
        other = AdmissiblePair(xi.scale(2), [2 * x for x in b0])
        assert other != pair


def test_pair_shape_errors():
    with pytest.raises(ValueError):
        AdmissiblePair(Matrix.zeros(2, 3), (0, 0))
    with pytest.raises(ValueError):
        AdmissiblePair(Matrix.zeros(2, 2), (0, 0, 0))
    with pytest.raises(TypeError):
        AdmissiblePair(Matrix.zeros(1, 1), (0.5,))


# ---------------------------------------------------------------------------
# no scalar state until a scalar view is read

def holds_scalar(obj) -> bool:
    """Whether a Fraction is reachable from obj through tuples, lists,
    dicts and instance attributes."""
    if isinstance(obj, Fraction):
        return True
    if isinstance(obj, (tuple, list)):
        return any(holds_scalar(x) for x in obj)
    if isinstance(obj, dict):
        return any(holds_scalar(x) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return any(holds_scalar(x) for x in vars(obj).values())
    return False


def test_int_built_types_hold_no_scalar():
    m = Matrix.from_integral(6, [[3, 0], [-2, 9]])
    form = SkewForm.from_integral(4, [[0, 2], [-2, 0]])
    pair = AdmissiblePair.from_integral(6, [[0, 3, 1], [0, 0, -4]])
    tensor = ProductTensor.from_integral(2, 3, [[(), ((1, 2),)], [((1, -2),), ()]])
    lie = LieAlgebra.from_integral(("a", "b"), 2, {(0, 1): ((1, 1),)})
    span = Subspace.span(3, [[2, 4, 0], [0, 0, 5]])
    built = (m, form, pair, tensor, lie, span)
    # derived int views and int arithmetic stay scalar-free
    assert not (m @ m + -m).transpose().is_zero() and inverse(m) @ m == Matrix.identity(2)
    assert form.is_skew() and form.is_nondegenerate() and form.int_rows == [[0, 1], [-1, 0]]
    assert form.integral[0] == 2 and form.int_adjoint([[1, 0], [0, 0]])[0] > 0
    assert pair.xi.integral == (2, ((0, 1), (0, 0))) and span.basis.integral[0] == 1
    assert not any(holds_scalar(x) for x in built)
    # each scalar view puts scalars in the state it caches on
    views = ((m, lambda: m.entries), (form, lambda: form.matrix.entries),
             (pair, lambda: pair.b0), (tensor, lambda: tensor.table),
             (lie, lambda: lie.table), (span, lambda: span.basis.entries))
    for obj, read in views:
        read()
        assert holds_scalar(obj), obj
