"""Int numerators as the only state of tensors, algebras and subspaces.

ProductTensor, LieAlgebra, Subspace and SkewForm keep int numerators in a
canonical form, and their scalar views (``table``, ``basis``, ``matrix``)
are derived on first read.  Equality and hashing compare the canonical form, so they agree
across every construction route.  The int Lie-admissibility check is
compared with the scalar loop it replaced (oracles.py), and a change of
basis, which is not validated on each call, is shown valid here.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fraction_lie_admissibility_failure
from symplie import catalog, linalg
from symplie.catalog import classify_upto6
from symplie.extension import double_extend
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, ProductTensor, Subspace
from symplie.rationals import ZERO, Q
from symplie.symplectic import (SkewForm, SymplecticLieAlgebra, change_of_basis,
                                lie_admissibility_failure, symplectic_violations)
from test_extension_kernel import integral_tensors
from test_flatness import perturbed_candidates
from test_kernels import dense_change_of_basis
from test_reduction_kernel import algebra_and_basis
from test_sparse_kernels import dense_bases


def fresh(s) -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(LieAlgebra(s.algebra.basis_names, s.algebra.table),
                                SkewForm(s.form.matrix))


def scalar_table(n, den, rows) -> tuple:
    """The table of rows / den, built cell by cell from scalars."""
    return tuple(tuple(tuple(sum((Q(x, den) for i, x in rows[a][m] if i == k), ZERO)
                             for k in range(n)) for m in range(n)) for a in range(n))


def assert_same_value(a, b):
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# equality and hashing across construction routes

@settings(max_examples=100, deadline=None)
@given(integral_tensors(), st.integers(1, 40))
@example((0, 7, []), 3)
@example((2, 5, [[(), ((0, 0),)], [((0, 2), (1, 0)), ()]]), 6)
def test_tensor_routes_agree(case, k):
    n, den, rows = case
    scaled = ProductTensor.from_integral(n, k * den, [[tuple((i, k * x) for i, x in cell)
                                                       for cell in row] for row in rows])
    by_table = ProductTensor(n, scalar_table(n, den, rows))
    assert_same_value(scaled, by_table)
    assert scaled.table == by_table.table
    if not scaled.is_zero():
        # the same numerators over a doubled denominator are half the product
        halved = ProductTensor.from_integral(n, 2 * den, rows)
        assert halved != scaled
        assert_same_value(halved, ProductTensor(n, scalar_table(n, 2 * den, rows)))


@st.composite
def integral_brackets(draw):
    """(names, den, brackets) with brackets[(i, j)], i < j, as increasing (k, num)."""
    n = draw(st.integers(0, 5))
    den = draw(st.integers(1, 30))
    num = st.integers(-9, 9)
    brackets = {(i, j): tuple((k, draw(num)) for k in range(n) if draw(st.booleans()))
                for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    return tuple(f"x{k}" for k in range(n)), den, brackets


@settings(max_examples=100, deadline=None)
@given(integral_brackets())
def test_lie_routes_agree(case):
    names, den, brackets = case
    got = LieAlgebra.from_integral(names, den, brackets)
    sparse = LieAlgebra.from_sparse(names, {pair: {k: Q(x, den) for k, x in cell}
                                            for pair, cell in brackets.items()})
    assert_same_value(got, sparse)
    assert_same_value(got, LieAlgebra(names, sparse.table))
    assert got.table == sparse.table
    if names:
        renamed = LieAlgebra.from_integral(names[1:] + ("other",), den, brackets)
        assert renamed != got


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         max_size=5))))
def test_subspace_routes_agree(case):
    n, vectors = case
    s = Subspace.span(n, vectors)
    assert_same_value(s, Subspace(n, s.basis))
    assert_same_value(s, Subspace.span(n, s.columns()))
    assert_same_value(s, Subspace.span(n, [[Q(x, 3) for x in v] for v in vectors]))
    if s.dim == n:
        assert_same_value(s, Subspace.full(n))
    if s.dim == 0:
        assert_same_value(s, Subspace.zero(n))


def test_subspace_scalar_route_checks_the_echelon_form():
    assert_same_value(Subspace.full(3), Subspace(3, Matrix.identity(3)))
    assert_same_value(Subspace.zero(3), Subspace(3, Matrix.zeros(3, 0)))
    assert Subspace.zero(2) != Subspace.zero(3)
    for basis in (Matrix.from_cols([[2, 0]]),            # pivot is not 1
                  Matrix.from_cols([[-1, 1]]),           # negative pivot
                  Matrix.from_cols([[0, 1], [1, 0]]),    # pivots decrease
                  Matrix.from_cols([[1, 1], [0, 1]]),    # not fully reduced
                  Matrix.from_cols([[0, 0]])):           # zero column
        with pytest.raises(ValueError):
            Subspace(2, basis)


square_int_rows = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(square_int_rows, st.integers(1, 12), st.integers(1, 5))
def test_form_routes_agree(rows, den, k):
    """A form built from numerators equals the one built from its scalar
    Gram matrix, also when den and the numerators share a factor."""
    n = len(rows)
    f = SkewForm.from_integral(den, rows)
    g = SkewForm(Matrix(n, n, tuple(tuple(Q(x, den) for x in row) for row in rows)))
    assert_same_value(f, g)
    assert_same_value(f, SkewForm.from_integral(k * den, [[k * x for x in row] for row in rows]))
    assert f.dim == n and f.matrix == g.matrix and f.int_rows == g.int_rows
    assert f.is_skew() == g.is_skew() and f.is_nondegenerate() == g.is_nondegenerate()
    if any(map(any, rows)):
        other = SkewForm.from_integral(den + 1, rows)
        assert other != f and other.matrix != f.matrix


# ---------------------------------------------------------------------------
# scalar views are derived only when read

def test_int_constructors_build_no_scalar_and_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a scalar or a Matrix")

    monkeypatch.setattr(linalg, "rational", refuse)
    monkeypatch.setattr(Matrix, "entries", property(refuse))
    p = ProductTensor.from_integral(2, 6, [[(), ((1, 3),)], [((1, -3),), ()]])
    assert p.integral == (2, (((), ((1, 1),)), (((1, -1),), ())))
    assert Subspace.full(4).dim == 4 and Subspace.zero(3).dim == 0
    assert Subspace.span(3, [[2, 4, 0], [1, 2, 0], [0, 0, 5]]).integral \
        == (((0, 1), (1, 2)), ((2, 1),))
    assert LieAlgebra.from_integral(("a", "b"), 4, {(0, 1): ((1, 2),)}).dim == 2
    assert SkewForm.from_integral(2, [[0, 4], [-4, 0]]).integral == (1, (((1, 2),), ((0, -2),)))


def test_extension_and_classification_build_no_scalar_views():
    points = ((fam, params) for fam in catalog.family_names()
              for params in catalog.family_parameter_grid(fam))
    fam, params = next(pt for pt in points
                       if not catalog.admissible_family(*pt)[1].xi.is_zero())
    base_name, pair = catalog.admissible_family(fam, params)
    # a fresh base: the extensions of one base share its extension_form, so
    # a view another test read on a session entry's form would show here
    ext = double_extend(catalog.get(base_name).algebra, pair)
    assert classify_upto6(ext) != "Unknown"
    alg = ext.algebra
    subspaces = [alg.center(), alg.derived_subspace(), *alg.lower_central_series().terms,
                 *alg.derived_series().terms]
    assert "table" not in alg.bracket_tensor.__dict__
    assert "entries" not in ext.form.matrix.__dict__
    assert not any("basis" in f.__dict__ for f in subspaces)
    # a view is derived once, on its first read
    assert alg.table is alg.bracket_tensor.table
    assert ext.form.matrix is ext.form.matrix
    assert all(f.basis is f.basis for f in subspaces)


# ---------------------------------------------------------------------------
# the int Lie-admissibility check against the scalar loop

def assert_admissibility_matches(p, algebra, label):
    got = lie_admissibility_failure(p, algebra.bracket_tensor)
    assert got == fraction_lie_admissibility_failure(p, algebra.table), label
    return got


def test_lie_admissibility_catalog(entries):
    for name, entry in entries.items():
        s = fresh(entry.algebra)
        assert assert_admissibility_matches(s.canonical_product, s.algebra, name) is None
        assert_admissibility_matches(s.natural_product, s.algebra, name)
        if entry.expected_products is not None:
            assert assert_admissibility_matches(entry.expected_products,
                                                s.algebra, name) is None


def test_lie_admissibility_perturbed_candidates():
    for label, s in perturbed_candidates():
        s = fresh(s)
        assert assert_admissibility_matches(s.canonical_product, s.algebra, label) is None
        assert_admissibility_matches(s.natural_product, s.algebra, label)


NAMES = [n for n in catalog.names() if catalog.get(n).algebra.dim >= 2]


@st.composite
def missed_brackets(draw):
    """A canonical product with one cell moved, and the pair it then misses."""
    s = catalog.get(draw(st.sampled_from(NAMES))).algebra
    n = s.dim
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    shift = draw(st.integers(-5, 5).filter(bool))
    den, rows = s.canonical_product.integral
    cell = dict(rows[i][j])
    cell[k] = cell.get(k, 0) + shift
    rows = [list(row) for row in rows]
    rows[i][j] = tuple(sorted(cell.items()))
    return s, ProductTensor.from_integral(n, den, rows), (min(i, j), max(i, j))


@settings(max_examples=100, deadline=None)
@given(missed_brackets())
def test_lie_admissibility_random_miss(case):
    s, p, pair = case
    got = assert_admissibility_matches(p, s.algebra, pair)
    # a diagonal cell cancels in the commutator, any other shows at its pair
    assert got == (None if pair[0] == pair[1] else pair)


# ---------------------------------------------------------------------------
# a change of basis of a valid pair is valid

def test_change_of_basis_stays_valid(entries):
    rng = random.Random("one representation")
    for name, entry in entries.items():
        s = entry.algebra
        ts = [Matrix.identity(s.dim)]
        if s.dim >= 2:
            ts.append(dense_change_of_basis(rng, s.dim))
        for t in ts:
            moved = change_of_basis(s, t)
            assert symplectic_violations(moved.algebra, moved.form) == [], name
    bases = dense_bases(entries)
    assert len(bases) == 36
    for label, moved in bases:
        assert symplectic_violations(moved.algebra, moved.form) == [], label


@settings(max_examples=60, deadline=None)
@given(algebra_and_basis())
def test_random_change_of_basis_stays_valid(case):
    s, t = case
    moved = change_of_basis(s, t)
    assert symplectic_violations(moved.algebra, moved.form) == []
