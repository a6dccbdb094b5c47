import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sympy_rank
from symplie.linalg import (Matrix, NoSolutionError, ProductTensor,
                            SingularMatrixError, Subspace, commutator, inverse, is_zero_vector,
                            kernel, rank, rref, solve, subspace_intersect,
                            subspace_sum, unit_vector, vdot, vector, zero_vector)
from symplie.rationals import Q

rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


def matrices(max_rows=4, max_cols=4, min_rows=0, min_cols=0):
    def build(shape):
        rows, cols = shape
        return st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        ).map(lambda data: Matrix(rows, cols, tuple(tuple(r) for r in data)))
    return st.tuples(st.integers(min_rows, max_rows),
                     st.integers(min_cols, max_cols)).flatmap(build)


class TestVectors:
    def test_basics(self):
        a = vector([1, "1/2", -2])
        b = vector([0, 2, 1])
        assert vdot(a, b) == Q(-1)
        assert is_zero_vector(zero_vector(3))
        assert unit_vector(3, 1) == (Q(0), Q(1), Q(0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vdot(vector([1]), vector([1, 2]))


class TestMatrix:
    def test_construction_round_trips(self):
        m = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert m.shape == (3, 2)
        assert Matrix.from_cols(m.columns()) == m
        assert m.transpose().transpose() == m

    def test_arithmetic(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[0, 1], [1, 0]])
        assert a + b - b == a
        assert (-a) + a == Matrix.zeros(2, 2)
        assert a.scale("1/2") == Matrix.from_rows([["1/2", 1], ["3/2", 2]])
        assert a @ Matrix.identity(2) == a
        assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
        assert a.apply((1, 0)) == (Q(1), Q(3))
        assert a.trace() == Q(5)

    def test_shape_errors(self):
        a = Matrix.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            a + Matrix.identity(2)
        with pytest.raises(ValueError):
            a @ a

    def test_hstack(self):
        a = Matrix.from_rows([[1], [2]])
        b = Matrix.from_rows([[3], [4]])
        assert a.hstack(b) == Matrix.from_rows([[1, 3], [2, 4]])

    @given(matrices(3, 3, min_rows=1, min_cols=1))
    @settings(max_examples=60, deadline=None)
    def test_commutator_is_traceless(self, m):
        if not m.is_square:
            return
        other = Matrix.identity(m.rows) + m
        assert commutator(m, other).trace() == Q(0)


class TestElimination:
    def test_rref_frozen_example(self):
        # hand-reduced: second row is twice the first
        result = rref(Matrix.from_rows([[1, 2], [2, 4]]))
        assert result.matrix == Matrix.from_rows([[1, 2], [0, 0]])
        assert result.pivot_cols == (0,)
        assert result.rank == 1

    def test_rref_identity_fixed_point(self):
        m = Matrix.identity(3)
        assert rref(m).matrix == m

    def test_solve_underdetermined_sets_free_coords_to_zero(self):
        x = solve(Matrix.from_rows([[1, 1]]), (2,))
        assert x == (Q(2), Q(0))

    def test_solve_exact(self):
        m = Matrix.from_rows([[2, 1], [1, 3]])
        x = solve(m, (5, 10))
        assert m.apply(x) == (Q(5), Q(10))
        assert x == (Q(1), Q(3))

    def test_solve_inconsistent(self):
        with pytest.raises(NoSolutionError):
            solve(Matrix.from_rows([[1], [1]]), (1, 2))

    def test_inverse(self):
        m = Matrix.from_rows([[2, 1], [1, 1]])
        assert m @ inverse(m) == Matrix.identity(2)
        with pytest.raises(SingularMatrixError):
            inverse(Matrix.from_rows([[1, 2], [2, 4]]))
        assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)

    def test_kernel_frozen_example(self):
        k = kernel(Matrix.from_rows([[1, 2, 3]]))
        assert k.dim == 2
        for col in k.columns():
            assert vdot((Q(1), Q(2), Q(3)), col) == Q(0)

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_sympy(self, m):
        assert rank(m) == sympy_rank(m)

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + kernel(m).dim == m.cols

    @given(matrices(min_rows=1, min_cols=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve_substitutes(self, m, data):
        # build a guaranteed-solvable right-hand side
        coeffs = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
        b = m.apply(tuple(coeffs))
        x = solve(m, b)
        assert m.apply(x) == b

    @given(matrices(min_rows=1, min_cols=1))
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for col in kernel(m).columns():
            assert is_zero_vector(m.apply(col))


class TestSubspace:
    def test_span_canonical_and_idempotent(self):
        s = Subspace.span(3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)])
        assert s.dim == 2
        assert Subspace.span(3, s.columns()) == s
        assert s.contains((3, 3, 5))
        assert not s.contains((1, 0, 0))

    def test_zero_and_full(self):
        assert Subspace.zero(3).dim == 0
        assert Subspace.full(3).dim == 3
        assert Subspace.full(3).contains((1, 2, 3))
        assert Subspace.zero(0) == Subspace.full(0)

    def test_sum_and_intersection(self):
        a = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        b = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
        assert subspace_sum(a, b) == Subspace.full(3)
        meet = subspace_intersect(a, b)
        assert meet == Subspace.span(3, [(0, 1, 0)])

    def test_is_subspace_of(self):
        small = Subspace.span(3, [(1, 2, 0)])
        big = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        assert small.is_subspace_of(big)
        assert not big.is_subspace_of(small)

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_span_contains_generators(self, vecs):
        s = Subspace.span(4, vecs)
        for v in vecs:
            assert s.contains(v)
        assert Subspace.span(4, s.columns()) == s

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                    min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_span_basis_passes_the_constructor_check(self, vecs):
        # span builds its basis without the check; the constructor keeps it
        s = Subspace.span(4, vecs)
        assert Subspace(4, s.basis) == s

    def test_constructor_rejects_non_canonical_bases(self):
        with pytest.raises(ValueError):
            Subspace(2, Matrix.from_rows([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            Subspace(3, Matrix.from_rows([[1], [0]]))
        with pytest.raises(ValueError):
            Subspace.span(3, [(1, 2)])

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=1, max_size=4),
           st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_intersection_is_lower_bound(self, va, vb):
        a = Subspace.span(3, va)
        b = Subspace.span(3, vb)
        meet = subspace_intersect(a, b)
        assert meet.is_subspace_of(a) and meet.is_subspace_of(b)
        join = subspace_sum(a, b)
        assert a.is_subspace_of(join) and b.is_subspace_of(join)
        assert meet.dim + join.dim == a.dim + b.dim


class TestProductTensorFromSparse:
    def test_builds_the_table(self):
        p = ProductTensor.from_sparse(2, {(0, 1): {1: "1/2"}})
        assert p.table[0][1] == (Q(0), Q(1, 2))
        assert p.table[1][0] == (Q(0), Q(0))

    @pytest.mark.parametrize("entries", [
        {(0, 0): {-1: 1}},  # would write the last coordinate
        {(-1, 0): {0: 1}},  # would write row 1
        {(0, 5): {0: 1}},   # would raise a bare IndexError
        {(0, 0): {2: 1}},
    ])
    def test_rejects_indices_out_of_range(self, entries):
        with pytest.raises(ValueError, match="out of range"):
            ProductTensor.from_sparse(2, entries)
