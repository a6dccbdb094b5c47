import pytest

from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, Subspace, unit_vector
from symplie.rationals import Q


def heisenberg3():
    return LieAlgebra.from_sparse(("x", "y", "z"), {(0, 1): {2: 1}})


class TestConstruction:
    def test_from_sparse_is_antisymmetric(self):
        g = heisenberg3()
        assert g.table[0][1] == (Q(0), Q(0), Q(1))
        assert g.table[1][0] == (Q(0), Q(0), Q(-1))
        assert g.table[2][2] == (Q(0), Q(0), Q(0))

    def test_from_sparse_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_sparse(("a", "b"), {(1, 0): {0: 1}})
        with pytest.raises(ValueError):
            LieAlgebra.from_sparse(("a", "b"), {(0, 1): {5: 1}})

    def test_full_table_must_be_antisymmetric(self):
        zero, x = (0, 0), (1, 0)
        # [x, y] = x with [y, x] = 0
        with pytest.raises(ValueError, match=r"\[e_0, e_1\] != -\[e_1, e_0\]"):
            LieAlgebra(("x", "y"), [[zero, x], [zero, zero]])
        # [x, x] = x
        with pytest.raises(ValueError, match="not antisymmetric"):
            LieAlgebra(("x", "y"), [[x, zero], [zero, zero]])
        g = LieAlgebra(("x", "y"), [[zero, x], [(-1, 0), zero]])
        assert g == LieAlgebra.from_sparse(("x", "y"), {(0, 1): {0: 1}})
        assert not g.validate()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_sparse(("a", "a"), {})

    def test_bracket_bilinear(self):
        g = heisenberg3()
        assert g.bracket((2, 0, 0), (0, "1/2", 0)) == (Q(0), Q(0), Q(1))
        assert g.bracket((0, 1, 0), (1, 0, 0)) == (Q(0), Q(0), Q(-1))

    def test_ad_matrix(self):
        g = heisenberg3()
        assert g.ad((1, 0, 0)) == Matrix.from_rows(
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        assert g.ad((0, 0, 1)).is_zero()


class TestValidation:
    def test_valid_table_has_no_violations(self):
        assert heisenberg3().validate() == ()

    def test_jacobi_violation_detected(self):
        # [a,b] = c and [a,c] = a: the cyclic sum at (a,b,c) leaves -c
        bad = LieAlgebra.from_sparse(
            ("a", "b", "c"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
        violations = bad.validate()
        assert len(violations) == 1
        assert violations[0].triple == (0, 1, 2)
        assert violations[0].residual == (Q(0), Q(0), Q(-1))


class TestInvariants:
    def test_center_of_heisenberg_line(self, entries):
        g = entries["r_h3_dim4"].algebra.algebra
        assert g.center() == Subspace.span(
            4, [unit_vector(4, 2), unit_vector(4, 3)])

    def test_abelian_and_zero(self, entries):
        zero = entries["zero"].algebra.algebra
        assert zero.lower_central_series().nilpotency_class == 0
        assert zero.derived_series().dims == (0,)
        ab = entries["abelian4"].algebra.algebra
        assert ab.is_abelian()
        assert ab.lower_central_series().nilpotency_class == 1
        assert ab.lower_central_series().dims == (4, 0)

    def test_g6_3_series(self, entries):
        g = entries["g6_3"].algebra.algebra
        lcs = g.lower_central_series()
        assert lcs.dims == (6, 3, 1, 0)
        assert lcs.nilpotency_class == 3
        assert g.derived_series().dims == (3, 0)
        assert g.is_nilpotent() and g.is_solvable() and g.is_unimodular()

    def test_aff1_is_solvable_not_nilpotent(self, entries):
        g = entries["aff1"].algebra.algebra
        assert g.trace_character() == (Q(1), Q(0))
        assert not g.is_unimodular()
        assert g.derived_series().dims == (1, 0)
        assert g.is_solvable()
        assert g.lower_central_series().nilpotency_class is None
        assert not g.is_nilpotent()

    def test_derived_subspace(self, entries):
        g = entries["g6_1"].algebra.algebra
        assert g.derived_subspace() == Subspace.span(
            6, [unit_vector(6, k) for k in (3, 4, 5)])


class TestChangeOfBasis:
    def test_identity_keeps_table(self, entries):
        g = entries["g6_2"].algebra.algebra
        h = g.change_of_basis(Matrix.identity(6), names=g.basis_names)
        assert h == g

    def test_composition(self, entries):
        g = entries["r_h3_dim4"].algebra.algebra
        t = Matrix.from_rows(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 1, 1]])
        s = Matrix.from_rows(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, "1/2", 1]])
        assert g.change_of_basis(t).change_of_basis(s) == g.change_of_basis(t @ s)

    def test_invariants_preserved(self, entries):
        g = entries["g6_3"].algebra.algebra
        t = Matrix.from_rows([
            [1, 0, 0, 0, 0, 2],
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, "1/3", 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 3],
        ])
        h = g.change_of_basis(t)
        assert h.validate() == ()
        assert h.lower_central_series().dims == g.lower_central_series().dims
        assert h.derived_series().dims == g.derived_series().dims
        assert h.center().dim == g.center().dim

    def test_scaling_aff1(self, entries):
        # e1 -> e1, e2 -> 5 e2 leaves [e1, e2] = e2 unchanged
        g = entries["aff1"].algebra.algebra
        t = Matrix.from_rows([[1, 0], [0, 5]])
        assert g.change_of_basis(t, names=g.basis_names) == g

    def test_bad_shape_rejected(self, entries):
        g = entries["aff1"].algebra.algebra
        with pytest.raises(ValueError):
            g.change_of_basis(Matrix.identity(3))
