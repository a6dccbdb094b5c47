import pytest

from symplie.catalog import wedge_form
from symplie.lie import LieAlgebra
from symplie.linalg import (Matrix, Subspace, is_zero_vector, subspace_intersect,
                            unit_vector)
from symplie.rationals import Q
from symplie.symplectic import (FlatnessInvariantError, InvalidSymplecticError,
                                NotLieAdmissibleError, ProductTensor, SkewForm,
                                SubspaceClass, SymplecticLieAlgebra,
                                change_of_basis, classify_subspace,
                                curvature_residuals, darboux_basis, h_vector,
                                multiplication_kernels,
                                perp, structural_report, symplectic_violations,
                                validate_symplectic)

STD4 = wedge_form(4, [(1, 2, 1), (3, 4, 1)])


class TestSkewForm:
    def test_pair(self):
        assert STD4.pair(unit_vector(4, 0), unit_vector(4, 1)) == Q(1)
        assert STD4.pair(unit_vector(4, 1), unit_vector(4, 0)) == Q(-1)
        assert STD4.pair((1, 0, 2, 0), (0, 3, 0, "1/2")) == Q(4)

    def test_dual_of_covector(self):
        phi = (Q(1), Q(0), Q(-2), Q(5))
        x = STD4.dual_of_covector(phi)
        for k in range(4):
            assert STD4.pair(x, unit_vector(4, k)) == phi[k]

    def test_adjoint_identity(self):
        f = Matrix.from_rows(
            [[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 2, 1], ["1/2", 0, 0, 1]])
        fstar = STD4.adjoint_map(f)
        for i in range(4):
            for j in range(4):
                u, v = unit_vector(4, i), unit_vector(4, j)
                assert STD4.pair(f.apply(u), v) == STD4.pair(u, fstar.apply(v))

    def test_adjoint_frozen_value(self):
        # omega = x1^x4 + x2^x3 pairing; upper-right block maps to its
        # anti-transpose with a sign
        form = wedge_form(4, [(1, 4, 1), (2, 3, 1)])
        xi = Matrix.from_rows(
            [[0, 0, 1, 2], [0, 0, 3, 4], [0, 0, 0, 0], [0, 0, 0, 0]])
        expected = Matrix.from_rows(
            [[0, 0, -4, -2], [0, 0, -3, -1], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert form.adjoint_map(xi) == expected

    def test_adjoint_is_involutive_antihomomorphism(self):
        a = Matrix.from_rows(
            [[1, 0, 2, 0], [0, 0, 0, 1], [0, 3, 0, 0], [0, 0, 1, 1]])
        b = Matrix.from_rows(
            [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, "1/3"]])
        star = STD4.adjoint_map
        assert star(star(a)) == a
        assert star(a @ b) == star(b) @ star(a)


class TestSubspaceGeometry:
    def test_perp_dimensions(self):
        line = Subspace.span(4, [unit_vector(4, 0)])
        p = perp(STD4, line)
        assert p.dim == 3
        assert p.contains(unit_vector(4, 0))
        assert perp(STD4, Subspace.zero(4)) == Subspace.full(4)
        assert perp(STD4, Subspace.full(4)) == Subspace.zero(4)

    def test_classify(self):
        e = [unit_vector(4, i) for i in range(4)]
        assert classify_subspace(STD4, Subspace.span(4, [e[0]])) \
            is SubspaceClass.TOTALLY_ISOTROPIC
        assert classify_subspace(STD4, Subspace.span(4, [e[0], e[2]])) \
            is SubspaceClass.LAGRANGIAN
        assert classify_subspace(STD4, Subspace.span(4, [e[0], e[1]])) \
            is SubspaceClass.NONDEGENERATE
        assert classify_subspace(STD4, Subspace.span(4, [e[0], e[1], e[2]])) \
            is SubspaceClass.DEGENERATE
        lagrangian = Subspace.span(4, [e[0], e[2]])
        assert subspace_intersect(lagrangian, perp(STD4, lagrangian)).dim > 0
        nondegenerate = Subspace.span(4, [e[0], e[1]])
        assert subspace_intersect(nondegenerate, perp(STD4, nondegenerate)).dim == 0

    def test_darboux_standard_form_is_fixed(self):
        assert darboux_basis(STD4) == Matrix.identity(4)

    def test_darboux_scrambled_form(self):
        form = wedge_form(6, [(1, 6, 1), (2, 5, 2), (3, 4, "-1/2")])
        t = darboux_basis(form)
        g = t.transpose() @ form.matrix @ t
        assert g == wedge_form(6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)]).matrix


class TestValidation:
    def test_not_closed(self):
        alg = LieAlgebra.from_sparse(
            ("x1", "x2", "x3", "x4"), {(0, 1): {2: 1}})
        violations = symplectic_violations(alg, STD4)
        assert violations == ["form is not closed at basis triple (0, 1, 3)"]
        with pytest.raises(InvalidSymplecticError):
            validate_symplectic(alg, STD4)

    def test_dimension_mismatch(self):
        alg = LieAlgebra.from_sparse(("a", "b"), {})
        assert symplectic_violations(alg, STD4) \
            == ["form dimension 4 does not match algebra dimension 2"]

    def test_degenerate_form(self):
        alg = LieAlgebra.from_sparse(("a", "b", "c", "d"), {})
        form = wedge_form(4, [(1, 2, 1)])
        assert "form is degenerate" in symplectic_violations(alg, form)

    def test_odd_dimension(self):
        alg = LieAlgebra.from_sparse(("a",), {})
        form = SkewForm(Matrix.zeros(1, 1))
        assert "dimension 1 is odd" in symplectic_violations(alg, form)

    def test_valid_passes(self, entries):
        for entry in entries.values():
            s = entry.algebra
            assert symplectic_violations(s.algebra, s.form) == []


class TestCanonicalProduct:
    def test_defining_identity(self, entries):
        for name in ("aff1", "r_h3_dim4", "g6_2", "g6_3"):
            s = entries[name].algebra
            n = s.dim
            p = s.canonical_product
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        ei, ej, ek = (unit_vector(n, t) for t in (i, j, k))
                        lhs = Q(3) * s.form.pair(p.table[i][j], ek)
                        rhs = (s.form.pair(s.algebra.bracket(ei, ej), ek)
                               + s.form.pair(s.algebra.bracket(ei, ek), ej))
                        assert lhs == rhs

    def test_frozen_table_r_h3_dim4(self, entries):
        p = entries["r_h3_dim4"].algebra.canonical_product
        expected = ProductTensor.from_sparse(4, {
            (0, 1): {2: Q(2, 3)},
            (1, 0): {2: Q(-1, 3)},
            (1, 1): {3: Q(-1, 3)},
        })
        assert p == expected

    def test_frozen_table_aff1(self, entries):
        p = entries["aff1"].algebra.canonical_product
        expected = ProductTensor.from_sparse(2, {
            (0, 0): {0: Q(-1, 3)},
            (0, 1): {1: Q(1, 3)},
            (1, 0): {1: Q(-2, 3)},
        })
        assert p == expected

    def test_left_minus_right_is_ad(self, entries):
        for name in ("g6_1", "g6_2", "aff1", "r3_h3"):
            s = entries[name].algebra
            p = s.canonical_product
            for i in range(s.dim):
                u = unit_vector(s.dim, i)
                assert p.left(u) - p.right(u) == s.algebra.ad(u)

    def test_left_is_skew_part_of_ad(self, entries):
        for name in ("g6_3", "r_h3_dim4", "aff1"):
            s = entries[name].algebra
            for i in range(s.dim):
                ad = s.algebra.ad(unit_vector(s.dim, i))
                expected = (ad - s.adjoint(ad)).scale(Q(1, 3))
                assert s.canonical_product.left(unit_vector(s.dim, i)) == expected

    def test_left_mult_omega_skew(self, entries):
        for name in ("g6_1", "g6_2_w3", "aff1"):
            s = entries[name].algebra
            for i in range(s.dim):
                lu = s.canonical_product.left(unit_vector(s.dim, i))
                assert s.adjoint(lu) == -lu

    def test_operator_helpers_match_apply(self, entries):
        s = entries["g6_2"].algebra
        p = s.canonical_product
        u = (1, 0, 2, 0, "1/2", 0)
        v = (0, 1, 0, -1, 0, 3)
        assert p.left(u).apply(v) == p.apply(u, v)
        assert p.right(u).apply(v) == p.apply(v, u)


class TestFlatness:
    def test_flat_entries(self, entries):
        for name, entry in entries.items():
            if name == "aff1":
                continue
            checks = entry.algebra.flatness
            assert checks.is_flat, name
            assert checks.right_form_vanishes and checks.left_symmetric
            assert checks.witness is None

    def test_aff1_not_flat(self, entries):
        checks = entries["aff1"].algebra.flatness
        assert not checks.curvature_vanishes
        assert not checks.right_form_vanishes
        assert not checks.left_symmetric
        assert checks.witness == (0, 1)
        assert not entries["aff1"].algebra.is_flat

    def test_curvature_residuals_zero_on_flat(self, entries):
        s = entries["r3_h3"].algebra
        res = curvature_residuals(s.canonical_product, s.algebra)
        assert all(m.is_zero() for m in res.values())

    def test_curvature_residuals_rejects_non_admissible(self, entries):
        s = entries["r_h3_dim4"].algebra
        zero = ProductTensor.from_sparse(4, {})
        with pytest.raises(NotLieAdmissibleError):
            curvature_residuals(zero, s.algebra)


class TestNaturalProduct:
    def test_aff1_frozen_values(self, entries):
        p = entries["aff1"].algebra.natural_product
        expected = ProductTensor.from_sparse(2, {
            (0, 0): {0: -1},
            (1, 0): {1: -1},
        })
        assert p == expected

    def test_zero_curvature_everywhere(self, entries):
        for entry in entries.values():
            s = entry.algebra
            res = curvature_residuals(s.natural_product, s.algebra)
            assert all(m.is_zero() for m in res.values())

    def test_not_omega_skew_when_nonabelian(self, entries):
        s = entries["aff1"].algebra
        lu = s.natural_product.left(unit_vector(2, 0))
        assert s.adjoint(lu) != -lu

    def test_agrees_with_canonical_in_abelian_case(self, entries):
        s = entries["abelian4"].algebra
        assert s.natural_product == s.canonical_product
        assert s.natural_product.is_zero()


class TestDerivedInvariants:
    def test_h_vector_aff1(self, entries):
        assert h_vector(entries["aff1"].algebra) == (Q(0), Q(-1))

    def test_h_vector_zero_on_flat(self, entries):
        for name in ("r3_h3", "g6_1", "g6_2", "g6_3"):
            assert is_zero_vector(h_vector(entries[name].algebra))

    def test_multiplication_kernels_r3_h3(self, entries):
        kernels = multiplication_kernels(entries["r3_h3"].algebra)
        tail = Subspace.span(6, [unit_vector(6, k) for k in (2, 3, 4, 5)])
        assert kernels.left_kernel == tail
        assert kernels.right_kernel == tail
        assert kernels.product_span == Subspace.span(
            6, [unit_vector(6, 4), unit_vector(6, 5)])


class TestStructuralReport:
    def test_all_entries_pass(self, entries):
        for name, entry in entries.items():
            report = structural_report(entry.algebra)
            assert report.ok(), (name, [c.line() for c in report.claims
                                        if c.applicable and not c.holds])

    def test_not_applicable_counts(self, entries):
        def na(name):
            report = structural_report(entries[name].algebra)
            return sum(1 for c in report.claims if not c.applicable)
        assert na("aff1") == 13   # 12 flat-only claims + lagrangian criterion
        assert na("zero") == 3    # center-nonzero + the two degeneracy claims
        assert na("g6_3") == 1    # lagrangian criterion (center is too small)
        assert na("g6_2") == 0

    def test_lagrangian_center_criterion(self, entries):
        for name in ("g6_1", "g6_2", "g6_2_w2", "g6_2_w3", "abelian4"):
            claim = structural_report(entries[name].algebra).get(
                "lagrangian_center_criterion")
            assert claim.applicable and claim.holds, name
        for name in ("g6_3", "aff1"):
            claim = structural_report(entries[name].algebra).get(
                "lagrangian_center_criterion")
            assert not claim.applicable, name

    def test_report_fields_g6_3(self, entries):
        report = structural_report(entries["g6_3"].algebra)
        assert report.is_flat
        assert report.nilpotency_class == 3
        assert report.unimodular
        assert is_zero_vector(report.h)
        assert report.center_kind is SubspaceClass.TOTALLY_ISOTROPIC
        assert report.derived_kind is SubspaceClass.LAGRANGIAN

    def test_report_fields_aff1(self, entries):
        report = structural_report(entries["aff1"].algebra)
        assert not report.is_flat
        assert report.nilpotency_class is None
        assert not report.unimodular
        assert report.h == (Q(0), Q(-1))

    def test_claim_lines_render(self, entries):
        report = structural_report(entries["r_h3_dim4"].algebra)
        lines = report.lines()
        assert any(line.startswith("flat_nilpotent: pass") for line in lines)
        assert all("FAIL" not in line for line in lines)


class TestChangeOfBasis:
    def test_darboux_transport(self, entries):
        s = entries["g6_1"].algebra
        t = darboux_basis(s.form)
        moved = change_of_basis(s, t)
        assert moved.form.matrix == wedge_form(
            6, [(1, 2, 1), (3, 4, 1), (5, 6, 1)]).matrix
        assert moved.is_flat == s.is_flat
        assert moved.algebra.lower_central_series().dims \
            == s.algebra.lower_central_series().dims

    def test_identity_transport(self, entries):
        s = entries["g6_2"].algebra
        moved = change_of_basis(s, Matrix.identity(6), names=s.basis_names)
        assert moved.algebra == s.algebra
        assert moved.form == s.form
