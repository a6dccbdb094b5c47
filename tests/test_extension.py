import random

import pytest

from symplie import catalog
from symplie.extension import (AdmissiblePair, NotAdmissibleError,
                               NotAnIdealError, NotFlatError,
                               build_extension_candidate, check_admissible,
                               double_extend, extension_tower,
                               inverse_double_extend, nilpotency_trace_report,
                               reduction_tower, symplectic_reduce, tower_pairs,
                               tower_transform, zero_symplectic)
from symplie.linalg import Matrix, Subspace, unit_vector
from symplie.rationals import Q
from symplie.symplectic import (InvalidSymplecticError, SkewForm,
                                SymplecticLieAlgebra, bordered, change_of_basis,
                                symplectic_violations, validate_symplectic)
from test_kernels import dense_change_of_basis

NILP2 = Matrix.from_rows([[0, 1], [0, 0]])


class TestAdmissiblePair:
    def test_coerces_b0(self):
        pair = AdmissiblePair(NILP2, (1, "1/2"))
        assert pair.b0 == (Q(1), Q(1, 2))
        assert pair.base_dim == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AdmissiblePair(Matrix.zeros(2, 3), (0, 0))
        with pytest.raises(ValueError):
            AdmissiblePair(NILP2, (0, 0, 0))


class TestCheckAdmissible:
    def test_requires_flat_base(self, entries):
        with pytest.raises(NotFlatError):
            check_admissible(entries["aff1"].algebra, Matrix.zeros(2, 2), (0, 0))

    def test_shape_errors(self, entries):
        base = entries["abelian2"].algebra
        with pytest.raises(ValueError):
            check_admissible(base, Matrix.zeros(3, 3), (0, 0, 0))
        with pytest.raises(ValueError):
            check_admissible(base, Matrix.zeros(2, 2), (0,))

    def test_nilpotent_pair_on_plane(self, entries):
        base = entries["abelian2"].algebra
        report = check_admissible(base, NILP2, (1, 0))
        assert report.admissible
        assert report.failed_names() == []

    def test_b0_outside_skew_kernel_fails(self, entries):
        # the skew part of xi must kill b0; an e2-component survives it
        base = entries["abelian2"].algebra
        report = check_admissible(base, NILP2, (1, 2))
        assert not report.admissible
        assert report.failed_names() == ["skew_part_kills_b0"]

    def test_non_nilpotent_xi_fails(self, entries):
        base = entries["abelian2"].algebra
        report = check_admissible(
            base, Matrix.from_rows([[1, 0], [0, 0]]), (0, 0))
        assert report.failed_names() == ["commutator_with_adjoint"]

    def test_report_lines(self, entries):
        base = entries["abelian2"].algebra
        lines = check_admissible(base, NILP2, (1, 2)).lines()
        assert "commutator_with_adjoint: pass" in lines
        assert any(line.startswith("skew_part_kills_b0: FAIL") for line in lines)


class TestDoubleExtend:
    def test_zero_base_gives_symplectic_plane(self):
        ext = double_extend(zero_symplectic(),
                            AdmissiblePair(Matrix.zeros(0, 0), ()))
        assert ext.dim == 2
        assert ext.algebra.is_abelian()
        assert ext.form.matrix == Matrix.from_rows([[0, 1], [-1, 0]])
        assert ext.basis_names == ("e1", "e2")

    def test_trivial_pair_with_b0(self, entries):
        # xi = 0 but b0 != 0 still produces one bracket [a, ebar] = -w(b0,a) e
        base = entries["abelian2"].algebra
        ext = double_extend(base, AdmissiblePair(Matrix.zeros(2, 2), (0, 1)))
        assert ext.dim == 4
        assert ext.algebra.table[1][3] == (Q(1), Q(0), Q(0), Q(0))
        assert ext.algebra.table[2][3] == (Q(0),) * 4
        assert ext.is_flat
        assert ext.algebra.lower_central_series().dims == (4, 1, 0)

    def test_layout_and_postconditions(self, entries):
        base = entries["abelian2"].algebra
        ext = double_extend(base, AdmissiblePair(NILP2, (1, 0)))
        n = base.dim
        assert ext.basis_names == ("e1", "e2", "e3", "e4")
        # e is central and isotropic against everything but ebar
        e = unit_vector(n + 2, 0)
        assert ext.algebra.ad(e).is_zero()
        assert ext.form.pair(e, unit_vector(n + 2, n + 1)) == Q(1)
        for k in range(1, n + 1):
            assert ext.form.pair(e, unit_vector(n + 2, k)) == Q(0)
        # middle block is the base form
        for r in range(n):
            for c in range(n):
                assert ext.form.matrix.entry(1 + r, 1 + c) \
                    == base.form.matrix.entry(r, c)
        # ebar o ebar lands on b0/3
        assert ext.canonical_product.table[n + 1][n + 1] \
            == (Q(0), Q(1, 3), Q(0), Q(0))

    def test_rejects_inadmissible(self, entries):
        base = entries["abelian2"].algebra
        with pytest.raises(NotAdmissibleError) as info:
            double_extend(base, AdmissiblePair(NILP2, (1, 2)))
        assert "skew_part_kills_b0" in str(info.value)

    def test_xi_star_computed_once(self, entries, monkeypatch):
        """double_extend computes xi* once, as int rows, and shares it
        between the identity check and the assembly.  It is computed on
        the xi block of the pair's int rows, so the point is one whose b0
        adds a denominator to xi's."""
        calls = []
        original = SkewForm.int_adjoint

        def spy(self, rows):
            out = original(self, rows)
            calls.append(([list(r) for r in rows], out))
            return out

        def no_scalar_adjoint(self, f):
            raise AssertionError("double_extend built a scalar adjoint")

        monkeypatch.setattr(SkewForm, "int_adjoint", spy)
        monkeypatch.setattr(SkewForm, "adjoint_map", no_scalar_adjoint)
        points = (catalog.admissible_family(fam, params) for fam in catalog.family_names()
                  for params in catalog.family_parameter_grid(fam))
        base_name, pair = next(pt for pt in points if not pt[1].xi.is_zero()
                               and pt[1].integral[0] != pt[1].xi.integral[0])
        base = entries[base_name].algebra
        base = SymplecticLieAlgebra(base.algebra, base.form)
        pden, prows = pair.integral
        xs = [list(r[:-1]) for r in prows]
        double_extend(base, pair)
        stars = [out for rows, out in calls if rows == xs]
        assert len(stars) == 1
        den, star = stars[0]
        assert Matrix.from_integral(den * pden, star) \
            == base.form.inverse_matrix @ pair.xi.transpose() @ base.form.matrix

    def test_extensions_of_a_base_share_its_form(self, family_sweep):
        """Every extension over one base carries the one bordered form,
        omega_B in the middle and omega(e, ebar) = 1, built once per base."""
        for fam, points in family_sweep.items():
            base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
            wden, w = base.form.matrix.integral
            expected = SkewForm.from_integral(wden, bordered(w, ((0, wden), (-wden, 0))))
            forms = [ext.form for _, _, ext, _ in points]
            assert all(f == expected for f in forms), fam
            assert all(f is forms[0] for f in forms), fam
            # the same form object on another extension of the same base
            ext = double_extend(base, points[0][1])
            assert ext.form == expected and ext.form is base.form.extension_form

    def test_inadmissible_candidate_really_breaks(self, entries):
        # the unchecked build must fail the axioms, not silently succeed
        base = entries["abelian2"].algebra
        bad = Matrix.from_rows([[1, 0], [0, 0]])
        candidate = build_extension_candidate(base, bad, (0, 0))
        with pytest.raises(InvalidSymplecticError):
            validate_symplectic(candidate.algebra, candidate.form)


def assert_extension_theorem(base, pair, ext):
    """The conclusions of the extension theorem for ext = double_extend(base, pair).

    ext is a flat symplectic Lie algebra, e = e1 multiplies to zero on
    both sides, and its canonical product is given on the pieces
    [e, base..., ebar] by the closed-form formulas, with omega_B the
    base form and xi* the omega_B-adjoint of xi:

      a o b       = a o_B b + omega_B(xi(a), b) e
      ebar o a    = (xi* - xi)(a) + (1/3) omega_B(b0, a) e
      a o ebar    = xi(a) - (2/3) omega_B(b0, a) e
      ebar o ebar = (1/3) b0
    """
    assert symplectic_violations(ext.algebra, ext.form) == []
    assert ext.is_flat
    n = base.dim
    prod = ext.canonical_product
    e = unit_vector(n + 2, 0)
    assert prod.left(e).is_zero() and prod.right(e).is_zero()

    def embed(e_coeff, v):
        return (e_coeff,) + tuple(v) + (Q(0),)

    omega_b = base.form.pair
    xi, b0 = pair.xi, pair.b0
    skew = base.adjoint(xi) - xi
    for p in range(n):
        a = unit_vector(n, p)
        for q in range(n):
            assert prod.table[1 + p][1 + q] == embed(
                omega_b(xi.col(p), unit_vector(n, q)),
                base.canonical_product.table[p][q]), (p, q)
        w = omega_b(b0, a)
        assert prod.table[n + 1][1 + p] == embed(w / 3, skew.col(p)), p
        assert prod.table[1 + p][n + 1] == embed(-2 * w / 3, xi.col(p)), p
    assert prod.table[n + 1][n + 1] == embed(Q(0), (x / 3 for x in b0))


def random_admissible_pairs(rng, bases, trials):
    """Seeded pairs over the given bases that pass check_admissible.

    xi gets 1-3 nonzero entries in {1, -1, 2, -2}; b0 is c e_k with c in
    {0, 1, -1}.
    """
    found = []
    names = sorted(bases)
    for _ in range(trials):
        name = rng.choice(names)
        base = bases[name]
        n = base.dim
        rows = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1, 2, -2))
        b0 = [0] * n
        b0[rng.randrange(n)] = rng.choice((0, 1, -1))
        xi = Matrix.from_rows(rows)
        if check_admissible(base, xi, b0).admissible:
            found.append((name, AdmissiblePair(xi, b0)))
    return found


class TestConstructionTheorem:
    """double_extend checks only admissibility; these prove its output."""

    def test_every_sweep_point(self, family_sweep):
        count = 0
        for fam, points in family_sweep.items():
            base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
            for params, pair, ext, _ in points:
                assert_extension_theorem(base, pair, ext)
                count += 1
        assert count == 439

    def test_random_admissible_pairs(self, entries):
        bases = {name: entries[name].algebra for name in
                 ("abelian2", "abelian4", "abelian4_w0", "r_h3_dim4")}
        pairs = random_admissible_pairs(random.Random(20260), bases, 1600)
        assert len(pairs) >= 300
        assert {name for name, _ in pairs} == set(bases)
        assert len(set(pairs)) >= 200
        for name, pair in pairs:
            assert_extension_theorem(bases[name], pair,
                                     double_extend(bases[name], pair))

    @pytest.mark.parametrize("seed", range(3))
    def test_reduction_towers_in_dense_bases(self, entries, seed):
        rng = random.Random(f"towers {seed}")
        steps_seen = 0
        for name, entry in entries.items():
            s = entry.algebra
            if name == "aff1" or s.dim == 0:
                continue
            moved = change_of_basis(s, dense_change_of_basis(rng, s.dim))
            for step in reduction_tower(moved):
                assert_extension_theorem(step.base, step.pair,
                                         double_extend(step.base, step.pair))
                steps_seen += 1
        assert steps_seen == 28


class TestInverseDoubleExtend:
    def test_r_h3_dim4_split(self, entries):
        step = inverse_double_extend(entries["r_h3_dim4"].algebra)
        assert step.e == (Q(0), Q(0), Q(1), Q(0))
        assert step.ebar == (Q(0), Q(-1), Q(0), Q(0))
        assert step.base.dim == 2
        assert step.base.algebra.is_abelian()
        assert step.pair.xi.is_zero()
        assert step.pair.b0 == (Q(0), Q(-1))

    def test_abelian2_splits_to_zero(self, entries):
        step = inverse_double_extend(entries["abelian2"].algebra)
        assert step.base.dim == 0
        assert step.pair.xi.shape == (0, 0)
        assert step.pair.b0 == ()
        assert step.e == (Q(1), Q(0))
        assert step.ebar == (Q(0), Q(1))

    def test_explicit_central_direction(self, entries):
        s = entries["r3_h3"].algebra
        e = (0, 0, 0, 0, 0, 1)
        step = inverse_double_extend(s, e)
        assert step.e == tuple(map(Q, e))
        assert step.base.dim == 4

    def test_rejects_bad_directions(self, entries):
        s = entries["r3_h3"].algebra
        with pytest.raises(ValueError):
            inverse_double_extend(s, (1, 0, 0, 0, 0, 0))  # not central
        with pytest.raises(ValueError):
            inverse_double_extend(s, (0,) * 6)  # zero
        with pytest.raises(ValueError):
            inverse_double_extend(zero_symplectic())

    def test_requires_flat(self, entries):
        with pytest.raises(NotFlatError):
            inverse_double_extend(entries["aff1"].algebra)


class TestSymplecticReduce:
    def test_derived_ideal_of_r_h3_dim4(self, entries):
        s = entries["r_h3_dim4"].algebra
        reduced = symplectic_reduce(s, s.derived)
        assert reduced.dim == 2
        assert reduced.algebra.is_abelian()
        assert reduced.form.matrix == Matrix.from_rows([[0, 1], [-1, 0]])

    def test_lagrangian_center_reduces_to_zero(self, entries):
        s = entries["r_h3_dim4"].algebra
        assert symplectic_reduce(s, s.center).dim == 0

    def test_full_ideal_reduces_to_zero(self, entries):
        s = entries["g6_2"].algebra
        assert symplectic_reduce(s, Subspace.full(6)).dim == 0

    def test_zero_ideal_is_identity(self, entries):
        s = entries["g6_1"].algebra
        reduced = symplectic_reduce(s, Subspace.zero(6))
        assert reduced.algebra.table == s.algebra.table
        assert reduced.form.matrix == s.form.matrix

    def test_non_ideal_rejected(self, entries):
        s = entries["r_h3_dim4"].algebra
        with pytest.raises(NotAnIdealError):
            symplectic_reduce(s, Subspace.span(4, [unit_vector(4, 0)]))


class TestReduceTheorem:
    """symplectic_reduce does not re-validate; these prove its output."""

    def test_every_catalog_entry_and_ideal(self, entries):
        count = 0
        for name, entry in entries.items():
            s = entry.algebra
            n = s.dim
            ideals = [Subspace.zero(n), s.center, s.derived, Subspace.full(n)]
            ideals += list(s.algebra.lower_central_series().terms)
            for ideal in ideals:
                reduced = symplectic_reduce(s, ideal)
                assert symplectic_violations(reduced.algebra, reduced.form) == [], name
                if s.is_flat:
                    assert reduced.is_flat, name
                count += 1
        assert count >= 5 * len(entries)


class TestTowers:
    def test_reduction_tower_depths(self, entries):
        for name, depth in (("zero", 0), ("abelian2", 1), ("r_h3_dim4", 2),
                            ("g6_3", 3), ("r3_h3", 3)):
            steps = reduction_tower(entries[name].algebra)
            assert len(steps) == depth, name
            if steps:
                assert steps[-1].base.dim == 0

    def test_round_trip_all_flat_entries(self, entries):
        for name, entry in entries.items():
            if name == "aff1":
                continue
            s = entry.algebra
            steps = reduction_tower(s)
            pairs = tower_pairs(steps)
            t = tower_transform(steps)
            stages = extension_tower(pairs)
            assert len(stages) == len(pairs) + 1
            rebuilt = stages[-1]
            moved = change_of_basis(s, t)
            assert rebuilt.algebra.table == moved.algebra.table, name
            assert rebuilt.form.matrix == moved.form.matrix, name

    def test_extension_tower_reports_failing_stage(self, entries):
        good = AdmissiblePair(Matrix.zeros(0, 0), ())
        bad = AdmissiblePair(Matrix.from_rows([[1, 0], [0, 0]]), (0, 0))
        with pytest.raises(NotAdmissibleError) as info:
            extension_tower([good, bad])
        assert info.value.stage == 1
        assert "stage 1" in str(info.value)

    def test_extension_tower_from_explicit_base(self, entries):
        base = entries["abelian4"].algebra
        stages = extension_tower([AdmissiblePair(Matrix.zeros(4, 4), (0, 0, 0, 0))],
                                 base=base)
        assert [st.dim for st in stages] == [4, 6]


class TestNilpotencyTraceReport:
    def test_abelian_dim4_pair(self, entries):
        base = entries["abelian4_w0"].algebra
        xi = Matrix.from_rows(
            [[0, 0, 1, 2], [0, 0, 3, 4], [0, 0, 0, 0], [0, 0, 0, 0]])
        pair = AdmissiblePair(xi, (1, -2, 0, 0))
        report = nilpotency_trace_report(base, pair)
        assert report.ok()
        assert report.base_nilpotent
        assert report.xi_nilpotent and report.d_nilpotent
        assert report.xi_square_zero
        assert report.image_xi_isotropic

    def test_nonabelian_base_pair(self, entries):
        base = entries["r_h3_dim4"].algebra
        xi = Matrix.from_rows(
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
        pair = AdmissiblePair(xi, (0, 0, 1, 0))
        report = nilpotency_trace_report(base, pair)
        assert report.ok()
        assert report.base_nilpotent
        assert report.xi_nilpotent and report.d_nilpotent
        # the abelian-dim-4 facts do not apply here
        assert report.xi_square_zero is None
        assert report.image_xi_isotropic is None

    def test_rejects_inadmissible(self, entries):
        base = entries["abelian2"].algebra
        with pytest.raises(NotAdmissibleError):
            nilpotency_trace_report(base, AdmissiblePair(NILP2, (1, 2)))
