"""The reduction path's integer kernel against the scalar loops it replaced.

LieAlgebra.change_of_basis, symplectic.change_of_basis, the adjoint
SkewForm.adjoint_map, the tower conjugations of _compose_tower and
check_admissible run over integer numerators, and each entry becomes a
scalar once.  Each is compared, entry for entry, with its ``fraction_*``
or ``reference_*`` counterpart in oracles.py, on fresh objects so that
no cached value is shared between the two sides.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (fraction_adjoint_map, fraction_change_of_basis,
                     fraction_compose_tower, fraction_lie_change_of_basis,
                     reference_check_admissible)
from symplie import catalog
from symplie.catalog import admissible_family, family_names, family_parameter_grid
from symplie.extension import (_compose_tower, check_admissible, extension_tower,
                               reduction_tower)
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, SingularMatrixError, kernel, rank, unit_vector
from symplie.rationals import ZERO, Q
from symplie.symplectic import SkewForm, SymplecticLieAlgebra, change_of_basis
from test_kernels import dense_change_of_basis
from test_sparse_kernels import dense_bases

SCALAR = type(ZERO)
DENOMINATORS = (1, 2, 3, 5, 7)
NAMES = [n for n in catalog.names() if catalog.get(n).algebra.dim >= 2]


def fresh(s) -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(LieAlgebra(s.algebra.basis_names, s.algebra.table),
                                SkewForm(s.form.matrix))


def scalars(m: Matrix) -> bool:
    return all(type(x) is SCALAR for row in m.entries for x in row)


def table_scalars(alg: LieAlgebra) -> bool:
    return all(type(x) is SCALAR for row in alg.table for cell in row for x in cell)


@pytest.fixture(scope="module")
def algebras(entries):
    """Every catalog entry and the 36 dense bases of the entries of dim >= 2."""
    out = [(name, entry.algebra) for name, entry in entries.items()]
    bases = dense_bases(entries)
    assert len(bases) == 36
    return out + bases


def assert_change_matches(s, t, label):
    names = tuple(f"z{k}" for k in range(s.dim))
    got = change_of_basis(fresh(s), t)
    ref = fraction_change_of_basis(fresh(s), t)
    assert got.algebra == ref.algebra, label
    assert got.form.matrix == ref.form.matrix, label
    assert table_scalars(got.algebra) and scalars(got.form.matrix), label
    lie = fresh(s).algebra.change_of_basis(t, names)
    assert lie == fraction_lie_change_of_basis(fresh(s).algebra, t, names), label
    assert table_scalars(lie), label


# ---------------------------------------------------------------------------
# change of basis

def test_change_of_basis(algebras):
    rng = random.Random("reduction kernel")
    for label, s in algebras:
        for t in (Matrix.identity(s.dim), dense_change_of_basis(rng, s.dim)):
            assert_change_matches(s, t, label)


nonzero = st.builds(Q, st.integers(-5, 5).filter(bool), st.sampled_from(DENOMINATORS))
entry = st.one_of(st.just(ZERO), nonzero)


@st.composite
def algebra_and_basis(draw):
    s = catalog.get(draw(st.sampled_from(NAMES))).algebra
    n = s.dim
    t = Matrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(rank(t) == n)
    return s, t


@settings(max_examples=60, deadline=None)
@given(algebra_and_basis())
def test_change_of_basis_random_invertible(case):
    s, t = case
    assert_change_matches(s, t, t)


def test_singular_and_misshapen_bases(entries):
    s = entries["g6_3"].algebra
    # a dense basis with its last row replaced by its first
    rows = list(dense_change_of_basis(random.Random("singular"), 6).entries)
    singular = Matrix.from_rows(rows[:5] + rows[:1])
    assert rank(singular) == 5
    for call in (lambda t: change_of_basis(s, t), lambda t: s.algebra.change_of_basis(t)):
        with pytest.raises(SingularMatrixError):
            call(singular)
        with pytest.raises(ValueError):
            call(Matrix.identity(4))


# ---------------------------------------------------------------------------
# adjoint

@st.composite
def form_and_map(draw):
    s = catalog.get(draw(st.sampled_from(NAMES))).algebra
    n = s.dim
    return s.form, Matrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(form_and_map())
def test_adjoint_map_random(case):
    form, f = case
    got = SkewForm(form.matrix).adjoint_map(f)
    assert got == fraction_adjoint_map(SkewForm(form.matrix), f)
    assert scalars(got)


def test_adjoint_map_dense_forms(algebras):
    rng = random.Random("adjoint")
    for label, s in algebras:
        form = SkewForm(s.form.matrix)
        f = dense_change_of_basis(rng, s.dim)
        got = form.adjoint_map(f)
        assert got == fraction_adjoint_map(SkewForm(s.form.matrix), f), label
        assert scalars(got), label
        with pytest.raises(ValueError):
            form.adjoint_map(Matrix.identity(s.dim + 1))


# ---------------------------------------------------------------------------
# tower conjugations

def test_compose_tower(algebras):
    towers = 0
    for label, s in algebras:
        if not s.is_flat or s.dim == 0:
            continue
        steps = reduction_tower(s)
        pairs, t = _compose_tower(steps)
        ref_pairs, ref_t = fraction_compose_tower(steps)
        assert pairs == ref_pairs, label
        assert t == ref_t, label
        assert scalars(t) and all(scalars(p.xi) and all(type(x) is SCALAR for x in p.b0)
                                  for p in pairs), label
        rebuilt = extension_tower(pairs)[-1]
        moved = change_of_basis(s, t, rebuilt.basis_names)
        assert moved.algebra.table == rebuilt.algebra.table, label
        towers += 1
    assert towers >= 30


# ---------------------------------------------------------------------------
# admissibility

def assert_same_report(base, xi, b0, label):
    got = check_admissible(fresh(base), xi, b0)
    assert got == reference_check_admissible(fresh(base), xi, b0), label
    return got


def perturbed_reports(rng, cases, count):
    """Reports of seeded perturbations of admissible pairs: one or two
    entries of xi and of b0 moved, each compared with the reference."""
    out = []
    for _ in range(count):
        label, base, pair = rng.choice(cases)
        n = base.dim
        rows = [list(row) for row in pair.xi.entries]
        b0 = list(pair.b0)
        mode = rng.randrange(3)
        for _ in range(rng.randint(1, 2)):
            if mode != 1:
                rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, Q(1, 2)))
            if mode != 0:
                b0[rng.randrange(n)] += rng.choice((1, -1))
        out.append(assert_same_report(base, Matrix.from_rows(rows), b0, label))
    return out


def failing_alone(reports) -> dict:
    """{name: the details it fails with} over the reports where exactly
    one identity fails."""
    alone = {}
    for r in reports:
        failed = [c for c in r.checks if not c.holds]
        if len(failed) == 1:
            alone.setdefault(failed[0].name, set()).add(failed[0].detail)
    return alone


def test_single_entry_pairs(entries):
    """xi with one entry -2, b0 zero or a basis vector, over every flat
    entry: identities 1, 4 and 5 each fail alone, 4 and 5 at more than one
    basis index."""
    reports = []
    for name, entry in entries.items():
        s = entry.algebra
        n = s.dim
        if n < 2 or not s.is_flat:
            continue
        for a in range(n):
            for b in range(n):
                rows = [[-2 if (i, j) == (a, b) else 0 for j in range(n)] for i in range(n)]
                for b0 in ([0] * n, [int(k == a) for k in range(n)]):
                    reports.append(assert_same_report(
                        s, Matrix.from_rows(rows), b0, (name, a, b, b0)))
    alone = failing_alone(reports)
    assert {"commutator_with_adjoint", "bracket_compatibility",
            "left_mult_compatibility"} <= set(alone)
    for name in ("bracket_compatibility", "left_mult_compatibility"):
        assert len(alone[name]) >= 2, (name, alone[name])


def test_perturbed_pairs(algebras):
    """Perturbed family points and outermost splits of the dense bases:
    identities 1 and 2 each fail alone."""
    cases = []
    for fam in family_names():
        for params in family_parameter_grid(fam)[:6]:
            name, pair = admissible_family(fam, params)
            cases.append((fam, catalog.get(name).algebra, pair))
    for label, s in algebras[len(catalog.names()):]:
        if s.is_flat:
            step = reduction_tower(s)[0]
            if step.base.dim:
                cases.append((label, step.base, step.pair))
    alone = failing_alone(perturbed_reports(random.Random("identities"), cases, 400))
    assert {"commutator_with_adjoint", "skew_part_kills_b0"} <= set(alone)


def identity_4_solutions(base) -> list:
    """A basis of {xi : xi ad_a = L_a xi - R_{xi(a)} for every a}, from
    the dense residuals on the n^2 matrix units."""
    n = base.dim
    p = base.canonical_product
    units = [Matrix.from_rows([[int((i, j) == (a, b)) for j in range(n)] for i in range(n)])
             for a in range(n) for b in range(n)]

    def residual(xi):
        out = []
        for i in range(n):
            a = unit_vector(n, i)
            m = (xi @ base.algebra.ad(a)) - (p.left(a) @ xi) + p.right(xi.col(i))
            out += [x for row in m.entries for x in row]
        return out

    gens = kernel(Matrix.from_cols([residual(u) for u in units])).columns()
    return [Matrix.from_rows([[g[a * n + b] for b in range(n)] for a in range(n)])
            for g in gens]


def test_identity_4_solutions(entries):
    """Identity 4 holds on every generator of its solution space, also
    where e_i o xi(e_j) is nonzero and the product and bracket have
    different denominators, which no admissible pair shows."""
    for name in ("r_h3_dim4", "r3_h3", "g6_1", "g6_2", "g6_3"):
        base = entries[name].algebra
        for xi in identity_4_solutions(base):
            report = assert_same_report(base, xi, (0,) * base.dim, name)
            assert report.checks[3].holds, name


def test_adjoint_composition_fails():
    """Identity 3 fails, with 2, on a pair that satisfies 1, 4 and 5.  No
    pair failing 3 alone turned up in a search over the flat bases of
    dim 4 and 6: xi in the solution space of 4 and 5, b0 solving 1, moved
    along the kernel of b -> R_b to satisfy 2."""
    base = catalog.get("r_h3_dim4").algebra
    xi = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [1, 0, 0, 0]])
    report = assert_same_report(base, xi, (0, -9, 0, 0), "identity 3")
    assert report.failed_names() == ["skew_part_kills_b0", "adjoint_composition"]


def test_zero_dimensional_base(entries):
    zero = entries["zero"].algebra
    report = assert_same_report(zero, Matrix.zeros(0, 0), (), "zero")
    assert report.admissible
