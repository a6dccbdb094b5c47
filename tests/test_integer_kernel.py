"""The integer product kernel against the scalar loops it replaced.

ProductTensor.integral holds every product table as integer numerators
over one common denominator.  The curvature witness, the associator
tensor, the Jacobi check, the canonical product and the closedness
check of symplectic_violations run over those ints.  Each is compared
with its ``fraction_*`` reference in oracles.py on fresh objects, so no
cached value is shared between the two sides.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import References
from oracles import (fraction_associators, fraction_canonical_product,
                     fraction_first_curvature_violation, fraction_validate)
from symplie import catalog
from symplie.catalog import admissible_family, family_names, family_parameter_grid
from symplie.extension import build_extension_candidate
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, ProductTensor, sparse
from symplie.rationals import Q, rational
from symplie.symplectic import (SkewForm, SymplecticLieAlgebra,
                                first_curvature_violation, symplectic_violations)
from test_flatness import perturbed_candidates
from test_sparse_kernels import dense_bases


def fresh_parts(algebra, form):
    return LieAlgebra(algebra.basis_names, algebra.table), SkewForm(form.matrix)


def assert_integral_exact(p: ProductTensor, label=None):
    den, rows = p.integral
    assert type(den) is int and den > 0, label
    cells = [[sparse(v) for v in row] for row in p.table]
    denominators = [int(c.denominator) for row in cells for cell in row
                    for _, c in cell]
    assert den == math.lcm(1, *denominators), label
    for a in range(p.dim):
        for m in range(p.dim):
            assert [k for k, _ in rows[a][m]] == [k for k, _ in cells[a][m]], label
            for k, num in rows[a][m]:
                assert type(num) is int, label
                assert rational(num, den) == p.table[a][m][k], label


def assert_validation_matches(algebra, form, label, ref=None):
    """validate() and symplectic_violations() equal their references."""
    ref = ref or References(SymplecticLieAlgebra(algebra, form))
    alg, frm = fresh_parts(algebra, form)
    assert alg.validate() == ref.validate, label
    assert symplectic_violations(alg, frm) == ref.violations, label
    assert_integral_exact(alg.bracket_tensor, label)


def assert_kernel_matches(s, label, ref=None) -> bool:
    """Every integer loop on a symplectic algebra equals its reference;
    returns whether it is flat."""
    ref = ref or References(s)
    assert_validation_matches(s.algebra, s.form, label, ref)
    fresh = SymplecticLieAlgebra(*fresh_parts(s.algebra, s.form))
    p = fresh.canonical_product
    assert p.table == ref.product.table, label
    assert_integral_exact(p, label)
    witness = ref.fraction_witness
    assert fresh.curvature_witness == witness, label
    assert first_curvature_violation(ref.product, ref.parts[0].table) == witness, label
    assert p.associators == ref.fraction_associators, label
    return witness is None


def failing_perturbed_candidates():
    """The candidates of test_flatness.perturbed_candidates that it drops
    because they are not symplectic, as (label, algebra, form)."""
    out = []
    for fam in family_names():
        base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
        n = base.dim
        for params in family_parameter_grid(fam)[:3]:
            _, pair = admissible_family(fam, params)
            for r in range(n):
                for c in range(n):
                    rows = [list(row) for row in pair.xi.entries]
                    rows[r][c] += 1
                    cand = build_extension_candidate(base, Matrix.from_rows(rows), pair.b0)
                    if symplectic_violations(cand.algebra, cand.form):
                        out.append((f"{fam} {params} xi[{r}][{c}]+1",
                                    cand.algebra, cand.form))
    return out


def broken_jacobi(entry):
    """The entry's algebra with 1 added to each bracket coefficient in
    turn, kept when that breaks the Jacobi identity."""
    g = entry.algebra.algebra
    n = g.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                brackets = {(a, b): {m: c for m, c in enumerate(g.table[a][b]) if c}
                            for a in range(n) for b in range(a + 1, n)}
                brackets.setdefault((i, j), {})
                brackets[(i, j)][k] = brackets[(i, j)].get(k, 0) + 1
                h = LieAlgebra.from_sparse(g.basis_names, brackets)
                if h.validate():
                    out.append(((i, j, k), h))
    return out


def test_every_catalog_entry(entries):
    assert len(entries) == 13
    flags = {name: assert_kernel_matches(e.algebra, name) for name, e in entries.items()}
    assert [name for name, flat in flags.items() if not flat] == ["aff1"]
    aff1 = SymplecticLieAlgebra(*fresh_parts(entries["aff1"].algebra.algebra,
                                             entries["aff1"].algebra.form))
    assert aff1.curvature_witness == (0, 1)


def test_every_sweep_extension(family_sweep, sweep_references):
    count = 0
    for fam, points in family_sweep.items():
        for (params, _, ext, _), ref in zip(points, sweep_references[fam], strict=True):
            assert assert_kernel_matches(ext, (fam, params), ref)
            count += 1
    assert count == 439


def test_perturbed_extensions():
    flags = [assert_kernel_matches(s, label) for label, s in perturbed_candidates()]
    assert len(flags) == 137
    assert flags.count(False) == 41


def test_perturbed_candidates_not_symplectic():
    """The candidates that fail validation report the same violations."""
    failing = failing_perturbed_candidates()
    assert failing
    for label, algebra, form in failing:
        assert_validation_matches(algebra, form, label)


def test_dense_bases(entries, dense_references):
    moved = dense_bases(entries)
    assert len(moved) == 36
    dens = set()
    for label, s in moved:
        assert (assert_kernel_matches(s, label, dense_references[label])
                == (not label.startswith("aff1")))
        dens.add(SymplecticLieAlgebra(s.algebra, s.form).canonical_product.integral[0])
    assert max(dens) > 1


@pytest.mark.parametrize("name", ["r_h3_dim4", "r3_h3", "g6_2", "g6_3"])
def test_broken_jacobi_tables(entries, name):
    cases = broken_jacobi(entries[name])
    assert cases
    form = entries[name].algebra.form
    for label, h in cases:
        violations = h.validate()
        assert violations == fraction_validate(LieAlgebra(h.basis_names, h.table)), label
        assert all(any(v.residual) for v in violations), label
        assert_validation_matches(h, form, label)


def test_broken_jacobi_in_a_dense_basis(entries):
    """A residual with denominators comes back as the same scalars."""
    (label, s), = [(lab, s) for lab, s in dense_bases(entries, seeds=1)
                   if lab.startswith("g6_3")]
    g = s.algebra
    n = g.dim
    brackets = {(a, b): {m: c for m, c in enumerate(g.table[a][b]) if c}
                for a in range(n) for b in range(a + 1, n)}
    brackets.setdefault((0, 1), {})
    brackets[(0, 1)][0] = brackets[(0, 1)].get(0, 0) + Q(1, 7)
    h = LieAlgebra.from_sparse(g.basis_names, brackets)
    violations = h.validate()
    assert violations
    assert any(x.denominator > 1 for v in violations for x in v.residual)
    assert violations == fraction_validate(LieAlgebra(h.basis_names, h.table))
    assert_validation_matches(h, s.form, label)


def test_zero_tensor_has_denominator_one():
    for n in range(4):
        assert ProductTensor.from_sparse(n, {}).integral == (
            1, tuple(tuple(() for _ in range(n)) for _ in range(n)))


# random tables with denominators in {1, 2, 3, 5, 7, 9}; the workloads
# only produce denominators of the form 2^a 3^b
scalars = st.builds(Q, st.sampled_from((0, 0, 0, 0, -3, -2, -1, 1, 2, 3)),
                    st.sampled_from((1, 2, 3, 5, 7, 9)))


@st.composite
def tables(draw, n):
    return tuple(tuple(tuple(draw(scalars) for _ in range(n))
                       for _ in range(n)) for _ in range(n))


@st.composite
def product_tensors(draw):
    n = draw(st.integers(0, 4))
    return ProductTensor(n, draw(tables(n)))


@st.composite
def lie_tables(draw, max_dim=5):
    """An antisymmetric bracket table, Jacobi identity not enforced, and
    a skew form on the same space."""
    n = draw(st.integers(0, max_dim))
    brackets = {(i, j): {k: draw(scalars) for k in range(n)}
                for i in range(n) for j in range(i + 1, n)}
    g = LieAlgebra.from_sparse(tuple(f"e{k}" for k in range(n)), brackets)
    rows = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(scalars)
            rows[j][i] = -rows[i][j]
    return g, SkewForm(Matrix.from_rows(rows))


@given(product_tensors())
@settings(max_examples=150, deadline=None)
def test_random_product_integral_and_associators(p):
    assert_integral_exact(p)
    assert p.associators == fraction_associators(ProductTensor(p.dim, p.table))


@given(product_tensors(), st.data())
@settings(max_examples=150, deadline=None)
def test_random_curvature_witness(p, data):
    n = p.dim
    # half the time the commutator table, so that a flat case can turn up
    if data.draw(st.booleans()):
        table = tuple(tuple(tuple(a - b for a, b in zip(p.table[i][j], p.table[j][i]))
                            for j in range(n)) for i in range(n))
    else:
        table = data.draw(tables(n))
    assert (first_curvature_violation(p, table)
            == fraction_first_curvature_violation(ProductTensor(n, p.table), table))


@given(lie_tables())
@settings(max_examples=150, deadline=None)
def test_random_lie_tables(case):
    g, form = case
    assert_validation_matches(g, form, g.table)
    if not form.is_nondegenerate():
        return
    fresh = SymplecticLieAlgebra(*fresh_parts(g, form))
    ref_p = fraction_canonical_product(*fresh_parts(g, form))
    assert fresh.canonical_product.table == ref_p.table
    assert_integral_exact(fresh.canonical_product)


def test_omega_brackets_built_once_per_pair(monkeypatch):
    """validate_symplectic hands its closedness tensor to the pair it
    returns, and canonical_product and structural_report read it there."""
    from symplie import symplectic
    calls = []
    original = symplectic._omega_brackets

    def counted(algebra, form):
        calls.append(1)
        return original(algebra, form)

    pairs = [fresh_parts(catalog.get(name).algebra.algebra, catalog.get(name).algebra.form)
             for name in ("g6_3", "r_h3_dim4", "aff1")]
    monkeypatch.setattr(symplectic, "_omega_brackets", counted)
    for algebra, form in pairs:
        s = symplectic.validate_symplectic(algebra, form)
        s.canonical_product
        symplectic.structural_report(s)
        assert s.omega_brackets == original(s.algebra, s.form)
    assert len(calls) == 3
