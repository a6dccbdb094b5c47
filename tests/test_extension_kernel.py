"""The integer-born double extension against the scalar assembly it replaced.

build_extension_candidate and double_extend assemble the bracket of the
extension as int numerators over one denominator and build it through
ProductTensor.from_integral, which keeps those numerators as the seeded
integral; canonical_product and LieAlgebra.change_of_basis build through
the same constructor.  Each result is compared field for field with its
oracle in oracles.py: the table, the form, and the seeded integral, which
must equal what ProductTensor(n, table).integral derives from the
scalars.  Every comparison runs on fresh objects, so that no cached value
is shared between the two sides.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (fraction_build_extension_candidate, rational_canonical_product,
                     rational_lie_change_of_basis)
from symplie import catalog
from symplie.extension import (AdmissiblePair, build_extension_candidate,
                               check_admissible, double_extend, extension_tower,
                               reduction_tower, tower_pairs)
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, ProductTensor
from symplie.rationals import ZERO, Q
from symplie.symplectic import SkewForm, SymplecticLieAlgebra
from test_kernels import dense_change_of_basis
from test_sparse_kernels import dense_bases

SCALAR = type(ZERO)


def fresh(s) -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(LieAlgebra(s.algebra.basis_names, s.algebra.table),
                                SkewForm(s.form.matrix))


def assert_tensor_matches(got: ProductTensor, table, label):
    """got has the scalar table and seeds the integral the table derives."""
    assert got.table == table, label
    assert all(type(x) is SCALAR for row in got.table for cell in row for x in cell), label
    assert "integral" in got.__dict__, label
    assert got.integral == ProductTensor(got.dim, table).integral, label


def assert_extension_matches(got, ref, label):
    assert got.basis_names == ref.basis_names, label
    assert got.form.matrix == ref.form.matrix, label
    assert all(type(x) is SCALAR for row in got.form.matrix.entries for x in row), label
    assert_tensor_matches(got.algebra.bracket_tensor, ref.algebra.table, label)
    assert got.algebra.table is got.algebra.bracket_tensor.table, label
    assert_tensor_matches(got.canonical_product,
                          rational_canonical_product(fresh(ref)).table, label)


def assert_candidate_matches(base, xi, b0, label):
    got = build_extension_candidate(fresh(base), xi, b0)
    ref = fraction_build_extension_candidate(fresh(base), xi, b0)
    assert_extension_matches(got, ref, label)
    return got


def test_every_family_sweep_point(family_sweep, entries):
    points = 0
    for fam, results in family_sweep.items():
        base = entries[catalog.FAMILY_BASES[fam]].algebra
        for params, pair, ext, _ in results:
            label = f"{fam} {params}"
            got = assert_candidate_matches(base, pair.xi, pair.b0, label)
            assert_extension_matches(ext, got, label)
            assert double_extend(fresh(base), pair).algebra.table == got.algebra.table
            points += 1
    assert points == 439


def test_inadmissible_candidate(entries):
    # the pair that tests/test_extension.py shows breaking the axioms
    base = entries["abelian2"].algebra
    bad = Matrix.from_rows([[1, 0], [0, 0]])
    assert not check_admissible(base, bad, (0, 0)).admissible
    assert_candidate_matches(base, bad, (0, 0), "abelian2 inadmissible")


ENTRY = st.sampled_from((0, 1, -1, 2, Q(1, 2), Q(-2, 3), Q(5, 7)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("abelian2", "abelian4", "abelian4_w0", "r_h3_dim4")),
       st.data())
def test_random_pairs(name, data):
    """Arbitrary (xi, b0), admissible or not, over the flat bases of the
    family sweep."""
    base = catalog.get(name).algebra
    n = base.dim
    xi = Matrix.from_rows([[data.draw(ENTRY) for _ in range(n)] for _ in range(n)])
    b0 = tuple(data.draw(ENTRY) for _ in range(n))
    assert_candidate_matches(base, xi, b0, name)


def test_dense_basis_catalog_towers(entries):
    """Every step of the reduction tower of every flat entry in its seeded
    dense bases, and the composed tower rebuilt from the zero algebra."""
    towers = 0
    for label, s in dense_bases(entries):
        if not s.is_flat:
            continue
        steps = reduction_tower(s)
        for k, step in enumerate(steps):
            # the split keeps the numerators of the base's bracket too
            assert_tensor_matches(step.base.algebra.bracket_tensor, step.base.algebra.table,
                                  f"{label} step {k}")
            assert_candidate_matches(step.base, step.pair.xi, step.pair.b0, f"{label} step {k}")
        stages = extension_tower(tower_pairs(steps))
        for k, (base, pair) in enumerate(zip(stages, tower_pairs(steps))):
            ref = fraction_build_extension_candidate(fresh(base), pair.xi, pair.b0)
            assert_extension_matches(stages[k + 1], ref, f"{label} stage {k}")
        towers += 1
    assert towers >= 30


def test_change_of_basis_and_canonical_product(entries):
    rng = random.Random("extension kernel")
    for label, s in [(name, e.algebra) for name, e in entries.items()] + dense_bases(entries):
        t = dense_change_of_basis(rng, s.dim) if s.dim else Matrix.zeros(0, 0)
        got = fresh(s).algebra.change_of_basis(t, tuple(f"z{k}" for k in range(s.dim)))
        ref = rational_lie_change_of_basis(fresh(s).algebra, t,
                                           tuple(f"z{k}" for k in range(s.dim)))
        assert got.basis_names == ref.basis_names, label
        assert_tensor_matches(got.bracket_tensor, ref.table, label)
        assert_tensor_matches(fresh(s).canonical_product,
                              rational_canonical_product(fresh(s)).table, label)


# ---------------------------------------------------------------------------
# the constructor

@st.composite
def integral_tensors(draw):
    """(dim, den, rows) with cells as increasing (k, num), zeros allowed."""
    n = draw(st.integers(0, 4))
    den = draw(st.integers(1, 60))
    num = st.integers(-12, 12) | st.just(0)
    rows = [[tuple((k, draw(num)) for k in range(n) if draw(st.booleans()))
             for _ in range(n)] for _ in range(n)]
    return n, den, rows


@settings(max_examples=120, deadline=None)
@given(integral_tensors(), st.integers(1, 40))
@example((0, 7, []), 3)
@example((2, 5, [[(), ((0, 0),)], [((1, 0), (0, 0)), ()]]), 6)
@example((3, 4, [[(), (), ()]] * 3), 1)
def test_from_integral_ignores_a_common_factor(case, k):
    n, den, rows = case
    got = ProductTensor.from_integral(n, den, rows)
    scaled = ProductTensor.from_integral(n, k * den, [[tuple((i, k * x) for i, x in cell)
                                                       for cell in row] for row in rows])
    assert scaled.table == got.table
    assert scaled.integral == got.integral
    # the seeded integral is the one the scalars derive, entries exact
    assert got.integral == ProductTensor(n, got.table).integral
    for a in range(n):
        for m in range(n):
            assert got.table[a][m] == tuple(
                sum((Q(x, den) for i, x in rows[a][m] if i == j), ZERO) for j in range(n))
    if not any(x for row in rows for cell in row for _, x in cell):
        assert got.integral[0] == 1 and got.is_zero()


def test_lie_from_integral_matches_from_sparse():
    brackets = {(0, 1): ((2, 3),), (0, 2): ((1, -2), (2, 4)), (1, 2): ()}
    got = LieAlgebra.from_integral(("a", "b", "c"), 6, brackets)
    ref = LieAlgebra.from_sparse(("a", "b", "c"), {
        (0, 1): {2: Q(1, 2)}, (0, 2): {1: Q(-1, 3), 2: Q(2, 3)}})
    assert got == ref
    assert got.bracket_tensor.integral == ProductTensor(3, ref.table).integral
    assert got.bracket_tensor.integral[0] == 6
    # the lower half is the negated upper half
    assert got.table[2][0] == (ZERO, Q(1, 3), Q(-2, 3))
    assert got.bracket_tensor.integral[1][2][0] == ((1, 2), (2, -4))


def test_lie_from_integral_rejects_lower_keys():
    with pytest.raises(ValueError):
        LieAlgebra.from_integral(("a", "b"), 1, {(1, 0): ((0, 1),)})


def test_shape_errors(entries):
    base = entries["abelian2"].algebra
    with pytest.raises(ValueError):
        build_extension_candidate(base, Matrix.zeros(3, 3), (0, 0, 0))
    with pytest.raises(ValueError):
        build_extension_candidate(base, Matrix.zeros(2, 2), (0,))
    with pytest.raises(ValueError):
        double_extend(base, AdmissiblePair(Matrix.zeros(3, 3), (0, 0, 0)))
