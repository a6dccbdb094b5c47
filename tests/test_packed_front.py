"""The packed front half of flatness against the loops it replaced.

The canonical product packs the columns of W^-1's numerators, the Jacobi
test packs the bracket, and the curvature loop packs each pair's whole
residual over (m, k) at slot m n + k.  Each is compared with its old body
in oracles.py (n4_canonical_product, int_sum_validate,
per_m_first_curvature_violation) on every catalog entry, the dense bases,
the sweep, the catalog algebras with their brackets scaled to wide
numerators, Jacobi-failing perturbations of g6_3 and Hypothesis inputs
with wide numerators; the structural report's packed claims are compared
with the reference report.  The n^2-slot packing is round-tripped at the
edge of its slots.
"""

from math import isqrt

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (int_sum_validate, n4_canonical_product,
                     per_m_first_curvature_violation, reference_structural_report)
from symplie.lie import LieAlgebra
from symplie.linalg import PackedCells, ProductTensor, dense, pack, unpack
from symplie.symplectic import (SkewForm, SymplecticLieAlgebra,
                                first_curvature_violation, structural_report)
from test_packed_kernels import (WIDE, edge, fresh, near, numerators, scaled,
                                 tensor_pairs, wide_tensors, zero_tensor)
from test_sparse_kernels import dense_bases

SCALES = (WIDE[0] + 1, -(WIDE[1] - 3))


def assert_front_matches(s, label=None, closed=True):
    """The canonical product, validate() and the curvature witness of a
    fresh copy of s equal the old loops; returns the witness.  Unless
    omega is closed for the bracket of s, the product is not
    Lie-admissible and only the loop itself is compared."""
    s = fresh(s)
    p = s.canonical_product
    assert p.integral == n4_canonical_product(fresh(s)).integral, label
    assert s.algebra.validate() == int_sum_validate(s.algebra), label
    bracket = s.algebra.bracket_tensor
    witness = per_m_first_curvature_violation(p, bracket)
    assert first_curvature_violation(p, bracket) == witness, label
    if closed:
        assert s.curvature_witness == witness, label
    # pairs that are not Lie-admissible
    for q, b in ((p, zero_tensor(s.dim)), (bracket, bracket), (p, p)):
        assert (first_curvature_violation(q, b)
                == per_m_first_curvature_violation(q, b)), label
    return witness


def with_bracket(s, bracket: ProductTensor, form=None) -> SymplecticLieAlgebra:
    """s with its bracket tensor replaced (and its form, if given); the
    result is not validated."""
    den, rows = bracket.integral
    n = s.dim
    alg = LieAlgebra.from_integral(s.algebra.basis_names, den, {
        (i, j): rows[i][j] for i in range(n) for j in range(i + 1, n)})
    return SymplecticLieAlgebra(alg, s.form if form is None else form)


# ---------------------------------------------------------------------------
# the documents of the workloads

def test_every_catalog_entry(entries):
    assert len(entries) == 13
    witnesses = {name: assert_front_matches(e.algebra, name) for name, e in entries.items()}
    assert {name: w for name, w in witnesses.items() if w is not None} == {"aff1": (0, 1)}


def test_dense_bases(entries):
    cases = dense_bases(entries)
    assert len(cases) == 36
    assert sum(assert_front_matches(s, label) is None for label, s in cases) == 33


def test_every_sweep_extension(family_sweep):
    count = 0
    for fam, points in family_sweep.items():
        for params, _, ext, _ in points:
            assert assert_front_matches(ext, (fam, params)) is None
            count += 1
    assert count == 439


def test_wide_catalog_brackets(entries):
    """A bracket times c is a Lie bracket, omega stays closed, the
    canonical product is c times the old one and the curvature c^2 times,
    so every claim of the report is unchanged; so is each claim when omega
    is scaled by c instead, which leaves the product as it is."""
    for name, e in entries.items():
        s = e.algebra
        want = structural_report(fresh(s)).claims
        for c in SCALES:
            wide = with_bracket(s, scaled(s.algebra.bracket_tensor, c))
            assert wide.algebra.bracket_tensor.max_numerator == (
                abs(c) * s.algebra.bracket_tensor.max_numerator), name
            assert (assert_front_matches(wide, name) is None) == (name != "aff1"), name
            assert wide.canonical_product == scaled(s.canonical_product, c), name
            assert structural_report(wide).claims == want, name
            form = SkewForm(s.form.matrix.scale(c))
            assert structural_report(SymplecticLieAlgebra(s.algebra, form)).claims == want


def perturbed_g6_3(entries, c=1):
    """g6_3 with e_k added to one [e_i, e_j] at a time, its bracket times c."""
    s = entries["g6_3"].algebra
    n = s.dim
    den, rows = s.algebra.bracket_tensor.integral
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                cells = [[dense(cell, n) for cell in row] for row in rows]
                cells[i][j][k] += den
                cells[j][i][k] -= den
                yield (i, j, k), with_bracket(s, ProductTensor.from_integral(n, den, [
                    [tuple((m, c * x) for m, x in enumerate(cell) if x) for cell in row]
                    for row in cells]))


def test_jacobi_failing_g6_3(entries):
    """Every perturbation that breaks Jacobi lists the same violations,
    residuals included, as the int_sum loop, at width 1 and wide."""
    failing = 0
    for c in (1, *SCALES):
        for label, s in perturbed_g6_3(entries, c):
            got = s.algebra.validate()
            assert got == int_sum_validate(s.algebra), (c, label)
            failing += bool(got)
            assert_front_matches(s, (c, label), closed=False)
    assert failing > 100


# ---------------------------------------------------------------------------
# Hypothesis inputs with wide, mixed-sign numerators

@st.composite
def wide_brackets(draw, n):
    """An antisymmetric bracket on Q^n, Jacobi or not."""
    den = draw(st.sampled_from((1, 3)) | near(WIDE[0]).map(abs))
    cells = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)):
                cell = [(k, draw(numerators)) for k in range(n)]
                cells[i, j] = tuple((k, x) for k, x in cell if x)
    return LieAlgebra.from_integral([f"e{k}" for k in range(n)], den, cells)


@st.composite
def wide_pairs(draw):
    """(bracket, nondegenerate skew form) on Q^n for n = 2 or 4."""
    n = draw(st.sampled_from((2, 4)))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gram[i][j] = draw(numerators)
            gram[j][i] = -gram[i][j]
    form = SkewForm.from_integral(draw(st.sampled_from((1, 2)) | near(WIDE[1]).map(abs)), gram)
    assume(form.is_nondegenerate())
    return SymplecticLieAlgebra(draw(wide_brackets(n)), form)


@settings(max_examples=150, deadline=None)
@given(wide_pairs())
def test_random_wide_front(s):
    """The product of any bracket and nondegenerate form, the Jacobi
    violations of any bracket, and the curvature of the pair."""
    p = s.canonical_product
    assert p.integral == n4_canonical_product(fresh(s)).integral
    assert s.algebra.validate() == int_sum_validate(s.algebra)
    bracket = s.algebra.bracket_tensor
    assert (first_curvature_violation(p, bracket)
            == per_m_first_curvature_violation(p, bracket))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(wide_brackets))
def test_random_wide_jacobi(algebra):
    assert algebra.validate() == int_sum_validate(algebra)


@settings(max_examples=200, deadline=None)
@given(tensor_pairs())
def test_random_wide_curvature(pair):
    p, bracket = pair
    assert (first_curvature_violation(p, bracket)
            == per_m_first_curvature_violation(p, bracket))


STD4 = SkewForm.from_integral(1, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


@settings(max_examples=60, deadline=None)
@given(wide_brackets(4), wide_tensors(4))
def test_random_wide_report(algebra, product):
    """The packed claims on [g,g]-perp against the reference report, with
    an arbitrary wide product counted as flat, so that they can fail."""
    def pair():
        s = SymplecticLieAlgebra(algebra, STD4)
        s.__dict__["canonical_product"] = product
        s.__dict__["curvature_witness"] = None
        return s
    assert structural_report(pair()) == reference_structural_report(pair())


# ---------------------------------------------------------------------------
# n^2 slots at the edge

def outer_round_trips(y, z, bound) -> bool:
    """y packed at stride n bits times z packed at bits unpacks, n^2 slots
    wide, to y_m z_k at slot m n + k; so does one pack of the n^2 values."""
    n = len(z)
    bits = PackedCells(zero_tensor(0), bound).bits
    want = [a * b for a in y for b in z]
    product = pack(enumerate(y), n * bits) * pack(enumerate(z), bits)
    return (unpack(product, n * n, bits) == want
            and unpack(pack(enumerate(want), bits), n * n, bits) == want)


BOUNDS = (1, 2, 3, 4, 7, 8, 2**64 - 1, 2**64, 2**200 + 1)


def test_n2_slots_at_the_edge():
    for bound, top in ((b, t) for b in BOUNDS for t in (b, edge(b))):
        for n in (1, 2, 3, 6):
            signs = [(1, -1, 0)[k % 3] for k in range(n)]
            assert outer_round_trips([top * s for s in signs], [1] * n, bound), (bound, n)
            assert outer_round_trips([-1] * n, [top * s for s in signs[::-1]], bound)
            values = [(top, -top, 0)[k % 3] for k in range(n * n)]
            bits = PackedCells(zero_tensor(0), bound).bits
            assert unpack(pack(enumerate(values), bits), n * n, bits) == values


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 2**210) | st.sampled_from(BOUNDS), st.data())
def test_n2_slots_random(n, bound, data):
    """Any y, z whose products are within the bound, and a sum of n such
    products, the packing the curvature residual is made of."""
    # |y_m z_k| <= bound / n, so a sum of n of them stays within the bound
    root = isqrt(bound // n)
    small = st.sampled_from((root, -root)) | st.integers(-root, root)
    ys = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n))
    zs = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n))
    assert all(outer_round_trips(y, z, bound) for y, z in zip(ys, zs))
    bits = PackedCells(zero_tensor(0), bound).bits
    total = sum(pack(enumerate(y), n * bits) * pack(enumerate(z), bits)
                for y, z in zip(ys, zs))
    assert unpack(total, n * n, bits) == [sum(y[m] * z[k] for y, z in zip(ys, zs))
                                          for m in range(n) for k in range(n)]
