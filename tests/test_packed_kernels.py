"""The packed flatness kernels against the unpacked int loops they replaced.

The curvature loop, the associator tensor and the Lie-admissibility test
pack each product cell into one int (linalg.PackedCells) and test or
compare packed residuals.  Each is compared with its ``int_sum_*`` loop in
oracles.py on every catalog entry, the dense bases, the sweep, the
catalog products scaled to wide numerators, and Hypothesis tensors with
numerators near 2^64 and 2^200; the packing itself is round-tripped at
the edge of its slots.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (int_sum_associators, int_sum_first_curvature_violation,
                     int_sum_lie_admissibility_failure)
from symplie import cli
from symplie.lie import LieAlgebra
from symplie.linalg import PackedCells, ProductTensor, dense
from symplie.rationals import Q
from symplie.symplectic import (SkewForm, SymplecticLieAlgebra,
                                first_curvature_violation,
                                lie_admissibility_failure)
from test_sparse_kernels import dense_bases

WIDE = (2**64, 2**200)


def fresh(s) -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(LieAlgebra(s.algebra.basis_names, s.algebra.table),
                                SkewForm(s.form.matrix))


def left_symmetry(a: tuple) -> tuple:
    n = len(a)
    return tuple((i, j, k) for i in range(n) for j in range(i + 1, n)
                 for k in range(n) if a[i][j][k] != a[j][i][k])


def zero_tensor(n: int) -> ProductTensor:
    return ProductTensor.from_integral(n, 1, [[()] * n for _ in range(n)])


def assert_pair_matches(product: ProductTensor, bracket: ProductTensor, label=None):
    """Admissibility and the curvature witness of one (product, bracket)
    pair equal the int_sum loops; the pair need not be admissible."""
    assert (lie_admissibility_failure(product, bracket)
            == int_sum_lie_admissibility_failure(product, bracket)), label
    assert (first_curvature_violation(product, bracket.table)
            == int_sum_first_curvature_violation(product, bracket.integral)), label


def assert_associators_match(p: ProductTensor, label=None):
    a = int_sum_associators(p)
    assert p.left_symmetry_violations() == left_symmetry(a), label
    assert p.int_associators == a, label
    assert p.is_associative() == (not any(any(v) for plane in a for row in plane
                                          for v in row)), label
    den = p.integral[0]
    assert p.associators == tuple(tuple(tuple(tuple(Q(x, den * den) for x in v) for v in row)
                                        for row in plane) for plane in a), label


def assert_kernels_match(s, label=None) -> tuple:
    """Every packed kernel on a fresh copy of s equals its int_sum loop;
    returns the curvature witness."""
    s = fresh(s)
    p, bracket = s.canonical_product, s.algebra.bracket_tensor
    witness = int_sum_first_curvature_violation(p, bracket.integral)
    assert s.curvature_witness == witness, label
    assert s.flatness.witness == witness, label
    assert lie_admissibility_failure(p, bracket) is None, label
    assert_pair_matches(p, bracket, label)
    # pairs that are not Lie-admissible: the product against the zero
    # bracket, and the bracket against itself
    assert_pair_matches(p, zero_tensor(s.dim), label)
    assert_pair_matches(bracket, bracket, label)
    assert_associators_match(p, label)
    return witness


def scaled(t: ProductTensor, c: int) -> ProductTensor:
    den, rows = t.integral
    return ProductTensor.from_integral(t.dim, den, [[tuple((k, c * x) for k, x in cell)
                                                     for cell in row] for row in rows])


# ---------------------------------------------------------------------------
# the documents of the workloads

def test_every_catalog_entry(entries):
    assert len(entries) == 13
    witnesses = {name: assert_kernels_match(e.algebra, name) for name, e in entries.items()}
    assert {name: w for name, w in witnesses.items() if w is not None} == {"aff1": (0, 1)}


def test_dense_bases(entries):
    cases = dense_bases(entries)
    assert len(cases) == 36
    flat = sum(assert_kernels_match(s, label) is None for label, s in cases)
    assert flat == 33


def test_every_sweep_extension(family_sweep):
    count = 0
    for fam, points in family_sweep.items():
        for params, _, ext, _ in points:
            assert assert_kernels_match(ext, (fam, params)) is None
            count += 1
    assert count == 439


def test_wide_catalog_products(entries):
    """c o and c [,] have curvature c^2 R, so flat stays flat with every
    numerator multiplied by c near 2^64 or 2^200."""
    for name, e in entries.items():
        p, bracket = e.algebra.canonical_product, e.algebra.algebra.bracket_tensor
        for c in (WIDE[0] + 1, -(WIDE[1] - 3)):
            wp, wb = scaled(p, c), scaled(bracket, c)
            assert wp.max_numerator == abs(c) * p.max_numerator, name
            assert_pair_matches(wp, wb, name)
            assert lie_admissibility_failure(wp, wb) is None, name
            assert (first_curvature_violation(wp, wb.table) is None) == (name != "aff1"), name
            assert_associators_match(wp, name)
            assert wp.left_symmetry_violations() == p.left_symmetry_violations(), name


def test_verify_path_stays_in_ints(entries):
    """The kernels read the integral only: flatness derives no scalar
    table and no scalar associators, and every packed cell is an int."""
    for name, e in entries.items():
        s = fresh(e.algebra)
        s.flatness
        p = s.canonical_product
        assert "table" not in p.__dict__ and "associators" not in p.__dict__, name
        packing, a = p.packed_associators
        assert all(type(x) is int for row in packing.cells for x in row), name
        assert all(type(x) is int for plane in a for row in plane for x in row), name


# ---------------------------------------------------------------------------
# Hypothesis tensors with wide, mixed-sign numerators and zero cells

def near(base):
    return st.builds(lambda sign, d: sign * (base + d), st.sampled_from((1, -1)),
                     st.integers(-3, 3))


numerators = st.integers(-3, 3) | near(WIDE[0]) | near(WIDE[1])


@st.composite
def wide_tensors(draw, n):
    den = draw(st.sampled_from((1, 2, 3, 7)) | near(WIDE[0]).map(abs))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.integers(0, 3)) == 0:
                row.append(())
                continue
            cell = [(k, draw(numerators)) for k in range(n)]
            row.append(tuple((k, x) for k, x in cell if x))
        rows.append(row)
    return ProductTensor.from_integral(n, den, rows)


@st.composite
def tensor_pairs(draw):
    """(product, bracket) of one dimension 0-4; the bracket is drawn on
    its own, the product's commutator or zero."""
    n = draw(st.integers(0, 4))
    p = draw(wide_tensors(n))
    kind = draw(st.sampled_from(("drawn", "drawn", "commutator", "zero")))
    if kind == "drawn":
        return p, draw(wide_tensors(n))
    if kind == "zero":
        return p, zero_tensor(n)
    den, rows = p.integral
    comm = [[tuple((k, x) for k, x in enumerate(
        a - b for a, b in zip(dense(rows[i][j], n), dense(rows[j][i], n))) if x)
        for j in range(n)] for i in range(n)]
    return p, ProductTensor.from_integral(n, den, comm)


@settings(max_examples=200, deadline=None)
@given(tensor_pairs())
def test_random_wide_pairs(pair):
    p, bracket = pair
    assert_pair_matches(p, bracket)
    assert_associators_match(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), st.data())
def test_dimensions_zero_and_one(n, data):
    p = data.draw(wide_tensors(n))
    assert lie_admissibility_failure(p, p) is None
    assert first_curvature_violation(p, p.table) is None
    assert p.int_associators == int_sum_associators(p)
    assert p.left_symmetry_violations() == ()
    assert p.is_associative()


# ---------------------------------------------------------------------------
# the packing at the edge of its slots

def edge(bound: int) -> int:
    """The largest magnitude a slot of the width for bound holds."""
    return (1 << (PackedCells(zero_tensor(0), bound).bits - 1)) - 1


def packing_round_trips(values, n, bound) -> bool:
    """Pack a dim-n tensor whose n^3 numerators are values, and read
    each cell back."""
    it = iter(values)
    rows = [[tuple((k, x) for k in range(n) if (x := next(it))) for _ in range(n)]
            for _ in range(n)]
    packing = PackedCells(ProductTensor.from_integral(n, 1, rows), bound)
    return all(packing.unpack(packing.cells[a][m]) == tuple(dense(rows[a][m], n))
               for a in range(n) for m in range(n))


BOUNDS = (0, 1, 2, 3, 4, 7, 8, 2**64 - 1, 2**64, 2**200 + 1)


def test_round_trip_extremes():
    for bound in BOUNDS:
        assert edge(bound) >= bound
        for top in (bound, edge(bound)):
            for n in (1, 2, 3):
                values = [(top, -top, 0)[k % 3] for k in range(n ** 3)]
                assert packing_round_trips(values, n, bound), (bound, top, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**210) | st.sampled_from(BOUNDS), st.data())
def test_round_trip_at_the_slot_edge(n, bound, data):
    for top in (bound, edge(bound)):
        values = data.draw(st.lists(st.sampled_from((top, -top, 0)) | st.integers(-top, top),
                                    min_size=n ** 3, max_size=n ** 3))
        assert packing_round_trips(values, n, bound)


def test_packed_zero_test_and_equality():
    """Distinct vectors within the bound pack to distinct ints; in
    particular a nonzero one never packs to 0."""
    bound = 5
    bits = PackedCells(zero_tensor(0), bound).bits
    seen = {}
    for x0 in range(-bound, bound + 1):
        for x1 in range(-bound, bound + 1):
            packed = x0 + (x1 << bits)
            assert packed not in seen
            seen[packed] = (x0, x1)
    assert seen[0] == (0, 0)


def test_cli_witness(capsys):
    """verify prints the aff1 witness and exits 2, as before packing."""
    rc = cli.main(["verify", "--catalog", "aff1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert ("flat: no\n  curvature_vanishes: no\n  right_multiplications_match: no\n"
            "  left_symmetric: no\n  first_violation_at: (0, 1)\n") in out
