"""Classification by containment, and the bracket built canonical in one pass.

A series term that lies in the center is followed by zero with no
bracket span, dim(Z meet D) is read off a containment when Z and D are
nested, the derived subspace eliminates only the nonzero bracket cells,
and LieAlgebra.from_integral builds its canonical tensor in one pass.
Each is compared with the body it replaced (``sum_fingerprint``,
``span_*_series``, ``all_cells_derived_subspace`` and the ``*_from_integral``
oracles) on every catalog entry, dense basis and sweep extension, on
Jacobi-failing perturbations of g6_3 and on Hypothesis brackets with
wide numerators; a spy on ``linalg._rref_rows`` pins the eliminations of
one classification per sweep class and of classify_subspace.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (all_cells_derived_subspace, generator_product_from_integral,
                     n4_canonical_product, span_derived_series, span_lower_central_series,
                     sum_fingerprint, two_pass_lie_from_integral)
from symplie import catalog, linalg
from symplie.catalog import classify_upto6, fingerprint, wedge_form
from symplie.documents import algebra_to_document, document_to_algebra
from symplie.extension import double_extend, reduction_tower
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, ProductTensor, Subspace, int_inverse, unit_vector
from symplie.symplectic import SubspaceClass, classify_subspace
from test_packed_front import SCALES, perturbed_g6_3, wide_brackets
from test_packed_kernels import near, numerators
from test_sparse_kernels import PLAIN, dense_bases


def fresh(algebra) -> LieAlgebra:
    """A copy of the bracket with no cached invariant."""
    return LieAlgebra._of(algebra.basis_names, algebra.bracket_tensor)


def assert_classification_matches(algebra, label=None):
    """Fingerprint, both series and the derived subspace of a fresh copy
    equal the replaced bodies, run on another fresh copy."""
    got, ref = fresh(algebra), fresh(algebra)
    assert got.derived_subspace() == all_cells_derived_subspace(ref), label
    assert got.lower_central_series() == span_lower_central_series(ref), label
    assert got.derived_series() == span_derived_series(ref), label
    assert fingerprint(fresh(algebra)) == sum_fingerprint(fresh(algebra)), label


# ---------------------------------------------------------------------------
# every algebra the workloads see

def test_catalog_entries(entries):
    assert len(entries) == 13 and "aff1" in entries
    for name, entry in entries.items():
        assert_classification_matches(entry.algebra.algebra, name)


def test_dense_bases(entries):
    bases = dense_bases(entries)
    assert len(bases) == 36
    for label, s in bases:
        assert_classification_matches(s.algebra, label)


def test_sweep_extensions(family_sweep):
    exts = [ext for points in family_sweep.values() for _, _, ext, _ in points]
    assert len(exts) == 439
    for ext in exts:
        assert_classification_matches(ext.algebra)


def test_perturbed_g6_3(entries):
    """Brackets that break Jacobi, at width 1 and wide: the series of an
    antisymmetric bracket still decrease, and a central term still ends
    them."""
    failing = 0
    for c in (1, *SCALES):
        for label, s in perturbed_g6_3(entries, c):
            failing += bool(s.algebra.validate())
            assert_classification_matches(s.algebra, (c, label))
    assert failing > 100


def test_plain_lie_algebras():
    for name, g in PLAIN.items():
        assert_classification_matches(g, name)
    for g in NON_NILPOTENT:
        assert not g.validate()
        assert_classification_matches(g)
        assert fresh(g).lower_central_series().nilpotency_class is None


# ---------------------------------------------------------------------------
# Hypothesis brackets with wide numerators

# Lie algebras that are not nilpotent: sl2 is perfect, aff1 and r3 (ad_z
# diagonal on the abelian ideal spanned by x and y) are solvable
NON_NILPOTENT = (PLAIN["sl2"], PLAIN["aff1"],
                 LieAlgebra.from_sparse(("x", "y", "z"), {(0, 2): {0: -1}, (1, 2): {1: -2}}))


@st.composite
def lie_brackets(draw):
    """A Lie algebra of NON_NILPOTENT, or the direct sum of two, in a
    basis of wide int columns."""
    a = draw(st.sampled_from(NON_NILPOTENT))
    if draw(st.booleans()):
        b = draw(st.sampled_from(NON_NILPOTENT))
        n, m = a.dim, b.dim
        (aden, arows), (bden, brows) = a.bracket_tensor.integral, b.bracket_tensor.integral
        cells = {(i, j): tuple((k, x * bden) for k, x in arows[i][j])
                 for i in range(n) for j in range(i + 1, n)}
        cells.update({(n + i, n + j): tuple((n + k, x * aden) for k, x in brows[i][j])
                      for i in range(m) for j in range(i + 1, m)})
        a = LieAlgebra.from_integral([f"e{k}" for k in range(n + m)], aden * bden, cells)
    n = a.dim
    rows = [[draw(numerators) for _ in range(n)] for _ in range(n)]
    try:
        int_inverse(rows)
    except linalg.SingularMatrixError:
        assume(False)
    return a.change_of_basis(Matrix.from_integral(1, rows))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(wide_brackets))
def test_random_antisymmetric_brackets(algebra):
    assert_classification_matches(algebra)


@settings(max_examples=60, deadline=None)
@given(lie_brackets())
def test_random_non_nilpotent_lie_algebras(algebra):
    assert not algebra.validate()
    assert_classification_matches(algebra)
    assert fresh(algebra).lower_central_series().nilpotency_class is None


# ---------------------------------------------------------------------------
# the integral constructors

@st.composite
def integral_halves(draw):
    """(n, den, brackets): the i < j half of a bracket, each cell a list or
    a tuple of (k, num) with increasing k, zero numerators among them, and
    every number times a common factor, so the gcd is often above 1."""
    n = draw(st.integers(0, 5))
    factor = draw(st.sampled_from((1, 1, 2, 6)) | near(2 ** 64).map(abs))
    den = factor * draw(st.sampled_from((1, 3)) | near(2 ** 64).map(abs))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)):
                ks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
                cell = [(k, factor * draw(numerators)) for k in sorted(ks)]
                brackets[i, j] = draw(st.sampled_from((list, tuple)))(cell)
    return n, den, brackets


@settings(max_examples=300, deadline=None)
@given(integral_halves())
def test_lie_from_integral_matches_two_passes(case):
    n, den, brackets = case
    names = [f"e{k}" for k in range(n)]
    got = LieAlgebra.from_integral(names, den, brackets)
    want = two_pass_lie_from_integral(names, den, brackets)
    assert got == want and hash(got) == hash(want)
    assert got.bracket_tensor.integral == want.bracket_tensor.integral
    # the full grid of the given cells, zeros and common factor kept, as
    # list rows with the cells as given, and as tuples throughout
    rows = [[()] * n for _ in range(n)]
    for (i, j), cell in brackets.items():
        rows[i][j], rows[j][i] = cell, [(k, -x) for k, x in cell]
    for grid in (rows, tuple(tuple(map(tuple, row)) for row in rows)):
        got = ProductTensor.from_integral(n, den, grid)
        assert got.integral == generator_product_from_integral(n, den, grid).integral


def test_from_integral_edge_cases():
    zeros = LieAlgebra.from_integral(("a", "b"), 4, {(0, 1): ((0, 0), (1, 0))})
    assert zeros.bracket_tensor.integral == (1, (((), ()), ((), ())))
    halved = LieAlgebra.from_integral(("a", "b"), 4, {(0, 1): [(0, 2), (1, 0)]})
    assert halved.bracket_tensor.integral == (2, (((), ((0, 1),)), (((0, -1),), ())))
    cell = ((0, 3), (1, -5))
    kept = ProductTensor.from_integral(2, 2, [[cell, ()], [(), ()]])
    assert kept.integral == (2, ((cell, ()), ((), ())))
    scaled = ProductTensor.from_integral(2, 6, [[((0, 3), (1, -9)), []], [[], ()]])
    assert scaled.integral == (2, ((((0, 1), (1, -3)), ()), ((), ())))
    with pytest.raises(ValueError):
        LieAlgebra.from_integral(("a", "b"), 1, {(1, 0): ((0, 1),)})


@pytest.fixture
def checked_from_integral(monkeypatch):
    """Every LieAlgebra.from_integral and ProductTensor.from_integral call
    is compared with its replaced body; returns the per-name call count."""
    calls = Counter()

    def check(cls, name, new, old):
        def wrapper(_, *args):
            got = new.__func__(cls, *args)
            want = old(*args)
            assert got.bracket_tensor == want.bracket_tensor if name == "lie" else got == want
            calls[name] += 1
            return got
        monkeypatch.setattr(cls, "from_integral", classmethod(wrapper))

    check(LieAlgebra, "lie", LieAlgebra.__dict__["from_integral"], two_pass_lie_from_integral)
    check(ProductTensor, "product", ProductTensor.__dict__["from_integral"],
          generator_product_from_integral)
    return calls


def test_from_integral_on_the_workloads(entries, checked_from_integral):
    """The sweep's extensions, documents, changes of basis and splits.  The
    canonical product of each is built canonical without from_integral and
    compared with n4_canonical_product, which goes through it."""
    for fam in catalog.family_names():
        base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
        for params in catalog.family_parameter_grid(fam):
            ext = double_extend(base, catalog.admissible_family(fam, params)[1])
            assert ext.canonical_product == n4_canonical_product(ext)
    for _, s in dense_bases(entries):
        doc = document_to_algebra(algebra_to_document(s))[0]
        assert doc.canonical_product == n4_canonical_product(doc)
        if s.is_flat:
            reduction_tower(s)
    assert checked_from_integral["lie"] > 439 + 36
    assert checked_from_integral["product"] > 439 + 36


# ---------------------------------------------------------------------------
# eliminations

def test_eliminations_per_sweep_class(family_sweep, monkeypatch):
    """classify_upto6 on a fresh sweep extension: the center and D only
    where D lies in the center, and one span each for C^3 and [D, D] in
    g6_3, where C^3 is central and Z lies in D."""
    calls = []
    original = linalg._rref_rows

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    tally = Counter()
    for points in family_sweep.values():
        for _, _, ext, cls in points:
            alg = fresh(ext.algebra)
            calls.clear()
            assert classify_upto6(alg) == cls
            central = alg.derived_subspace().is_subspace_of(alg.center())
            tally[cls, central, len(calls)] += 1
    assert tally == {("R^3xH3", True, 2): 47, ("R^4", True, 2): 1, ("R^6", True, 2): 1,
                     ("RxH3", True, 2): 119, ("g6_1", True, 2): 150, ("g6_2", True, 2): 65,
                     ("g6_3", False, 4): 56}
    assert sum(n for (_, central, _), n in tally.items() if central) == 383


def test_classify_subspace_eliminations(monkeypatch):
    """The perp alone for a lagrangian or totally isotropic subspace; the
    meet only for the other two kinds."""
    form = wedge_form(4, [(1, 2, 1), (3, 4, 1)])
    e = [unit_vector(4, i) for i in range(4)]
    cases = [([e[0], e[2]], SubspaceClass.LAGRANGIAN, 1),
             ([e[0]], SubspaceClass.TOTALLY_ISOTROPIC, 1),
             ([e[0], e[1], e[2]], SubspaceClass.DEGENERATE, 2),
             ([e[0], e[1]], SubspaceClass.NONDEGENERATE, 2)]
    subspaces = [Subspace.span(4, gens) for gens, _, _ in cases]
    calls = []
    original = linalg._rref_rows

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    for f, (_, kind, eliminations) in zip(subspaces, cases):
        calls.clear()
        assert classify_subspace(form, f) is kind
        assert len(calls) == eliminations
