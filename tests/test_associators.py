"""The cached associator tensor against the dense formulations it replaced.

ProductTensor.associators holds every (e_i o e_j) o e_k - e_i o (e_j o e_k),
summed over the nonzero product entries.  left_symmetry_violations,
is_associative and the right-form criterion of flatness read it.  Each
is compared with its reference in oracles.py, which takes two full
products per triple and n^2 Matrix identities, on fresh objects.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import References
from oracles import (reference_associators, reference_is_associative,
                     reference_left_symmetry_violations)
from symplie.linalg import Matrix, ProductTensor, unit_vector
from symplie.rationals import ZERO, Q
from symplie.symplectic import SymplecticLieAlgebra, structural_report
from test_flatness import perturbed_candidates
from test_sparse_kernels import dense_bases


def assert_product_matches(p: ProductTensor, reference: tuple, label):
    a = p.associators
    assert p.associators is a, label
    assert a == reference, label
    assert p.left_symmetry_violations() == reference_left_symmetry_violations(reference), label
    assert p.is_associative() == reference_is_associative(reference), label


def assert_flatness_matches(s, label, ref=None) -> bool:
    ref = ref or References(s)
    fresh = SymplecticLieAlgebra(s.algebra, s.form)
    checks = fresh.flatness
    assert checks == ref.flatness, label
    assert_product_matches(fresh.canonical_product, ref.associators, label)
    return checks.is_flat


def test_every_catalog_entry(entries):
    assert len(entries) == 13
    flags = {name: assert_flatness_matches(e.algebra, name)
             for name, e in entries.items()}
    assert [name for name, flat in flags.items() if not flat] == ["aff1"]
    associative = {e.algebra.canonical_product.is_associative()
                   for e in entries.values()}
    assert associative == {True, False}


def test_every_sweep_extension(family_sweep, sweep_references):
    count = 0
    for fam, points in family_sweep.items():
        for (params, _, ext, _), ref in zip(points, sweep_references[fam], strict=True):
            assert assert_flatness_matches(ext, (fam, params), ref)
            count += 1
    assert count == 439


def test_perturbed_extensions():
    cases = perturbed_candidates()
    flags = [assert_flatness_matches(s, label) for label, s in cases]
    assert len(flags) == 137
    assert flags.count(False) == 41


def test_dense_bases(entries, dense_references):
    moved = dense_bases(entries)
    assert len(moved) == 36
    for label, s in moved:
        assert (assert_flatness_matches(s, label, dense_references[label])
                == (not label.startswith("aff1")))


# random products, generally not the canonical product of any algebra
coefficients = st.sampled_from((0, 0, 0, -2, -1, 1, 2))


@st.composite
def product_tensors(draw):
    n = draw(st.integers(0, 4))
    table = tuple(tuple(tuple(Q(draw(coefficients)) for _ in range(n))
                        for _ in range(n)) for _ in range(n))
    return ProductTensor(n, table)


@given(product_tensors())
@settings(max_examples=150, deadline=None)
def test_random_products(p):
    assert_product_matches(p, reference_associators(p), p.table)


def test_right_traces(entries):
    """The two trace claims of structural_report, recomputed from the
    dense right multiplications."""
    cases = [(name, e.algebra) for name, e in entries.items()]
    cases += dense_bases(entries, seeds=1)
    for label, s in cases:
        fresh = SymplecticLieAlgebra(s.algebra, s.form)
        report = structural_report(fresh)
        p, alg, n = fresh.canonical_product, fresh.algebra, fresh.dim
        traces = [p.right(unit_vector(n, i)).trace() for i in range(n)]
        identity = report.get("right_trace_identity")
        assert identity.holds == all(
            t == -alg.ad(unit_vector(n, i)).trace() for i, t in enumerate(traces))
        assert identity.detail == "tr R_u = -tr ad_u"
        complete = all(t == ZERO for t in traces)
        unimodular = alg.is_unimodular()
        claim = report.get("flat_complete_iff_unimodular")
        assert claim.detail == f"complete={complete}, unimodular={unimodular}", label
        assert claim.holds == (complete == unimodular if fresh.is_flat else None), label


matrix_entries = st.sampled_from((0, 0, 0, -2, -1, Q(1, 2), 1, 2))


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_arithmetic_entrywise(rows, cols, data):
    grid = st.lists(st.lists(matrix_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)
    a = [[Q(x) for x in r] for r in data.draw(grid)]
    b = [[Q(x) for x in r] for r in data.draw(grid)]
    c = Q(data.draw(matrix_entries))
    ma = Matrix(rows, cols, tuple(map(tuple, a)))
    mb = Matrix(rows, cols, tuple(map(tuple, b)))
    for got, op in ((ma + mb, lambda x, y: x + y), (ma - mb, lambda x, y: x - y),
                    (ma.scale(c), lambda x, _: c * x)):
        assert got.shape == (rows, cols)
        assert got.entries == tuple(tuple(op(x, y) for x, y in zip(r1, r2))
                                    for r1, r2 in zip(a, b))
