"""structural_report over the integer kernel against its exact-scalar
formulation.

Every claim of structural_report is an int contraction of the cached
integral product, bracket and Gram rows.  reference_structural_report in
oracles.py is the formulation it replaced: dense ad, L and R matrices,
the adjoint W^-1 ad^T W, and a full product plus Subspace.contains per
membership test.  The two must agree field by field, every Claim's name,
applicability, verdict and detail included, on fresh objects.
"""

import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from oracles import reference_ideal_perp_rules, reference_structural_report
from symplie import catalog
from symplie.documents import algebra_to_document, document_to_algebra
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, ProductTensor, Subspace, unit_vector
from symplie.rationals import Q
from symplie.symplectic import (SkewForm, SymplecticLieAlgebra,
                                _ideal_perp_rules, structural_report)

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "output_digest", ROOT / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def fresh(s) -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(s.algebra, s.form)


def assert_report_matches(s, label):
    got = structural_report(fresh(s))
    want = reference_structural_report(fresh(s))
    assert [c.name for c in got.claims] == [c.name for c in want.claims], label
    for a, b in zip(got.claims, want.claims):
        assert a == b, (label, a, b)
    assert got == want, label


def test_every_catalog_entry(entries):
    assert "aff1" in entries
    for name, entry in entries.items():
        assert_report_matches(entry.algebra, name)


def digest_dense_bases(names=None):
    """The dense bases of scripts/output_digest.py: DENSE per catalog entry
    of dim >= 2 (all entries unless names are given), from the same seeds."""
    out = []
    for name in names or catalog.names():
        doc = json.loads(json.dumps(algebra_to_document(catalog.get(name).algebra)))
        if doc["dim"] < 2:
            continue
        rng = random.Random(f"output digest {name}")
        for k in range(output_digest.DENSE):
            s, _ = document_to_algebra(output_digest.dense_document(doc, rng))
            out.append((f"{name}.dense{k}", s))
    return out


def test_output_digest_dense_bases():
    cases = digest_dense_bases()
    assert len(cases) == 12 * output_digest.DENSE
    for label, s in cases:
        assert_report_matches(s, label)


def test_sweep_sample(family_sweep):
    points = [(f"{fam} {params}", ext) for fam, rows in family_sweep.items()
              for params, _, ext, _ in rows]
    assert len(points) == 439
    for label, ext in points[::15]:
        assert_report_matches(ext, label)


def test_no_dense_operators(entries, monkeypatch):
    """The report builds no full product, ad matrix or adjoint."""
    cases = [fresh(entries[name].algebra) for name in ("g6_3", "aff1")]
    cases += [fresh(s) for _, s in digest_dense_bases(["g6_3"])]

    def refuse(*args):
        raise AssertionError("dense operator built")

    for name in ("apply", "left", "right"):
        monkeypatch.setattr(ProductTensor, name, refuse)
    monkeypatch.setattr(LieAlgebra, "ad", refuse)
    monkeypatch.setattr(SkewForm, "adjoint_map", refuse)
    for s in cases:
        structural_report(s)


# ---------------------------------------------------------------------------
# the ideal/perp rules on subspaces that are not ideals

def random_subspace(rng, n):
    k = rng.randint(1, n - 1)
    gens = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(k)]
    return Subspace.span(n, gens)


def test_ideal_rules_catalog_subspaces(entries):
    rng = random.Random("ideal perp rules")
    verdicts = Counter()
    for name, entry in entries.items():
        s = entry.algebra
        if s.dim < 2:
            continue
        for _ in range(12):
            f = random_subspace(rng, s.dim)
            got = _ideal_perp_rules(fresh(s), f)
            assert got == reference_ideal_perp_rules(fresh(s), f), (name, f)
            verdicts[got] += 1
    assert verdicts[(True, "")] > 0
    assert verdicts[(False, "Iperp o I escapes I")] > 0
    assert verdicts[(False, "I o Iperp escapes I")] > 0


STD4 = SkewForm(Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, 1], [0, 0, -1, 0]]))


def with_product(bracket: dict, product: ProductTensor) -> SymplecticLieAlgebra:
    """A pair whose canonical product is replaced by an arbitrary one and
    that counts as flat; the bracket need not satisfy Jacobi.  The report
    and its helpers read only the tables, so they must still agree with
    the reference, and claims that are theorems on real input can fail."""
    s = SymplecticLieAlgebra(LieAlgebra.from_sparse(("a", "b", "c", "d"), bracket), STD4)
    s.__dict__["canonical_product"] = product
    s.__dict__["curvature_witness"] = None
    return s


def random_tables(rng):
    """A sparse random bracket and product on Q^4."""
    def entry():
        return {k: rng.choice((1, -1, Q(1, 2)))
                for k in rng.sample(range(4), rng.randint(1, 2))}

    bracket = {(i, j): entry() for i in range(4) for j in range(i + 1, 4)
               if rng.random() < 0.3}
    product = ProductTensor.from_sparse(
        4, {(i, j): entry() for i in range(4) for j in range(4) if rng.random() < 0.15})
    return bracket, product


def test_random_tables_full_report():
    """Every claim but one both holds and fails somewhere in the sample,
    and the report matches the reference on each."""
    rng = random.Random("random tables report")
    verdicts = {}
    for _ in range(100):
        bracket, product = random_tables(rng)
        got = structural_report(with_product(bracket, product))
        want = reference_structural_report(with_product(bracket, product))
        assert got == want, (bracket, product.table)
        for c in got.claims:
            verdicts.setdefault(c.name, set()).add(c.holds)
    assert len(verdicts) == 21
    for name, seen in verdicts.items():
        if name != "flat_unimodular_solvable":
            assert {True, False} <= seen, name


def test_ideal_rules_every_branch():
    """I = span(e1) has Iperp = span(e1, e3, e4); e3 o e4 or [e3, e4]
    leaving Iperp reaches the last two failures, which products of a
    symplectic Lie algebra on random subspaces almost never do."""
    line = Subspace.span(4, [unit_vector(4, 0)])
    escapes = with_product({}, ProductTensor.from_sparse(4, {(2, 3): {1: 1}}))
    bracket = with_product({(2, 3): {1: 1}}, ProductTensor.from_sparse(4, {(3, 2): {1: 1}}))
    cases = [(escapes, (False, "Iperp o Iperp escapes Iperp")),
             (bracket, (False, "Iperp is not a Lie subalgebra")),
             (with_product({}, ProductTensor.from_sparse(4, {(2, 0): {1: 1}})),
              (False, "Iperp o I escapes I")),
             (with_product({}, ProductTensor.from_sparse(4, {(0, 2): {1: 1}})),
              (False, "I o Iperp escapes I")),
             (with_product({}, ProductTensor.from_sparse(4, {(2, 3): {0: 1}})),
              (True, ""))]
    for s, want in cases:
        assert reference_ideal_perp_rules(s, line) == want
        assert _ideal_perp_rules(s, line) == want


@pytest.mark.parametrize("seed", range(3))
def test_ideal_rules_random_tables(seed):
    rng = random.Random(f"random tables {seed}")
    verdicts = Counter()
    for _ in range(60):
        bracket, product = random_tables(rng)
        s = with_product(bracket, product)
        f = random_subspace(rng, 4)
        got = _ideal_perp_rules(s, f)
        assert got == reference_ideal_perp_rules(s, f), (bracket, product.table, f)
        verdicts[got[1]] += 1
    assert len(verdicts) >= 3, verdicts
