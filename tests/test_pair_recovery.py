"""The integer split against the scalar split it replaced.

inverse_double_extend builds e, ebar, the perp basis, T and the adapted
algebra over int rows, and reads the pair off two slices of the adapted
omega-brackets instead of the adapted canonical product.  Each step is
compared with fraction_inverse_double_extend in oracles.py on fresh
objects, over the catalog, the dense bases, every central direction of
the center bases and random invertible bases; the checks that certify a
split are shown to still fire.  Over the same random bases, the
fingerprint, the class and the structural report are shown not to
depend on the basis.
"""

from functools import cached_property

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fraction_inverse_double_extend
from symplie import catalog, extension
from symplie.catalog import classify_upto6, fingerprint
from symplie.extension import (AdmissiblePair, ExtensionInvariantError, check_admissible,
                               inverse_double_extend, reduction_tower, tower_pairs)
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, ProductTensor, rank
from symplie.rationals import ZERO, Q, integral
from symplie.symplectic import (SkewForm, SymplecticLieAlgebra, change_of_basis,
                                structural_report)
from test_sparse_kernels import dense_bases

FLAT = [n for n in catalog.names() if n != "aff1" and catalog.get(n).algebra.dim > 0]


def fresh(s) -> SymplecticLieAlgebra:
    return SymplecticLieAlgebra(LieAlgebra(s.algebra.basis_names, s.algebra.table),
                                SkewForm(s.form.matrix))


def assert_same_step(s, label, e=None):
    got = inverse_double_extend(fresh(s), e)
    ref = fraction_inverse_double_extend(fresh(s), e)
    assert got == ref, label
    assert got.base.form.matrix == ref.base.form.matrix, label
    return got


def test_catalog_entries():
    for name in FLAT:
        step = assert_same_step(catalog.get(name).algebra, name)
        assert step.base.dim == catalog.get(name).algebra.dim - 2


def test_dense_bases(entries):
    moved = dense_bases(entries)
    assert len(moved) == 36
    flat = [(label, s) for label, s in moved if not label.startswith("aff1")]
    assert len(flat) == 33
    for label, s in flat:
        assert_same_step(s, label)


def test_every_central_direction():
    directions = 0
    for name in FLAT:
        s = catalog.get(name).algebra
        for e in s.center.columns():
            assert_same_step(s, (name, e), e)
            directions += 1
    assert directions == 36


@st.composite
def flat_in_random_basis(draw):
    """A flat catalog entry's name, and the entry in a random invertible basis."""
    name = draw(st.sampled_from(FLAT))
    s = catalog.get(name).algebra
    n = s.dim
    entry = st.one_of(st.just(ZERO), st.builds(Q, st.integers(-3, 3).filter(bool),
                                                  st.sampled_from((1, 2, 3))))
    t = Matrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(rank(t) == n)
    return name, change_of_basis(s, t)


@settings(max_examples=40, deadline=None)
@given(flat_in_random_basis())
def test_random_invertible_bases(named):
    _, s = named
    assert_same_step(s, s)


@settings(max_examples=25, deadline=None)
@given(flat_in_random_basis())
def test_invariants_under_random_invertible_bases(named):
    """The fingerprint, the class and the structural report's verdict do
    not depend on the basis."""
    name, s = named
    entry = catalog.get(name)
    assert fingerprint(s) == fingerprint(entry.algebra), name
    assert classify_upto6(s) == entry.expected_class, name
    assert structural_report(s).ok(), name


def record(monkeypatch, cls, name, seen):
    """Replace the cached property cls.name by one that appends each
    instance it computes for to seen."""
    original = cls.__dict__[name].func

    def spy(self):
        seen.append(self)
        return original(self)
    prop = cached_property(spy)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def test_tower_builds_no_adapted_product_and_no_table(monkeypatch):
    """reduction_tower and tower_pairs compute the canonical product of no
    adapted algebra and derive no scalar product or bracket table."""
    adapted, products, tables = [], [], []
    make = extension.change_of_basis

    def spy(*args):
        out = make(*args)
        adapted.append(out)
        return out
    monkeypatch.setattr(extension, "change_of_basis", spy)
    record(monkeypatch, SymplecticLieAlgebra, "canonical_product", products)
    record(monkeypatch, ProductTensor, "table", tables)
    moved = dense_bases({name: catalog.get(name) for name in ("r3_h3", "g6_3")}, seeds=1)
    for label, s in moved:
        s = fresh(s)
        tables.clear()
        tower_pairs(reduction_tower(s))
        assert not tables, label
    assert len(adapted) == 6
    assert products and not any(p is a for p in products for a in adapted)


# ---------------------------------------------------------------------------
# the checks on the path

def perturb(monkeypatch, change):
    """Let change(xden, xs, bden, bs) alter the recovered pair before the
    split checks it."""
    rows = extension._pair_rows

    def perturbed(base, pair):
        (xden, xs), (bden, bs) = pair.xi.integral, integral(pair.b0)
        xden, xs, bden, bs = change(xden, [list(r) for r in xs], bden, list(bs))
        return rows(base, AdmissiblePair(Matrix.from_integral(xden, xs),
                                         [Q(b, bden) for b in bs]))
    monkeypatch.setattr(extension, "_pair_rows", perturbed)


def test_perturbed_xi_is_not_admissible(monkeypatch):
    s = catalog.get("g6_3").algebra
    step = inverse_double_extend(fresh(s))

    def change(xden, xs, bden, bs):
        xs[0][1] += xden
        return xden, xs, bden, bs
    perturb(monkeypatch, change)
    with pytest.raises(ExtensionInvariantError) as info:
        inverse_double_extend(fresh(s))
    xi = step.pair.xi + Matrix.from_rows([[int((i, j) == (0, 1)) for j in range(4)]
                                          for i in range(4)])
    failed = check_admissible(step.base, xi, step.pair.b0).failed_names()
    assert failed
    assert str(info.value) == "recovered pair is not admissible; failed: " + ", ".join(failed)


def test_perturbed_b0_does_not_rebuild(monkeypatch):
    """Over the abelian base of r_h3_dim4 every b0 is admissible with
    xi = 0, so a doubled b0 passes the identities and fails the rebuild."""
    s = catalog.get("r_h3_dim4").algebra
    step = inverse_double_extend(fresh(s))
    assert step.pair.xi.is_zero() and any(step.pair.b0)
    perturb(monkeypatch, lambda xden, xs, bden, bs: (xden, xs, bden, [2 * b for b in bs]))
    with pytest.raises(ExtensionInvariantError, match="^rebuilt extension differs from input$"):
        inverse_double_extend(fresh(s))


def test_non_flat_base_stops_the_split(monkeypatch):
    """The split asks the base whether it is flat: a base that answers no
    stops it, and the input's own answer is still asked first."""
    s = catalog.get("r3_h3").algebra
    assert not any(name.startswith("b") for name in s.basis_names)
    flat = SymplecticLieAlgebra.is_flat
    monkeypatch.setattr(SymplecticLieAlgebra, "is_flat", property(
        lambda self: flat.fget(self) and not self.basis_names[0].startswith("b")))
    with pytest.raises(ExtensionInvariantError, match="^split produced a non-flat base$"):
        inverse_double_extend(fresh(s))
