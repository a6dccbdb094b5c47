"""The three flatness criteria agree, and is_flat matches them.

``is_flat`` is decided by the sparse curvature witness alone, while
``flatness`` also evaluates the right-multiplication form and
left-symmetry.  Every case is rebuilt as a fresh SymplecticLieAlgebra
and ``is_flat`` is read before ``flatness``, so both code paths run.
The witness is compared with the dense residual matrices of
:func:`curvature_residuals`.
"""

import random

import pytest

from conftest import References
from symplie import catalog
from symplie.catalog import (admissible_family, family_names,
                             family_parameter_grid)
from symplie.extension import build_extension_candidate
from symplie.linalg import Matrix, rank
from symplie.symplectic import (FlatnessInvariantError, InvalidSymplecticError,
                                ProductTensor, SymplecticLieAlgebra,
                                change_of_basis, validate_symplectic)


def check_criteria(s, label, ref=None) -> bool:
    """ref holds the dense curvature witness of the residual matrices of
    curvature_residuals; by default it is computed for s."""
    fresh = SymplecticLieAlgebra(s.algebra, s.form)
    flat = fresh.is_flat
    checks = fresh.flatness
    assert flat == checks.is_flat, label
    assert (checks.curvature_vanishes == checks.right_form_vanishes
            == checks.left_symmetric), label
    assert checks.witness == fresh.curvature_witness, label
    assert checks.witness == (ref or References(s)).witness, label
    return flat


def perturbed_candidates():
    """Extensions of each family's first three grid points with one entry
    of xi raised by 1, kept when they are still symplectic."""
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
                    cand = build_extension_candidate(
                        base, Matrix.from_rows(rows), pair.b0)
                    try:
                        s = validate_symplectic(cand.algebra, cand.form)
                    except InvalidSymplecticError:
                        continue
                    out.append((f"{fam} {params} xi[{r}][{c}]+1", s))
    return out


def random_invertible(n, rng):
    while True:
        t = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                              for _ in range(n)])
        if rank(t) == n:
            return t


def test_every_sweep_point(family_sweep, sweep_references):
    count = 0
    for fam, points in family_sweep.items():
        for (params, _, ext, _), ref in zip(points, sweep_references[fam], strict=True):
            assert check_criteria(ext, (fam, params), ref)
            count += 1
    assert count == 439


def test_every_catalog_entry(entries):
    for name, entry in entries.items():
        assert check_criteria(entry.algebra, name) == (name != "aff1"), name


def test_perturbed_extensions():
    cases = perturbed_candidates()
    flags = [check_criteria(s, label) for label, s in cases]
    assert flags.count(False) >= 40
    assert flags.count(True) >= 90


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_changes_of_basis(entries, seed):
    rng = random.Random(seed)
    for name, entry in entries.items():
        s = entry.algebra
        if s.dim == 0:
            continue
        moved = change_of_basis(s, random_invertible(s.dim, rng))
        assert check_criteria(moved, (name, seed)) == s.is_flat, name


def test_aff1_witness():
    s = catalog.get("aff1").algebra
    fresh = SymplecticLieAlgebra(s.algebra, s.form)
    assert fresh.curvature_witness == (0, 1)
    assert not fresh.is_flat


def test_admissibility_is_still_checked(entries):
    s = entries["r_h3_dim4"].algebra
    broken = SymplecticLieAlgebra(s.algebra, s.form)
    # a product whose commutator misses the bracket [x1, x2] = x3
    broken.__dict__["canonical_product"] = ProductTensor.from_sparse(4, {})
    with pytest.raises(FlatnessInvariantError, match=r"Lie-admissible at \(0, 1\)"):
        broken.is_flat
