"""Acceptance suite: ten end-to-end criteria, one summary line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines inline; they are also embedded in assertion messages).
"""

import pytest

from oracles import brute_force_canonical_product
from symplie import catalog
from symplie.catalog import ConstraintViolatedError, classify_upto6
from symplie.extension import (NotFlatError, check_admissible,
                               extension_tower, inverse_double_extend,
                               reduction_tower, tower_pairs, tower_transform)
from symplie.linalg import Matrix
from symplie.symplectic import (change_of_basis, curvature_residuals,
                                structural_report, symplectic_violations)


def criterion(num, ok, description):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {description}")
    assert ok, f"criterion {num}: {status} - {description}"


def test_criterion_1_exact_product_tables(entries):
    bad = [name for name, entry in entries.items()
           if entry.expected_products is not None
           and entry.algebra.canonical_product != entry.expected_products]
    criterion(1, not bad,
              "canonical product tables match the frozen exact rationals"
              + (f" (mismatch: {bad})" if bad else ""))


def test_criterion_2_flatness_detection(entries):
    ok = True
    for name, entry in entries.items():
        checks = entry.algebra.flatness
        if name == "aff1":
            ok &= (not checks.curvature_vanishes
                   and not checks.right_form_vanishes
                   and not checks.left_symmetric
                   and checks.witness == (0, 1))
        else:
            ok &= (checks.curvature_vanishes and checks.right_form_vanishes
                   and checks.left_symmetric and checks.witness is None)
    criterion(2, ok, "three flatness criteria agree on every entry and "
                     "reject the non-flat control")


def test_criterion_3_structural_theorems(entries):
    failures = []
    for name, entry in entries.items():
        report = structural_report(entry.algebra)
        if not report.ok():
            failures.append((name, [c.name for c in report.claims
                                    if c.applicable and not c.holds]))
    criterion(3, not failures,
              "every applicable structural claim holds on every entry"
              + (f" (failures: {failures})" if failures else ""))


def test_criterion_4_extension_soundness(entries, family_sweep):
    ok = True
    count = 0
    for fam, points in family_sweep.items():
        base = entries[catalog.FAMILY_BASES[fam]].algebra
        for _, pair, ext, _ in points:
            count += 1
            ok &= check_admissible(base, pair.xi, pair.b0).admissible
            ok &= symplectic_violations(ext.algebra, ext.form) == []
            ok &= ext.is_flat and ext.dim == base.dim + 2
            ok &= ext.algebra.is_nilpotent()
    criterion(4, ok and count > 400,
              f"all {count} family grid points are admissible and extend "
              "to valid flat nilpotent algebras")


def test_criterion_5_six_dimensional_classes(family_sweep):
    hit = {cls for fam, points in family_sweep.items()
           if fam.startswith("dim4") for _, _, _, cls in points}
    want = {"R^6", "R^3xH3", "g6_1", "g6_2", "g6_3"}
    criterion(5, hit == want,
              f"six-dimensional sweeps reach exactly the five classes {sorted(want)}"
              + ("" if hit == want else f" (got {sorted(hit)})"))


def test_criterion_6_dimension_four_uniqueness(family_sweep):
    dim4 = [(ext, cls) for fam, points in family_sweep.items()
            if fam.startswith("dim2") for _, _, ext, cls in points]
    classes = {cls for _, cls in dim4}
    nonabelian_ok = all(cls == "RxH3" for ext, cls in dim4
                        if not ext.algebra.is_abelian())
    criterion(6, classes == {"R^4", "RxH3"} and nonabelian_ok,
              "every nonabelian four-dimensional extension lands in the "
              "single class RxH3")


def test_criterion_7_reduce_extend_round_trip(entries):
    ok = True
    for name, entry in entries.items():
        if name == "aff1":
            continue
        s = entry.algebra
        steps = reduction_tower(s)
        ok &= bool(steps) == (s.dim > 0)
        ok &= not steps or steps[-1].base.dim == 0
        rebuilt = extension_tower(tower_pairs(steps))[-1]
        moved = change_of_basis(s, tower_transform(steps))
        ok &= rebuilt.algebra.table == moved.algebra.table
        ok &= rebuilt.form.matrix == moved.form.matrix
    criterion(7, ok, "every flat entry reduces to dimension 0 and the "
                     "recovered tower rebuilds it exactly")


def test_criterion_8_negative_controls(entries):
    base = entries["abelian2"].algebra
    report = check_admissible(
        base, Matrix.from_rows([[0, 1], [0, 0]]), (1, 2))
    bad_b0_rejected = (not report.admissible
                       and report.failed_names() == ["skew_part_kills_b0"])

    lam_rejected = True
    for lam in (0, 1):
        with pytest.raises(ConstraintViolatedError):
            catalog.get("g6_1", lam=lam)

    aff1 = entries["aff1"].algebra
    non_flat_rejected = not aff1.is_flat
    with pytest.raises(NotFlatError):
        inverse_double_extend(aff1)
    with pytest.raises(NotFlatError):
        check_admissible(aff1, Matrix.zeros(2, 2), (0, 0))

    criterion(8, bad_b0_rejected and lam_rejected and non_flat_rejected,
              "inadmissible pairs, degenerate parameters, and non-flat "
              "input are all rejected")


def test_criterion_9_brute_force_product_oracle(entries):
    bad = []
    for name, entry in entries.items():
        s = entry.algebra
        if brute_force_canonical_product(s.algebra, s.form) != s.canonical_product:
            bad.append(name)
    criterion(9, not bad,
              "independent linear-system recomputation agrees with every "
              "product table" + (f" (mismatch: {bad})" if bad else ""))


def test_criterion_10_natural_product_curvature(entries):
    bad = []
    for name, entry in entries.items():
        s = entry.algebra
        residuals = curvature_residuals(s.natural_product, s.algebra)
        if any(not m.is_zero() for m in residuals.values()):
            bad.append(name)
    criterion(10, not bad,
              "the natural product is curvature-free on every entry, "
              "including the non-flat one"
              + (f" (mismatch: {bad})" if bad else ""))
