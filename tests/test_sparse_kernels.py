"""The sparse kernels against the dense formulations they replaced.

The Lie series and the center are cached per algebra and built from the
nonzero bracket entries; R_b0 and identities 4 and 5 of check_admissible
are summed over the nonzero product and bracket cells.  Each is
compared with its reference in oracles.py, which brackets full vectors
and builds one Matrix identity per basis index.
"""

import random

import pytest

from oracles import (reference_center, reference_check_admissible,
                     reference_derived_series, reference_derived_subspace,
                     reference_lower_central_series)
from symplie import catalog
from symplie.catalog import admissible_family, family_names, family_parameter_grid
from symplie.extension import check_admissible, reduction_tower
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix
from symplie.symplectic import SkewForm, change_of_basis
from test_extension import random_admissible_pairs
from test_kernels import dense_change_of_basis

SERIES = (("center", reference_center),
          ("derived_subspace", reference_derived_subspace),
          ("lower_central_series", reference_lower_central_series),
          ("derived_series", reference_derived_series))

# Lie algebras with no symplectic form, for the non-nilpotent branches:
# sl2 is perfect, and the others are solvable but not nilpotent;
# r2_semidirect_r2 is aff(1, C) as a real algebra, a + ib acting on
# c + id by complex multiplication
PLAIN = {
    "sl2": LieAlgebra.from_sparse(("h", "e", "f"), {
        (0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
    "aff1": LieAlgebra.from_sparse(("x", "y"), {(0, 1): {1: 1}}),
    "r2_semidirect_r2": LieAlgebra.from_sparse(("a", "b", "c", "d"), {
        (0, 2): {2: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}, (1, 3): {2: -1}}),
}


def assert_series_match(algebra, label):
    fresh = LieAlgebra(algebra.basis_names, algebra.table)
    for name, reference in SERIES:
        got = getattr(fresh, name)()
        assert got == reference(fresh), (label, name)
        assert getattr(fresh, name)() is got, (label, name)


def dense_bases(entries, seeds=3):
    """Every entry of dim >= 2 in `seeds` seeded dense bases."""
    out = []
    for name, entry in entries.items():
        s = entry.algebra
        if s.dim < 2:
            continue
        rng = random.Random(f"sparse kernels {name}")
        for k in range(seeds):
            out.append((f"{name} basis {k}",
                        change_of_basis(s, dense_change_of_basis(rng, s.dim))))
    return out


class TestSeries:
    def test_catalog_entries(self, entries):
        assert len(entries) == 13
        for name, entry in entries.items():
            assert_series_match(entry.algebra.algebra, name)

    def test_plain_lie_algebras(self):
        for name, g in PLAIN.items():
            assert not g.validate(), name
            assert_series_match(g, name)
        assert PLAIN["sl2"].lower_central_series().nilpotency_class is None
        assert PLAIN["sl2"].derived_series().dims == (3,)

    def test_every_sweep_extension(self, family_sweep):
        count = 0
        for points in family_sweep.values():
            for params, _, ext, _ in points:
                assert_series_match(ext.algebra, params)
                count += 1
        assert count == 439

    def test_dense_bases(self, entries):
        moved = dense_bases(entries)
        assert len(moved) == 36
        for label, s in moved:
            assert_series_match(s.algebra, label)

    def test_derived_in_center(self, entries):
        """The flag the series and the fingerprint read, against the
        containment test it replaces, on the entries and in dense bases."""
        algebras = [(name, e.algebra.algebra) for name, e in entries.items()]
        algebras += [(label, s.algebra) for label, s in dense_bases(entries)]
        algebras += list(PLAIN.items())
        flags = set()
        for label, g in algebras:
            fresh = LieAlgebra(g.basis_names, g.table)
            expected = fresh.derived_subspace().is_subspace_of(fresh.center())
            assert fresh.derived_in_center is expected, label
            flags.add(expected)
        assert flags == {True, False}

    def test_cached_on_the_algebra(self, entries):
        g = LieAlgebra(entries["g6_3"].algebra.basis_names,
                       entries["g6_3"].algebra.algebra.table)
        lcs = g.lower_central_series()
        assert g.derived_series().terms[0] is g.derived_subspace()
        assert lcs.terms[1] is g.derived_subspace()
        assert g.center() is g.center()


def assert_same_report(base, xi, b0, label):
    got = check_admissible(base, xi, b0)
    assert got == reference_check_admissible(base, xi, b0), label
    return got


def perturbed(xi: Matrix, r: int, c: int, delta) -> Matrix:
    rows = [list(row) for row in xi.entries]
    rows[r][c] += delta
    return Matrix.from_rows(rows)


class TestCheckAdmissible:
    def test_every_sweep_pair(self, family_sweep):
        count = 0
        for fam, points in family_sweep.items():
            base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
            for params, pair, _, _ in points:
                report = assert_same_report(base, pair.xi, pair.b0, (fam, params))
                assert report.admissible
                count += 1
        assert count == 439

    def test_bracket_compatibility_alone(self, entries):
        """Non-nilpotent xi on r_h3_dim4 for which identity 4 holds or fails
        by itself: e_i o xi(e_j) and e_j o xi(e_i) must both count, with
        their signs."""
        base = entries["r_h3_dim4"].algebra
        for d, holds in ((-1, True), (1, False)):
            xi = Matrix.from_rows([[2, 0, 0, 0], [0, d, 0, 0], [0] * 4, [0] * 4])
            report = assert_same_report(base, xi, (0,) * 4, d)
            assert report.checks[3].name == "bracket_compatibility"
            assert report.checks[3].holds is holds, d

    @pytest.mark.parametrize("name", ("abelian2", "abelian4", "abelian4_w0"))
    def test_identities_one_and_three_with_zero_r_b0(self, entries, name):
        """On an abelian base R_b0 = 0, and identities 1 and 3 are compared
        as whole rows: X S - X X = S X and S X = 0.  One pair fails 1
        alone (xi = -E_11, b0 = 0); the other fails 3 with 2, and 1 too,
        as no pair in a box search failed 3 without 1."""
        base = entries[name].algebra
        n = base.dim
        one_alone = Matrix.from_rows([[-1] + [0] * (n - 1)] + [[0] * n] * (n - 1))
        report = assert_same_report(base, one_alone, (0,) * n, name)
        assert report.failed_names() == ["commutator_with_adjoint"]
        xi, b0 = {
            "abelian2": ([[-1, 0], [0, 1]], (-1, 0)),
            "abelian4": ([[-1, 0, 0, 0], [0, 0, 0, 2], [0] * 4, [0] * 4], (0, 0, 0, -1)),
            "abelian4_w0": ([[-1, 0, 0, 0], [0] * 4, [0] * 4, [0, 0, 1, 0]], (-1, 0, 0, 0)),
        }[name]
        report = assert_same_report(base, Matrix.from_rows(xi), b0, name)
        assert report.failed_names() == ["commutator_with_adjoint", "skew_part_kills_b0",
                                         "adjoint_composition"]

    def test_nonzero_cells(self, entries):
        for entry in entries.values():
            s = entry.algebra
            for t in (s.canonical_product, s.algebra.bracket_tensor):
                assert [(a, m) for a, m, _ in t.nonzero_cells] == [
                    (a, m) for a in range(s.dim) for m in range(s.dim) if any(t.table[a][m])]
                assert all(cell == t.integral[1][a][m] for a, m, cell in t.nonzero_cells)

    def test_adjoint_of_r_b0_only_when_nonzero(self, family_sweep, monkeypatch):
        """R_b0* is computed only when R_b0 is nonzero: on a zero product
        or with b0 = 0 the one int_adjoint call is the one for xi*."""
        calls = []
        original = SkewForm.int_adjoint
        monkeypatch.setattr(SkewForm, "int_adjoint",
                            lambda self, rows: calls.append(rows) or original(self, rows))
        skipped = 0
        for fam, points in family_sweep.items():
            base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
            for params, pair, _, _ in points:
                calls.clear()
                check_admissible(base, pair.xi, pair.b0)
                zero = base.canonical_product.right(pair.b0).is_zero()
                assert len(calls) == (1 if zero else 2), (fam, params)
                skipped += zero
        # the 302 points on abelian bases and 109 on r_h3_dim4
        assert skipped == 411

    def test_random_admissible_pairs(self, entries):
        bases = {name: entries[name].algebra for name in
                 ("abelian2", "abelian4", "abelian4_w0", "r_h3_dim4")}
        pairs = random_admissible_pairs(random.Random(20260), bases, 1600)
        assert len(pairs) >= 300
        for name, pair in pairs:
            assert assert_same_report(bases[name], pair.xi, pair.b0, name).admissible

    def test_perturbed_pairs(self):
        """Each family's first four grid points with one entry of xi moved
        by +1 or -2, over every entry."""
        reports = []
        for fam in family_names():
            base = catalog.get(catalog.FAMILY_BASES[fam]).algebra
            n = base.dim
            for params in family_parameter_grid(fam)[:4]:
                _, pair = admissible_family(fam, params)
                for r in range(n):
                    for c in range(n):
                        for delta in (1, -2):
                            xi = perturbed(pair.xi, r, c, delta)
                            reports.append(assert_same_report(
                                base, xi, pair.b0, (fam, params, r, c, delta)))
        failing = [r for r in reports if not r.admissible]
        assert len(reports) >= 150
        assert len(failing) >= 150
        details = {(c.name, c.detail) for r in failing for c in r.checks
                   if not c.holds and c.detail}
        # both identities fail, and not always at the first index
        for name in ("bracket_compatibility", "left_mult_compatibility"):
            indices = {d for nm, d in details if nm == name}
            assert len(indices) >= 2, (name, indices)

    @pytest.mark.parametrize("seed", range(3))
    def test_tower_pairs_in_dense_bases(self, entries, seed):
        """The split pairs of the flat entries in a dense basis, whose
        products have few zeros, and each with one entry of xi moved."""
        rng = random.Random(f"dense towers {seed}")
        steps = 0
        for name, entry in entries.items():
            s = entry.algebra
            if name == "aff1" or s.dim == 0:
                continue
            moved = change_of_basis(s, dense_change_of_basis(rng, s.dim))
            for step in reduction_tower(moved):
                base, pair = step.base, step.pair
                assert assert_same_report(base, pair.xi, pair.b0, name).admissible
                if base.dim:
                    r, c = rng.randrange(base.dim), rng.randrange(base.dim)
                    assert_same_report(base, perturbed(pair.xi, r, c, 1),
                                       pair.b0, (name, r, c))
                steps += 1
        assert steps == 28
