import hashlib
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplie import catalog, linalg
from symplie.catalog import (ConstraintViolatedError, Fingerprint,
                             G6_3_CORRECTED_CELL, UnknownNameError,
                             UnsupportedDimensionError, admissible_family,
                             classify_upto6, family_names,
                             family_parameter_grid, fingerprint, wedge_form)
from symplie.extension import check_admissible
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix, SingularMatrixError, int_inverse
from symplie.rationals import Q
from symplie.symplectic import (NotLieAdmissibleError, ProductTensor, change_of_basis,
                                curvature_residuals, structural_report,
                                symplectic_violations)
from test_containment import fresh

ALL_NAMES = ("zero", "abelian2", "abelian4", "abelian4_w0", "abelian6",
             "aff1", "r_h3_dim4", "r3_h3", "g6_1", "g6_2", "g6_2_w2",
             "g6_2_w3", "g6_3")


class TestEntries:
    def test_names(self):
        assert catalog.names() == ALL_NAMES

    def test_all_entries_are_valid(self, entries):
        for entry in entries.values():
            s = entry.algebra
            assert symplectic_violations(s.algebra, s.form) == []

    def test_frozen_products_match_computed(self, entries):
        for name, entry in entries.items():
            if entry.expected_products is None:
                continue
            assert entry.algebra.canonical_product == entry.expected_products, name

    def test_expected_classes(self, entries):
        for name, entry in entries.items():
            if entry.expected_class is None:
                continue
            assert classify_upto6(entry.algebra) == entry.expected_class, name

    def test_flatness_flags(self, entries):
        for name, entry in entries.items():
            assert entry.algebra.is_flat == (name != "aff1"), name

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            catalog.get("nope")

    def test_rejects_unexpected_params(self):
        with pytest.raises(ValueError):
            catalog.get("abelian2", lam=2)

    def test_g6_1_parameter(self):
        entry = catalog.get("g6_1", lam="1/2")
        assert entry.algebra.is_flat
        assert classify_upto6(entry.algebra) == "g6_1"
        # the frozen cell formulas track the parameter
        assert entry.expected_products.table[1][2] \
            == (Q(0), Q(0), Q(0), Q(0), Q(0), Q(1, 2))
        for lam in (0, 1):
            with pytest.raises(ConstraintViolatedError):
                catalog.get("g6_1", lam=lam)

    def test_g6_2_w3_is_g6_2_with_x4_negated(self, entries):
        """x4 is central and outside the derived ideal, so x4 -> -x4 is a
        Lie automorphism of g6_2; it carries the g6_2 form to g6_2_w3's."""
        g6_2, w3 = entries["g6_2"].algebra, entries["g6_2_w3"].algebra
        t = Matrix.from_rows([[-1 if i == j == 3 else int(i == j) for j in range(6)]
                              for i in range(6)])
        moved = change_of_basis(g6_2, t, g6_2.basis_names)
        assert moved.algebra.table == w3.algebra.table
        assert moved.form.matrix == w3.form.matrix
        assert moved.algebra == w3.algebra

    def test_wedge_form(self):
        form = wedge_form(4, [(1, 3, "1/2"), (2, 4, -1)])
        assert form.pair((1, 0, 0, 0), (0, 0, 1, 0)) == Q(1, 2)
        assert form.pair((0, 0, 1, 0), (1, 0, 0, 0)) == Q(-1, 2)
        assert form.is_skew()


class TestG6_3Cell:
    def test_corrected_cell_value(self, entries):
        cell, value = G6_3_CORRECTED_CELL
        assert cell == (2, 1)
        p = entries["g6_3"].algebra.canonical_product
        got = p.table[cell[0]][cell[1]]
        assert {k: c for k, c in enumerate(got) if c} == value

    def test_sixth_variant_is_not_lie_admissible(self, entries):
        # x3 o x2 with coefficient 1/6 cannot reproduce [x2, x3] = x6
        entry = entries["g6_3"]
        table = [list(row) for row in entry.expected_products.table]
        table[2][1] = (Q(0), Q(0), Q(0), Q(0), Q(0), Q(1, 6))
        variant = ProductTensor(6, tuple(tuple(r) for r in table))
        with pytest.raises(NotLieAdmissibleError):
            curvature_residuals(variant, entry.algebra.algebra)


class TestFingerprints:
    """The class table is frozen in catalog._CLASSES; these re-derive it."""

    def test_distinct_across_classes(self, entries):
        seen = {}
        for entry_name, class_name, _ in catalog._CLASSES:
            fp = fingerprint(entries[entry_name].algebra)
            assert fp not in seen, (class_name, seen.get(fp))
            seen[fp] = class_name
        assert len(seen) == 9
        assert seen == catalog._CLASS_OF

    def test_frozen_table_is_rederived(self):
        for entry_name, class_name, frozen in catalog._CLASSES:
            entry = catalog.get(entry_name)
            assert fingerprint(entry.algebra) == frozen, entry_name
            assert entry.expected_class == class_name, entry_name

    def test_classify_builds_no_entry(self, entries, monkeypatch):
        """classify_upto6 runs the eliminations of its input's fingerprint
        and nothing else: no catalog entry is built, validated or
        fingerprinted to name the class."""
        calls = []
        original = linalg._rref_rows

        def counting(rows, ncols):
            calls.append((ncols, [list(r) for r in rows]))
            return original(rows, ncols)

        def no_entry(*args, **kwargs):
            raise AssertionError("classify_upto6 built a catalog entry")

        monkeypatch.setattr(linalg, "_rref_rows", counting)
        monkeypatch.setattr(catalog, "get", no_entry)
        for name, entry in entries.items():
            calls.clear()
            fingerprint(fresh(entry.algebra.algebra))
            own = list(calls)
            calls.clear()
            cls = classify_upto6(fresh(entry.algebra.algebra))
            assert cls == (entry.expected_class or "Unknown"), name
            assert calls == own, name
            assert all(ncols == entry.algebra.dim for ncols, _ in calls), name

    def test_frozen_values(self, entries):
        assert fingerprint(entries["r_h3_dim4"].algebra) == Fingerprint(
            4, (4, 1, 0), (1, 0), 2, 1, 1)
        assert fingerprint(entries["g6_1"].algebra) == Fingerprint(
            6, (6, 3, 0), (3, 0), 3, 3, 3)
        assert fingerprint(entries["g6_3"].algebra) == Fingerprint(
            6, (6, 3, 1, 0), (3, 0), 2, 3, 2)

    def test_form_independent(self, entries):
        for name in ("g6_2", "g6_2_w2", "g6_2_w3"):
            assert fingerprint(entries[name].algebra) \
                == fingerprint(entries["g6_2"].algebra)


FLAT_NAMES = tuple(name for name in ALL_NAMES if name != "aff1")


@st.composite
def flat_entries(draw):
    """A flat catalog entry; g6_1 at a drawn lam outside {0, 1}."""
    name = draw(st.sampled_from(FLAT_NAMES))
    if name != "g6_1":
        return catalog.get(name)
    lam = draw(st.fractions(-4, 4, max_denominator=6).filter(lambda q: q not in (0, 1)))
    return catalog.get("g6_1", lam=lam)


def invertible_integer(n: int):
    """An invertible n x n integer matrix with entries in [-2, 2]."""
    def check(rows):
        try:
            int_inverse(rows)
        except SingularMatrixError:
            return None
        return Matrix.from_integral(1, rows)
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(check).filter(lambda t: t is not None)


def transvections(s):
    """A product of one to three symplectic transvections of s's form,
    x -> x + c omega(v, x) v with v integral and c rational: the matrix
    I + c v (v^T W), W the Gram matrix."""
    n = s.dim
    w = s.form.matrix

    def transvection(v, c):
        vw = [sum((v[i] * w.entry(i, j) for i in range(n)), Q(0)) for j in range(n)]
        return Matrix.from_rows([[int(i == j) + c * v[i] * vw[j] for j in range(n)]
                                 for i in range(n)])
    one = st.builds(transvection, st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    st.fractions(-3, 3, max_denominator=4))
    return st.lists(one, min_size=1, max_size=3).map(
        lambda ts: reduce(lambda a, b: a @ b, ts))


def assert_invariant(entry, t):
    s = entry.algebra
    moved = change_of_basis(s, t)
    assert fingerprint(moved) == fingerprint(s), entry.name
    assert classify_upto6(moved) == entry.expected_class, entry.name
    assert structural_report(moved).ok() and structural_report(s).ok(), entry.name


class TestBasisInvariance:
    """The class of a flat entry, and so the frozen table's lookup, does
    not depend on the basis: fingerprint, class and structural_report
    agree after a random change of basis of every flat catalog entry."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_change_of_basis(self, data):
        entry = data.draw(flat_entries())
        assert_invariant(entry, data.draw(invertible_integer(entry.algebra.dim)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_symplectic_change_of_basis(self, data):
        entry = data.draw(flat_entries())
        t = data.draw(transvections(entry.algebra))
        assert change_of_basis(entry.algebra, t).form.matrix == entry.algebra.form.matrix
        assert_invariant(entry, t)


class TestClassify:
    def test_aff1_is_unknown(self, entries):
        assert classify_upto6(entries["aff1"].algebra) == "Unknown"

    def test_accepts_plain_lie_algebra(self, entries):
        assert classify_upto6(entries["g6_2"].algebra.algebra) == "g6_2"

    def test_unsupported_dimensions(self):
        for dim in (1, 3, 5, 8):
            alg = LieAlgebra.from_sparse(
                tuple(f"x{k}" for k in range(dim)), {})
            with pytest.raises(UnsupportedDimensionError):
                classify_upto6(alg)


class TestFamilies:
    def test_family_names(self):
        assert family_names() == (
            "dim2_trivial", "dim2_nilpotent", "dim4_abelian_case1",
            "dim4_abelian_case2", "dim4_abelian_case3", "dim4_abelian_case4",
            "dim4_nonabelian_family1", "dim4_nonabelian_family2")

    def test_unknown_family(self):
        with pytest.raises(UnknownNameError):
            admissible_family("nope", {})
        with pytest.raises(UnknownNameError):
            family_parameter_grid("nope")

    def test_exact_parameter_keys(self):
        with pytest.raises(ValueError):
            admissible_family("dim2_trivial", {"alpha": 1})
        with pytest.raises(ValueError):
            admissible_family("dim2_trivial",
                              {"alpha": 1, "beta": 0, "gamma": 2})

    def test_constraints(self):
        with pytest.raises(ConstraintViolatedError):
            admissible_family("dim2_nilpotent", {"a": 0, "alpha": 1})
        with pytest.raises(ConstraintViolatedError):
            admissible_family("dim4_abelian_case2",
                              {"a": 1, "b": 2, "c": 2, "d": 4,
                               "alpha": 0, "beta": 0})
        with pytest.raises(ConstraintViolatedError):
            admissible_family("dim4_abelian_case3",
                              {"a": 0, "alpha": 0, "beta": 0, "gamma": 0})
        with pytest.raises(ConstraintViolatedError):
            admissible_family("dim4_abelian_case4",
                              {"a": 0, "alpha": 0, "beta": 0})
        with pytest.raises(ConstraintViolatedError):
            admissible_family("dim4_nonabelian_family2",
                              {"a": 1, "b": 0, "c": 0, "d": 1, "x": 0})

    def test_points_are_admissible(self, entries):
        spots = (
            ("dim2_trivial", {"alpha": 3, "beta": "-1/2"}),
            ("dim4_abelian_case4", {"a": 2, "alpha": -1, "beta": 0}),
            ("dim4_nonabelian_family2",
             {"a": 1, "b": -1, "c": "1/2", "d": 2, "x": 0}),
        )
        for fam, params in spots:
            base_name, pair = admissible_family(fam, params)
            base = entries[base_name].algebra
            assert check_admissible(base, pair.xi, pair.b0).admissible, fam

    def test_grid_sizes(self):
        sizes = {name: len(family_parameter_grid(name))
                 for name in family_names()}
        assert sizes == {
            "dim2_trivial": 64,
            "dim2_nilpotent": 56,
            "dim4_abelian_case1": 34,
            "dim4_abelian_case2": 64,
            "dim4_abelian_case3": 49,
            "dim4_abelian_case4": 35,
            "dim4_nonabelian_family1": 81,
            "dim4_nonabelian_family2": 56,
        }

    def test_grids_golden(self):
        """Every grid point's parameters (keys in order, with their types),
        its base and its pair's [xi | b0] numerators, pinned byte for byte."""
        digest = hashlib.sha256()
        for fam in family_names():
            for params in family_parameter_grid(fam):
                base, pair = admissible_family(fam, params)
                assert base == catalog.FAMILY_BASES[fam]
                digest.update(repr((fam, list(params.items()), base,
                                    pair.integral)).encode())
        assert digest.hexdigest() == ("2380de5ef56ae357e340532f0538b34e"
                                      "240a102245c903971893745afdc1d5e5")


class TestFamilySweep:
    EXPECTED_CLASSES = {
        "dim2_trivial": {"R^4", "RxH3"},
        "dim2_nilpotent": {"RxH3"},
        "dim4_abelian_case1": {"R^6", "R^3xH3"},
        "dim4_abelian_case2": {"g6_1", "g6_2"},
        "dim4_abelian_case3": {"R^3xH3", "g6_2"},
        "dim4_abelian_case4": {"g6_1"},
        "dim4_nonabelian_family1": {"g6_1", "g6_2"},
        "dim4_nonabelian_family2": {"g6_3"},
    }

    def test_classes_per_family(self, family_sweep):
        for fam, points in family_sweep.items():
            got = {class_name for _, _, _, class_name in points}
            assert got == self.EXPECTED_CLASSES[fam], fam

    def test_every_point_extends_flat(self, family_sweep):
        for fam, points in family_sweep.items():
            want_dim = 4 if fam.startswith("dim2") else 6
            for _, _, ext, _ in points:
                assert ext.dim == want_dim
                assert ext.is_flat

    def test_whole_classification_is_reached(self, family_sweep):
        hit = {class_name for points in family_sweep.values()
               for _, _, _, class_name in points}
        assert {"g6_1", "g6_2", "g6_3", "R^6", "R^3xH3"} <= hit
        assert {"R^4", "RxH3"} <= hit
