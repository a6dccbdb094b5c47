"""Named example algebras, extension families, and the small classification.

Flat symplectic Lie algebras of dimension at most six fall into nine
isomorphism classes; the catalog carries one canonical representative of
each, plus a non-flat control (aff1) and alternative symplectic forms on
the g6_2 bracket.  Where an independently derived canonical product
table exists it is frozen in ``expected_products`` so regressions in the
product machinery are caught against fixed rationals, not recomputed
ones.

The class table behind ``classify_upto6`` is frozen the same way: each
class's fingerprint is written out next to its representative entry,
and ``tests/test_catalog.py`` re-derives every one from the entry and
checks that no two collide.  Classifying therefore fingerprints only its
input; a fresh process builds no catalog entry to name a class.

The ``admissible_family`` entries package the known parametric families
of extension pairs over two- and four-dimensional flat bases; sweeping
their parameter grids reproduces the whole classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Optional

from .errors import SymplieError
from .extension import AdmissiblePair
from .lie import LieAlgebra
from .linalg import subspace_sum
from .rationals import ONE, ZERO, Q, as_q, integral
from .symplectic import (ProductTensor, SkewForm, SymplecticLieAlgebra,
                         validate_symplectic)


class UnknownNameError(SymplieError, KeyError):
    """No catalog entry or family has this name.  A KeyError, but its
    message prints as given, not quoted as a key."""

    __str__ = Exception.__str__


class ConstraintViolatedError(SymplieError):
    """A catalog or family parameter broke a stated constraint."""


class UnsupportedDimensionError(SymplieError):
    """The classification covers even dimensions up to six only."""


def wedge_form(dim: int, terms) -> SkewForm:
    """Skew Gram matrix from terms (i, j, c): omega(x_i, x_j) = c, 1-based,
    with the c put over one denominator."""
    den, nums = integral([as_q(c) for _, _, c in terms])
    rows = [[0] * dim for _ in range(dim)]
    for (i, j, _), c in zip(terms, nums):
        rows[i - 1][j - 1], rows[j - 1][i - 1] = c, -c
    return SkewForm.from_integral(den, rows)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    algebra: SymplecticLieAlgebra
    expected_products: Optional[ProductTensor]
    expected_class: Optional[str]


# The coefficient of x3 o x2 in g6_3 below is -(1/2): any other value
# (1/6 is a value sometimes quoted for this cell) breaks u o v - v o u =
# [u, v] against [x2, x3] = x6 and is therefore provably wrong.
G6_3_CORRECTED_CELL = ((2, 1), {5: Q(-1, 2)})


def _xs(dim: int) -> tuple:
    return tuple(f"x{k}" for k in range(1, dim + 1))


def _g6_1(lam) -> tuple:
    """The g6_1 record at lam; lam = 0 and lam = 1 make the form degenerate."""
    if lam == ZERO or lam == ONE:
        raise ConstraintViolatedError(
            "g6_1 needs lam outside {0, 1}; those values make the form degenerate")
    products = {
        (0, 1): {3: (1 - 2 * lam) / (3 - 3 * lam)},
        (0, 2): {4: (2 * lam - 1) / (3 * lam)},
        (1, 0): {3: (lam - 2) / (3 - 3 * lam)},
        (1, 2): {5: (2 - lam) / 3},
        (2, 0): {4: (-lam - 1) / (3 * lam)},
        (2, 1): {5: (-1 - lam) / 3},
    }
    return (_xs(6), {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}},
            [(1, 6, 1), (2, 5, lam), (3, 4, lam - 1)], products, "g6_1",
            f"nilpotent class 2, dimension 6, one-parameter form family (lam={lam})")


_NESTED6 = [(1, 6, 1), (2, 5, 1), (3, 4, 1)]
_G6_2_BRACKETS = {(0, 1): {4: 1}, (0, 2): {5: 1}}
_G6_2 = "nilpotent class 2, dimension 6, two independent brackets"

# name: (basis, brackets, omega terms, frozen products or None, class,
# description), or a function of the entry's parameters giving that
# record; brackets and products are sparse, {(i, j): {k: c}} 0-based, and
# the omega terms are wedge_form's
_ENTRIES = {
    "zero": ((), {}, [], {}, "R^0", "the zero-dimensional algebra"),
    "abelian2": (_xs(2), {}, [(1, 2, 1)], {}, "R^2", "abelian dimension 2"),
    "abelian4": (_xs(4), {}, [(1, 2, 1), (3, 4, 1)], {}, "R^4",
                 "abelian dimension 4, adjacent-pairs form"),
    "abelian4_w0": (_xs(4), {}, [(1, 4, 1), (2, 3, 1)], {}, "R^4",
                    "abelian dimension 4, nested-pairs form"),
    "abelian6": (_xs(6), {}, _NESTED6, {}, "R^6",
                 "abelian dimension 6, nested-pairs form"),
    "aff1": (("e1", "e2"), {(0, 1): {1: 1}}, [(1, 2, 1)],
             {(0, 0): {0: Q(-1, 3)}, (0, 1): {1: Q(1, 3)}, (1, 0): {1: Q(-2, 3)}},
             None, "nonabelian dimension 2 ([e1,e2] = e2); symplectic but not flat"),
    "r_h3_dim4": (_xs(4), {(0, 1): {2: 1}}, [(1, 4, 1), (2, 3, 1)],
                  {(0, 1): {2: Q(2, 3)}, (1, 0): {2: Q(-1, 3)}, (1, 1): {3: Q(-1, 3)}},
                  "RxH3", "line times Heisenberg, dimension 4 ([x1,x2] = x3)"),
    "r3_h3": (_xs(6), {(0, 1): {5: 1}}, _NESTED6,
              {(0, 0): {4: Q(1, 3)}, (0, 1): {5: Q(1, 3)}, (1, 0): {5: Q(-2, 3)}},
              "R^3xH3", "three lines times Heisenberg, dimension 6 ([x1,x2] = x6)"),
    "g6_1": _g6_1,
    "g6_2": (_xs(6), _G6_2_BRACKETS, _NESTED6,
             {(0, 0): {3: Q(1, 3)}, (0, 1): {4: Q(2, 3)}, (0, 2): {5: Q(1, 3)},
              (1, 0): {4: Q(-1, 3)}, (1, 1): {5: Q(-1, 3)}, (2, 0): {5: Q(-2, 3)}},
             "g6_2", _G6_2),
    "g6_2_w2": (_xs(6), _G6_2_BRACKETS, [(1, 4, 1), (2, 6, 1), (3, 5, 1)], None,
                "g6_2", f"{_G6_2}, alternative symplectic form"),
    "g6_2_w3": (_xs(6), _G6_2_BRACKETS, [(1, 6, 1), (2, 5, 1), (3, 4, -1)], None,
                "g6_2", f"{_G6_2}, alternative symplectic form"),
    "g6_3": (_xs(6), {(0, 1): {3: 1}, (0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {5: 1}},
             [(1, 6, 1), (2, 5, Q(1, 2)), (3, 4, Q(-1, 2))],
             dict([((0, 0), {2: Q(2, 3)}), ((0, 3), {5: Q(1, 3)}), ((1, 0), {3: Q(-1)}),
                   ((1, 2), {5: Q(1, 2)}), ((2, 0), {4: Q(-1)}), ((3, 0), {5: Q(-2, 3)}),
                   G6_3_CORRECTED_CELL]),
             "g6_3", "nilpotent class 3, dimension 6 (the only non-class-2 case)"),
}

_PARAM_DEFAULTS = {"g6_1": {"lam": Q(2)}}


def names() -> tuple:
    return tuple(_ENTRIES)


def get(name: str, **params) -> CatalogEntry:
    if name not in _ENTRIES:
        raise UnknownNameError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}")
    allowed = _PARAM_DEFAULTS.get(name, {})
    bad = set(params) - set(allowed)
    if bad:
        raise ValueError(f"{name} does not take parameter(s) {sorted(bad)}")
    record = _ENTRIES[name]
    if allowed:
        merged = dict(allowed)
        merged.update({k: as_q(v) for k, v in params.items()})
        record = record(**merged)
    basis, brackets, omega, products, expected_class, description = record
    alg = validate_symplectic(LieAlgebra.from_sparse(basis, brackets),
                              wedge_form(len(basis), omega))
    if products is not None:
        products = ProductTensor.from_sparse(len(basis), products)
    return CatalogEntry(name, description, alg, products, expected_class)


# ---------------------------------------------------------------------------
# classification fingerprints

@dataclass(frozen=True)
class Fingerprint:
    dim: int
    lower_central_dims: tuple
    derived_series_dims: tuple
    center_dim: int
    derived_dim: int
    center_meets_derived_dim: int


def fingerprint(algebra) -> Fingerprint:
    if isinstance(algebra, SymplecticLieAlgebra):
        algebra = algebra.algebra
    center = algebra.center()
    derived = algebra.derived_subspace()
    # dim(Z meet D) is the smaller dimension when one contains the other,
    # and else dim Z + dim D - dim(Z + D)
    if algebra.derived_in_center:
        meet = derived.dim
    elif center.is_subspace_of(derived):
        meet = center.dim
    else:
        meet = center.dim + derived.dim - subspace_sum(center, derived).dim
    return Fingerprint(
        dim=algebra.dim,
        lower_central_dims=algebra.lower_central_series().dims,
        derived_series_dims=algebra.derived_series().dims,
        center_dim=center.dim,
        derived_dim=derived.dim,
        center_meets_derived_dim=meet,
    )


# one record per class: representative entry, class name and the
# entry's frozen fingerprint (see the module docstring)
_CLASSES = (
    ("zero", "R^0", Fingerprint(0, (0,), (0,), 0, 0, 0)),
    ("abelian2", "R^2", Fingerprint(2, (2, 0), (0,), 2, 0, 0)),
    ("abelian4", "R^4", Fingerprint(4, (4, 0), (0,), 4, 0, 0)),
    ("r_h3_dim4", "RxH3", Fingerprint(4, (4, 1, 0), (1, 0), 2, 1, 1)),
    ("abelian6", "R^6", Fingerprint(6, (6, 0), (0,), 6, 0, 0)),
    ("r3_h3", "R^3xH3", Fingerprint(6, (6, 1, 0), (1, 0), 4, 1, 1)),
    ("g6_1", "g6_1", Fingerprint(6, (6, 3, 0), (3, 0), 3, 3, 3)),
    ("g6_2", "g6_2", Fingerprint(6, (6, 2, 0), (2, 0), 3, 2, 2)),
    ("g6_3", "g6_3", Fingerprint(6, (6, 3, 1, 0), (3, 0), 2, 3, 2)),
)
_CLASS_OF = {fp: class_name for _, class_name, fp in _CLASSES}
assert len(_CLASS_OF) == len(_CLASSES), "two classes share a fingerprint"


def classify_upto6(algebra) -> str:
    """Isomorphism class of a flat symplectic Lie algebra of dim <= 6.

    The Lie algebras underlying flat structures in these dimensions are
    separated by series dimensions and center/derived invariants alone,
    so a fingerprint lookup suffices.  Inputs outside the flat family
    may fall through to "Unknown" (or, coincidentally, collide with a
    listed class; the caller is expected to have checked flatness).
    """
    if isinstance(algebra, SymplecticLieAlgebra):
        algebra = algebra.algebra
    if algebra.dim not in (0, 2, 4, 6):
        raise UnsupportedDimensionError(
            f"classification covers dimensions 0, 2, 4, 6; got {algebra.dim}")
    return _CLASS_OF.get(fingerprint(algebra), "Unknown")


# ---------------------------------------------------------------------------
# extension-pair families

STANDARD_GRID = tuple(map(as_q, (-2, -1, Q(-1, 2), 0, Q(1, 2), 1, 2, 3)))
NONZERO_GRID = tuple(v for v in STANDARD_GRID if v)

_SMALL = tuple(map(as_q, (-1, Q(1, 2), 2)))
_PAIR_CYCLE = tuple((as_q(a), as_q(b)) for a, b in
                    ((0, 0), (1, 0), (0, 1), (1, -2), (Q(-1, 2), 3)))


def _nonzero_times(tuples, at: int = 0) -> list:
    """Each t of tuples with each v of NONZERO_GRID put in at position at."""
    return [t[:at] + (v,) + t[at:] for v in NONZERO_GRID for t in tuples]


def _small_cycle(keep=lambda a, b, c, d: True) -> list:
    """The (a, b, c, d) of _SMALL^4 that keep accepts, each followed by
    the next (alpha, beta) of _PAIR_CYCLE in turn."""
    points = [p for p in product(_SMALL, repeat=4) if keep(*p)]
    return [p + _PAIR_CYCLE[i % len(_PAIR_CYCLE)] for i, p in enumerate(points)]


def _ad_ne_bc(a, b, c, d, **_) -> bool:
    return a * d != b * c


@dataclass(frozen=True)
class _Family:
    """A parametric family of pairs over a base catalog entry.

    rows takes the parameters by keyword and gives the rows of [xi | b0];
    ok (when set) is the family's constraint, stated by needs; grid gives
    the sweep's points as value tuples in the order of keys.
    """
    base: str
    keys: tuple
    rows: Callable
    grid: Callable
    needs: Optional[str] = None
    ok: Optional[Callable] = None


_FAMILIES = {
    "dim2_trivial": _Family(
        "abelian2", ("alpha", "beta"),
        rows=lambda alpha, beta: [[0, 0, alpha], [0, 0, beta]],
        grid=lambda: list(product(STANDARD_GRID, repeat=2))),
    "dim2_nilpotent": _Family(
        "abelian2", ("a", "alpha"),
        rows=lambda a, alpha: [[0, a, alpha], [0, 0, 0]],
        grid=lambda: _nonzero_times([(v,) for v in STANDARD_GRID]),
        needs="a != 0", ok=lambda a, **_: a != 0),
    "dim4_abelian_case1": _Family(
        "abelian4", ("alpha", "beta", "gamma", "delta"),
        rows=lambda alpha, beta, gamma, delta: [[0, 0, 0, 0, alpha], [0, 0, 0, 0, beta],
                                                [0, 0, 0, 0, gamma], [0, 0, 0, 0, delta]],
        # the origin, each axis, then mixed points
        grid=lambda: ([(0, 0, 0, 0)]
                      + [p for k in range(4) for p in _nonzero_times([(0, 0, 0)], k)]
                      + [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1),
                         (1, -2, 3, Q(-1, 2))])),
    "dim4_abelian_case2": _Family(
        "abelian4_w0", ("a", "b", "c", "d", "alpha", "beta"),
        rows=lambda a, b, c, d, alpha, beta: [[0, 0, a, b, alpha], [0, 0, c, d, beta],
                                              [0] * 5, [0] * 5],
        grid=lambda: _small_cycle(_ad_ne_bc) + [(1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 1)],
        needs="ad != bc", ok=_ad_ne_bc),
    "dim4_abelian_case3": _Family(
        "abelian4_w0", ("a", "alpha", "beta", "gamma"),
        rows=lambda a, alpha, beta, gamma: [[0, 0, 0, a, alpha], [0, 0, 0, 0, beta],
                                            [0, 0, 0, 0, gamma], [0] * 5],
        grid=lambda: _nonzero_times([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                     (1, 1, 0), (0, 1, -2), (Q(1, 2), -1, 3)]),
        needs="a != 0", ok=lambda a, **_: a != 0),
    "dim4_abelian_case4": _Family(
        "abelian4", ("a", "alpha", "beta"),
        rows=lambda a, alpha, beta: [[0, 0, 0, a, alpha], [0] * 5,
                                     [0, 0, 0, 0, beta], [0] * 5],
        grid=lambda: _nonzero_times(_PAIR_CYCLE),
        needs="a != 0", ok=lambda a, **_: a != 0),
    "dim4_nonabelian_family1": _Family(
        "r_h3_dim4", ("a", "b", "c", "d", "alpha", "beta"),
        rows=lambda a, b, c, d, alpha, beta: [[0] * 5, [0] * 5, [a, b, 0, 0, alpha],
                                              [c, d, 0, 0, beta]],
        grid=_small_cycle),
    "dim4_nonabelian_family2": _Family(
        "r_h3_dim4", ("a", "b", "c", "d", "x"),
        rows=lambda a, b, c, d, x: [[0, 0, 0, 0, -9 * c * d], [0] * 5, [a, b, 0, c, x],
                                    [0, d, 0, 0, 9 * d * (a + d)]],
        # c, the third key, runs over NONZERO_GRID
        grid=lambda: _nonzero_times([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, Q(1, 2), 0),
                                     (2, 1, -1, 3), (Q(-1, 2), 0, 2, 1)], at=2),
        needs="c != 0", ok=lambda c, **_: c != 0),
}

FAMILY_BASES = {name: family.base for name, family in _FAMILIES.items()}


def family_names() -> tuple:
    return tuple(_FAMILIES)


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise UnknownNameError(
            f"unknown family {name!r}; available: {', '.join(family_names())}")
    return _FAMILIES[name]


def admissible_family(name: str, params: Mapping) -> tuple:
    """(base catalog name, AdmissiblePair) for a known family point.

    Raises ConstraintViolatedError when the parameters break the
    family's defining constraint; the returned pair is otherwise
    admissible over the stated base for every parameter choice.
    """
    family = _family(name)
    if set(params) != set(family.keys):
        raise ValueError(
            f"{name} takes exactly the parameters {list(family.keys)}")
    p = {k: as_q(params[k]) for k in family.keys}
    if family.ok is not None and not family.ok(**p):
        raise ConstraintViolatedError(f"{name} needs {family.needs}")
    rows = family.rows(**p)
    # [xi | b0] over one denominator
    den, nums = integral([x for row in rows for x in row])
    it = iter(nums)
    return family.base, AdmissiblePair.from_integral(den, [[next(it) for _ in row]
                                                           for row in rows])


def family_parameter_grid(name: str) -> tuple:
    """Deterministic parameter sweep for a family, as dicts.

    The two-parameter families get their full Cartesian grid; larger
    families use axis sweeps plus fixed mixed tuples so the whole sweep
    stays fast while still reaching every isomorphism class.
    """
    family = _family(name)
    return tuple(dict(zip(family.keys, map(as_q, point))) for point in family.grid())
