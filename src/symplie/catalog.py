"""Named example algebras, extension families, and the small classification.

Flat symplectic Lie algebras of dimension at most six fall into nine
isomorphism classes; the catalog carries one canonical representative of
each, plus a non-flat control (aff1) and alternative symplectic forms on
the g6_2 bracket.  Where an independently derived canonical product
table exists it is frozen in ``expected_products`` so regressions in the
product machinery are caught against fixed rationals, not recomputed
ones.

The ``admissible_family`` entries package the known parametric families
of extension pairs over two- and four-dimensional flat bases; sweeping
their parameter grids reproduces the whole classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

from .errors import SymplieError
from .extension import AdmissiblePair
from .lie import LieAlgebra
from .linalg import Matrix, subspace_sum
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


# The coefficient of x3 o x2 below is -(1/2): any other value (1/6 is a
# value sometimes quoted for this cell) breaks u o v - v o u = [u, v]
# against [x2, x3] = x6 and is therefore provably wrong.
G6_3_CORRECTED_CELL = ((2, 1), {5: Q(-1, 2)})


def _zero_products(dim: int) -> ProductTensor:
    return ProductTensor.from_sparse(dim, {})


def _entry_zero() -> CatalogEntry:
    alg = validate_symplectic(LieAlgebra.from_sparse((), {}),
                              SkewForm(Matrix.zeros(0, 0)))
    return CatalogEntry("zero", "the zero-dimensional algebra",
                        alg, _zero_products(0), "R^0")


def _entry_abelian(name: str, dim: int, form: SkewForm,
                   description: str) -> CatalogEntry:
    names = tuple(f"x{k + 1}" for k in range(dim))
    alg = validate_symplectic(LieAlgebra.from_sparse(names, {}), form)
    return CatalogEntry(name, description, alg, _zero_products(dim), f"R^{dim}")


def _entry_aff1() -> CatalogEntry:
    alg = validate_symplectic(
        LieAlgebra.from_sparse(("e1", "e2"), {(0, 1): {1: 1}}),
        wedge_form(2, [(1, 2, 1)]))
    products = ProductTensor.from_sparse(2, {
        (0, 0): {0: Q(-1, 3)},
        (0, 1): {1: Q(1, 3)},
        (1, 0): {1: Q(-2, 3)},
    })
    return CatalogEntry(
        "aff1",
        "nonabelian dimension 2 ([e1,e2] = e2); symplectic but not flat",
        alg, products, None)


def _entry_r_h3_dim4() -> CatalogEntry:
    alg = validate_symplectic(
        LieAlgebra.from_sparse(("x1", "x2", "x3", "x4"), {(0, 1): {2: 1}}),
        wedge_form(4, [(1, 4, 1), (2, 3, 1)]))
    products = ProductTensor.from_sparse(4, {
        (0, 1): {2: Q(2, 3)},
        (1, 0): {2: Q(-1, 3)},
        (1, 1): {3: Q(-1, 3)},
    })
    return CatalogEntry(
        "r_h3_dim4",
        "line times Heisenberg, dimension 4 ([x1,x2] = x3)",
        alg, products, "RxH3")


def _entry_r3_h3() -> CatalogEntry:
    alg = validate_symplectic(
        LieAlgebra.from_sparse(tuple(f"x{k}" for k in range(1, 7)),
                               {(0, 1): {5: 1}}),
        wedge_form(6, [(1, 6, 1), (2, 5, 1), (3, 4, 1)]))
    products = ProductTensor.from_sparse(6, {
        (0, 0): {4: Q(1, 3)},
        (0, 1): {5: Q(1, 3)},
        (1, 0): {5: Q(-2, 3)},
    })
    return CatalogEntry(
        "r3_h3",
        "three lines times Heisenberg, dimension 6 ([x1,x2] = x6)",
        alg, products, "R^3xH3")


def _entry_g6_1(lam) -> CatalogEntry:
    lam = as_q(lam)
    if lam == ZERO or lam == ONE:
        raise ConstraintViolatedError(
            "g6_1 needs lam outside {0, 1}; those values make the form degenerate")
    alg = validate_symplectic(
        LieAlgebra.from_sparse(tuple(f"x{k}" for k in range(1, 7)),
                               {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}}),
        wedge_form(6, [(1, 6, 1), (2, 5, lam), (3, 4, lam - 1)]))
    products = ProductTensor.from_sparse(6, {
        (0, 1): {3: (1 - 2 * lam) / (3 - 3 * lam)},
        (0, 2): {4: (2 * lam - 1) / (3 * lam)},
        (1, 0): {3: (lam - 2) / (3 - 3 * lam)},
        (1, 2): {5: (2 - lam) / 3},
        (2, 0): {4: (-lam - 1) / (3 * lam)},
        (2, 1): {5: (-1 - lam) / 3},
    })
    return CatalogEntry(
        "g6_1",
        f"nilpotent class 2, dimension 6, one-parameter form family (lam={lam})",
        alg, products, "g6_1")


_G6_2_BRACKETS = {(0, 1): {4: 1}, (0, 2): {5: 1}}
_G6_2_FORMS = {
    "g6_2": [(1, 6, 1), (2, 5, 1), (3, 4, 1)],
    "g6_2_w2": [(1, 4, 1), (2, 6, 1), (3, 5, 1)],
    "g6_2_w3": [(1, 6, 1), (2, 5, 1), (3, 4, -1)],
}


def _entry_g6_2(name: str) -> CatalogEntry:
    alg = validate_symplectic(
        LieAlgebra.from_sparse(tuple(f"x{k}" for k in range(1, 7)),
                               _G6_2_BRACKETS),
        wedge_form(6, _G6_2_FORMS[name]))
    products = None
    if name == "g6_2":
        products = ProductTensor.from_sparse(6, {
            (0, 0): {3: Q(1, 3)},
            (0, 1): {4: Q(2, 3)},
            (0, 2): {5: Q(1, 3)},
            (1, 0): {4: Q(-1, 3)},
            (1, 1): {5: Q(-1, 3)},
            (2, 0): {5: Q(-2, 3)},
        })
    extra = "" if name == "g6_2" else ", alternative symplectic form"
    return CatalogEntry(
        name,
        f"nilpotent class 2, dimension 6, two independent brackets{extra}",
        alg, products, "g6_2")


def _entry_g6_3() -> CatalogEntry:
    alg = validate_symplectic(
        LieAlgebra.from_sparse(
            tuple(f"x{k}" for k in range(1, 7)),
            {(0, 1): {3: 1}, (0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {5: 1}}),
        wedge_form(6, [(1, 6, 1), (2, 5, Q(1, 2)), (3, 4, Q(-1, 2))]))
    sparse = {
        (0, 0): {2: Q(2, 3)},
        (0, 3): {5: Q(1, 3)},
        (1, 0): {3: Q(-1)},
        (1, 2): {5: Q(1, 2)},
        (2, 0): {4: Q(-1)},
        (3, 0): {5: Q(-2, 3)},
    }
    cell, value = G6_3_CORRECTED_CELL
    sparse[cell] = value
    return CatalogEntry(
        "g6_3",
        "nilpotent class 3, dimension 6 (the only non-class-2 case)",
        alg, ProductTensor.from_sparse(6, sparse), "g6_3")


_BUILDERS = {
    "zero": _entry_zero,
    "abelian2": lambda: _entry_abelian(
        "abelian2", 2, wedge_form(2, [(1, 2, 1)]), "abelian dimension 2"),
    "abelian4": lambda: _entry_abelian(
        "abelian4", 4, wedge_form(4, [(1, 2, 1), (3, 4, 1)]),
        "abelian dimension 4, adjacent-pairs form"),
    "abelian4_w0": lambda: _entry_abelian(
        "abelian4_w0", 4, wedge_form(4, [(1, 4, 1), (2, 3, 1)]),
        "abelian dimension 4, nested-pairs form"),
    "abelian6": lambda: _entry_abelian(
        "abelian6", 6, wedge_form(6, [(1, 6, 1), (2, 5, 1), (3, 4, 1)]),
        "abelian dimension 6, nested-pairs form"),
    "aff1": _entry_aff1,
    "r_h3_dim4": _entry_r_h3_dim4,
    "r3_h3": _entry_r3_h3,
    "g6_1": _entry_g6_1,
    "g6_2": lambda: _entry_g6_2("g6_2"),
    "g6_2_w2": lambda: _entry_g6_2("g6_2_w2"),
    "g6_2_w3": lambda: _entry_g6_2("g6_2_w3"),
    "g6_3": _entry_g6_3,
}

_PARAM_DEFAULTS = {"g6_1": {"lam": Q(2)}}


def names() -> tuple:
    return tuple(_BUILDERS)


def get(name: str, **params) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownNameError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}")
    allowed = _PARAM_DEFAULTS.get(name, {})
    bad = set(params) - set(allowed)
    if bad:
        raise ValueError(f"{name} does not take parameter(s) {sorted(bad)}")
    if allowed:
        merged = dict(allowed)
        merged.update({k: as_q(v) for k, v in params.items()})
        return _BUILDERS[name](**merged)
    return _BUILDERS[name]()


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
    if derived.is_subspace_of(center):
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


_CLASS_REPRESENTATIVES = (
    ("zero", "R^0"),
    ("abelian2", "R^2"),
    ("abelian4", "R^4"),
    ("r_h3_dim4", "RxH3"),
    ("abelian6", "R^6"),
    ("r3_h3", "R^3xH3"),
    ("g6_1", "g6_1"),
    ("g6_2", "g6_2"),
    ("g6_3", "g6_3"),
)


@lru_cache(maxsize=1)
def _class_table() -> Mapping[Fingerprint, str]:
    table = {}
    for entry_name, class_name in _CLASS_REPRESENTATIVES:
        fp = fingerprint(get(entry_name).algebra)
        assert fp not in table, f"fingerprint collision for {class_name}"
        table[fp] = class_name
    return table


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
    return _class_table().get(fingerprint(algebra), "Unknown")


# ---------------------------------------------------------------------------
# extension-pair families

STANDARD_GRID = tuple(map(as_q, (-2, -1, Q(-1, 2), 0, Q(1, 2), 1, 2, 3)))
NONZERO_GRID = tuple(v for v in STANDARD_GRID if v)

_SMALL = tuple(map(as_q, (-1, Q(1, 2), 2)))
_PAIR_CYCLE = tuple((as_q(a), as_q(b)) for a, b in
                    ((0, 0), (1, 0), (0, 1), (1, -2), (Q(-1, 2), 3)))

FAMILY_BASES = {
    "dim2_trivial": "abelian2",
    "dim2_nilpotent": "abelian2",
    "dim4_abelian_case1": "abelian4",
    "dim4_abelian_case2": "abelian4_w0",
    "dim4_abelian_case3": "abelian4_w0",
    "dim4_abelian_case4": "abelian4",
    "dim4_nonabelian_family1": "r_h3_dim4",
    "dim4_nonabelian_family2": "r_h3_dim4",
}

_FAMILY_KEYS = {
    "dim2_trivial": ("alpha", "beta"),
    "dim2_nilpotent": ("a", "alpha"),
    "dim4_abelian_case1": ("alpha", "beta", "gamma", "delta"),
    "dim4_abelian_case2": ("a", "b", "c", "d", "alpha", "beta"),
    "dim4_abelian_case3": ("a", "alpha", "beta", "gamma"),
    "dim4_abelian_case4": ("a", "alpha", "beta"),
    "dim4_nonabelian_family1": ("a", "b", "c", "d", "alpha", "beta"),
    "dim4_nonabelian_family2": ("a", "b", "c", "d", "x"),
}


def family_names() -> tuple:
    return tuple(_FAMILY_KEYS)


def _family_params(name: str, params: Mapping) -> dict:
    keys = _FAMILY_KEYS[name]
    missing = set(keys) - set(params)
    extra = set(params) - set(keys)
    if missing or extra:
        raise ValueError(
            f"{name} takes exactly the parameters {list(keys)}")
    return {k: as_q(params[k]) for k in keys}


def admissible_family(name: str, params: Mapping) -> tuple:
    """(base catalog name, AdmissiblePair) for a known family point.

    Raises ConstraintViolatedError when the parameters break the
    family's defining constraint; the returned pair is otherwise
    admissible over the stated base for every parameter choice.
    """
    if name not in _FAMILY_KEYS:
        raise UnknownNameError(
            f"unknown family {name!r}; available: {', '.join(family_names())}")
    p = _family_params(name, params)
    a, b, c, d = (p.get(k, ZERO) for k in "abcd")
    # each row is a row of xi followed by the entry of b0
    if name == "dim2_trivial":
        return "abelian2", _pair([0, 0, p["alpha"]], [0, 0, p["beta"]])
    if name == "dim2_nilpotent":
        if not a:
            raise ConstraintViolatedError("dim2_nilpotent needs a != 0")
        return "abelian2", _pair([0, a, p["alpha"]], [0, 0, 0])
    if name == "dim4_abelian_case1":
        return "abelian4", _pair(*([0, 0, 0, 0, p[k]]
                                   for k in ("alpha", "beta", "gamma", "delta")))
    if name == "dim4_abelian_case2":
        if a * d == b * c:
            raise ConstraintViolatedError("dim4_abelian_case2 needs ad != bc")
        return "abelian4_w0", _pair([0, 0, a, b, p["alpha"]], [0, 0, c, d, p["beta"]],
                                    [0] * 5, [0] * 5)
    if name == "dim4_abelian_case3":
        if not a:
            raise ConstraintViolatedError("dim4_abelian_case3 needs a != 0")
        return "abelian4_w0", _pair([0, 0, 0, a, p["alpha"]], [0, 0, 0, 0, p["beta"]],
                                    [0, 0, 0, 0, p["gamma"]], [0] * 5)
    if name == "dim4_abelian_case4":
        if not a:
            raise ConstraintViolatedError("dim4_abelian_case4 needs a != 0")
        return "abelian4", _pair([0, 0, 0, a, p["alpha"]], [0] * 5,
                                 [0, 0, 0, 0, p["beta"]], [0] * 5)
    if name == "dim4_nonabelian_family1":
        return "r_h3_dim4", _pair([0] * 5, [0] * 5, [a, b, 0, 0, p["alpha"]],
                                  [c, d, 0, 0, p["beta"]])
    if not c:
        raise ConstraintViolatedError("dim4_nonabelian_family2 needs c != 0")
    return "r_h3_dim4", _pair([0, 0, 0, 0, -9 * c * d], [0] * 5, [a, b, 0, c, p["x"]],
                              [0, d, 0, 0, 9 * d * (a + d)])


def _pair(*rows) -> AdmissiblePair:
    """The pair whose [xi | b0] has these rows, put over one denominator."""
    den, nums = integral([x for row in rows for x in row])
    it = iter(nums)
    return AdmissiblePair.from_integral(den, [[next(it) for _ in row] for row in rows])


def family_parameter_grid(name: str) -> tuple:
    """Deterministic parameter sweep for a family, as dicts.

    The two-parameter families get their full Cartesian grid; larger
    families use axis sweeps plus fixed mixed tuples so the whole sweep
    stays fast while still reaching every isomorphism class.
    """
    if name not in _FAMILY_KEYS:
        raise UnknownNameError(
            f"unknown family {name!r}; available: {', '.join(family_names())}")
    out = []
    if name == "dim2_trivial":
        for alpha in STANDARD_GRID:
            for beta in STANDARD_GRID:
                out.append({"alpha": alpha, "beta": beta})
    elif name == "dim2_nilpotent":
        for a in NONZERO_GRID:
            for alpha in STANDARD_GRID:
                out.append({"a": a, "alpha": alpha})
    elif name == "dim4_abelian_case1":
        keys = _FAMILY_KEYS[name]
        out.append(dict.fromkeys(keys, ZERO))
        for k in keys:
            for v in NONZERO_GRID:
                point = dict.fromkeys(keys, ZERO)
                point[k] = v
                out.append(point)
        for tup in ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1),
                    (1, 0, 0, 1), (1, -2, 3, Q(-1, 2))):
            out.append(dict(zip(keys, map(as_q, tup))))
    elif name == "dim4_abelian_case2":
        i = 0
        for a in _SMALL:
            for b in _SMALL:
                for c in _SMALL:
                    for d in _SMALL:
                        if a * d == b * c:
                            continue
                        alpha, beta = _PAIR_CYCLE[i % len(_PAIR_CYCLE)]
                        i += 1
                        out.append({"a": a, "b": b, "c": c, "d": d,
                                    "alpha": alpha, "beta": beta})
        out.append({"a": ONE, "b": ZERO, "c": ZERO, "d": ONE,
                    "alpha": ZERO, "beta": ZERO})
        out.append({"a": ONE, "b": ZERO, "c": ZERO, "d": ONE,
                    "alpha": ZERO, "beta": ONE})
    elif name == "dim4_abelian_case3":
        triples = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                   (1, 1, 0), (0, 1, -2), (Q(1, 2), -1, 3))
        for a in NONZERO_GRID:
            for alpha, beta, gamma in triples:
                out.append({"a": a, "alpha": as_q(alpha),
                            "beta": as_q(beta), "gamma": as_q(gamma)})
    elif name == "dim4_abelian_case4":
        for a in NONZERO_GRID:
            for alpha, beta in _PAIR_CYCLE:
                out.append({"a": a, "alpha": alpha, "beta": beta})
    elif name == "dim4_nonabelian_family1":
        i = 0
        for a in _SMALL:
            for b in _SMALL:
                for c in _SMALL:
                    for d in _SMALL:
                        alpha, beta = _PAIR_CYCLE[i % len(_PAIR_CYCLE)]
                        i += 1
                        out.append({"a": a, "b": b, "c": c, "d": d,
                                    "alpha": alpha, "beta": beta})
    else:
        tuples = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                  (0, 0, 0, 1), (1, -1, Q(1, 2), 0), (2, 1, -1, 3),
                  (Q(-1, 2), 0, 2, 1))
        for c in NONZERO_GRID:
            for a, b, d, x in tuples:
                out.append({"a": as_q(a), "b": as_q(b), "c": c,
                            "d": as_q(d), "x": as_q(x)})
    return tuple(out)
