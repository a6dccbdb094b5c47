"""JSON interchange for algebras, extension pairs, and towers.

An algebra document looks like

    {
      "dim": 4,
      "basis": ["x1", "x2", "x3", "x4"],
      "brackets": [{"u": "x1", "v": "x2", "value": {"x3": "1"}}],
      "omega": [{"u": "x1", "v": "x4", "value": "1"},
                {"u": "x2", "v": "x3", "value": "1"}],
      "meta": {"name": "r_h3_dim4"}
    }

All coefficients are exact rational strings.  Reading an algebra
document builds no scalar: each literal becomes the (num, den) ints of
:func:`rationals.parse_literal`, the bracket's and omega's literals are
each put over one common denominator, and the numerators go to
:meth:`LieAlgebra.from_integral` and :meth:`SkewForm.from_integral`; a
pair document's xi and b0 literals go over one common denominator to
:meth:`AdmissiblePair.from_integral`.  Writing reads the same numerators.

Serialization is canonical: bracket and omega entries are sorted by
basis index with u before v, zero entries are dropped, and the writer
always produces two-space indented JSON with a trailing newline, so
documents written by this module round-trip byte for byte.
"""

from __future__ import annotations

import json
import sys
from math import lcm
from typing import Mapping, Sequence

from .errors import SymplieError
from .extension import AdmissiblePair
from .lie import LieAlgebra
from .rationals import RationalSyntaxError, parse_literal, qstr, rational
from .symplectic import (SkewForm, SymplecticLieAlgebra, validate_symplectic)


# largest dimension a document may declare; checked before anything is
# built, since an algebra allocates dim^3 table entries
MAX_DIM = 16


class DocumentError(SymplieError, ValueError):
    """A document is malformed; the message names the offending field."""


def _fail(path: str, message: str):
    raise DocumentError(f"{path}: {message}")


def _require_dict(obj, path: str, allowed: set, required: set) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    missing = required - set(obj)
    if missing:
        _fail(path, f"missing field(s) {sorted(missing)}")
    extra = set(obj) - allowed
    if extra:
        _fail(path, f"unknown field(s) {sorted(extra)}")
    return obj


def field_literal(text, path: str) -> tuple:
    """The (num, den) ints of a rational string, by :func:`parse_literal`;
    an error names path, the field or option the string came from."""
    if not isinstance(text, str):
        _fail(path, f"expected a rational string, got {type(text).__name__}")
    try:
        return parse_literal(text)
    except RationalSyntaxError as exc:
        _fail(path, str(exc))


def _over_lcm(literals) -> tuple:
    """(den, nums): the (num, den) literals as numerators over the lcm of
    their denominators."""
    den = lcm(1, *(d for _, d in literals))
    return den, [x * (den // d) for x, d in literals]


# ---------------------------------------------------------------------------
# algebra documents

def algebra_to_document(s: SymplecticLieAlgebra,
                        meta: Mapping | None = None) -> dict:
    """The canonical document of s, written from the int numerators of
    its bracket and Gram matrix: each nonzero entry with i < j becomes
    one rational string."""
    names = s.basis_names
    n = s.dim
    bden, rows = s.algebra.bracket_tensor.integral
    brackets = [{"u": names[i], "v": names[j],
                 "value": {names[k]: qstr(rational(x, bden)) for k, x in rows[i][j]}}
                for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    wden, gram = s.form.integral
    omega = [{"u": names[i], "v": names[j], "value": qstr(rational(x, wden))}
             for i in range(n) for j, x in gram[i] if j > i]
    doc = {"dim": n, "basis": list(names), "brackets": brackets, "omega": omega}
    if meta:
        doc["meta"] = dict(meta)
    return doc


def document_to_parts(doc) -> tuple:
    """(LieAlgebra, SkewForm, meta) with structural checks only.

    The symplectic axioms themselves are not checked here, so callers
    can report every violation instead of failing on the first.
    """
    doc = _require_dict(doc, "document",
                        {"dim", "basis", "brackets", "omega", "meta"},
                        {"dim", "basis", "brackets", "omega"})
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        _fail("dim", "expected a nonnegative integer")
    if dim > MAX_DIM:
        _fail("dim", f"{dim} exceeds the limit of {MAX_DIM}")
    basis = doc["basis"]
    if (not isinstance(basis, list)
            or any(not isinstance(b, str) or not b for b in basis)):
        _fail("basis", "expected a list of nonempty strings")
    if len(basis) != dim:
        _fail("basis", f"has {len(basis)} names but dim is {dim}")
    if len(set(basis)) != dim:
        _fail("basis", "names must be unique")
    index = {name: k for k, name in enumerate(basis)}

    def edge(item, path):
        _require_dict(item, path, {"u", "v", "value"}, {"u", "v", "value"})
        for field in ("u", "v"):
            if item[field] not in index:
                _fail(f"{path}.{field}", f"unknown basis name {item[field]!r}")
        i, j = index[item["u"]], index[item["v"]]
        if i >= j:
            _fail(path, "u must come before v in the basis")
        return i, j

    if not isinstance(doc["brackets"], list):
        _fail("brackets", "expected a list")
    # bracket (i, j) -> its nonzero (k, (num, den)), k increasing
    cells = {}
    for pos, item in enumerate(doc["brackets"]):
        path = f"brackets[{pos}]"
        i, j = edge(item, path)
        if (i, j) in cells:
            _fail(path, f"duplicate bracket for ({item['u']}, {item['v']})")
        value = item["value"]
        if not isinstance(value, dict):
            _fail(f"{path}.value", "expected an object of coefficients")
        cell = []
        for name, text in value.items():
            if name not in index:
                _fail(f"{path}.value.{name}", "unknown basis name")
            c = field_literal(text, f"{path}.value.{name}")
            if c[0]:
                cell.append((index[name], c))
        cells[(i, j)] = sorted(cell)

    if not isinstance(doc["omega"], list):
        _fail("omega", "expected a list")
    omega = {}
    for pos, item in enumerate(doc["omega"]):
        path = f"omega[{pos}]"
        i, j = edge(item, path)
        if (i, j) in omega:
            _fail(path, f"duplicate omega entry for ({item['u']}, {item['v']})")
        omega[(i, j)] = field_literal(item["value"], f"{path}.value")

    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        _fail("meta", "expected an object")
    bden, nums = _over_lcm([c for cell in cells.values() for _, c in cell])
    it = iter(nums)
    algebra = LieAlgebra.from_integral(basis, bden, {
        ij: tuple((k, next(it)) for k, _ in cell) for ij, cell in cells.items()})
    wden, nums = _over_lcm(omega.values())
    gram = [[0] * dim for _ in range(dim)]
    for (i, j), x in zip(omega, nums):
        gram[i][j], gram[j][i] = x, -x
    return algebra, SkewForm.from_integral(wden, gram), dict(meta)


def document_to_algebra(doc) -> tuple:
    """(SymplecticLieAlgebra, meta); raises if the axioms fail."""
    algebra, form, meta = document_to_parts(doc)
    return validate_symplectic(algebra, form), meta


# ---------------------------------------------------------------------------
# pair and tower documents

def pair_to_document(pair: AdmissiblePair) -> dict:
    den, rows = pair.integral
    text = [[qstr(rational(x, den)) for x in row] for row in rows]
    return {"base_dim": pair.base_dim, "xi": [row[:-1] for row in text],
            "b0": [row[-1] for row in text]}


def literals_to_pair(xi, b0) -> AdmissiblePair:
    """The pair with these (num, den) literals as xi's rows and b0, over one lcm."""
    den, nums = _over_lcm([c for row, b in zip(xi, b0) for c in (*row, b)])
    it, n = iter(nums), len(b0)
    return AdmissiblePair.from_integral(den, [[next(it) for _ in range(n + 1)] for _ in b0])


def document_to_pair(doc) -> AdmissiblePair:
    doc = _require_dict(doc, "pair", {"base_dim", "xi", "b0"},
                        {"base_dim", "xi", "b0"})
    n = doc["base_dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        _fail("base_dim", "expected a nonnegative integer")
    if n > MAX_DIM:
        _fail("base_dim", f"{n} exceeds the limit of {MAX_DIM}")
    xi = doc["xi"]
    if not isinstance(xi, list) or len(xi) != n:
        _fail("xi", f"expected {n} rows")
    rows = []
    for r, row in enumerate(xi):
        if not isinstance(row, list) or len(row) != n:
            _fail(f"xi[{r}]", f"expected {n} entries")
        rows.append([field_literal(x, f"xi[{r}][{c}]") for c, x in enumerate(row)])
    b0 = doc["b0"]
    if not isinstance(b0, list) or len(b0) != n:
        _fail("b0", f"expected {n} entries")
    return literals_to_pair(rows, [field_literal(x, f"b0[{k}]") for k, x in enumerate(b0)])


def tower_to_document(pairs: Sequence[AdmissiblePair]) -> dict:
    """Tower document; steps are listed innermost first."""
    return {"steps": [pair_to_document(p) for p in pairs]}


def document_to_tower(doc) -> list:
    doc = _require_dict(doc, "tower", {"steps"}, {"steps"})
    if not isinstance(doc["steps"], list):
        _fail("steps", "expected a list")
    pairs = []
    for k, step in enumerate(doc["steps"]):
        try:
            pairs.append(document_to_pair(step))
        except DocumentError as exc:
            raise DocumentError(f"steps[{k}].{exc}") from None
    expected = 0
    for k, pair in enumerate(pairs):
        if pair.base_dim != expected:
            _fail(f"steps[{k}]",
                  f"base_dim {pair.base_dim} but the tower is at dimension {expected}")
        expected += 2
    return pairs


# ---------------------------------------------------------------------------
# text form

def dumps_document(doc: Mapping) -> str:
    return json.dumps(doc, indent=2) + "\n"


def parse_document(text: str, option: str = "") -> dict:
    """The JSON value of text; an error names the option the text came
    from, when one is given, as in ``--xi: not valid JSON: ...``."""
    where = f"{option}: not valid JSON" if option else "not valid JSON"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{where}: {exc}") from None
    except ValueError:  # a number over the interpreter's int-string limit
        raise DocumentError(f"{where}: a number exceeds the limit of "
                            f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise DocumentError(f"{where}: nested too deeply") from None
