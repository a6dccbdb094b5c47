"""The verify path over int numerators, against the scalar code it replaced.

document_to_parts reads each literal as (num, den) ints and builds the
bracket and the form from numerators; fraction_document_to_parts in
oracles.py is the scalar parse it replaced.  The structural report tests
left-kernel membership on the kernel it computed and takes H from W^-1's
numerators, and SkewForm.is_nondegenerate reads the one inversion of W.
"""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_document_to_parts
from symplie import cli, linalg
from symplie.documents import (DocumentError, algebra_to_document, document_to_parts,
                               dumps_document)
from symplie.linalg import Matrix, ProductTensor, inverse
from symplie.extension import reduction_tower
from symplie.symplectic import SkewForm, change_of_basis, h_vector
from test_sparse_kernels import dense_bases, dense_change_of_basis


def parts_key(parts) -> tuple:
    algebra, form, meta = parts
    return algebra.basis_names, algebra.bracket_tensor.integral, form.integral, meta


def assert_parse_matches(doc, label=None):
    assert parts_key(document_to_parts(doc)) == parts_key(fraction_document_to_parts(doc)), label


def test_every_catalog_document(entries):
    for name, entry in entries.items():
        assert_parse_matches(algebra_to_document(entry.algebra, meta={"name": name}), name)


def test_dense_documents(entries):
    bases = dense_bases(entries)
    assert len(bases) == 36
    for label, s in bases:
        assert_parse_matches(algebra_to_document(s), label)


# signed, zero and non-lowest-terms literals, with and without a denominator
LITERALS = st.one_of(
    st.sampled_from(["2/4", "+3", "-0", "0/7", "-6/4", "+0/3", "12/8"]),
    st.builds(lambda sign, num, den: f"{sign}{num}" + (f"/{den}" if den else ""),
              st.sampled_from(["", "+", "-"]), st.integers(0, 30),
              st.one_of(st.none(), st.integers(1, 24))))


@st.composite
def documents(draw):
    dim = draw(st.integers(0, 5))
    names = draw(st.permutations([f"x{k}" for k in range(dim)]))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    edges = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    brackets = []
    for i, j in draw(edges):
        # a value object lists its keys in any order
        keys = draw(st.permutations(names))[:draw(st.integers(0, dim))]
        brackets.append({"u": names[i], "v": names[j],
                         "value": {k: draw(LITERALS) for k in keys}})
    omega = [{"u": names[i], "v": names[j], "value": draw(LITERALS)} for i, j in draw(edges)]
    doc = {"dim": dim, "basis": list(names), "brackets": brackets, "omega": omega}
    if draw(st.booleans()):
        doc["meta"] = {"name": "drawn"}
    return doc


@settings(max_examples=150, deadline=None)
@given(documents())
def test_drawn_documents(doc):
    assert_parse_matches(doc)


@pytest.mark.parametrize("literal, message", [
    ("1.5", "not a rational literal: '1.5'"),
    ("", "not a rational literal: ''"),
    (" 1", "not a rational literal: ' 1'"),
    ("1/-2", "not a rational literal: '1/-2'"),
    ("1/0", "zero denominator: '1/0'"),
    ("-0/00", "zero denominator: '-0/00'"),
    (7, "expected a rational string, got int"),
    (None, "expected a rational string, got NoneType"),
])
@pytest.mark.parametrize("where, path", [("bracket", "brackets[0].value.x1"),
                                         ("omega", "omega[0].value")])
def test_malformed_literal_messages(literal, message, where, path):
    doc = {"dim": 2, "basis": ["x1", "x2"],
           "brackets": [{"u": "x1", "v": "x2", "value": {"x2": "1"}}],
           "omega": [{"u": "x1", "v": "x2", "value": "1"}]}
    if where == "bracket":
        doc["brackets"][0]["value"]["x1"] = literal
    else:
        doc["omega"][0]["value"] = literal
    for parse in (document_to_parts, fraction_document_to_parts):
        with pytest.raises(DocumentError) as info:
            parse(doc)
        assert str(info.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# verify on a dense document

def dense_g6_3_document(entries, tmp_path) -> tuple:
    """(path, algebra) of g6_3 in a seeded dense basis."""
    rng = random.Random("integer parse g6_3")
    s = change_of_basis(entries["g6_3"].algebra, dense_change_of_basis(rng, 6))
    path = tmp_path / "g6_3_dense.json"
    path.write_text(dumps_document(algebra_to_document(s)))
    return str(path), s


def test_verify_derives_no_scalar_view(entries, tmp_path, capsys, monkeypatch):
    path, _ = dense_g6_3_document(entries, tmp_path)

    def refuse(name):
        def get(self):
            raise AssertionError(f"verify derived the scalar {name}")
        return property(get)

    monkeypatch.setattr(ProductTensor, "table", refuse("table"))
    monkeypatch.setattr(ProductTensor, "associators", refuse("associators"))
    monkeypatch.setattr(Matrix, "entries", refuse("matrix entries"))
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "flat: yes" in out and "FAIL" not in out


def test_verify_eliminates_the_gram_matrix_once(entries, tmp_path, capsys, monkeypatch):
    """verify eliminates its document's Gram matrix once, and reduce --auto
    each Gram matrix of the tower once: the input's and each base's, whose
    one int_inverse the split, the base's flatness check and _pair_rows
    share.  The zero-dimensional base is left out, as an elimination of no
    rows cannot be told apart from another."""
    path, s = dense_g6_3_document(entries, tmp_path)
    grams = [[list(row) for row in t.form.matrix.integral[1]]
             for t in [s] + [step.base for step in reduction_tower(s)] if t.dim]
    assert [len(gram) for gram in grams] == [6, 4, 2]
    calls = []
    original = linalg._rref_rows

    def counting(rows, ncols):
        calls.append([list(row) for row in rows])
        return original(rows, ncols)

    def eliminations(gram):
        return sum([row[:len(gram)] for row in rows] == gram for rows in calls)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    assert cli.main(["verify", path]) == 0
    assert eliminations(grams[0]) == 1
    calls.clear()
    assert cli.main(["reduce", "--base", path, "--auto"]) == 0
    capsys.readouterr()
    assert [eliminations(gram) for gram in grams] == [1, 1, 1]


# ---------------------------------------------------------------------------
# nondegeneracy and H

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(-2, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_nondegenerate_matches_rank(case):
    n, upper = case
    rows = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(it)
            rows[j][i] = -rows[i][j]
    form = SkewForm.from_integral(3, rows)
    assert form.is_nondegenerate() == (sympy.Matrix(n, n, sum(rows, [])).rank() == n)


def test_h_vector_is_the_dual_of_the_traces(entries):
    cases = [(name, e.algebra) for name, e in entries.items()] + dense_bases(entries)
    for label, s in cases:
        dual = -inverse(s.form.matrix)
        assert h_vector(s) == dual.apply(s.algebra.trace_character()), label
