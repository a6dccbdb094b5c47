import re
from pathlib import Path

import pytest

from symplie.documents import (MAX_DIM, DocumentError, algebra_to_document,
                               document_to_algebra, document_to_pair,
                               document_to_parts, document_to_tower,
                               dumps_document, pair_to_document,
                               parse_document, tower_to_document)
from symplie.extension import AdmissiblePair, reduction_tower, tower_pairs
from symplie.lie import LieAlgebra
from symplie.linalg import Matrix
from symplie.rationals import Q
from symplie.symplectic import InvalidSymplecticError


def sample_doc():
    return {
        "dim": 4,
        "basis": ["x1", "x2", "x3", "x4"],
        "brackets": [{"u": "x1", "v": "x2", "value": {"x3": "1"}}],
        "omega": [{"u": "x1", "v": "x4", "value": "1"},
                  {"u": "x2", "v": "x3", "value": "1"}],
    }


class TestAlgebraDocuments:
    def test_parse_sample(self):
        s, meta = document_to_algebra(sample_doc())
        assert s.dim == 4
        assert s.basis_names == ("x1", "x2", "x3", "x4")
        assert s.algebra.table[0][1] == (Q(0), Q(0), Q(1), Q(0))
        assert s.form.pair((1, 0, 0, 0), (0, 0, 0, 1)) == Q(1)
        assert meta == {}

    def test_round_trip_every_entry(self, entries):
        for name, entry in entries.items():
            doc = algebra_to_document(entry.algebra, meta={"name": name})
            text = dumps_document(doc)
            reparsed = parse_document(text)
            s, meta = document_to_algebra(reparsed)
            assert s.algebra == entry.algebra.algebra, name
            assert s.form == entry.algebra.form, name
            assert meta == {"name": name}
            assert dumps_document(reparsed) == text, name

    def test_serialization_is_canonical(self, entries):
        doc = algebra_to_document(entries["g6_3"].algebra)
        pairs = [(item["u"], item["v"]) for item in doc["brackets"]]
        assert pairs == sorted(pairs)
        assert "meta" not in doc

    def test_zero_coefficients_dropped(self):
        doc = sample_doc()
        doc["brackets"][0]["value"]["x4"] = "0"
        s, _ = document_to_algebra(doc)
        assert s.algebra.table[0][1] == (Q(0), Q(0), Q(1), Q(0))

    def test_axioms_checked(self):
        doc = sample_doc()
        doc["omega"] = [{"u": "x1", "v": "x2", "value": "1"},
                        {"u": "x3", "v": "x4", "value": "1"}]
        document_to_parts(doc)  # structurally fine
        with pytest.raises(InvalidSymplecticError):
            document_to_algebra(doc)  # but not closed


class TestReadmeDocuments:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def json_blocks(self):
        text = self.README.read_text()
        return re.findall(r"```json\n(.*?)```", text, re.S)

    def test_every_example_parses(self):
        blocks = self.json_blocks()
        assert len(blocks) >= 2
        for block in blocks:
            document_to_algebra(parse_document(block))

    def test_bracket_example(self):
        block = next(b for b in self.json_blocks() if '"value": {' in b)
        s, _ = document_to_algebra(parse_document(block))
        assert s.algebra.table[0][1] == (Q(0), Q(0), Q(1), Q(0))
        assert s.is_flat


class TestAlgebraDocumentErrors:
    def assert_fails(self, doc, fragment):
        with pytest.raises(DocumentError) as info:
            document_to_parts(doc)
        assert fragment in str(info.value)

    def test_not_an_object(self):
        self.assert_fails([], "document: expected an object")

    def test_missing_fields(self):
        self.assert_fails({"dim": 2}, "missing field(s)")

    def test_unknown_fields(self):
        doc = sample_doc()
        doc["extra"] = 1
        self.assert_fails(doc, "unknown field(s) ['extra']")

    def test_bad_dim(self):
        for bad in (-1, "4", True, 2.0):
            doc = sample_doc()
            doc["dim"] = bad
            self.assert_fails(doc, "dim: expected a nonnegative integer")

    def test_basis_mismatch(self):
        doc = sample_doc()
        doc["basis"] = ["x1", "x2", "x3"]
        self.assert_fails(doc, "basis: has 3 names but dim is 4")

    def test_duplicate_basis_names(self):
        doc = sample_doc()
        doc["basis"] = ["x1", "x1", "x3", "x4"]
        self.assert_fails(doc, "basis: names must be unique")

    def test_unknown_basis_name_in_bracket(self):
        doc = sample_doc()
        doc["brackets"][0]["u"] = "y9"
        self.assert_fails(doc, "brackets[0].u: unknown basis name 'y9'")

    def test_wrong_order(self):
        doc = sample_doc()
        doc["brackets"][0]["u"], doc["brackets"][0]["v"] = "x2", "x1"
        self.assert_fails(doc, "brackets[0]: u must come before v")

    def test_duplicate_bracket(self):
        doc = sample_doc()
        doc["brackets"].append(dict(doc["brackets"][0]))
        self.assert_fails(doc, "brackets[1]: duplicate bracket")

    def test_bad_coefficient(self):
        doc = sample_doc()
        doc["brackets"][0]["value"] = {"x3": "1.5"}
        self.assert_fails(doc, "brackets[0].value.x3")

    def test_non_string_coefficient(self):
        doc = sample_doc()
        doc["omega"][0]["value"] = 1
        self.assert_fails(doc, "omega[0].value: expected a rational string")

    def test_duplicate_omega(self):
        doc = sample_doc()
        doc["omega"].append(dict(doc["omega"][0]))
        self.assert_fails(doc, "omega[2]: duplicate omega entry")

    def test_bad_meta(self):
        doc = sample_doc()
        doc["meta"] = "notes"
        self.assert_fails(doc, "meta: expected an object")

    def test_parse_document_rejects_bad_json(self):
        # the second is a number over the interpreter's int-string limit
        for text in ("{not json", '{"dim": ' + "9" * 5000 + "}"):
            with pytest.raises(DocumentError) as info:
                parse_document(text)
            assert "not valid JSON" in str(info.value)
        assert str(info.value).endswith(": a number exceeds the limit of 4300 digits")


class TestPairDocuments:
    def test_round_trip(self):
        pair = AdmissiblePair(Matrix.from_rows([[0, "1/2"], [0, 0]]), (1, 0))
        doc = pair_to_document(pair)
        assert doc == {"base_dim": 2, "xi": [["0", "1/2"], ["0", "0"]],
                       "b0": ["1", "0"]}
        assert document_to_pair(doc) == pair

    def test_zero_dim_pair(self):
        pair = AdmissiblePair(Matrix.zeros(0, 0), ())
        assert document_to_pair(pair_to_document(pair)) == pair

    def test_errors(self):
        with pytest.raises(DocumentError, match="base_dim"):
            document_to_pair({"base_dim": -1, "xi": [], "b0": []})
        with pytest.raises(DocumentError, match=r"xi: expected 2 rows"):
            document_to_pair({"base_dim": 2, "xi": [["0", "0"]],
                              "b0": ["0", "0"]})
        with pytest.raises(DocumentError, match=r"xi\[1\]\[0\]"):
            document_to_pair({"base_dim": 2,
                              "xi": [["0", "0"], ["oops", "0"]],
                              "b0": ["0", "0"]})
        with pytest.raises(DocumentError, match=r"b0: expected 2 entries"):
            document_to_pair({"base_dim": 2, "xi": [["0", "0"], ["0", "0"]],
                              "b0": ["0"]})


class TestTowerDocuments:
    def test_round_trip_from_reduction(self, entries):
        pairs = tower_pairs(reduction_tower(entries["g6_2"].algebra))
        doc = tower_to_document(pairs)
        assert [step["base_dim"] for step in doc["steps"]] == [0, 2, 4]
        assert document_to_tower(doc) == pairs
        text = dumps_document(doc)
        assert dumps_document(parse_document(text)) == text

    def test_dimension_ladder_enforced(self):
        doc = tower_to_document([AdmissiblePair(Matrix.zeros(0, 0), ())])
        doc["steps"].append(dict(doc["steps"][0]))
        with pytest.raises(DocumentError) as info:
            document_to_tower(doc)
        assert "steps[1]" in str(info.value)
        assert "the tower is at dimension 2" in str(info.value)

    def test_step_errors_are_indexed(self):
        doc = {"steps": [{"base_dim": 0, "xi": [], "b0": [], "oops": 1}]}
        with pytest.raises(DocumentError, match=r"steps\[0\]"):
            document_to_tower(doc)


class TestNestedJson:
    def test_parse_document_rejects_deep_nesting(self):
        with pytest.raises(DocumentError) as info:
            parse_document("[" * 3000)
        assert "nested too deeply" in str(info.value)


class TestOversizedDocuments:
    """dim and base_dim above MAX_DIM fail before anything is allocated."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized document reached a constructor")
        for cls, name in ((Matrix, "zeros"), (Matrix, "from_rows"),
                          (LieAlgebra, "from_sparse")):
            monkeypatch.setattr(cls, name, refuse)

    def test_algebra_dim(self, nothing_built):
        doc = {"dim": 1000000, "basis": [], "brackets": [], "omega": []}
        with pytest.raises(DocumentError,
                           match="dim: 1000000 exceeds the limit of 16"):
            document_to_parts(doc)

    def test_pair_base_dim(self, nothing_built):
        with pytest.raises(DocumentError,
                           match="base_dim: 1000000 exceeds the limit of 16"):
            document_to_pair({"base_dim": 1000000, "xi": [], "b0": []})

    def test_the_limit_itself_is_accepted(self):
        names = [f"x{k}" for k in range(MAX_DIM)]
        doc = {"dim": MAX_DIM, "basis": names, "brackets": [], "omega": []}
        assert document_to_parts(doc)[0].dim == MAX_DIM
