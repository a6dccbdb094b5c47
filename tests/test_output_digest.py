"""A fast smoke test of scripts/output_digest.py on one catalog entry."""

import importlib.util
import json
import random
import re
from pathlib import Path

from symplie import catalog, cli
from symplie.documents import algebra_to_document, document_to_algebra

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "output_digest", ROOT / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def digests(monkeypatch, where: Path) -> dict:
    where.mkdir()
    monkeypatch.chdir(where)
    return output_digest.run_all(cli, catalog, ["r_h3_dim4"], 1, 2)


def test_one_entry(monkeypatch, tmp_path):
    first = digests(monkeypatch, tmp_path / "first")
    assert list(first) == [*output_digest.GROUPS, "overall"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", v) for v in first.values())
    assert digests(monkeypatch, tmp_path / "second") == first


def test_dense_document_is_the_same_algebra():
    entry = catalog.get("g6_3")
    doc = json.loads(json.dumps(algebra_to_document(entry.algebra)))
    moved = output_digest.dense_document(doc, random.Random(1))
    s, _ = document_to_algebra(moved)
    assert s.dim == 6 and s.is_flat
    assert catalog.classify_upto6(s) == "g6_3"
    assert moved["brackets"] != doc["brackets"]


# run_all(cli, catalog, ["r_h3_dim4"], 1, 2)["overall"] before elimination
# moved to integer rows; the same under any PYTHONHASHSEED and directory
GOLDEN_OVERALL = "194a0a369dfc88d22da45073064a610be319b8a31e2bd5ce1d743a93e7d71c0e"


def test_golden_overall(monkeypatch, tmp_path):
    assert digests(monkeypatch, tmp_path / "golden")["overall"] == GOLDEN_OVERALL


# run_all(cli, catalog, ["g6_3"], 1, 2)["overall"] before the reduction path
# moved to integer rows: reduce --auto through a 3-step tower in a dense
# basis; the same under any PYTHONHASHSEED and directory
GOLDEN_G6_3 = "b920ed19c694559488323f81705a1499e3688baa6d9333eb7c185c925e4a294b"


def test_golden_g6_3_tower(monkeypatch, tmp_path):
    where = tmp_path / "g6_3"
    where.mkdir()
    monkeypatch.chdir(where)
    assert output_digest.run_all(cli, catalog, ["g6_3"], 1, 2)["overall"] == GOLDEN_G6_3
