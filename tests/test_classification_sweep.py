"""scripts/classification_sweep.py: the --json lines and the text table
on one family, against the session sweep."""

import importlib.util
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from symplie.catalog import fingerprint
from symplie.rationals import qstr

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "classification_sweep", ROOT / "scripts" / "classification_sweep.py")
classification_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(classification_sweep)

FAMILY = "dim2_nilpotent"


def test_json_lines(family_sweep, capsys):
    assert classification_sweep.main(["--family", FAMILY, "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    points = family_sweep[FAMILY]
    assert len(records) == len(points) == 56
    for record, (params, _, ext, cls) in zip(records, points):
        assert set(record) == {"family", "params", "class", "fingerprint", "wall_ms"}
        assert record["family"] == FAMILY
        assert record["params"] == {k: qstr(v) for k, v in params.items()}
        assert record["class"] == cls
        assert record["fingerprint"] == json.loads(json.dumps(asdict(fingerprint(ext))))
        assert record["wall_ms"] > 0


def test_text_table(family_sweep, capsys):
    assert classification_sweep.main(["--family", FAMILY]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = Counter(cls for *_, cls in family_sweep[FAMILY])
    classes = sorted(counts)
    assert lines[0].split() == ["family", "points", *classes]
    assert set(lines[1]) == {"-"} and len(lines[1]) == len(lines[0])
    assert lines[2].split() == [FAMILY, "56", *(str(counts[c]) for c in classes)]
    assert lines[3] == ""
    assert lines[4].startswith("56 extensions in ")
    assert lines[4].endswith("s; classes reached: " + ", ".join(classes))
