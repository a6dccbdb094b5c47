"""The line counts of scripts/src_lines.py on a fixture source."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring
over two lines."""

# a comment line
import math  # a trailing comment keeps the line code


def f(x):
    """One-line docstring."""
    # a comment inside
    s = """a string that is
    part of an assignment"""

    return math.sqrt(x) + len(s)


class C:
    # a comment before the docstring
    """Class docstring."""
    "a second bare string"
    value = ("tuple",
             "of strings")
'''


def test_fixture_counts():
    assert src_lines.count(FIXTURE) == {"code": 8, "docstring": 5, "comment": 3, "blank": 6}
    assert sum(src_lines.count(FIXTURE).values()) == len(FIXTURE.splitlines())


def test_empty_and_comment_only():
    assert src_lines.count("") == dict.fromkeys(src_lines.KINDS, 0)
    assert src_lines.count("# only\n\n") == {"code": 0, "docstring": 0, "comment": 1, "blank": 1}


def test_package_total_is_every_line(capsys):
    assert src_lines.main([]) == 0
    total = json.loads(capsys.readouterr().out.splitlines()[-1])
    files = sorted((ROOT / "src" / "symplie").glob("*.py"))
    assert sum(total.values()) == sum(len(p.read_text().splitlines()) for p in files)
