#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of the package.

    python3 scripts/src_lines.py            # src/symplie/*.py of this checkout
    python3 scripts/src_lines.py FILE...    # the given files

Each physical line gets one kind, read off the tokens of the file: a
line that holds any token other than a comment or a docstring is code; a
line inside a docstring (a string literal that is a statement by itself)
is a docstring line; a line holding only a comment is a comment line;
the rest are blank.  Prints one row per file and a total row, and the
total as JSON on the last line.
"""

from __future__ import annotations

import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
# tokens that carry no code of their own
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def count(source: str) -> dict:
    """{kind: number of lines} for one Python source text."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    kind = {}
    # a statement starts after a NEWLINE, INDENT or DEDENT (or at the top)
    starts = True
    for k, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type in LAYOUT:
            starts = starts or tok.type != tokenize.NL
            continue
        if tok.type == tokenize.COMMENT:
            for n in lines:
                kind.setdefault(n, "comment")
            continue
        j = k + 1
        while tokens[j].type == tokenize.COMMENT:
            j += 1
        doc = (tok.type == tokenize.STRING and starts
               and tokens[j].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        for n in lines:
            if not doc or kind.get(n) != "code":
                kind[n] = "docstring" if doc else "code"
        starts = False
    out = dict.fromkeys(KINDS, 0)
    for n in range(1, len(source.splitlines()) + 1):
        out[kind.get(n, "blank")] += 1
    return out


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    paths = paths or sorted((ROOT / "src" / "symplie").glob("*.py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<28}" + "".join(f"{k:>10}" for k in KINDS) + f"{'total':>10}")
    for path in paths:
        got = count(path.read_text())
        for k in KINDS:
            total[k] += got[k]
        print(f"{path.name:<28}" + "".join(f"{got[k]:>10}" for k in KINDS)
              + f"{sum(got.values()):>10}")
    print(f"{'total':<28}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
