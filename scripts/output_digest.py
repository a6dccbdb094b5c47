#!/usr/bin/env python3
"""Fingerprint everything the CLI prints and writes, to show that a change
leaves the output byte for byte as it was.

    python3 scripts/output_digest.py                      # this checkout
    python3 scripts/output_digest.py --src OTHER/src      # another checkout

Every command runs in process through ``symplie.cli.main`` inside a
scratch directory, with relative file names, so the record of a command
(its argv, exit code, stdout, stderr and the bytes of each file it
writes) does not depend on where it runs.  The command set:

- ``catalog export`` of every catalog entry;
- on each catalog entry and on DENSE seeded dense bases of every
  entry of dimension >= 2: ``verify`` with ``--report`` all, flat and
  structure, ``classify``, ``reduce --auto``, and one ``reduce`` step
  with ``--out`` and ``--pair-out``;
- ``extend --pair`` on every family grid point, over the catalog base;
- ``verify`` and ``classify`` on every algebra document written above.

The dense inputs are made here with plain ``fractions`` arithmetic from
the exported documents, not through symplie.  The script prints one
sha256 per command group and one over all groups; two checkouts that
print the same overall digest produced the same output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DENSE = 5
GROUPS = ("export", "verify", "classify", "reduce", "extend", "documents")


# ---------------------------------------------------------------------------
# dense bases in plain fractions

def _inverse(t: list):
    """The inverse of a square Fraction matrix, or None when singular."""
    n = len(t)
    rows = [list(r) + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(t)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def dense_document(doc: dict, rng: random.Random) -> dict:
    """doc rewritten in the basis y_i = sum_a t[a][i] e_a, for a random t
    with entries in [-2, 2]."""
    n = doc["dim"]
    index = {name: k for k, name in enumerate(doc["basis"])}
    br = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for item in doc["brackets"]:
        i, j = index[item["u"]], index[item["v"]]
        for name, text in item["value"].items():
            br[i][j][index[name]] = Fraction(text)
            br[j][i][index[name]] = -Fraction(text)
    om = [[Fraction(0)] * n for _ in range(n)]
    for item in doc["omega"]:
        i, j = index[item["u"]], index[item["v"]]
        om[i][j] = Fraction(item["value"])
        om[j][i] = -om[i][j]
    while True:
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        tinv = _inverse(t)
        if tinv is not None:
            break
    names = [f"y{k + 1}" for k in range(n)]
    brackets, omega = [], []
    for i in range(n):
        for j in range(i + 1, n):
            v = [sum((t[a][i] * t[b][j] * br[a][b][k] for a in range(n) for b in range(n)),
                     Fraction(0)) for k in range(n)]
            w = [sum((tinv[k][m] * v[m] for m in range(n)), Fraction(0)) for k in range(n)]
            value = {names[k]: str(c) for k, c in enumerate(w) if c}
            if value:
                brackets.append({"u": names[i], "v": names[j], "value": value})
            c = sum((t[a][i] * t[b][j] * om[a][b] for a in range(n) for b in range(n)),
                    Fraction(0))
            if c:
                omega.append({"u": names[i], "v": names[j], "value": str(c)})
    return {"dim": n, "basis": names, "brackets": brackets, "omega": omega}


def pair_document(pair) -> dict:
    return {"base_dim": len(pair.b0),
            "xi": [[str(x) for x in row] for row in pair.xi.entries],
            "b0": [str(x) for x in pair.b0]}


# ---------------------------------------------------------------------------
# running commands

class Digest:
    def __init__(self, cli):
        self.cli = cli
        self.groups = {g: hashlib.sha256() for g in GROUPS}
        self.written = []  # algebra documents, in the order they were written

    def run(self, group: str, argv: list, outputs=()) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        record = {"argv": argv, "exit": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue(), "files": {}}
        for path in outputs:
            if os.path.exists(path):
                record["files"][path] = Path(path).read_text()
        blob = json.dumps(record, sort_keys=True).encode()
        self.groups[group].update(hashlib.sha256(blob).digest())
        return code

    def algebra_commands(self, source: list, tag: str):
        """verify, classify and reduce on one input (a file or --catalog)."""
        for report in ("all", "flat", "structure"):
            self.run("verify", ["verify", *source, "--report", report])
        self.run("classify", ["classify", *source])
        opt = ["--base", source[0]] if source[0] != "--catalog" else source
        self.run("reduce", ["reduce", *opt, "--auto"])
        base, pair = f"{tag}.base.json", f"{tag}.pair.json"
        self.run("reduce", ["reduce", *opt, "--out", base, "--pair-out", pair],
                 outputs=(base, pair))
        if os.path.exists(base):
            self.written.append(base)

    def documents(self):
        for path in self.written:
            self.run("documents", ["verify", path])
            self.run("documents", ["classify", path])

    def report(self) -> dict:
        digests = {g: h.hexdigest() for g, h in self.groups.items()}
        total = hashlib.sha256("".join(digests[g] for g in GROUPS).encode())
        digests["overall"] = total.hexdigest()
        return digests


def run_all(cli, catalog, entries, dense: int, points=None) -> dict:
    """The group digests over entries, with dense bases per entry of dim
    >= 2 and the first points family grid points (all when None); run it
    in an empty working directory."""
    d = Digest(cli)
    exported = {}
    for name in entries:
        path = f"{name}.json"
        d.run("export", ["catalog", "export", name, "--out", path], outputs=(path,))
        exported[name] = json.loads(Path(path).read_text())
    for name in entries:
        d.algebra_commands(["--catalog", name], name)
        if exported[name]["dim"] < 2:
            continue
        rng = random.Random(f"output digest {name}")
        for k in range(dense):
            path = f"{name}.dense{k}.json"
            Path(path).write_text(json.dumps(dense_document(exported[name], rng), indent=2))
            d.algebra_commands([path], f"{name}.dense{k}")
    count = 0
    for fam in catalog.family_names():
        base = catalog.FAMILY_BASES[fam]
        for params in catalog.family_parameter_grid(fam):
            if points is not None and count >= points:
                break
            _, pair = catalog.admissible_family(fam, params)
            pair_path, out = f"pair{count}.json", f"ext{count}.json"
            Path(pair_path).write_text(json.dumps(pair_document(pair)))
            d.run("extend", ["extend", "--catalog", base, "--pair", pair_path,
                             "--out", out], outputs=(out,))
            if os.path.exists(out):
                d.written.append(out)
            count += 1
    d.documents()
    return d.report()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory symplie is imported from (default: this checkout)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from symplie import catalog, cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="symplie-digest-") as tmp:
        os.chdir(tmp)
        try:
            digests = run_all(cli, catalog, list(catalog.names()), DENSE)
        finally:
            os.chdir(cwd)
    for group, value in digests.items():
        print(f"{group:<10} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
