"""The benchmark's three workloads: sweep, catalog_cli and dense_basis.

A workload's :meth:`setup` builds everything an item needs (catalog
entries, documents, dense bases, warm caches) and its :attr:`items` are
one pass.  Each :class:`Item` has a timed ``run``, an untimed ``record``
that turns the raw output into plain strings, and a ``check`` that
judges a record with :mod:`oracle`, which shares no code with symplie.
Inputs depend only on the seed; documents are written by the oracle's
own writer and dense bases are made by the oracle's own change of basis,
so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle as O
from oracle import OracleError

# items call through module attributes, so the layer tracer sees the calls
from symplie import catalog, cli, extension

# dim-4 and dim-6 flat entries that dense_basis rewrites in random bases
DENSE_ENTRIES = ("abelian4", "abelian4_w0", "r_h3_dim4", "abelian6", "r3_h3",
                 "g6_1", "g6_2", "g6_2_w2", "g6_2_w3", "g6_3")
# how many seeded family points catalog_cli extends per pass
EXTEND_SAMPLE = 6
SIX_DIM_CLASSES = {"R^6", "R^3xH3", "g6_1", "g6_2", "g6_3"}


@dataclass
class Item:
    label: str
    run: Callable[[], object]          # timed
    record: Callable[[object], tuple]  # untimed: raw output -> strings
    check: Callable[[tuple], None]     # raises OracleError


def reset_library_caches():
    """Clear every functools cache in symplie, so set-up rebuilds them."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "symplie":
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def to_oracle(s) -> O.Algebra:
    """Copy a program-side algebra into the oracle's plain lists."""
    n = s.dim
    return O.Algebra([[list(s.algebra.table[i][j]) for j in range(n)]
                      for i in range(n)],
                     [list(row) for row in s.form.matrix.entries])


def enc(nested) -> str:
    """Exact rationals (nested tuples) as a JSON string of strings."""
    def walk(x):
        return [walk(y) for y in x] if isinstance(x, (tuple, list)) else str(x)
    return json.dumps(walk(nested), separators=(",", ":"))


def dec(text: str):
    def walk(x):
        return [walk(y) for y in x] if isinstance(x, list) else Fraction(x)
    return walk(json.loads(text))


def oracle_class_table() -> O.ClassTable:
    """The oracle's own fingerprint table, from the catalog representatives."""
    reps = {"R^0": "zero", "R^2": "abelian2", "R^4": "abelian4",
            "RxH3": "r_h3_dim4", "R^6": "abelian6", "R^3xH3": "r3_h3",
            "g6_1": "g6_1", "g6_2": "g6_2", "g6_3": "g6_3"}
    return O.ClassTable({cls: to_oracle(catalog.get(entry).algebra)
                         for cls, entry in reps.items()})


def _perturbed_g6_3(i: int, j: int, k: int) -> O.Algebra:
    """g6_3 with 1 added to the e_k coefficient of [e_i, e_j]."""
    alg = to_oracle(catalog.get("g6_3").algebra)
    alg.table[i][j][k] += 1
    alg.table[j][i][k] -= 1
    return alg


def negative_controls() -> list:
    """The oracle must reject aff1 and two perturbed g6_3; messages if not."""
    problems = []
    aff1 = to_oracle(catalog.get("aff1").algebra)
    controls = {
        "aff1": aff1,
        "g6_3 with [x1,x2] = x4 + x1 (Jacobi fails)": _perturbed_g6_3(0, 1, 0),
        "g6_3 with [x2,x3] = x6 + x5 (symplectic, not flat)": _perturbed_g6_3(1, 2, 4),
    }
    for name, alg in controls.items():
        try:
            O.check_flat_algebra(alg)
        except OracleError:
            continue
        problems.append(f"oracle accepted the negative control {name}")
    if O.first_curvature_violation(aff1, O.canonical_product(aff1)) != (0, 1):
        problems.append("oracle finds no curvature violation at (0, 1) on aff1")
    return problems


# ---------------------------------------------------------------------------
# sweep

class Sweep:
    """One item = one family grid point: admissible_family, double_extend,
    classify_upto6, over the bases of catalog.FAMILY_BASES.  The seed
    fixes the order of the 439 points in a pass."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        reset_library_caches()
        bases = {}
        for family, entry in catalog.FAMILY_BASES.items():
            if entry not in bases:
                bases[entry] = catalog.get(entry).algebra
                bases[entry].is_flat
        catalog.classify_upto6(bases["abelian2"])
        points = [(family, params) for family in catalog.family_names()
                  for params in catalog.family_parameter_grid(family)]
        random.Random(self.seed).shuffle(points)
        self.bases = bases
        self.items = [self._item(family, params, bases[catalog.FAMILY_BASES[family]])
                      for family, params in points]

    def _item(self, family, params, base) -> Item:
        def run():
            _, pair = catalog.admissible_family(family, params)
            ext = extension.double_extend(base, pair)
            return pair, ext, catalog.classify_upto6(ext)

        def record(raw):
            pair, ext, cls = raw
            return (family, cls, enc(pair.xi.entries), enc(pair.b0),
                    enc(ext.algebra.table), enc(ext.form.matrix.entries),
                    enc(ext.canonical_product.table))

        label = family + "(" + ",".join(f"{k}={v}" for k, v in params.items()) + ")"
        return Item(label, run, record, self._check)

    def oracle_setup(self):
        self.classes = oracle_class_table()
        self.oracle_bases = {family: to_oracle(self.bases[entry])
                             for family, entry in catalog.FAMILY_BASES.items()}
        self.reached = {}

    def _check(self, rec):
        family, cls, xi, b0, table, gram, prod = rec
        ext = O.Algebra(dec(table), dec(gram))
        rebuilt = O.double_extend(self.oracle_bases[family], dec(xi), dec(b0))
        if not rebuilt.same_as(ext):
            raise OracleError("extension differs from the oracle's double extension")
        O.check_flat_algebra(ext, dec(prod))
        expected = self.classes.classify(ext)
        if cls != expected:
            raise OracleError(f"classified {cls}, oracle says {expected}")
        self.reached.setdefault(self.oracle_bases[family].n, []).append(
            (cls, bool(O.derived(ext))))

    def final_checks(self) -> list:
        """The classification theorem, over the whole pass."""
        problems = []
        six = {cls for cls, _ in self.reached.get(4, [])}
        if six != SIX_DIM_CLASSES:
            problems.append(f"dim-4 bases reach {sorted(six)}, "
                            f"expected {sorted(SIX_DIM_CLASSES)}")
        for cls, nonabelian in self.reached.get(2, []):
            if cls != ("RxH3" if nonabelian else "R^4"):
                problems.append(f"dim-4 output classified {cls}")
                break
        return problems


# ---------------------------------------------------------------------------
# CLI workloads

def cli_call(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _field(out: str, key: str) -> str:
    m = re.search(rf"^\s*{re.escape(key)}: (.*)$", out, re.M)
    if m is None:
        raise OracleError(f"output has no '{key}' line")
    return m.group(1).strip()


class _Facts:
    """What the oracle knows about one input document."""

    def __init__(self, alg: O.Algebra, classes: O.ClassTable):
        self.alg = alg
        prod = O.canonical_product(alg)
        self.flat = O.is_lie_admissible(alg, prod) and O.left_symmetry_failure(prod) is None
        self.witness = None if self.flat else O.first_curvature_violation(alg, prod)
        self.nil = O.nilpotency_class(alg)
        self.center_kind = O.subspace_kind(alg, O.center(alg))
        self.derived_kind = O.subspace_kind(alg, O.derived(alg))
        self.unimodular = O.is_unimodular(alg)
        self.fingerprint = O.fingerprint(alg)
        self.cls = classes.classify(alg) if self.flat else None
        if self.flat:
            O.check_flat_algebra(alg)


class _CliWorkload:
    """Items are in-process ``symplie.cli.main`` calls on documents."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.docs = {}       # label -> (path, expected class or None)
        self.items = []

    def _start_setup(self):
        reset_library_caches()
        self.docs.clear()
        self.items = []
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _write(self, label: str, names, alg: O.Algebra, expected):
        path = self.workdir / f"{label}.json"
        path.write_text(O.write_document(list(names), alg))
        self.docs[label] = (str(path), expected)

    def _commands(self, label: str, flat: bool):
        path, _ = self.docs[label]
        self.items.append(self._cli_item("verify", label, ["verify", path]))
        self.items.append(self._cli_item("classify", label, ["classify", path]))
        if flat:
            tower = str(self.workdir / f"{label}.tower.json")
            self.items.append(self._cli_item(
                "reduce", label,
                ["reduce", "--base", path, "--auto", "--pair-out", tower], tower))

    def _cli_item(self, command: str, label: str, argv: list, out_file=None) -> Item:
        def record(raw):
            rc, out, err = raw
            text = ""
            if out_file is not None and Path(out_file).exists():
                text = Path(out_file).read_text()
                Path(out_file).unlink()
            return (command, label, rc, out, err, text)
        return Item(f"{command} {label}", lambda: cli_call(argv), record, self._check)

    def oracle_setup(self):
        self.classes = oracle_class_table()
        self.facts = {label: _Facts(O.read_document(Path(path).read_text()),
                                    self.classes)
                      for label, (path, _) in self.docs.items()}

    def _check(self, rec):
        command, label, rc, out, err, text = rec
        facts = self.facts[label]
        expected_rc = 0 if facts.flat else 2
        if rc != expected_rc:
            raise OracleError(f"exit code {rc}, expected {expected_rc}: {err.strip()[:200]}")
        getattr(self, "_check_" + command)(label, facts, out, err, text)

    def _check_verify(self, label, facts, out, err, text):
        yes = "yes" if facts.flat else "no"
        for key in ("flat", "curvature_vanishes", "right_multiplications_match",
                    "left_symmetric"):
            if _field(out, key) != yes:
                raise OracleError(f"verify says {key}: {_field(out, key)}")
        if not facts.flat and _field(out, "first_violation_at") != str(facts.witness):
            raise OracleError(f"witness {_field(out, 'first_violation_at')}, "
                              f"oracle finds {facts.witness}")
        nil = "none" if facts.nil is None else str(facts.nil)
        shown = {"nilpotency_class": nil, "center": facts.center_kind,
                 "derived_ideal": facts.derived_kind,
                 "unimodular": "yes" if facts.unimodular else "no"}
        for key, want in shown.items():
            if _field(out, key) != want:
                raise OracleError(f"verify says {key}: {_field(out, key)}, oracle: {want}")
        if re.search(r": FAIL\b", out):
            raise OracleError("a structural claim fails")

    def _check_classify(self, label, facts, out, err, text):
        if _field(out, "flat") != ("yes" if facts.flat else "no"):
            raise OracleError(f"classify says flat: {_field(out, 'flat')}")
        if not facts.flat:
            return
        expected = self.docs[label][1]
        cls = _field(out, "class")
        if cls != facts.cls or cls != expected:
            raise OracleError(f"class {cls}; oracle {facts.cls}, source entry {expected}")

    def _check_reduce(self, label, facts, out, err, text):
        steps = O.read_tower(text)
        if 2 * len(steps) != facts.alg.n:
            raise OracleError(f"tower has {len(steps)} steps for dim {facts.alg.n}")
        if f"in {len(steps)} step(s)" not in err:
            raise OracleError(f"unexpected reduce message {err.strip()!r}")
        rebuilt = O.rebuild_tower(steps)
        O.check_flat_algebra(rebuilt)
        if O.fingerprint(rebuilt) != facts.fingerprint:
            raise OracleError("rebuilt tower has other invariants than the input")

    def final_checks(self) -> list:
        return []


class CatalogCli(_CliWorkload):
    """verify and classify on every catalog entry, reduce --auto on every
    flat one (aff1 is the non-flat control), and extend on a seeded sample
    of family pairs."""

    name = "catalog_cli"

    def setup(self):
        self._start_setup()
        entries = {name: catalog.get(name) for name in catalog.names()}
        for name, entry in entries.items():
            self._write(name, entry.algebra.basis_names, to_oracle(entry.algebra),
                        entry.expected_class)
        for name, entry in entries.items():
            self._commands(name, entry.expected_class is not None)
        points = [(family, params) for family in catalog.family_names()
                  for params in catalog.family_parameter_grid(family)]
        self.pairs = {}
        for k, (family, params) in enumerate(
                random.Random(self.seed).sample(points, EXTEND_SAMPLE)):
            base_name, pair = catalog.admissible_family(family, params)
            xi = [list(row) for row in pair.xi.entries]
            b0 = list(pair.b0)
            pair_path = self.workdir / f"pair{k}.json"
            pair_path.write_text(O.write_pair(xi, b0))
            self.pairs[k] = (base_name, xi, b0)
            self.items.append(self._extend_item(k, self.docs[base_name][0],
                                                str(pair_path)))
        catalog.classify_upto6(entries["zero"].algebra)

    def _extend_item(self, k: int, base_path: str, pair_path: str) -> Item:
        def record(raw):
            rc, out, err = raw
            return ("extend", k, rc, out, err, "")
        argv = ["extend", "--base", base_path, "--pair", pair_path]
        return Item(f"extend pair{k}", lambda: cli_call(argv), record, self._check_ext)

    def _check_ext(self, rec):
        _, k, rc, out, err, _ = rec
        if rc != 0:
            raise OracleError(f"extend exit code {rc}: {err.strip()[:200]}")
        base_name, xi, b0 = self.pairs[k]
        ext = O.read_document(out)
        if not ext.same_as(O.double_extend(self.facts[base_name].alg, xi, b0)):
            raise OracleError("extend output differs from the oracle's double extension")
        O.check_flat_algebra(ext)


# entries of a dense change of basis L U: off the diagonal of both factors,
# and on the diagonal of U, which makes the inverse rational.  Signs and
# these sizes keep the coefficient size of the inputs nearly the same
# from seed to seed (their total bit length varies by 5 % between seeds).
_OFF_DIAGONAL = (Fraction(-1), Fraction(1))
_DIAGONAL = tuple(map(Fraction, ("2", "1/2", "-2", "-1/2")))


def dense_basis(rng: random.Random, n: int) -> list:
    """A seeded invertible L U, L unit lower and U upper triangular, with
    every entry off the diagonal of each factor nonzero."""
    low = [[Fraction(1) if i == j else (rng.choice(_OFF_DIAGONAL) if i > j else O.Z)
            for j in range(n)] for i in range(n)]
    up = [[rng.choice(_DIAGONAL) if i == j else (rng.choice(_OFF_DIAGONAL) if i < j else O.Z)
           for j in range(n)] for i in range(n)]
    return O.matmul(low, up)


class DenseBasis(_CliWorkload):
    """verify, classify and reduce --auto on the flat dim-4 and dim-6
    entries, each rewritten in a seeded dense basis."""

    name = "dense_basis"

    def setup(self):
        self._start_setup()
        rng = random.Random(self.seed)
        for name in DENSE_ENTRIES:
            entry = catalog.get(name)
            alg = to_oracle(entry.algebra)
            dense = O.change_basis(alg, dense_basis(rng, alg.n))
            self._write(name, [f"y{k + 1}" for k in range(alg.n)], dense,
                        entry.expected_class)
            self._commands(name, True)
        catalog.classify_upto6(catalog.get("zero").algebra)


WORKLOADS = {w.name: w for w in (Sweep, CatalogCli, DenseBasis)}
