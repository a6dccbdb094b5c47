"""Command line interface.

Exit codes: 0 on success, 1 for input or validation problems (bad
documents, bad parameters, broken symplectic axioms), 2 when the input
is well formed but a mathematical check fails (not flat, pair not
admissible, class unknown), 3 when an internal invariant of the library
fails (a bug; the message starts with "internal error:"), and 141 (128 +
SIGPIPE, as a shell reports a writer stopped by a closed pipe) when
standard output is closed before the command has written everything, for
instance under ``| head -1``; nothing more is printed then.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__, catalog
from .documents import (DocumentError, algebra_to_document, document_to_algebra,
                        document_to_pair, dumps_document, field_literal,
                        literals_to_pair, pair_to_document, parse_document,
                        tower_to_document)
from .errors import SymplieError
from .extension import (NotAdmissibleError, NotAnIdealError, NotFlatError,
                        TrivialCenterError, double_extend, inverse_double_extend,
                        reduction_tower, tower_pairs)
from .rationals import Q, RationalSyntaxError, qstr, rational
from .symplectic import InvalidSymplecticError, structural_report

_INPUT_ERRORS = (DocumentError, InvalidSymplecticError, catalog.UnknownNameError,
                 catalog.ConstraintViolatedError, catalog.UnsupportedDimensionError,
                 RationalSyntaxError, ValueError, OSError)
_CHECK_ERRORS = (NotFlatError, NotAdmissibleError, TrivialCenterError,
                 NotAnIdealError)
# exit code when the reader closes standard output early
_CLOSED_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _format_combo(names, vec) -> str:
    terms = []
    for k, c in enumerate(vec):
        if not c:
            continue
        if c == 1:
            terms.append(names[k])
        elif c == -1:
            terms.append(f"-{names[k]}")
        else:
            terms.append(f"{qstr(c)}*{names[k]}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _params_dict(args) -> dict:
    out = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--param needs key=value, got {item!r}")
        out[key] = rational(*field_literal(value, f"--param {key}"))
    return out


def _read_text(path: str) -> str:
    """The text of a document, --pair or --xi file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_input(args, what: str):
    """(SymplecticLieAlgebra, label) from a document file or the catalog."""
    file = getattr(args, "file", None) or getattr(args, "base", None)
    if args.catalog and file:
        raise ValueError("give either a document file or --catalog, not both")
    if args.catalog:
        entry = catalog.get(args.catalog, **_params_dict(args))
        return entry.algebra, entry.name
    if not file:
        raise ValueError(f"{what} needs a document file or --catalog NAME")
    s, _meta = document_to_algebra(parse_document(_read_text(file), file))
    return s, file


def _emit(doc: dict, out_path):
    text = dumps_document(doc)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(args) -> int:
    s, label = _load_input(args, "verify")
    print(f"input: {label} (dim {s.dim})")
    rc = 0
    if args.report in ("flat", "all"):
        checks = s.flatness
        print(f"flat: {_yesno(checks.is_flat)}")
        print(f"  curvature_vanishes: {_yesno(checks.curvature_vanishes)}")
        print(f"  right_multiplications_match: {_yesno(checks.right_form_vanishes)}")
        print(f"  left_symmetric: {_yesno(checks.left_symmetric)}")
        if not checks.is_flat:
            print(f"  first_violation_at: {checks.witness}")
            rc = 2
    if args.report in ("structure", "all"):
        report = structural_report(s)
        cls = report.nilpotency_class
        print(f"nilpotency_class: {'none' if cls is None else cls}")
        print(f"center: {report.center_kind.value}")
        print(f"derived_ideal: {report.derived_kind.value}")
        print(f"unimodular: {_yesno(report.unimodular)}")
        print("claims:")
        for line in report.lines():
            print(f"  {line}")
        if not report.ok():
            rc = 2
    return rc


def _parse_xi(raw: str, n: int) -> list:
    """The rows of --xi as (num, den) literals."""
    if raw == "zero":
        return [[(0, 1)] * n for _ in range(n)]
    # inline JSON starts a list or an object; anything else names a file
    text = raw if raw.lstrip().startswith(("[", "{")) else _read_text(raw)
    rows = parse_document(text, "--xi")
    if not isinstance(rows, list) or len(rows) != n \
            or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ValueError(f"--xi must be a {n}x{n} array")
    def coeff(x, where):
        if isinstance(x, bool) or not isinstance(x, (int, str)):
            raise ValueError(f"{where}: expected an integer or a rational string")
        return field_literal(str(x), where)
    return [[coeff(x, f"--xi[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def _parse_b0(raw: str, n: int) -> list:
    """--b0 as (num, den) literals."""
    if raw == "zero":
        return [(0, 1)] * n
    parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
    if len(parts) != n:
        raise ValueError(f"--b0 must list {n} comma-separated rationals")
    return [field_literal(p, f"--b0[{k}]") for k, p in enumerate(parts)]


def _cmd_extend(args) -> int:
    base, label = _load_input(args, "extend")
    if args.pair:
        if args.xi or args.b0:
            raise ValueError("give --pair or (--xi, --b0), not both")
        pair = document_to_pair(parse_document(_read_text(args.pair), "--pair"))
        if pair.base_dim != base.dim:
            raise ValueError(
                f"pair is for base dimension {pair.base_dim}, input has {base.dim}")
    else:
        if args.xi is None or args.b0 is None:
            raise ValueError("extend needs --pair FILE or both --xi and --b0")
        pair = literals_to_pair(_parse_xi(args.xi, base.dim),
                                _parse_b0(args.b0, base.dim))
    ext = double_extend(base, pair)
    _emit(algebra_to_document(ext, meta={"extended_from": label}), args.out)
    return 0


def _cmd_reduce(args) -> int:
    if args.auto and args.center_index is not None:
        raise ValueError("give --center-index or --auto, not both")
    s, label = _load_input(args, "reduce")
    if args.auto:
        steps = reduction_tower(s)
        pairs = tower_pairs(steps)
        doc = tower_to_document(pairs)
        if args.out:
            # a dim-0 input has an empty tower and is its own base
            base = steps[-1].base if steps else s
            _emit(algebra_to_document(base), args.out)
        _emit(doc, args.pair_out)
        print(f"reduced {label} to dimension 0 in {len(steps)} step(s)",
              file=sys.stderr)
        return 0
    e = None
    if args.center_index is not None:
        center = s.center
        if not 0 <= args.center_index < center.dim:
            valid = f"0..{center.dim - 1}" if center.dim else "none"
            raise ValueError(f"--center-index {args.center_index} is out of range: "
                             f"the center dimension {center.dim} allows {valid}")
        e = center.columns()[args.center_index]
    step = inverse_double_extend(s, e)
    _emit(algebra_to_document(step.base), args.out)
    if args.pair_out:
        _emit(pair_to_document(step.pair), args.pair_out)
    return 0


def _cmd_classify(args) -> int:
    s, label = _load_input(args, "classify")
    print(f"input: {label} (dim {s.dim})")
    flat = s.is_flat
    print(f"flat: {_yesno(flat)}")
    if not flat:
        print("class: not applicable (classification covers flat algebras)")
        return 2
    name = catalog.classify_upto6(s)
    print(f"class: {name}")
    return 2 if name == "Unknown" else 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            entry = catalog.get(name)
            cls = entry.expected_class or "-"
            print(f"{name:<12} dim {entry.algebra.dim}  class {cls:<7} "
                  f"{entry.description}")
        return 0
    if not args.name:
        raise ValueError(f"catalog {args.action} needs an entry name")
    entry = catalog.get(args.name, **_params_dict(args))
    if args.action == "export":
        meta = {"name": entry.name, "description": entry.description}
        _emit(algebra_to_document(entry.algebra, meta=meta), args.out)
        return 0
    s = entry.algebra
    names = s.basis_names
    print(f"name: {entry.name}")
    print(f"description: {entry.description}")
    print(f"dim: {s.dim}")
    print(f"basis: {', '.join(names) if names else '(empty)'}")
    print("brackets:")
    shown = False
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            vec = s.algebra.table[i][j]
            if any(vec):
                print(f"  [{names[i]}, {names[j]}] = {_format_combo(names, vec)}")
                shown = True
    if not shown:
        print("  (abelian)")
    print("omega:")
    shown = False
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            c = s.form.matrix.entry(i, j)
            if c:
                print(f"  omega({names[i]}, {names[j]}) = {qstr(c)}")
                shown = True
    if not shown:
        print("  (zero)" if s.dim == 0 else "  (none)")
    print(f"flat: {_yesno(s.is_flat)}")
    print(f"class: {entry.expected_class or 'not applicable (not flat)'}")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parse_args keeps no state in it."""
    parser = _Parser(prog="symplie",
                     description="Exact tools for flat symplectic Lie algebras.")
    parser.add_argument("--version", action="version", version=(
        f"symplie {__version__} (scalars: {Q.__module__}.{Q.__qualname__}, "
        f"Python {sys.version.split()[0]})"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, positional: bool):
        if positional:
            p.add_argument("file", nargs="?", help="algebra document (JSON)")
        else:
            p.add_argument("--base", help="algebra document (JSON)")
        p.add_argument("--catalog", help="use a catalog entry as input")
        p.add_argument("--param", action="append",
                       help="catalog parameter, key=value (repeatable)")

    p = sub.add_parser("verify", help="check the symplectic axioms, "
                       "flatness, and the structural theorems")
    add_input(p, positional=True)
    p.add_argument("--report", choices=("flat", "structure", "all"),
                   default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extend", help="double-extend a flat algebra by a pair")
    add_input(p, positional=False)
    p.add_argument("--pair", help="pair document (JSON)")
    p.add_argument("--xi", help="'zero', inline JSON rows, or a JSON file")
    p.add_argument("--b0", help="comma-separated rationals, or 'zero'")
    p.add_argument("--out", help="write the extension document here")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("reduce", help="split off a central extension "
                       "(or reduce to dimension zero with --auto)")
    add_input(p, positional=False)
    p.add_argument("--auto", action="store_true",
                   help="reduce repeatedly and emit the whole tower")
    p.add_argument("--center-index", type=int, default=None,
                   help="which canonical center basis vector to split along")
    p.add_argument("--out", help="write the base document here")
    p.add_argument("--pair-out", dest="pair_out",
                   help="write the recovered pair (or tower) here")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("classify", help="name the isomorphism class (dim <= 6)")
    add_input(p, positional=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("catalog", help="list, show, or export bundled algebras")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("name", nargs="?", help="catalog entry name")
    p.add_argument("--param", action="append",
                   help="catalog parameter, key=value (repeatable)")
    p.add_argument("--out", help="write the exported document here")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # --help and --version print and stop the parser
        return exc.code or 0
    try:
        rc = args.func(args)
        # a closed pipe shows here, not in the interpreter's last flush
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # BrokenPipeError is an OSError, so it is caught before the input
        # errors; what is still buffered goes to the null device
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return _CLOSED_PIPE
    except _CHECK_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SymplieError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
