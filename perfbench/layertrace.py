"""Out-of-tree tracing: layer spans and exact-rational operation counts.

Nothing in ``symplie`` is edited.  :class:`SpanTracer` replaces the
public functions of each module with wrappers that record a span (layer,
parent, start, end) and puts the originals back on :meth:`uninstall`.
A function imported by name into another module (``cli`` imports
``double_extend``, for instance) is replaced there too, so every call
from inside the package passes through the wrapper.

:class:`OpCounter` counts calls of the ``Fraction`` operators from
outside, by wrapping the operator methods of the class.  The count
depends only on the operations the program performs, so it repeats
exactly from run to run.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction
from functools import cached_property, wraps

# layer name -> [(module, attribute path)]; "Class.name" means a method,
# classmethod or cached property of that class
LAYERS = {
    "linalg.elim": [("linalg", "rref"), ("linalg", "rank"), ("linalg", "solve"),
                    ("linalg", "inverse"), ("linalg", "kernel"),
                    ("linalg", "Subspace.span"), ("linalg", "subspace_intersect")],
    "lie.validate": [("lie", "LieAlgebra.validate")],
    "lie.series": [("lie", "LieAlgebra.center"),
                   ("lie", "LieAlgebra.lower_central_series"),
                   ("lie", "LieAlgebra.derived_series")],
    "symplectic.validate": [("symplectic", "validate_symplectic"),
                            ("symplectic", "symplectic_violations")],
    "symplectic.canonical_product": [
        ("symplectic", "SymplecticLieAlgebra.canonical_product")],
    "symplectic.flatness": [("symplectic", "SymplecticLieAlgebra.flatness")],
    "symplectic.structural_report": [("symplectic", "structural_report")],
    "extension.check_admissible": [("extension", "check_admissible")],
    "extension.build_candidate": [("extension", "build_extension_candidate")],
    "extension.double_extend": [("extension", "double_extend")],
    "extension.inverse_double_extend": [("extension", "inverse_double_extend")],
    "catalog.fingerprint": [("catalog", "fingerprint")],
    "documents.parse": [("documents", "parse_document"),
                        ("documents", "document_to_parts"),
                        ("documents", "document_to_algebra"),
                        ("documents", "document_to_pair"),
                        ("documents", "document_to_tower")],
    "documents.emit": [("documents", "algebra_to_document"),
                       ("documents", "pair_to_document"),
                       ("documents", "tower_to_document"),
                       ("documents", "dumps_document")],
    "cli.main": [("cli", "main")],
}

# counted Fraction operators; the reflected forms are counted too
Q_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__eq__", "__bool__")

ITEM = "item"
PACKAGE = "symplie"


class SpanTracer:
    """Spans kept in memory as [layer, parent index, start ns, end ns, item]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.item = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, clock(), 0, self.item]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
        return traced

    def run_item(self, index: int, fn):
        """Run one benchmark item under a root span."""
        self.item = index
        return self._wrap(ITEM, fn)()

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] == PACKAGE]

    def _replace_everywhere(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                if "." not in path:
                    original = getattr(owner, path)
                    self._replace_everywhere(original, self._wrap(layer, original))
                    continue
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, cached_property):
                    new = cached_property(self._wrap(layer, raw.func))
                    new.__set_name__(cls, attr)
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__))
                else:
                    new = self._wrap(layer, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def self_times_ns(self) -> dict:
        """layer -> total self time (span minus its direct child spans)."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, _, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (end - start) - child[k]
        return out

    def calls(self) -> dict:
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out


class OpCounter:
    """Counts Fraction operator calls made while :attr:`active` is set."""

    def __init__(self):
        self.count = 0
        self.active = False
        self._saved = {}

    def install(self):
        counter = self
        for name in Q_OPS:
            original = Fraction.__dict__.get(name)
            if original is None:
                continue

            def counted(*args, _op=original):
                if counter.active:
                    counter.count += 1
                return _op(*args)
            self._saved[name] = original
            setattr(Fraction, name, counted)

    def uninstall(self):
        for name, original in self._saved.items():
            setattr(Fraction, name, original)
        self._saved.clear()

    def run_item(self, fn):
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
