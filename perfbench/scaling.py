#!/usr/bin/env python3
"""Reference figures: is_flat, structural_report and reduction_tower
on R^(n-3) x H3 for n = 6, 8, ..., 16, timed by the layer tracer.

    python3 perfbench/scaling.py

The algebra has [x1, x2] = xn and omega = sum_k x_k ^ x_(n+1-k).  Each
figure is the median over fresh copies of the algebra (so no cached
property is reused) of the root span around the call.  These are not a
workload: they keep the dimension scaling in view and are printed as a
table of wall-clock times, with the scalar backend, the Python version
and the median time of run.py's calibration kernel, which tells how
fast the host was.
"""

from __future__ import annotations

import platform
import statistics
import sys

import run

DIMS = (6, 8, 10, 12, 14, 16)
REPEATS = 3                         # fresh copies per figure


def r_h3(n: int):
    from symplie.catalog import wedge_form
    from symplie.lie import LieAlgebra
    from symplie.symplectic import validate_symplectic
    names = tuple(f"x{k + 1}" for k in range(n))
    algebra = LieAlgebra.from_sparse(names, {(0, 1): {n - 1: 1}})
    form = wedge_form(n, [(k, n + 1 - k, 1) for k in range(1, n // 2 + 1)])
    return validate_symplectic(algebra, form)


def main() -> int:
    run._import_program()
    from layertrace import SpanTracer
    from symplie import rationals
    from symplie.extension import reduction_tower
    from symplie.symplectic import structural_report

    calls = {"is_flat": lambda s: s.is_flat,
             "structural_report": structural_report,
             "reduction_tower": reduction_tower}
    backend = "gmpy2" if rationals.GMPY2_BACKEND else "fractions.Fraction"
    kernel_ms = statistics.median(run.calibrate() for _ in range(101)) * 1e3
    print(f"# R^(n-3) x H3, median of {REPEATS} fresh copies, wall ms; "
          f"backend {backend}, Python {platform.python_version()}, "
          f"calibration kernel {kernel_ms:.2f} ms")
    print(f"{'n':>3}  " + "  ".join(f"{name:>17}" for name in calls))
    for n in DIMS:
        row = []
        for name, call in calls.items():
            tracer = SpanTracer()
            tracer.install()
            try:
                for k in range(REPEATS):
                    s = r_h3(n)
                    ok = tracer.run_item(k, lambda: call(s))
                    if name == "is_flat" and ok is not True:
                        sys.exit(f"R^{n - 3} x H3 is not flat")
            finally:
                tracer.uninstall()
            roots = [(end - start) / 1e6 for layer, _, start, end, _ in tracer.spans
                     if layer == "item"]
            row.append(statistics.median(roots))
        print(f"{n:>3}  " + "  ".join(f"{ms:>17.1f}" for ms in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
