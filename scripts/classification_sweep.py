#!/usr/bin/env python3
"""Sweep the extension-pair families and tabulate the classes they reach.

For every parameter point the pair is checked admissible, the double
extension is built (its validity and flatness follow from the extension
theorem and are proved in tests/test_extension.py, not re-checked here),
and the result is classified.  The final table shows how often each
isomorphism class appears per family.  With --json the table is replaced
by one JSON object per line and point: its family, its params (as
rational literals), its class, its fingerprint and wall_ms, the time
taken by the check, the extension and the classification.
"""

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import asdict

from symplie import catalog
from symplie.catalog import (admissible_family, classify_upto6, family_names,
                             family_parameter_grid, fingerprint)
from symplie.extension import double_extend
from symplie.rationals import qstr


def sweep_family(name: str, verbose: bool, as_json: bool = False) -> Counter:
    base = catalog.get(catalog.FAMILY_BASES[name]).algebra
    counts = Counter()
    for params in family_parameter_grid(name):
        start = time.perf_counter()
        _, pair = admissible_family(name, params)
        ext = double_extend(base, pair)
        cls = classify_upto6(ext)
        wall_ms = (time.perf_counter() - start) * 1e3
        counts[cls] += 1
        if as_json:
            print(json.dumps({"family": name,
                              "params": {k: qstr(v) for k, v in params.items()},
                              "class": cls, "fingerprint": asdict(fingerprint(ext)),
                              "wall_ms": round(wall_ms, 4)}))
        elif verbose:
            shown = ", ".join(f"{k}={qstr(v)}" for k, v in params.items())
            print(f"  {name}({shown}) -> {cls}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", action="append", choices=family_names(),
                        help="restrict to one family (repeatable)")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per parameter point")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per parameter point, no table")
    args = parser.parse_args(argv)
    selected = args.family or list(family_names())
    if args.json:
        for name in selected:
            sweep_family(name, False, as_json=True)
        return 0

    start = time.perf_counter()
    results = {}
    for name in selected:
        results[name] = sweep_family(name, args.verbose)
    elapsed = time.perf_counter() - start

    all_classes = sorted({cls for counts in results.values() for cls in counts})
    width = max(len(name) for name in selected)
    header = f"{'family':<{width}}  {'points':>6}  " + "  ".join(
        f"{cls:>7}" for cls in all_classes)
    print(header)
    print("-" * len(header))
    for name in selected:
        counts = results[name]
        cells = "  ".join(f"{counts.get(cls, 0):>7}" for cls in all_classes)
        print(f"{name:<{width}}  {sum(counts.values()):>6}  {cells}")
    total = sum(sum(c.values()) for c in results.values())
    print(f"\n{total} extensions in {elapsed:.2f}s; classes reached: "
          + ", ".join(all_classes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
