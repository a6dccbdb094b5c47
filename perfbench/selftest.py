#!/usr/bin/env python3
"""Quick self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs a few items of every workload and judges them with the oracle,
checks that the oracle rejects its negative controls and a tampered
output of each command, and that the span tracer and the operation
counter record something and put the program back as they found it.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

ITEMS_PER_WORKLOAD = 4


def tamper(rec: tuple) -> tuple:
    """The same record with its answer changed, which a check must reject."""
    if rec[0] in ("verify", "classify"):
        out = rec[3]
        out = (out.replace("flat: yes", "flat: no") if "flat: yes" in out
               else out.replace("flat: no", "flat: yes"))
        return rec[:3] + (out,) + rec[4:]
    if rec[0] == "reduce":
        doc = json.loads(rec[5])
        if doc["steps"]:
            doc["steps"].pop()
        else:
            doc["steps"].append({"base_dim": 0, "xi": [], "b0": []})
        return rec[:5] + (json.dumps(doc),)
    if rec[0] == "extend":
        return rec[:3] + (rec[3].replace('"1"', '"2"', 1),) + rec[4:]
    return rec[:1] + ("g6_3" if rec[1] != "g6_3" else "g6_2",) + rec[2:]


def main() -> int:
    run._import_program()
    import symplie.extension
    from layertrace import OpCounter, SpanTracer
    from oracle import OracleError
    from workloads import WORKLOADS, negative_controls

    problems = list(negative_controls())
    original = symplie.extension.double_extend
    for name, cls in WORKLOADS.items():
        workdir = run.OUT / f"selftest-{name}"
        workload = cls(0, workdir)
        try:
            workload.setup()
            # one item of each command where the workload has several
            seen, items = set(), []
            for item in workload.items:
                kind = item.label.split(" ")[0].split("(")[0]
                if kind not in seen or len(items) < ITEMS_PER_WORKLOAD:
                    seen.add(kind)
                    items.append(item)
            tracer, counter = SpanTracer(), OpCounter()
            p = run.Passes(items)
            p.run_pass()
            tracer.install()
            p.run_pass(call=tracer.run_item)
            tracer.uninstall()
            counter.install()
            p.run_pass(call=lambda k, fn: counter.run_item(fn))
            counter.uninstall()
            p.check_first(workload)
            problems += [f"{name}: {items[k].label}: {m}" for k, m in p.errors.items()]
            if not tracer.spans or tracer.calls().get("item") != len(items):
                problems.append(f"{name}: the tracer recorded no item spans")
            if counter.count <= 0:
                problems.append(f"{name}: the operation counter counted nothing")
            for item, rec in zip(items, p.first):
                try:
                    item.check(tamper(rec))
                except OracleError:
                    continue
                problems.append(f"{name}: a tampered output of {item.label} passed")
            print(f"{name}: {len(items)} items, {len(tracer.spans)} spans, "
                  f"{counter.count} rational operations")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if symplie.extension.double_extend is not original:
        problems.append("the tracer left double_extend wrapped")
    for message in problems:
        print(f"SELFTEST FAILED: {message}", file=sys.stderr)
    print("selftest ok" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
