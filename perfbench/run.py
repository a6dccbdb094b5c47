#!/usr/bin/env python3
"""Benchmark for symplie: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports ``symplie`` from its
``src/``.  A timed run (``--trace 0``) makes whole passes over the
workload's items, each item timed on its own: MIN_PASSES passes, and
then another only while it would end, at the mean pass time so far,
within ``--seconds``.  The workload is set up SETUP_REPEATS times before
every pass, so set-ups are spread over the run like the items;
``setup_s`` is the median of all of them.

Times are in reference seconds.  The host alternates between a fast and
a slow state, in flips of a fraction of a second and in stretches of
minutes (one sweep item measured 17 ms and 33 ms a second apart), so
a fixed calibration kernel, which shares no code with symplie, is timed
before and after every item and every set-up.  Each wall time is scaled
by CALIBRATION_REF_S over the mean of the two kernel times around it:
a reference second is a second on a host where the kernel takes
CALIBRATION_REF_S.  An item's latency is the median of its scaled
times over the passes, which sets aside a run of the item that the
host disturbed more than the kernel shows; that needs at least three
passes.  The same figures in wall-clock time, and the median kernel
time, are printed with the environment and saved.

After the timed region every first-pass output is judged by the
independent oracle, every later pass must repeat the first pass's
outputs exactly, and the oracle must reject its negative controls.

``--trace 1`` is a separate run for the per-layer metrics: rounds of an
untraced pass (the base of the overhead) and a pass with layer spans,
at least one round and another while it would end within ``--seconds``,
then one pass counting ``Fraction`` operations.  The last line of
stdout is the result as JSON; the line before it records the
environment, the item counts and the wall-clock figures, which are also
written, with every item's wall and scaled times, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5                  # set-ups before every pass
MIN_PASSES = 3                     # the fewest passes of a timed run
# the calibration kernel eliminates this fixed 7 x 7 rational matrix; it
# takes about 1 ms on the host the figures in README.md come from
CALIBRATION_MATRIX = tuple(
    tuple(Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7))
    for i in range(7))
CALIBRATION_REF_S = 1e-3


def _import_program():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    src = ROOT / "src"
    if not (src / "symplie" / "__init__.py").is_file():
        sys.exit(f"error: no symplie package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import symplie
    if Path(symplie.__file__).resolve().parent != (src / "symplie").resolve():
        sys.exit(f"error: imported symplie from {symplie.__file__}, not {src}")


def calibrate() -> float:
    """Wall seconds of one run of the calibration kernel, collector off.

    The kernel is Gauss-Jordan elimination on CALIBRATION_MATRIX with
    ``Fraction`` and lists, the kind of work symplie does.  The cyclic
    collector is off while it runs, so the size of the program's heap
    cannot change its time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = [list(row) for row in CALIBRATION_MATRIX]
        for c in range(len(rows)):
            p = next(r for r in range(c, len(rows)) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            inv = 1 / rows[c][c]
            for r, row in enumerate(rows):
                if r != c and row[c]:
                    f = row[c] * inv
                    rows[r] = [x - f * y for x, y in zip(row, rows[c])]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _scaled(wall: float, before: float, after: float) -> float:
    """A wall time in reference seconds, from the kernel times around it."""
    return wall * 2 * CALIBRATION_REF_S / (before + after)


def _digest(record) -> str:
    return hashlib.sha1(repr(record).encode()).hexdigest()


class Passes:
    """Runs passes of items; keeps first-pass records and later digests."""

    def __init__(self, items):
        self.items = items
        self.labels = [item.label for item in items]
        self.times = [[] for _ in items]   # per item, wall time per pass
        self.scaled = [[] for _ in items]  # the same in reference seconds
        self.kernel = []                   # calibration kernel times
        self.first = [None] * len(items)
        self.digests = [None] * len(items)
        self.failed = set()                # (pass, item index)
        self.errors = {}                   # item index -> message
        self.passes = 0

    def run_pass(self, items=None, call=lambda k, fn: fn()):
        """One pass; ``call(k, fn)`` runs item k's timed function."""
        items = items or self.items
        if [item.label for item in items] != self.labels:
            raise RuntimeError("set-up changed the items of the workload")
        before = calibrate()
        self.kernel.append(before)
        for k, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                raw = call(k, item.run)
                rec = None
            except Exception as exc:  # a crash of the program is a failed item
                rec = ("raised", type(exc).__name__, str(exc))
            wall = time.perf_counter() - t0
            after = calibrate()
            self.kernel.append(after)
            self.times[k].append(wall)
            self.scaled[k].append(_scaled(wall, before, after))
            before = after
            if rec is None:
                rec = item.record(raw)
            if self.passes == 0:
                self.first[k] = rec
                self.digests[k] = _digest(rec)
            elif _digest(rec) != self.digests[k]:
                self.failed.add((self.passes, k))
                self.errors.setdefault(k, f"pass {self.passes} output differs from pass 0")
        self.passes += 1

    def check_first(self, workload):
        """Judge the first pass with the oracle (outside the timed region).

        Any exception from a check, such as an output that does not
        parse, rejects that item's output.
        """
        workload.oracle_setup()
        for k, (item, rec) in enumerate(zip(self.items, self.first)):
            try:
                if rec[0] == "raised":
                    raise RuntimeError(f"raised {rec[1]}: {rec[2]}")
                item.check(rec)
            except Exception as exc:
                self.errors[k] = f"{type(exc).__name__}: {exc}"
                self.failed.update((p, k) for p in range(self.passes))

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)


def _timed_setup(workload) -> tuple:
    """Set the workload up once: (wall seconds, reference seconds)."""
    before = calibrate()
    t0 = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - t0
    return wall, _scaled(wall, before, calibrate())


def _latency_metrics(per_item: list, setups: list) -> dict:
    """items_per_s, item_p50_ms, item_p90_ms and setup_s from the times
    of every item (per item, one time per pass) and of every set-up, in
    the unit of the given times (seconds)."""
    latencies = [statistics.median(ts) for ts in per_item]
    return {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, at the mean round time so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed / rounds * (rounds + 1) <= seconds


def _timed_run(workload, seconds: float) -> tuple:
    start = time.perf_counter()
    setups, p = [], None
    while True:
        setups += [_timed_setup(workload) for _ in range(SETUP_REPEATS)]
        p = p or Passes(workload.items)
        p.run_pass(workload.items)
        if p.passes == 1:  # the peak over the same work in every run
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if p.passes >= MIN_PASSES and not _another_round(start, p.passes, seconds):
            break
    metrics = _latency_metrics(p.scaled, [scaled for _, scaled in setups])
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    wall = _latency_metrics(p.times, [wall for wall, _ in setups])
    return p, metrics, wall


def _traced_run(workload, seconds: float, dump: Path) -> tuple:
    """Rounds of one untraced and one traced pass, then one counting pass.

    The overhead compares the mean traced item time with the mean
    untraced one, both in reference seconds, and self times are
    scaled to reference milliseconds by the median kernel time of the
    run.  All passes run in one :class:`Passes`, so traced passes must
    repeat the untraced outputs exactly.
    """
    from layertrace import ITEM, LAYERS, OpCounter, SpanTracer
    start = time.perf_counter()
    workload.setup()
    p = Passes(workload.items)
    tracer = SpanTracer()
    rounds = 0
    while not rounds or _another_round(start, rounds, seconds):
        p.run_pass()
        tracer.install()
        try:
            p.run_pass(call=tracer.run_item)
        finally:
            tracer.uninstall()
        rounds += 1
    scale = CALIBRATION_REF_S / statistics.median(p.kernel)
    counter = OpCounter()
    counter.install()
    try:
        p.run_pass(call=lambda k, fn: counter.run_item(fn))
    finally:
        counter.uninstall()

    untraced = [t for ts in p.scaled for t in ts[0:2 * rounds:2]]
    traced = [t for ts in p.scaled for t in ts[1:2 * rounds:2]]
    n_traced = rounds * len(p.items)
    self_ns = {layer: ns * scale for layer, ns in tracer.self_times_ns().items()}
    calls = tracer.calls()
    metrics = {"rationals.q_ops": (counter.count / len(p.items), "count")}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_ns.get(layer, 0) / 1e6 / n_traced, "ms")
    for layer in ("linalg.elim", "extension.check_admissible"):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / n_traced, "count")
    metrics["trace.other_self_ms"] = (self_ns.get(ITEM, 0) / 1e6 / n_traced, "ms")
    metrics["trace.base_item_ms"] = (sum(untraced) / len(untraced) * 1e3, "ms")
    metrics["trace.overhead_pct"] = ((sum(traced) / sum(untraced) - 1) * 100, "%")

    dump.parent.mkdir(parents=True, exist_ok=True)
    dump.write_text(json.dumps({
        "fields": ["layer", "parent", "start_ns", "end_ns", "item"],
        "items": p.labels, "spans": tracer.spans}, separators=(",", ":")))
    base_wall = [t for ts in p.times for t in ts[0:2 * rounds:2]]
    wall = {"trace.base_item_ms": (sum(base_wall) / len(base_wall) * 1e3, "ms")}
    return p, metrics, wall


def _env(workload, args, p: Passes, wall: dict) -> dict:
    from symplie import rationals
    by_command = {}
    for label in p.labels:
        command = label.split("(")[0].split(" ")[0]
        by_command[command] = by_command.get(command, 0) + 1
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "backend": "gmpy2" if rationals.GMPY2_BACKEND else "fractions.Fraction",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "items_per_pass": len(p.labels),
        "items_by_command": by_command,
        "passes": p.passes,
        "calibration_kernel_ms": statistics.median(p.kernel) * 1e3,
        "wall_clock": {name: value for name, (value, _) in wall.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "catalog_cli", "dense_basis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, negative_controls

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            p, metrics, wall = _traced_run(workload, args.seconds,
                                           OUT / f"spans-{tag}.json")
        else:
            p, metrics, wall = _timed_run(workload, args.seconds)
        p.check_first(workload)
        problems = workload.final_checks() + negative_controls()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, message in sorted(p.errors.items()):
        print(f"FAILED {p.labels[k]}: {message}", file=sys.stderr)
    for message in problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not p.failed and not problems,
        "attempted": p.attempted,
        "failed": len(p.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = _env(workload, args, p, wall)
    times = {f"{kind}_ms": {label: [round(t * 1e3, 4) for t in ts]
                            for label, ts in zip(p.labels, per_item)}
             for kind, per_item in (("wall", p.times), ("reference", p.scaled))}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, **times}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
