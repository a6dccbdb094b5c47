#!/usr/bin/env python3
"""Run the benchmark on a parent checkout and on this one, in alternating
pairs, and write the comparison as a ``BENCH_<n>.json`` file.

    python3 scripts/bench_pairs.py --parent ../parent --pairs 10 --seed 71 \\
        --workload sweep --claim sweep:items_per_s:1.25 --out BENCH_12.json

``--parent`` is a checkout of the parent commit, for instance one made
with ``git archive <commit> | tar -x -C DIR``.  For each workload, pair k
runs ``perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0``
once in the parent checkout and once in this one, with S the
``run_seconds`` of BENCHMARK.json; the parent runs first in the even
pairs and the change in the odd ones, so that a drift of the host does
not favour one side.  Each run is a separate process.

Per workload and per end-to-end metric of BENCHMARK.json the file gets
every run's value, the median and the quartiles of each side over the
runs (``statistics.quantiles(n=4, method='inclusive')``), the relative change
of the medians, the number of pairs the change wins and whether the
change stays within the metric's bound; stdout gets one row of these per
workload and metric.  ``--claim W:METRIC:FACTOR``
also states whether the change's median is at least FACTOR times the
parent's (in the metric's better direction), wins at least 9 pairs in
10, and moves the median by more than the parent's interquartile range.
``--traced SEED`` adds TRACED_RUNS ``--trace 1`` runs per side and
workload on seeds SEED, SEED+1, ..., alternating as the pairs do, and
records the median of each per-layer metric over each side's runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
WIN_SHARE = 0.9      # a claim needs the change to win this share of the pairs
TRACED_RUNS = 3      # traced runs per side and workload


# ---------------------------------------------------------------------------
# aggregation

def spread(values) -> dict:
    """Median and inclusive quartiles of a list of run values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _better(spec: dict, a: float, b: float) -> bool:
    """Whether a is strictly better than b for this metric."""
    return a > b if spec["better"] == "higher" else a < b


def compare_metric(spec: dict, parent: list, change: list) -> dict:
    """One metric over paired runs: parent[k] and change[k] are pair k."""
    p, c = spread(parent), spread(change)
    rel = c["median"] / p["median"] - 1 if p["median"] else 0.0
    worse = -rel if spec["better"] == "higher" else rel
    wins = sum(_better(spec, b, a) for a, b in zip(parent, change))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": p,
        "change": c,
        "relative_change": round(rel, 4),
        "change_wins": f"{wins}/{len(parent)}",
        "within_bound": worse <= spec["bound"],
        "runs": {"parent": [round(v, 6) for v in parent],
                 "change": [round(v, 6) for v in change]},
    }


def aggregate(parent: list, change: list, specs: list) -> dict:
    """The comparison of one workload from the results of perfbench/run.py
    (its last stdout line, parsed), listed pair by pair for each side."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    return {
        "pairs": len(parent),
        "all_correct": all(r["correct"] for r in parent + change),
        "failed_items": [sum(r["failed"] for r in parent),
                         sum(r["failed"] for r in change)],
        "attempted_items": [sum(r["attempted"] for r in parent),
                            sum(r["attempted"] for r in change)],
        "metrics": {spec["name"]: compare_metric(
            spec, [r["metrics"][spec["name"]]["value"] for r in parent],
            [r["metrics"][spec["name"]]["value"] for r in change])
            for spec in specs},
    }


def judge_claim(metric: dict, factor: float) -> dict:
    """Whether a compare_metric result meets a claimed gain of factor."""
    p, c = metric["parent"], metric["change"]
    ratio = (c["median"] / p["median"] if metric["better"] == "higher"
             else p["median"] / c["median"])
    wins, pairs = map(int, metric["change_wins"].split("/"))
    spread_ok = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    met = (ratio >= factor and wins >= math.ceil(WIN_SHARE * pairs) and spread_ok
           and _better(metric, c["median"], p["median"]))
    return {
        "target": f">= {factor}x parent median, change wins at least "
                  f"{math.ceil(WIN_SHARE * pairs)} of {pairs} pairs",
        "met": met,
        "result": f"{p['median']} -> {c['median']} ({ratio:.2f}x), {wins}/{pairs} pairs, "
                  f"parent quartiles {p['q1']}-{p['q3']}",
    }


def parse_claim(claim: str, workloads: list, metrics: list) -> tuple:
    """(workload, metric, factor) of a ``--claim WORKLOAD:METRIC:FACTOR``;
    a ValueError says what is wrong when the workload is not among
    workloads, the metric not among metrics or the factor not above 0."""
    parts = claim.split(":")
    if len(parts) != 3:
        raise ValueError(f"--claim {claim!r}: expected WORKLOAD:METRIC:FACTOR")
    workload, metric, factor = parts
    if workload not in workloads:
        raise ValueError(f"--claim {claim!r}: workload {workload!r} is not among "
                         f"the --workload values ({', '.join(workloads)})")
    if metric not in metrics:
        raise ValueError(f"--claim {claim!r}: {metric!r} is not an end-to-end metric "
                         f"of BENCHMARK.json ({', '.join(metrics)})")
    try:
        value = float(factor)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"--claim {claim!r}: factor {factor!r} is not a number above 0")
    return workload, metric, value


def metric_rows(workloads: dict) -> list:
    """One line per workload and end-to-end metric of a comparison: the
    parent's median and quartiles, the change's median, their ratio, the
    pairs the change wins and whether it stays within the bound."""
    rows = []
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            p, c = m["parent"], m["change"]
            ratio = f"{c['median'] / p['median']:.3f}" if p["median"] else "-"
            rows.append(f"{workload} {name}: parent {p['median']} "
                        f"(q1 {p['q1']}, q3 {p['q3']}), change {c['median']}, "
                        f"ratio {ratio}, wins {m['change_wins']}, "
                        f"{'within' if m['within_bound'] else 'OUTSIDE'} bound")
    return rows


def median_layers(results: list) -> dict:
    """A result whose metrics are the medians of the metrics that every
    one of results (perfbench/run.py results of one side) has."""
    names = [name for name in results[0]["metrics"]
             if all(name in r["metrics"] for r in results)]
    return {"metrics": {name: {"value": statistics.median(
        r["metrics"][name]["value"] for r in results)} for name in names}}


def traced_layers(parent: dict, change: dict) -> dict:
    """Per-layer metrics of one traced result per side, side by side."""
    return {name: {"parent": round(parent["metrics"][name]["value"], 4),
                   "change": round(change["metrics"][name]["value"], 4)}
            for name in parent["metrics"] if name in change["metrics"]}


# ---------------------------------------------------------------------------
# running

def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple:
    """(env, result) of one perfbench/run.py process in checkout."""
    argv = [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float, trace: int = 0) -> tuple:
    """(parent results, change results, environment) over alternating pairs."""
    results = {parent: [], change: []}
    env = None
    for k in range(pairs):
        order = (parent, change) if k % 2 == 0 else (change, parent)
        for side in order:
            env, result = run_once(side, workload, seed + k, seconds, trace)
            results[side].append(result)
            print(f"{workload} pair {k} {'parent' if side == parent else 'change'}: "
                  f"correct={result['correct']} "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  file=sys.stderr)
    return results[parent], results[change], env


def _parent_commit(parent: Path, given: str | None) -> str | None:
    """given, else the short HEAD of the parent checkout when it is a git
    checkout, else None."""
    if given:
        return given
    proc = subprocess.run(["git", "-C", str(parent), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--parent-commit",
                        help="recorded as parent_commit when --parent is no git checkout")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("sweep", "catalog_cli", "dense_basis"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC:FACTOR, a claimed gain to judge")
    parser.add_argument("--traced", type=int, metavar="SEED",
                        help=f"also {TRACED_RUNS} traced runs per side and workload, "
                             "on seeds SEED onwards")
    parser.add_argument("--change-note", default="", help="recorded as change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a bad claim stops here, before minutes of runs are spent on it
    try:
        claims = [parse_claim(claim, args.workload, [m["name"] for m in bench["end_to_end"]])
                  for claim in args.claim]
    except ValueError as exc:
        parser.error(str(exc))
    seconds = bench["run_seconds"]
    parent = args.parent.resolve()
    out = {
        "change": args.change_note,
        "parent_commit": _parent_commit(parent, args.parent_commit),
        "command": f"python3 {' '.join(RUN)} --workload W --seed N "
                   f"--seconds {seconds} --trace 0",
        "order": "parent and change alternate which runs first, pair by pair",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs",
        "environment": {},
        "claims": [],
        "workloads": {},
    }
    for workload in args.workload:
        p, c, env = run_pairs(parent, ROOT, workload, args.pairs, args.seed, seconds)
        out["environment"] = {"python": env["python"],
                              "implementation": env["implementation"],
                              "backend": env["backend"], "cpus": os.cpu_count()}
        out["workloads"][workload] = {
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            **aggregate(p, c, bench["end_to_end"])}
    for workload, metric, factor in claims:
        judged = judge_claim(out["workloads"][workload]["metrics"][metric], factor)
        out["claims"].append({"workload": workload, "metric": metric, **judged})
    if args.traced is not None:
        out["traced"] = {
            "command": f"python3 {' '.join(RUN)} --workload W --seed N "
                       f"--seconds {seconds} --trace 1",
            "seeds": list(range(args.traced, args.traced + TRACED_RUNS)),
            "runs": f"{TRACED_RUNS} per side, alternating as the pairs; "
                    "each layer's median over a side's runs",
            "per_item": {}}
        for w in args.workload:
            p, c, _ = run_pairs(parent, ROOT, w, TRACED_RUNS, args.traced, seconds, trace=1)
            out["traced"]["per_item"][w] = traced_layers(median_layers(p), median_layers(c))
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for row in metric_rows(out["workloads"]):
        print(row)
    for claim in out["claims"]:
        print(f"claim {claim['workload']} {claim['metric']}: "
              f"{'met' if claim['met'] else 'NOT met'}: {claim['result']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
