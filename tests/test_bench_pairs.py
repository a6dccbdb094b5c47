"""The aggregation of scripts/bench_pairs.py on canned run results; no
benchmark runs."""

import importlib.util
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def result(rate, p50, failed=0, attempted=100):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"items_per_s": {"value": rate, "unit": "1/s"},
                        "item_p50_ms": {"value": p50, "unit": "ms"}}}


PARENT = [result(100, 1.0), result(104, 1.1), result(98, 0.9), result(102, 1.0)]
CHANGE = [result(140, 1.3), result(139, 1.3), result(150, 1.0), result(101, 1.4)]


def test_medians_quartiles_and_wins():
    out = bench_pairs.aggregate(PARENT, CHANGE, SPECS)
    assert out["pairs"] == 4 and out["all_correct"]
    assert out["failed_items"] == [0, 0] and out["attempted_items"] == [400, 400]
    rate = out["metrics"]["items_per_s"]
    q1, med, q3 = statistics.quantiles([100, 104, 98, 102], n=4, method="inclusive")
    assert rate["parent"] == {"median": med, "q1": q1, "q3": q3}
    assert rate["parent"]["median"] == 101
    assert rate["change"]["median"] == 139.5
    assert rate["relative_change"] == round(139.5 / 101 - 1, 4)
    # pair 3 is a loss: 101 < 102
    assert rate["change_wins"] == "3/4"
    assert rate["within_bound"] and rate["better"] == "higher"
    assert rate["runs"] == {"parent": [100, 104, 98, 102], "change": [140, 139, 150, 101]}
    # lower is better: the change is slower in every pair, 30% at the median
    p50 = out["metrics"]["item_p50_ms"]
    assert p50["change_wins"] == "0/4"
    assert p50["relative_change"] == 0.3
    assert not p50["within_bound"]


def test_failures_and_shapes():
    out = bench_pairs.aggregate([result(1, 1, failed=2)], [result(2, 1)], SPECS)
    assert not out["all_correct"] and out["failed_items"] == [2, 0]
    # one run per side: the quartiles collapse onto the value
    assert out["metrics"]["items_per_s"]["parent"] == {"median": 1, "q1": 1, "q3": 1}
    with pytest.raises(ValueError):
        bench_pairs.aggregate(PARENT, CHANGE[:3], SPECS)


def test_claim():
    rate = bench_pairs.aggregate(PARENT, CHANGE, SPECS)["metrics"]["items_per_s"]
    # 3 of 4 pairs is short of 9 in 10, whatever the factor
    assert not bench_pairs.judge_claim(rate, 1.2)["met"]
    wins = bench_pairs.aggregate(PARENT, CHANGE[:3] + [result(130, 1.0)], SPECS)
    claim = bench_pairs.judge_claim(wins["metrics"]["items_per_s"], 1.3)
    assert claim["met"] and "4/4 pairs" in claim["result"]
    assert not bench_pairs.judge_claim(wins["metrics"]["items_per_s"], 1.5)["met"]
    # a lower-is-better claim compares parent over change
    fast = bench_pairs.aggregate(PARENT, [result(100, 0.5)] * 4, SPECS)
    assert bench_pairs.judge_claim(fast["metrics"]["item_p50_ms"], 1.9)["met"]


def test_metric_rows():
    out = bench_pairs.aggregate(PARENT, CHANGE, SPECS)
    q1, _, q3 = statistics.quantiles([100, 104, 98, 102], n=4, method="inclusive")
    assert bench_pairs.metric_rows({"sweep": out, "zero": {"metrics": {
        "items_per_s": {**out["metrics"]["items_per_s"],
                        "parent": {"median": 0, "q1": 0, "q3": 0}}}}}) == [
        f"sweep items_per_s: parent 101.0 (q1 {q1}, q3 {q3}), change 139.5, "
        f"ratio 1.381, wins 3/4, within bound",
        "sweep item_p50_ms: parent 1.0 (q1 0.975, q3 1.025), change 1.3, "
        "ratio 1.300, wins 0/4, OUTSIDE bound",
        "zero items_per_s: parent 0 (q1 0, q3 0), change 139.5, "
        "ratio -, wins 3/4, within bound"]


def test_pairs_alternate(monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, seed))
        return {"python": "3"}, result(seed, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    parent, change, env = bench_pairs.run_pairs(Path("p"), Path("c"), "sweep", 3, 7, 1.0)
    assert calls == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9)]
    assert [r["metrics"]["items_per_s"]["value"] for r in parent] == [7, 8, 9]
    assert [r["metrics"]["items_per_s"]["value"] for r in change] == [7, 8, 9]


def test_traced_layers():
    got = bench_pairs.traced_layers(result(1, 2.123456), result(3, 4.0))
    assert got == {"items_per_s": {"parent": 1, "change": 3},
                   "item_p50_ms": {"parent": 2.1235, "change": 4.0}}


def test_traced_medians(monkeypatch):
    """--traced runs TRACED_RUNS alternating traced runs per side and
    records each layer's median; a layer missing from one run is left out."""
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, seed, trace))
        layers = {"layer.self_ms": {"value": seed * (2 if checkout.name == "c" else 1)}}
        if seed != 8:
            layers["rare.calls"] = {"value": 1}
        return {"python": "3"}, {"correct": True, "metrics": layers}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    parent, change, _ = bench_pairs.run_pairs(Path("p"), Path("c"), "sweep",
                                              bench_pairs.TRACED_RUNS, 7, 1.0, trace=1)
    assert calls == [("p", 7, 1), ("c", 7, 1), ("c", 8, 1), ("p", 8, 1),
                     ("p", 9, 1), ("c", 9, 1)]
    got = bench_pairs.traced_layers(bench_pairs.median_layers(parent),
                                    bench_pairs.median_layers(change))
    assert got == {"layer.self_ms": {"parent": 8, "change": 16}}
    runs = [{"metrics": {"x": {"value": v}}} for v in (5.0, 1.0, 3.5)]
    assert bench_pairs.median_layers(runs) == {"metrics": {"x": {"value": 3.5}}}


BAD_CLAIMS = {
    "sweep:items_per_sec:1.2": "'items_per_sec' is not an end-to-end metric of BENCHMARK.json",
    "dense_basis:items_per_s:1.2": "workload 'dense_basis' is not among the --workload values",
    "sweep:setup_s": "expected WORKLOAD:METRIC:FACTOR",
    "sweep:setup_s:": "factor '' is not a number above 0",
    "sweep:setup_s:fast": "factor 'fast' is not a number above 0",
    "sweep:setup_s:0": "factor '0' is not a number above 0",
    "sweep:setup_s:-1.3": "factor '-1.3' is not a number above 0",
    "sweep:setup_s:nan": "factor 'nan' is not a number above 0",
}


def test_bad_claim_exits_before_any_run(monkeypatch, capsys, tmp_path):
    """A claim is checked against --workload and BENCHMARK.json before
    the first run; a bad one exits 2 with a message and runs nothing."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_pairs", no_run)
    argv = ["--parent", str(tmp_path), "--seed", "1", "--out", str(tmp_path / "out.json"),
            "--workload", "sweep", "--workload", "catalog_cli"]
    for claim, message in BAD_CLAIMS.items():
        with pytest.raises(SystemExit) as exit_:
            bench_pairs.main(argv + ["--claim", "sweep:setup_s:1.3", "--claim", claim])
        assert exit_.value.code == 2, claim
        err = capsys.readouterr().err
        assert f"error: --claim {claim!r}: {message}" in err, claim
    assert not (tmp_path / "out.json").exists()
    # good claims pass the check and reach the runs
    with pytest.raises(AssertionError, match="a run started"):
        bench_pairs.main(argv + ["--claim", "sweep:setup_s:1.3",
                                 "--claim", "catalog_cli:items_per_s:1.05"])


def test_parse_claim():
    assert bench_pairs.parse_claim("sweep:setup_s:1.3", ["sweep"], ["setup_s"]) \
        == ("sweep", "setup_s", 1.3)
