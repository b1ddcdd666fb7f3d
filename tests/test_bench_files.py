"""Every committed BENCH_<n>.json summary is what its own runs give.

A BENCH file holds the perfbench result lines of alternating parent/change
pairs ("runs") and a per-workload "summary" of them, at its top level and in
any section beside them that has its own (a check on another seed). Each
summary is recomputed here from its runs, with each metric's direction taken
from BENCHMARK.json, and must match to the last bit.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def summarize(runs: list[dict]) -> dict:
    """One workload's summary, computed from its runs."""
    by_side = {"parent": {}, "change": {}}
    for run in runs:
        assert run["pair"] not in by_side[run["side"]], f"pair {run['pair']} twice"
        by_side[run["side"]][run["pair"]] = run["result"]
    pairs = sorted(by_side["parent"])
    assert sorted(by_side["change"]) == pairs
    summary = {}
    for metric, better in BETTER.items():
        parent, change = ([by_side[side][p]["metrics"][metric]["value"] for p in pairs]
                          for side in ("parent", "change"))
        wins = (c > p if better == "higher" else c < p for p, c in zip(parent, change))
        summary[metric] = {
            "parent_median": statistics.median(parent),
            "parent_q1_q3": quartiles(parent),
            "change_median": statistics.median(change),
            "change_q1_q3": quartiles(change),
            "change_over_parent": statistics.median(change) / statistics.median(parent),
            "pairs": len(pairs),
            "change_better_in": sum(wins),
        }
    summary["correct_all"] = all(run["result"]["correct"] for run in runs)
    summary["failed"] = sum(run["result"]["failed"] for run in runs)
    return summary


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_each_bench_summary_recomputes_from_its_runs(path):
    bench = json.loads(path.read_text())
    sections = [bench, *(v for v in bench.values() if isinstance(v, dict) and "runs" in v)]
    for section in sections:
        workloads = {run["workload"] for run in section["runs"]}
        assert set(section["summary"]) == workloads
        for workload, stored in section["summary"].items():
            runs = [run for run in section["runs"] if run["workload"] == workload]
            assert summarize(runs) == stored, workload
