"""The committed BENCH_*.json records form one sound chain: each parses,
names itself, and every record after BENCH_8.json names an existing
predecessor to compare against. Every figure a record derives from its
runs can be derived again from them."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIRST = 8  # BENCH_8.json opened the chain; it compares against nothing.

# Records whose runs lists are not in seed order, so their pairs cannot be
# rebuilt: 28 of BENCH_8.json's 30 lists are sorted ascending.
UNPAIRED = {"BENCH_8.json": "runs sorted ascending, not in seed order"}

BOUNDS = {
    metric["name"]: metric["bound"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "end_to_end"
    ]
}


def bench_files():
    found = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        assert match, f"{path.name} does not read BENCH_<number>.json"
        found[int(match.group(1))] = path
    return dict(sorted(found.items()))


def test_bench_records_chain():
    files = bench_files()
    assert FIRST in files
    for number, path in files.items():
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["file"] == path.name
        if number > FIRST:
            previous = record.get("compares_against")
            assert previous in {p.name for n, p in files.items() if n < number}, (
                f"{path.name} compares against {previous!r}, not an earlier BENCH file"
            )


def metrics_of(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for workload, entry in record["workloads"].items():
        for name, metric in entry["metrics"].items():
            yield f"{path.name} {workload} {name}", name, metric


@pytest.mark.parametrize("path", bench_files().values(), ids=lambda p: p.name)
def test_side_statistics_rederive_from_runs(path):
    for where, _, metric in metrics_of(path):
        for side in ("parent", "change"):
            stats = metric[side]
            q1, _, q3 = statistics.quantiles(stats["runs"], n=4, method="inclusive")
            derived = {
                "median": statistics.median(stats["runs"]),
                "q1": q1,
                "q3": q3,
                "iqr": q3 - q1,
            }
            for key, value in derived.items():
                assert stats[key] == pytest.approx(value, rel=1e-12), (where, side, key)


@pytest.mark.parametrize(
    "path",
    [p for p in bench_files().values() if p.name not in UNPAIRED],
    ids=lambda p: p.name,
)
def test_pair_statistics_rederive_from_seed_ordered_runs(path):
    for where, name, metric in metrics_of(path):
        parent, change = metric["parent"], metric["change"]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        diffs = [sign * (c - p) for p, c in zip(parent["runs"], change["runs"])]
        wins = sum(d > 0 for d in diffs)
        gain = sign * (change["median"] - parent["median"])
        bound = BOUNDS[name]
        assert metric["bound"] == bound, where
        assert metric["change_wins"] == wins, where
        assert metric["change_loses"] == sum(d < 0 for d in diffs), where
        assert metric["median_change_rel"] == pytest.approx(
            (change["median"] - parent["median"]) / parent["median"], rel=1e-12
        ), where
        assert metric["within_bound"] == (gain >= -bound * parent["median"]), where
        assert metric["gain_claimable"] == (wins >= 9 and gain > parent["iqr"]), where
