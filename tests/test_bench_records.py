"""The committed BENCH_*.json records form one sound chain: each parses,
names itself, and every record after BENCH_8.json names an existing
predecessor to compare against."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST = 8  # BENCH_8.json opened the chain; it compares against nothing.


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
