"""Golden outputs: seeded sessions and the ``run`` fixtures, pinned exactly.

The fixture ``tests/golden/golden.json`` records what the engine did when
it was written. A refactor proves "same behaviour" by keeping this test
green; the fixture is never regenerated to follow a change. It was
written, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py --write

Pinned per seeded ``verify.random_instance`` session (d = 0, 1, 2, both
double-greedy modes): ``selection.ids``, the exact ``repr`` of the value,
the snapshots taken a third and two thirds into the stream, and the
``repr`` of the full ``close().stats``. Pinned per ``run`` fixture: every
report field except the ``seconds_*`` timings. A field added to the
report later is not pinned; a pinned field must keep its value.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from streamls.cli import main
from streamls.localsearch import StreamingSession
from streamls.streamio import parse_report
from streamls.unconstrained import DoubleGreedyConfig
from streamls.verify import random_instance

FIXTURE = Path(__file__).with_name("golden") / "golden.json"

SEEDS = range(6)
DS = (0, 1, 2)
MODES = ("deterministic", "randomized")


def _session_record(seed: int, d: int, mode: str) -> dict:
    instance = random_instance(random.Random(1000 * d + seed), d=d)
    session = StreamingSession(
        instance.oracle,
        instance.constraint,
        instance.knapsacks,
        k=instance.k,
        eps=0.2,
        prune=DoubleGreedyConfig(mode=mode, seed=seed),
    )
    n = len(instance.elements)
    marks = {n // 3, 2 * n // 3}
    snapshots = []
    for i, e in enumerate(instance.elements, start=1):
        session.push(e)
        if i in marks:
            snap = session.snapshot()
            snapshots.append([list(snap.ids), repr(snap.value)])
    report = session.close()
    return {
        "name": f"{instance.name}/seed{seed}/{mode}",
        "ids": list(report.selection.ids),
        "value": repr(report.selection.value),
        "pushed": report.pushed,
        "snapshots": snapshots,
        "stats": repr(report.stats),
    }


def sessions() -> list[dict]:
    return [
        _session_record(seed, d, mode) for d in DS for mode in MODES for seed in SEEDS
    ]


def _stream(root: Path, rows: list[str], header: str = "id,cost_1,groups") -> Path:
    path = root / "stream.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def _kernel(root: Path, text: str) -> Path:
    path = root / "kernel.txt"
    path.write_text(text)
    return path


def _run(root: Path, name: str) -> dict[str, str]:
    """One ``run`` fixture through ``cli.main``: its report minus timings."""
    case = root / name
    case.mkdir()
    if name == "coverage":
        stream = _stream(case, ["0,0.2,u;v", "1,0.3,v;w", "2,0.4,x", "3,0.9,u"])
        text = (
            f"stream = {stream}\nobjective = coverage\nconstraint = uniform:2\n"
            "knapsacks = 1\nk = 2\nreferences = 0,2|1\n"
        )
    elif name == "logdet":
        kernel = _kernel(case, "3\n1.5 0.2 0.1\n0.2 0.9 0.0\n0.1 0.0 0.4\n")
        stream = _stream(case, ["0,0.2,", "1,0.4,", "2,0.5,"])
        text = (
            f"stream = {stream}\nobjective = logdet\nkernel = {kernel}\n"
            "constraint = uniform:2\nknapsacks = 1\nk = 2\n"
        )
    elif name == "seqdpp":
        kernel = _kernel(
            case,
            "4\n2.0 0.2 0.0 0.0\n0.2 2.0 0.0 0.0\n"
            "0.0 0.0 2.0 0.3\n0.0 0.0 0.3 2.0\n",
        )
        stream = _stream(case, ["0", "1", "2", "3"], header="id")
        text = (
            f"stream = {stream}\nobjective = seqdpp\nkernel = {kernel}\n"
            "segment = 2\nconstraint = uniform:1\n"
        )
    elif name == "cut":
        edges = case / "edges.txt"
        edges.write_text("0 1 2.0\n1 2 1.0\n")
        stream = _stream(case, ["0", "1", "2"], header="id")
        text = (
            f"stream = {stream}\nobjective = cut\nedges = {edges}\n"
            "constraint = uniform:2\n"
        )
    else:
        stream = _stream(case, [f"{i},0.1,g{i % 3}" for i in range(9)])
        text = (
            f"stream = {stream}\nobjective = decomposable\nconstraint = uniform:3\n"
            "knapsacks = 1\nk = 3\n"
        )
    report = case / "report.txt"
    config = case / "run.cfg"
    config.write_text(text + f"report = {report}\n")
    assert main(["run", "--config", str(config)]) == 0
    fields = parse_report(str(report))
    return {
        key: repr(value)
        for key, value in fields.items()
        if not key.startswith("seconds")
    }


RUNS = ("coverage", "logdet", "seqdpp", "cut", "decomposable")


def runs(root: Path) -> dict[str, dict[str, str]]:
    return {name: _run(root, name) for name in RUNS}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_seeded_sessions_match_golden():
    want = _golden()["sessions"]
    got = sessions()
    assert [g["name"] for g in got] == [w["name"] for w in want]
    for g, w in zip(got, want):
        assert g == w, g["name"]


def test_run_fixtures_match_golden(tmp_path):
    want = _golden()["runs"]
    got = runs(tmp_path)
    assert sorted(got) == sorted(want)
    for name, fields in want.items():
        for key, value in fields.items():
            assert got[name].get(key) == value, (name, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = {"sessions": sessions(), "runs": runs(Path(tmp))}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
