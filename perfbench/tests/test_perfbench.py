"""Tests of the benchmark itself: workloads at tiny sizes and the checker.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pacing import HostClock  # noqa: E402

import streamls  # noqa: E402
from streamls import cli, indstream, localsearch  # noqa: E402

TINY = {"grid-coverage": 120, "chain-logdet": 90, "run-budget": 40}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_at_a_tiny_size(name, tmp_path):
    (stream,) = workloads.make(name, 3, str(tmp_path), TINY[name], streams=1)
    first = stream.round(HostClock(), tracing.plain_classes(), None)
    again = stream.round(HostClock(), tracing.plain_classes(), None)
    for rec in (first, again):
        assert rec.problems == [] and rec.failed == 0
        assert rec.elements == TINY[name] and rec.push_raw > 0 and rec.setup_raw > 0
        assert rec.value > 0 and rec.peak_held > 0
    assert again.selected == first.selected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_yields_every_layer_metric(name, monkeypatch):
    monkeypatch.setattr(run, "WARMUP_SIZE", 20)
    result, details = run.measure(name, 2, 0.0, True, size=TINY[name])
    assert result["correct"], details["problems"] + details["trace_problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(tracing.LAYER_UNITS)
    assert details["push_accounted_share"] > 0.9
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["objectives.value_calls_per_element"] > 0
    assert m["indstream.steps_per_element"] >= 1
    if name == "run-budget":
        assert m["objectives.offset_s"] > 0 and m["streamio.load_stream_s"] > 0
    else:
        assert m["streamio.load_stream_s"] == 0
    if name == "chain-logdet":
        assert m["localsearch.grid_self_us_per_element"] == 0
    else:
        assert m["localsearch.runs_opened"] > 0


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "WARMUP_SIZE", 20)
    result, details = run.measure("grid-coverage", 1, 0.0, False, size=60)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.UNITS)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["rounds"] % details["streams"] == 0


def test_hooks_are_removed_after_tracing():
    before = (
        localsearch.StreamingSession.push,
        indstream.IndStreamInstance.process,
        indstream.exchange_candidates,
        cli.load_stream,
        cli.KnapsackSpec,
    )
    with tracing.installed(tracing.Tracer()) as classes:
        assert issubclass(classes["PartitionMatroid"], streamls.PartitionMatroid)
        assert cli.KnapsackSpec is not streamls.KnapsackSpec
    after = (
        localsearch.StreamingSession.push,
        indstream.IndStreamInstance.process,
        indstream.exchange_candidates,
        cli.load_stream,
        cli.KnapsackSpec,
    )
    assert after == before


def _one_push(push_s: float, value_s: float) -> tracing.SpanTotals:
    """Fold one push span holding one value call of ``value_s`` seconds."""
    totals = tracing.SpanTotals()
    totals.add({
        "kind": np.array([tracing.KIND["push"], tracing.KIND["value"]]),
        "parent": np.array([-1, 0]),
        "note": np.array([0, 3]),
        "start": np.array([0.0, 0.0]),
        "end": np.array([push_s, value_s]),
    })
    return totals


def test_trace_checks_catch_unhooked_and_untimed_push_time():
    covered = _one_push(1.0, 0.99)
    value = tracing.KIND["value"]
    assert covered.count["push"][value] == 1 and covered.note_sum["push"][value] == 3
    assert run.trace_problems(covered, 1.0) == []
    # Half the push time in no hooked layer.
    assert any("no hooked layer" in p for p in run.trace_problems(_one_push(1.0, 0.5), 1.0))
    # The traced pushes cover only half of the timed push time.
    assert any("timed pushes" in p for p in run.trace_problems(covered, 2.0))


# ---------------------------------------------------------------------------
# The checker rejects planted wrong outputs
# ---------------------------------------------------------------------------

LABELS = {0: "a", 1: "a", 2: "b", 3: "b"}
CAPS = {"a": 1, "b": 2}
COSTS = {0: (0.5,), 1: (0.4,), 2: (0.3,), 3: (0.3,)}


def test_feasible_selection_passes():
    assert checks.check_feasible([1, 2, 3], range(4), LABELS, CAPS, COSTS) == []


@pytest.mark.parametrize(
    "ids",
    [[0, 1], [0, 2, 3], [1, 1], [1, 9]],
    ids=["label-cap", "knapsack", "repeated-id", "foreign-id"],
)
def test_infeasible_selection_is_rejected(ids):
    assert checks.check_feasible(ids, range(4), LABELS, CAPS, COSTS)


def test_value_off_by_a_millionth_is_rejected():
    assert checks.check_value(42.0 * (1 + 1e-6), 42.0, "planted")
    assert checks.check_value(42.0 * (1 - 1e-6), 42.0, "planted")
    assert checks.check_value(42.0 * (1 + 1e-12), 42.0, "rounding") == []


def test_value_below_the_bound_is_rejected():
    factor = checks.guarantee_factor(0.25, 1.0 / 3.0, 1, 0.2)
    assert checks.check_guarantee(0.99 * factor * 50.0, 50.0, factor)
    assert checks.check_guarantee(1.01 * factor * 50.0, 50.0, factor) == []


def test_broken_conservation_is_rejected():
    assert checks.check_conservation([(5, 2, [[1, 2], [3]])]) == []
    assert checks.check_conservation([(5, 1, [[1, 2], [2, 3]])])  # overlap
    assert checks.check_conservation([(6, 2, [[1, 2], [3]])])  # lost element


def test_guarantee_factor_matches_the_paper():
    # One matroid (p = 1, alpha = 1/4), randomized pruning, no knapsack: 1/9.
    assert checks.guarantee_factor(0.25, 0.5, 0, 0.0) == pytest.approx(1.0 / 9.0)
    # d knapsacks with beta = 1/2: (1-eps) / (1 + 4p + 4 sqrt(p) + d (2 + 1/sqrt(p))).
    p, d, eps = 2, 3, 0.2
    expected = (1 - eps) / (1 + 4 * p + 4 * math.sqrt(p) + d * (2 + 1 / math.sqrt(p)))
    assert checks.guarantee_factor(1 / (4 * p), 0.5, d, eps) == pytest.approx(expected)


def test_offset_and_greedy_are_computed_apart_from_the_program():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 3))
    kernel = x @ x.T + 0.3 * np.eye(12)
    worst = 0.0
    for i in range(12):
        worst = min(worst, math.log(kernel[i, i]))
        for j in range(i + 1, 12):
            worst = min(worst, math.log(np.linalg.det(kernel[np.ix_([i, j], [i, j])])))
    assert checks.logdet_offset(kernel) == pytest.approx(max(0.0, -worst) + 1.0, rel=1e-12)
    assert checks.logdet_offset(kernel) == pytest.approx(
        streamls.suggest_logdet_offset(kernel), rel=1e-9
    )
    labels = {i: f"t{i % 3}" for i in range(12)}
    caps = {"t0": 1, "t1": 1, "t2": 1}
    chosen, value = checks.greedy_logdet(kernel, 5.0, labels, caps)
    assert checks.check_feasible(chosen, range(12), labels, caps) == []
    assert value == pytest.approx(checks.logdet_value(kernel, chosen, 5.0))


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) and max(bounds.values()) <= 0.25
