"""Run one streamls benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload grid-coverage --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A second JSON
line on standard error carries the raw and scaled figures behind them.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the host has two shared vCPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WARMUP_SIZE = 60
# Largest share of traced push time that may lie outside every hooked
# layer; in the reference traces it was 0.0-0.8%.
UNHOOKED_MAX = 0.05


def _import_program() -> None:
    if not (SRC / "streamls" / "__init__.py").is_file():
        sys.exit(f"error: no streamls sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamls

    if Path(streamls.__file__).resolve().parent != SRC / "streamls":
        sys.exit(f"error: imported streamls from {streamls.__file__}, not {SRC}")


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(rounds, scaled: bool) -> dict[str, list[float]]:
    """Per-round series of every end-to-end metric, raw or scaled."""

    def f(r, attr):
        return getattr(r, attr + "_factor") if scaled else 1.0

    per_round = {
        "setup_s": [r.setup_raw * f(r, "setup") for r in rounds],
        "elements_per_s": [r.elements / (r.push_raw * f(r, "push")) for r in rounds],
        "summary_ms": [1e3 * r.summary_raw * f(r, "summary") for r in rounds],
        "peak_held": [float(r.peak_held) for r in rounds],
        "selection_value": [r.value for r in rounds],
    }
    return per_round


UNITS = {
    "setup_s": "s",
    "elements_per_s": "1/s",
    "summary_ms": "ms",
    "peak_held": "elements",
    "selection_value": "objective",
}
# Reported raw rather than scaled: chain-logdet's set-up is one LAPACK
# eigenvalue call, which the interpreter-bound reference loop does not
# track. Over four sets of ten seeds its spread was 0.08-0.11 raw and
# 0.08-0.21 scaled.
RAW_METRICS = {("chain-logdet", "setup_s")}
# Set-up is a median over rounds. Throughput is all elements over all
# push time (the harmonic mean of equal-sized rounds), and the summary and
# the counts are means, so every input of a cycle weighs the same.
AGGREGATE = {
    "setup_s": statistics.median,
    "elements_per_s": statistics.harmonic_mean,
    "summary_ms": statistics.fmean,
    "peak_held": statistics.fmean,
    "selection_value": statistics.fmean,
}


def measure(name: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[dict, dict]:
    """Run whole rounds for ``seconds``; return (result line, details)."""
    import tracing
    import workloads
    from pacing import HostClock

    started = time.perf_counter()
    workdir = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        (warm,) = workloads.make(name, seed, str(workdir / "warmup"), WARMUP_SIZE, streams=1)
        streams = workloads.make(name, seed, str(workdir / "inputs"), size)
        clock = HostClock()
        warm.round(clock, tracing.plain_classes(), None)

        tracer = tracing.Tracer() if trace else None
        totals = tracing.SpanTotals()
        first_spans = None
        rounds = []
        cycles: list[float] = []
        hooks = (
            tracing.installed(tracer)
            if tracer is not None
            else contextlib.nullcontext(tracing.plain_classes())
        )
        with hooks as classes:
            # Whole cycles only: every run streams each input equally often.
            # The deadline counts from the start, inputs and warm-up
            # included. Another cycle starts only if the run then ends
            # nearer the deadline than it would without it.
            deadline = started + seconds
            while not cycles or time.perf_counter() + statistics.fmean(cycles) / 2 < deadline:
                cycle_start = time.perf_counter()
                for stream in streams:
                    gc.collect()
                    if tracer is not None:
                        tracer.held_peak = 0
                    rec = stream.round(clock, classes, tracer)
                    rounds.append(rec)
                    if tracer is not None:
                        spans = tracer.arrays()
                        tracer.clear()
                        totals.add(spans)
                        if first_spans is None:
                            first_spans = spans
                        if rec.traced_held_peak is not None and rec.traced_held_peak != rec.peak_held:
                            rec.failed += 1
                            rec.problems.append(
                                f"peak_held {rec.peak_held} != traced count {rec.traced_held_peak}"
                            )
                cycles.append(time.perf_counter() - cycle_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    attempted = sum(s.ops_per_round for s in streams) * len(cycles)
    failed = sum(r.failed for r in rounds)
    good = [r for r in rounds if not r.failed]
    if not good:
        # Nothing to measure: report the failures with zeroed metrics.
        names = tracing.LAYER_UNITS if trace else UNITS
        zero = {k: {"value": 0.0, "unit": u} for k, u in names.items()}
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": zero}, {
            "workload": name, "seed": seed, "problems": problems[:10]}
    push_times = [t for r in good for t in r.push_times]
    details = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "streams": len(streams),
        "cycle_s": cycles,
        "ref_chunk_ms_mean": 1e3 * statistics.fmean(clock.samples),
        "ref_chunks": len(clock.samples),
        "push_samples": len(push_times),
        "push_p50_us": 1e6 * _percentile(push_times, 0.5) if push_times else 0.0,
        "push_p99_us": 1e6 * _percentile(push_times, 0.99) if push_times else 0.0,
        "problems": problems[:10],
    }
    for label, scaled in (("raw", False), ("scaled", True)):
        series = end_to_end(good, scaled)
        details[label] = {k: AGGREGATE[k](v) for k, v in series.items()}
        details[label + "_quartiles"] = {k: _quartiles(v) for k, v in series.items()}

    if not trace:
        metrics = {
            k: {"value": details["raw" if (name, k) in RAW_METRICS else "scaled"][k], "unit": u}
            for k, u in UNITS.items()
        }
    else:
        metrics, extra = _layer_metrics(name, seed, good, totals, tracer, first_spans)
        details.update(extra)
        problems += extra["trace_problems"]
    details["wall_s"] = time.perf_counter() - started
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def trace_problems(totals, outer: float) -> list[str]:
    """Cross-checks of the traced push time; each one found fails the run.

    The layers' self times along ``push`` sum to the traced push time by
    construction, so that sum checks nothing. Instead, the push spans' own
    self time (work inside ``push`` that no hook covers) must stay under
    UNHOOKED_MAX of it, and the traced push time must lie within 90-100%
    of the push time timed around the same calls.
    """
    problems = []
    if totals.min_self < -1e-6:
        problems.append(f"a child span outlasts its parent by {-totals.min_self:.3g} s")
    unhooked = totals.layer_self("push")["session"]
    if unhooked > UNHOOKED_MAX * totals.push_time:
        problems.append(
            f"{unhooked:.3g} s of {totals.push_time:.3g} s traced push time is in no hooked layer"
        )
    if not 0.9 * outer <= totals.push_time <= outer * (1 + 1e-9):
        problems.append(f"traced push time {totals.push_time!r} vs timed pushes {outer!r}")
    return problems


def _layer_metrics(name, seed, rounds, totals, tracer, first_spans):
    import numpy as np

    import tracing

    elements = sum(r.elements for r in rounds)
    summaries = sum(r.summaries for r in rounds)
    active = tracer.active_runs_total / tracer.grid_pushes if tracer.grid_pushes else 0.0
    opened = statistics.fmean(r.runs_opened for r in rounds)
    values = totals.layer_metrics(elements, len(rounds), summaries, opened, active)
    metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in values.items()}

    outer = sum(r.push_raw for r in rounds)
    problems = trace_problems(totals, outer)
    trace_dir = HERE / "traces"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{name}-seed{seed}.npz"
    np.savez_compressed(path, kinds=np.array([k for k, _ in tracing.KINDS]), **first_spans)
    extra = {
        "trace_file": str(path.relative_to(ROOT)),
        "spans": totals.spans,
        "traced_elements_per_s_raw": elements / outer if outer else 0.0,
        "push_time_s": totals.push_time,
        "push_self_s": totals.layer_self("push"),
        "push_accounted_share": totals.push_time / outer if outer else 0.0,
        "trace_problems": problems,
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
