"""Traced mode: spans around calls into each streamls layer.

Spans come from two kinds of hook, both installed from outside the
program and removed again when the run ends:

* subclasses of the objective, constraint, knapsack and kernel classes,
  so that ``backbone_alpha`` and ``exchange_candidates`` still dispatch
  on the original type;
* wrappers on the per-layer entry points: instance, chain and grid
  updates and finalizes, ``exchange_candidates``, ``unconstrained_max``,
  and the ingest, kernel, offset and report functions the CLI calls.

Spans live in flat arrays in memory (kind, parent, start, end, note) and
are written out when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

import streamls
from streamls import cli, indstream, localsearch, objectives, streamio

# Span kinds, and the layer each one's self time is charged to.
KINDS = (
    ("push", "session"),
    ("summary", "session"),
    ("run", "cli"),
    ("grid.process", "localsearch.grid"),
    ("chain.process", "localsearch.chain"),
    ("grid.finalize", "localsearch.finalize"),
    ("chain.finalize", "localsearch.finalize"),
    ("instance.process", "indstream"),
    ("value", "objectives"),
    ("kernel_check", "objectives"),
    ("load_kernel", "objectives"),
    ("offset", "objectives"),
    ("indep", "constraints"),
    ("exchange", "constraints"),
    ("knapsack", "constraints"),
    ("unconstrained", "unconstrained"),
    ("load_stream", "streamio"),
    ("build_objective", "streamio"),
    ("write_report", "streamio"),
)
KIND = {name: n for n, (name, _) in enumerate(KINDS)}
LAYERS = sorted({layer for _, layer in KINDS})
CONTEXTS = ("push", "summary", "other")

# Notes on instance steps: the instance was frozen, the step swapped.
STEP_FROZEN = 1
STEP_SWAP = 2


class Tracer:
    """In-memory span store plus per-push observations of the engine."""

    def __init__(self):
        self.clear()
        self.held_peak = 0
        self.active_runs_total = 0
        self.grid_pushes = 0

    def clear(self) -> None:
        self.kind = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.note = array("l")
        self._stack = [-1]

    def open(self, kind: int, note: int = 0) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.note.append(note)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, kind: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, KIND[kind])

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            name: np.frombuffer(getattr(self, name), dtype=getattr(self, name).typecode).copy()
            for name in ("kind", "parent", "start", "end", "note")
        }

    def observe_engine(self, engine) -> None:
        """Count held elements after a push, apart from the program's tally."""
        is_grid = isinstance(engine, localsearch.GridState)
        chains = list(engine.runs.values()) if is_grid else [engine]
        held = 0
        for chain in chains:
            for inst in chain.instances:
                held += len(inst.current_solution())
                held += inst.overflow_record() is not None
        self.held_peak = max(self.held_peak, held)
        if is_grid:
            self.active_runs_total += len(engine.runs)
            self.grid_pushes += 1


class _Span:
    def __init__(self, tracer: Tracer, kind: int):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self):
        self.idx = self.tracer.open(self.kind)

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _wrap(tracer: Tracer, kind: str, fn):
    k = KIND[kind]

    def traced(*args, **kwargs):
        idx = tracer.open(k)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def traced_classes(tracer: Tracer) -> dict[str, type]:
    """Subclasses of the objective, constraint, knapsack and kernel classes."""
    value_kind = KIND["value"]
    indep_kind = KIND["indep"]
    knap_kind = KIND["knapsack"]
    check_kind = KIND["kernel_check"]

    class CoverageOracle(streamls.CoverageOracle):
        def value(self, elements):
            idx = tracer.open(value_kind, len(elements))
            try:
                return super().value(elements)
            finally:
                tracer.close(idx)

    class LogDetOracle(streamls.LogDetOracle):
        def value(self, elements):
            idx = tracer.open(value_kind, len(elements))
            try:
                return super().value(elements)
            finally:
                tracer.close(idx)

    class PartitionMatroid(streamls.PartitionMatroid):
        def is_independent(self, elements):
            idx = tracer.open(indep_kind)
            try:
                return super().is_independent(elements)
            finally:
                tracer.close(idx)

    class UniformMatroid(streamls.UniformMatroid):
        def is_independent(self, elements):
            idx = tracer.open(indep_kind)
            try:
                return super().is_independent(elements)
            finally:
                tracer.close(idx)

    class KnapsackSpec(streamls.KnapsackSpec):
        def feasible(self, elements):
            idx = tracer.open(knap_kind)
            try:
                return super().feasible(elements)
            finally:
                tracer.close(idx)

        def singleton_fits(self, e):
            idx = tracer.open(knap_kind)
            try:
                return super().singleton_fits(e)
            finally:
                tracer.close(idx)

        def total_cost(self, e):
            idx = tracer.open(knap_kind)
            try:
                return super().total_cost(e)
            finally:
                tracer.close(idx)

    class DppKernel(streamls.DppKernel):
        def __init__(self, *args, **kwargs):
            idx = tracer.open(check_kind)
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(idx)

    return {
        cls.__name__: cls
        for cls in (
            CoverageOracle,
            LogDetOracle,
            PartitionMatroid,
            UniformMatroid,
            KnapsackSpec,
            DppKernel,
        )
    }


def plain_classes() -> dict[str, type]:
    return {
        name: getattr(streamls, name)
        for name in (
            "CoverageOracle",
            "LogDetOracle",
            "PartitionMatroid",
            "UniformMatroid",
            "KnapsackSpec",
            "DppKernel",
        )
    }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every hook for the duration of the block, then restore them.

    Yields the traced classes for the benchmark's own constructions.
    """
    classes = traced_classes(tracer)
    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, new):
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        saved.append((owner, name, old))
        setattr(owner, name, new)

    session_cls = localsearch.StreamingSession
    orig_push = session_cls.push
    push_kind = KIND["push"]

    def push(self, e):
        idx = tracer.open(push_kind)
        try:
            orig_push(self, e)
        finally:
            tracer.close(idx)

    step_kind = KIND["instance.process"]

    def step(fn):
        def traced(self, *args, **kwargs):
            note = STEP_FROZEN if self.overflow_record() is not None else 0
            idx = tracer.open(step_kind, note)
            try:
                outcome = fn(self, *args, **kwargs)
            finally:
                tracer.close(idx)
            if outcome.accepted and outcome.discarded:
                tracer.note[idx] = note | STEP_SWAP
            return outcome

        return traced

    load_kind = KIND["load_stream"]
    orig_load = cli.load_stream

    def load_stream(*args, **kwargs):
        # The CLI drains the generator at once; drain it inside the span.
        idx = tracer.open(load_kind)
        try:
            return iter(list(orig_load(*args, **kwargs)))
        finally:
            tracer.close(idx)

    inst_cls = indstream.IndStreamInstance
    patch(session_cls, "push", push)
    patch(session_cls, "snapshot", _wrap(tracer, "summary", session_cls.snapshot))
    patch(session_cls, "close", _wrap(tracer, "summary", session_cls.close))
    patch(inst_cls, "process", step(inst_cls.process))
    patch(inst_cls, "process_with_threshold", step(inst_cls.process_with_threshold))
    for cls, prefix in ((localsearch.ChainState, "chain"), (localsearch.GridState, "grid")):
        patch(cls, "process", _wrap(tracer, f"{prefix}.process", cls.process))
        patch(cls, "finalize", _wrap(tracer, f"{prefix}.finalize", cls.finalize))
    patch(
        indstream,
        "exchange_candidates",
        _wrap(tracer, "exchange", indstream.exchange_candidates),
    )
    patch(
        localsearch,
        "unconstrained_max",
        _wrap(tracer, "unconstrained", localsearch.unconstrained_max),
    )
    patch(streamio, "load_kernel", _wrap(tracer, "load_kernel", streamio.load_kernel))
    patch(
        streamio,
        "suggest_logdet_offset",
        _wrap(tracer, "offset", streamio.suggest_logdet_offset),
    )
    for name in ("LogDetOracle", "UniformMatroid", "PartitionMatroid", "DppKernel"):
        patch(streamio, name, classes[name])
    patch(objectives, "DppKernel", classes["DppKernel"])
    patch(cli, "KnapsackSpec", classes["KnapsackSpec"])
    patch(cli, "load_stream", load_stream)
    patch(cli, "build_objective", _wrap(tracer, "build_objective", cli.build_objective))
    patch(cli, "write_report", _wrap(tracer, "write_report", cli.write_report))
    try:
        yield classes
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


class SpanTotals:
    """Per-kind span counts and times, split by the root they ran under.

    The context of a span is the nearest enclosing ``push`` or
    ``summary`` span, or ``other`` when there is none.
    """

    def __init__(self):
        n = len(KINDS)
        self.count = {c: np.zeros(n) for c in CONTEXTS}
        self.total = {c: np.zeros(n) for c in CONTEXTS}
        self.self_time = {c: np.zeros(n) for c in CONTEXTS}
        self.note_sum = {c: np.zeros(n) for c in CONTEXTS}
        self.frozen_steps = 0
        self.swap_steps = 0
        self.min_self = 0.0
        self.push_time = 0.0
        self.spans = 0

    def add(self, spans: dict[str, np.ndarray]) -> None:
        kind = spans["kind"].astype(np.int64)
        parent = spans["parent"].astype(np.int64)
        note = spans["note"].astype(np.int64)
        dur = spans["end"] - spans["start"]
        n = len(kind)
        if n == 0:
            return
        self.spans += n
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        self.min_self = min(self.min_self, float(self_time.min()))

        ctx = np.full(n, -1)
        ctx[kind == KIND["push"]] = 0
        ctx[kind == KIND["summary"]] = 1
        ctx[(ctx == -1) & ~has_parent] = 2
        up = parent.copy()
        todo = ctx == -1
        while todo.any():  # pointer jumping up the parent links
            ctx[todo] = ctx[up[todo]]
            todo = ctx == -1
            up[todo] = up[up[todo]]

        nk = len(KINDS)
        for c, label in enumerate(CONTEXTS):
            sel = ctx == c
            self.count[label] += np.bincount(kind[sel], minlength=nk)
            self.total[label] += np.bincount(kind[sel], weights=dur[sel], minlength=nk)
            self.self_time[label] += np.bincount(
                kind[sel], weights=self_time[sel], minlength=nk
            )
            self.note_sum[label] += np.bincount(
                kind[sel], weights=note[sel].astype(float), minlength=nk
            )
        steps = note[(kind == KIND["instance.process"]) & (ctx == 0)]
        self.frozen_steps += int(np.count_nonzero(steps & STEP_FROZEN))
        self.swap_steps += int(np.count_nonzero(steps & STEP_SWAP))
        self.push_time += float(dur[kind == KIND["push"]].sum())

    def layer_self(self, context: str) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for k, (_, layer) in enumerate(KINDS):
            out[layer] += float(self.self_time[context][k])
        return out

    def _all(self, table, kind: str) -> float:
        return float(sum(table[c][KIND[kind]] for c in CONTEXTS))

    def layer_metrics(
        self, elements: int, rounds: int, summaries: int, runs_opened: float,
        active_runs_mean: float,
    ) -> dict[str, float]:
        """The per-layer metrics, from the spans of every traced round."""

        def per(x: float, base: float) -> float:
            return x / base if base else 0.0

        k = KIND
        push, summ = "push", "summary"
        value_calls = self.count[push][k["value"]]
        indep_calls = self.count[push][k["indep"]]
        exchange_calls = self.count[push][k["exchange"]]
        steps = self.count[push][k["instance.process"]]
        finalize_self = (
            self.self_time[summ][k["grid.finalize"]]
            + self.self_time[summ][k["chain.finalize"]]
        )
        return {
            "streamio.load_stream_s": per(self._all(self.self_time, "load_stream"), rounds),
            "streamio.build_objective_s": per(
                self._all(self.self_time, "build_objective"), rounds
            ),
            "streamio.write_report_ms": 1e3 * per(self._all(self.total, "write_report"), rounds),
            "objectives.load_kernel_s": per(self._all(self.self_time, "load_kernel"), rounds),
            "objectives.offset_s": per(self._all(self.total, "offset"), rounds),
            "objectives.kernel_check_s": per(self._all(self.total, "kernel_check"), rounds),
            "objectives.value_calls_per_element": per(value_calls, elements),
            "objectives.push_value_share": per(
                self.total[push][k["value"]], self.push_time
            ),
            "objectives.value_us_mean": 1e6 * per(self.total[push][k["value"]], value_calls),
            "objectives.value_set_size_mean": per(
                self.note_sum[push][k["value"]], value_calls
            ),
            "objectives.snapshot_value_calls": per(self.count[summ][k["value"]], summaries),
            "constraints.indep_calls_per_element": per(indep_calls, elements),
            "constraints.indep_us_mean": 1e6 * per(self.total[push][k["indep"]], indep_calls),
            "constraints.exchange_calls_per_element": per(exchange_calls, elements),
            "constraints.exchange_us_mean": 1e6
            * per(self.total[push][k["exchange"]], exchange_calls),
            "constraints.knapsack_us_per_element": 1e6
            * per(self.total[push][k["knapsack"]], elements),
            "indstream.steps_per_element": per(steps, elements),
            "indstream.frozen_step_share": per(self.frozen_steps, steps),
            "indstream.swap_share": per(self.swap_steps, steps),
            "indstream.self_us_per_element": 1e6
            * per(self.self_time[push][k["instance.process"]], elements),
            "localsearch.chain_self_us_per_element": 1e6
            * per(self.self_time[push][k["chain.process"]], elements),
            "localsearch.grid_self_us_per_element": 1e6
            * per(self.self_time[push][k["grid.process"]], elements),
            "localsearch.active_runs_mean": active_runs_mean,
            "localsearch.runs_opened": runs_opened,
            "localsearch.finalize_self_ms": 1e3 * per(finalize_self, summaries),
            "unconstrained.calls_per_snapshot": per(
                self.count[summ][k["unconstrained"]], summaries
            ),
            "unconstrained.ms_per_snapshot": 1e3
            * per(self.total[summ][k["unconstrained"]], summaries),
        }


LAYER_UNITS = {
    "streamio.load_stream_s": "s",
    "streamio.build_objective_s": "s",
    "streamio.write_report_ms": "ms",
    "objectives.load_kernel_s": "s",
    "objectives.offset_s": "s",
    "objectives.kernel_check_s": "s",
    "objectives.value_calls_per_element": "calls/element",
    "objectives.push_value_share": "fraction",
    "objectives.value_us_mean": "us",
    "objectives.value_set_size_mean": "elements",
    "objectives.snapshot_value_calls": "calls/snapshot",
    "constraints.indep_calls_per_element": "calls/element",
    "constraints.indep_us_mean": "us",
    "constraints.exchange_calls_per_element": "calls/element",
    "constraints.exchange_us_mean": "us",
    "constraints.knapsack_us_per_element": "us/element",
    "indstream.steps_per_element": "steps/element",
    "indstream.frozen_step_share": "fraction",
    "indstream.swap_share": "fraction",
    "indstream.self_us_per_element": "us/element",
    "localsearch.chain_self_us_per_element": "us/element",
    "localsearch.grid_self_us_per_element": "us/element",
    "localsearch.active_runs_mean": "runs",
    "localsearch.runs_opened": "runs",
    "localsearch.finalize_self_ms": "ms",
    "unconstrained.calls_per_snapshot": "calls/snapshot",
    "unconstrained.ms_per_snapshot": "ms",
}
