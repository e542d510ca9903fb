"""The three benchmark workloads, driven through the public streamls API.

A run repeats whole rounds of one workload on the inputs its seed makes.
A round sets up the program, streams every element through it, takes
summaries, and then checks every output apart from the program. Timed
calls are interleaved with reference chunks (see ``pacing``); the checks
run outside every timed section.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import warnings
from dataclasses import dataclass, field

import streamls
from streamls import cli
from streamls.localsearch import GridState, StreamingSession

import checks
import inputs
from pacing import BRACKET_CHUNKS, HostClock, factor
from tracing import Tracer

pc = time.perf_counter
DETERMINISTIC_BETA = 1.0 / 3.0
SWAP_ALPHA = 0.25  # 1/(4p) with p = 1 for uniform and partition matroids


@dataclass
class Round:
    """What one round measured, raw and scaled, and what its checks found."""

    elements: int
    setup_raw: float = 0.0
    setup_factor: float = 1.0
    push_raw: float = 0.0
    push_factor: float = 1.0
    summary_raw: float = 0.0
    summary_factor: float = 1.0
    push_times: list[float] = field(default_factory=list)
    peak_held: int = 0
    value: float = 0.0
    selected: tuple[int, ...] = ()
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    runs_opened: int = 0
    summaries: int = 0
    traced_held_peak: int | None = None


def _engine_chains(engine) -> list:
    return list(engine.runs.values()) if isinstance(engine, GridState) else [engine]


def _conservation(engine) -> list[str]:
    return checks.check_conservation(
        [
            (
                chain.processed,
                chain.dropped,
                [[e.id for e in inst.current_solution()] for inst in chain.instances],
            )
            for chain in _engine_chains(engine)
        ]
    )


def _runs_opened(engine) -> int:
    if isinstance(engine, GridState):
        stats = engine.stats()
        return stats["active_runs"] + stats["retired_runs"]
    return 0


def _clamp_problems(caught: list[warnings.WarningMessage]) -> list[str]:
    return [
        f"warning during the round: {w.message}"
        for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]


class LibraryWorkload:
    """A StreamingSession fed element by element, with periodic snapshots."""

    name = ""

    def __init__(self):
        self.elements: list[streamls.Element] = []
        self.snapshot_every = 1
        self.bound_factor = 0.0
        self.baseline = 0.0
        self._first: tuple[int, ...] | None = None

    @property
    def ops_per_round(self) -> int:
        return len(self.elements) + len(self.elements) // self.snapshot_every

    def build(self, classes: dict[str, type]) -> StreamingSession:
        raise NotImplementedError

    def selection_problems(self, ids: list[int], prefix: int, value: float) -> list[str]:
        raise NotImplementedError

    def round(self, clock: HostClock, classes: dict, tracer: Tracer | None) -> Round:
        rec = Round(elements=len(self.elements))
        done = 0
        snapshots: list[tuple[int, object]] = []
        summary_times: list[float] = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                clock.bracket()
                m0 = clock.mark()
                start = pc()
                session = self.build(classes)
                rec.setup_raw = pc() - start
                clock.bracket()
                m1 = clock.mark()
                rec.setup_factor = clock.factor(m0 - BRACKET_CHUNKS, m1)
                for j, e in enumerate(self.elements, 1):
                    start = pc()
                    session.push(e)
                    dt = pc() - start
                    done += 1
                    rec.push_times.append(dt)
                    if tracer is not None:
                        tracer.observe_engine(session.engine)
                    clock.after(dt)
                    if j % self.snapshot_every == 0:
                        start = pc()
                        selection = session.snapshot()
                        dt = pc() - start
                        done += 1
                        summary_times.append(dt)
                        snapshots.append((j, selection))
                        clock.after(dt)
                m2 = clock.mark()
                rec.push_factor = rec.summary_factor = clock.factor(m1, m2)
                report = session.close()
            except Exception as exc:  # any raise fails this and every later op
                rec.failed = self.ops_per_round - done
                rec.problems.append(f"{type(exc).__name__}: {exc}")
                return rec
        rec.push_raw = sum(rec.push_times)
        rec.summary_raw = sum(summary_times) / len(summary_times)
        rec.summaries = len(summary_times)
        rec.peak_held = report.stats["high_water"]
        rec.runs_opened = _runs_opened(session.engine)
        if tracer is not None:
            rec.traced_held_peak = tracer.held_peak

        # Every snapshot: feasible on its prefix, value recomputed.
        for prefix, selection in snapshots:
            ids = [e.id for e in selection.elements]
            found = self.selection_problems(ids, prefix, selection.value)
            if found:
                rec.failed += 1
                rec.problems += found
        last = snapshots[-1][1]
        rec.selected = tuple(sorted(e.id for e in last.elements))
        rec.value = self.recompute(rec.selected)
        final = _clamp_problems(caught)
        final += checks.check_guarantee(rec.value, self.baseline, self.bound_factor)
        final += _conservation(session.engine)
        if tuple(report.selection.ids) != rec.selected:
            final.append("close() disagrees with the final snapshot")
        if self._first is None:
            self._first = rec.selected
        elif rec.selected != self._first:
            final.append("the same inputs gave a different selection")
        if final:
            rec.failed += 1
            rec.problems += final
        return rec

    def recompute(self, ids) -> float:
        raise NotImplementedError


class GridCoverage(LibraryWorkload):
    name = "grid-coverage"

    def __init__(self, seed: int, stream: int, size: int | None = None):
        super().__init__()
        self.inst = inputs.coverage_instance(seed, stream, size or inputs.GRID_ELEMENTS)
        inst = self.inst
        self.snapshot_every = min(inst.snapshot_every, len(inst.covers))
        self.elements = [
            streamls.Element(id=i, costs=inst.costs[i], groups=frozenset({inst.labels[i]}))
            for i in inst.ids
        ]
        self.bound_factor = checks.guarantee_factor(SWAP_ALPHA, DETERMINISTIC_BETA, 2, inst.eps)
        _, self.baseline = checks.greedy_coverage(
            inst.covers, inst.labels, inst.caps, inst.costs
        )

    def build(self, classes):
        inst = self.inst
        return StreamingSession(
            classes["CoverageOracle"](inst.covers),
            classes["PartitionMatroid"](inst.caps),
            classes["KnapsackSpec"](2),
            eps=inst.eps,
        )

    def recompute(self, ids) -> float:
        return checks.coverage_value(ids, self.inst.covers)

    def selection_problems(self, ids, prefix, value):
        inst = self.inst
        found = checks.check_feasible(ids, range(prefix), inst.labels, inst.caps, inst.costs)
        if not found:
            found = checks.check_value(value, self.recompute(ids), f"snapshot at {prefix}")
        return found


class ChainLogdet(LibraryWorkload):
    name = "chain-logdet"

    def __init__(self, seed: int, stream: int, size: int | None = None):
        super().__init__()
        self.inst = inputs.chain_instance(seed, stream, size or inputs.CHAIN_FRAMES)
        inst = self.inst
        self.caps = {f"t{j}": inputs.CHAIN_CAP for j in range(inputs.CHAIN_TOPICS)}
        self.labels = dict(enumerate(inst.labels))
        self.offset = inputs.chain_offset(sum(self.caps.values()))
        self.snapshot_every = min(inputs.CHAIN_SNAPSHOT_EVERY, inst.n)
        self.elements = [
            streamls.Element(
                id=i,
                features=tuple(float(x) for x in inst.features[i]),
                groups=frozenset({inst.labels[i]}),
            )
            for i in range(inst.n)
        ]
        self.bound_factor = checks.guarantee_factor(SWAP_ALPHA, DETERMINISTIC_BETA, 0, 0.0)
        _, self.baseline = checks.greedy_logdet(
            inst.kernel, self.offset, self.labels, self.caps
        )

    def build(self, classes):
        kernel = classes["DppKernel"](self.inst.kernel, offset=self.offset)
        return StreamingSession(
            classes["LogDetOracle"](kernel), classes["PartitionMatroid"](self.caps)
        )

    def recompute(self, ids) -> float:
        return checks.logdet_value(self.inst.kernel, ids, self.offset)

    def selection_problems(self, ids, prefix, value):
        found = checks.check_feasible(ids, range(prefix), self.labels, self.caps)
        if not found:
            found = checks.check_value(value, self.recompute(ids), f"snapshot at {prefix}")
        return found


class _PushTimer:
    """Timestamp wrapper on StreamingSession.push for in-process `run` calls.

    Reference chunks run between pushes only, so the set-up before the
    first push and the summary after the last one hold none.
    """

    def __init__(self, clock: HostClock, tracer: Tracer | None):
        self.clock = clock
        self.tracer = tracer
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.session: StreamingSession | None = None

    @contextlib.contextmanager
    def installed(self):
        orig = StreamingSession.__dict__["push"]

        def push(session, e):
            if self.ends:
                self.clock.after(self.ends[-1] - self.starts[-1])
            self.starts.append(pc())
            orig(session, e)
            self.ends.append(pc())
            self.session = session
            if self.tracer is not None:
                self.tracer.observe_engine(session.engine)

        StreamingSession.push = push
        try:
            yield
        finally:
            StreamingSession.push = orig


def parse_report(path: str) -> dict[str, str]:
    """The `key = value` head of a run report, values left as text."""
    fields: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip() or line.startswith("["):
                break
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    return fields


class RunBudget:
    """`streamls run` called in process on a generated CSV and kernel file."""

    name = "run-budget"
    ops_per_round = 1

    def __init__(self, seed: int, stream: int, size: int | None = None, workdir: str = ""):
        self.inst = inputs.run_instance(seed, stream, size or inputs.RUN_FRAMES)
        workdir = os.path.join(workdir, f"stream{stream}")
        inst = self.inst
        self.config = inputs.write_run_inputs(inst, workdir)
        self.report = os.path.join(workdir, "report.txt")
        self.costs = {i: (inst.durations[i] / inputs.RUN_BUDGET_SECONDS,) for i in range(inst.n)}
        self.offset = checks.logdet_offset(inst.kernel)
        self.bound_factor = checks.guarantee_factor(SWAP_ALPHA, DETERMINISTIC_BETA, 1, inputs.RUN_EPS)
        _, self.baseline = checks.greedy_logdet(inst.kernel, self.offset, costs=self.costs)
        self._first: tuple[int, ...] | None = None

    def round(self, clock: HostClock, classes: dict, tracer: Tracer | None) -> Round:
        rec = Round(elements=self.inst.n)
        timer = _PushTimer(clock, tracer)
        if os.path.exists(self.report):
            os.remove(self.report)
        out = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                clock.bracket()
                m0 = clock.mark()
                with timer.installed(), contextlib.redirect_stdout(out):
                    start = pc()
                    if tracer is None:
                        code = cli.main(["run", "--config", self.config])
                    else:
                        with tracer.span("run"):
                            code = cli.main(["run", "--config", self.config])
                    stop = pc()
                m1 = clock.mark()
                clock.bracket()
                m2 = clock.mark()
            except Exception as exc:
                rec.failed = 1
                rec.problems.append(f"{type(exc).__name__}: {exc}")
                return rec
        if code != 0 or not timer.starts:
            rec.failed = 1
            rec.problems.append(f"run exited {code} after {len(timer.starts)} pushes")
            return rec
        stream = clock.samples[m0:m1]
        pre = clock.samples[m0 - BRACKET_CHUNKS : m0]
        post = clock.samples[m1:m2]
        head = stream[:BRACKET_CHUNKS] if stream else post
        tail = stream[-BRACKET_CHUNKS:] if stream else pre
        rec.setup_raw = timer.starts[0] - start
        rec.setup_factor = factor(pre + head)
        rec.push_times = [b - a for a, b in zip(timer.starts, timer.ends)]
        rec.push_raw = sum(rec.push_times)
        rec.push_factor = factor(stream or pre + post)
        rec.summary_raw = stop - timer.ends[-1]
        rec.summary_factor = factor(tail + post)
        rec.summaries = 1
        if tracer is not None:
            rec.traced_held_peak = tracer.held_peak

        try:
            fields = parse_report(self.report)
            ids = [int(x) for x in fields["selected"].strip("[]").split(",") if x.strip()]
            reported = float(fields["value"])
            pushed = int(fields["pushed"])
            rec.peak_held = int(fields["high_water"])
        except (OSError, KeyError, ValueError) as exc:
            rec.failed = 1
            rec.problems.append(f"unreadable run report: {type(exc).__name__}: {exc}")
            return rec
        rec.selected = tuple(sorted(ids))
        rec.runs_opened = _runs_opened(timer.session.engine)
        found = _clamp_problems(caught)
        found += checks.check_feasible(ids, range(self.inst.n), costs=self.costs)
        if pushed != self.inst.n:
            found.append(f"report says {pushed} pushed, stream has {self.inst.n}")
        if not found:
            rec.value = checks.logdet_value(self.inst.kernel, ids, self.offset)
            found += checks.check_value(reported, rec.value, "run report")
            found += checks.check_guarantee(rec.value, self.baseline, self.bound_factor)
        found += _conservation(timer.session.engine)
        if self._first is None:
            self._first = rec.selected
        elif rec.selected != self._first:
            found.append("the same inputs gave a different selection")
        if found:
            rec.failed = 1
            rec.problems += found
        return rec


WORKLOADS = {
    GridCoverage.name: (GridCoverage, inputs.GRID_STREAMS),
    ChainLogdet.name: (ChainLogdet, inputs.CHAIN_STREAMS),
    RunBudget.name: (RunBudget, inputs.RUN_STREAMS),
}


def make(name: str, seed: int, workdir: str, size: int | None = None, streams=None) -> list:
    """One workload object per input stream; a cycle runs each once, in order."""
    cls, count = WORKLOADS[name]
    extra = {"workdir": workdir} if cls is RunBudget else {}
    return [cls(seed, s, size, **extra) for s in range(count if streams is None else streams)]
