"""The sequential-DPP segment engine against the two-level driver it
replaced, and the layering that keeps ``streamio`` engine-free."""

import ast
import random
import time
from pathlib import Path

import numpy as np
import pytest

from streamls import (
    ConfigError,
    DoubleGreedyConfig,
    DppKernel,
    Element,
    IndependenceOracle,
    KnapsackSpec,
    PartitionMatroid,
    SegmentedDppSession,
    Selection,
    SequentialDppOracle,
    SessionReport,
    StreamingSession,
    UniformMatroid,
    seqdpp_conditional_value,
    suggest_logdet_offset,
)

from streamls.localsearch import SegmentState

SRC = Path(__file__).parents[1] / "src" / "streamls"


class ReferenceSegmentedDppSession:
    """The segment driver as it stood before ``SegmentState``, its body
    verbatim: one inner ``StreamingSession`` per segment, and ``close``
    ends the running segment before it reports."""

    def __init__(
        self,
        kernel: DppKernel,
        segment_size: int,
        constraint: IndependenceOracle,
        knapsacks: KnapsackSpec | None = None,
        **options,
    ):
        """``options`` are ``StreamingSession``'s keyword options."""
        if segment_size < 1:
            raise ConfigError("segment size must be at least 1")
        self.kernel = kernel
        self.segment_size = segment_size
        self.constraint = constraint
        self._options = dict(options, knapsacks=knapsacks)
        self.prev: frozenset[Element] = frozenset()
        self.selected: set[Element] = set()
        self.conditional_total = 0.0
        self.segments_closed = 0
        self.pushed = 0
        self.seconds_total = 0.0
        self.high_water = 0
        self._buffer: list[Element] = []
        self._segment_session = self._open_segment()

    def _open_segment(self) -> StreamingSession:
        oracle = SequentialDppOracle(self.kernel, prev=self.prev)
        return StreamingSession(oracle, self.constraint, **self._options)

    def _close_segment(self) -> None:
        selection = self._segment_session.snapshot()
        segment = frozenset(self._buffer)
        self.conditional_total += seqdpp_conditional_value(
            self.kernel, selection.elements, self.prev, segment
        )
        self.selected |= selection.elements
        self.prev = selection.elements
        self.segments_closed += 1
        self.high_water = max(self.high_water, self._segment_session.engine.high_water)
        self._buffer = []
        self._segment_session = self._open_segment()

    def push(self, e: Element) -> None:
        start = time.perf_counter()
        self._buffer.append(e)
        self._segment_session.push(e)
        if len(self._buffer) >= self.segment_size:
            self._close_segment()
        self.seconds_total += time.perf_counter() - start
        self.pushed += 1

    def snapshot(self) -> Selection:
        """Selected-so-far plus the running segment's current best."""
        current = self._segment_session.snapshot()
        combined = frozenset(self.selected | current.elements)
        value = self.conditional_total
        if self._buffer:
            value += seqdpp_conditional_value(
                self.kernel, current.elements, self.prev, frozenset(self._buffer)
            )
        return Selection(combined, value)

    def close(self) -> SessionReport:
        if self._buffer:
            self._close_segment()
        return SessionReport(
            selection=Selection(frozenset(self.selected), self.conditional_total),
            pushed=self.pushed,
            seconds_total=self.seconds_total,
            stats={"segments": self.segments_closed, "high_water": self.high_water},
        )


CONSTRAINTS = {
    "none": lambda: UniformMatroid(1 << 30),
    "uniform": lambda: UniformMatroid(2),
    "partition": lambda: PartitionMatroid({"a": 1, "b": 2}),
}


def seeded_stream(rng: random.Random, n: int, d: int):
    """A kernel with the run path's automatic offset, and n labelled elements."""
    features = np.array([[rng.gauss(0.0, 0.8) for _ in range(3)] for _ in range(n)])
    matrix = features @ features.T + 0.2 * np.eye(n)
    kernel = DppKernel(matrix, offset=suggest_logdet_offset(matrix))
    elements = [
        Element(
            id=i,
            costs=tuple(rng.uniform(0.05, 0.6) for _ in range(d)),
            groups=frozenset(rng.choice("ab")),
        )
        for i in range(n)
    ]
    rng.shuffle(elements)
    return kernel, elements


def assert_same_selection(got, want):
    assert repr(got.ids) == repr(want.ids)
    assert repr(got.value) == repr(want.value)


class TestSegmentEngine:
    @pytest.mark.parametrize("d", [0, 1, 2], ids=["chain", "grid1", "grid2"])
    @pytest.mark.parametrize("ckind", sorted(CONSTRAINTS))
    @pytest.mark.parametrize("mode", ["deterministic", "randomized"])
    def test_matches_the_two_level_driver(self, d, ckind, mode):
        partial_segments = 0
        for n in range(1, 15):
            for segment in range(1, 6):
                rng = random.Random(f"segments:{d}:{ckind}:{mode}:{n}:{segment}")
                kernel, elements = seeded_stream(rng, n, d)
                knapsacks = KnapsackSpec(d) if d else None
                options = dict(
                    eps=1.0, prune=DoubleGreedyConfig(mode=mode, seed=rng.randrange(9))
                )
                args = (kernel, segment, CONSTRAINTS[ckind](), knapsacks)
                session = SegmentedDppSession(*args, **options)
                reference = ReferenceSegmentedDppSession(*args, **options)
                marks = {n // 3, 2 * n // 3}
                for i, e in enumerate(elements, start=1):
                    session.push(e)
                    reference.push(e)
                    if i in marks:
                        assert_same_selection(session.snapshot(), reference.snapshot())
                got, want = session.close(), reference.close()
                assert_same_selection(got.selection, want.selection)
                assert got.pushed == want.pushed == n
                assert repr(got.stats) == repr(want.stats)
                partial_segments += n % segment != 0
        assert partial_segments > 0

    def test_engine_protocol(self):
        kernel, elements = seeded_stream(random.Random("protocol"), 5, 0)
        session = SegmentedDppSession(kernel, 2, UniformMatroid(1))
        engine = session.engine
        assert isinstance(session, StreamingSession)
        assert isinstance(engine, SegmentState)
        for e in elements:
            session.push(e)
        # Five elements: two closed segments and a running one of one element.
        assert engine.segments_closed == 2
        assert engine.stats() == {"segments": 3, "high_water": engine.high_water}
        assert engine.high_water >= 1
        assert session.close().selection == engine.finalize()

    def test_segment_size_must_be_positive(self):
        kernel, _ = seeded_stream(random.Random("size"), 2, 0)
        with pytest.raises(ConfigError, match="segment size"):
            SegmentedDppSession(kernel, 0, UniformMatroid(1))


class TestOneDriver:
    def test_segmented_session_defines_no_driver_method(self):
        assert not {"push", "snapshot", "close"} & set(SegmentedDppSession.__dict__)

    def test_streamio_imports_no_engine(self):
        tree = ast.parse((SRC / "streamio.py").read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        assert not {m for m in modules if m.split(".")[-1] == "localsearch"}
