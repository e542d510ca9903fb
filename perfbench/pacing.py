"""Host-speed reference loop, interleaved with the timed work.

On a shared host a fixed pure-Python loop can run up to 1.5x slower for
seconds at a time. The benchmark therefore runs a fixed reference chunk
after every few milliseconds of timed work, in the same process and
between timed calls, and divides each timed section by the mean chunk
time measured around it. Speed swings then cancel, and a scaled time
reads as "seconds on a host where one chunk takes REF_NOMINAL_S".
"""

from __future__ import annotations

import statistics
import time

# Nominal duration of one reference chunk; it only fixes the unit of
# scaled times and is the same on every commit.
REF_NOMINAL_S = 1e-3
# Timed work between two reference chunks.
QUANTUM_S = 3e-3
# Chunks run back to back before and after a long timed call.
BRACKET_CHUNKS = 8
# Loop counts of one chunk. The chunk defines the unit of every scaled
# figure, so they are fixed.
CHUNK_ROUNDS = 12
CHUNK_ITEM_ROUNDS = 30

_TABLE = {i: frozenset((i, i * 7 % 1000, i * 13 % 1000)) for i in range(20000)}
_KEYS = tuple(range(0, 20000, 37))
_LABELS = tuple(f"g{j}" for j in range(8))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def total(self, x: int) -> int:
        return self.a + self.b + x


class _Item:
    """Hashed and compared in Python, as stream elements are."""

    __slots__ = ("id", "tags")

    def __init__(self, i: int):
        self.id = i
        self.tags = frozenset((_LABELS[i % 8],))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Item) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)


_ITEMS = tuple(_Item(i) for i in range(4000))


def reference_chunk() -> int:
    """Fixed interpreter work of about 1 ms.

    A third of it is set unions over ints, dict lookups, a method call
    and a sort. Two thirds build frozensets of objects whose ``__hash__``
    and ``__eq__`` run in Python, take set differences and filter labels,
    as the constraint and instance layers do. Under contention the first
    kind alone slows less than the streaming workloads, the second about
    as much; the mix tracks all three workloads.
    """
    acc: set[int] = set()
    total = 0
    for r in range(CHUNK_ROUNDS):
        for k in _KEYS[r % 7 :: 40]:
            acc |= _TABLE[k]
        total += _Pair(r, len(acc)).total(r)
        frozen = frozenset(acc)
        if len(frozen) > 300:
            acc = set()
        total += sorted(frozen)[0] if frozen else 0
    for r in range(CHUNK_ITEM_ROUNDS):
        base = frozenset(_ITEMS[(r * 37 + k * 101) % 4000] for k in range(16))
        for x in list(base)[:6]:
            rest = base - {x}
            total += len(rest) + len([g for g in _LABELS if g in x.tags])
        total += sorted(base, key=lambda e: e.id)[0].id
    return total


class HostClock:
    """Runs reference chunks between timed calls and scales by them."""

    def __init__(self):
        self.samples: list[float] = []
        self._pending = 0.0

    def chunk(self) -> None:
        start = time.perf_counter()
        reference_chunk()
        self.samples.append(time.perf_counter() - start)

    def bracket(self) -> None:
        self._pending = 0.0
        for _ in range(BRACKET_CHUNKS):
            self.chunk()

    def after(self, seconds: float) -> None:
        """Account ``seconds`` of timed work; run a chunk once per quantum."""
        self._pending += seconds
        if self._pending >= QUANTUM_S:
            self._pending = 0.0
            self.chunk()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, stop: int) -> float:
        return factor(self.samples[start:stop])


def factor(window: list[float]) -> float:
    """Multiplier that turns raw seconds into scaled seconds."""
    if not window:
        raise ValueError("no reference chunk ran in this window")
    return REF_NOMINAL_S / statistics.fmean(window)
