"""Swap-based monotone streaming greedy over independence systems.

Each instance keeps one independent solution. A new element is taken
outright when it fits and strictly improves the objective; when it is
blocked, the cheapest single-element swap per blocked part is evicted
if the newcomer's gain is at least twice the evicted weight (the rule
each constraint's ``swap_alpha`` declares its factor for). Every
element the instance lets go is reported back so callers can route it
onward. The density-gated variant additionally filters by gain per unit
knapsack cost and freezes itself the first time a would-be acceptance
overflows a knapsack, keeping the overflowing element as a fallback
candidate; the solution it then holds for good is the other one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constraints import IndependenceOracle, KnapsackSpec, Solution, exchange_candidates
from .errors import PreconditionError
from .objectives import GAIN_TOL, Element, ValueOracle

# The least float above GAIN_TOL: gain < it holds exactly when
# gain <= GAIN_TOL does, nan included.
_ABOVE_GAIN_TOL = math.nextafter(GAIN_TOL, math.inf)


class ProcessOutcome(NamedTuple):
    accepted: bool
    discarded: frozenset[Element]


class IndStreamInstance:
    """One streaming solution with swap-rule acceptance.

    Its density threshold ``rho`` and ``knapsacks``, when given, are fixed
    for its life: they make it the density-gated variant. It evaluates
    f(empty) itself when built, and each step's gain in ``process``; a
    frozen instance rejects there.
    """

    def __init__(
        self,
        oracle: ValueOracle,
        constraint: IndependenceOracle,
        rho: float | None = None,
        knapsacks: KnapsackSpec | None = None,
    ):
        self.oracle = oracle
        self.constraint = constraint
        self.rho = rho
        self.knapsacks = knapsacks

        # Each held element -> its gain when accepted, in acceptance order.
        self._weights: dict[Element, float] = {}
        self._solution = Solution()
        self._value = oracle.value(frozenset())
        self._overflow: Element | None = None
        # The overflowing element alone and f of it, as the first finalize
        # after the freeze evaluates them; both are fixed from then on.
        self.overflow_alone: tuple[frozenset[Element], float] | None = None
        # Each blocked exchange answer since the last commit -> the members
        # it evicts and the gain they ask of a newcomer. Exact while no
        # held weight or member changes, that is, until the next commit.
        self._swaps: dict[tuple[frozenset[Element], ...], tuple[frozenset, float]] = {}

        self.processed = 0
        self.accept_events = 0
        self.discarded_total = 0
        self.high_water = 0

    # -- read-only views ---------------------------------------------------

    def current_solution(self) -> Solution:
        """The held set: one object from one commit to the next."""
        return self._solution

    def solution_copy(self) -> frozenset[Element]:
        """The held set as a plain frozenset that iterates as
        ``current_solution()`` does, which ``frozenset()`` of it may not."""
        return frozenset(self._weights.keys())

    def overflow_record(self) -> Element | None:
        """The element whose acceptance overflowed a knapsack, or None."""
        return self._overflow

    @property
    def value(self) -> float:
        """f of the current solution, as the instance tracks it."""
        return self._value

    @property
    def frozen(self) -> bool:
        """True once a knapsack overflow froze the instance; it never thaws."""
        return self._overflow is not None

    @property
    def held(self) -> int:
        """Elements currently kept alive by this instance."""
        return len(self._weights) + (self._overflow is not None)

    # -- streaming updates ---------------------------------------------------

    def _note_memory(self) -> None:
        self.high_water = max(self.high_water, self.held)

    def _reject(self, e: Element) -> ProcessOutcome:
        self.discarded_total += 1
        return ProcessOutcome(False, frozenset({e}))

    def _commit(
        self, e: Element, gain: float, evicted: frozenset[Element]
    ) -> ProcessOutcome:
        self._swaps.clear()
        for x in evicted:
            del self._weights[x]
        self._weights[e] = gain
        # Through .keys(): a bare dict takes a pre-sized set build whose
        # table size, and so iteration order, can differ; a log-det
        # submatrix follows that order to its last bit.
        held = self._weights.keys()
        self._solution = Solution(held) if evicted else self._solution.grown(held, e)
        if evicted:
            self._value = self.oracle.value(self._solution)
        else:
            self._value += gain
        self.accept_events += 1
        self.discarded_total += len(evicted)
        self._note_memory()
        return ProcessOutcome(True, evicted)

    def process(self, e: Element) -> ProcessOutcome:
        """Swap-rule update with ``e``, gated as the instance was built.

        A frozen instance rejects ``e`` at once; otherwise e's gain is
        f(S + e) - f(S), from one value call on S + e. When the oracle
        gives a ``gain_bound``, the density gate and the swap rule first
        test the bound, and the value call is made only if neither
        rejects it. Both compare by division by a positive cost and by
        ``<``, all monotone in floats, so every step the bound rejects is
        one the gain would reject.
        """
        rho, knapsacks = self.rho, self.knapsacks
        self.processed += 1
        if self._overflow is not None:
            return self._reject(e)
        if e in self._weights:
            raise PreconditionError(f"element {e.id} is already in the solution")

        s = self._solution
        bound = self.oracle.gain_bound(s, e)
        gain = self.oracle.value(s | {e}) - self._value if bound is None else bound
        # The density gate. A zero-cost element passes; the swap rule
        # below rejects it on a gain of at most GAIN_TOL, since every held
        # weight exceeds GAIN_TOL.
        cost = 0.0
        if knapsacks is not None:
            total, fits = knapsacks.facts(e)
            if rho is not None:
                cost = total
        if cost > 0.0 and gain / cost < rho:
            return self._reject(e)

        per_part = exchange_candidates(self.constraint, s, e)
        if not per_part:
            return self._reject(e)
        if per_part[0]:
            # The cheapest member of each blocked part makes way for e,
            # which must gain at least twice their weight; priced once per
            # answer between commits.
            key = tuple(per_part)
            priced = self._swaps.get(key)
            if priced is None:
                evicted = frozenset(
                    min(c, key=lambda x: (self._weights[x], x.id)) for c in per_part
                )
                floor = 2.0 * sum(self._weights[x] for x in evicted)
                priced = self._swaps[key] = (evicted, floor)
            evicted, floor = priced
        else:
            # [empty set]: e fits as it is, and must gain more than GAIN_TOL.
            evicted = frozenset()
            floor = _ABOVE_GAIN_TOL
        if gain < floor:
            return self._reject(e)
        if bound is not None:
            gain = self.oracle.value(s | {e}) - self._value
            if (cost > 0.0 and gain / cost < rho) or gain < floor:
                return self._reject(e)

        if knapsacks is not None:
            if not fits:
                # Cost above a unit capacity: never placeable in any
                # solution, so it is rejected, not kept as an overflow.
                return self._reject(e)
            if not knapsacks.fits_with(s, e, evicted):
                # Theorem-2 fallback pair: the solution held from now on, as
                # it was just before the overflow, and the overflowing element.
                self._overflow = e
                self._swaps.clear()
                self._note_memory()
                return self._reject(e)

        return self._commit(e, gain, evicted)

    # One body under both names. Tracing wraps each name separately, so
    # neither may call the other or every traced step counts twice.
    process_with_threshold = process

    def stats(self) -> dict[str, int]:
        return {
            "processed": self.processed,
            "accepted": self.accept_events,
            "discarded": self.discarded_total,
            "solution_size": len(self._weights),
            "high_water": self.high_water,
        }
