"""Independence systems and knapsack feasibility.

Concrete matroids (uniform, partition), the matchoid composition over
overlapping grounds, an opaque predicate oracle, and d-knapsack checks
with costs normalized to unit capacity.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Sequence

from .errors import ConfigError, DomainError, PreconditionError
from .objectives import Element

# Slack guarding float summation of normalized costs.
KNAPSACK_SLACK = 1e-12

# What ``KnapsackSpec.feasible`` compares each load with.
_CAPACITY = 1.0 + KNAPSACK_SLACK

# Unit roundoff of a double.
_U = 2.0**-53

# An exchange answer: [empty set] (e fits), a set per blocked part, or [].
Repairs = list[frozenset[Element]]


class Solution(frozenset):
    """An instance's solution from one commit to the next.

    A constraint answering an exchange query on it checks it and lays it
    out once, and keeps that work in ``layout`` as (constraint, layout)
    for its later queries; the constraint itself stays unchanged. An
    oracle's gain bound keeps its vector over the solution in ``bound``
    the same way, as (oracle, vector), or finds there (oracle, the
    predecessor's vector, the element added) left by ``grown``. A
    finalize keeps f of the solution in ``value`` as (oracle, f(S)), and
    the oracle's ``subset_bound`` of it in ``ceiling`` as (oracle,
    bound), and reads both back on later snapshots: a Solution always
    iterates in one order, so it holds the bits a fresh call returns. A
    copy made with ``frozenset()`` may iterate in another order. A
    knapsack spec keeps the solution's per-knapsack loads in ``loads`` as
    (spec, loads).
    """

    __slots__ = ("layout", "bound", "value", "ceiling", "loads")

    def __new__(cls, elements: Iterable[Element] = ()) -> Solution:
        solution = super().__new__(cls, elements)
        solution.layout = solution.bound = solution.value = None
        solution.ceiling = solution.loads = None
        return solution

    def grown(self, elements: Iterable[Element], e: Element) -> Solution:
        """``elements``, this set plus ``e``, as a Solution that keeps this
        one's bound vector and ``e`` to grow it from, but not this one, and
        this one's loads plus e's costs."""
        solution = Solution(elements)
        kept = self.bound
        if kept is not None and len(kept) == 2:
            solution.bound = (*kept, e)
        loads = self.loads
        if loads is not None:
            solution.loads = (loads[0], [t + c for t, c in zip(loads[1], e.costs)])
        return solution


class IndependenceOracle(ABC):
    """Hereditary feasibility test over element sets."""

    # The swap backbone's declared factor here; None for an unknown structure.
    swap_alpha: float | None = None

    @abstractmethod
    def is_independent(self, elements: AbstractSet[Element]) -> bool: ...

    def exchange(self, s: AbstractSet[Element], e: Element) -> Repairs:
        """``exchange_candidates`` for this system, as one part over all of ``s``."""
        self._layout(s)
        found = self._repair(s, e)
        return [] if found is None else [found]

    def _layout(self, s: AbstractSet[Element]) -> Any:
        """``_build_layout(s)``: once per ``Solution``, on every call otherwise."""
        if type(s) is not Solution:
            return self._build_layout(s)
        kept = s.layout
        if kept is None or kept[0] is not self:
            kept = s.layout = (self, self._build_layout(s))
        return kept[1]

    def _build_layout(self, s: AbstractSet[Element]) -> Any:
        """What ``exchange`` reads of ``s``, after the precondition that
        ``s`` is independent; here nothing beyond the check."""
        if not self.is_independent(s):
            raise PreconditionError("the current solution is not independent")
        return None

    def _repair(self, s: AbstractSet[Element], e: Element) -> frozenset[Element] | None:
        """∅ if ``e`` fits independent ``s``, else the members making room, or None."""
        local = s | {e}
        if self.is_independent(local):
            return frozenset()
        return frozenset(x for x in s if self.is_independent(local - {x})) or None

    @property
    def rank_hint(self) -> int | None:
        """Optional upper bound on the size of a maximal independent set."""
        return None

    def hint_covers(self, e: Element) -> bool:
        """False when ``rank_hint`` does not bound sets holding ``e``."""
        return True


class UniformMatroid(IndependenceOracle):
    """All subsets of size at most ``limit``."""

    swap_alpha = 0.25

    def __init__(self, limit: int):
        if limit < 0:
            raise ConfigError("uniform matroid limit must be non-negative")
        self.limit = int(limit)

    def is_independent(self, elements: AbstractSet[Element]) -> bool:
        return len(elements) <= self.limit

    # The base exchange and repair, answered from |s| alone.

    def _layout(self, s: AbstractSet[Element]) -> None:
        if len(s) > self.limit:
            raise PreconditionError("the current solution is not independent")

    def _repair(self, s: AbstractSet[Element], e: Element) -> frozenset[Element] | None:
        if len(s) < self.limit:
            return frozenset()
        return frozenset(s) or None

    @property
    def rank_hint(self) -> int | None:
        return self.limit


class PredicateOracle(IndependenceOracle):
    """Opaque independence predicate for systems without structure.

    Its ``rank_hint`` and ``swap_alpha`` are whatever the caller declares.
    """

    def __init__(
        self,
        predicate: Callable[[frozenset[Element]], bool],
        rank_hint: int | None = None,
        swap_alpha: float | None = None,
    ):
        self._predicate = predicate
        self._rank_hint = rank_hint
        self.swap_alpha = swap_alpha

    def is_independent(self, elements: AbstractSet[Element]) -> bool:
        return bool(self._predicate(frozenset(elements)))

    @property
    def rank_hint(self) -> int | None:
        return self._rank_hint


class Matchoid(IndependenceOracle):
    """Composition of matroids over overlapping grounds.

    Each part is (matroid, ground) where the ground is either an id set
    or a group label; a set is independent when its restriction to every
    part ground is independent in that part. ``p`` is the maximum number
    of parts any single element belongs to — computed from id-set
    grounds, or supplied when label grounds make it unknowable upfront.
    An element found in more than ``p`` parts raises ``DomainError``.
    """

    def __init__(
        self,
        parts: Sequence[tuple[IndependenceOracle, frozenset[int] | str]],
        p: int | None = None,
    ):
        # With a declared p no part is needed: PartitionMatroid({}) is one.
        if not parts and p is None:
            raise ConfigError("a matchoid needs at least one part")
        self._oracles = [oracle for oracle, _ in parts]
        # Ground -> part indices: finding an element's parts costs one
        # lookup for its id and one per group label.
        self._by_label: dict[str, tuple[int, ...]] = {}
        self._by_id: dict[int, tuple[int, ...]] = {}
        for i, (_, ground) in enumerate(parts):
            if isinstance(ground, str):
                self._by_label[ground] = self._by_label.get(ground, ()) + (i,)
            else:
                for eid in ground:
                    self._by_id[eid] = self._by_id.get(eid, ()) + (i,)
        most = max(map(len, self._by_id.values())) if self._by_id else 1
        if p is None:
            # Label grounds are only known element by element.
            p = len(parts) if self._by_label else most
        elif p < 1:
            raise ConfigError("p must be at least 1")
        elif most > p:
            raise ConfigError(f"an id lies in {most} part grounds but p is {p}")
        self.p = int(p)
        self.swap_alpha = 1.0 / (4.0 * self.p)

    def _parts_of(self, e: Element) -> tuple[int, ...]:
        found = self._by_id.get(e.id, ())
        for label in e.groups:
            found += self._by_label.get(label, ())
        if len(found) > self.p:
            raise DomainError(
                f"element {e.id} lies in {len(found)} parts but p is {self.p}"
            )
        return found

    def _members(self, elements: AbstractSet[Element]) -> dict[int, frozenset]:
        """Index of each part the elements touch -> those in its ground."""
        members: defaultdict[int, list[Element]] = defaultdict(list)
        for e in elements:
            for i in self._parts_of(e):
                members[i].append(e)
        return {i: frozenset(local) for i, local in members.items()}

    def _all_fit(self, members: dict[int, frozenset]) -> bool:
        return all(self._oracles[i].is_independent(m) for i, m in members.items())

    def is_independent(self, elements: AbstractSet[Element]) -> bool:
        return self._all_fit(self._members(elements))

    def _build_layout(self, s: AbstractSet[Element]) -> dict[int, frozenset]:
        members = self._members(s)
        if not self._all_fit(members):
            raise PreconditionError("the current solution is not independent")
        return members

    def exchange(self, s: AbstractSet[Element], e: Element) -> Repairs:
        """Only ``e``'s parts can block; one layout of ``s`` serves them all."""
        members = self._layout(s)
        out: Repairs = []
        for i in sorted(self._parts_of(e)):
            found = self._oracles[i]._repair(members.get(i, frozenset()), e)
            if found is None:
                return []
            if found:
                out.append(found)
        return out or [frozenset()]

    @property
    def rank_hint(self) -> int | None:
        """The parts' hints summed: a bound on sets inside the part grounds."""
        hints = [oracle.rank_hint for oracle in self._oracles]
        return None if None in hints else sum(hints)

    def hint_covers(self, e: Element) -> bool:
        """An element in no part is unconstrained, so no hint bounds it."""
        return bool(self._parts_of(e))


class PartitionMatroid(Matchoid):
    """Per-block caps over group labels: a p = 1 matchoid of uniform parts.

    An element belongs to the block whose label appears in its groups;
    elements carrying none of the declared labels are unconstrained, and
    one carrying two raises ``DomainError``.
    """

    def __init__(self, limits: Mapping[str, int]):
        for label, limit in limits.items():
            if limit < 0:
                raise ConfigError(f"block {label!r} has negative limit")
        super().__init__(
            [(UniformMatroid(limit), label) for label, limit in limits.items()], p=1
        )


class KnapsackSpec:
    """d additive budgets; every capacity is 1 after normalization."""

    def __init__(self, d: int):
        if d < 0:
            raise ConfigError("knapsack count must be non-negative")
        self.d = int(d)
        # The last element ``facts`` was asked about, and its answer.
        self._last: Element | None = None
        self._facts = (0.0, True)

    def _costs(self, e: Element) -> tuple[float, ...]:
        if len(e.costs) != self.d:
            raise DomainError(
                f"element {e.id} carries {len(e.costs)} costs, expected {self.d}"
            )
        return e.costs

    def feasible(self, elements: AbstractSet[Element]) -> bool:
        return all(t <= _CAPACITY for t in self._loads(elements))

    def _loads(self, elements: Iterable[Element]) -> list[float]:
        totals = [0.0] * self.d
        for e in elements:
            for j, c in enumerate(self._costs(e)):
                totals[j] += c
        return totals

    def singleton_fits(self, e: Element) -> bool:
        return all(c <= _CAPACITY for c in self._costs(e))

    def total_cost(self, e: Element) -> float:
        """Sum of the element's costs across all knapsacks."""
        return float(sum(self._costs(e)))

    def facts(self, e: Element) -> tuple[float, bool]:
        """``total_cost(e)`` and ``singleton_fits(e)``, once e's costs pass
        ``cost_problem``; a DomainError with its message otherwise.

        Kept for the last element asked about, so every run and instance a
        push reaches reads them from the one computation.
        """
        if e is not self._last:
            problem = cost_problem(e.id, self._costs(e))
            if problem is not None:
                raise DomainError(problem)
            self._facts = (self.total_cost(e), self.singleton_fits(e))
            self._last = e
        return self._facts

    def fits_with(
        self, s: AbstractSet[Element], e: Element, evicted: AbstractSet[Element]
    ) -> bool:
        """``feasible((s | {e}) - evicted)``, for an ``e`` that ``facts``
        passed, decided from the loads kept on a ``Solution`` ``s`` unless
        they put the answer in a rounding band.

        A Solution's loads are summed as ``feasible`` sums at its first
        query, and ``grown`` adds one element's costs to them, so each is a
        float sum of the costs in ``s`` in some order. With every cost
        finite and non-negative, that sum and ``feasible``'s sum over the
        new set each err from the exact one by at most about |s| u times
        the load with e added (u the unit roundoff), and adding e and
        taking the evicted costs off adds (1 + |evicted|) u times it. The
        band, 4 (|s| + 1) u (load with e + 1) on each side of
        1 + KNAPSACK_SLACK, is twice their sum with room for the rounding
        of the comparison. Inside it, or when a load is not finite,
        ``feasible`` decides.
        """
        if type(s) is not Solution:
            return self.feasible((s | {e}) - evicted)
        kept = s.loads
        if kept is None or kept[0] is not self:
            kept = s.loads = (self, self._loads(s))
        scale = 4.0 * _U * (len(s) + 1)
        decided = True
        for j, (load, c) in enumerate(zip(kept[1], self._costs(e))):
            top = load + c
            band = scale * (top + 1.0)
            if top <= _CAPACITY - band:
                continue  # fits before any eviction, so after it
            for x in evicted:
                top -= x.costs[j]
            if top > _CAPACITY + band:
                return False
            if not top <= _CAPACITY - band:
                decided = False  # in the band, or not finite
        return decided or self.feasible((s | {e}) - evicted)


def cost_problem(eid: int, costs: Sequence[float]) -> str | None:
    """Why an element's raw costs are unusable, or None when they are fine.

    A cost must be finite and non-negative: a ``nan`` or ``inf`` cost
    would pass every comparison-based gate and silently drop the element.
    """
    for c in costs:
        if c < 0:
            return f"element {eid} has negative cost {c}"
        if not math.isfinite(c):
            return f"element {eid} has non-finite cost {c}"
    return None


def exchange_candidates(
    oracle: IndependenceOracle, s: AbstractSet[Element], e: Element
) -> Repairs:
    """Single-swap repair options for adding ``e`` to independent ``s``.

    Returns [empty set] when no repair is needed, one candidate set per
    blocked part otherwise, and [] when some blocked part has no
    single-element removal that restores feasibility. A matchoid's parts
    are those holding ``e`` (with ``s`` independent, no other part can
    block); any other oracle is one part over all of ``s``.
    """
    if e in s:
        raise PreconditionError(f"element {e.id} is already in the solution")
    return oracle.exchange(s, e)
