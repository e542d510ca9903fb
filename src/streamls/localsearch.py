"""Chained streaming local search and its density-threshold grid.

The chain runs q swap-greedy instances in sequence: whatever instance i
discards (rejections and evictions alike) is offered to instance i+1 in
the same update, and only the last instance's discards leave for good.
Finalizing prunes every instance solution with double greedy and takes
the best candidate, which converts a monotone backbone guarantee into a
non-monotone one.

For knapsacks, a geometric grid of density thresholds brackets the
unknown optimum between the best feasible singleton m and k*m; one chain
runs per threshold, plus the singleton fallback.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .constraints import IndependenceOracle, KnapsackSpec
from .errors import ConfigError, DomainError
from .indstream import IndStreamInstance
from .objectives import GAIN_TOL, DppKernel, Element, SequentialDppOracle, ValueOracle
from .objectives import seqdpp_conditional_value
from .unconstrained import DoubleGreedyConfig, unconstrained_max

# Guards ceil() against float noise at exact integer arguments.
_CEIL_EPS = 1e-9

# The density screen's slack, relative to the values involved: f({e}),
# f(empty) and the values a run's instances hold. Rounding in an
# oracle's sums and in an instance's running value stays far below it,
# so the screen never skips an element that the gate, evaluated in
# floats, would pass.
_SCREEN_REL = 1e-9

# Most threshold runs one window may span, about log(k) / log1p(eps).
_MAX_RUNS = 10_000


# A solution's pruned set and that set's value, keyed by the solution.
Memo = dict[frozenset[Element], tuple[frozenset[Element], float]]


def _ceil(x: float) -> int:
    return math.ceil(x - _CEIL_EPS)


def resolve_alpha(constraint: IndependenceOracle) -> float:
    """The factor the constraint declares for the swap backbone."""
    if constraint.swap_alpha is None:
        raise ConfigError("the constraint declares no swap_alpha for the backbone")
    return constraint.swap_alpha


def chain_length(alpha: float, beta: float) -> int:
    """Number of chained instances: ceil(sqrt(2*beta/alpha) + 1)."""
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("alpha must lie in (0, 1]")
    if not 0.0 < beta <= 0.5:
        raise ConfigError("beta must lie in (0, 1/2]")
    return _ceil(math.sqrt(2.0 * beta / alpha) + 1.0)


def guarantee_bound(alpha: float, beta: float, d: int, eps: float) -> float:
    """End-to-end approximation factor of the chained local search.

    (1 - eps) / ((1/sqrt(a) + 1/sqrt(2b)) * (1/sqrt(a) + 2d*sqrt(a) + 1/sqrt(2b)))

    With beta = 1/2 and d = 0 this is 1/(1 + 1/sqrt(alpha))^2; with
    alpha = 1/(4p) it reproduces 1/(1+2*sqrt(p))^2 and, for d knapsacks,
    (1-eps)/(1+4p+4*sqrt(p)+d(2+1/sqrt(p))).
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("alpha must lie in (0, 1]")
    if not 0.0 < beta <= 0.5:
        raise ConfigError("beta must lie in (0, 1/2]")
    if d < 0:
        raise ConfigError("knapsack count must be non-negative")
    if not 0.0 <= eps < 1.0:
        raise ConfigError("eps must lie in [0, 1)")
    a = 1.0 / math.sqrt(alpha) + 1.0 / math.sqrt(2.0 * beta)
    b = a + 2.0 * d * math.sqrt(alpha)
    return (1.0 - eps) / (a * b)


@dataclass(frozen=True)
class Selection:
    elements: frozenset[Element]
    value: float

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(e.id for e in self.elements))


class ChainState:
    """q chained backbone instances with discarded-element routing.

    Every instance a batch reaches takes it through its own ``process``;
    a frozen one rejects each element there, so the batch goes on
    unchanged. The chain skips its instances only when every one is
    frozen, or, in a threshold grid, when the density gate must reject
    the element at every instance (see ``process``): then it counts the
    element as processed and discarded by each and dropped, with no
    instance or oracle call. ``held`` is the stored sum of the
    instances' ``held``. It is recounted only after a step that ran the
    instances, because commit and freeze are the only places an
    instance's ``held`` changes.
    """

    def __init__(
        self,
        oracle: ValueOracle,
        constraint: IndependenceOracle,
        *,
        prune: DoubleGreedyConfig = DoubleGreedyConfig(),
        rho: float | None = None,
        knapsacks: KnapsackSpec | None = None,
    ):
        self.prune = prune
        self.rho = rho
        self.q = chain_length(resolve_alpha(constraint), prune.beta)
        self.oracle = oracle
        self.instances = tuple(
            IndStreamInstance(oracle, constraint, rho, knapsacks) for _ in range(self.q)
        )
        self.processed = 0
        self.dropped = 0
        self.high_water = 0
        self._memo: Memo = {}
        self._recount()

    def _recount(self) -> None:
        """Refresh what only an instance's commit or freeze can change."""
        self.held = sum(inst.held for inst in self.instances)
        self.high_water = max(self.high_water, self.held)
        self._all_frozen = all(inst.frozen for inst in self.instances)
        self._slack = _SCREEN_REL * max(abs(inst.value) for inst in self.instances)

    def _pass_through(self) -> None:
        """Count the element as rejected by every instance and dropped."""
        for inst in self.instances:
            inst.processed += 1
            inst.discarded_total += 1
        self.dropped += 1

    def process(
        self,
        e: Element,
        *,
        gain_cap: float | None = None,
        cost: float = 0.0,
    ) -> None:
        """Route one stream element through the whole chain.

        Given ``gain_cap``, an upper bound on e's gain over any set, and
        e's total knapsack ``cost``, the element is skipped when the
        density gate must reject it everywhere: rho * cost above the cap.
        The screen is off once the oracle has clamped, since the bound
        rests on submodularity.
        """
        self.processed += 1
        if self._all_frozen or (
            gain_cap is not None
            and self.rho * cost > gain_cap + self._slack
            and not self.oracle.clamped
        ):
            self._pass_through()
            return
        batch: list[Element] = [e]
        for inst in self.instances:
            discarded: list[Element] = []
            for x in sorted(batch, key=lambda el: el.id):
                discarded.extend(inst.process(x).discarded)
            batch = discarded
            if not batch:
                break
        self.dropped += len(batch)
        self._recount()  # a live instance ran

    def finalize(self, memo: Memo | None = None, used: Memo | None = None) -> Selection:
        """Best of all instance solutions and their pruned variants.

        The stream may continue afterwards. Each solution's pruned set and
        its value come from ``memo`` when the last finalize pruned an equal
        solution: double greedy reads only the solution's content, so the
        entry is what a fresh call would return, bit for bit. The entries
        this call uses go into ``used``, which replaces the memo, so a
        snapshot updates it and must not race another. A standalone chain
        keeps its own memo; a grid passes the one its runs share. Ties keep
        the earliest candidate (lowest instance, constrained before pruned).
        """
        if used is None:
            memo, used = self._memo, {}
            self._memo = used
        best: Selection | None = None
        for inst in self.instances:
            solution = inst.current_solution()
            pruned = used.get(solution) or memo.get(solution)
            if pruned is None:
                cut = unconstrained_max(self.oracle, solution, self.prune)
                pruned = (cut, self.oracle.value(cut))
            used[solution] = pruned
            candidates = [(solution, self.oracle.value(solution)), pruned]
            record = inst.overflow_record()
            if record is not None:
                before, last = record
                for cand in (before, frozenset({last})):
                    candidates.append((cand, self.oracle.value(cand)))
            for cand, value in candidates:
                if best is None or value > best.value:
                    best = Selection(frozenset(cand), value)
        assert best is not None
        return best

    def stats(self) -> dict:
        return {
            "q": self.q,
            "processed": self.processed,
            "dropped": self.dropped,
            "high_water": self.high_water,
            "instances": [inst.stats() for inst in self.instances],
        }


class GridState:
    """Lazily instantiated density-threshold runs plus the max singleton.

    Needs at least one knapsack; without one, ``StreamingSession`` runs a
    plain ``ChainState``.

    Runs are keyed by the absolute grid index j with threshold
    (1+eps)^j; growing the singleton maximum only retires low indices
    and opens high ones, so surviving runs never restart. The active
    window keeps one index at or below gamma so that some active
    threshold rho satisfies rho <= rho* <= (1+eps) rho.
    """

    def __init__(
        self,
        oracle: ValueOracle,
        constraint: IndependenceOracle,
        knapsacks: KnapsackSpec,
        *,
        k: int | None = None,
        eps: float = 0.2,
        prune: DoubleGreedyConfig = DoubleGreedyConfig(),
    ):
        if knapsacks.d < 1:
            raise ConfigError("the threshold grid needs at least one knapsack")
        if not 0.0 < eps < math.inf:
            raise ConfigError("eps must be positive and finite")
        # A k read from the rank hint holds only while every element is
        # one the hint covers; ``process`` checks each.
        self._check_hint = k is None
        if k is None:
            k = constraint.rank_hint
        if k is None or k < 1:
            raise ConfigError("k (bound on the largest feasible solution) is required")
        # The window is [log(gamma), log(gamma) + log(k)] in units of
        # log1p(eps), with log(gamma) = log(2 * bound) + log(m).
        self._log_base = math.log1p(eps)
        self._log_k = math.log(k)
        runs = self._log_k / self._log_base
        if runs > _MAX_RUNS or 1.0 + eps == 1.0:
            raise ConfigError(
                f"eps = {eps} with k = {k} spans about {runs:.3g} threshold runs;"
                f" at most {_MAX_RUNS} are allowed, and 1 + eps must exceed 1"
            )
        self.oracle = oracle
        self.constraint = constraint
        self.knapsacks = knapsacks
        self.k = k
        self.eps = float(eps)
        self.prune = prune
        alpha = resolve_alpha(constraint)
        bound = guarantee_bound(alpha, prune.beta, knapsacks.d, 0.0)
        self._log_2bound = math.log(2.0 * bound)
        # f(empty), for the density screen's bound and the empty fallback.
        self._empty = oracle.value(frozenset())

        self.m = 0.0
        self.e_m: Element | None = None
        # Keyed by ascending index: m only grows, so neither end of the
        # window moves down and every run opens above the ones kept.
        self.runs: dict[int, ChainState] = {}
        self.processed = 0
        self.retired = 0
        self.high_water = 0
        self.max_active_runs = 0
        self._retired_chain_high_water = 0
        # Shared by every run's finalize; see ChainState.finalize.
        self._memo: Memo = {}

    @property
    def max_chain_high_water(self) -> int:
        """Largest high-water of any chain, retired or active."""
        return max(
            [self._retired_chain_high_water]
            + [c.high_water for c in self.runs.values()]
        )

    def _new_chain(self, rho: float) -> ChainState:
        return ChainState(
            self.oracle,
            self.constraint,
            prune=self.prune,
            rho=rho,
            knapsacks=self.knapsacks,
        )

    def _threshold(self, j: int) -> float:
        """rho_j = (1 + eps)^j; one past the float range is a DomainError."""
        try:
            return (1.0 + self.eps) ** j
        except OverflowError:
            raise DomainError(
                f"threshold (1 + eps)^{j} overflows at singleton value {self.m}"
                f" and k = {self.k}; rescale the objective or lower k"
            ) from None

    def _active_window(self) -> tuple[int, int]:
        # lo is biased down and hi up so float noise can only widen the
        # window: the run bracketing the unknown optimum must never be cut.
        # log(gamma) is summed from its factors: gamma = 2m * bound
        # underflows to 0 when m is denormal.
        log_gamma = self._log_2bound + math.log(self.m)
        lo = math.floor(log_gamma / self._log_base - _CEIL_EPS)
        hi = math.floor((log_gamma + self._log_k) / self._log_base + _CEIL_EPS)
        return lo, hi

    def _move_window(self) -> None:
        """Retire the runs below the window and open the missing ones in it."""
        lo, hi = self._active_window()
        for j in [j for j in self.runs if j < lo]:
            self._retired_chain_high_water = max(
                self._retired_chain_high_water, self.runs.pop(j).high_water
            )
            self.retired += 1
        for j in range(lo, hi + 1):
            if j not in self.runs:
                self.runs[j] = self._new_chain(rho=self._threshold(j))
        self.max_active_runs = max(self.max_active_runs, len(self.runs))

    def process(self, e: Element) -> None:
        if self._check_hint and not self.constraint.hint_covers(e):
            raise DomainError(
                f"element {e.id} is not bounded by the constraint's rank hint,"
                " so k = auto does not hold; set k explicitly"
            )
        self.processed += 1
        gain_cap = None
        cost = 0.0
        if self.knapsacks.singleton_fits(e):
            # f({e}) sets m, the window and the density screen's bound.
            value = self.oracle.value(frozenset({e}))
            if value > self.m and self.constraint.is_independent(frozenset({e})):
                self.m = value
                self.e_m = e
                # The window depends on m alone, so it moves only here.
                self._move_window()
            # For submodular f, e's gain on any set S is at most
            # f({e}) - f(empty), the lazy bound of accelerated greedy.
            cost = self.knapsacks.total_cost(e)
            magnitude = abs(value) + abs(self._empty)
            gain_cap = value - self._empty + _SCREEN_REL * magnitude + GAIN_TOL
        held = 0
        for chain in self.runs.values():
            chain.process(e, gain_cap=gain_cap, cost=cost)
            held += chain.held
        self.high_water = max(self.high_water, held)

    def finalize(self) -> Selection:
        """Best run result versus the best feasible singleton."""
        best: Selection | None = None
        used: Memo = {}
        for chain in self.runs.values():
            candidate = chain.finalize(self._memo, used)
            if best is None or candidate.value > best.value:
                best = candidate
        if self.e_m is not None and (best is None or self.m > best.value):
            best = Selection(frozenset({self.e_m}), self.m)
        if best is None:
            best = Selection(frozenset(), self._empty)
        self._memo = used
        return best

    def stats(self) -> dict:
        return {
            "active_runs": len(self.runs),
            "max_active_runs": self.max_active_runs,
            "retired_runs": self.retired,
            "processed": self.processed,
            "high_water": self.high_water,
            "m": self.m,
            "runs": {j: c.stats() for j, c in sorted(self.runs.items())},
        }


def _new_engine(
    oracle: ValueOracle,
    constraint: IndependenceOracle,
    knapsacks: KnapsackSpec | None = None,
    *,
    k: int | None = None,
    eps: float = 0.2,
    prune: DoubleGreedyConfig = DoubleGreedyConfig(),
) -> ChainState | GridState:
    """A threshold grid when there is a knapsack, else a plain chain."""
    if knapsacks is not None and knapsacks.d > 0:
        return GridState(oracle, constraint, knapsacks, k=k, eps=eps, prune=prune)
    return ChainState(oracle, constraint, prune=prune)


EngineFactory = Callable[[ValueOracle], ChainState | GridState]


class SegmentState:
    """Sequential-DPP segments of ``segment_size`` elements, each run by the
    engine ``new_engine`` makes for an oracle conditioned on the last
    segment's selection; ``finalize`` and ``stats`` count the running one."""

    def __init__(self, kernel: DppKernel, segment_size: int, new_engine: EngineFactory):
        if segment_size < 1:
            raise ConfigError("segment size must be at least 1")
        self.kernel = kernel
        self.segment_size = segment_size
        self._new_engine = new_engine
        self.prev: frozenset[Element] = frozenset()
        self.selected: set[Element] = set()
        self.conditional_total = 0.0
        self.segments_closed = 0
        self.high_water = 0
        self._buffer: list[Element] = []
        self._engine = new_engine(SequentialDppOracle(kernel))

    def process(self, e: Element) -> None:
        self._buffer.append(e)
        self._engine.process(e)
        self.high_water = max(self.high_water, self._engine.high_water)
        if len(self._buffer) < self.segment_size:
            return
        selection = self._engine.finalize()
        self.conditional_total += seqdpp_conditional_value(
            self.kernel, selection.elements, self.prev, frozenset(self._buffer)
        )
        self.selected |= selection.elements
        self.prev = selection.elements
        self.segments_closed += 1
        self._buffer = []
        self._engine = self._new_engine(SequentialDppOracle(self.kernel, self.prev))

    def finalize(self) -> Selection:
        """Selected-so-far plus the running segment's current best."""
        current = self._engine.finalize()
        value = self.conditional_total
        if self._buffer:
            value += seqdpp_conditional_value(
                self.kernel, current.elements, self.prev, frozenset(self._buffer)
            )
        return Selection(frozenset(self.selected | current.elements), value)

    def stats(self) -> dict:
        segments = self.segments_closed + (1 if self._buffer else 0)
        return {"segments": segments, "high_water": self.high_water}


@dataclass
class SessionReport:
    selection: Selection
    pushed: int
    seconds_total: float
    stats: dict = field(default_factory=dict)

    @property
    def seconds_per_element(self) -> float:
        return self.seconds_total / self.pushed if self.pushed else 0.0


class StreamingSession:
    """Push-based driver around one chain, threshold grid or segment engine."""

    def __init__(
        self,
        oracle: ValueOracle,
        constraint: IndependenceOracle,
        knapsacks: KnapsackSpec | None = None,
        *,
        k: int | None = None,
        eps: float = 0.2,
        prune: DoubleGreedyConfig = DoubleGreedyConfig(),
    ):
        engine = _new_engine(oracle, constraint, knapsacks, k=k, eps=eps, prune=prune)
        self._start(engine)

    def _start(self, engine: ChainState | GridState | SegmentState) -> None:
        self._engine = engine
        self.pushed = 0
        self.seconds_total = 0.0

    @property
    def engine(self) -> ChainState | GridState | SegmentState:
        return self._engine

    def push(self, e: Element) -> None:
        start = time.perf_counter()
        self._engine.process(e)
        self.seconds_total += time.perf_counter() - start
        self.pushed += 1

    def snapshot(self) -> Selection:
        """Current best selection; does not disturb the stream state."""
        return self._engine.finalize()

    def close(self) -> SessionReport:
        return SessionReport(
            selection=self._engine.finalize(),
            pushed=self.pushed,
            seconds_total=self.seconds_total,
            stats=self._engine.stats(),
        )


class SegmentedDppSession(StreamingSession):
    """A session over sequential-DPP segments; see ``SegmentState``."""

    def __init__(
        self,
        kernel: DppKernel,
        segment_size: int,
        constraint: IndependenceOracle,
        knapsacks: KnapsackSpec | None = None,
        **options,
    ):
        """``options`` are ``StreamingSession``'s keyword options."""
        options.update(constraint=constraint, knapsacks=knapsacks)
        self._start(SegmentState(kernel, segment_size, partial(_new_engine, **options)))
