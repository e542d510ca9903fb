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
from typing import AbstractSet, Callable, Collection, Iterable, Sequence

from .constraints import IndependenceOracle, KnapsackSpec
from .errors import ConfigError, DomainError
from .indstream import IndStreamInstance
from .objectives import GAIN_TOL, DppKernel, Element, SequentialDppOracle, ValueOracle
from .objectives import seqdpp_conditional_value
from .unconstrained import DoubleGreedyConfig, unconstrained_max_many

# Nothing here calls the one-ground pass any more; the name stays bound
# only for tools that wrap it by name. A wrapper on it therefore sees no
# call, and a span timed through it reads 0: the close runs
# unconstrained_max_many.
from .unconstrained import unconstrained_max  # noqa: F401

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


def _prune(
    oracle: ValueOracle,
    prune: DoubleGreedyConfig,
    chains: Iterable[ChainState],
    memo: Memo,
) -> Memo:
    """Each live solution of ``chains``, keyed by content, to its pruned
    set and that set's value, read from ``memo`` when the last finalize
    pruned an equal solution.

    Double greedy reads only a solution's content, in id order, so a memo
    entry is what a fresh pass returns, bit for bit. The rest are pruned
    in one lockstep pass and their cuts evaluated in one ``values`` call.
    """
    used: Memo = {}
    fresh: dict[frozenset[Element], None] = {}
    for chain in chains:
        for inst in chain.instances:
            solution = inst.current_solution()
            entry = memo.get(solution)
            if entry is None:
                fresh[solution] = None
            else:
                used[solution] = entry
    if fresh:
        cuts = unconstrained_max_many(oracle, fresh, prune)
        used.update(zip(fresh, zip(cuts, oracle.values(cuts))))
    return used


class _StepMemo(ValueOracle):
    """f of each set evaluated since the last ``clear``, for an oracle that
    opts in through ``ValueOracle.memoized``.

    A set is keyed by its element ids in iteration order. An id is an
    element's identity, and that order is all such an oracle reads of a
    set, so a hit returns the bits the wrapped call returned.
    ``GridState`` clears it at each ``process`` and ``finalize``, so it
    holds one step's sets.
    """

    def __init__(self, oracle: ValueOracle):
        self.oracle = oracle
        self._values: dict[tuple[int, ...], float] = {}

    def value(self, elements: Iterable[Element]) -> float:
        items = tuple(elements)
        key = tuple([e.id for e in items])
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self.oracle.value(items)
        return value

    def values(self, sets: Sequence[Collection[Element]]) -> list[float]:
        """Each set's value, the misses sent down in one ``values`` call,
        each distinct one once."""
        keys = [tuple([e.id for e in s]) for s in sets]
        known = self._values
        misses = {key: s for key, s in zip(keys, sets) if key not in known}
        if misses:
            known.update(zip(misses, self.oracle.values(list(misses.values()))))
        return [known[key] for key in keys]

    def gain_bound(self, s: AbstractSet[Element], e: Element) -> float | None:
        return self.oracle.gain_bound(s, e)

    def clear(self) -> None:
        self._values.clear()

    @property
    def clamped(self) -> bool:
        return self.oracle.clamped


def _ceil(x: float) -> int:
    return math.ceil(x - _CEIL_EPS)


def _check_options(k: int | None, eps: float) -> None:
    """eps and an explicit k, checked alike by every engine, grid or not."""
    if not 0.0 < eps < math.inf:
        raise ConfigError("eps must be positive and finite")
    if k is not None and k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")


def resolve_alpha(constraint: IndependenceOracle) -> float:
    """The factor the constraint declares for the swap backbone."""
    if constraint.swap_alpha is None:
        raise ConfigError("the constraint declares no swap_alpha for the backbone")
    return constraint.swap_alpha


def _check_factors(alpha: float, beta: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("alpha must lie in (0, 1]")
    if not 0.0 < beta <= 0.5:
        raise ConfigError("beta must lie in (0, 1/2]")


def chain_length(alpha: float, beta: float) -> int:
    """Number of chained instances: ceil(sqrt(2*beta/alpha) + 1)."""
    _check_factors(alpha, beta)
    return _ceil(math.sqrt(2.0 * beta / alpha) + 1.0)


def guarantee_bound(alpha: float, beta: float, d: int, eps: float) -> float:
    """End-to-end approximation factor of the chained local search.

    (1 - eps) / ((1/sqrt(a) + 1/sqrt(2b)) * (1/sqrt(a) + 2d*sqrt(a) + 1/sqrt(2b)))

    With beta = 1/2 and d = 0 this is 1/(1 + 1/sqrt(alpha))^2; with
    alpha = 1/(4p) it reproduces 1/(1+2*sqrt(p))^2 and, for d knapsacks,
    (1-eps)/(1+4p+4*sqrt(p)+d(2+1/sqrt(p))).
    """
    _check_factors(alpha, beta)
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
    frozen: then it counts the element as processed and discarded by
    each and dropped, with no instance or oracle call. A threshold grid
    does not call a run on an element its density screen rules out, and
    counts such elements into the run later (see ``GridState``).
    ``held`` is the stored sum of the instances' ``held``. It is
    recounted only after a step in which an instance committed or froze,
    the only places an instance's ``held``, ``value`` or ``frozen``
    changes.
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

    def _pass_through(self, n: int = 1) -> None:
        """Count ``n`` elements as processed, rejected by every instance
        and dropped, with no instance step."""
        self.processed += n
        for inst in self.instances:
            inst.processed += n
            inst.discarded_total += n
        self.dropped += n

    def process(self, e: Element) -> None:
        """Route one stream element through the whole chain."""
        if self._all_frozen:
            self._pass_through()
            return
        self.processed += 1
        changed = False  # whether an instance committed or froze
        batch: list[Element] = [e]
        for inst in self.instances:
            was_frozen = inst.frozen
            discarded: list[Element] = []
            for x in batch if len(batch) == 1 else sorted(batch, key=lambda el: el.id):
                outcome = inst.process(x)
                changed = changed or outcome.accepted
                discarded.extend(outcome.discarded)
            changed = changed or inst.frozen != was_frozen
            batch = discarded
            if not batch:
                break
        self.dropped += len(batch)
        if changed:
            self._recount()

    def finalize(self, pruned: Memo | None = None) -> Selection:
        """Best of all instance solutions and their pruned variants.

        The stream may continue afterwards. ``pruned`` maps each solution
        to its pruned set and that set's value (see ``_prune``). A
        standalone chain builds it from its own memo and keeps it as the
        next one, so a snapshot replaces the memo and must not race
        another; a grid passes the one it built for all its runs. Ties
        keep the earliest candidate (lowest instance, constrained before
        pruned).
        """
        if pruned is None:
            pruned = self._memo = _prune(self.oracle, self.prune, [self], self._memo)
        value = self.oracle.value
        best: tuple[frozenset[Element], float, IndStreamInstance] | None = None
        for inst in self.instances:
            solution = inst.current_solution()
            candidates = [(solution, value(solution)), pruned[solution]]
            last = inst.overflow_record()
            if last is not None:  # then the solution is the pre-overflow one
                alone = frozenset((last,))
                candidates.append((alone, value(alone)))
            for cand, cand_value in candidates:
                if best is None or cand_value > best[1]:
                    best = (cand, cand_value, inst)
        assert best is not None
        cand, cand_value, inst = best
        # A frozenset() copy of the Solution may reorder it.
        plain = inst.solution_copy() if cand is inst.current_solution() else cand
        return Selection(plain, cand_value)

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

    A step calls a run only when e could change it: when the density
    screen in ``process`` lets e through, or the run is all frozen. Every
    other element routed to a run is counted into it, as processed and
    discarded by each instance and dropped, when ``stats`` reads the
    counters; until then a run's counters lag the stream.

    Runs at neighbouring thresholds often hold equal solutions, so one
    step asks for many sets more than once. For an oracle that opts in
    through ``ValueOracle.memoized``, the runs and the grid's own f({e})
    read one ``_StepMemo``, cleared at each ``process`` and ``finalize``.
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
        _check_options(k, eps)
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
        # What the runs and the grid's own f({e}) evaluate.
        self._step_memo = _StepMemo(oracle) if oracle.memoized else None
        self._evaluator = oracle if self._step_memo is None else self._step_memo

        self.m = 0.0
        self.e_m: Element | None = None
        # Keyed by ascending index: m only grows, so neither end of the
        # window moves down and every run opens above the ones kept.
        self.runs: dict[int, ChainState] = {}
        # Per run, the grid's ``processed`` before the element it opened on.
        self._opened: dict[int, int] = {}
        self.processed = 0
        self.retired = 0
        self.high_water = 0
        self.max_active_runs = 0
        self._retired_chain_high_water = 0
        # The last finalize's pruned solutions, for all runs; see _prune.
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
            self._evaluator,
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
            del self._opened[j]
            self.retired += 1
        for j in range(lo, hi + 1):
            if j not in self.runs:
                self.runs[j] = self._new_chain(rho=self._threshold(j))
                self._opened[j] = self.processed - 1
        self.max_active_runs = max(self.max_active_runs, len(self.runs))

    def process(self, e: Element) -> None:
        if self._check_hint and not self.constraint.hint_covers(e):
            raise DomainError(
                f"element {e.id} is not bounded by the constraint's rank hint,"
                " so k = auto does not hold; set k explicitly"
            )
        self.processed += 1
        if self._step_memo is not None:
            self._step_memo.clear()
        if not self.knapsacks.singleton_fits(e):
            # Above a unit capacity: every instance would reject e at its
            # own step, so no run is called and ``_sync`` counts e into
            # each. No chain's held changes, so neither does the peak.
            return
        # f({e}) sets m, the window and the density screen's bound.
        value = self._evaluator.value(frozenset({e}))
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
        oracle = self._evaluator
        held = 0
        for chain in self.runs.values():
            # The density screen: with rho * cost above the cap, the gate
            # rejects e at every instance of the run. Written as not-above,
            # so a nan cap lets e through. It is off once the oracle has
            # clamped, since the cap rests on submodularity; a clamp in
            # this step turns it off for the runs after.
            if (
                chain._all_frozen
                or not (chain.rho * cost > gain_cap + chain._slack)
                or oracle.clamped
            ):
                chain.process(e)
            held += chain.held
        self.high_water = max(self.high_water, held)

    def finalize(self) -> Selection:
        """Best run result versus the best feasible singleton."""
        if self._step_memo is not None:
            self._step_memo.clear()
        pruned = self._memo = _prune(
            self._evaluator, self.prune, self.runs.values(), self._memo
        )
        best: Selection | None = None
        for chain in self.runs.values():
            candidate = chain.finalize(pruned)
            if best is None or candidate.value > best.value:
                best = candidate
        if self.e_m is not None and (best is None or self.m > best.value):
            best = Selection(frozenset({self.e_m}), self.m)
        if best is None:
            best = Selection(frozenset(), self._empty)
        return best

    def _sync(self) -> None:
        """Count into each run the elements routed to it uncalled."""
        for j, chain in self.runs.items():
            lag = self.processed - self._opened[j] - chain.processed
            if lag:
                chain._pass_through(lag)

    def stats(self) -> dict:
        self._sync()
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
    _check_options(k, eps)
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
