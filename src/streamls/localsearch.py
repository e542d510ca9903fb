"""Chained streaming local search and its density-threshold grid.

The chain runs q swap-greedy instances in sequence: whatever instance i
discards (rejections and evictions alike) is offered to instance i+1 in
the same update, and only the last instance's discards leave for good.
Finalizing takes the best of every instance solution and, where it could
win, its double-greedy-pruned subset, which converts a monotone backbone
guarantee into a non-monotone one.

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

from .constraints import IndependenceOracle, KnapsackSpec, Solution
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


def _finalize(
    chains: Collection[ChainState], floor: float = -math.inf
) -> Candidate | None:
    """The best candidate of ``chains``, the earliest run's on a tie, or
    None when there is none. The runs not yet final are screened and
    pruned first, with their shared oracle and pruning settings, against
    the largest of ``floor`` and each run's bar.
    """
    live = [chain for chain in chains if chain._final is None]
    if live:
        oracle = live[0].oracle
        fresh = _screen(oracle, live, lambda: max([floor] + [c._bar() for c in chains]))
        _prune(oracle, live[0].prune, fresh)
    best: Candidate | None = None
    for chain in chains:
        found = chain._best()
        if best is None or found[1] > best[1]:
            best = found
    return best


def _screen(
    oracle: ValueOracle, chains: Iterable[ChainState], bar: Callable[[], float]
) -> list[list[Solution]]:
    """The live solutions of ``chains`` that need a pruning pass, grouped
    by content in the order first seen.

    A group shares one cut: one that a member keeps goes to every member.
    Any other group needs a pass unless its first member's ``subset_bound``
    lies below ``bar()``, the largest value among candidates that need no
    pass, so that no set the pass could return can win or tie. The bar is
    asked only once some group has a bound, and here rather than in the
    pass, so the values it reads are asked by the finalize. Bounds are
    kept on the solutions, so a later finalize with no commit in between
    asks for none of them again.
    """
    groups: dict[Solution, list[Solution]] = {}
    for chain in chains:
        for inst in chain.instances:
            solution = inst.current_solution()
            groups.setdefault(solution, []).append(solution)
    fresh: list[list[Solution]] = []
    for group in groups.values():
        kept = [s.cut for s in group if s.cut is not None and s.cut[0] is oracle]
        if kept:
            for solution in group:
                solution.cut = kept[0]
        else:
            fresh.append(group)
    if fresh:
        bounds = [_ceiling(oracle, group[0]) for group in fresh]
        if bounds.count(None) < len(bounds):
            least = bar()
            fresh = [g for g, b in zip(fresh, bounds) if b is None or not b < least]
    return fresh


def _ceiling(oracle: ValueOracle, solution: Solution) -> float | None:
    """``oracle.subset_bound(solution)``, kept on the solution."""
    kept = solution.ceiling
    if kept is None or kept[0] is not oracle:
        kept = solution.ceiling = (oracle, oracle.subset_bound(solution))
    return kept[1]


def _prune(
    oracle: ValueOracle, prune: DoubleGreedyConfig, groups: list[list[Solution]]
) -> None:
    """Keep on each solution of ``groups`` its group's pruned set and that
    set's value, one ``cut`` per group, from one lockstep pass and one
    ``values`` call. Double greedy reads only a solution's content, in id
    order, so a kept cut is what a fresh pass returns, bit for bit."""
    if groups:
        cuts = unconstrained_max_many(oracle, [group[0] for group in groups], prune)
        for group, cut, value in zip(groups, cuts, oracle.values(cuts)):
            kept = (oracle, cut, value)
            for solution in group:
                solution.cut = kept


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

    def subset_bound(self, s: Collection[Element]) -> float | None:
        return self.oracle.subset_bound(s)

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


# A finalize's best candidate: the set, its value and its instance.
Candidate = tuple[frozenset[Element], float, IndStreamInstance]


def _selection(best: Candidate) -> Selection:
    cand, value, inst = best
    # A frozenset() copy of the Solution may reorder it.
    plain = inst.solution_copy() if cand is inst.current_solution() else cand
    return Selection(plain, value)


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
        # ``_best``'s result, once every instance is frozen: it can no
        # longer change, so no later finalize prunes or walks the run.
        self._final: Candidate | None = None
        self._recount()

    def _recount(self) -> None:
        """Refresh what only an instance's commit or freeze can change:
        ``held``, the peak, ``_all_frozen`` and the screen's ``_slack``.

        One pass over the instances' fields. The largest |value| is kept
        as ``max`` keeps it: the first instance's when it is nan.
        """
        held = 0
        all_frozen = True
        top = abs(self.instances[0]._value)
        for inst in self.instances:
            held += len(inst._weights)
            if inst._overflow is None:
                all_frozen = False
            else:
                held += 1
            size = abs(inst._value)
            if size > top:
                top = size
        self.held = held
        if held > self.high_water:
            self.high_water = held
        self._all_frozen = all_frozen
        self._slack = _SCREEN_REL * top

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
        # Whether an instance committed or froze. A freeze on x leaves x
        # as the instance's overflow record.
        changed = False
        batch: Collection[Element] = (e,)
        for inst in self.instances:
            if len(batch) == 1:
                # A reject hands the one element on as it came.
                (x,) = batch
                outcome = inst.process(x)
                if outcome.accepted:
                    changed = True
                    batch = outcome.discarded
                elif inst.overflow_record() is x:
                    changed = True
            else:
                discarded: list[Element] = []
                for x in sorted(batch, key=lambda el: el.id):
                    outcome = inst.process(x)
                    changed = changed or outcome.accepted or inst.overflow_record() is x
                    discarded.extend(outcome.discarded)
                batch = discarded
            if not batch:
                break
        self.dropped += len(batch)
        if changed:
            self._recount()

    def finalize(self) -> Selection:
        """Best of all instance solutions and their pruned variants.

        The stream may continue afterwards. Each pruned set is kept on
        its solution (see ``_prune``), so a snapshot writes to the held
        solutions and must not race another. A solution whose pruned set
        could not win is not pruned (see ``_screen``). Ties keep the
        earliest candidate: lowest instance, then its solution, the
        solution pruned, the overflowing element alone.
        """
        return _selection(_finalize([self]))

    def _held(self, inst: IndStreamInstance) -> list[tuple[frozenset[Element], float]]:
        """The candidates of ``inst`` that need no pruning, with their values:
        its solution, and once it is frozen its overflowing element alone.

        f of each solution is kept on it, and f of a frozen instance's
        overflowing element alone on the instance, so a later finalize
        asks for neither again.
        """
        oracle = self.oracle
        solution = inst.current_solution()
        kept = solution.value
        if kept is None or kept[0] is not oracle:
            kept = solution.value = (oracle, oracle.value(solution))
        held = [(solution, kept[1])]
        last = inst.overflow_record()
        if last is not None:  # then the solution is the pre-overflow one
            if inst.overflow_alone is None:
                alone = frozenset((last,))
                inst.overflow_alone = (alone, oracle.value(alone))
            held.append(inst.overflow_alone)
        return held

    def _bar(self) -> float:
        """The largest value of a candidate of this run that needs no
        pruning: the kept best once the run is final, else the largest
        number among ``_held``'s values, or -inf."""
        if self._final is not None:
            return self._final[1]
        bar = -math.inf
        for inst in self.instances:
            for _, value in self._held(inst):
                if value > bar:
                    bar = value
        return bar

    def _best(self) -> Candidate:
        """The candidate ``finalize`` selects, with its value and instance,
        from each solution's ``cut``, which the last finalize left None
        when the pruned set could not win.

        Once every instance is frozen, the result itself is kept, and the
        run's cuts are no longer read. It is kept only when every pruned
        set left out is bounded below it, so that it is the run's own
        best: a grid's bar may fall when the runs that hold its best
        retire.
        """
        if self._final is not None:
            return self._final
        best: Candidate | None = None
        # The bounds of the pruned sets left out, for a run that may be kept.
        left_out: list[float | None] = []
        for inst in self.instances:
            candidates = self._held(inst)
            solution = candidates[0][0]
            cut = solution.cut
            if cut is not None and cut[0] is self.oracle:
                candidates.insert(1, cut[1:])
            elif self._all_frozen:
                left_out.append(_ceiling(self.oracle, solution))
            for cand, cand_value in candidates:
                if best is None or cand_value > best[1]:
                    best = (cand, cand_value, inst)
        assert best is not None
        if self._all_frozen and all(b is not None and b < best[1] for b in left_out):
            self._final = best
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
            if constraint.rank_hint is None:
                raise ConfigError("k (bound on the largest feasible solution) is required")
            # A hint of 0 makes every covered element infeasible; k = 1
            # bounds that as well.
            k = max(constraint.rank_hint, 1)
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
        cost, fits = self.knapsacks.facts(e)
        self.processed += 1
        if self._step_memo is not None:
            self._step_memo.clear()
        if not fits:
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
        """Best run candidate versus the best feasible singleton.

        Ties keep the earliest run's candidate, and a run's over the
        singleton. Only the winner is built into a ``Selection``.
        """
        if self._step_memo is not None:
            self._step_memo.clear()
        floor = self.m if self.e_m is not None else -math.inf
        best = _finalize(self.runs.values(), floor)
        if self.e_m is not None and (best is None or self.m > best[1]):
            return Selection(frozenset({self.e_m}), self.m)
        if best is None:
            return Selection(frozenset(), self._empty)
        return _selection(best)

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
    if knapsacks is not None and knapsacks.d > 0:
        return GridState(oracle, constraint, knapsacks, k=k, eps=eps, prune=prune)
    _check_options(k, eps)
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
