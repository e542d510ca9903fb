"""Chain routing, finalize argmax, the lazy threshold grid and the
session API."""

import gc
import math
import random
import re
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

from streamls import (
    ChainState,
    ConfigError,
    CoverageOracle,
    CutOracle,
    DecomposableOracle,
    DomainError,
    DoubleGreedyConfig,
    DppKernel,
    Element,
    GridState,
    KnapsackSpec,
    LogDetOracle,
    Matchoid,
    ModularOracle,
    PartitionMatroid,
    PredicateOracle,
    SegmentedDppSession,
    Selection,
    StreamingSession,
    UniformMatroid,
    ValueOracle,
    WeightedSumOracle,
    brute_opt,
    chain_length,
    guarantee_bound,
)
import streamls.indstream as indstream
from streamls.constraints import Solution
import streamls.localsearch as localsearch
import streamls.unconstrained as unconstrained
from streamls.indstream import IndStreamInstance
from streamls.localsearch import SegmentState
from streamls.objectives import suggest_logdet_offset
from streamls.unconstrained import unconstrained_max, unconstrained_max_many
from streamls.verify import UnscreenedLogDet, _screen_run, random_instance


def costed(i, *costs):
    return Element(id=i, costs=tuple(costs))


RANDOMIZED = DoubleGreedyConfig(mode="randomized", seed=0)  # beta = 1/2


class TestChainLength:
    def test_alg1_specialization(self):
        # beta = 1/2 reduces to ceil(1/sqrt(alpha) + 1).
        assert chain_length(0.25, 0.5) == 3
        assert chain_length(1.0, 0.5) == 2
        assert chain_length(1.0 / 16.0, 0.5) == 5

    def test_general_beta(self):
        assert chain_length(0.25, 1.0 / 3.0) == 3
        assert chain_length(1.0 / 8.0, 1.0 / 3.0) == math.ceil(math.sqrt(16.0 / 3.0) + 1)

    def test_at_least_two(self):
        assert chain_length(1.0, 1.0 / 3.0) >= 2

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            chain_length(0.0, 0.5)
        with pytest.raises(ConfigError):
            chain_length(0.5, 0.7)


class TestGuaranteeBound:
    def test_corollary_single_matroid(self):
        assert guarantee_bound(0.25, 0.5, 0, 0.0) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_corollary_knapsack_form(self):
        for p in (1, 2, 3):
            for d in (1, 2):
                got = guarantee_bound(1.0 / (4 * p), 0.5, d, 0.1)
                want = 0.9 / (1 + 4 * p + 4 * math.sqrt(p) + d * (2 + 1 / math.sqrt(p)))
                assert got == pytest.approx(want, abs=1e-12)

    def test_alpha_one(self):
        assert guarantee_bound(1.0, 0.5, 0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_d_zero_reduction_identity(self):
        for alpha in (1.0, 0.5, 0.25, 0.1):
            for beta in (0.5, 1.0 / 3.0):
                got = guarantee_bound(alpha, beta, 0, 0.0)
                a = 1.0 / math.sqrt(alpha) + 1.0 / math.sqrt(2.0 * beta)
                want = math.sqrt(2.0 * beta) / a**2 / math.sqrt(2.0 * beta)
                assert got == pytest.approx(want, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            guarantee_bound(2.0, 0.5, 0, 0.0)
        with pytest.raises(ConfigError):
            guarantee_bound(0.5, 0.5, -1, 0.0)
        with pytest.raises(ConfigError):
            guarantee_bound(0.5, 0.5, 0, 1.0)

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            (0.0, 0.7, r"alpha must lie in \(0, 1\]"),
            (1.5, 0.5, r"alpha must lie in \(0, 1\]"),
            (0.5, 0.7, r"beta must lie in \(0, 1/2\]"),
            (0.5, 0.0, r"beta must lie in \(0, 1/2\]"),
        ],
    )
    def test_factor_checks_match_chain_length(self, alpha, beta, message):
        # alpha is checked before beta, and before d and eps.
        with pytest.raises(ConfigError, match=message):
            chain_length(alpha, beta)
        with pytest.raises(ConfigError, match=message):
            guarantee_bound(alpha, beta, -1, 1.0)


class TestChain:
    def test_instance_count_from_alpha(self):
        chain = ChainState(ModularOracle({}), UniformMatroid(2), prune=RANDOMIZED)
        assert chain.q == 3
        assert len(chain.instances) == 3

    def test_eviction_routes_to_next_instance_in_same_call(self):
        oracle = ModularOracle({0: 1.0, 1: 3.0})
        chain = ChainState(oracle, UniformMatroid(1))
        chain.process(Element(id=0))
        chain.process(Element(id=1))
        assert chain.instances[0].current_solution() == frozenset({Element(id=1)})
        assert chain.instances[1].current_solution() == frozenset({Element(id=0)})

    def test_all_reject_drops_permanently(self):
        oracle = ModularOracle({0: 1.0, 1: 0.0})
        chain = ChainState(oracle, UniformMatroid(1))
        chain.process(Element(id=0))
        chain.process(Element(id=1))  # zero gain everywhere: dropped
        assert chain.dropped == 1
        for inst in chain.instances[1:]:
            assert inst.current_solution() == frozenset()

    def test_solutions_stay_disjoint(self):
        rng = random.Random(41)
        for _ in range(25):
            instance = random_instance(rng)
            chain = ChainState(instance.oracle, instance.constraint)
            for e in instance.elements:
                chain.process(e)
                solutions = [i.current_solution() for i in chain.instances]
                union = frozenset().union(*solutions)
                assert len(union) == sum(len(s) for s in solutions)

    def test_finalize_empty_chain(self):
        oracle = ModularOracle({})
        chain = ChainState(oracle, UniformMatroid(1))
        result = chain.finalize()
        assert result.elements == frozenset()
        assert result.value == 0.0

    def test_finalize_does_not_mutate(self):
        rng = random.Random(42)
        instance = random_instance(rng)
        chain = ChainState(instance.oracle, instance.constraint)
        for e in instance.elements[: len(instance.elements) // 2]:
            chain.process(e)
        before = [i.current_solution() for i in chain.instances]
        chain.finalize()
        after = [i.current_solution() for i in chain.instances]
        assert before == after

    @pytest.mark.parametrize("size", [5, 6, 7, 16, 17])
    def test_selection_iterates_as_the_solution(self, size):
        # A frozenset() copy of a Solution this size gets a table of another
        # size, so it may iterate in another order, and a log-det taken from
        # the selection (as a segment's conditional value is) follows that
        # order to its last bit.
        ids = random.Random(size).sample(range(10**6), size)
        chain = ChainState(ModularOracle({i: 1.0 for i in ids}), UniformMatroid(size))
        for i in ids:
            chain.process(Element(id=i))
        solution = chain.instances[0].current_solution()
        # Every candidate is worth size; ties keep the unpruned solution.
        selection = chain.finalize()
        assert type(selection.elements) is frozenset
        assert list(selection.elements) == list(solution)

    def test_pruning_strictly_helps_on_cut_instance(self):
        # Frozen search result: stream where an instance ends holding a
        # set whose strict subset cuts more, so the pruned variant wins.
        rng = random.Random(43)
        n = rng.randint(5, 9)
        ids = list(range(n))
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    edges.append((a, b, rng.uniform(0.5, 2.0)))
        oracle = CutOracle(edges, nodes=ids)
        limit = rng.randint(2, 4)
        chain = ChainState(oracle, UniformMatroid(limit))
        elements = [Element(id=i) for i in ids]
        rng.shuffle(elements)
        for e in elements:
            chain.process(e)
        first = chain.instances[0].current_solution()
        pruned = unconstrained_max(oracle, first, DoubleGreedyConfig())
        assert oracle.value(pruned) > oracle.value(first) + 1e-9
        final = chain.finalize()
        assert final.elements == pruned
        assert final.value == pytest.approx(oracle.value(pruned))

    def test_monotone_objective_prune_never_helps(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(5, 10)
            oracle = CoverageOracle(
                {i: rng.sample(range(12), rng.randint(1, 3)) for i in range(n)}
            )
            chain = ChainState(oracle, UniformMatroid(3))
            elements = [Element(id=i) for i in range(n)]
            rng.shuffle(elements)
            for e in elements:
                chain.process(e)
            final = chain.finalize()
            best_constrained = max(
                oracle.value(i.current_solution()) for i in chain.instances
            )
            assert final.value == pytest.approx(best_constrained)


class TestGrid:
    def _grid(self, oracle, d=1, *, k=4, eps=1.0, prune=RANDOMIZED):
        return GridState(
            oracle,
            UniformMatroid(k),
            KnapsackSpec(d),
            k=k,
            eps=eps,
            prune=prune,
        )

    def test_first_element_creates_grid(self):
        grid = self._grid(ModularOracle({0: 1.0}))
        assert not grid.runs
        grid.process(costed(0, 0.01))
        assert grid.e_m == Element(id=0)
        assert len(grid.runs) == 3  # powers of 2 spanning [1/6, 2/3]
        assert sorted(grid.runs) == [-3, -2, -1]

    def test_active_window_tracks_growing_maximum(self):
        grid = self._grid(ModularOracle({0: 1.0, 1: 64.0}))
        grid.process(costed(0, 0.01))
        low_indices = set(grid.runs)
        grid.process(costed(1, 0.01))
        assert grid.m == 64.0
        assert min(grid.runs) > min(low_indices)
        assert grid.retired > 0

    def test_grid_size_stays_within_cap(self):
        rng = random.Random(45)
        for _ in range(15):
            instance = random_instance(rng, d=1)
            grid = GridState(
                instance.oracle,
                instance.constraint,
                instance.knapsacks,
                k=instance.k,
                eps=0.2,
            )
            for e in instance.elements:
                grid.process(e)
            cap = math.ceil(math.log(instance.k) / math.log(1.2)) + 2
            assert grid.max_active_runs <= cap

    def test_finalize_empty_stream(self):
        grid = self._grid(ModularOracle({}))
        result = grid.finalize()
        assert result.elements == frozenset()

    def test_singleton_fallback_wins_when_chains_hold_less(self):
        # Three blockers fill the rank-1 instances before a strictly
        # better singleton arrives; every run rejects it (gain below
        # twice the held weight), so only e_m can return it.
        covers = {i: {(i, j) for j in range(9)} for i in range(3)}
        covers[3] = {(3, j) for j in range(10)}
        oracle = CoverageOracle(covers)
        grid = self._grid(oracle, k=1, eps=0.5, prune=DoubleGreedyConfig())
        for i in range(3):
            grid.process(costed(i, 0.01))
        grid.process(costed(3, 0.01))
        for chain in grid.runs.values():
            for inst in chain.instances:
                assert Element(id=3) not in inst.current_solution()
        result = grid.finalize()
        assert result.elements == frozenset({Element(id=3)})
        assert result.value == 10.0

    def test_no_knapsacks_degenerates_to_plain_chain(self):
        rng = random.Random(46)
        instance = random_instance(rng, d=0)
        session = StreamingSession(
            instance.oracle,
            instance.constraint,
            KnapsackSpec(0),
            k=instance.k,
        )
        chain = ChainState(instance.oracle, instance.constraint)
        for e in instance.elements:
            session.push(e)
            chain.process(e)
        assert isinstance(session.engine, ChainState)
        assert session.snapshot() == chain.finalize()
        with pytest.raises(ConfigError):
            GridState(
                instance.oracle,
                instance.constraint,
                KnapsackSpec(0),
                k=instance.k,
            )

    def test_final_set_feasible(self):
        rng = random.Random(47)
        for _ in range(20):
            instance = random_instance(rng, d=2)
            grid = GridState(
                instance.oracle,
                instance.constraint,
                instance.knapsacks,
                k=instance.k,
                eps=0.2,
            )
            for e in instance.elements:
                grid.process(e)
            final = grid.finalize()
            assert instance.constraint.is_independent(final.elements)
            assert instance.knapsacks.feasible(final.elements)

    def test_bad_alpha_or_eps_fails_at_construction(self):
        with pytest.raises(ConfigError, match="alpha must lie in"):
            GridState(
                ModularOracle({}),
                PredicateOracle(lambda s: True, rank_hint=4, swap_alpha=1.5),
                KnapsackSpec(1),
            )
        for eps in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="eps must be positive and finite"):
                self._grid(ModularOracle({}), eps=eps)
        # A window of log(k) / log1p(eps) runs: trillions, or an overflow.
        for eps in (1e-12, 5e-324):
            with pytest.raises(ConfigError, match="threshold runs"):
                self._grid(ModularOracle({}), eps=eps)
        # With k = 1 the window is one run wide, but rho = (1 + eps)^j is not.
        with pytest.raises(ConfigError, match="must exceed 1"):
            self._grid(ModularOracle({}), k=1, eps=5e-324)

    def test_k_required_with_knapsacks(self):
        with pytest.raises(ConfigError, match="k .* is required"):
            GridState(
                ModularOracle({}),
                PredicateOracle(lambda s: True, swap_alpha=0.25),
                KnapsackSpec(1),
            )

    def test_auto_k_reads_a_rank_hint_of_zero_as_one(self):
        grid = GridState(ModularOracle({0: 1.0}), UniformMatroid(0), KnapsackSpec(1))
        assert grid.k == 1
        grid.process(costed(0, 0.5))
        assert grid.finalize() == Selection(frozenset(), 0.0)
        # An empty partition hints 0 as well, but bounds no element.
        grid = GridState(ModularOracle({0: 1.0}), PartitionMatroid({}), KnapsackSpec(1))
        assert grid.k == 1
        with pytest.raises(DomainError, match="element 0 .*set k explicitly"):
            grid.process(costed(0, 0.5))

    def test_auto_k_refuses_an_element_outside_every_part(self):
        oracle = ModularOracle({0: 1.0, 1: 1.0})
        constraint = PartitionMatroid({"a": 1})
        inside = Element(id=0, costs=(0.5,), groups=frozenset({"a"}))
        outside = Element(id=1, costs=(0.5,), groups=frozenset({"b"}))
        grid = GridState(oracle, constraint, KnapsackSpec(1))
        grid.process(inside)
        with pytest.raises(DomainError, match="element 1 .*set k explicitly"):
            grid.process(outside)
        # An explicit k is the caller's bound; the element is taken as given.
        grid = GridState(oracle, constraint, KnapsackSpec(1), k=2)
        grid.process(inside)
        grid.process(outside)
        assert grid.finalize().value == 2.0

    def test_cost_count_mismatch_is_domain_error(self):
        grid = self._grid(ModularOracle({0: 1.0}), d=1)
        with pytest.raises(DomainError):
            grid.process(costed(0, 0.1, 0.2))

    @pytest.mark.parametrize(
        "cost, message",
        [
            (math.nan, "element 1 has non-finite cost nan"),
            (-0.5, "element 1 has negative cost -0.5"),
        ],
        ids=["nan", "negative"],
    )
    def test_a_library_cost_is_checked_as_a_file_cost_is(self, cost, message):
        # Unchecked, a nan cost dropped element 1 and a negative one let it
        # in as free capacity: (0, 2) = 3.0 and (1, 2) = 7.0, silently.
        session = StreamingSession(
            ModularOracle({0: 1.0, 1: 5.0, 2: 2.0}), UniformMatroid(3), KnapsackSpec(1), k=3
        )
        session.push(costed(0, 0.2))
        processed = session.engine.processed
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            session.push(costed(1, cost))
        assert session.engine.processed == processed
        session.push(costed(2, 0.3))
        assert session.close().selection.ids == (0, 2)


class TestSession:
    def test_snapshot_then_close(self):
        rng = random.Random(48)
        instance = random_instance(rng, d=1)
        session = StreamingSession(
            instance.oracle,
            instance.constraint,
            instance.knapsacks,
            k=instance.k,
        )
        mid = None
        for i, e in enumerate(instance.elements):
            session.push(e)
            if i == len(instance.elements) // 2:
                mid = session.snapshot()
        report = session.close()
        assert mid is not None
        assert report.pushed == len(instance.elements)
        assert report.selection.value >= 0.0
        assert report.stats["high_water"] >= 0
        assert report.seconds_per_element >= 0.0

    def test_session_prefers_grid_only_with_knapsacks(self):
        plain = StreamingSession(ModularOracle({}), UniformMatroid(2))
        assert isinstance(plain.engine, ChainState)
        grid = StreamingSession(
            ModularOracle({}), UniformMatroid(2), KnapsackSpec(1), k=2
        )
        assert isinstance(grid.engine, GridState)

    @pytest.mark.parametrize("knapsacks", [None, KnapsackSpec(1)], ids=["chain", "grid"])
    def test_eps_and_k_are_checked_by_every_engine(self, knapsacks):
        for eps in (-5.0, 0.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="eps must be positive and finite"):
                StreamingSession(ModularOracle({}), UniformMatroid(2), knapsacks, eps=eps)
        for k in (-3, 0):
            with pytest.raises(ConfigError, match=f"k must be at least 1, got {k}"):
                StreamingSession(ModularOracle({}), UniformMatroid(2), knapsacks, k=k)


class TestDeclaredAlpha:
    """The constraint's ``swap_alpha`` is the one source of alpha."""

    def test_engines_refuse_an_undeclared_alpha(self):
        opaque = PredicateOracle(lambda s: len(s) <= 2, rank_hint=2)
        with pytest.raises(ConfigError, match="declares no swap_alpha"):
            ChainState(ModularOracle({}), opaque)
        with pytest.raises(ConfigError, match="declares no swap_alpha"):
            GridState(ModularOracle({}), opaque, KnapsackSpec(1))
        with pytest.raises(ConfigError, match="declares no swap_alpha"):
            StreamingSession(ModularOracle({}), opaque)

    @pytest.mark.parametrize("d", [0, 1])
    def test_declared_predicate_selects_as_the_uniform_matroid(self, d):
        rng = random.Random(f"predicate:{d}")
        for _ in range(10):
            instance = random_instance(rng, d=d)
            limit = rng.randint(1, 4)
            uniform = UniformMatroid(limit)
            declared = PredicateOracle(
                uniform.is_independent, rank_hint=limit, swap_alpha=0.25
            )
            sessions = [
                StreamingSession(instance.oracle, c, instance.knapsacks, k=limit)
                for c in (uniform, declared)
            ]
            for e in instance.elements:
                for session in sessions:
                    session.push(e)
            want, got = (session.close() for session in sessions)
            assert got.selection == want.selection
            assert got.stats == want.stats

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_label_matchoid_p3_meets_its_bound(self, d):
        # Label matchoids with up to three parts per element, p = 3 and
        # so alpha = 1/12, against brute force. Its own stream of draws:
        # random_instance is left as it is.
        rng = random.Random(f"matchoid-p3:{d}")
        labels = ("m0", "m1", "m2", "m3", "m4")
        prune, eps = DoubleGreedyConfig(), 0.2
        bound = guarantee_bound(1.0 / 12.0, prune.beta, d, eps)
        for _ in range(15):
            n = rng.randint(6, 10)
            constraint = Matchoid(
                [(UniformMatroid(rng.randint(1, 2)), label) for label in labels], p=3
            )
            assert constraint.swap_alpha == pytest.approx(1.0 / 12.0)
            elements = [
                Element(
                    id=i,
                    costs=tuple(rng.uniform(0.05, 1.0) for _ in range(d)),
                    groups=frozenset(rng.sample(labels, rng.randint(1, 3))),
                )
                for i in range(n)
            ]
            if rng.random() < 0.5:
                oracle = CoverageOracle(
                    {i: rng.sample(range(n), rng.randint(1, 4)) for i in range(n)}
                )
            else:
                oracle = CutOracle(
                    [
                        (a, b, rng.uniform(0.5, 1.5))
                        for a in range(n)
                        for b in range(a + 1, n)
                        if rng.random() < 0.45
                    ],
                    nodes=range(n),
                )
            rng.shuffle(elements)
            knapsacks = KnapsackSpec(d) if d else None
            session = StreamingSession(
                oracle, constraint, knapsacks, eps=eps, prune=prune
            )
            for e in elements:
                session.push(e)
            final = session.close().selection
            assert constraint.is_independent(final.elements)
            assert knapsacks is None or knapsacks.feasible(final.elements)
            opt = brute_opt(oracle, elements, constraint, knapsacks).best_value
            assert final.value >= bound * opt - 1e-9 * max(1.0, opt)

    @pytest.mark.parametrize("kind", ["logdet", "coverage"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_unbounded_uniform_with_knapsacks_meets_its_bound(self, d, kind):
        # The shape `streamls run` takes with constraint = none: a uniform
        # matroid no set reaches, d knapsacks and an explicit k, against
        # brute force. Its own stream of draws, so verify is left as it is.
        rng = random.Random(f"unbounded-uniform:{d}:{kind}")
        constraint = UniformMatroid(1 << 30)
        prune, eps = DoubleGreedyConfig(), 0.2
        bound = guarantee_bound(0.25, prune.beta, d, eps)
        for _ in range(12):
            n = rng.randint(6, 10)
            if kind == "logdet":
                x = np.array([[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(n)])
                dist = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
                matrix = np.exp(-dist / 2.0) + 0.5 * np.eye(n)
                kernel = DppKernel(matrix, offset=suggest_logdet_offset(matrix))
                oracle = LogDetOracle(kernel)
            else:
                oracle = CoverageOracle(
                    {i: rng.sample(range(n), rng.randint(1, 4)) for i in range(n)}
                )
            elements = [
                Element(id=i, costs=tuple(rng.uniform(0.05, 1.0) for _ in range(d)))
                for i in range(n)
            ]
            rng.shuffle(elements)
            knapsacks = KnapsackSpec(d)
            session = StreamingSession(
                oracle, constraint, knapsacks, k=n, eps=eps, prune=prune
            )
            for e in elements:
                session.push(e)
            final = session.close().selection
            assert knapsacks.feasible(final.elements)
            opt = brute_opt(oracle, elements, constraint, knapsacks).best_value
            assert final.value >= bound * opt - 1e-9 * max(1.0, opt)


class ReferenceChain(ChainState):
    """Plain routing, the reference for the pass-through chain: every
    element goes through every instance, frozen ones included, and
    ``held`` is recounted on every push. Its ``finalize`` is the uncached
    one: it prunes and evaluates every candidate on every call, a frozen
    instance's pre-overflow set included as a copy of its solution."""

    def process(self, e):
        self.processed += 1
        batch = [e]
        for inst in self.instances:
            discarded = []
            for x in sorted(batch, key=lambda el: el.id):
                discarded.extend(inst.process(x).discarded)
            batch = discarded
            if not batch:
                break
        self.dropped += len(batch)
        self.held = sum(inst.held for inst in self.instances)
        self.high_water = max(self.high_water, self.held)

    def finalize(self):
        best = None
        for inst in self.instances:
            candidates = []
            solution = inst.current_solution()
            candidates.append(solution)
            candidates.append(unconstrained_max(self.oracle, solution, self.prune))
            last = inst.overflow_record()
            if last is not None:
                # The pre-overflow solution, as a plain set rebuilt from
                # the held keys, then the overflowing element alone.
                candidates.append(inst.solution_copy())
                candidates.append(frozenset({last}))
            for cand in candidates:
                value = self.oracle.value(cand)
                if best is None or value > best.value:
                    best = Selection(frozenset(cand), value)
        assert best is not None
        return best


class ReferenceGrid(GridState):
    """Moves the window and sums every run's ``held`` on every push.

    Its chains are ``ReferenceChain``s, so it never screens an element by
    density: every live instance evaluates every element it is offered.
    Its ``finalize`` calls each chain's uncached one.
    """

    def _new_chain(self, rho):
        return ReferenceChain(
            self.oracle,
            self.constraint,
            prune=self.prune,
            rho=rho,
            knapsacks=self.knapsacks,
        )

    def _sync(self):
        # Every run is called on every element from the one it opened on,
        # so the reference has nothing to add; it counts every step itself.
        for j, chain in self.runs.items():
            assert chain.processed == self.processed - self._opened[j]

    def process(self, e):
        self.processed += 1
        if self.knapsacks.singleton_fits(e) and self.constraint.is_independent(
            frozenset({e})
        ):
            value = self.oracle.value(frozenset({e}))
            if value > self.m:
                self.m = value
                self.e_m = e
        if self.m > 0.0:
            self._move_window()
        for j in sorted(self.runs):
            self.runs[j].process(e)
        self.high_water = max(
            self.high_water, sum(c.held for c in self.runs.values())
        )

    def finalize(self):
        best = None
        for chain in self.runs.values():
            candidate = chain.finalize()
            if best is None or candidate.value > best.value:
                best = candidate
        if self.e_m is not None and (best is None or self.m > best.value):
            best = Selection(frozenset({self.e_m}), self.m)
        if best is None:
            best = Selection(frozenset(), self._empty)
        return best


def assert_conserved(chain):
    solutions = [inst.current_solution() for inst in chain.instances]
    union = frozenset().union(*solutions)
    assert chain.processed == len(union) + chain.dropped
    for inst, solution in zip(chain.instances, solutions):
        assert inst.processed == len(solution) + inst.discarded_total


class CountingOracle(ModularOracle):
    def __init__(self, weights):
        super().__init__(weights)
        self.calls = 0

    def value(self, elements):
        self.calls += 1
        return super().value(elements)


class CountingMatroid(UniformMatroid):
    def __init__(self, limit):
        super().__init__(limit)
        self.calls = 0

    def is_independent(self, elements):
        self.calls += 1
        return super().is_independent(elements)


class CountingKnapsacks(KnapsackSpec):
    def __init__(self, d):
        super().__init__(d)
        self.calls = 0

    def feasible(self, elements):
        self.calls += 1
        return super().feasible(elements)

    def singleton_fits(self, e):
        self.calls += 1
        return super().singleton_fits(e)

    def total_cost(self, e):
        self.calls += 1
        return super().total_cost(e)


def sparse_stream(rng, n, d):
    """n elements with ids spread over a wide range, so that the order a
    set iterates in depends on how its table was built, and a kernel over
    those ids with the run path's automatic offset. Costs are low enough
    that an instance holds five or more elements before it freezes."""
    ids = rng.sample(range(10**6), n)
    features = np.array([[rng.gauss(0.0, 0.8) for _ in range(8)] for _ in ids])
    matrix = features @ features.T + 0.2 * np.eye(n)
    kernel = DppKernel(matrix, offset=suggest_logdet_offset(matrix), ids=ids)
    elements = [
        Element(
            id=i,
            costs=tuple(rng.uniform(0.02, 0.3) for _ in range(d)),
            groups=frozenset({rng.choice("ab")}),
        )
        for i in ids
    ]
    return kernel, elements


def float_sum_component(weights, s):
    """log1p of a float sum over s in its iteration order: submodular, and
    its last bits follow that order."""
    return math.log1p(sum(weights[x.id] for x in s))


def rebuilding_oracle(kind, rng, kernel, elements):
    """An oracle that evaluates a set after rebuilding it, or reads it
    through ``DecomposableOracle``'s frozenset components."""
    ids = [e.id for e in elements]
    if kind == "mixture":
        covers = {i: rng.sample(range(2 * len(ids)), 3) for i in ids}
        return WeightedSumOracle(
            [(1.0, LogDetOracle(kernel)), (0.5, CoverageOracle(covers))]
        )
    components = {
        i: partial(
            float_sum_component,
            {j: rng.uniform(0.5, 1.5) * 10.0 ** rng.randint(-9, 0) for j in ids},
        )
        for i in ids
    }
    return DecomposableOracle(components, elements, rng.sample(elements, len(ids) // 2))


def assert_same_selection(got, want):
    assert (got.ids, repr(got.value)) == (want.ids, repr(want.value))


def check_frozen_solutions(engine):
    """Each frozen instance's solution has, under the engine's oracle, the
    bits of the plain copy a pre-overflow record used to hold. Returns how
    many of them a ``frozenset()`` rebuild would iterate in another order."""
    reordered = 0
    runs = engine.runs.values() if isinstance(engine, GridState) else [engine]
    for chain in runs:
        for inst in chain.instances:
            if inst.frozen:
                s, copy = inst.current_solution(), inst.solution_copy()
                assert repr(chain.oracle.value(s)) == repr(chain.oracle.value(copy))
                reordered += list(frozenset(s)) != list(s)
    return reordered


class TestFrozenPassThrough:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "prune", [DoubleGreedyConfig(), RANDOMIZED], ids=["deterministic", "randomized"]
    )
    def test_grid_matches_reference_routing(self, d, prune):
        rng = random.Random(70 + d)
        frozen_steps = 0
        for trial in range(12):
            instance = random_instance(rng, d=d)
            options = dict(k=instance.k, eps=0.2, prune=prune)
            session = StreamingSession(
                instance.oracle, instance.constraint, instance.knapsacks, **options
            )
            reference = ReferenceGrid(
                instance.oracle, instance.constraint, instance.knapsacks, **options
            )
            grid = session.engine
            marks = {len(instance.elements) // 3, 2 * len(instance.elements) // 3}
            for i, e in enumerate(instance.elements):
                session.push(e)
                reference.process(e)
                assert list(grid.runs) == sorted(grid.runs)
                assert grid.high_water == reference.high_water
                assert grid.stats() == reference.stats()
                for chain in grid.runs.values():
                    assert_conserved(chain)
                    frozen_steps += sum(inst.frozen for inst in chain.instances)
                if i in marks:
                    assert session.snapshot() == reference.finalize()
            report = session.close()
            assert report.stats == reference.stats()
            assert report.selection == reference.finalize()
            assert grid.max_chain_high_water == reference.max_chain_high_water
        assert frozen_steps > 0

    def test_fully_frozen_chain_only_counts(self):
        oracle = CountingOracle({i: 1.0 for i in range(1004)})
        constraint = CountingMatroid(5)
        knapsacks = CountingKnapsacks(1)
        chain = ChainState(
            oracle, constraint, rho=0.1, knapsacks=knapsacks
        )
        assert chain.q == 3
        # Each element takes 0.6 of the one budget, so every instance
        # accepts one and freezes on the next one offered to it.
        for i in range(4):
            chain.process(costed(i, 0.6))
        assert all(inst.frozen for inst in chain.instances)
        assert chain.dropped == 1
        held = chain.held
        assert held == 6  # one element and one overflow record each
        oracle.calls = constraint.calls = knapsacks.calls = 0

        for i in range(4, 1004):
            chain.process(costed(i, 0.6))
        assert (oracle.calls, constraint.calls, knapsacks.calls) == (0, 0, 0)
        assert chain.processed == 1004
        assert chain.dropped == 1001
        assert chain.held == held
        assert_conserved(chain)
        assert [inst.processed for inst in chain.instances] == [1004, 1003, 1002]
        assert [inst.discarded_total for inst in chain.instances] == [1003, 1002, 1001]

    def test_frozen_instance_in_a_live_chain_steps_itself(self):
        rng = random.Random(5)
        weights = {i: rng.uniform(0.5, 3.0) for i in range(40)}
        chains = [
            cls(
                ModularOracle(weights), UniformMatroid(3), rho=0.1, knapsacks=KnapsackSpec(1)
            )
            for cls in (ChainState, ReferenceChain)
        ]
        assert [chain.q for chain in chains] == [3, 3]
        # The first instance takes 0 and freezes on 1, which the second
        # instance takes; at 0.1 apiece the rest never overflow it.
        elements = [costed(0, 0.6), costed(1, 0.6)]
        elements += [costed(i, 0.1) for i in range(2, 40)]
        first = chains[0].instances[0]
        steps = []
        step = first.process
        first.process = lambda x: steps.append(x.id) or step(x)
        for e in elements:
            for chain in chains:
                chain.process(e)
            chain, reference = chains
            if e.id >= 1:
                assert chain.instances[0].frozen and not chain.instances[1].frozen
            for inst, ref in zip(chain.instances, reference.instances):
                assert (inst.stats(), inst.held) == (ref.stats(), ref.held)
                assert inst.current_solution() == ref.current_solution()
                assert inst.overflow_record() == ref.overflow_record()
            assert chain.stats() == reference.stats()
            assert chain.held == reference.held
            assert chain.finalize() == reference.finalize()
            assert_conserved(chain)
        # The frozen instance stepped through its own process on every
        # element and kept only its pre-overflow solution.
        assert steps == [e.id for e in elements]
        assert first.processed == len(elements)
        assert first.discarded_total == len(elements) - 1
        assert chain.instances[1].accept_events > 1
        assert chain.instances[2].current_solution()


    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["mixture", "decomposable"])
    def test_rebuilding_oracles_match_reference_routing(self, kind, d):
        # The reference still offers each frozen instance's pre-overflow
        # copy; under these oracles it must never beat the solution.
        reordered = 0
        for trial in range(10):
            rng = random.Random(f"rebuilding:{kind}:{d}:{trial}")
            kernel, elements = sparse_stream(rng, rng.randint(10, 16), d)
            oracle = rebuilding_oracle(kind, rng, kernel, elements)
            constraint = PartitionMatroid({"a": 4, "b": 4})
            prune = RANDOMIZED if trial % 2 else DoubleGreedyConfig()
            options = dict(k=8, eps=0.2, prune=prune)
            session = StreamingSession(oracle, constraint, KnapsackSpec(d), **options)
            reference = ReferenceGrid(oracle, constraint, KnapsackSpec(d), **options)
            for e in elements:
                session.push(e)
                reference.process(e)
                assert_same_selection(session.snapshot(), reference.finalize())
                assert repr(session.engine.stats()) == repr(reference.stats())
                reordered += check_frozen_solutions(session.engine)
            report = session.close()
            assert_same_selection(report.selection, reference.finalize())
            assert repr(report.stats) == repr(reference.stats())
        assert reordered > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_segments_match_reference_routing(self, d):
        # Each segment's SequentialDppOracle rebuilds its sets too.
        reordered = 0
        for trial in range(10):
            rng = random.Random(f"rebuilding:segments:{d}:{trial}")
            kernel, elements = sparse_stream(rng, rng.randint(10, 16), d)
            options = dict(
                constraint=UniformMatroid(8),
                knapsacks=KnapsackSpec(d),
                k=8,
                eps=0.2,
                prune=RANDOMIZED if trial % 2 else DoubleGreedyConfig(),
            )
            segment = rng.randint(6, 10)
            session = SegmentedDppSession(kernel, segment, **options)
            reference = SegmentState(kernel, segment, partial(ReferenceGrid, **options))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for e in elements:
                    session.push(e)
                    reference.process(e)
                    assert_same_selection(session.snapshot(), reference.finalize())
                    assert repr(session.engine.stats()) == repr(reference.stats())
                    reordered += check_frozen_solutions(session.engine._engine)
                report = session.close()
                assert_same_selection(report.selection, reference.finalize())
            assert repr(report.stats) == repr(reference.stats())
        assert reordered > 0

class TestOverCapacityPassThrough:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["coverage", "logdet"])
    def test_grid_counts_what_no_instance_could_hold(self, d, kind, monkeypatch):
        stepped = []
        process = IndStreamInstance.process

        def spy(self, e):
            stepped.append(e.id)
            return process(self, e)

        monkeypatch.setattr(IndStreamInstance, "process", spy)
        rng = random.Random(f"over-capacity:{d}:{kind}")
        passed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(8):
                instance = random_instance(rng, d=d, kinds=(kind,))
                # Every third element costs more than a unit capacity in one
                # of its knapsacks, so no instance can ever hold it.
                elements = []
                for i, e in enumerate(instance.elements):
                    if i % 3 == 1:
                        costs = list(e.costs)
                        costs[rng.randrange(d)] = rng.uniform(1.01, 3.0)
                        e = Element(id=e.id, costs=tuple(costs), groups=e.groups)
                    elements.append(e)
                options = dict(k=instance.k, eps=0.2)
                args = (instance.oracle, instance.constraint, instance.knapsacks)
                session = StreamingSession(*args, **options)
                reference = ReferenceGrid(*args, **options)
                for i, e in enumerate(elements):
                    stepped.clear()
                    session.push(e)
                    if not instance.knapsacks.singleton_fits(e):
                        assert stepped == []
                        passed += len(session.engine.runs)
                    reference.process(e)
                    assert repr(session.engine.stats()) == repr(reference.stats())
                    assert session.engine.high_water == reference.high_water
                    for chain in session.engine.runs.values():
                        assert_conserved(chain)
                    if i % 4 == 3:
                        got, want = session.snapshot(), reference.finalize()
                        assert repr(got.ids) == repr(want.ids)
                        assert repr(got.value) == repr(want.value)
                report = session.close()
                want = reference.finalize()
                assert repr(report.stats) == repr(reference.stats())
                assert repr(report.selection.ids) == repr(want.ids)
                assert repr(report.selection.value) == repr(want.value)
        assert passed > 0


class PairCounter(ValueOracle):
    """Delegates to ``inner`` and counts the evaluations of sets of two or
    more elements: what an instance with a non-empty solution asks when it
    is offered an element, and what the density screen saves."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value(self, elements):
        if len(elements) >= 2:
            self.calls += 1
        return self.inner.value(elements)

    @property
    def clamped(self):
        return self.inner.clamped


class MemoPairCounter(PairCounter):
    """A ``PairCounter`` that opts in to the grid's step memo and records
    each set of two or more it is asked for, by ids in iteration order."""

    memoized = True

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = set()

    def value(self, elements):
        if len(elements) >= 2:
            self.seen.add(tuple(e.id for e in elements))
        return super().value(elements)


def spy_chain_steps(monkeypatch):
    """The chains ``ChainState.process`` is called on, in call order."""
    stepped = []
    process = ChainState.process
    monkeypatch.setattr(
        ChainState, "process", lambda chain, e: stepped.append(chain) or process(chain, e)
    )
    return stepped


def assert_same_grid(session, reference):
    assert session.engine.stats() == reference.stats()
    assert session.engine.high_water == reference.high_water
    assert session.snapshot() == reference.finalize()


class TestDensityScreen:
    @pytest.mark.parametrize("kind", ["coverage", "logdet"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "prune", [DoubleGreedyConfig(), RANDOMIZED], ids=["deterministic", "randomized"]
    )
    def test_grid_matches_unscreened_reference(self, kind, d, prune):
        rng = random.Random(f"screen:{kind}:{d}")
        screened = unscreened = 0
        for _ in range(10):
            instance = random_instance(rng, d=d, kinds=(kind,))
            # Every fourth element costs nothing and so passes the density gate.
            elements = [
                e if i % 4 else Element(id=e.id, costs=(0.0,) * d, groups=e.groups)
                for i, e in enumerate(instance.elements)
            ]
            session_oracle = PairCounter(instance.oracle)
            reference_oracle = PairCounter(instance.oracle)
            options = dict(k=instance.k, eps=0.2, prune=prune)
            session = StreamingSession(
                session_oracle, instance.constraint, instance.knapsacks, **options
            )
            reference = ReferenceGrid(
                reference_oracle, instance.constraint, instance.knapsacks, **options
            )
            for e in elements:
                session.push(e)
                reference.process(e)
                assert_same_grid(session, reference)
            screened += session_oracle.calls
            unscreened += reference_oracle.calls
            assert session.close().stats == reference.stats()
        assert screened < unscreened

    def test_screen_is_off_once_the_oracle_clamped(self):
        # Elements 0-11 form a well-conditioned block; 12 and 13 are exact
        # twins with no coupling to it, so any set holding both has a zero
        # pivot, which the oracle clamps at DET_FLOOR.
        rng = np.random.default_rng(4)
        factors = rng.normal(size=(12, 6))
        matrix = np.zeros((14, 14))
        matrix[:12, :12] = factors @ factors.T + 0.5 * np.eye(12)
        matrix[12:, 12:] = 4.0
        costs = random.Random(4)
        elements = [Element(id=i, costs=(costs.uniform(0.05, 1.0),)) for i in range(14)]
        order = elements[:6] + [elements[12]] + elements[6:8] + [elements[13]]
        order += elements[8:12]

        def side():
            # Each side has its own oracle, so only its own calls clamp it.
            return PairCounter(LogDetOracle(DppKernel(matrix)))

        session_oracle, reference_oracle = side(), side()
        options = dict(k=8, eps=0.2)
        session = StreamingSession(
            session_oracle, UniformMatroid(8), KnapsackSpec(1), **options
        )
        reference = ReferenceGrid(
            reference_oracle, UniformMatroid(8), KnapsackSpec(1), **options
        )
        saved_before_clamp = after_clamp = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for e in order:
                was_clamped = session_oracle.clamped
                before = (session_oracle.calls, reference_oracle.calls)
                session.push(e)
                reference.process(e)
                if was_clamped:
                    assert session_oracle.calls - before[0] == (
                        reference_oracle.calls - before[1]
                    )
                    after_clamp += 1
                elif session_oracle.clamped:
                    saved_before_clamp = before[1] - before[0]
                assert_same_grid(session, reference)
        assert session_oracle.clamped
        assert saved_before_clamp > 0
        assert after_clamp >= 4

    def test_screen_is_off_once_a_memoized_oracle_clamped(self):
        # test_screen_is_off_once_the_oracle_clamped's twin-element kernel,
        # under an oracle the session memoizes. The memo evaluates each
        # ordered set once per push, so the session's calls are set against
        # the reference's distinct sets per push, not its raw calls.
        rng = np.random.default_rng(4)
        factors = rng.normal(size=(12, 6))
        matrix = np.zeros((14, 14))
        matrix[:12, :12] = factors @ factors.T + 0.5 * np.eye(12)
        matrix[12:, 12:] = 4.0
        costs = random.Random(4)
        elements = [Element(id=i, costs=(costs.uniform(0.05, 1.0),)) for i in range(14)]
        order = elements[:6] + [elements[12]] + elements[6:8] + [elements[13]]
        order += elements[8:12]
        session_oracle = MemoPairCounter(LogDetOracle(DppKernel(matrix)))
        reference_oracle = MemoPairCounter(LogDetOracle(DppKernel(matrix)))
        options = dict(k=8, eps=0.2)
        session = StreamingSession(
            session_oracle, UniformMatroid(8), KnapsackSpec(1), **options
        )
        reference = ReferenceGrid(
            reference_oracle, UniformMatroid(8), KnapsackSpec(1), **options
        )
        saved_before_clamp = after_clamp = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for e in order:
                was_clamped = session_oracle.clamped
                calls = session_oracle.calls
                reference_oracle.seen.clear()
                session.push(e)
                reference.process(e)
                made = session_oracle.calls - calls
                distinct = len(reference_oracle.seen)
                if was_clamped:
                    assert made == distinct
                    after_clamp += 1
                else:
                    assert made <= distinct
                    saved_before_clamp += distinct - made
                assert_same_grid(session, reference)
        assert session_oracle.clamped
        assert saved_before_clamp > 0
        assert after_clamp >= 4

    def test_margin_scales_with_the_held_values(self):
        # On top of f({1}) - f(empty) = 1e-3, rounding in f({0, 1}) = 1e7
        # + 1e-3 lifts the gain the gate sees by 1.6e-10: far more than a
        # margin taken from f({1}) and f(empty) alone.
        oracle = ModularOracle({0: 1e7, 1: 1e-3})
        options = dict(k=2, eps=0.2)
        session = StreamingSession(oracle, UniformMatroid(2), KnapsackSpec(1), **options)
        reference = ReferenceGrid(oracle, UniformMatroid(2), KnapsackSpec(1), **options)
        first = costed(0, 0.5)
        session.push(first)
        reference.process(first)
        rho = session.engine.runs[min(session.engine.runs)].rho
        # rho * cost lies between 1e-3 and the gain as the gate computes it.
        second = costed(1, (1e-3 + 1e-10) / rho)
        session.push(second)
        reference.process(second)
        assert_same_grid(session, reference)
        low = session.engine.runs[min(session.engine.runs)]
        assert low.instances[0].current_solution() == frozenset({first, second})

    def test_screened_run_makes_no_call(self, monkeypatch):
        oracle = CountingOracle({0: 1.0, 1: 0.01, 2: 1.0})
        constraint = CountingMatroid(2)
        knapsacks = CountingKnapsacks(1)
        grid = GridState(oracle, constraint, knapsacks, k=2)
        stepped = spy_chain_steps(monkeypatch)
        first = costed(0, 0.5)
        grid.process(first)
        runs = list(grid.runs.values())
        assert stepped == runs
        stepped.clear()
        oracle.calls = constraint.calls = knapsacks.calls = 0
        # Every rho * cost is above the bound f({e}) - f(empty) = 0.01, so
        # only the grid's own f({e}), capacity test and cost are asked.
        assert all(chain.rho * 0.9 > 0.02 for chain in runs)
        grid.process(costed(1, 0.9))
        assert stepped == []
        assert (oracle.calls, constraint.calls, knapsacks.calls) == (1, 0, 2)
        assert all(chain.processed == 1 for chain in runs)
        grid.stats()
        for chain in runs:
            assert (chain.processed, chain.dropped) == (2, 1)
            assert [inst.processed for inst in chain.instances] == [2, 1, 1]
            assert [inst.discarded_total for inst in chain.instances] == [1, 1, 1]
            assert_conserved(chain)
        # Under the bound the element is offered to every run, and each
        # first instance takes it.
        taken = costed(2, 0.2)
        grid.process(taken)
        assert stepped == runs
        for chain in runs:
            assert chain.instances[0].current_solution() == frozenset({first, taken})

    def test_a_nan_singleton_passes_the_screen(self):
        # f({x}) is nan for the marked elements, so the grid's gain cap is
        # nan; f of any larger set holding x is the weight sum. A screen
        # written as rho * cost <= cap would skip x at every run, where an
        # unscreened run can take it.
        class NanSingletons(ModularOracle):
            def __init__(self, weights, marked):
                super().__init__(weights)
                self.marked = marked

            def value(self, elements):
                items = list(elements)
                if len(items) == 1 and items[0].id in self.marked:
                    return math.nan
                return super().value(items)

        taken = 0
        for trial in range(6):
            rng = random.Random(f"nan-singleton:{trial}")
            n = 24
            weights = {i: rng.uniform(0.5, 2.0) for i in range(n)}
            marked = set(rng.sample(range(4, n), 5))
            for i in marked:
                weights[i] = rng.uniform(2.0, 4.0)
            elements = [costed(i, rng.uniform(0.05, 0.4)) for i in range(n)]
            oracle = NanSingletons(weights, marked)
            options = dict(k=6, eps=0.2)
            session = StreamingSession(oracle, UniformMatroid(6), KnapsackSpec(1), **options)
            reference = ReferenceGrid(oracle, UniformMatroid(6), KnapsackSpec(1), **options)
            for e in elements:
                session.push(e)
                reference.process(e)
                assert_same_bits(session, reference)
            for chain in session.engine.runs.values():
                for inst in chain.instances:
                    taken += any(x.id in marked for x in inst.current_solution())
        assert taken > 0

    def test_the_grid_calls_only_the_runs_an_element_can_change(self, monkeypatch):
        # run-budget's shape: a log-det grid under an unbounded uniform
        # matroid, k from its rank hint, one knapsack.
        rng = random.Random("one-step-routing")
        n = 40
        features = np.array([[rng.gauss(0.0, 0.8) for _ in range(8)] for _ in range(n)])
        matrix = features @ features.T + 0.2 * np.eye(n)
        kernel = DppKernel(matrix, offset=suggest_logdet_offset(matrix))
        elements = [costed(i, rng.uniform(0.1, 0.4)) for i in range(n)]
        stepped = spy_chain_steps(monkeypatch)
        oracle = LogDetOracle(kernel)
        grid = GridState(oracle, UniformMatroid(1 << 30), KnapsackSpec(1))
        reference = ReferenceGrid(
            LogDetOracle(kernel), UniformMatroid(1 << 30), KnapsackSpec(1)
        )
        assert grid.k == 1 << 30
        # The density gate's bound, from an oracle of its own.
        probe = LogDetOracle(kernel)
        empty = probe.value(frozenset())
        screened = called_frozen = frozen_in_range = 0
        for e in elements:
            frozen = {id(c) for c in grid.runs.values() if c._all_frozen}
            cap = probe.value(frozenset({e})) - empty
            stepped.clear()
            grid.process(e)
            reference.process(e)
            called = {id(c) for c in stepped}
            for chain in grid.runs.values():
                if id(chain) in frozen:
                    assert id(chain) in called
                    called_frozen += 1
                    frozen_in_range += chain.rho * e.costs[0] > cap + 1e-3
                elif chain.rho * e.costs[0] > cap + 1e-3:
                    assert id(chain) not in called
                    screened += 1
                elif chain.rho * e.costs[0] < cap - 1e-3:
                    assert id(chain) in called
            assert repr(grid.stats()) == repr(reference.stats())
            for j, chain in grid.runs.items():
                ref = reference.runs[j]
                assert (chain.processed, chain.dropped) == (ref.processed, ref.dropped)
                for inst, ref_inst in zip(chain.instances, ref.instances):
                    assert (inst.processed, inst.discarded_total) == (
                        ref_inst.processed,
                        ref_inst.discarded_total,
                    )
                assert_conserved(chain)
        assert not oracle.clamped
        # Some frozen runs were called on elements the screen would skip.
        assert screened > 0 and frozen_in_range > 0
        assert_same_selection(grid.finalize(), reference.finalize())


class CountingLogDet(LogDetOracle):
    """A log-det oracle that counts its calls; it inherits the opt-in."""

    calls = 0

    def value(self, elements):
        self.calls += 1
        return super().value(elements)


def assert_same_bits(session, reference):
    assert repr(session.engine.stats()) == repr(reference.stats())
    assert session.engine.high_water == reference.high_water
    got, want = session.snapshot(), reference.finalize()
    assert repr(got.ids) == repr(want.ids)
    assert repr(got.value) == repr(want.value)


class TestStepMemo:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "prune", [DoubleGreedyConfig(), RANDOMIZED], ids=["deterministic", "randomized"]
    )
    def test_grid_matches_the_unmemoized_reference(self, d, prune):
        rng = random.Random(f"step-memo:{d}")
        memoized = unmemoized = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(8):
                instance = random_instance(rng, d=d, kinds=("logdet",))
                kernel = instance.oracle.kernel
                # Each side has its own oracle, so only its own calls clamp it.
                session_oracle = CountingLogDet(kernel)
                reference_oracle = CountingLogDet(kernel)
                options = dict(k=instance.k, eps=0.2, prune=prune)
                session = StreamingSession(
                    session_oracle, instance.constraint, instance.knapsacks, **options
                )
                reference = ReferenceGrid(
                    reference_oracle, instance.constraint, instance.knapsacks, **options
                )
                memo = session.engine._step_memo
                for e in instance.elements:
                    session.push(e)
                    reference.process(e)
                    # Cleared at the push's start, the memo holds only sets
                    # with e in them, and f(empty) of a run opened by e.
                    assert all(e.id in key for key in memo._values if key)
                    assert all(c.oracle is memo for c in session.engine.runs.values())
                    assert all(
                        c.oracle is reference_oracle for c in reference.runs.values()
                    )
                    assert_same_bits(session, reference)
                report = session.close()
                want = reference.finalize()
                assert repr(report.stats) == repr(reference.stats())
                assert repr(report.selection.ids) == repr(want.ids)
                assert repr(report.selection.value) == repr(want.value)
                memoized += session_oracle.calls
                unmemoized += reference_oracle.calls
        assert memoized < unmemoized

    def test_an_oracle_that_does_not_opt_in_runs_bare(self):
        oracle = ModularOracle({0: 1.0})
        session = StreamingSession(oracle, UniformMatroid(2), KnapsackSpec(1), k=2)
        session.push(costed(0, 0.5))
        assert session.engine._step_memo is None
        assert all(c.oracle is oracle for c in session.engine.runs.values())


def held_solutions(engine):
    """Each instance of the engine with the Solution object it holds."""
    chains = engine.runs.values() if isinstance(engine, GridState) else [engine]
    return [(inst, inst.current_solution()) for c in chains for inst in c.instances]


def live_solutions(engine):
    return {solution for _, solution in held_solutions(engine)}


def sorted_ids(elements):
    return sorted(e.id for e in elements)


class AskSpy:
    """Records the sets a finalize asks the engine's chain oracle for
    outside the pruning pass, and counts the pruning passes' value calls
    (the chain oracle is a grid's step memo when it has one)."""

    def __init__(self, monkeypatch, engine):
        self.clear()
        self._pruning = False
        oracle = engine._evaluator if isinstance(engine, GridState) else engine.oracle
        value, values, prune = oracle.value, oracle.values, localsearch._prune

        def asked(elements):
            if self._pruning:
                self.pruned += 1
            else:
                self.sets.append(elements)
            return value(elements)

        def asked_many(sets):
            if self._pruning:
                self.pruned += len(sets)
            return values(sets)

        def pruning(*args):
            self._pruning = True
            try:
                return prune(*args)
            finally:
                self._pruning = False

        monkeypatch.setattr(oracle, "value", asked)
        monkeypatch.setattr(oracle, "values", asked_many)
        monkeypatch.setattr(localsearch, "_prune", pruning)

    def clear(self):
        self.sets = []
        self.pruned = 0


class PruneSpy:
    """Counts the grounds that ``localsearch`` hands double greedy."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(localsearch, "unconstrained_max_many", self)

    def __call__(self, oracle, grounds, cfg):
        grounds = list(grounds)
        self.calls += len(grounds)
        return unconstrained_max_many(oracle, grounds, cfg)


class TestPruningMemo:
    @pytest.mark.parametrize("kind", ["coverage", "logdet"])
    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    @pytest.mark.parametrize(
        "prune", [DoubleGreedyConfig(), RANDOMIZED], ids=["deterministic", "randomized"]
    )
    def test_snapshots_match_the_uncached_reference(self, kind, d, prune, monkeypatch):
        rng = random.Random(f"memo:{kind}:{d}")
        spy = PruneSpy(monkeypatch)
        pruned_solutions = 0
        for _ in range(8):
            instance = random_instance(rng, d=d, kinds=(kind,))
            if d:
                options = dict(k=instance.k, eps=0.2, prune=prune)
                args = (instance.oracle, instance.constraint, instance.knapsacks)
                session = StreamingSession(*args, **options)
                reference = ReferenceGrid(*args, **options)
            else:
                args = (instance.oracle, instance.constraint)
                session = StreamingSession(*args, prune=prune)
                reference = ReferenceChain(*args, prune=prune)
            engine = session.engine
            for i, e in enumerate(instance.elements):
                session.push(e)
                reference.process(e)
                if i % 3 == 2:
                    got, want = session.snapshot(), reference.finalize()
                    assert repr(got.ids) == repr(want.ids)
                    assert repr(got.value) == repr(want.value)
                    assert set(engine._memo) <= live_solutions(engine)
                    for solution, (pruned, value) in engine._memo.items():
                        want = unconstrained_max(instance.oracle, solution, prune)
                        assert pruned == want
                        assert repr(value) == repr(instance.oracle.value(want))
                    pruned_solutions += len(live_solutions(engine))
            got, want = session.close().selection, reference.finalize()
            assert repr(got.ids) == repr(want.ids)
            assert repr(got.value) == repr(want.value)
        assert 0 < spy.calls < pruned_solutions

    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    def test_repeated_snapshot_prunes_nothing(self, d, monkeypatch):
        instance = random_instance(random.Random(f"repeat:{d}"), d=d)
        session = StreamingSession(
            instance.oracle, instance.constraint, instance.knapsacks, k=instance.k
        )
        engine = session.engine
        spy = PruneSpy(monkeypatch)
        asks = AskSpy(monkeypatch, engine)
        commits = pruned = 0
        # The solutions the last snapshot saw, and its frozen instances.
        before, frozen = [], set()
        for e in instance.elements:
            session.push(e)
            after = held_solutions(engine)
            # Solutions no instance held at the last snapshot: commits, and
            # the empty ones of new instances.
            fresh = [s for _, s in after if not any(s is b for _, b in before)]
            froze = [
                frozenset({inst.overflow_record()})
                for inst, _ in after
                if inst.frozen and id(inst) not in frozen
            ]
            commits += any(len(s) for s in fresh)
            spy.calls = 0
            asks.clear()
            first = session.snapshot()
            pruned += spy.calls
            # Outside the pruning pass, the snapshot evaluates each new
            # solution once and each new overflowing element alone once.
            solutions = [s for s in asks.sets if type(s) is Solution]
            assert sorted(map(id, solutions)) == sorted(map(id, fresh))
            others = [s for s in asks.sets if type(s) is not Solution]
            assert sorted(map(sorted_ids, others)) == sorted(map(sorted_ids, froze))
            spy.calls = 0
            asks.clear()
            assert session.snapshot() == first
            assert spy.calls == 0
            assert asks.sets == [] and asks.pruned == 0
            before = after
            frozen = {id(inst) for inst, _ in after if inst.frozen}
        assert commits > 0 and pruned > 0


    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    def test_the_memo_lets_replaced_solutions_go(self, d):
        # Rows scaled up along the stream, so later elements swap in and
        # every solution changes between the two snapshots.
        n = 80
        factors = np.random.default_rng(8).normal(size=(n, 3))
        scale = np.sqrt(1.1 ** np.arange(n))
        matrix = (factors @ factors.T + 0.5 * np.eye(n)) * np.outer(scale, scale)
        oracle = LogDetOracle(DppKernel(0.5 * (matrix + matrix.T)))
        rng = random.Random(8)
        elements = [Element(id=i, costs=(rng.uniform(0.01, 0.1),) * d) for i in range(n)]
        knapsacks = KnapsackSpec(d) if d else None
        session = StreamingSession(oracle, UniformMatroid(4), knapsacks, k=4)
        engine = session.engine
        for e in elements[:40]:
            session.push(e)
        session.snapshot()
        taken = [weakref.ref(s) for s in live_solutions(engine)]
        assert taken and all(type(key) is frozenset for key in engine._memo)
        for e in elements[40:]:
            session.push(e)
        gc.collect()
        # The memo keys plain copies, so a solution an instance has
        # committed past goes at once, with the bound vector on it.
        live = {id(s) for s in live_solutions(engine)}
        assert any(ref() is None for ref in taken)
        assert all(ref() is None or id(ref()) in live for ref in taken)
        assert len(engine._memo) > 0


def _screen_kernel(kind, n, seed):
    """A log-det kernel over ids 0..n-1 and its offset: ``rbf`` is well
    conditioned, ``edge`` certified for small sets only, and ``clamping``
    rank 2 with a twin pair, so DET_FLOOR clamps on it."""
    rng = np.random.default_rng(seed)
    if kind == "rbf":
        x = rng.normal(size=(n, 4))
        dist = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        matrix = 4.0 * np.exp(-dist / 8.0) + 0.25 * np.eye(n)
    elif kind == "edge":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        matrix = (q * np.geomspace(1e-12, 2.0, n)) @ q.T
    else:
        factors = rng.integers(-1, 2, size=(n, 2)).astype(float)
        factors[1] = factors[0] = (1.0, 1.0)
        matrix = factors @ factors.T
    matrix = 0.5 * (matrix + matrix.T)
    return matrix, suggest_logdet_offset(matrix)


class TestGainBoundScreen:
    """Sessions whose log-det oracle gives ``gain_bound`` against the same
    sessions under ``verify.UnscreenedLogDet``, which gives none."""

    @pytest.mark.parametrize("kernel_kind", ["rbf", "edge", "clamping"])
    @pytest.mark.parametrize("constraint_kind", ["partition", "uniform", "none"])
    @pytest.mark.parametrize("d", [0, 1, 2], ids=["chain", "grid-d1", "grid-d2"])
    def test_screened_session_matches_the_unscreened_one(
        self, d, constraint_kind, kernel_kind, monkeypatch
    ):
        n = 16
        rng = random.Random(f"screen:{d}:{constraint_kind}:{kernel_kind}")
        matrix, offset = _screen_kernel(kernel_kind, n, rng.randrange(1 << 30))
        kernel = DppKernel(matrix, offset=offset)
        constraint = {
            "partition": PartitionMatroid({"a": 2, "b": 2, "c": 1}),
            "uniform": UniformMatroid(4),
            "none": UniformMatroid(1 << 30),
        }[constraint_kind]
        elements = [
            Element(
                id=i,
                costs=tuple(rng.uniform(0.05, 0.6) for _ in range(d)),
                groups=frozenset({rng.choice("abc")}),
            )
            for i in range(n)
        ]
        rng.shuffle(elements)
        knapsacks = KnapsackSpec(d) if d else None

        margins = []
        process = IndStreamInstance.process
        checker = UnscreenedLogDet(kernel)

        def checked_process(self, e):
            # Wherever the bound is a number, the gain the step would take,
            # from a value call on the same ordered set, is at most it.
            if not self.frozen:
                s = self.current_solution()
                bound = self.oracle.gain_bound(s, e)
                if bound is not None:
                    margins.append(bound - (checker.value(s | {e}) - self.value))
            return process(self, e)

        monkeypatch.setattr(IndStreamInstance, "process", checked_process)
        calls = {}
        value = LogDetOracle.value

        def counted_value(self, elements):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return value(self, elements)

        monkeypatch.setattr(LogDetOracle, "value", counted_value)

        screened_oracle, reference_oracle = LogDetOracle(kernel), UnscreenedLogDet(kernel)
        with np.errstate(all="ignore"):
            screened = _screen_run(screened_oracle, elements, constraint, knapsacks, 6)
            reference = _screen_run(reference_oracle, elements, constraint, knapsacks, 6)
        assert screened == reference
        assert min(margins, default=0.0) >= 0.0
        assert reference[1] == (kernel_kind == "clamping")
        if kernel_kind == "rbf" and constraint_kind != "none":
            # Blocked steps that the bound rejects skip their value calls.
            assert margins
            assert calls[id(screened_oracle)] < calls[id(reference_oracle)]


class TestClampWarningSite:
    """The clamp warning names the instance step that asked for the set,
    past the grid's step memo."""

    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    def test_warning_names_the_instance_step(self, d):
        # Twins 0 and 1: their pair's second pivot is exactly 0.
        matrix = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        oracle = LogDetOracle(DppKernel(matrix))
        session = StreamingSession(
            oracle, UniformMatroid(3), KnapsackSpec(d) if d else None, k=3
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(3):
                session.push(Element(id=i, costs=(0.2,) * d))
        assert oracle.clamped
        sites = {w.filename for w in caught if w.category is RuntimeWarning}
        assert sites == {indstream.__file__}

    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    def test_a_clamp_first_reached_at_close_names_double_greedy(self, d):
        # Every element is kept on a diagonal kernel. Swapping in one where
        # 0 and 1 are twins makes the close's first ask, f of a whole
        # solution, the first set that clamps; it reaches the oracle through
        # the lockstep's values calls (and a grid's step memo).
        oracle = LogDetOracle(DppKernel(np.diag([4.0, 4.0, 2.0])))
        session = StreamingSession(
            oracle, UniformMatroid(3), KnapsackSpec(d) if d else None, k=3
        )
        for i in range(3):
            session.push(Element(id=i, costs=(0.2,) * d))
        assert not oracle.clamped
        twins = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        oracle.kernel = DppKernel(twins)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.close()
        assert oracle.clamped
        sites = [w.filename for w in caught if w.category is RuntimeWarning]
        assert sites[0] == unconstrained.__file__
        # The rest name double greedy or the candidate loop, never an oracle.
        assert set(sites) <= {unconstrained.__file__, localsearch.__file__}


def clamp_warnings(caught):
    return sum(w.category is RuntimeWarning for w in caught)


class TestSnapshotValues:
    """A snapshot evaluates each held solution, and each overflowing
    element alone, once: at the first finalize that sees it. It selects
    what the uncached finalize of ``ReferenceChain`` and ``ReferenceGrid``
    selects, to the last bit."""

    def test_a_freeze_after_a_snapshot_offers_the_overflowing_element(self, monkeypatch):
        # Elements 0, 1 and 2 cover one item each, and each instance takes
        # one of them. Element 3, worth 10 alone, then overflows all three
        # instances, which freeze on it without a commit.
        covers = {0: ["a"], 1: ["a"], 2: ["a"], 3: [f"b{i}" for i in range(10)]}
        chain, reference = chains = [
            cls(CoverageOracle(covers), UniformMatroid(5), rho=0.1, knapsacks=KnapsackSpec(1))
            for cls in (ChainState, ReferenceChain)
        ]
        asks = AskSpy(monkeypatch, chain)
        for i in range(3):
            for c in chains:
                c.process(costed(i, 0.6))
        assert [sorted_ids(inst.current_solution()) for inst in chain.instances] == [
            [0], [1], [2]
        ]
        assert_same_selection(chain.finalize(), reference.finalize())
        solutions = [inst.current_solution() for inst in chain.instances]
        last = costed(3, 0.6)
        for c in chains:
            c.process(last)
        assert all(inst.frozen for inst in chain.instances)
        assert all(
            inst.current_solution() is s for inst, s in zip(chain.instances, solutions)
        )
        asks.clear()
        got = chain.finalize()
        # Only the overflowing element alone is new, once per instance.
        assert asks.sets == [frozenset({last})] * 3 and asks.pruned == 0
        assert (got.ids, got.value) == ((3,), 10.0)
        assert_same_selection(got, reference.finalize())
        asks.clear()
        assert chain.finalize() == got
        assert asks.sets == [] and asks.pruned == 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_grid_offers_each_overflow_a_snapshot_missed(self, d, monkeypatch):
        # Coverage grids snapshotted after every push; trial 11 of each d
        # selects an overflowing element that froze its instance after the
        # last snapshot, without a commit.
        trapped = 0
        for trial in range(12):
            rng = random.Random(f"trap:{d}:{trial}")
            instance = random_instance(rng, d=d, kinds=("coverage",))
            options = dict(k=instance.k, eps=0.2)
            args = (instance.oracle, instance.constraint, instance.knapsacks)
            session = StreamingSession(*args, **options)
            reference = ReferenceGrid(*args, **options)
            asks = AskSpy(monkeypatch, session.engine)
            # Instance id -> its solution, whether it was frozen, and the
            # instance itself (so its id is not reused), at the last snapshot.
            seen = {}
            for e in instance.elements:
                session.push(e)
                reference.process(e)
                asks.clear()
                got = session.snapshot()
                asked = [s for s in asks.sets if type(s) is not Solution]
                for inst, solution in held_solutions(session.engine):
                    was = seen.get(id(inst))
                    if inst.frozen and was and was[0] is solution and not was[1]:
                        trapped += 1
                        assert frozenset({inst.overflow_record()}) in asked
                assert_same_selection(got, reference.finalize())
                seen = {
                    id(inst): (solution, inst.frozen, inst)
                    for inst, solution in held_solutions(session.engine)
                }
            monkeypatch.undo()
        assert trapped > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_clamping_grid_matches_the_uncached_reference(self, d):
        n = 14
        rng = random.Random(f"clamping:grid:{d}")
        matrix, offset = _screen_kernel("clamping", n, rng.randrange(1 << 30))
        kernel = DppKernel(matrix, offset=offset)
        elements = [
            Element(id=i, costs=tuple(rng.uniform(0.05, 0.5) for _ in range(d)))
            for i in range(n)
        ]
        rng.shuffle(elements)
        oracles = LogDetOracle(kernel), LogDetOracle(kernel)
        session = StreamingSession(oracles[0], UniformMatroid(4), KnapsackSpec(d), k=4)
        reference = ReferenceGrid(oracles[1], UniformMatroid(4), KnapsackSpec(d), k=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for e in elements:
                session.push(e)
                reference.process(e)
                assert_same_selection(session.snapshot(), reference.finalize())
            assert_same_selection(session.close().selection, reference.finalize())
        assert all(oracle.clamped for oracle in oracles)

    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    def test_a_cached_set_warns_at_its_first_evaluation_only(self, d):
        # As in TestClampWarningSite: every element is kept on a diagonal
        # kernel, and twins 0 and 1 then make every held solution clamp.
        oracles = [LogDetOracle(DppKernel(np.diag([4.0, 4.0, 2.0]))) for _ in range(2)]
        knapsacks = KnapsackSpec(d) if d else None
        session = StreamingSession(oracles[0], UniformMatroid(3), knapsacks, k=3)
        if d:
            reference = ReferenceGrid(oracles[1], UniformMatroid(3), knapsacks, k=3)
        else:
            reference = ReferenceChain(oracles[1], UniformMatroid(3))
        for i in range(3):
            e = Element(id=i, costs=(0.2,) * d)
            session.push(e)
            reference.process(e)
        twins = DppKernel(np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 2.0]]))
        for oracle in oracles:
            oracle.kernel = twins
        counts = []
        for _ in range(3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = session.snapshot()
            with warnings.catch_warnings(record=True) as uncached:
                warnings.simplefilter("always")
                want = reference.finalize()
            assert_same_selection(got, want)
            counts.append((clamp_warnings(caught), clamp_warnings(uncached)))
        # The uncached finalize warns alike on every call; the session warns
        # at its first snapshot only, where each clamped set is first asked.
        (first, uncached_first), *later = counts
        assert first > 0 and uncached_first > 0
        assert [c for c, _ in later] == [0, 0]
        assert [u for _, u in later] == [uncached_first] * 2
        assert all(oracle.clamped for oracle in oracles)


def _twinned_kernel(n, seed):
    """An RBF kernel over ids 0..n-1 in which each element has a twin, so
    that a set holding both clamps, with an offset of 1 that lets the
    density gate pass enough elements for whole runs to freeze."""
    x = np.random.default_rng(seed).normal(size=(n, 4))
    x[n // 2 :] = x[: n - n // 2]
    matrix = 4.0 * np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1) / 8.0)
    return DppKernel(0.5 * (matrix + matrix.T), offset=1.0)


class TestAllFrozenRuns:
    """A run whose instances are all frozen keeps its best candidate and
    leaves the pruning pass; a grid snapshotted after every push still
    selects what ``ReferenceGrid``'s uncached finalize selects."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["coverage", "clamping"])
    def test_snapshots_after_every_push_match_the_reference(self, kind, d):
        # Runs found with their best kept, summed over every snapshot, and
        # the trials whose oracle clamped.
        kept = clamped = 0
        for trial in range(6):
            rng = random.Random(f"all-frozen:{kind}:{d}:{trial}")
            if kind == "coverage":
                instance = random_instance(rng, d=d, kinds=("coverage",))
                elements, options = instance.elements, dict(k=instance.k, eps=0.2)
                sides = [(instance.oracle, instance.constraint, instance.knapsacks)] * 2
            else:
                kernel = _twinned_kernel(30, rng.randrange(1 << 30))
                elements = [
                    Element(id=i, costs=tuple(rng.uniform(0.1, 0.5) for _ in range(d)))
                    for i in range(30)
                ]
                rng.shuffle(elements)
                options = dict(k=4)
                sides = [
                    (LogDetOracle(kernel), UniformMatroid(4), KnapsackSpec(d))
                    for _ in range(2)
                ]
            session = StreamingSession(*sides[0], **options)
            reference = ReferenceGrid(*sides[1], **options)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for e in elements:
                    session.push(e)
                    reference.process(e)
                    assert_same_selection(session.snapshot(), reference.finalize())
                    runs = session.engine.runs.values()
                    kept += sum(chain._final is not None for chain in runs)
                    assert all(
                        chain._all_frozen for chain in runs if chain._final is not None
                    )
                assert_same_selection(session.close().selection, reference.finalize())
            clamped += sides[0][0].clamped
        assert kept > 0
        assert clamped > 0 or kind == "coverage"


class NoSubsetBound(LogDetOracle):
    """A log-det oracle with no subset bound: every finalize prunes every
    solution that no memo entry covers."""

    def subset_bound(self, s):
        return None


class BoundedCut(CutOracle):
    """A cut oracle whose subset bound is the weight of the edges that touch
    S: every cut of a subset of S sums some of those edges, in edge order."""

    def subset_bound(self, s):
        ids = {e.id for e in s}
        return sum(w for u, v, w in self._edges if u in ids or v in ids)


def snapshot_transcript(oracle, elements, constraint, knapsacks, k):
    """A snapshot after every push, then the close, its stats and the
    warnings, all by repr."""
    session = StreamingSession(oracle, constraint, knapsacks, k=k)
    seen = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for e in elements:
            session.push(e)
            snap = session.snapshot()
            seen.append((snap.ids, repr(snap.value)))
        report = session.close()
    seen.append((report.selection.ids, repr(report.selection.value)))
    seen.append(repr(report.stats))
    seen.append([(str(w.message), w.filename, w.lineno) for w in caught])
    return repr(seen), session.engine


def _rising_kernel(n, seed):
    """Row scales rising along the stream, so m grows and a grid's lowest
    runs retire, over a rank-3 kernel with a ridge; the offset is the run
    path's automatic one."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(n, 3))
    scale = np.sqrt(1.15 ** np.arange(n))
    matrix = (factors @ factors.T + 0.3 * np.eye(n)) * np.outer(scale, scale)
    matrix = 0.5 * (matrix + matrix.T)
    return matrix, suggest_logdet_offset(matrix)


class TestSubsetBoundScreen:
    """Sessions whose oracle gives ``subset_bound`` against the same
    sessions under an oracle that gives none: snapshots after every push,
    the close, ``stats()`` and warnings agree by repr."""

    @pytest.mark.parametrize("kernel_kind", ["rising", "rbf", "edge", "clamping"])
    @pytest.mark.parametrize("d", [0, 1, 2], ids=["chain", "grid-d1", "grid-d2"])
    def test_screened_session_matches_the_unbounded_one(self, d, kernel_kind, monkeypatch):
        spy = PruneSpy(monkeypatch)
        pruned = {LogDetOracle: 0, NoSubsetBound: 0}
        retired = 0
        for trial in range(4):
            n = 24
            rng = random.Random(f"subset:{d}:{kernel_kind}:{trial}")
            if kernel_kind == "rising":
                matrix, offset = _rising_kernel(n, rng.randrange(1 << 30))
            else:
                matrix, offset = _screen_kernel(kernel_kind, n, rng.randrange(1 << 30))
            kernel = DppKernel(matrix, offset=offset)
            elements = [
                Element(id=i, costs=tuple(rng.uniform(0.05, 0.5) for _ in range(d)))
                for i in range(n)
            ]
            if kernel_kind != "rising":
                rng.shuffle(elements)
            knapsacks = KnapsackSpec(d) if d else None
            transcripts = []
            for cls in (LogDetOracle, NoSubsetBound):
                spy.calls = 0
                with np.errstate(all="ignore"):
                    transcript, engine = snapshot_transcript(
                        cls(kernel), elements, UniformMatroid(5), knapsacks, 5
                    )
                transcripts.append(transcript)
                pruned[cls] += spy.calls
            assert transcripts[0] == transcripts[1]
            retired += getattr(engine, "retired", 0)
        if kernel_kind in ("rising", "rbf"):
            assert pruned[LogDetOracle] < pruned[NoSubsetBound]
        elif kernel_kind == "clamping":  # no certificate, so no bound
            assert pruned[LogDetOracle] == pruned[NoSubsetBound]
        if d and kernel_kind == "rising":
            assert retired > 0

    def test_a_run_whose_left_out_set_may_win_later_stays_live(self):
        # Cut weights: x (id 0) 49 out; y (id 2) 1 out and 2 to z (id 1);
        # z 3 out; q (id 3) 3 out; three freezers of 30 each; a booster of
        # 51. Run 10 takes x, y, q, z (56, pruned {x, z, q} 57), and run 11
        # rejects q and holds S = {x, y, z} (53), whose pruned set {x, z}
        # (54) is left out under run 10's 56, S's bound being 55. The
        # freezers freeze both runs whole. The booster raises m to 51, which
        # retires run 10, and {x, z} wins, so run 11 must not have kept 53
        # as its best when it froze.
        weights = [49.0, 3.0, 1.0, 3.0, 30.0, 30.0, 30.0, 51.0]
        edges = [(i, 100 + i, w) for i, w in enumerate(weights)] + [(2, 1, 2.0)]
        order = [(0, 0.1), (2, 0.1), (3, 0.45), (1, 0.125), (4, 0.85), (5, 0.5)]
        order += [(6, 0.6), (7, 1.0)]
        elements = [Element(id=i, costs=(c,)) for i, c in order]
        args = (elements, UniformMatroid(4), KnapsackSpec(1), 4)
        nodes = range(108)
        screened, engine = snapshot_transcript(BoundedCut(edges, nodes), *args)
        reference, _ = snapshot_transcript(CutOracle(edges, nodes), *args)
        assert screened == reference
        assert engine.retired == 1 and min(engine.runs) == 11
        assert eval(screened)[-4] == ((0, 1), "54.0")

    @pytest.mark.parametrize("d", [0, 1], ids=["chain", "grid"])
    def test_repeated_snapshot_asks_for_nothing(self, d, monkeypatch):
        spy = PruneSpy(monkeypatch)
        calls = []
        for name in ("value", "values", "subset_bound"):
            method = getattr(LogDetOracle, name)
            monkeypatch.setattr(
                LogDetOracle,
                name,
                lambda self, arg, name=name, method=method: calls.append(name)
                or method(self, arg),
            )
        n = 30
        rng = random.Random(f"repeat-bound:{d}")
        matrix, offset = _screen_kernel("rbf", n, rng.randrange(1 << 30))
        elements = [Element(id=i, costs=(rng.uniform(0.05, 0.4),) * d) for i in range(n)]
        session = StreamingSession(
            LogDetOracle(DppKernel(matrix, offset=offset)),
            UniformMatroid(5),
            KnapsackSpec(d) if d else None,
            k=5,
        )
        bounded = 0
        for e in elements:
            session.push(e)
            calls.clear()
            first = session.snapshot()
            bounded += calls.count("subset_bound")
            calls.clear()
            spy.calls = 0
            assert session.snapshot() == first
            assert calls == [] and spy.calls == 0
        assert bounded > 0
