"""Chain routing, finalize argmax, the lazy threshold grid and the
session API."""

import math
import random
import warnings

import numpy as np
import pytest

from streamls import (
    ChainState,
    ConfigError,
    CoverageOracle,
    CutOracle,
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
    Selection,
    StreamingSession,
    UniformMatroid,
    ValueOracle,
    brute_opt,
    chain_length,
    guarantee_bound,
)
import streamls.localsearch as localsearch
from streamls.unconstrained import unconstrained_max
from streamls.verify import random_instance


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


class ReferenceChain(ChainState):
    """Plain routing, the reference for the pass-through chain: every
    element goes through every instance, frozen ones included, and
    ``held`` is recounted on every push. Its ``finalize`` is the uncached
    one: it prunes and evaluates every candidate on every call."""

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
            record = inst.overflow_record()
            if record is not None:
                before, last = record
                candidates.append(before)
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

    def test_screened_run_makes_no_call(self):
        oracle = CountingOracle({0: 1.0, 1: 1.0})
        constraint = CountingMatroid(2)
        knapsacks = CountingKnapsacks(1)
        chain = ChainState(oracle, constraint, rho=4.0, knapsacks=knapsacks)
        oracle.calls = 0
        # rho * cost = 2 exceeds the bound f({e}) - f(empty) = 1.
        chain.process(costed(0, 0.5), gain_cap=1.0, cost=0.5)
        assert (oracle.calls, constraint.calls, knapsacks.calls) == (0, 0, 0)
        assert (chain.processed, chain.dropped) == (1, 1)
        assert [inst.processed for inst in chain.instances] == [1, 1, 1]
        assert [inst.discarded_total for inst in chain.instances] == [1, 1, 1]
        assert_conserved(chain)
        # Under the bound the element is offered, and the empty first
        # instance takes it on one value call, its own f({e}).
        taken = costed(1, 0.2)
        chain.process(taken, gain_cap=1.0, cost=0.2)
        assert oracle.calls == 1
        assert chain.instances[0].current_solution() == frozenset({taken})


def live_solutions(engine):
    chains = engine.runs.values() if isinstance(engine, GridState) else [engine]
    return {inst.current_solution() for chain in chains for inst in chain.instances}


class PruneSpy:
    """Counts the double-greedy calls that ``localsearch`` makes."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(localsearch, "unconstrained_max", self)

    def __call__(self, *args):
        self.calls += 1
        return unconstrained_max(*args)


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
        for e in instance.elements:
            session.push(e)
        spy = PruneSpy(monkeypatch)
        first = session.snapshot()
        assert spy.calls > 0
        spy.calls = 0
        assert session.snapshot() == first
        assert spy.calls == 0
