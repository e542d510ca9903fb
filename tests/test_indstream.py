"""Swap-rule streaming backbone: acceptance, eviction, density gates,
overflow freezing and the bookkeeping invariants the chain relies on."""

import random
import weakref

import numpy as np
import pytest

from streamls import (
    CoverageOracle,
    CutOracle,
    DppKernel,
    Element,
    IndStreamInstance,
    KnapsackSpec,
    LogDetOracle,
    Matchoid,
    ModularOracle,
    PartitionMatroid,
    PredicateOracle,
    PreconditionError,
    UniformMatroid,
    brute_opt,
)
from streamls.constraints import Solution
from streamls.verify import random_instance


def costed(i, *costs):
    return Element(id=i, costs=tuple(costs))


class TestSwapRule:
    def test_first_element_accepted(self):
        inst = IndStreamInstance(ModularOracle({0: 1.0}), UniformMatroid(1))
        out = inst.process(Element(id=0))
        assert out.accepted and out.discarded == frozenset()
        assert inst.current_solution() == frozenset({Element(id=0)})

    def test_swap_accepts_when_gain_beats_double_weight(self):
        oracle = ModularOracle({0: 1.0, 1: 3.0})
        inst = IndStreamInstance(oracle, UniformMatroid(1))
        inst.process(Element(id=0))
        out = inst.process(Element(id=1))
        assert out.accepted
        assert out.discarded == frozenset({Element(id=0)})
        assert inst.current_solution() == frozenset({Element(id=1)})

    def test_swap_rejects_below_double_weight(self):
        oracle = ModularOracle({0: 1.0, 1: 1.5})
        inst = IndStreamInstance(oracle, UniformMatroid(1))
        inst.process(Element(id=0))
        out = inst.process(Element(id=1))
        assert not out.accepted
        assert out.discarded == frozenset({Element(id=1)})
        assert inst.current_solution() == frozenset({Element(id=0)})

    def test_tie_at_threshold_accepts(self):
        oracle = ModularOracle({0: 1.0, 1: 2.0})
        inst = IndStreamInstance(oracle, UniformMatroid(1))
        inst.process(Element(id=0))
        assert inst.process(Element(id=1)).accepted

    def test_non_positive_gain_rejected_even_if_independent(self):
        oracle = CutOracle([(0, 1, 1.0)])
        inst = IndStreamInstance(oracle, UniformMatroid(5))
        inst.process(Element(id=0))
        out = inst.process(Element(id=1))  # closing the cut: gain -1
        assert not out.accepted

    def test_matchoid_swap_evicts_one_per_blocked_part(self):
        matchoid = Matchoid(
            [(UniformMatroid(1), frozenset({0, 2})), (UniformMatroid(1), frozenset({1, 2}))]
        )
        oracle = ModularOracle({0: 1.0, 1: 1.0, 2: 5.0})
        inst = IndStreamInstance(oracle, matchoid)
        inst.process(Element(id=0))
        inst.process(Element(id=1))
        out = inst.process(Element(id=2))
        assert out.accepted
        assert out.discarded == frozenset({Element(id=0), Element(id=1)})
        assert inst.current_solution() == frozenset({Element(id=2)})

    def test_duplicate_insert_rejected(self):
        inst = IndStreamInstance(ModularOracle({0: 1.0}), UniformMatroid(2))
        inst.process(Element(id=0))
        with pytest.raises(PreconditionError):
            inst.process(Element(id=0))

    def test_declared_alpha(self):
        assert UniformMatroid(3).swap_alpha == 0.25
        assert PartitionMatroid({"a": 1, "b": 2}).swap_alpha == 0.25
        matchoid = Matchoid(
            [(UniformMatroid(1), frozenset({0, 1})), (UniformMatroid(1), frozenset({1, 2}))]
        )
        assert matchoid.swap_alpha == pytest.approx(1.0 / 8.0)

    def test_feasibility_invariant_fuzz(self):
        rng = random.Random(31)
        for _ in range(40):
            instance = random_instance(rng)
            constraint = instance.constraint
            # Behind an opaque predicate the same system takes the
            # single-part exchange branch, so both branches' evictions
            # are checked.
            insts = [
                IndStreamInstance(instance.oracle, constraint),
                IndStreamInstance(instance.oracle, PredicateOracle(constraint.is_independent)),
            ]
            for e in instance.elements:
                for inst in insts:
                    inst.process(e)
                    assert constraint.is_independent(inst.current_solution())

    def test_no_whole_set_test_per_step(self):
        class CountingPartition(PartitionMatroid):
            whole_set_tests = 0

            def is_independent(self, elements):
                self.whole_set_tests += 1
                return super().is_independent(elements)

        partition = CountingPartition({"a": 1})
        oracle = ModularOracle({0: 1.0, 1: 1.5, 2: 3.0, 3: 1.0})
        inst = IndStreamInstance(oracle, partition)
        steps = [
            (Element(id=0, groups=frozenset({"a"})), True),  # fits
            (Element(id=1, groups=frozenset({"a"})), False),  # blocked, below 2w
            (Element(id=2, groups=frozenset({"a"})), True),  # blocked, swaps out 0
            (Element(id=3), True),  # in no block
        ]
        for e, accepted in steps:
            before = partition.whole_set_tests
            assert inst.process(e).accepted == accepted
            # The precondition and the search both work on e's block alone.
            assert partition.whole_set_tests - before == 0
        assert inst.current_solution() == frozenset({steps[2][0], steps[3][0]})

    def test_conservation_identity(self):
        rng = random.Random(32)
        for _ in range(40):
            instance = random_instance(rng)
            inst = IndStreamInstance(instance.oracle, instance.constraint)
            for e in instance.elements:
                inst.process(e)
            assert inst.processed == len(inst.current_solution()) + inst.discarded_total


class TestDensityGate:
    def test_density_above_threshold_passes(self):
        oracle = ModularOracle({0: 1.0})
        inst = IndStreamInstance(oracle, UniformMatroid(3), rho=1.5, knapsacks=KnapsackSpec(1))
        out = inst.process_with_threshold(costed(0, 0.5))
        assert out.accepted  # density 2.0 >= 1.5

    def test_density_below_threshold_rejects(self):
        oracle = ModularOracle({0: 1.0})
        inst = IndStreamInstance(oracle, UniformMatroid(3), rho=1.5, knapsacks=KnapsackSpec(2))
        out = inst.process_with_threshold(costed(0, 0.5, 0.5))
        assert not out.accepted  # density 1.0 < 1.5

    def test_zero_threshold_matches_plain_process(self):
        rng = random.Random(33)
        for _ in range(25):
            instance = random_instance(rng)
            plain = IndStreamInstance(instance.oracle, instance.constraint)
            gated = IndStreamInstance(
                instance.oracle, instance.constraint, rho=0.0, knapsacks=None
            )
            for e in instance.elements:
                a = plain.process(e)
                b = gated.process_with_threshold(e)
                assert a == b
            assert plain.current_solution() == gated.current_solution()

    def test_zero_cost_element_needs_positive_gain(self):
        oracle = ModularOracle({0: 1.0, 1: 0.0})
        inst = IndStreamInstance(oracle, UniformMatroid(3), rho=5.0, knapsacks=KnapsackSpec(1))
        assert inst.process_with_threshold(costed(0, 0.0)).accepted
        assert not inst.process_with_threshold(costed(1, 0.0)).accepted

    def test_fresh_instance_state(self):
        inst = IndStreamInstance(ModularOracle({}), UniformMatroid(2))
        assert inst.current_solution() == frozenset()
        assert inst.overflow_record() is None


class TestOverflow:
    def test_overflow_freezes_and_records(self):
        oracle = ModularOracle({0: 1.0, 1: 1.1, 2: 9.0})
        inst = IndStreamInstance(oracle, UniformMatroid(5), rho=0.0, knapsacks=KnapsackSpec(1))
        assert inst.process_with_threshold(costed(0, 0.6)).accepted
        out = inst.process_with_threshold(costed(1, 0.6))
        assert not out.accepted
        assert out.discarded == frozenset({Element(id=1)})
        assert inst.overflow_record() == Element(id=1)
        assert inst.frozen and inst.held == 2
        # Frozen: even a huge in-budget element is passed along untouched.
        out = inst.process_with_threshold(costed(2, 0.1))
        assert not out.accepted
        assert inst.current_solution() == frozenset({Element(id=0)})

    def test_singleton_infeasible_cost_never_enters(self):
        oracle = ModularOracle({0: 100.0})
        inst = IndStreamInstance(oracle, UniformMatroid(5), rho=0.0, knapsacks=KnapsackSpec(1))
        out = inst.process_with_threshold(costed(0, 1.5))
        assert not out.accepted
        assert inst.overflow_record() is None  # skipped, not an overflow

    def test_knapsack_totals_never_exceeded(self):
        rng = random.Random(34)
        spec = KnapsackSpec(2)
        for _ in range(30):
            instance = random_instance(rng, d=2)
            inst = IndStreamInstance(
                instance.oracle, instance.constraint, rho=0.05, knapsacks=spec
            )
            for e in instance.elements:
                inst.process_with_threshold(e)
                assert spec.feasible(inst.current_solution())


class TestMonotoneGuarantee:
    def test_quarter_of_optimum_on_coverage(self):
        rng = random.Random(35)
        for _ in range(60):
            n = rng.randint(6, 12)
            oracle = CoverageOracle(
                {i: rng.sample(range(2 * n), rng.randint(1, 4)) for i in range(n)}
            )
            constraint = UniformMatroid(rng.randint(1, 5))
            elements = [Element(id=i) for i in range(n)]
            rng.shuffle(elements)
            inst = IndStreamInstance(oracle, constraint)
            for e in elements:
                inst.process(e)
            opt = brute_opt(oracle, elements, constraint)
            assert oracle.value(inst.current_solution()) >= 0.25 * opt.best_value - 1e-9


class TestHeldSolution:
    @pytest.mark.parametrize(
        "constraint",
        [PartitionMatroid({"a": 2, "b": 1}), UniformMatroid(3)],
        ids=["partition", "uniform"],
    )
    def test_one_object_per_commit(self, constraint):
        rng = random.Random(9)
        # Weights grow along the stream, so later elements swap in.
        oracle = ModularOracle({i: 1.03**i * rng.uniform(0.5, 1.5) for i in range(120)})
        inst = IndStreamInstance(oracle, constraint)
        swaps = 0
        for i in range(120):
            before = inst.current_solution()
            assert type(before) is Solution
            outcome = inst.process(Element(id=i, groups=frozenset({rng.choice("ab")})))
            after = inst.current_solution()
            assert after is inst.current_solution()
            if not outcome.accepted:
                assert after is before
                continue
            swaps += bool(outcome.discarded)
            assert after is not before
            assert after == inst._weights.keys()
            # It iterates as a set built from the held keys.
            assert list(after) == list(inst.solution_copy())
            assert type(inst.solution_copy()) is frozenset
        assert swaps > 3

    def test_a_commit_lets_the_prior_solution_go(self):
        # A log-det oracle keeps a bound vector on each solution; the next
        # solution may keep that vector, but never the solution itself.
        factors = np.random.default_rng(4).normal(size=(60, 3))
        # Rows scaled up along the stream, so later elements swap in.
        scale = np.sqrt(1.1 ** np.arange(60))
        matrix = (factors @ factors.T + 0.5 * np.eye(60)) * np.outer(scale, scale)
        oracle = LogDetOracle(DppKernel(0.5 * (matrix + matrix.T)))
        inst = IndStreamInstance(oracle, UniformMatroid(4))
        appends = swaps = 0
        for i in range(60):
            before = weakref.ref(inst.current_solution())
            outcome = inst.process(Element(id=i))
            s = inst.current_solution()
            assert before() is s or before() is None
            if s is before():
                continue
            appends += not outcome.discarded
            swaps += bool(outcome.discarded)
            # None after a swap; (oracle, vector, element) after an append
            # from a solution the bound read; (oracle, vector) once read.
            assert s.bound is None or s.bound[:2] == (oracle, s.bound[1])
            if s.bound is not None:
                assert type(s.bound[1]) is np.ndarray and s.bound[1].shape == (60,)
                assert len(s.bound) == 2 or type(s.bound[2]) is Element
            assert (s.bound is None) == bool(outcome.discarded)
            # The next step's bound replaces the record with one vector.
            oracle.gain_bound(s, next(e for e in map(Element, range(60)) if e not in s))
            assert len(s.bound) == 2
        assert appends > 3 and swaps > 3

    def test_an_unread_record_is_dropped_at_the_next_commit(self):
        kernel = DppKernel(np.eye(4) + 0.5)
        oracle = LogDetOracle(kernel)
        x, y, z = (Element(id=i) for i in range(3))
        first = Solution([x])
        oracle.gain_bound(first, z)
        second = first.grown([x, y], y)
        assert second.bound[0] is oracle and second.bound[2] is y
        # No bound read second: third keeps nothing of it.
        assert second.grown([x, y, z], z).bound is None

    def test_frozen_record_is_the_overflowing_element(self):
        # The pre-overflow solution is the one the frozen instance holds,
        # so the record keeps only the element and no copy of the set.
        ids = random.Random(6).sample(range(10**6), 7)
        inst = IndStreamInstance(
            ModularOracle({i: 1.0 for i in ids}), UniformMatroid(10), 1e-9, KnapsackSpec(1)
        )
        for i in ids:
            inst.process(costed(i, 0.15))
        s = inst.current_solution()
        assert inst.frozen
        assert inst.overflow_record() == Element(id=ids[-1])
        assert type(inst.overflow_record()) is Element
        assert s == frozenset(map(Element, ids[:-1]))
        assert inst.held == len(s) + 1 == 7
        assert inst.high_water == 7
        # Nothing commits after the freeze: the held object stays.
        inst.process(costed(10**6, 0.0))
        assert inst.current_solution() is s and inst.held == 7
