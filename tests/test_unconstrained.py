"""Double-greedy behavior and its approximation factors."""

import math
import random

import numpy as np
import pytest

from streamls import (
    ConfigError,
    CutOracle,
    DoubleGreedyConfig,
    Element,
    ModularOracle,
    StreamingSession,
    brute_opt,
    unconstrained_max,
)
from streamls.objectives import ValueOracle
from streamls.verify import random_instance


class CountingOracle(ValueOracle):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value(self, elements):
        self.calls += 1
        return self.inner.value(elements)


class TestDoubleGreedy:
    def test_single_edge_cut_is_solved_exactly(self):
        oracle = CutOracle([(0, 1, 1.0)])
        ground = [Element(id=0), Element(id=1)]
        result = unconstrained_max(oracle, ground)
        assert sorted(e.id for e in result) == [0]
        assert oracle.value(result) == 1.0

    def test_modular_keeps_all_positive_weights(self):
        oracle = ModularOracle({0: 1.0, 1: 2.5, 2: 0.25})
        ground = [Element(id=i) for i in range(3)]
        result = unconstrained_max(oracle, ground)
        assert sorted(e.id for e in result) == [0, 1, 2]

    def test_empty_ground(self):
        oracle = ModularOracle({})
        assert unconstrained_max(oracle, []) == frozenset()

    def test_result_is_subset_of_ground(self):
        rng = random.Random(21)
        for _ in range(30):
            instance = random_instance(rng, kinds=("cut", "mix"))
            result = unconstrained_max(instance.oracle, instance.elements)
            assert result <= frozenset(instance.elements)

    def test_evaluation_budget(self):
        # At most 4 oracle calls per element plus setup.
        rng = random.Random(22)
        instance = random_instance(rng, kinds=("mix",))
        counting = CountingOracle(instance.oracle)
        unconstrained_max(counting, instance.elements)
        assert counting.calls <= 4 * len(instance.elements) + 4

    def test_deterministic_third_of_optimum(self):
        rng = random.Random(23)
        for _ in range(60):
            instance = random_instance(rng, kinds=("coverage", "cut", "mix"))
            result = unconstrained_max(instance.oracle, instance.elements)
            opt = brute_opt(instance.oracle, instance.elements)
            assert instance.oracle.value(result) >= opt.best_value / 3.0 - 1e-9

    def test_randomized_half_in_expectation(self):
        rng = random.Random(24)
        for _ in range(4):
            instance = random_instance(rng, kinds=("cut",))
            opt = brute_opt(instance.oracle, instance.elements)
            values = [
                instance.oracle.value(
                    unconstrained_max(
                        instance.oracle,
                        instance.elements,
                        DoubleGreedyConfig(mode="randomized", seed=s),
                    )
                )
                for s in range(300)
            ]
            mean = float(np.mean(values))
            stderr = float(np.std(values, ddof=1)) / math.sqrt(len(values))
            assert mean >= 0.5 * opt.best_value - 3.0 * stderr - 1e-9

    def test_randomized_is_reproducible_per_seed(self):
        rng = random.Random(25)
        instance = random_instance(rng, kinds=("cut",))
        cfg = DoubleGreedyConfig(mode="randomized", seed=7)
        first = unconstrained_max(instance.oracle, instance.elements, cfg)
        second = unconstrained_max(instance.oracle, instance.elements, cfg)
        assert first == second

    def test_default_seed_is_zero(self):
        assert DoubleGreedyConfig(mode="randomized") == DoubleGreedyConfig(
            mode="randomized", seed=0
        )

    def test_snapshot_and_close_agree_under_the_default_seed(self):
        rng = random.Random(26)
        for d in (0, 1):
            for _ in range(20):
                instance = random_instance(rng, d=d, kinds=("cut", "mix"))
                session = StreamingSession(
                    instance.oracle,
                    instance.constraint,
                    instance.knapsacks,
                    k=instance.k,
                    prune=DoubleGreedyConfig(mode="randomized"),
                )
                for e in instance.elements:
                    session.push(e)
                assert session.snapshot() == session.close().selection

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            DoubleGreedyConfig(mode="annealed")

    def test_beta_matches_mode(self):
        assert DoubleGreedyConfig().beta == pytest.approx(1.0 / 3.0)
        assert DoubleGreedyConfig(mode="randomized").beta == 0.5
