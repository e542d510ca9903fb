"""Double-greedy behavior, its approximation factors, and the lockstep
passes against the sequential pass they replaced."""

import math
import random
import warnings
from typing import Iterable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamls import (
    ConfigError,
    CoverageOracle,
    CutOracle,
    DoubleGreedyConfig,
    DppKernel,
    Element,
    LogDetOracle,
    ModularOracle,
    StreamingSession,
    brute_opt,
    unconstrained_max,
)
from streamls.localsearch import _StepMemo
from streamls.objectives import ValueOracle
from streamls.unconstrained import RANDOMIZED, unconstrained_max_many
from streamls.verify import _near_singular_kernel, random_instance


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


def _sequential_unconstrained_max(
    oracle: ValueOracle,
    ground: Iterable[Element],
    cfg: DoubleGreedyConfig = DoubleGreedyConfig(),
) -> frozenset[Element]:
    """The one-ground double greedy as it read before the lockstep passes.

    Kept verbatim: ``TestLockstep`` holds every lockstep pass to it, by
    iteration order and value.
    """
    order = sorted(set(ground), key=lambda e: e.id)
    rng = random.Random(cfg.seed) if cfg.mode == RANDOMIZED else None

    kept: set[Element] = set()
    remaining: set[Element] = set(order)
    value_kept = oracle.value(kept)
    value_remaining = oracle.value(remaining)
    for e in order:
        add_gain = oracle.value(kept | {e}) - value_kept
        drop_gain = oracle.value(remaining - {e}) - value_remaining
        if rng is None:
            keep = add_gain >= drop_gain
        else:
            a = max(add_gain, 0.0)
            b = max(drop_gain, 0.0)
            if a + b <= 0.0:
                keep = add_gain >= drop_gain
            else:
                keep = rng.random() < a / (a + b)
        if keep:
            kept.add(e)
            value_kept += add_gain
        else:
            remaining.discard(e)
            value_remaining += drop_gain
    return frozenset(kept)


KINDS = ("full-rank", "near-singular", "clamping", "duplicated", "coverage", "cut")


def _oracle_maker(kind: str, n: int, seed: int):
    """A fresh-oracle factory over ids 0..n-1, so each side clamps alone."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    if kind == "coverage":
        covers = {
            i: {rng.randrange(2 * n) for _ in range(rng.randint(0, 4))} for i in range(n)
        }
        return lambda: CoverageOracle(covers)
    if kind == "cut":
        edges = [
            (i, j, rng.choice((0.5, 1.0, rng.random())))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        return lambda: CutOracle(edges, nodes=range(n))
    if kind == "full-rank":
        x = nprng.normal(size=(n, 4))
        matrix = 3.0 * np.exp(-((x[:, None] - x[None]) ** 2).sum(-1) / 6.0)
        matrix += 0.3 * np.eye(n)
    elif kind == "near-singular":
        matrix = _near_singular_kernel(rng, n)
    elif kind == "clamping":
        # Rank 2 with twins 0 and 1: exact zero pivots, so DET_FLOOR clamps.
        factors = nprng.integers(-1, 2, size=(n, 2)).astype(float)
        factors[0] = factors[min(1, n - 1)] = (1.0, 0.0)
        matrix = factors @ factors.T
    else:
        base = nprng.normal(size=(n, n))
        rows = [rng.randrange(n) for _ in range(n)]
        matrix = (base @ base.T + 0.5 * np.eye(n))[np.ix_(rows, rows)]
    kernel = DppKernel(0.5 * (matrix + matrix.T), offset=rng.choice((0.0, 2.5, 40.0)))
    return lambda: LogDetOracle(kernel)


@st.composite
def lockstep_cases(draw):
    """An oracle factory, a batch of grounds and a double-greedy config.

    Grounds mix sizes from empty up, overlap, repeat an element inside one
    ground, repeat whole grounds, and come as lists and frozensets."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 12))
    make = _oracle_maker(kind, n, draw(st.integers(0, 2**32 - 1)))
    elements = [Element(id=i) for i in range(n)]
    member = st.sampled_from(elements)
    grounds = []
    for _ in range(draw(st.integers(0, 7))):
        if grounds and draw(st.booleans()):
            grounds.append(draw(st.sampled_from(grounds)))
        else:
            ground = draw(st.lists(member, max_size=n + 2))
            grounds.append(frozenset(ground) if draw(st.booleans()) else ground)
    if draw(st.booleans()):
        cfg = DoubleGreedyConfig()
    else:
        cfg = DoubleGreedyConfig(mode="randomized", seed=draw(st.integers(0, 99)))
    return kind, make, grounds, cfg, draw(st.booleans())


def _clamp_warnings(caught) -> int:
    return sum("clamped" in str(w.message) for w in caught)


class TestLockstep:
    @settings(max_examples=300, deadline=None)
    @given(lockstep_cases())
    @example(("coverage", lambda: CoverageOracle({}), [], DoubleGreedyConfig(), False))
    def test_lockstep_matches_the_sequential_pass(self, case):
        kind, make, grounds, cfg, memoized = case
        inner_ref, inner = make(), make()
        # A grid's close asks through its step memo; a chain asks the oracle.
        use_memo = memoized and inner.memoized
        ref_oracle = _StepMemo(inner_ref) if use_memo else inner_ref
        oracle = _StepMemo(inner) if use_memo else inner
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as ref_caught:
            warnings.simplefilter("always")
            want = [_sequential_unconstrained_max(ref_oracle, g, cfg) for g in grounds]
            want_values = [ref_oracle.value(cut) for cut in want]
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = unconstrained_max_many(oracle, grounds, cfg)
            got_values = oracle.values(got)
        assert [repr(tuple(cut)) for cut in got] == [repr(tuple(cut)) for cut in want]
        assert repr(got_values) == repr(want_values)
        assert inner.clamped == inner_ref.clamped
        assert _clamp_warnings(caught) == _clamp_warnings(ref_caught)
        twins = {Element(id=0), Element(id=1)}
        if kind == "clamping" and any(twins <= set(g) for g in grounds):
            # Each pass first asks for its whole ground.
            assert inner.clamped

    def test_one_ground_is_the_lockstep_call(self):
        oracle = _oracle_maker("full-rank", 9, 5)()
        ground = [Element(id=i) for i in (4, 0, 7, 2, 8, 1)]
        for cfg in (DoubleGreedyConfig(), DoubleGreedyConfig(mode="randomized", seed=3)):
            cut = unconstrained_max(oracle, ground, cfg)
            want = _sequential_unconstrained_max(oracle, ground, cfg)
            assert repr(tuple(cut)) == repr(tuple(want))
            assert [cut] == unconstrained_max_many(oracle, [ground], cfg)

    def test_a_batching_oracle_gets_one_call_per_step(self):
        class Recorder(LogDetOracle):
            def values(self, sets):
                calls.append(len(sets))
                return super().values(sets)

        calls = []
        kernel = _oracle_maker("full-rank", 8, 9)().kernel
        grounds = [[Element(id=i) for i in range(size)] for size in (5, 3, 0)]
        unconstrained_max_many(Recorder(kernel), grounds, DoubleGreedyConfig())
        # Setup asks for both frontier sets of every pass, then each step
        # for two sets of every pass still running.
        assert calls == [6, 4, 4, 4, 2, 2]
