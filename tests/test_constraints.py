"""Independence oracles, knapsack feasibility and the swap-repair search."""

import math
import pickle
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamls import (
    ConfigError,
    DomainError,
    Element,
    IndependenceOracle,
    IndStreamInstance,
    KnapsackSpec,
    Matchoid,
    ModularOracle,
    PartitionMatroid,
    PreconditionError,
    PredicateOracle,
    UniformMatroid,
    exchange_candidates,
)
from streamls.constraints import KNAPSACK_SLACK, Solution
from streamls.streamio import build_constraint


def labeled(i, *labels):
    return Element(id=i, groups=frozenset(labels))


def costed(i, *costs):
    return Element(id=i, costs=tuple(costs))


class TestMatroids:
    def test_uniform_cardinality_bound(self):
        matroid = UniformMatroid(2)
        assert not matroid.is_independent(frozenset(Element(id=i) for i in range(3)))
        assert matroid.is_independent(frozenset(Element(id=i) for i in range(2)))
        assert matroid.is_independent(frozenset())

    def test_partition_at_limit(self):
        matroid = PartitionMatroid({"b1": 1})
        assert matroid.is_independent(frozenset({labeled(0, "b1")}))
        assert not matroid.is_independent(
            frozenset({labeled(0, "b1"), labeled(1, "b1")})
        )

    def test_partition_unconstrained_outside_blocks(self):
        matroid = PartitionMatroid({"b1": 1})
        outsiders = frozenset(labeled(i) for i in range(5))
        assert matroid.is_independent(outsiders)

    def test_partition_blocks_must_be_disjoint(self):
        matroid = PartitionMatroid({"b1": 1, "b2": 1})
        with pytest.raises(DomainError):
            matroid.is_independent(frozenset({labeled(0, "b1", "b2")}))

    def test_matchoid_overlapping_rank_one_parts(self):
        a, b, c = Element(id=0), Element(id=1), Element(id=2)
        matchoid = Matchoid(
            [(UniformMatroid(1), frozenset({0, 1})), (UniformMatroid(1), frozenset({1, 2}))]
        )
        assert matchoid.is_independent(frozenset({a, c}))
        assert not matchoid.is_independent(frozenset({a, b}))
        assert matchoid.p == 2

    def test_matchoid_p_matches_brute_force_multiplicity(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(3, 8)
            parts = []
            for _ in range(rng.randint(1, 4)):
                ground = frozenset(rng.sample(range(n), rng.randint(1, n)))
                parts.append((UniformMatroid(rng.randint(1, 3)), ground))
            matchoid = Matchoid(parts)
            expected = max(
                sum(1 for _, g in parts if i in g) for i in range(n)
            )
            assert matchoid.p == max(expected, 1)

    def test_explicit_p_below_multiplicity_rejected(self):
        # Label grounds: found element by element, when it is tested.
        matchoid = build_constraint("matchoid:a=1;b=1;p=1")
        assert matchoid.is_independent(frozenset({labeled(0, "a"), labeled(1, "b")}))
        with pytest.raises(DomainError):
            matchoid.is_independent(frozenset({labeled(2, "a", "b")}))
        with pytest.raises(DomainError):
            exchange_candidates(matchoid, frozenset({labeled(0, "a")}), labeled(2, "a", "b"))
        # Id-set grounds: known up front, so construction fails.
        with pytest.raises(ConfigError):
            Matchoid(
                [(UniformMatroid(1), frozenset({0, 1})), (UniformMatroid(1), frozenset({1, 2}))],
                p=1,
            )

    def test_empty_systems(self):
        # An empty partition is legal and constrains nothing; an empty
        # matchoid without a declared p is not.
        empty = PartitionMatroid({})
        assert empty.is_independent(frozenset(labeled(i, "b1") for i in range(5)))
        assert empty.rank_hint == 0
        with pytest.raises(ConfigError):
            Matchoid([])

    def test_matchoid_rank_hint_sums_parts(self):
        matchoid = Matchoid(
            [(UniformMatroid(2), frozenset({0, 1})), (UniformMatroid(3), frozenset({1, 2}))]
        )
        assert matchoid.rank_hint == 5

    def test_hereditary_fuzz(self):
        rng = random.Random(11)
        oracles = [
            UniformMatroid(3),
            PartitionMatroid({"b0": 1, "b1": 2}),
            Matchoid(
                [
                    (UniformMatroid(2), frozenset(range(0, 7))),
                    (UniformMatroid(2), frozenset(range(4, 10))),
                ]
            ),
        ]
        pool = [labeled(i, f"b{i % 2}") for i in range(10)]
        checked = 0
        while checked < 1000:
            oracle = rng.choice(oracles)
            subset = frozenset(e for e in pool if rng.random() < 0.4)
            if not oracle.is_independent(subset) or not subset:
                continue
            checked += 1
            victim = rng.choice(sorted(subset, key=lambda e: e.id))
            assert oracle.is_independent(subset - {victim})

    def test_exchange_property_fuzz(self):
        # Matroid exchange: |B| > |A| implies some e in B-A extends A.
        rng = random.Random(13)
        pool = [labeled(i, f"b{i % 3}") for i in range(9)]
        for oracle in (UniformMatroid(4), PartitionMatroid({"b0": 2, "b1": 2, "b2": 2})):
            for _ in range(500):
                a = frozenset(e for e in pool if rng.random() < 0.3)
                b = frozenset(e for e in pool if rng.random() < 0.5)
                if not (oracle.is_independent(a) and oracle.is_independent(b)):
                    continue
                if len(b) <= len(a):
                    continue
                assert any(
                    oracle.is_independent(a | {e}) for e in b - a
                ), f"exchange failed for A={sorted(e.id for e in a)}, B={sorted(e.id for e in b)}"


class TestKnapsacks:
    def test_single_budget_feasible(self):
        spec = KnapsackSpec(1)
        assert spec.feasible(frozenset({costed(0, 0.4), costed(1, 0.5)}))

    def test_single_budget_overflow(self):
        spec = KnapsackSpec(1)
        assert not spec.feasible(frozenset({costed(0, 0.6), costed(1, 0.5)}))

    def test_two_budgets(self):
        spec = KnapsackSpec(2)
        assert spec.feasible(frozenset({costed(0, 0.5, 1.0)}))
        assert not spec.feasible(frozenset({costed(0, 0.5, 0.6), costed(1, 0.5, 0.6)}))

    def test_cost_length_mismatch(self):
        spec = KnapsackSpec(2)
        with pytest.raises(DomainError):
            spec.feasible(frozenset({costed(0, 0.5)}))
        no_budget = KnapsackSpec(0)
        with pytest.raises(DomainError):
            no_budget.feasible(frozenset({costed(0, 0.5)}))
        assert no_budget.feasible(frozenset({Element(id=1)}))

    def test_monotone_under_subsets(self):
        rng = random.Random(3)
        spec = KnapsackSpec(2)
        for _ in range(300):
            pool = [costed(i, rng.uniform(0, 0.5), rng.uniform(0, 0.5)) for i in range(6)]
            t = frozenset(e for e in pool if rng.random() < 0.6)
            if not spec.feasible(t):
                continue
            s = frozenset(e for e in t if rng.random() < 0.5)
            assert spec.feasible(s)


class AskedSpec(KnapsackSpec):
    """Counts the sums ``fits_with`` asks ``feasible`` for."""

    def __init__(self, d):
        super().__init__(d)
        self.asked = 0

    def feasible(self, elements):
        self.asked += 1
        return super().feasible(elements)


# One ulp of 1.0.
ULP = 2.0**-52


class TestKeptLoads:
    """``fits_with`` decides from loads kept on a Solution only outside its
    rounding band, and always as ``feasible`` on the same set does."""

    def test_kept_loads_decide_as_a_fresh_sum(self):
        asked_in_band = []
        outcomes = set()

        @settings(max_examples=300, deadline=None)
        @given(
            d=st.integers(1, 3),
            seed=st.integers(0, 2**32 - 1),
            evictions=st.integers(0, 2),
            offsets=st.lists(
                st.integers(-8, 8) | st.sampled_from([-(2**24), 2**24]),
                min_size=3,
                max_size=3,
            ),
        )
        def check(d, seed, evictions, offsets):
            rng = random.Random(seed)
            spec = AskedSpec(d)
            n = rng.randint(45, 55)
            held = [
                Element(id=i, costs=tuple(rng.uniform(0.0, 1.0 / n) for _ in range(d)))
                for i in range(n)
            ]
            # About 50 commits that evict nothing: the loads of the first,
            # empty Solution are summed, and every later one grows them.
            s = Solution()
            for x in held:
                assert spec.fits_with(s, x, frozenset())
                s = s.grown([*s, x], x)
            assert s.loads[0] is spec and spec.asked == 0
            # A last element whose costs bring each load of the kept set to
            # within a few ulps of the capacity, or 2^24 ulps off it.
            evicted = frozenset(rng.sample(held, evictions))
            rest = [x for x in held if x not in evicted]
            costs = []
            for j, offset in zip(range(d), offsets):
                partial = math.fsum(x.costs[j] for x in rest)
                costs.append(max(0.0, 1.0 + KNAPSACK_SLACK - partial + offset * ULP))
            e = Element(id=n, costs=tuple(costs))
            for solution in (s, Solution(s)):
                want = KnapsackSpec.feasible(spec, (solution | {e}) - evicted)
                before = spec.asked
                assert spec.fits_with(solution, e, evicted) == want
                asked_in_band.append(spec.asked - before)
                outcomes.add((want, spec.asked > before))

        check()
        # The band was met, and each answer came from the loads as well.
        assert sum(asked_in_band) > 0
        assert {(True, False), (False, False)} <= outcomes
        assert {want for want, asked in outcomes if asked} == {True, False}

    def test_a_plain_set_is_summed_afresh(self):
        spec = AskedSpec(1)
        s = frozenset({costed(0, 0.5)})
        assert spec.fits_with(s, costed(1, 0.5), frozenset())
        assert not spec.fits_with(s, costed(1, 0.6), frozenset())
        assert spec.fits_with(s, costed(1, 0.6), s)
        assert spec.asked == 3

    def test_loads_are_read_only_by_the_spec_that_summed_them(self):
        one, other = AskedSpec(1), AskedSpec(1)
        s = Solution({costed(0, 0.5)})
        assert one.fits_with(s, costed(1, 0.25), frozenset())
        assert s.loads == (one, [0.5])
        assert other.fits_with(s, costed(1, 0.25), frozenset())
        assert s.loads == (other, [0.5])
        grown = s.grown([*s, costed(1, 0.25)], costed(1, 0.25))
        assert grown.loads == (other, [0.75])
        assert one.asked == other.asked == 0

    @pytest.mark.parametrize(
        "cost, message",
        [
            (math.nan, "element 1 has non-finite cost nan"),
            (math.inf, "element 1 has non-finite cost inf"),
            (-0.5, "element 1 has negative cost -0.5"),
        ],
    )
    def test_facts_refuse_a_cost_as_the_stream_loader_does(self, cost, message):
        spec = KnapsackSpec(2)
        assert spec.facts(costed(0, 0.25, 1.5)) == (1.75, False)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            spec.facts(costed(1, 0.1, cost))


class TestExchangeCandidates:
    def test_single_possible_swap(self):
        a, b = Element(id=0), Element(id=1)
        out = exchange_candidates(UniformMatroid(1), frozenset({a}), b)
        assert out == [frozenset({a})]

    def test_no_exchange_needed(self):
        out = exchange_candidates(UniformMatroid(2), frozenset({Element(id=0)}), Element(id=1))
        assert out == [frozenset()]

    def test_partition_per_block_circuit(self):
        a = labeled(0, "b1")
        c = labeled(1, "b2")
        e = labeled(2, "b1")
        matroid = PartitionMatroid({"b1": 1, "b2": 1})
        out = exchange_candidates(matroid, frozenset({a, c}), e)
        assert out == [frozenset({a})]

    def test_matchoid_one_candidate_set_per_blocked_part(self):
        matchoid = Matchoid(
            [(UniformMatroid(1), frozenset({0, 1})), (UniformMatroid(1), frozenset({1, 2}))]
        )
        a, b, c = Element(id=0), Element(id=1), Element(id=2)
        out = exchange_candidates(matchoid, frozenset({a, c}), b)
        assert sorted(out, key=lambda s: min(e.id for e in s)) == [
            frozenset({a}),
            frozenset({c}),
        ]

    def test_unsalvageable_part_returns_empty_list(self):
        # A zero-capacity part blocks e and no removal can help.
        matchoid = Matchoid([(UniformMatroid(0), frozenset({5}))])
        assert exchange_candidates(matchoid, frozenset(), Element(id=5)) == []

    def test_preconditions(self):
        a = Element(id=0)
        with pytest.raises(PreconditionError):
            exchange_candidates(UniformMatroid(1), frozenset({a}), a)
        with pytest.raises(PreconditionError):
            exchange_candidates(
                UniformMatroid(1),
                frozenset({Element(id=1), Element(id=2)}),
                Element(id=3),
            )
        partition = PartitionMatroid({"b1": 1})
        b = labeled(1, "b1")
        with pytest.raises(PreconditionError):
            exchange_candidates(partition, frozenset({b}), b)
        with pytest.raises(PreconditionError):
            exchange_candidates(partition, frozenset({b, labeled(2, "b1")}), labeled(3))

    def test_opaque_predicate_oracle_single_part(self):
        forbidden = frozenset({0, 1})
        oracle = PredicateOracle(
            lambda s: not forbidden <= frozenset(e.id for e in s), rank_hint=3
        )
        a, b, c = Element(id=0), Element(id=1), Element(id=2)
        out = exchange_candidates(oracle, frozenset({a, c}), b)
        assert out == [frozenset({a})]
        assert oracle.rank_hint == 3


DECLARED = ("b0", "b1", "b2", "b3")
UNDECLARED = ("u0", "u1")


@st.composite
def partition_cases(draw):
    """Random limits, and elements with at most one declared label each."""
    limits = draw(
        st.dictionaries(st.sampled_from(DECLARED), st.integers(0, 3), max_size=len(DECLARED))
    )
    pool = []
    for i in range(draw(st.integers(1, 12))):
        labels = set(draw(st.sets(st.sampled_from(UNDECLARED))))
        declared = draw(st.sampled_from((None,) + DECLARED))
        if declared is not None:
            labels.add(declared)
        pool.append(Element(id=i, groups=frozenset(labels)))
    chosen = draw(st.sets(st.integers(0, len(pool) - 1)))
    return limits, pool, frozenset(pool[i] for i in chosen)


def block_count_independent(limits, elements):
    for label, limit in limits.items():
        if sum(1 for e in elements if label in e.groups) > limit:
            return False
    return True


class CountingPartition(PartitionMatroid):
    whole_set_tests = 0

    def is_independent(self, elements):
        self.whole_set_tests += 1
        return super().is_independent(elements)


class TestPartitionAsMatchoid:
    @settings(max_examples=300, deadline=None)
    @given(partition_cases())
    def test_matches_block_count_and_generic_exchange(self, case):
        limits, pool, subset = case
        partition = CountingPartition(limits)
        # The same system spelled as a label matchoid with p = 1.
        spelled = Matchoid([(UniformMatroid(n), label) for label, n in limits.items()], p=1)
        expected = block_count_independent(limits, subset)
        assert partition.is_independent(subset) == expected
        assert spelled.is_independent(subset) == expected
        assert partition.rank_hint == sum(limits.values())
        if not expected:
            return
        generic = PredicateOracle(partition.is_independent)
        for e in pool:
            if e not in subset:
                want = exchange_candidates(generic, subset, e)
                before = partition.whole_set_tests
                assert exchange_candidates(partition, subset, e) == want
                # Block-local: S and S + e are tested block by block only.
                assert partition.whole_set_tests - before == 0
                assert exchange_candidates(spelled, subset, e) == want

    @settings(max_examples=100, deadline=None)
    @given(partition_cases(), st.sets(st.sampled_from(DECLARED), min_size=2))
    def test_two_declared_labels_raise(self, case, labels):
        limits, pool, subset = case
        limits = {**limits, **{label: limits.get(label, 1) for label in labels}}
        straddler = Element(id=len(pool), groups=frozenset(labels))
        for oracle in (
            PartitionMatroid(limits),
            Matchoid([(UniformMatroid(n), label) for label, n in limits.items()], p=1),
        ):
            with pytest.raises(DomainError):
                oracle.is_independent(subset | {straddler})


LABELS = ("a", "b", "c")


@st.composite
def matchoid_cases(draw):
    """Uniform parts over id or label grounds, p from 1 to 3, and elements
    whose labels may put them in more than p parts."""
    n = draw(st.integers(1, 9))
    ids = st.frozensets(st.integers(0, n - 1), min_size=n // 2)
    ground = st.one_of(st.sampled_from(LABELS), ids)
    limit = st.sampled_from((0, 1, 1, 2))
    parts = draw(st.lists(st.tuples(limit, ground), min_size=1, max_size=4))
    id_grounds = [g for _, g in parts if not isinstance(g, str)]
    most = max((sum(i in g for g in id_grounds) for i in range(n)), default=0)
    assume(most <= 3)
    p = draw(st.integers(max(most, 1), 3))
    pool = [
        Element(id=i, groups=draw(st.frozensets(st.sampled_from(LABELS), max_size=2)))
        for i in range(n)
    ]
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        # Any subset: some are dependent, some hold an element in too many parts.
        return parts, p, pool, frozenset(pool[i] for i in order[: draw(st.integers(0, n))])
    # Greedily filled, so that many of e's parts are full and block it.
    subset = frozenset()
    for i in order:
        grown = subset | {pool[i]}
        if sum(in_ground(pool[i], g) for _, g in parts) <= p and all(
            sum(in_ground(x, g) for x in grown) <= limit for limit, g in parts
        ):
            subset = grown
    return parts, p, pool, subset


def in_ground(x, ground):
    return ground in x.groups if isinstance(ground, str) else x.id in ground


class CountingMatchoid(Matchoid):
    whole_set_tests = 0

    def is_independent(self, elements):
        self.whole_set_tests += 1
        return super().is_independent(elements)


class TestMatchoidExchange:
    @settings(max_examples=400, deadline=None)
    @given(matchoid_cases())
    def test_matches_generic_exchange_part_by_part(self, case):
        parts, p, pool, subset = case
        matchoid = CountingMatchoid([(UniformMatroid(n), g) for n, g in parts], p=p)
        generic = PredicateOracle(matchoid.is_independent)
        for e in pool:
            if e in subset:
                continue
            try:
                want = exchange_candidates(generic, subset, e)
            except (DomainError, PreconditionError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    exchange_candidates(matchoid, subset, e)
                continue
            before = matchoid.whole_set_tests
            got = exchange_candidates(matchoid, subset, e)
            assert matchoid.whole_set_tests == before
            # Each part of e is repaired as the generic search repairs that
            # part alone; one blocked part is the generic answer itself.
            expected = []
            for limit, g in parts:
                if not in_ground(e, g):
                    continue
                alone = PredicateOracle(
                    lambda t, limit=limit, g=g: sum(in_ground(x, g) for x in t) <= limit
                )
                expected.append(exchange_candidates(alone, subset, e))
            if [] in expected:
                assert got == []
                continue
            blocked = [c for answer in expected for c in answer if c]
            assert got == (blocked or [frozenset()])
            if len(blocked) <= 1:
                assert got == want


class CountingUniform(UniformMatroid):
    tests = 0

    def is_independent(self, elements):
        self.tests += 1
        return super().is_independent(elements)


class TestUniformExchange:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 5),
        st.frozensets(st.integers(0, 9), max_size=8),
        st.integers(0, 9),
    )
    def test_matches_generic_exchange_without_a_test(self, limit, ids, eid):
        assume(eid not in ids)
        s, e = frozenset(Element(id=i) for i in ids), Element(id=eid)
        uniform = CountingUniform(limit)
        generic = PredicateOracle(
            UniformMatroid(limit).is_independent, rank_hint=limit, swap_alpha=0.25
        )
        try:
            want = generic.exchange(s, e)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as caught:
                uniform.exchange(s, e)
            assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
        else:
            assert uniform.exchange(s, e) == want
        assert uniform.tests == 0


class GenericUniform(UniformMatroid):
    """A uniform matroid that checks and repairs through the base class's
    generic search: whole-set tests and one removal at a time."""

    _layout = IndependenceOracle._layout
    _repair = IndependenceOracle._repair


def uniform_parts(parts, part):
    return [(part(n), g) for n, g in parts]


class TestUniformParts:
    """A uniform part's structural repair inside a partition and a matchoid."""

    @settings(max_examples=300, deadline=None)
    @given(partition_cases())
    def test_partition_parts_match_the_generic_search(self, case):
        limits, pool, subset = case
        assume(block_count_independent(limits, subset))
        partition = PartitionMatroid(limits)
        generic = PartitionMatroid(limits)
        generic._oracles = [GenericUniform(part.limit) for part in generic._oracles]
        partition._oracles = [CountingUniform(part.limit) for part in partition._oracles]
        touched = len(partition._members(subset))
        for e in pool:
            if e not in subset:
                before = sum(part.tests for part in partition._oracles)
                assert exchange_candidates(partition, subset, e) == exchange_candidates(
                    generic, subset, e
                )
                # The precondition tests each touched block once; no repair tests.
                assert sum(part.tests for part in partition._oracles) - before == touched

    @settings(max_examples=400, deadline=None)
    @given(matchoid_cases())
    def test_matchoid_parts_match_the_generic_search(self, case):
        parts, p, pool, subset = case
        matchoid = Matchoid(uniform_parts(parts, CountingUniform), p=p)
        generic = Matchoid(uniform_parts(parts, GenericUniform), p=p)
        for e in pool:
            if e in subset:
                continue
            try:
                want = exchange_candidates(generic, subset, e)
            except (DomainError, PreconditionError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    exchange_candidates(matchoid, subset, e)
                continue
            touched = len(matchoid._members(subset))
            before = sum(part.tests for part in matchoid._oracles)
            assert exchange_candidates(matchoid, subset, e) == want
            assert sum(part.tests for part in matchoid._oracles) - before == touched

    @pytest.mark.parametrize("limit", [0, 1, 3])
    def test_structural_repair_matches_the_generic_one(self, limit):
        e = Element(id=9)
        for size in range(limit + 1):
            s = frozenset(Element(id=i) for i in range(size))
            want = GenericUniform(limit)._repair(s, e)
            got = UniformMatroid(limit)._repair(s, e)
            assert got == want and type(got) is type(want)


def label_stream(seed, n=160):
    rng = random.Random(seed)
    return [
        Element(id=i, groups=frozenset(rng.sample(LABELS, rng.randint(1, 2))))
        for i in range(n)
    ]


def answer(constraint, s, e):
    """exchange_candidates' answer, or the type and text of what it raised."""
    try:
        return exchange_candidates(constraint, s, e)
    except (DomainError, PreconditionError) as exc:
        return type(exc), str(exc)


SEEDED_CONSTRAINTS = [
    pytest.param(lambda: PartitionMatroid({"a": 2, "b": 1, "c": 3}), id="partition"),
    pytest.param(lambda: build_constraint("matchoid:a=2;b=1;c=2;p=2"), id="label-matchoid"),
    pytest.param(lambda: build_constraint("matchoid:a=1;b=2;c=1;p=3"), id="label-matchoid-p3"),
    pytest.param(lambda: build_constraint("matchoid:a=2;b=1;c=2;p=1"), id="label-matchoid-p1"),
    pytest.param(lambda: UniformMatroid(4), id="uniform"),
    pytest.param(
        lambda: PredicateOracle(lambda s: len(s) <= 3, swap_alpha=0.25), id="predicate"
    ),
]


class TestSolutionLayout:
    @pytest.mark.parametrize("make", SEEDED_CONSTRAINTS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streams_answer_as_plain_sets_do(self, make, seed):
        constraint = make()
        weights = random.Random(seed)
        elements = label_stream(seed)
        oracle = ModularOracle({e.id: weights.uniform(0.1, 2.0) for e in elements})
        inst = IndStreamInstance(oracle, constraint)
        first_uses = reuses = 0
        for e in elements:
            s = inst.current_solution()
            assert type(s) is Solution
            # A layout kept from an earlier step is reused; a new solution
            # is laid out by the first call and reused by the second.
            first_uses += s.layout is None
            reuses += s.layout is not None
            want = answer(constraint, frozenset(s), e)
            assert answer(constraint, s, e) == want
            assert answer(constraint, s, e) == want
            if isinstance(want, tuple):
                with pytest.raises(want[0], match=re.escape(want[1])):
                    inst.process(e)
            else:
                inst.process(e)
        assert inst.accept_events > 3 and first_uses > 3
        # A uniform matroid answers from |s| and lays nothing out.
        assert reuses > 3 or isinstance(constraint, UniformMatroid)

    @pytest.mark.parametrize(
        "constraint",
        [
            PartitionMatroid({"a": 1}),
            build_constraint("matchoid:a=1;b=1;p=2"),
            UniformMatroid(1),
            PredicateOracle(lambda s: len(s) <= 1),
        ],
        ids=["partition", "matchoid", "uniform", "predicate"],
    )
    def test_a_dependent_solution_raises_on_every_call(self, constraint):
        s = Solution({labeled(0, "a"), labeled(1, "a", "b")})
        for _ in range(3):
            with pytest.raises(PreconditionError):
                exchange_candidates(constraint, s, labeled(2, "b"))
        assert s.layout is None

    def test_a_layout_is_read_only_by_the_constraint_that_made_it(self):
        x = labeled(0, "a")
        s = Solution({x})
        by_a = PartitionMatroid({"a": 1})
        by_b = PartitionMatroid({"b": 1})
        twin = PartitionMatroid({"a": 1})
        assert exchange_candidates(by_a, s, labeled(1, "a")) == [frozenset({x})]
        assert s.layout[0] is by_a
        # Part 0 of by_b is label b: by_a's layout would put x in it.
        assert exchange_candidates(by_b, s, labeled(1, "b")) == [frozenset()]
        assert s.layout[0] is by_b
        assert exchange_candidates(by_a, s, labeled(2, "b")) == [frozenset()]
        assert exchange_candidates(twin, s, labeled(1, "a")) == [frozenset({x})]
        assert s.layout[0] is twin

    def test_an_element_in_too_many_parts_raises_at_its_own_step(self):
        constraint = build_constraint("matchoid:a=2;b=2;p=1")
        oracle = ModularOracle({i: 1.0 for i in range(4)})
        inst = IndStreamInstance(oracle, constraint)
        inst.process(labeled(0, "a"))
        inst.process(labeled(1, "b"))
        s = inst.current_solution()
        assert exchange_candidates(constraint, s, labeled(3, "a")) == [frozenset()]
        assert s.layout[0] is constraint
        for _ in range(2):
            with pytest.raises(DomainError, match="element 2 lies in 2 parts but p is 1"):
                inst.process(labeled(2, "a", "b"))
        assert inst.current_solution() is s
        assert inst.process(labeled(3, "a")).accepted

    @pytest.mark.parametrize("make", SEEDED_CONSTRAINTS[:5])
    def test_exchange_leaves_the_constraint_unchanged(self, make):
        constraint = make()
        elements = label_stream(4, n=60)
        oracle = ModularOracle({e.id: 1.0 + e.id % 7 for e in elements})
        inst = IndStreamInstance(oracle, constraint)
        before = pickle.dumps(constraint)
        state = dict(vars(constraint))
        for e in elements:
            s = inst.current_solution()
            answer(constraint, s, e)
            answer(constraint, frozenset(s), e)
            if not isinstance(answer(constraint, s, e), tuple):
                inst.process(e)
        assert inst.accept_events > 3
        assert vars(constraint) == state
        assert pickle.dumps(constraint) == before
