"""Randomized verification of every advertised guarantee.

Small instances are generated with seeded RNGs, solved exactly by brute
force, and streamed through the algorithms; each check reports the
violation count and the worst observed margin. The CLI ``verify``
command and the acceptance test suite both run these checks.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .bruteforce import brute_opt
from .constraints import (
    IndependenceOracle,
    KnapsackSpec,
    Matchoid,
    PartitionMatroid,
    UniformMatroid,
)
from .errors import ConfigError
from .indstream import IndStreamInstance
from .localsearch import ChainState, GridState, StreamingSession, guarantee_bound
from .objectives import (
    CoverageOracle,
    CutOracle,
    DecomposableOracle,
    DppKernel,
    Element,
    LogDetOracle,
    ValueOracle,
    WeightedSumOracle,
    _logdet_floored,
    _principal,
    coverage_component,
    reservoir_sample,
    sample_size_bound,
)
from .unconstrained import DoubleGreedyConfig, unconstrained_max

# Absolute slack for float noise when comparing against exact bounds.
BOUND_SLACK = 1e-9


@dataclass
class Instance:
    name: str
    elements: list[Element]
    oracle: ValueOracle
    constraint: IndependenceOracle
    knapsacks: KnapsackSpec | None
    k: int


@dataclass
class CheckResult:
    name: str
    trials: int = 0
    violations: int = 0
    worst_margin: float = math.inf
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def record(self, margin: float, violated: bool, detail: str = "") -> None:
        """Count one trial; a violation's ``detail`` is kept for the first."""
        self.trials += 1
        self.worst_margin = min(self.worst_margin, margin)
        if violated:
            if not self.violations and detail:
                self.detail = detail
            self.violations += 1

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.name}: {self.trials} trials, "
            f"{self.violations} violations, worst margin {self.worst_margin:+.4f}{extra}"
        )


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def _coverage(rng: random.Random, ids: list[int]) -> CoverageOracle:
    universe = range(max(4, len(ids)))
    covers = {
        i: rng.sample(list(universe), rng.randint(1, min(4, len(universe))))
        for i in ids
    }
    return CoverageOracle(covers)


def _cut(rng: random.Random, ids: list[int]) -> CutOracle:
    edges = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if rng.random() < 0.45:
                edges.append((ids[a], ids[b], rng.uniform(0.5, 1.5)))
    return CutOracle(edges, nodes=ids)


def exact_logdet_offset(matrix: np.ndarray) -> float:
    """Smallest offset making log det non-negative on every subset.

    Exhaustive, so only usable at test scale.
    """
    n = matrix.shape[0]
    worst = 0.0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        worst = min(worst, _logdet_floored(_principal(matrix, idx))[0])
    return max(0.0, -worst) + 1e-9


def _logdet(rng: random.Random, ids: list[int]) -> LogDetOracle:
    n = len(ids)
    nprng = np.random.default_rng(rng.randrange(1 << 30))
    factors = nprng.normal(size=(n, max(2, n // 2))) * 0.6
    matrix = factors @ factors.T + 0.05 * np.eye(n)
    # Keep at least one singleton log-det non-negative for conditioning.
    matrix *= 1.5 / max(1e-9, float(np.max(np.diag(matrix))))
    kernel = DppKernel(matrix, offset=exact_logdet_offset(matrix), ids=ids)
    return LogDetOracle(kernel)


def _objective(rng: random.Random, ids: list[int], kind: str) -> ValueOracle:
    if kind == "coverage":
        return _coverage(rng, ids)
    if kind == "cut":
        return _cut(rng, ids)
    if kind == "mix":
        return WeightedSumOracle(
            [
                (rng.uniform(0.4, 1.2), _coverage(rng, ids)),
                (rng.uniform(0.4, 1.2), _cut(rng, ids)),
            ]
        )
    if kind == "logdet":
        return _logdet(rng, ids)
    raise ValueError(kind)


_BLOCK_LABELS = ("b0", "b1", "b2")


def _constraint(
    rng: random.Random, n: int
) -> tuple[str, IndependenceOracle, dict[int, frozenset[str]]]:
    """Returns (kind, oracle, per-element groups)."""
    kind = rng.choice(("uniform", "partition", "matchoid"))
    groups: dict[int, frozenset[str]] = {i: frozenset() for i in range(n)}
    if kind == "uniform":
        return kind, UniformMatroid(rng.randint(1, 4)), groups
    if kind == "partition":
        blocks = rng.randint(2, 3)
        labels = _BLOCK_LABELS[:blocks]
        # Every element gets exactly one block so sum(limits) caps the rank.
        for i in range(n):
            groups[i] = frozenset({rng.choice(labels)})
        limits = {label: rng.randint(1, 2) for label in labels}
        return kind, PartitionMatroid(limits), groups
    ids = list(range(n))
    rng.shuffle(ids)
    split = rng.randint(1, n - 1)
    overlap = rng.randint(1, max(1, n // 3))
    ground_a = frozenset(ids[: split + overlap])
    ground_b = frozenset(ids[split:])
    limit_a = rng.randint(1, 3)
    limit_b = rng.randint(1, 3)
    matchoid = Matchoid(
        [(UniformMatroid(limit_a), ground_a), (UniformMatroid(limit_b), ground_b)]
    )
    return kind, matchoid, groups


def random_instance(
    rng: random.Random,
    d: int = 0,
    kinds: tuple[str, ...] = ("coverage", "cut", "mix", "logdet"),
) -> Instance:
    mix = rng.choice(kinds)
    n = rng.randint(6, 10 if mix == "logdet" else 12)
    ckind, constraint, groups = _constraint(rng, n)
    elements = [
        Element(
            id=i,
            costs=tuple(rng.uniform(0.05, 1.0) for _ in range(d)),
            groups=groups[i],
        )
        for i in range(n)
    ]
    oracle = _objective(rng, [e.id for e in elements], mix)
    order = list(elements)
    rng.shuffle(order)
    return Instance(
        name=f"{mix}/{ckind}/n{n}/d{d}",
        elements=order,
        oracle=oracle,
        constraint=constraint,
        knapsacks=KnapsackSpec(d) if d else None,
        k=constraint.rank_hint,
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_guarantee_formulas() -> CheckResult:
    """Closed-form factors match the published constants to 1e-12."""
    tol = 1e-12
    result = CheckResult("guarantee-formula-exactness")

    def compare(got: float, want: float) -> None:
        result.record(tol - abs(got - want), abs(got - want) > tol)

    for p in (1, 2, 3, 4):
        got = guarantee_bound(1.0 / (4.0 * p), 0.5, 0, 0.0)
        compare(got, 1.0 / (1.0 + 2.0 * math.sqrt(p)) ** 2)
        for d in (1, 2, 3):
            for eps in (0.0, 0.1):
                got = guarantee_bound(1.0 / (4.0 * p), 0.5, d, eps)
                want = (1.0 - eps) / (
                    1.0 + 4.0 * p + 4.0 * math.sqrt(p) + d * (2.0 + 1.0 / math.sqrt(p))
                )
                compare(got, want)
    # d = 0 reduction equals the independence-system-only constant.
    for alpha in (1.0, 0.5, 0.25, 0.125, 1.0 / 12.0):
        for beta in (0.5, 1.0 / 3.0):
            got = guarantee_bound(alpha, beta, 0, 0.0)
            root = 1.0 / math.sqrt(alpha) + 1.0 / math.sqrt(2.0 * beta)
            want = math.sqrt(2.0 * beta) / root**2 * (1.0 / math.sqrt(2.0 * beta))
            compare(got, want)
    return result


def _session(
    instance: Instance, prune: DoubleGreedyConfig, eps: float = 0.2
) -> StreamingSession:
    """A fresh session over the instance's oracle, constraint and knapsacks."""
    return StreamingSession(
        instance.oracle,
        instance.constraint,
        instance.knapsacks,
        k=instance.k,
        eps=eps,
        prune=prune,
    )


def _streamed(
    instance: Instance, prune: DoubleGreedyConfig, eps: float = 0.2
) -> ChainState | GridState:
    """Push the instance's stream through a session; return its engine."""
    session = _session(instance, prune, eps)
    for e in instance.elements:
        session.push(e)
    return session.engine


def _short_of(margin: float, opt: float) -> bool:
    """True when ``margin`` falls below zero by more than the float slack."""
    return margin < -BOUND_SLACK * max(1.0, abs(opt))


def check_alg1_bound(trials: int = 300, seed: int = 1) -> CheckResult:
    """Chain output vs brute-force optimum at the proven factor."""
    rng = random.Random(seed)
    prune = DoubleGreedyConfig()
    result = CheckResult("alg1-end-to-end-bound")
    for _ in range(trials):
        instance = random_instance(rng)
        got = _streamed(instance, prune).finalize().value
        opt = brute_opt(instance.oracle, instance.elements, instance.constraint)
        bound = guarantee_bound(instance.constraint.swap_alpha, prune.beta, 0, 0.0)
        margin = got - bound * opt.best_value
        result.record(
            margin,
            _short_of(margin, opt.best_value),
            f"first violation on {instance.name}",
        )
    return result


def check_alg2_bound(trials: int = 300, seed: int = 2, eps: float = 0.2) -> CheckResult:
    """Grid output vs constrained optimum; output must stay feasible."""
    rng = random.Random(seed)
    prune = DoubleGreedyConfig()
    result = CheckResult("alg2-end-to-end-bound")
    for t in range(trials):
        instance = random_instance(rng, d=1 + t % 2)
        final = _streamed(instance, prune, eps).finalize()
        assert instance.knapsacks is not None
        feasible = instance.constraint.is_independent(
            final.elements
        ) and instance.knapsacks.feasible(final.elements)
        opt = brute_opt(
            instance.oracle,
            instance.elements,
            instance.constraint,
            instance.knapsacks,
        )
        bound = guarantee_bound(
            instance.constraint.swap_alpha, prune.beta, instance.knapsacks.d, eps
        )
        margin = final.value - bound * opt.best_value
        why = "infeasible output" if not feasible else "bound violation"
        result.record(
            margin,
            not feasible or _short_of(margin, opt.best_value),
            f"first {why} on {instance.name}",
        )
    return result


def check_backbone_monotone(trials: int = 200, seed: int = 3) -> CheckResult:
    """Single swap-greedy instance: 1/4 of OPT for monotone coverage."""
    rng = random.Random(seed)
    result = CheckResult("monotone-backbone-quarter")
    for _ in range(trials):
        n = rng.randint(6, 12)
        ids = list(range(n))
        oracle = _coverage(rng, ids)
        limit = rng.randint(1, 5)
        constraint = UniformMatroid(limit)
        elements = [Element(id=i) for i in ids]
        rng.shuffle(elements)
        inst = IndStreamInstance(oracle, constraint)
        for e in elements:
            inst.process(e)
        got = oracle.value(inst.current_solution())
        opt = brute_opt(oracle, elements, constraint)
        margin = got - 0.25 * opt.best_value
        result.record(margin, _short_of(margin, opt.best_value))
    return result


def check_double_greedy_deterministic(trials: int = 300, seed: int = 4) -> CheckResult:
    """Deterministic double greedy: a third of the unconstrained optimum."""
    rng = random.Random(seed)
    result = CheckResult("double-greedy-deterministic-third")
    for _ in range(trials):
        instance = random_instance(rng, kinds=("coverage", "cut", "mix"))
        chosen = unconstrained_max(instance.oracle, instance.elements)
        got = instance.oracle.value(chosen)
        opt = brute_opt(instance.oracle, instance.elements)
        margin = got - opt.best_value / 3.0
        result.record(margin, _short_of(margin, opt.best_value))
    return result


def check_double_greedy_randomized(
    instances: int = 25, seeds: int = 500, seed: int = 5
) -> CheckResult:
    """Randomized rule: seed-averaged value within 3 SEs of OPT/2."""
    rng = random.Random(seed)
    result = CheckResult(
        "double-greedy-randomized-half", detail=f"{seeds} seeds per instance"
    )
    for _ in range(instances):
        instance = random_instance(rng, kinds=("cut", "mix"))
        opt = brute_opt(instance.oracle, instance.elements)
        values = []
        for s in range(seeds):
            cfg = DoubleGreedyConfig(mode="randomized", seed=s)
            chosen = unconstrained_max(instance.oracle, instance.elements, cfg)
            values.append(instance.oracle.value(chosen))
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        margin = mean - (0.5 * opt.best_value - 3.0 * stderr)
        result.record(margin, _short_of(margin, opt.best_value))
    return result


def check_memory_accounting(trials: int = 40, seed: int = 6, eps: float = 0.2) -> CheckResult:
    """High-water counters obey the chain and grid memory bounds."""
    rng = random.Random(seed)
    result = CheckResult("memory-accounting")
    for t in range(trials):
        instance = random_instance(rng, d=1 + t % 2)
        grid = _streamed(instance, DoubleGreedyConfig(), eps)
        run_cap = math.ceil(math.log(instance.k) / math.log(1.0 + eps)) + 2
        margin = float(run_cap - grid.max_active_runs)
        chain_bound = 0
        for chain in grid.runs.values():
            per_inst = max((i.high_water for i in chain.instances), default=0)
            margin = min(margin, float(chain.q * per_inst - chain.high_water))
            chain_bound = max(chain_bound, chain.q * per_inst)
        chain_bound = max(chain_bound, grid.max_chain_high_water)
        margin = min(
            margin, float(grid.max_active_runs * chain_bound - grid.high_water)
        )
        result.record(margin, margin < 0)
    return result


def check_conservation(
    stream_size: int = 100_000, checkpoint: int = 1_000, seed: int = 7
) -> CheckResult:
    """Disjointness plus held+discarded == processed on a q=3 chain."""
    rng = random.Random(seed)
    n_items = 40
    covers = {
        i: rng.sample(range(n_items), rng.randint(1, 3)) for i in range(stream_size)
    }
    oracle = CoverageOracle(covers)
    chain = ChainState(oracle, UniformMatroid(20), prune=DoubleGreedyConfig())
    assert chain.q == 3
    violations = 0
    checks = 0
    for i in range(stream_size):
        chain.process(Element(id=i))
        if (i + 1) % checkpoint == 0:
            checks += 1
            solutions = [inst.current_solution() for inst in chain.instances]
            union = frozenset().union(*solutions)
            if len(union) != sum(len(s) for s in solutions):
                violations += 1
            for inst in chain.instances:
                if inst.processed != len(inst.current_solution()) + inst.discarded_total:
                    violations += 1
            if chain.processed != len(union) + chain.dropped:
                violations += 1
    return CheckResult("conservation-and-disjointness", checks, violations, 0.0)


def check_decomposable(trials: int = 100, seed: int = 8) -> CheckResult:
    """Sampled estimates stay within eps of the exact decomposable value."""
    rng = random.Random(seed)
    k, eps, delta = 3, 0.5, 0.1
    failures = 0
    worst = math.inf
    for _ in range(trials):
        n = rng.randint(12, 24)
        elements = [Element(id=i) for i in range(n)]
        covers = {i: frozenset(rng.sample(range(10), rng.randint(1, 4))) for i in range(n)}

        components = {
            i: coverage_component(covers[i], lambda x: covers[x.id]) for i in range(n)
        }
        capacity = min(sample_size_bound(k, eps, delta, n), n)
        sample: list[Element] = []
        for position, e in enumerate(elements, start=1):
            reservoir_sample(position, sample, capacity, e, rng)
        oracle = DecomposableOracle(components, elements, sample)
        instance_ok = True
        for _ in range(20):
            subset = frozenset(rng.sample(elements, rng.randint(0, k)))
            err = abs(oracle.value(subset) - oracle.exact_value(subset))
            worst = min(worst, eps - err)
            if err > eps:
                instance_ok = False
        if not instance_ok:
            failures += 1
    violations = 0 if failures <= delta * trials else failures
    return CheckResult(
        "decomposable-estimation", trials, violations, worst,
        f"{failures} instance failures allowed up to {int(delta * trials)}",
    )


def check_anytime(seed: int = 9, trials: int = 20) -> CheckResult:
    """Mid-stream snapshots must not disturb the final state."""
    rng = random.Random(seed)
    result = CheckResult("anytime-snapshots")
    for t in range(trials):
        d = t % 3  # mix plain chains and grids
        instance = random_instance(rng, d=d)
        mode = "randomized" if t % 2 else "deterministic"
        prune = DoubleGreedyConfig(mode=mode, seed=11)
        baseline = _streamed(instance, prune).finalize()

        probed = _session(instance, prune)
        n = len(instance.elements)
        marks = {n // 4, n // 2, 3 * n // 4}
        for i, e in enumerate(instance.elements):
            probed.push(e)
            if i + 1 in marks:
                probed.snapshot()
        final = probed.snapshot()
        result.record(0.0, final.ids != baseline.ids or final.value != baseline.value)
    return result


class UnscreenedLogDet(LogDetOracle):
    """A log-det oracle that gives no gain bound: every instance step it
    serves makes its value call, the path before the bound screen."""

    def gain_bound(self, s, e):
        return None


def _near_singular_kernel(rng: random.Random, n: int) -> np.ndarray:
    """A rank-1 or rank-2 PSD kernel plus a ridge of at most 1e-12, so that
    many principal submatrices are singular in floating point and their
    log-dets clamp at ``DET_FLOOR``. Half the kernels take their factors
    from {-1, 0, 1}: exact products, so twin rows and zero rows are exact."""
    nprng = np.random.default_rng(rng.randrange(1 << 30))
    shape = (n, rng.randint(1, 2))
    if rng.random() < 0.5:
        factors = nprng.integers(-1, 2, size=shape).astype(float)
    else:
        factors = nprng.normal(size=shape)
    matrix = factors @ factors.T
    matrix = 0.5 * (matrix + matrix.T)
    return matrix + rng.choice((0.0, 0.0, 1e-16, 1e-14, 1e-12)) * np.eye(n)


def _screen_run(
    oracle: LogDetOracle,
    elements: list[Element],
    constraint: IndependenceOracle,
    knapsacks: KnapsackSpec | None,
    k: int,
) -> tuple[str, bool]:
    """Stream with a snapshot every third push; return a transcript of the
    snapshots, the close, its stats and the warnings, and the clamp state."""
    session = StreamingSession(oracle, constraint, knapsacks, k=k)
    seen = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, e in enumerate(elements):
            session.push(e)
            if i % 3 == 2:
                snap = session.snapshot()
                seen.append((snap.ids, repr(snap.value)))
        report = session.close()
    seen.append((report.selection.ids, repr(report.selection.value)))
    seen.append(repr(report.stats))
    seen.append([(str(w.message), w.filename, w.lineno) for w in caught])
    return repr(seen), oracle.clamped


def check_screen_on_clamping_kernels(trials: int = 200, seed: int = 10) -> CheckResult:
    """On near-singular log-det kernels, a session whose oracle gives
    ``gain_bound`` matches, output and clamp state alike, one whose oracle
    gives none. The detail counts the trials that clamped, and those
    whose kernel the bound certifies (it never clamps)."""
    rng = random.Random(seed)
    result = CheckResult("screen-matches-on-clamping-kernels")
    clamping = certified = 0
    for t in range(trials):
        n = rng.randint(6, 10)
        d = t % 3
        _, constraint, groups = _constraint(rng, n)
        if rng.random() < 0.25:
            constraint = UniformMatroid(1 << 30)  # constraint = none
        elements = [
            Element(
                id=i,
                costs=tuple(rng.uniform(0.05, 1.0) for _ in range(d)),
                groups=groups[i],
            )
            for i in range(n)
        ]
        rng.shuffle(elements)
        matrix = _near_singular_kernel(rng, n)
        knapsacks = KnapsackSpec(d) if d else None
        k = min(n, constraint.rank_hint or n)
        # The floored elimination overflows on singular blocks by design.
        with np.errstate(all="ignore"):
            kernel = DppKernel(matrix, offset=exact_logdet_offset(matrix))
            oracle = LogDetOracle(kernel)
            screened = _screen_run(oracle, elements, constraint, knapsacks, k)
            reference = _screen_run(
                UnscreenedLogDet(kernel), elements, constraint, knapsacks, k
            )
        clamping += reference[1]
        certified += oracle.gain_bound(frozenset(), elements[0]) is not None
        result.record(
            0.0, screened != reference, f"first difference on trial {t}, n{n}/d{d}"
        )
    if not result.violations:
        result.detail = f"{clamping} trials clamped, {certified} certified"
    return result


def run_all(seed: int = 0, trials: int = 0) -> list[CheckResult]:
    """Every check; a non-zero ``trials`` replaces each check's count.

    For conservation the count is the number of 1,000-element checkpoints.
    The randomized double-greedy check keeps its 500 seeds per instance.
    """
    if trials < 0:
        raise ConfigError(f"trials must be non-negative, got {trials}")
    return [
        check_guarantee_formulas(),
        check_alg1_bound(trials=trials or 300, seed=seed + 1),
        check_alg2_bound(trials=trials or 300, seed=seed + 2),
        check_backbone_monotone(trials=trials or 200, seed=seed + 3),
        check_double_greedy_deterministic(trials=trials or 300, seed=seed + 4),
        check_double_greedy_randomized(
            instances=trials or 25, seeds=500, seed=seed + 5
        ),
        check_memory_accounting(trials=trials or 40, seed=seed + 6),
        check_conservation(stream_size=1_000 * (trials or 100), seed=seed + 7),
        check_decomposable(trials=trials or 100, seed=seed + 8),
        check_anytime(seed=seed + 9, trials=trials or 20),
        check_screen_on_clamping_kernels(trials=trials or 200, seed=seed + 10),
    ]
