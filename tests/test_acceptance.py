"""Acceptance suite: every advertised guarantee at its stated scale.

Each test prints one PASS/FAIL line. The end-to-end bounds are checked
against brute-force optima with zero tolerated violations (beyond a
1e-9 relative float slack); the closed-form factors are exact to 1e-12.
"""

import time

from streamls import verify


def _run(check, *args, budget=None, **kwargs):
    start = time.perf_counter()
    result = check(*args, **kwargs)
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {result.line()} [{elapsed:.1f}s]")
    assert result.passed, result.line()
    if budget is not None:
        assert elapsed < budget, f"{result.name} took {elapsed:.1f}s, budget {budget}s"


def test_guarantee_formula_exactness():
    """Corollary constants reproduced to 1e-12 by the bound formula."""
    _run(verify.check_guarantee_formulas)


def test_alg1_end_to_end_bound():
    """300 random instances: chain value >= bound(alpha, 1/3, 0, 0) * OPT."""
    _run(verify.check_alg1_bound, trials=300, seed=1, budget=60.0)


def test_alg2_end_to_end_bound():
    """300 random knapsack instances at eps=0.2: bound holds, output feasible."""
    _run(verify.check_alg2_bound, trials=300, seed=2, eps=0.2, budget=120.0)


def test_monotone_backbone_bound():
    """200 coverage streams under a uniform matroid: backbone >= OPT/4."""
    _run(verify.check_backbone_monotone, trials=200, seed=3)


def test_double_greedy_deterministic():
    """300 instances: deterministic double greedy >= unconstrained OPT/3."""
    _run(verify.check_double_greedy_deterministic, trials=300, seed=4)


def test_double_greedy_randomized():
    """Mean over 500 seeds >= OPT/2 - 3 standard errors per instance."""
    _run(verify.check_double_greedy_randomized, instances=25, seeds=500, seed=5)


def test_memory_accounting():
    """Chain <= q * instance high-water; grid <= |R| * chain bound;
    |R| <= ceil(log_1.2(k)) + 2."""
    _run(verify.check_memory_accounting, trials=40, seed=6)


def test_conservation_and_disjointness():
    """1e5 elements through a q=3 chain, checked every 1e3 elements."""
    _run(verify.check_conservation, stream_size=100_000, checkpoint=1_000, seed=7)


def test_decomposable_estimation():
    """Sampled estimates within eps=0.5 for |S| <= 3, <= 10% failures."""
    _run(verify.check_decomposable, trials=100, seed=8)


def test_anytime_snapshots():
    """Snapshots at 25/50/75% leave the final state bit-identical."""
    _run(verify.check_anytime, seed=9, trials=20)


def test_screen_matches_on_clamping_kernels():
    """200 near-singular log-det kernels: the gain-bound screen changes no
    output and no clamp state."""
    _run(verify.check_screen_on_clamping_kernels, trials=200, seed=10)
