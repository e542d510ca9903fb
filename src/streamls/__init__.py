"""Streaming local search for constrained non-monotone submodular maximization.

A single-pass chain of swap-greedy streaming instances handles any
collection of independence systems; a lazy geometric grid of density
thresholds extends it to multiple knapsack budgets. Objectives include
coverage, graph cuts, log-det DPP utilities (plain and sequential) and
sampled decomposable functions; a brute-force oracle backs the test
suites.
"""

from .bruteforce import BruteForceResult, brute_opt
from .constraints import (
    IndependenceOracle,
    KnapsackSpec,
    Matchoid,
    PartitionMatroid,
    PredicateOracle,
    UniformMatroid,
    exchange_candidates,
)
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    ParseError,
    PreconditionError,
    StreamLsError,
)
from .indstream import IndStreamInstance, ProcessOutcome
from .localsearch import (
    ChainState,
    GridState,
    Selection,
    SessionReport,
    StreamingSession,
    chain_length,
    guarantee_bound,
)
from .objectives import (
    CoverageOracle,
    CutOracle,
    DecomposableOracle,
    DppKernel,
    Element,
    LogDetOracle,
    ModularOracle,
    SequentialDppOracle,
    ValueOracle,
    WeightedSumOracle,
    load_kernel,
    reservoir_sample,
    sample_size_bound,
    seqdpp_conditional_value,
    suggest_logdet_offset,
)
from .streamio import (
    RunConfig,
    SegmentedDppSession,
    load_stream,
    parse_report,
    summary_metrics,
    write_report,
)
from .unconstrained import DoubleGreedyConfig, unconstrained_max

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "CapacityError",
    "ChainState",
    "ConfigError",
    "CoverageOracle",
    "CutOracle",
    "DecomposableOracle",
    "DomainError",
    "DoubleGreedyConfig",
    "DppKernel",
    "Element",
    "GridState",
    "IndStreamInstance",
    "IndependenceOracle",
    "KnapsackSpec",
    "LogDetOracle",
    "Matchoid",
    "ModularOracle",
    "ParseError",
    "PartitionMatroid",
    "PreconditionError",
    "PredicateOracle",
    "ProcessOutcome",
    "RunConfig",
    "SegmentedDppSession",
    "Selection",
    "SequentialDppOracle",
    "SessionReport",
    "StreamLsError",
    "StreamingSession",
    "UniformMatroid",
    "ValueOracle",
    "WeightedSumOracle",
    "brute_opt",
    "chain_length",
    "exchange_candidates",
    "guarantee_bound",
    "load_kernel",
    "load_stream",
    "parse_report",
    "reservoir_sample",
    "sample_size_bound",
    "seqdpp_conditional_value",
    "suggest_logdet_offset",
    "summary_metrics",
    "unconstrained_max",
    "write_report",
]
