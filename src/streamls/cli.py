"""Command line front end: run a stream, verify guarantees, or benchmark.

Exit codes: 0 on success, 1 when a guarantee or invariant is violated,
2 on usage, configuration or parse problems.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import verify as verify_mod
from .constraints import KnapsackSpec, UniformMatroid
from .errors import StreamLsError
from .localsearch import StreamingSession
from .objectives import CoverageOracle, Element
from .unconstrained import DoubleGreedyConfig
from .streamio import (
    RunConfig,
    SegmentedDppSession,
    build_constraint,
    build_objective,
    load_stream,
    summary_metrics,
    write_report,
)


def _cmd_run(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    cfg = RunConfig.from_file(args.config)
    elements = list(
        load_stream(
            cfg.stream,
            cfg.format,
            d=cfg.knapsacks,
            capacities=cfg.capacities or None,
        )
    )
    oracle, kernel = build_objective(cfg, elements)
    knapsacks = KnapsackSpec(cfg.knapsacks) if cfg.knapsacks else None
    options = dict(
        k=cfg.k_value(),
        eps=cfg.eps,
        alpha=cfg.alpha_value(),
        prune=cfg.prune_config(),
        swap_margin=cfg.swap_margin,
    )
    session: SegmentedDppSession | StreamingSession
    if cfg.objective == "seqdpp":
        if cfg.segment < 1:
            raise StreamLsError("seqdpp runs need 'segment' >= 1")
        assert kernel is not None
        session = SegmentedDppSession(
            kernel,
            cfg.segment,
            lambda: build_constraint(cfg.constraint),
            knapsacks,
            **options,
        )
    else:
        session = StreamingSession(
            oracle, build_constraint(cfg.constraint), knapsacks, **options
        )
    for e in elements:
        session.push(e)
    report = session.close()

    fields: dict[str, object] = {
        "objective": cfg.objective,
        "selected": report.selection.ids,
        "value": report.selection.value,
        "pushed": report.pushed,
        "seconds_total": report.seconds_total,
        "seconds_per_element": report.seconds_per_element,
    }
    for key in ("high_water", "max_active_runs", "q", "segments"):
        if key in report.stats:
            fields[key] = report.stats[key]
    references = cfg.reference_sets()
    if references:
        p, r, f = summary_metrics(set(report.selection.ids), references)
        fields["precision"] = p
        fields["recall"] = r
        fields["f_score"] = f
    # Everything up to the report write: set-up, ingest, pushes, summary.
    fields["seconds_wall"] = time.perf_counter() - start
    if cfg.report:
        write_report(cfg.report, fields)
    for key, value in fields.items():
        print(f"{key} = {value}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials:
        results = [
            verify_mod.check_guarantee_formulas(),
            verify_mod.check_alg1_bound(trials=args.trials, seed=args.seed + 1),
            verify_mod.check_alg2_bound(trials=args.trials, seed=args.seed + 2),
            verify_mod.check_backbone_monotone(trials=args.trials, seed=args.seed + 3),
            verify_mod.check_double_greedy_deterministic(
                trials=args.trials, seed=args.seed + 4
            ),
            verify_mod.check_anytime(seed=args.seed + 9),
        ]
    else:
        results = verify_mod.run_all(quick=args.quick, seed=args.seed)
    ok = True
    for result in results:
        print(result.line())
        ok = ok and result.passed
    return 0 if ok else 1


def _bench_stream(n: int, seed: int) -> tuple[list[Element], CoverageOracle]:
    rng = random.Random(seed)
    covers = {i: rng.sample(range(64), rng.randint(1, 4)) for i in range(n)}
    elements = [
        Element(id=i, costs=(rng.uniform(0.01, 0.3),), groups=frozenset())
        for i in range(n)
    ]
    return elements, CoverageOracle(covers)


def _cmd_bench(args: argparse.Namespace) -> int:
    n = args.elements
    randomized = DoubleGreedyConfig(mode="randomized", seed=args.seed)
    # Chain depth: alpha pins q = ceil(sqrt(2 beta / alpha) + 1).
    # Grid width: eps controls the number of parallel threshold runs.
    scenarios = [
        ("chain-depth", q, dict(alpha=alpha, prune=randomized))
        for alpha, q in ((1.0, 2), (0.25, 3), (1.0 / 16.0, 5))
    ] + [
        ("grid-eps", eps, dict(knapsacks=KnapsackSpec(1), k=10, eps=eps, alpha=0.25))
        for eps in (1.0, 0.5, 0.2)
    ]
    table: list[dict[str, object]] = []
    for scenario, param, options in scenarios:
        elements, oracle = _bench_stream(n, args.seed)
        session = StreamingSession(oracle, UniformMatroid(10), **options)
        start = time.perf_counter()
        for e in elements:
            session.push(e)
        elapsed = time.perf_counter() - start
        table.append(
            {
                "scenario": scenario,
                "param": param,
                "elements": n,
                "microseconds_per_element": 1e6 * elapsed / n,
            }
        )

    columns = list(table[0])
    print("\t".join(columns))
    for row in table:
        print("\t".join(str(row[c]) for c in columns))
    if args.output:
        write_report(args.output, {"elements": n}, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamls",
        description="Streaming local search for constrained submodular maximization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="stream a file through the optimizer")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check guarantees on random instances")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--trials", type=int, default=0, help="override per-check trial counts"
    )
    p_verify.add_argument("--quick", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="per-element update-time table")
    p_bench.add_argument("--elements", type=int, default=2000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (StreamLsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
