"""Command line front end: run a stream or verify guarantees.

Exit codes: 0 on success, 1 when a guarantee or invariant is violated,
2 on usage, configuration or parse problems.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import verify as verify_mod
from .constraints import KnapsackSpec
from .errors import StreamLsError
from .localsearch import StreamingSession
from .streamio import (
    RunConfig,
    SegmentedDppSession,
    build_constraint,
    build_objective,
    format_value,
    load_stream,
    summary_metrics,
    write_report,
)
from .unconstrained import DoubleGreedyConfig


def _cmd_run(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    cfg = RunConfig.from_file(args.config)
    elements = list(
        load_stream(cfg.stream, cfg.format, d=cfg.knapsacks, capacities=cfg.capacities)
    )
    oracle = build_objective(cfg, elements)
    knapsacks = KnapsackSpec(cfg.knapsacks) if cfg.knapsacks else None
    constraint = build_constraint(cfg.constraint)
    options = dict(
        k=cfg.k,
        eps=cfg.eps,
        prune=DoubleGreedyConfig(mode=cfg.mode, seed=cfg.seed),
    )
    session: SegmentedDppSession | StreamingSession
    if cfg.objective == "seqdpp":
        session = SegmentedDppSession(
            oracle.kernel, cfg.segment, constraint, knapsacks, **options
        )
    else:
        session = StreamingSession(oracle, constraint, knapsacks, **options)
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
    if cfg.references:
        p, r, f = summary_metrics(set(report.selection.ids), cfg.references)
        fields["precision"] = p
        fields["recall"] = r
        fields["f_score"] = f
    # Everything up to the report write: set-up, ingest, pushes, summary.
    fields["seconds_wall"] = time.perf_counter() - start
    if cfg.report:
        write_report(cfg.report, fields)
    for key, value in fields.items():
        print(f"{key} = {format_value(value)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_all(seed=args.seed, trials=args.trials)
    ok = True
    for result in results:
        print(result.line())
        ok = ok and result.passed
    return 0 if ok else 1


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
    p_verify.set_defaults(func=_cmd_verify)
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
