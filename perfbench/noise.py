"""Noise study: run the benchmark over several seeds and report spreads.

    python3 perfbench/noise.py --workloads grid-coverage chain-logdet \
        --seeds 1-10 --out perfbench/results/set-a.json

Runs ``run.py`` once per (workload, seed), one after another, for the
``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` says otherwise.
Prints for every end-to-end metric the median and the interquartile range
as a share of the median, for the raw and the host-speed-scaled figures. The
spread is the quantity a benchmark run is accepted on: ten runs, each
with another seed, quartiles from ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
METRICS = ("setup_s", "elements_per_s", "summary_ms", "peak_held", "selection_value")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range over median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"result": result, "details": details}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--seconds", type=int,
        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--out")
    args = parser.parse_args()
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in _seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, 0)
            runs[workload].append(run)
            res, det = run["result"], run["details"]
            print(
                f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                f"failed={res['failed']} rounds={det['rounds']} wall={det['wall_s']:.1f}s "
                + " ".join(f"{m}={res['metrics'][m]['value']:.6g}" for m in METRICS),
                flush=True,
            )
        for label in ("raw", "scaled"):
            cells = []
            for m in METRICS:
                med, iqr = spread([r["details"][label][m] for r in runs[workload]])
                cells.append(f"{m} {med:.5g} ({iqr:.3f})")
            print(f"  {workload} {label}: " + "; ".join(cells), flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
